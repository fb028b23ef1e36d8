"""Seeded end-to-end serving benchmark with a traced per-layer pass."""
