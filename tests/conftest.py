"""Shared fixtures, helpers, and Hypothesis profiles for the suite."""

from __future__ import annotations

import os

import pytest

from repro.allocator.libc import LibcAllocator
from repro.machine.memory import VirtualMemory

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is optional
    settings = None

if settings is not None:
    # ``ci``: reproducible and thorough — a fixed derandomized search,
    # no deadline (shared CI runners have noisy clocks), more examples.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # ``nightly``: a fresh random search on every run, ten times the
    # ``ci`` budget, for the scheduled differential campaign.
    settings.register_profile(
        "nightly",
        deadline=None,
        max_examples=2000,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # ``dev``: fast feedback for local edit-test loops.
    settings.register_profile("dev", max_examples=25, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def memory() -> VirtualMemory:
    """A fresh simulated address space."""
    return VirtualMemory()


@pytest.fixture
def allocator() -> LibcAllocator:
    """A fresh allocator over a fresh address space."""
    return LibcAllocator()
