"""The report's outcome tally against its reference formula.

:func:`~repro.serving.engine.tally_outcomes` memoizes each distinct
outcome's JSON text.  Whatever the outcomes, its digest must be the
reference ``sha256(json.dumps(outcomes, sort_keys=True,
separators=(",", ":")))`` and its counts the per-status count, including
for outcomes that compare equal but encode differently.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.engine import tally_outcomes


def reference(outcomes):
    """The report's outcome fields as a plain loop computes them."""
    counts = {}
    for status, _ in outcomes:
        counts[status] = counts.get(status, 0) + 1
    digest = hashlib.sha256(json.dumps(
        outcomes, sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()
    return counts, digest


def assert_matches_reference(outcomes):
    counts, digest = tally_outcomes(outcomes)
    expected_counts, expected_digest = reference(outcomes)
    assert digest == expected_digest
    assert counts == expected_counts
    assert list(map(type, counts)) == list(map(type, expected_counts))


statuses = st.one_of(
    st.sampled_from(["ok", "", "leak", "blocked", "é", "日本", " ",
                     '"quoted"', "back\\slash", "tab\tnew\nline",
                     "\x00\x1f", "\ud800"]),
    st.text(max_size=6))
counts = st.one_of(
    st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 10**40, -10**40]),
    st.sampled_from([0.0, 2.5, -1.0, float("inf")]))
#: Outcomes equal to one another but encoded differently: ``1``,
#: ``True`` and ``1.0`` (and ``0``, ``False``, ``0.0``) under a few
#: shared statuses.
lookalikes = st.tuples(st.sampled_from(["ok", "é"]),
                       st.integers(min_value=0, max_value=1),
                       st.sampled_from([int, bool, float])).map(
    lambda drawn: (drawn[0], drawn[2](drawn[1])))
#: A few distinct outcomes, each drawn many times: repeats are the
#: memo's case, and the lookalikes its trap.
pools = st.lists(st.one_of(lookalikes, st.tuples(statuses, counts)),
                 min_size=1, max_size=6)


@st.composite
def batches(draw):
    pool = draw(pools)
    picks = st.sampled_from(pool)
    # Half the picks are rebuilt: equal outcomes that are not one object.
    outcome = st.one_of(picks, picks.map(lambda o: (o[0], o[1])))
    return draw(st.lists(st.lists(outcome, max_size=12), max_size=5))


@settings(max_examples=300)
@given(batches())
def test_tally_equals_reference(generated):
    assert_matches_reference([outcome for batch in generated
                              for outcome in batch])


@pytest.mark.parametrize("outcomes", [
    [],
    [("ok", 1)] * 5,
    [("ok", 1), ("ok", True)],
    [("ok", True), ("ok", 1)],
    [("ok", 1), ("ok", 1.0), ("ok", 1)],
    [("ok", 0), ("ok", False)],
    [("ok", 1), ("ok", 2**100), ("ok", -7)],
    [("é", 3), ("\\", 3), ('"', 3)],
    [["ok", 1], ["ok", 1]],
    [("ok", 1), ["ok", 1]],
    [(1, "ok"), (1, "ok")],
], ids=["empty", "repeats", "int-then-bool", "bool-then-int",
        "int-float", "zero-false", "big-ints", "escapes", "lists",
        "tuple-and-list", "swapped-fields"])
def test_lookalikes_edges_and_other_shapes(outcomes):
    assert_matches_reference(outcomes)
