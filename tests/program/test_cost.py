"""Cycle meter and cost model."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.program.cost import (
    DEFAULT_COST_MODEL,
    ChargeRecord,
    CostModel,
    CycleMeter,
)


def test_charge_accumulates_by_category():
    meter = CycleMeter()
    meter.charge("base", 10)
    meter.charge("base", 5)
    meter.charge("defense", 2.5)
    assert meter.category("base") == 15
    assert meter.category("defense") == 2.5
    assert meter.total == 17.5


def test_unknown_category_reads_zero():
    assert CycleMeter().category("nope") == 0


def test_snapshot_is_a_copy():
    meter = CycleMeter()
    meter.charge("base", 1)
    snapshot = meter.snapshot()
    snapshot["base"] = 99
    assert meter.category("base") == 1


def test_reset():
    meter = CycleMeter()
    meter.charge("base", 1)
    meter.reset()
    assert meter.total == 0


def test_mem_cost_scales_with_size():
    model = DEFAULT_COST_MODEL
    assert model.mem_cost(1) == model.mem_op + model.mem_word
    assert model.mem_cost(8) == model.mem_op + model.mem_word
    assert model.mem_cost(9) == model.mem_op + 2 * model.mem_word
    assert model.mem_cost(800) > model.mem_cost(8)


def test_cost_model_is_frozen_dataclass():
    model = CostModel()
    try:
        model.call = 1
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_custom_model_flows_through_meter():
    model = CostModel(call=100)
    meter = CycleMeter(model=model)
    assert meter.model.call == 100


# -- counted records against a sequential meter ----------------------------


class SequentialMeter:
    """The reference: every pair of a record charged in sequence."""

    def __init__(self, totals=None):
        self.totals = dict(totals or {})

    def charge(self, category, cycles):
        self.totals[category] = self.totals.get(category, 0) + cycles

    def count(self, record, times=1):
        for category, cycles in record.pairs:
            self.charge(category, cycles * times)


#: Records sharing categories with each other and with the charges.
#: Cycle counts near 2**53 make a float sum depend on the order of its
#: additions; the last record has a fractional count, so it is never
#: counted.
RECORDS = (
    ChargeRecord(("base", 4), ("encoding", 7)),
    ChargeRecord(("base", 2 ** 53 + 1)),
    ChargeRecord(("encoding", 3 ** 33), ("defense", 5)),
    ChargeRecord(("defense", 0.1), ("base", 1)),
)
CATEGORIES = ("base", "encoding", "defense", "analysis")
CYCLES = st.one_of(st.integers(-2 ** 60, 2 ** 60), st.just(0),
                   st.sampled_from([0.25, 0.1]), st.just(2 ** 53 + 1))
COUNT = st.tuples(st.just("count"), st.sampled_from(RECORDS),
                  st.integers(0, 3))
CHARGE = st.tuples(st.just("charge"), st.sampled_from(CATEGORIES), CYCLES)
STEPS = st.lists(st.one_of(
    COUNT, CHARGE, COUNT, COUNT, CHARGE,
    st.tuples(st.sampled_from(["fork", "reset", "read"]))),
    min_size=1, max_size=40)


def _exact(totals):
    """Values with their types, in key order (``0 == 0.0``, but a
    sequential meter would not have produced the other)."""
    return [(category, type(cycles), cycles)
            for category, cycles in totals.items()]


def _agree(meter, reference):
    assert _exact(meter.snapshot()) == _exact(reference.totals)
    assert meter.total == sum(reference.totals.values())
    for category in CATEGORIES:
        assert meter.category(category) == reference.totals.get(category, 0)


@given(STEPS)
def test_counted_meter_equals_sequential_charges(steps):
    meter, reference = CycleMeter(), SequentialMeter()
    forked = []
    for step in steps:
        kind = step[0]
        if kind == "count":
            meter.count(step[1], step[2])
            reference.count(step[1], step[2])
        elif kind == "charge":
            meter.charge(step[1], step[2])
            reference.charge(step[1], step[2])
        elif kind == "fork":
            forked.append((meter, meter.snapshot()))
            meter = meter.fork()
            reference = SequentialMeter(reference.totals)
        elif kind == "reset":
            meter.reset()
            reference = SequentialMeter()
        else:
            _agree(meter, reference)
    _agree(meter, reference)
    # A fork's charges never reach the meter it was forked from.
    for parent, at_fork in forked[-1:]:
        assert _exact(parent.snapshot()) == _exact(at_fork)


#: A bound guest call's record and a Structure 1 ``malloc``'s.
CALL = ChargeRecord(("base", 4), ("encoding", 4))
MALLOC = ChargeRecord(("interpose", 60), ("metadata", 65), ("lookup", 9))


def test_counts_fold_in_first_charge_order():
    meter = CycleMeter()
    meter.count(MALLOC)
    meter.charge("base", 1)
    meter.count(CALL, 2)
    meter.count(MALLOC)
    assert list(meter.snapshot().items()) == [
        ("interpose", 120), ("metadata", 130), ("lookup", 18), ("base", 9),
        ("encoding", 8)]


def test_fractional_charge_switches_to_sequential_records():
    """Float addition is not associative: folding the two counts after
    the fraction would round ``base`` differently."""
    record = ChargeRecord(("base", 2 ** 53 + 1))
    meter, reference = CycleMeter(), SequentialMeter()
    for target in (meter, reference):
        target.count(record)
        target.charge("base", 0.25)
        target.count(record)
        target.count(record)
    assert _exact(meter.snapshot()) == _exact(reference.totals)
    assert meter.category("base") != 0.25 + 3 * (2 ** 53 + 1)


def test_equality_pickling_and_fork_see_pending_counts():
    meter = CycleMeter()
    meter.count(CALL, 3)
    assert meter == CycleMeter(by_category={"base": 12, "encoding": 12})
    assert pickle.loads(pickle.dumps(meter)) == meter
    twin = meter.fork()
    twin.count(CALL)
    assert meter.category("base") == 12
    assert twin.category("base") == 16
