"""The benchmark tracer's contract with the classes it wraps.

``perf/trace.py`` wraps every entry point of its ``LAYERS`` table from
the class's own ``__dict__`` and reads each run's request count from
the argument at its ``_BATCH_ARG`` position.  An entry point that a
class merely inherits, or a run whose sequence argument moves, breaks
the traced benchmark pass; these tests catch that in the suite.  They
read ``perf/`` and change nothing there.
"""

import inspect

import pytest

from perf.trace import _BATCH_ARG, LAYERS, Tracer

ENTRY_POINTS = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for targets in LAYERS.values()
    for cls, names in targets
    for name in names]

BATCHED = [param for param in ENTRY_POINTS
           if param.values[1] in _BATCH_ARG]

#: The sequence parameter of every batched entry point.
RUN_ARGUMENTS = {"sizes", "addresses", "rows"}


@pytest.mark.parametrize("cls,name", ENTRY_POINTS)
def test_entry_point_is_in_its_class_dict(cls, name):
    assert name in cls.__dict__, (
        f"{cls.__name__}.{name} is inherited; the tracer wraps only "
        f"{cls.__name__}.__dict__ entries")


@pytest.mark.parametrize("cls,name", BATCHED)
def test_batch_index_names_the_run_sequence(cls, name):
    parameters = list(
        inspect.signature(cls.__dict__[name]).parameters.values())
    parameter = parameters[_BATCH_ARG[name]]
    assert parameter.name in RUN_ARGUMENTS
    assert str(parameter.annotation).startswith(("Sequence[", "List["))


def test_install_and_uninstall_restore_every_class(tmp_path):
    before = {(cls, name): cls.__dict__[name]
              for targets in LAYERS.values()
              for cls, names in targets for name in names}
    tracer = Tracer(tmp_path / "spool")
    with tracer:
        assert all(cls.__dict__[name] is not original
                   for (cls, name), original in before.items())
    assert all(cls.__dict__[name] is original
               for (cls, name), original in before.items())
    assert not tracer.installed
    assert not [span for span in tracer.spans if span is not None]
