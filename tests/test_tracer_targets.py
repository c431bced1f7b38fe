"""Every function the benchmark tracer wraps by name still exists.

`perfbench/tracer.py` looks its targets up with getattr, so deleting or
renaming a traced function breaks `perfbench/run.py --trace` and
`perfbench/check_tracer.py`; this test makes it fail the test suite too.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        import tracer
        yield tracer


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    for name in tracer.TARGETS:
        fns = tracer.original_functions(name)
        assert fns and all(callable(fn) for fn in fns), name
