"""The names the traced benchmark wraps must keep resolving: a refactor
that renames or moves one breaks `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_wrapped_name_resolves(tracer):
    assert tracer.WRAPS
    for path in tracer.WRAPS:
        owner, attr = tracer._resolve(path)
        assert callable(getattr(owner, attr)), path
