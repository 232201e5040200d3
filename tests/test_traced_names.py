"""The names the traced benchmark run wraps exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, attr, span", _traced())
def test_traced_name_resolves(module, attr, span):
    # a refactor that deletes a traced function fails here, not in the
    # traced benchmark run
    target = importlib.import_module(f"mpoqst.{module}")
    assert callable(getattr(target, attr, None)), f"mpoqst.{module}.{attr}"
