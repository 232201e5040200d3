"""One small operation of each benchmark workload passes its own check.

The benchmark's checks read the package's outputs directly: the fused
complex cores of a random truth, one record_to_json_dict call per record
in ``mpoqst measure``, experiment.run_cell called through the module and
a fused estimate.  A change to any of them fails here rather than in the
benchmark run.  ``setup()`` discards what ``check`` returns, so the
operations call ``check`` themselves.
"""

import importlib
from pathlib import Path

import pytest

from mpoqst.povm import ProductPOVM

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # it imports spans
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["recover-n10", "psgd-n8"])
def test_pipeline_operation_passes_its_check(workloads, tmp_path, name):
    # the workload's config at the size of its warm-up
    full = workloads.WORKLOADS[name](5, str(tmp_path))
    small = workloads.Pipeline(5, str(tmp_path), 4, 1000, full.algorithm,
                               full.config)
    small.povm = ProductPOVM.local_sic(4)
    assert small.check(small.body(0)) == []


def test_sweep_operation_passes_its_check(workloads, tmp_path):
    sweep = workloads.Sweep(5, str(tmp_path), n_values=[2])
    assert sweep.check(sweep.body(0)) == []


def test_measure_operation_passes_its_check(workloads, tmp_path):
    measure = workloads.MeasureRecord(5, str(tmp_path), n=4, shots=2000)
    assert measure.check(measure.body(0)) == []
