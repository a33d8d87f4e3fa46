"""perfbench's ``scan`` jobs, the public-API workload of the benchmark, run
through each job's own check.

The module is loaded from its file as ``test_tracing.py`` loads the tracer.
An API change that breaks a benchmark job fails here, not only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass reads the module's globals through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [1, 2])
def test_scan_block_passes_its_checks(workloads, seed, tmp_path):
    verdicts = []
    for job in workloads.block_maker("scan", seed, str(tmp_path))(0):
        try:
            out = job.run()
        except Exception as exc:      # a job's check judges what its run raised
            out = exc
        verdicts.append((job.name, job.check(out)))
    assert len(verdicts) == 20
    assert [(name, v) for name, v in verdicts if v.status != "ok"] == []
