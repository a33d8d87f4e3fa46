"""perfbench's jobs run through each job's own check: blocks 0-2 of the
``scan`` workload, the public API, and block 0 of ``evolve``, ``xcheck``
and ``tables``, which run the CLI.

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


def _failing(workloads, workload, seed, blocks, tmp_path):
    """Every job of ``blocks`` and the jobs whose verdict is not ``ok``."""
    make = workloads.block_maker(workload, seed, str(tmp_path))
    verdicts = []
    for job in (job for b in blocks for job in make(b)):
        try:
            out = job.run()
        except Exception as exc:      # a job's check judges what its run raised
            out = exc
        verdicts.append((job.name, job.check(out)))
    return len(verdicts), [(name, v) for name, v in verdicts if v.status != "ok"]


@pytest.mark.parametrize("seed", [1, 2])
def test_scan_block_passes_its_checks(workloads, seed, tmp_path):
    assert _failing(workloads, "scan", seed, range(3), tmp_path) == (60, [])


@pytest.mark.parametrize("workload, jobs", [("evolve", 6), ("xcheck", 3), ("tables", 8)])
@pytest.mark.parametrize("seed", [1, 2])
def test_cli_block_passes_its_checks(workloads, workload, jobs, seed, tmp_path):
    assert _failing(workloads, workload, seed, [0], tmp_path) == (jobs, [])
