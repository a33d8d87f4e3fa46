"""perfbench: scenario benchmark for zeno-ent, run from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload xcheck --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

One single-threaded process, one closed-loop client: the next job starts
when the previous one has ended.  Jobs come in whole blocks (see
``workloads.py``).  A run makes as many blocks as the parent commit made in
``--seconds`` (``workloads.BLOCK_SECONDS``, at least one), so both sides of
a comparison run the same jobs for a seed, whatever their speed.  Every
job's output is checked.  The program is imported from ``src/`` of the
checkout; without it the run exits 2.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Times are
scaled to a reference host speed: the host is shared and its speed drifts
by tens of percent over tens of seconds, so a fixed pure-Python kernel is
timed between jobs and each job time is multiplied by REF_KERNEL_S over the
kernel time around it (``scale_pending``).  The unscaled figures are
printed beside the scaled ones.

* ``jobs_per_s``: correct jobs per second of program time (the sum of the
  job times; the untimed output checks are excluded).
* ``job_p50_s``: median job time, taken as the median over blocks of each
  block's median (``block_median``).
* ``job_tail_s``: job time at the highest percentile with at least ten
  samples beyond it, over correct jobs (the maximum when there are ten or
  fewer).  The report names that percentile and the sample count.
* ``setup_s``: cold interpreter to the first job ready (``import zeno_ent``
  and building the first block), the median of five fresh processes.
* ``peak_rss_mb``: peak resident memory of this process.
* ``ok_share``: correct jobs / jobs attempted.  Its complement, the
  fail share, is printed with every failing job named; the two known
  defects of the program (``workloads.KNOWN_DEFECTS``) show here.
* ``err_budget.<solver>``: max_t |E_solver(t) - E(t)| / XCHECK_TOLERANCES at
  R = 10, from the xcheck rows (see ``workloads.error_budget``) on xcheck,
  and from one untimed cross-check cell elsewhere.

``--trace 1`` reports the per-layer metrics: it runs the blocks of
``--seconds / 2`` untraced, installs the span wrappers of ``tracing.py``,
runs the same blocks again traced, and writes the spans to
``.perfbench-out/``.  Work counts are exact per seed.
``trace.overhead`` is traced over untraced job time minus one.
``predictions.json`` says which layer metric should move which end-to-end
metric on which workload.

Every run also writes its machine facts, job counts, notes, failing jobs
and result to ``.perfbench-out/result-<workload>-seed<n>-trace<t>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
jobs that failed in any way other than the documented symptom of a known
defect; the known-defect jobs are counted in ``ok_share`` and named above it.
"""

import os

# one BLAS thread, set before numpy loads, so both sides of a comparison match
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
# host-speed kernel: about 2 ms per loop on a 2-core x86-64 machine
KERNEL_LOOPS, KERNEL_REPEATS, REF_KERNEL_S = 30_000, 7, 2e-3
KERNEL_EVERY_S = 0.05
WORKLOADS = ("xcheck", "evolve", "tables", "scan")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's ``src/`` first on the path and import zeno_ent from it."""
    pkg = ROOT / "src" / "zeno_ent"
    if not (pkg / "__init__.py").is_file():
        fail(f"no {pkg}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import zeno_ent

    if Path(zeno_ent.__file__).resolve().parent != pkg.resolve():
        fail(f"imported zeno_ent from {zeno_ent.__file__}, not {pkg}")
    import workloads

    return workloads


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for row in predictions["predictions"]:
        unknown = set(row["layer_metrics"]) - layer
        for workload, metrics in row["moves"].items():
            unknown |= set(metrics) - e2e
            unknown |= {workload} - set(WORKLOADS)
        unknown |= set(row["no_effect"]) - set(WORKLOADS)
        if unknown:
            fail(f"predictions.json names unknown {sorted(unknown)}")
    return spec


def facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


@dataclass
class Record:
    name: str
    block: int
    raw_s: float          # job time as measured
    verdict: object
    scaled_s: float = 0.0  # job time at the reference host speed (see scale_pending)


def kernel_time() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed.

    The loop allocates nothing the garbage collector tracks and fits in the
    first-level cache, so the program's state cannot change its time.
    """
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scale_pending(pending: list, before: float) -> float:
    """Scale the jobs run since the kernel last took ``before`` seconds.

    Each is scaled by REF_KERNEL_S over the mean of the kernel times just
    before and just after it, which takes out the drift of a shared host's
    speed (tens of percent over tens of seconds).  Returns the new kernel time.
    """
    after = kernel_time()
    factor = REF_KERNEL_S / (0.5 * (before + after))
    for rec in pending:
        rec.scaled_s = rec.raw_s * factor
    pending.clear()
    return after


def run_blocks(make_block, blocks: int, tracer=None):
    """Closed loop over ``blocks`` whole blocks: time each job's run, then check it."""
    import workloads

    records, pending = [], []
    kernel = kernel_time()
    t_kernel = t_start = time.perf_counter()
    for b in range(blocks):
        for job in make_block(b):
            span = tracer.job_span(len(records)) if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                try:
                    out = job.run()
                except Exception as exc:
                    out = exc
                dt = time.perf_counter() - t0
            try:
                verdict = job.check(out)
            except Exception as exc:
                verdict = workloads.failed(f"check raised {type(exc).__name__}: {exc}")
            records.append(Record(job.name, b, dt, verdict))
            pending.append(records[-1])
            if time.perf_counter() - t_kernel >= KERNEL_EVERY_S:
                kernel = scale_pending(pending, kernel)
                t_kernel = time.perf_counter()
    wall = time.perf_counter() - t_start
    if pending:
        scale_pending(pending, kernel)
    return records, wall


def tail(times: list) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it
    (the maximum when there are ten samples or fewer), that percentile, and
    the number of samples beyond it."""
    times = sorted(times)
    n = len(times)
    beyond = 10 if n > 10 else 0
    return times[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def block_median(records, attr: str) -> float:
    """Median over blocks of each block's median job time.

    A block holds one job of each kind, so where the overall median falls in
    the gap between two kinds' times this reads the middle of the gap
    instead of the noisy edges of both.
    """
    blocks = {}
    for r in records:
        blocks.setdefault(r.block, []).append(getattr(r, attr))
    return statistics.median(statistics.median(v) for v in blocks.values())


def job_metrics(records) -> tuple[dict, str]:
    """End-to-end job metrics, and the report line that goes beside them."""
    ok = [r for r in records if r.verdict.status == "ok"]
    if not ok:
        return {"jobs_per_s": 0.0, "job_p50_s": 0.0, "job_tail_s": 0.0, "ok_share": 0.0}, \
            "no job was correct"
    value, pct, beyond = tail([r.scaled_s for r in ok])
    metrics = {
        "jobs_per_s": len(ok) / sum(r.scaled_s for r in records),
        "job_p50_s": block_median(ok, "scaled_s"),
        "job_tail_s": value,
        "ok_share": len(ok) / len(records),
    }
    note = (f"job_tail_s is p{pct:.2f} of {len(ok)} correct jobs ({beyond} beyond); "
            f"unscaled: jobs_per_s {len(ok) / sum(r.raw_s for r in records):.6g}, "
            f"job_p50_s {block_median(ok, 'raw_s'):.6g}, "
            f"job_tail_s {tail([r.raw_s for r in ok])[0]:.6g}")
    return metrics, note


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to its first job ready,
    scaled like the job times and as measured."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    probes = []
    kernel = kernel_time()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        probes.append(Record("setup", 0, float(done.stdout.strip().splitlines()[-1]) - t0, None))
        kernel = scale_pending(probes[-1:], kernel)
    return (statistics.median(p.scaled_s for p in probes),
            statistics.median(p.raw_s for p in probes))


def failure_report(records) -> tuple[list[str], dict]:
    from workloads import KNOWN_DEFECTS

    bad = [r for r in records if r.verdict.status != "ok"]
    lines = [f"fail_share {len(bad) / len(records):.6g} ({len(bad)} of {len(records)} jobs)"]
    named = {}
    for code, what in KNOWN_DEFECTS.items():
        hits = [r.name for r in bad
                if r.verdict.status == "known" and r.verdict.detail.startswith(code)]
        if hits:
            named[f"known {code}"] = hits
            lines.append(f"  known defect {code} ({what}): {len(hits)} jobs")
            lines += [f"    {name}" for name in hits]
    unexpected = [f"{r.name}: {r.verdict.detail}" for r in bad if r.verdict.status == "failed"]
    if unexpected:
        named["failed"] = unexpected
        lines += [f"  FAILED {line}" for line in unexpected]
    return lines, named


def workload_run(args) -> int:
    wl = import_program()
    spec = load_spec()
    report = {"facts": facts(args.seed), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    make_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        make_block = wl.block_maker(args.workload, args.seed, make_dir)
        if args.trace:
            import tracing

            blocks = max(1, int(args.seconds / 2 / wl.BLOCK_SECONDS[args.workload]))
            untraced, _ = run_blocks(make_block, blocks)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, wall = run_blocks(make_block, blocks, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, wall)
            metrics["trace.overhead"] = (sum(r.scaled_s for r in traced)
                                         / sum(r.scaled_s for r in untraced) - 1.0)
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(str(trace_path))
            records = untraced + traced
            wanted = spec["per_layer"]
            layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
            notes = [
                f"untraced pass, then the same {blocks} blocks traced; "
                f"{len(tracer.start)} spans in {trace_path.relative_to(ROOT)}",
                "self time by layer: " + ", ".join(
                    f"{layer} {metrics[f'{layer}.self_s']:.4f} s" for layer in tracing.LAYERS)
                + f"; sum {layer_sum:.4f} s, traced wall {wall:.4f} s",
            ]
        else:
            setup, setup_raw = measure_setup(args.workload, args.seed)
            blocks = max(1, int(args.seconds / wl.BLOCK_SECONDS[args.workload]))
            records, wall = run_blocks(make_block, blocks)
            metrics, note = job_metrics(records)
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            budgets = [r.verdict.budget for r in records if r.verdict.budget]
            source = "the xcheck rows"
            if not budgets:
                budgets, source = [wl.error_probe()], "an untimed R=10 cross-check cell"
            for solver in wl.NUMERIC:
                metrics[f"err_budget.{solver}"] = max(b[solver] for b in budgets)
            wanted = spec["end_to_end"]
            notes = [note, f"setup_s unscaled {setup_raw:.6g}; err_budget from {source}"]
    finally:
        shutil.rmtree(make_dir, ignore_errors=True)

    kinds = {}
    for r in records:
        kind = "/".join(r.name.split("/")[:2])
        kinds[kind] = kinds.get(kind, 0) + 1
    failures, named = failure_report(records)
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    failed = sum(r.verdict.status == "failed" for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": out}
    report.update(blocks=blocks, jobs=kinds, wall_s=wall, notes=notes, failures=named,
                  result=result)
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench: {json.dumps(report['facts'])}")
    print(f"perfbench: workload {args.workload}, seed {args.seed}: {blocks} blocks, "
          f"{len(records)} jobs {json.dumps(kinds)}, {wall:.3f} s wall; "
          f"report in {report_path.relative_to(ROOT)}")
    for line in notes + failures:
        print(line)
    for name, m in out.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def all_run(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, results = [], []
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        for name, m in result["metrics"].items():
            rows.append(f"{workload:<8} {name:<42} {m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOADS, results)
                    for k, v in r["metrics"].items()},
    }))
    return 0


def setup_probe(args) -> int:
    wl = import_program()
    wl.block_maker(args.workload, args.seed, str(ROOT))(0)
    print(repr(time.monotonic()))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return all_run(args)
    return workload_run(args)


if __name__ == "__main__":
    sys.exit(main())
