"""Desk-scale benchmark of ncgeo.

    python3 perfbench/run.py --workload suite_h18 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; ncgeo is imported from ``src/``.
One workload per process (``suite_h18``, ``roundtrip_h18``, ``cli_h8``;
see ``workloads.py``), one client in a closed loop.

``--trace 0`` measures the end-to-end metrics.  Set-up (import ncgeo, build
the inputs from the seed, one untimed warm-up op) is done in this process
and in four fresh child processes before the timed phase; ``setup_s`` is
the median of the five.  The timed phase runs whole passes over the
workload's ops until ``--seconds`` have elapsed (at least one pass).
``wall_s`` is the median wall time of a pass.  ``--seconds`` is thus the
least time measured, not the most: on a 2-vCPU host one pass takes about
16 s (suite_h18), 14 s (cli_h8) and 45-55 s (roundtrip_h18), so a run with
``--seconds 10`` measures exactly one pass, and a whole run with its
set-ups takes about 22 s, 25 s and 60 s (with ``--trace 1``, which runs an
untraced and a traced pass, about 45 s, 40 s and 100 s).

``--trace 1`` runs one untraced pass and then the same pass under the
outside-in tracer (``tracer.py``) and reports the per-layer metrics,
including the tracing overhead.  Every output of both passes must match
the other bit for bit.

Every op's output is checked against ``reference.json`` (see
``check.py``).  Details of each run (per-op latencies, provenance) go to
``.perfbench_out/`` in the checkout; the last line of standard output is
the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from check import load_reference, mismatches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """BLAS may use at most nproc threads; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else limit
        os.environ[var] = str(min(n, limit))


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
    }


def run_op(op, reference: dict):
    """Run one op; returns (latency in s, list of problems, fingerprint)."""
    args = op.prepare()
    start = time.perf_counter()
    try:
        result = op.call(*args)
    except Exception as exc:
        latency = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return latency, [f"raised {type(exc).__name__}: {exc}"], None
    latency = time.perf_counter() - start
    try:
        digest, fp = op.observe(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return latency, [f"output unreadable: {type(exc).__name__}: {exc}"], None
    return latency, mismatches(digest, reference.get(op.ref_key)), fp


def setup(workload: str, seed: int, workdir: Path):
    """Import ncgeo, build the inputs, run the warm-up; returns (seconds, problems, ops)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ncgeo

    if Path(ncgeo.__file__).resolve().parent != SRC / "ncgeo":
        raise RuntimeError(f"imported ncgeo from {ncgeo.__file__}, not from {SRC}")
    import workloads

    warm, ops = workloads.build(workload, seed, workdir)
    reference = load_reference()
    problems = []
    for op in warm:
        _, probs, _ = run_op(op, reference)
        problems += [f"warm-up {op.label}: {p}" for p in probs]
    return time.perf_counter() - start, problems, ops


@contextlib.contextmanager
def work_directory(workload: str):
    """Temporary directory for the CLI workload's files, inside the checkout."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["problems"]


def timed_phase(ops, reference: dict, seconds: float, tracer=None):
    """Whole passes over ops until `seconds` have elapsed; exactly one pass when traced."""
    records, pass_walls = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            latency, problems, fp = run_op(op, reference)
            records.append({"op": op.label, "latency_s": latency, "problems": problems,
                            "fingerprint": fp})
        pass_walls.append(time.perf_counter() - pass_start)
        if tracer is not None or time.perf_counter() - start >= seconds:
            return records, pass_walls


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setup_samples, records, pass_walls) -> dict:
    latencies = [r["latency_s"] for r in records]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_walls),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncgeo" / "__init__.py").is_file():
        print(f"error: no ncgeo sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap_blas_threads()

    if args.setup_only:
        with work_directory(args.workload) as workdir:
            elapsed, problems, _ = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": elapsed, "problems": problems}))
        return 0

    setup_samples, problems = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            elapsed, probs = setup_in_child(args)
            setup_samples.append(elapsed)
            problems += probs
    with work_directory(args.workload) as workdir:
        elapsed, probs, ops = setup(args.workload, args.seed, workdir)
        setup_samples.append(elapsed)
        problems += probs

        reference = load_reference()
        records, pass_walls = timed_phase(ops, reference, 0.0 if args.trace else args.seconds)
        if args.trace:
            from tracer import Tracer, metric_units
            tracer = Tracer()
            with tracer:
                traced, traced_walls = timed_phase(ops, reference, 0.0, tracer)
            for plain, rec in zip(records, traced):
                if rec["fingerprint"] != plain["fingerprint"]:
                    rec["problems"].append("output differs from the untraced run")
            values = tracer.layer_metrics(traced_walls[0], pass_walls[0])
            units = metric_units()
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(spans_path)
            records += traced
        else:
            values = end_to_end(setup_samples, records, pass_walls)
            units = END_TO_END_UNITS

    failed = sum(1 for r in records if r["problems"])
    attempted = len(records)
    for r in records:
        for p in r["problems"]:
            problems.append(f"{r['op']}: {p}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    prov = provenance()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "setup_samples_s": setup_samples,
              "pass_walls_s": pass_walls, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics,
              "ops": [{k: r[k] for k in ("op", "latency_s", "problems")} for r in records]}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops "
          f"(the latency samples) in {len(pass_walls)} pass(es), "
          f"{len(setup_samples)} set-up sample(s)")
    print("provenance " + json.dumps(prov))
    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"  fail_frac = {failed / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(f"details written to {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
