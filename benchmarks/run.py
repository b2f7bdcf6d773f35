"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload tv-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src``; there is no build step. Set-up time is taken in several
fresh interpreters (``setup_probe.py``), everything else in one fresh
worker process (``worker.py``) with every BLAS/OpenMP thread count set to 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead. The line before it holds the provenance. The full
result, with per-sample values, goes to ``benchmarks/out/``, and traced runs
also write their spans there.

Exits 0 when it printed a result (``correct`` says whether every output
check passed) and 2 when it could not measure at all, e.g. when the
checkout has no ``src/sbpd``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TOTAL_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SBPD_OUTPUT_DIR", "PYTHONSTARTUP")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env, deadline):
    """Run a child to completion; return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing")
    doc = json.loads(lines[-1])
    expected = str((ROOT / "src" / "sbpd" / "__init__.py").resolve())
    if str(Path(doc["sbpd_file"]).resolve()) != expected:
        raise BenchError(f"imported sbpd from {doc['sbpd_file']}, not {expected}")
    return doc


def setup_probes(workload, seed, env, deadline):
    """One discarded probe (it may compile bytecode), then SETUP_PROBES."""
    config = json.dumps(workload.experiment_config(seed, "unused"))
    argv = [str(HERE / "setup_probe.py"), config, workload.kernel]
    run_child(argv, env, deadline)
    return [run_child(argv, env, deadline) for _ in range(SETUP_PROBES)]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="sbpd benchmark: one workload run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must lie in [1, 120]")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sbpd" / "__init__.py").is_file():
        print(f"no sbpd package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    workload = WORKLOADS[args.workload]
    env = worker_env()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "out"
    work_dir = HERE / ".work" / f"{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        probes = setup_probes(workload, args.seed, env, deadline)
        res = run_child([str(HERE / "worker.py"), "--workload", workload.name,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--work-dir", str(work_dir),
                         "--spans-out", str(out_dir / f"spans-{tag}.json")],
                        env, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = res["metrics"]
    if args.trace:
        for key in ("cli.import_s", "problems.build_s", "linalg.operator_norm_s"):
            metrics[key] = {"value": statistics.median(p[key] for p in probes),
                            "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(
            p["setup_s"] * p["scale"] for p in probes), "unit": "s"}
        metrics["run_ok_frac"] = {
            "value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"}
        metrics["cert_ok_frac"] = {
            "value": 1.0 - res["cert_failed"] / max(res["cert_attempted"], 1),
            "unit": "ratio"}
    attempted = res["attempted"] + res["cert_attempted"]
    failed = res["failed"] + res["cert_failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    prov = provenance.collect(ROOT, args.seed, env)
    prov.update(workload=workload.name, seconds=args.seconds, trace=args.trace,
                versions=res["versions"])
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result,
                   "samples": res["samples"], "setup_probes": probes,
                   "problems": res["problems"]}, fh, indent=1)
    for line in res["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
