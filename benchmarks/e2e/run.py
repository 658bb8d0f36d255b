"""End-to-end JRoute benchmark: run workloads, print metrics, compare runs.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--check] [--out FILE] [--repeat N]
    python benchmarks/e2e/run.py --compare A.jsonl B.jsonl

Every workload runs in a fresh ``python benchmarks/e2e/workloads.py``
process with ``PYTHONPATH=src``; its data files (WAL, checkpoints, job
journals) live under ``.bench_run/`` in the checkout and are deleted
after the run; Python's bytecode cache is kept there too.  The metric
catalogue -- names, units, bounds -- is ``BENCHMARK.json``.  Untraced
runs report the end-to-end metrics; ``--trace`` runs the workload twice,
untraced then traced, for half the time each, and reports the per-layer
metrics plus ``trace.overhead`` (untraced over traced ``ops_per_s``).
Every metric is printed by name with its unit, host-speed-scaled timings
with their raw value beside; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--check`` makes
any failed output check exit 1.  ``--out`` appends one JSON line per run
(host record included) for ``--compare``, which applies the bounds of
``BENCHMARK.json`` to two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("rtr_explicit", "auto_levels", "crowded_batch", "service")
#: one workload process may take this long before it is killed
CHILD_TIMEOUT_S = 170.0


def load_catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "data_fs": _fs_type(RUN_DIR.resolve()),
        "commit": _git_commit(),
    }


def run_child(workload: str, seed: int, seconds: float, *, trace: bool,
              setups: int, smoke: bool) -> dict:
    """One workload in a fresh process; returns its result object."""
    data_dir = RUN_DIR / f"{workload}-{os.getpid()}-{'t' if trace else 'u'}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--data-dir", str(data_dir), "--setups", str(setups),
    ]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    # Bytecode is cached under .bench_run, so the start-up of service and
    # pool workers measures imports, not compiling them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(data_dir),
               PYTHONPYCACHEPREFIX=str(RUN_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # the whole process group: service and pool workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if trace and (data_dir / "spans.jsonl").exists():
            shutil.move(data_dir / "spans.jsonl",
                        RUN_DIR / f"spans-{workload}.jsonl")
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(catalog: dict, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns its result object."""
    if not trace:
        res = run_child(workload, seed, seconds, trace=False,
                        setups=1 if smoke else 3, smoke=smoke)
        metrics, want = res["metrics"], catalog["end_to_end"]
        raw = res["raw"]
    else:
        plain = run_child(workload, seed, seconds / 2, trace=False, setups=1,
                          smoke=smoke)
        res = run_child(workload, seed, seconds / 2, trace=True, setups=1,
                        smoke=smoke)
        metrics = dict(res["layers"])
        metrics["trace.overhead"] = (
            plain["metrics"]["ops_per_s"] / res["metrics"]["ops_per_s"]
        )
        res["problems"] += plain["problems"]
        want = catalog["per_layer"]
        raw = {}
    missing = [m["name"] for m in want if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"{workload} did not report {missing}")
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in want},
        "problems": res["problems"],
        "raw": raw,
    }


def print_result(workload: str, seed: int, res: dict) -> None:
    state = "correct" if res["correct"] else "INCORRECT"
    print(f"{workload} (seed {seed}): {state}, {res['attempted']} attempted, "
          f"{res['failed']} failed")
    for p in res["problems"]:
        print(f"  check failed: {p}")
    for name, m in res["metrics"].items():
        raw = res["raw"].get(name)
        unscaled = "" if raw is None or raw == m["value"] else f"  (raw {raw:.6g})"
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{unscaled}")


# -- compare ------------------------------------------------------------------------


def _spread(xs: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two runs)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Judge runs ``b`` of a change against runs ``a`` of its parent."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / ma
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(_spread(a), _spread(b)) > bound:
        return "improved" if b_always_better else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -worse > _spread(a) and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def compare(catalog: dict, path_a: str, path_b: str) -> int:
    def load(path: str) -> dict:
        runs: dict[str, list[dict]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
        for recs in runs.values():
            recs.sort(key=lambda r: r["seed"])
        return runs

    a, b = load(path_a), load(path_b)
    print(f"{'metric':14s} {'workload':14s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    regressed = 0
    for m in catalog["end_to_end"]:
        for wl in WORKLOADS:
            if wl not in a or wl not in b:
                continue
            xa = [r["metrics"][m["name"]]["value"] for r in a[wl]]
            xb = [r["metrics"][m["name"]]["value"] for r in b[wl]]
            v = verdict(xa, xb, m["better"], m["bound"])
            regressed += v == "regressed"
            ma, mb = statistics.median(xa), statistics.median(xb)
            print(f"{m['name']:14s} {wl:14s} {ma:12.5g} {mb:12.5g} "
                  f"{(mb - ma) / ma:+8.1%} {_spread(xa):8.1%} {_spread(xb):8.1%} "
                  f"{m['bound']:6.0%}  {v}")
    return 1 if regressed else 0


# -- entry point ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end JRoute benchmark (see benchmarks/e2e/README.md)."
    )
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="size each run's work to about this many seconds "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics instead")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when any output check fails")
    ap.add_argument("--out", help="append one JSON line per run to this file")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds SEED, SEED+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up (for tests)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="judge the runs in B against those in A")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        catalog = load_catalog()
    except (OSError, ValueError) as e:
        print(f"cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(catalog, *args.compare)

    seconds = args.seconds if args.seconds is not None else catalog["run_seconds"]
    host = host_record()
    print("host: " + json.dumps(host))
    results: list[tuple[str, dict]] = []
    for workload in args.workload or WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeat):
            t0 = time.perf_counter()
            res = run_workload(catalog, workload, seed, seconds,
                               bool(args.trace), args.smoke)
            print_result(workload, seed, res)
            print(f"  ({time.perf_counter() - t0:.1f} s wall)")
            results.append((workload, res))
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({
                        "workload": workload, "seed": seed, "seconds": seconds,
                        "trace": bool(args.trace), "host": host, **res,
                    }) + "\n")
    if len(results) == 1:
        metrics = results[0][1]["metrics"]
    else:
        grouped: dict[str, list] = {}
        for workload, res in results:
            for name, m in res["metrics"].items():
                grouped.setdefault(f"{workload}.{name}", []).append(m)
        metrics = {
            key: {"value": statistics.median(m["value"] for m in ms),
                  "unit": ms[0]["unit"]}
            for key, ms in grouped.items()
        }
    correct = all(res["correct"] for _, res in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for _, res in results),
        "failed": sum(res["failed"] for _, res in results),
        "metrics": metrics,
    }))
    return 1 if args.check and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
