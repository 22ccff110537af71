"""Benchmark of the secrecy-region package, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fading-ensemble, example-region, multiantenna-audit (see
perfbench/README.md). The run builds the workload's inputs from the seed and
computes high-precision references for them, measures set-up time as the
median of several fresh-process imports of the package, then starts a fresh
worker process that runs the workload's op list in a closed loop for the
given seconds and checks every output. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs the op list once more in a second
worker with spans recorded around the calls between the package's modules,
and reports the per-module metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import WORKLOADS, build  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
#: every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0
#: percentiles tried, highest first, for the tail latency
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); "
    "import secrecy_region, secrecy_region.cli; "
    "print(time.perf_counter() - t0)"
)

#: what stage1_s and stage2_s time on each workload
STAGES = {
    "fading-ensemble": ("spectrum_calls_s", "alpha_calls_s"),
    "example-region": ("region_s", "fig2_s"),
    "multiantenna-audit": ("outer_s", "audit_s"),
}


class BenchError(Exception):
    pass


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("SECRECY_REGION_THREADS", None)
    env["PYTHONPATH"] = src
    return env


def _measure_setup(env: dict, cwd: str, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=cwd, capture_output=True, text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _run_worker(env, cwd, inputs_path, trace, deadline, spans_path=None) -> dict:
    result_path = os.path.join(cwd, f"result-{int(trace)}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), inputs_path,
            result_path, str(int(trace))]
    if spans_path:
        argv.append(spans_path)
    try:
        proc = subprocess.run(
            argv, env=env, cwd=cwd, capture_output=True, text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"the worker failed:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_passes(env, cwd, inputs_path, budget, trace, deadline, spans_path=None) -> dict:
    """Closed loop of passes, one fresh worker each, while the budget allows
    another (always at least one)."""
    passes, layers, rss = [], [], []
    start = perf_counter()
    while True:
        result = _run_worker(env, cwd, inputs_path, trace, deadline, spans_path)
        passes.append(result["records"])
        layers.append(result["layers"])
        rss.append(result["peak_rss_mb"])
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            break
    return {"passes": passes, "layers": layers, "peak_rss_mb": statistics.median(rss)}


def _code_digest(src: str) -> str:
    """Digest of the package's and the benchmark's own sources."""
    h = hashlib.sha256()
    for directory in (os.path.join(src, "secrecy_region"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _determinism(runs: list[dict], store: str) -> set[str]:
    """Op names whose output digest differs between passes, workers, or an
    earlier run of the same code with the same seed."""
    seen: dict[str, set] = {}
    for run in runs:
        for records in run["passes"]:
            for rec in records:
                seen.setdefault(rec["op"], set()).add(rec["digest"])
    bad = {op for op, digests in seen.items() if len(digests) > 1}
    current = {op: min(d) for op, d in seen.items()}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            earlier = json.load(fh)
        bad |= {op for op, d in current.items() if op in earlier and earlier[op] != d}
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=0, sort_keys=True)
    return bad


def _tail(latencies: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least TAIL_BEYOND ops beyond it;
    the maximum when there are too few ops for any."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return float(np.percentile(latencies, p)), f"p{p:g}"
    return max(latencies), "max"


def _op_outcomes(runs: list[dict], known: dict, nondeterministic: set) -> dict:
    counts = {"attempted": 0, "passed": 0, "failed": 0, "known": {}, "unexplained": []}
    for run in runs:
        for records in run["passes"]:
            for rec in records:
                counts["attempted"] += 1
                fails = list(rec["fail"])
                if rec["op"] in nondeterministic:
                    fails.append("nondeterministic")
                if not fails:
                    counts["passed"] += 1
                elif rec["known"] in known and "nondeterministic" not in fails:
                    counts["known"][rec["known"]] = counts["known"].get(rec["known"], 0) + 1
                else:
                    counts["failed"] += 1
                    if len(counts["unexplained"]) < 20:
                        counts["unexplained"].append({"op": rec["op"], "fail": fails})
    return counts


def _end_to_end(run: dict, setup: list[float], outcomes: dict) -> tuple[dict, dict]:
    passes = run["passes"]
    walls = [sum(r["s1"] + r["s2"] for r in recs) for recs in passes]
    stage1 = [sum(r["s1"] for r in recs) for recs in passes]
    stage2 = [sum(r["s2"] for r in recs) for recs in passes]
    latencies = [r["s1"] + r["s2"] for recs in passes for r in recs]
    tail, tail_label = _tail(latencies)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "pass_ratio": (outcomes["passed"] / outcomes["attempted"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "stage1_s": (statistics.median(stage1), "s"),
        "stage2_s": (statistics.median(stage2), "s"),
    }
    by_op: dict[str, list] = {}
    for recs in passes:
        for r in recs:
            by_op.setdefault(r["op"], []).append(r["s1"] + r["s2"])
    detail = {
        "passes": len(passes),
        "ops": len(latencies),
        "op_tail_percentile": tail_label,
        "wall_s_per_pass": walls,
    }
    if len(by_op) <= 8:
        detail["op_s"] = {op: statistics.median(v) for op, v in by_op.items()}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, detail


def _layer_unit(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith("_yield"):
        return "ratio"
    if key.endswith("bytes_written"):
        return "bytes"
    return "count"


def _per_layer(plain: dict, traced: dict) -> dict:
    plain_wall = statistics.median(
        sum(r["s1"] + r["s2"] for r in recs) for recs in plain["passes"]
    )
    traced_wall = statistics.median(
        sum(r["s1"] + r["s2"] for r in recs) for recs in traced["passes"]
    )
    metrics = {}
    for key in traced["layers"][0]:
        metrics[key] = {
            "value": statistics.median(layer[key] for layer in traced["layers"]),
            "unit": _layer_unit(key),
        }
    metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    return metrics


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "machine": platform.machine(),
    }


def run(args) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "secrecy_region", "__init__.py")):
        raise BenchError(
            "src/secrecy_region not found: run from the root of a secrecy-region checkout"
        )
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as fh:
        known = json.load(fh)
    out = os.path.join(root, OUT_DIR)
    work = os.path.join(out, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t0 = perf_counter()
        inputs = build(args.workload, args.seed)
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        reference_s = perf_counter() - t0
        env = _child_env(src)
        setup = _measure_setup(env, work, deadline)
        if args.trace:
            half = args.seconds / 2.0
            plain = _run_passes(env, work, inputs_path, half, False, deadline)
            traced = _run_passes(
                env, work, inputs_path, half, True, deadline,
                os.path.join(out, f"spans-{args.workload}.tsv"),
            )
            runs = [plain, traced]
        else:
            plain = _run_passes(env, work, inputs_path, args.seconds, False, deadline)
            runs = [plain]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    store = os.path.join(
        out, "digests", f"{_code_digest(src)}-{args.workload}-{args.seed}.json"
    )
    nondeterministic = _determinism(runs, store)
    outcomes = _op_outcomes(runs, known, nondeterministic)
    e2e, detail = _end_to_end(plain, setup, outcomes)
    if args.trace:
        metrics = _per_layer(plain, traced)
    else:
        metrics = e2e
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        stages=dict(zip(("stage1_s", "stage2_s"), STAGES[args.workload])),
        known_failures=outcomes["known"],
        unexplained_failures=outcomes["unexplained"],
        nondeterministic_ops=sorted(nondeterministic),
        reference_s=reference_s,
        setup_samples_s=setup,
        environment=_environment(),
        run_s=perf_counter() - start,
    )
    print(json.dumps({"detail": detail}))
    return {
        "correct": outcomes["failed"] == 0,
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
