"""hamline benchmark: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload subspace|compile|all
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check [--workload W] [--seed N]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Every pass runs in a fresh worker process (``worker.py``)
with BLAS/OpenMP threads pinned to the number of usable cores.

With ``--trace 0`` a run starts half of ``SETUP_SAMPLES`` set-up-only
workers, runs passes until ``--seconds`` would be exceeded (at least one),
starts the other half and prints the end-to-end metrics of
``BENCHMARK.json``.  With
``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics; spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--self-check`` runs each workload at two seeds and fails unless both
give the same operations, counts and restricted dimensions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("subspace", "compile")
SETUP_SAMPLES = 6          # set-up-only workers per run, besides the passes
RUN_LIMIT_S = 170          # a run must end well within 180 s
# peak RSS measured per workload on the reference machine (MB), plus margin;
# a run refuses to start when MemAvailable is lower
MEMORY_NEED_MB = {"subspace": 400, "compile": 3400}
MEMORY_MARGIN_MB = 512


class Refused(RuntimeError):
    """The run cannot be made here; nothing is printed on standard output."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def meminfo_mb(field: str) -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise Refused(f"/proc/meminfo has no {field}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def line_count(pattern: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in ROOT.glob(pattern))


def environment(threads: int) -> dict:
    return {"nproc": threads, "mem_total_mb": round(meminfo_mb("MemTotal")),
            "blas_threads": threads, "commit": git_commit(),
            "loc": {"src": line_count("src/hamline/**/*.py"),
                    "tests": line_count("tests/*.py")}}


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def start_worker(workload, seed, mode, trace, env, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Refused(f"{workload}: no time left for another worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--out", str(OUT), "--started-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise Refused(f"{workload}: worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Refused(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, threads) -> dict:
    """Set-up samples and passes of one workload, in fresh processes."""
    need = MEMORY_NEED_MB[workload] + MEMORY_MARGIN_MB
    avail = meminfo_mb("MemAvailable")
    if avail < need:
        raise Refused(f"{workload}: needs about {need} MB but MemAvailable "
                      f"is {avail:.0f} MB; not starting")
    env = worker_env(threads)
    deadline = time.monotonic() + RUN_LIMIT_S
    # set-up time is an end-to-end metric, so traced runs skip the samples;
    # half are taken before the passes and half after, so that their median
    # spans the run rather than its first seconds
    half = 0 if trace else SETUP_SAMPLES // 2
    setups = [start_worker(workload, seed, "setup", 0, env, deadline)
              for _ in range(half)]
    passes, traced = [], None
    t0 = time.monotonic()
    while True:
        passes.append(start_worker(workload, seed, "pass", 0, env, deadline))
        if trace:
            traced = start_worker(workload, seed, "pass", 1, env, deadline)
            break
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups += [start_worker(workload, seed, "setup", 0, env, deadline)
               for _ in range(half)]
    return {"setups": setups, "passes": passes, "traced": traced}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def summarise(workload, res, trace, bench) -> tuple[dict, list[str]]:
    passes = res["passes"] + ([res["traced"]] if res["traced"] else [])
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    samples = {
        "wall_s": [p["wall_s"] for p in res["passes"]],
        "cpu_s": [p["cpu_s"] for p in res["passes"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in res["passes"]],
        "setup_s": [s["setup_s"] for s in res["setups"] + res["passes"]],
    }
    lines = [f"workload {workload}: {len(res['passes'])} pass(es), "
             f"{len(ops)} operations attempted, {len(failed)} failed"]
    seen = set()
    for op in failed:
        if op["name"] not in seen:
            seen.add(op["name"])
            lines.append(f"  FAILED {op['name']}: {op['reason']}")
    lines.append(f"  fail_ratio = {len(failed) / len(ops):.4g} (1)")
    metrics = {}
    if not trace:
        for m in bench["end_to_end"]:
            vals = samples[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(vals),
                                  "unit": m["unit"]}
            tail = tail_percentile(vals)
            tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                        else "no tail percentile (< 11 samples)")
            value = metrics[m["name"]]["value"]
            lines.append(f"  {m['name']:<12} {value:>12.6g} {m['unit']:<4} "
                         f"median of {len(vals)}; {tail_txt}")
    else:
        layers = dict(res["traced"]["layers"])
        layers["trace.overhead_s"] = (res["traced"]["wall_s"]
                                      - res["passes"][0]["wall_s"])
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0),
                                  "unit": m["unit"]}
            value = metrics[m["name"]]["value"]
            lines.append(f"  {m['name']:<46} {value:>14.6g} {m['unit']}")
        lines.append(f"  spans: {res['traced']['trace_file']}")
    return {"attempted": len(ops), "failed": len(failed),
            "metrics": metrics}, lines


def shape_of(pass_result) -> list:
    return [(op["name"], op.get("shape")) for op in pass_result["ops"]]


def self_check(workloads, seed, threads) -> int:
    """Two seeds must give the same operations, counts and dimensions."""
    bad = 0
    env = worker_env(threads)
    for w in workloads:
        deadline = time.monotonic() + 2 * RUN_LIMIT_S
        a, b = (start_worker(w, s, "pass", 0, env, deadline)
                for s in (seed, seed + 1))
        same = shape_of(a) == shape_of(b)
        differs = [k for k, v in a["digests"].items() if b["digests"][k] != v]
        print(f"self-check {w}: seeds {seed} and {seed + 1}: "
              f"{len(a['ops'])} operations, structure "
              f"{'identical' if same else 'DIFFERENT'}"
              + (f"; {len(differs)}/{len(a['digests'])} exports differ "
                 f"(gate values)" if a["digests"] else ""))
        if not same:
            for x, y in zip(shape_of(a), shape_of(b)):
                if x != y:
                    print(f"  {x} != {y}")
            bad += 1
    print(json.dumps({"self_check": bad == 0}))
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "hamline" / "__init__.py").is_file():
            raise Refused(f"no hamline package under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or bench["run_seconds"]
        threads = len(os.sched_getaffinity(0))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.self_check:
            return self_check(names, args.seed, threads)
        env = environment(threads)
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in names:
            res = run_workload(w, args.seed, seconds, args.trace, threads)
            env.update(numpy=res["passes"][0]["numpy"],
                       scipy=res["passes"][0]["scipy"])
            summary, lines = summarise(w, res, args.trace, bench)
            print("\n".join(lines))
            OUT.mkdir(exist_ok=True)
            (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({"env": env, "seed": args.seed, **summary,
                            **res}, indent=1))
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else w + "."
            for k, v in summary["metrics"].items():
                total["metrics"][prefix + k] = v
    except Refused as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 3
    total["correct"] = total["failed"] == 0
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
