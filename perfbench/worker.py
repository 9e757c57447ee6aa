"""One pass over one workload, in a fresh process started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|setup
        --trace 0|1 --started-at T --out DIR

``--started-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and input generation up to the first timed operation.  ``--mode setup``
stops there.  The result is one JSON object on the last line of standard
output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Pass:
    """Runs and times the operations of one pass; checks run untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: list[dict] = []
        self.counts: dict[str, int] = {}
        self.digests: dict[str, str] = {}

    def op(self, name, fn, check=None, shape=None):
        idx = len(self.records)
        ctx = self.tracer.operation(idx, name) if self.tracer else nullcontext()
        error = None
        c0, t0 = _cpu_s(), time.perf_counter()
        with ctx:
            try:
                result = fn()
            except Exception as exc:  # the pass goes on; the op counts as failed
                traceback.print_exc(file=sys.stderr)
                result, error = None, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        if error is None and check is not None:
            try:
                error = check(result)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                error = f"check raised {type(exc).__name__}: {exc}"
        rec = {"name": name, "wall_s": wall, "cpu_s": cpu,
               "ok": error is None, "reason": error}
        if shape is not None and error is None:
            rec["shape"] = shape(result)
        self.records.append(rec)
        return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import hamline
    if Path(hamline.__file__).resolve().parent != ROOT / "src" / "hamline":
        print(f"hamline imported from {hamline.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.started_at
    out = {"setup_s": setup_s, "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    if args.mode == "pass":
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        p = Pass(tracer)
        workloads.WORKLOADS[args.workload](p, inputs)
        if tracer:
            tracer.uninstall()
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(path)
            out["trace_file"] = str(path.relative_to(ROOT))
            out["layers"] = {**tracer.layer_metrics(), **p.counts}
        out.update(
            wall_s=sum(r["wall_s"] for r in p.records),
            cpu_s=sum(r["cpu_s"] for r in p.records),
            peak_rss_mb=tracing.maxrss_mb(),
            ops=p.records, counts=p.counts, digests=p.digests)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
