"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` replaces a fixed list of public functions of
:mod:`hamline.chain`, :mod:`hamline.circuit`, :mod:`hamline.hamiltonian`,
:mod:`hamline.spectra` and :mod:`hamline.verify` (plus the two
``FullOperator`` methods) with wrappers that record one span per call.
The package itself is not modified: the wrappers are module attributes
set in this process only, so calls made inside the package through the
module (``spectra.expectation`` from ``verify.check_history``, say) are
seen as child spans.

A span holds its name, start, end, parent span, operation id, the rise of
``ru_maxrss`` across it and a few counts.  Spans stay in memory and are
written as JSON lines once the pass ends.  A function's self time is its
span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import resource
import time

import numpy as np
import scipy.sparse as sp


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "rss0",
                 "rss_growth_mb", "counts", "child_s")

    def __init__(self, sid, name, parent, op):
        self.sid, self.name, self.parent, self.op = sid, name, parent, op
        self.counts = {}
        self.child_s = 0.0
        self.rss0 = maxrss_mb()
        self.start = time.perf_counter()
        self.end = None
        self.rss_growth_mb = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "self_s": self.duration - self.child_s,
                "rss_growth_mb": self.rss_growth_mb, **self.counts}


class Tracer:
    """In-memory span recorder for one pass of one workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp_ = Span(len(self.spans), name,
                   parent.sid if parent else None, self._op)
        self.spans.append(sp_)
        self._stack.append(sp_)
        return sp_

    def finish(self, sp_: Span):
        sp_.end = time.perf_counter()
        sp_.rss_growth_mb = maxrss_mb() - sp_.rss0
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += sp_.duration

    def operation(self, op_id: int, name: str):
        """Root span of one benchmark operation; nested spans share its id."""
        self._op = op_id
        return _SpanContext(self, f"op.{name}")

    # -- instrumentation ------------------------------------------------------

    def _wrap(self, owner, attr: str, name, counts=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sp_ = self.begin(label)
            try:
                result = orig(*args, **kwargs)
                if counts is not None:
                    result = counts(sp_, args, result)
                return result
            finally:
                self.finish(sp_)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self):
        from hamline import chain, circuit, hamiltonian, spectra, verify

        def n_configs(sp_, args, result):
            sp_.counts["configs"] = len(result)
            return result

        def materialise(sp_, args, result):
            # generators are consumed inside the span, then handed back
            items = list(result)
            sp_.counts["count"] = len(items)
            return iter(items)

        def halted(sp_, args, result):
            sp_.counts["halted"] = int(result is None)
            return result

        def n_terms(sp_, args, result):
            sp_.counts["terms"] = len(result.terms)
            return result

        def n_bytes(sp_, args, result):
            sp_.counts["bytes"] = len(result.encode())
            return result

        def restricted(sp_, args, result):
            mat, basis = result
            sp_.counts.update(configs=len(basis), dim=mat.shape[0],
                              nnz=int(mat.nnz))
            return result

        def eig_kind(args):
            op = args[0]
            if isinstance(op, np.ndarray):
                return "spectra.min_eigs.dense"
            if sp.issparse(op):
                return "spectra.min_eigs.sparse"
            return "spectra.min_eigs.matfree"

        def unconverged(sp_, args, result):
            sp_.counts["unconverged"] = int(not result.converged)
            return result

        def matvec_bytes(sp_, args, result):
            sp_.counts["matvec_bytes_computed"] = matvec_bytes_computed(args[0])
            return result

        for name in ("legal_sequence", "template_sequence"):
            self._wrap(chain, name, f"chain.{name}")
        self._wrap(chain, "invariant_set", "chain.invariant_set", n_configs)
        self._wrap(chain, "undetectable_configurations",
                   "chain.undetectable_configurations", materialise)
        self._wrap(chain, "detect_horizon", "chain.detect_horizon", halted)
        self._wrap(chain, "exchange_horizon", "chain.exchange_horizon")
        self._wrap(circuit, "parse_circuit", "circuit.parse_circuit")
        self._wrap(hamiltonian, "build_hamiltonian",
                   "hamiltonian.build_hamiltonian", n_terms)
        self._wrap(hamiltonian, "export_terms", "hamiltonian.export_terms",
                   n_bytes)
        self._wrap(spectra, "restrict", "spectra.restrict", restricted)
        self._wrap(spectra, "min_eigs", eig_kind, unconverged)
        for name in ("history_state", "expectation", "rotate_out_gates"):
            self._wrap(spectra, name, f"spectra.{name}")
        self._wrap(spectra.FullOperator, "__init__",
                   "spectra.FullOperator.build")
        self._wrap(spectra.FullOperator, "matvec",
                   "spectra.FullOperator.matvec", matvec_bytes)
        for name in ("check_facts", "check_history"):
            self._wrap(verify, name, f"verify.{name}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sp_ in self.spans:
                fh.write(json.dumps(sp_.record(), sort_keys=True) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: summed self seconds and counts, largest RSS rise.

        Seconds go to ``<span>.s`` (``<span>_s`` for the two FullOperator
        spans), counts to ``<module>.<function>.<count>`` and RSS rises to
        ``<span>.rss_growth_mb``."""
        out: dict[str, float] = {}
        for sp_ in self.spans:
            if sp_.name.startswith("op."):
                continue
            key = sp_.name + ("_s" if ".FullOperator." in sp_.name else ".s")
            out[key] = out.get(key, 0.0) + sp_.duration - sp_.child_s
            function = ".".join(sp_.name.split(".")[:2])
            for count, value in sp_.counts.items():
                ckey = f"{function}.{count}"
                out[ckey] = out.get(ckey, 0) + value
            gkey = sp_.name + ".rss_growth_mb"
            out[gkey] = max(out.get(gkey, 0.0), sp_.rss_growth_mb)
        return out


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.finish(self.span)
        self.tracer._op = None


def matvec_bytes_computed(op) -> int:
    """Bytes one ``FullOperator.matvec`` reads and writes, computed from its
    loop structure rather than measured: the diagonal product reads the
    float64 diagonal and the complex input and writes the complex output;
    every hop entry then updates a 1/64 slice of the output twice, each
    update reading an input slice and reading and writing an output slice.
    """
    dim = op.dim
    entries = sum(len(e) for _, e in op.hops)
    return dim * (8 + 16 + 16) + entries * 2 * (dim // 64) * 3 * 16
