"""Command-line interface.

Subcommands: compile (circuit -> Hamiltonian export), sequence (legal
configuration trace), spectrum (certified smallest eigenvalues),
verify (one subcommand per suite, and ``all``).  Each takes only the
options it reads.

Exit codes: 0 success, 1 usage or parse error or an unwritable output
path, 2 validation error, 3 suite failure or a spectrum solve that has
not converged, 141 stdout closed early.  Only ``spectrum`` draws random
numbers, from its --seed; equal invocations give identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SUITE = 3
EXIT_PIPE = 141  # what a shell reports for a writer that SIGPIPE ended

#: The most site symbols, (K+1) * 2nR by the closed form, in a legal
#: sequence that ``sequence`` or ``verify`` builds: ``hamline sequence
#: --n 30 --R 10`` (1.5e7 symbols) peaks at 103 MB.
_MAX_SEQUENCE_SITES = 1 << 25


def _bad_shape(n: int, R: int) -> bool:
    """Report a validation error if (n, R) is no chain shape (n >= 2 and
    R >= 1 are needed) or its legal sequence is over
    :data:`_MAX_SEQUENCE_SITES`; called before anything is built."""
    from .chain import legal_configuration_count
    if n < 2 or R < 1:
        error = "need n >= 2 and R >= 1"
    else:
        size = legal_configuration_count(n, R) * 2 * n * R
        if size <= _MAX_SEQUENCE_SITES:
            return False
        error = (f"the legal sequence of n={n}, R={R} has {size} site "
                 f"symbols, over {_MAX_SEQUENCE_SITES}")
    print(f"validation error: {error}", file=sys.stderr)
    return True


#: Verify parameters, all ints, as (default, least): no chain has under 4
#: sites, no walk under 1 step, and :func:`_bad_shape` checks n and R.
_PARAMS = {"n": (3, None), "R": (2, None), "Lmax": (64, 1),
           "max_len": (12, 4)}


def _without_pen_family(ch, hm):
    """The census fault: ``hamiltonian.build_h_pen`` less the (x, ., B)
    family, its pair terms on the dead and blank slot sets at B pairs."""
    build = hm.build_h_pen

    def build_h_pen(n, R):
        family = tuple(map(frozenset, ch.SLOT[[ch.DEAD, ch.BLANK]].tolist()))
        return [t for t in build(n, R) if t.diag_slots != family
                or ch.location_type(t.sites[0], n, R) != "B"]
    return build_h_pen


#: Each verify suite: its function in :mod:`hamline.verify`, the
#: parameters it reads, and its negative-control fault as (choice, (chain,
#: hamiltonian) -> the module, attribute and value it sets for the run).
SUITES = {
    "census": ("census_suite", ("n", "R"), ("drop-pen-family",
               lambda ch, hm: (hm, "build_h_pen",
                               _without_pen_family(ch, hm)))),
    "facts": ("check_facts", ("n", "R"), ("mutate-rule", lambda ch, hm: (
              ch, "RULES", ch.mutated_rules("2a", (ch.DEAD, ch.GATE))))),
    "history": ("history_suite", (), None),
    "appendix": ("appendix_suite", ("Lmax",), None),
    "horizon": ("horizon_suite", ("max_len",), None),
    "soundness": ("soundness_probe", (), None),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamline", allow_abbrev=False,
        description="8-state chain Hamiltonians from layered circuits: "
                    "compile, trace, diagonalize, verify.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", allow_abbrev=False,
                       help="compile a circuit file into a Hamiltonian "
                            "term export")
    c.add_argument("--circuit", required=True, help="circuit JSON file")
    c.add_argument("--out", required=True, help="output path for the terms")
    c.add_argument("--coo", help="also write a full-matrix coordinate "
                                 "export here (small chains only)")

    s = sub.add_parser("sequence", allow_abbrev=False,
                       help="print the legal configuration sequence with "
                            "rule annotations")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--R", type=int, required=True)
    s.add_argument("--out", help="also write the lines to this file")

    e = sub.add_parser("spectrum", allow_abbrev=False,
                       help="smallest eigenvalues of the assembled "
                            "Hamiltonian")
    e.add_argument("--circuit", required=True)
    e.add_argument("--set", choices=["legal", "fringe", "chain"],
                   default="legal", help="the legal span, its one-exchange "
                                         "fringe, or the whole chain")
    e.add_argument("--eigs", type=int, default=4)
    e.add_argument("--out", help="write the report to this file")
    e.add_argument("--seed", type=int, default=0, help="start vector seed")
    for cmd in (c, e):
        cmd.add_argument("--couplings", choices=["auto", "unit"],
                         default="auto", help="derived power-of-two "
                                              "couplings or all-ones")

    v = sub.add_parser("verify", allow_abbrev=False,
                       help="run a verification suite")
    suites = v.add_subparsers(dest="suite", required=True)
    for name, (_, params, fault) in {**SUITES,
                                     "all": (None, _PARAMS, None)}.items():
        s = suites.add_parser(name, allow_abbrev=False)
        for param in params:
            s.add_argument("--" + param.replace("_", "-"), type=int,
                           default=_PARAMS[param][0])
        s.add_argument("--json", help="write a machine-readable report here")
        if fault:
            s.add_argument("--inject-fault", choices=[fault[0]],
                           help="negative-control fault (testing only)")
    return p


def _log_config(args):
    items = sorted(vars(args).items())
    print("config: " + " ".join(f"{k}={v}" for k, v in items
                                if k != "command" and v is not None))


def _load_spec(args):
    """(spec, None) or (None, exit code): an unreadable circuit file or a
    parse error is exit 1, a validation error exit 2."""
    from . import circuit, hamiltonian as hm
    try:
        with open(args.circuit) as fh:
            circ = circuit.parse_circuit(fh.read())
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except circuit.CircuitFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION
    couplings = hm.UNIT_COUPLINGS if args.couplings == "unit" else None
    return hm.build_hamiltonian(circ, couplings=couplings), None


def cmd_compile(args) -> int:
    from . import chain, hamiltonian as hm
    spec, code = _load_spec(args)
    if spec is None:
        return code
    with open(args.out, "w") as fh:
        fh.write(hm.export_terms(spec))
    if args.coo:
        from . import spectra
        try:
            chunks = spectra.export_coo(spec)
        except ValueError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        with open(args.coo, "w") as fh:
            fh.writelines(chunks)
    counts = hm.census(spec)
    forbidden = len(chain.forbidden_families())
    print(f"n={spec.n} m={spec.m} R={spec.R} K={spec.K}")
    print("terms: " + " ".join(f"{fam}={counts.get(fam, 0)}"
                               for fam in ("in", "prop", "pen", "out")))
    print(f"pen families: {forbidden}")
    print(f"couplings: j_in={spec.couplings.j_in} "
          f"j_prop={spec.couplings.j_prop} j_pen={spec.couplings.j_pen}")
    print(f"wrote {args.out}")
    return EXIT_OK


def sequence_lines(n: int, R: int) -> list[str]:
    from . import chain
    seq, applied = chain.annotated_sequence(n, R)
    lines = []
    for c, inst in zip(seq, applied):
        rule = inst.rule if inst is not None else "-"
        lines.append(f"{c.to_string()}  {rule}")
    return lines


def cmd_sequence(args) -> int:
    if _bad_shape(args.n, args.R):
        return EXIT_VALIDATION
    lines = sequence_lines(args.n, args.R)
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def eigenvalue_lines(res) -> list[str]:
    """One line per eigenvalue: value, residual and precision floor; a
    value smaller in magnitude than the floor is flagged, since its sign
    is not resolved."""
    lines = []
    for lam, r in zip(res.values, res.residuals):
        line = (f"eigenvalue {lam:.12e}  residual {r:.3e}  "
                f"floor {res.floor:.3e}")
        if abs(lam) < res.floor:
            line += "  below floor"
        lines.append(line)
    return lines


def cmd_spectrum(args) -> int:
    from . import spectra, verify
    if args.eigs < 1:
        print("validation error: need --eigs >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    spec, code = _load_spec(args)
    if spec is None:
        return code
    n, R = spec.n, spec.R
    dim = spectra.full_dimension(n, R)
    if args.set == "chain" and dim > spectra.BLOCK_DIM_LIMIT:
        # the cap restrict applies to a block, checked before the build
        print(f"validation error: chain dimension {dim} exceeds "
              f"{spectra.BLOCK_DIM_LIMIT}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.set == "chain":
            mat = spectra.full_sparse_matrix(spec.terms, n, R)
        elif args.set == "legal":
            mat, _ = spectra.restrict(spec, spectra.legal_basis(n, R))
        else:
            mat, _ = spectra.restrict(spec, verify.legal_fringe(n, R))
        res = spectra.min_eigs(mat, k=args.eigs, seed=args.seed)
    except ValueError as exc:  # a matrix or a dense solve over its size cap
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = "\n".join([f"set={args.set} K={spec.K} "
                     f"converged={res.converged}"] + eigenvalue_lines(res))
    print(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    if not res.converged:
        # the value has no certificate that it is the smallest eigenvalue
        return EXIT_SUITE
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import chain, hamiltonian, verify
    if hasattr(args, "n") and _bad_shape(args.n, args.R):
        return EXIT_VALIDATION
    for param, (_, least) in _PARAMS.items():
        if least is not None and getattr(args, param, least) < least:
            print(f"validation error: need --{param.replace('_', '-')} "
                  f">= {least}", file=sys.stderr)
            return EXIT_VALIDATION

    with open(args.json or os.devnull, "w") as fh:  # before any suite runs
        reports = []
        for name in SUITES if args.suite == "all" else [args.suite]:
            func, params, fault = SUITES[name]
            kwargs = {param: getattr(args, param) for param in params}
            fault_patch = contextlib.nullcontext()
            if getattr(args, "inject_fault", None):
                from unittest import mock
                fault_patch = mock.patch.object(*fault[1](chain, hamiltonian))
            try:
                with fault_patch:
                    rep = getattr(verify, func)(**kwargs)
            except Exception as exc:  # suites must fail loudly, not crash
                rep = verify.Report(name)
                rep.add("suite ran to completion", False, notes=repr(exc))
            reports.append(rep)
        for rep in reports:
            print(rep.to_text())
        fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = {"compile": cmd_compile, "sequence": cmd_sequence,
               "spectrum": cmd_spectrum, "verify": cmd_verify}[args.command]
    try:
        _log_config(args)
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone (``| head``): send the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
