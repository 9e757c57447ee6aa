"""Command-line interface.

Subcommands: compile (circuit -> Hamiltonian export), sequence (legal
configuration trace), spectrum (certified smallest eigenvalues),
verify (named verification suites).

Exit codes: 0 success, 1 usage or parse error, 2 validation error,
3 suite failure or a spectrum solve that has not converged.  All
randomness flows from --seed; equal invocations produce identical
output.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SUITE = 3

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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamline",
        description="8-state chain Hamiltonians from layered circuits: "
                    "compile, trace, diagonalize, verify.")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized numerics (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a circuit file into a "
                                       "Hamiltonian term export")
    c.add_argument("--circuit", required=True, help="circuit JSON file")
    c.add_argument("--out", required=True, help="output path for the terms")
    c.add_argument("--couplings", choices=["auto", "unit"], default="auto",
                   help="derived power-of-two couplings or all-ones")
    c.add_argument("--coo", help="also write a full-matrix coordinate "
                                 "export here (small chains only)")

    s = sub.add_parser("sequence", help="print the legal configuration "
                                        "sequence with rule annotations")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--R", type=int, required=True)
    s.add_argument("--out", help="also write the lines to this file")

    e = sub.add_parser("spectrum", help="smallest eigenvalues of the "
                                        "assembled Hamiltonian")
    e.add_argument("--circuit", required=True)
    e.add_argument("--set", choices=["legal", "fringe", "chain"],
                   default="legal", help="the legal span, its one-exchange "
                                         "fringe, or the whole chain")
    e.add_argument("--eigs", type=int, default=4)
    e.add_argument("--couplings", choices=["auto", "unit"], default="auto")
    e.add_argument("--out", help="write the report to this file")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=["census", "facts", "history", "soundness",
                            "appendix", "horizon", "all"])
    v.add_argument("--n", type=int,
                   help="default 3 (soundness, history: 2)")
    v.add_argument("--R", type=int, default=2)
    v.add_argument("--Lmax", type=int, default=64)
    v.add_argument("--max-len", type=int, default=12)
    v.add_argument("--json", help="write a machine-readable report here")
    v.add_argument("--inject-fault",
                   choices=["mutate-rule", "drop-pen-family"],
                   help="negative-control fault injection (testing only)")
    return p


def _log_config(args):
    items = sorted(vars(args).items())
    print("config: " + " ".join(f"{k}={v}" for k, v in items
                                if k != "command" and v is not None))


def _load_circuit(path):
    """(circuit, None) or (None, exit code): an unreadable file or a parse
    error is exit 1, a validation error exit 2."""
    from . import circuit
    try:
        with open(path) as fh:
            return circuit.parse_circuit(fh.read()), None
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except circuit.CircuitFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_compile(args) -> int:
    from . import chain, hamiltonian as hm
    circ, code = _load_circuit(args.circuit)
    if circ is None:
        return code
    couplings = hm.UNIT_COUPLINGS if args.couplings == "unit" else None
    spec = hm.build_hamiltonian(circ, couplings=couplings)
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
    print(f"n={circ.n} m={circ.m} R={circ.R} K={spec.K}")
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
    from . import hamiltonian as hm, spectra, verify
    if args.eigs < 1:
        print("validation error: need --eigs >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    circ, code = _load_circuit(args.circuit)
    if circ is None:
        return code
    couplings = hm.UNIT_COUPLINGS if args.couplings == "unit" else None
    spec = hm.build_hamiltonian(circ, couplings=couplings)
    n, R = circ.n, circ.R
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
    import numpy as np
    from . import chain, verify

    if args.suite in ("census", "facts", "all") and _bad_shape(args.n, args.R):
        return EXIT_VALIDATION
    if args.max_len < 4 or args.Lmax < 1:
        # the shortest chain (n=2, R=1) has 4 sites; a suite over no
        # chain or no walk length would check nothing
        print("validation error: need --max-len >= 4 and --Lmax >= 1",
              file=sys.stderr)
        return EXIT_VALIDATION
    rules = chain.RULES
    drop_pen = None
    if args.inject_fault == "mutate-rule":
        rules = chain.mutated_rules("2a", (chain.DEAD, chain.GATE))
    elif args.inject_fault == "drop-pen-family":
        drop_pen = (chain.DEAD, chain.BLANK, "B")

    def run(name):
        try:
            if name == "census":
                return verify.census_suite(args.n, args.R,
                                           drop_pen_family=drop_pen)
            if name == "facts":
                return verify.check_facts(args.n, args.R, rules=rules)
            if name == "history":
                return verify.check_history(verify.accepting_circuit(),
                                            np.array([1.0, 0.0]))
            if name == "soundness":
                return verify.soundness_probe()
            if name == "appendix":
                return verify.appendix_suite(args.Lmax)
            return verify.horizon_suite(args.max_len)
        except Exception as exc:  # suites must fail loudly, not crash
            rep = verify.Report(name)
            rep.add(f"suite ran to completion", False, notes=repr(exc))
            return rep

    names = (["census", "facts", "history", "appendix", "horizon",
              "soundness"] if args.suite == "all" else [args.suite])
    reports = [run(name) for name in names]
    for rep in reports:
        print(rep.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "verify":
        # these suites run their n=2, R=2 reference circuits only
        fixed = args.suite in ("soundness", "history")
        if fixed and {args.n, args.R} - {None, 2}:
            print(f"validation error: the {args.suite} suite runs n=2, "
                  f"R=2 only", file=sys.stderr)
            return EXIT_VALIDATION
        if args.n is None:
            args.n = 2 if fixed else 3
    _log_config(args)
    handler = {"compile": cmd_compile, "sequence": cmd_sequence,
               "spectrum": cmd_spectrum, "verify": cmd_verify}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
