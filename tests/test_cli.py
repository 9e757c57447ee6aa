import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamline

CLI = [sys.executable, "-m", "hamline.cli"]
# the subprocess imports the package this test process imported
SRC = str(Path(hamline.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=ENV, timeout=timeout)


def write_circuit(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ACCEPT_DOC = {
    "n": 2, "m": 1,
    "rounds": [[{"kind": "I"}], [{"kind": "CNOT"}]],
}
ONE_ROUND_DOC = {"n": 2, "m": 1, "rounds": [[{"kind": "I"}]]}


def test_sequence_counts_and_exit_codes():
    out = run("sequence", "--n", "3", "--R", "2")
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if "|" in l]
    assert len(lines) == 38
    assert lines[0].startswith("giqiq.|......")
    assert run("sequence", "--n", "1", "--R", "2").returncode == 2


def test_sequence_deterministic():
    a = run("sequence", "--n", "2", "--R", "2")
    b = run("sequence", "--n", "2", "--R", "2")
    assert a.stdout == b.stdout
    assert len([l for l in a.stdout.splitlines() if "|" in l]) == 19


def test_compile_writes_terms(tmp_path):
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    out_path = str(tmp_path / "h.txt")
    out = run("compile", "--circuit", circ, "--out", out_path)
    assert out.returncode == 0, out.stderr
    assert "pen families: 124" in out.stdout
    head = json.loads(open(out_path).readline())
    assert head["format"] == "hamline-terms-v1"
    assert head["K"] == 18
    # rerun is byte-identical
    out_path2 = str(tmp_path / "h2.txt")
    run("compile", "--circuit", circ, "--out", out_path2)
    assert open(out_path).read() == open(out_path2).read()


def test_compile_coo_refuses_eight_sites(tmp_path):
    """The coordinate export stops at 6 sites: each of the 49,283,072
    nonzeros of an 8-site chain would be a line of text.  The size is
    checked before the matrix is built, so the refusal comes at once."""
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    coo = tmp_path / "h.coo"
    out = run("compile", "--circuit", circ, "--out", str(tmp_path / "h.txt"),
              "--coo", str(coo), timeout=60)
    assert out.returncode == 2
    assert "limited to 6 sites" in out.stderr
    assert not coo.exists()


def test_compile_parse_and_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = run("compile", "--circuit", str(bad), "--out", str(tmp_path / "x"))
    assert out.returncode == 1
    nonunitary = write_circuit(tmp_path, {
        "n": 2, "m": 1,
        "rounds": [[{"kind": "I"}],
                   [{"matrix": [[[1.0, 0.0]] * 4] * 4}]],
    }, "nu.json")
    out = run("compile", "--circuit", nonunitary, "--out",
              str(tmp_path / "y"))
    assert out.returncode == 2


@pytest.mark.parametrize("command", ["compile", "spectrum"])
def test_circuit_load_errors_share_exit_codes(tmp_path, command):
    # README: an unreadable file or a parse error exits 1, a validation
    # error exits 2, whichever command reads the circuit
    extra = ["--out", str(tmp_path / "out")] if command == "compile" else []
    missing = run(command, "--circuit", str(tmp_path / "missing.json"), *extra)
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(command, "--circuit", str(bad), *extra).returncode == 1
    nonunitary = write_circuit(tmp_path, {
        "n": 2, "m": 1,
        "rounds": [[{"kind": "I"}],
                   [{"matrix": [[[1.0, 0.0]] * 4] * 4}]],
    }, "nu.json")
    out = run(command, "--circuit", nonunitary, *extra)
    assert out.returncode == 2
    assert out.stderr.startswith("validation error:")
    # a missing key, a round that is no list, and a matrix row of bare
    # numbers rather than [re, im] pairs are parse errors
    for name, doc in [
            ("nokey.json", {"n": 2, "m": 1, "gates": [{"kind": "CNOT"}]}),
            ("round.json", {"n": 2, "m": 1, "rounds": [[{"kind": "I"}], 5]}),
            ("row.json", {"n": 2, "m": 1,
                          "rounds": [[{"kind": "I"}],
                                     [{"matrix": np.eye(4).tolist()}]]})]:
        out = run(command, "--circuit", write_circuit(tmp_path, doc, name),
                  *extra)
        assert out.returncode == 1, name
        assert out.stderr.startswith("parse error:"), out.stderr


def test_spectrum_subspace(tmp_path):
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    out = run("spectrum", "--circuit", circ, "--set", "legal",
              "--eigs", "3", "--couplings", "unit")
    assert out.returncode == 0, out.stderr
    assert "eigenvalue" in out.stdout
    first = float(out.stdout.split("eigenvalue")[1].split()[0])
    assert first < 1e-10  # accepting-capable circuit: legal span reaches 0


def test_spectrum_subspace_fringe_reaches_bottom(tmp_path):
    """The n=3, R=3 identity circuit's legal+fringe block (dimension
    3,024) reaches far below the initial shift of -1."""
    circ = write_circuit(tmp_path, {
        "n": 3, "m": 1,
        "rounds": [[{"kind": "I"}, {"kind": "I"}]] * 3,
    })
    out = run("spectrum", "--circuit", circ, "--set", "fringe")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "converged=True" in out.stdout
    first = [l for l in out.stdout.splitlines() if l.startswith("eigenvalue")]
    assert first[0].split()[1] == "-2.916093665627e+05"


# Eigenvalue lines (value, residual, floor) printed at seed 0 before
# ``--set`` took over the choice of ``--method``: chain lines by
# ``--method dense``, legal and fringe lines by ``--method subspace``.
PINNED_SPECTRA = {
    ("chain", "auto", "1"): (ONE_ROUND_DOC, 3, [
        "-7.968901876107e+00 1.650e-12 1.168e-09"]),
    ("chain", "auto", "4"): (ONE_ROUND_DOC, 3, [
        "-7.968901876107e+00 1.650e-12 1.168e-09",
        "-7.718955275401e+00 1.743e-12 1.168e-09",
        "-3.982547049678e+00 5.966e-12 1.168e-09",
        "-3.731381525750e+00 3.718e-12 1.168e-09"]),
    ("chain", "unit", "1"): (ONE_ROUND_DOC, 3, [
        "-2.822294349830e-01 7.965e-16 2.442e-15"]),
    ("chain", "unit", "4"): (ONE_ROUND_DOC, 3, [
        "-2.822294349830e-01 9.646e-16 2.442e-15",
        "-1.667924971926e-01 2.080e-15 2.442e-15",
        "-1.667924971926e-01 1.685e-15 2.442e-15",
        "8.165569549515e-02 4.627e-15 2.442e-15"]),
    ("legal", "unit", "4"): (ACCEPT_DOC, 18, [
        "-1.110223024625e-15 1.939e-15 8.882e-16",
        "6.485383731579e-03 2.222e-15 8.882e-16",
        "6.485383731579e-03 1.744e-15 8.882e-16",
        "2.462331880972e-02 2.729e-15 8.882e-16"]),
    ("fringe", "unit", "4"): (ACCEPT_DOC, 18, [
        "-8.564567770588e-01 1.344e-15 1.998e-15",
        "-8.564226875779e-01 1.022e-15 1.998e-15",
        "-8.564226875779e-01 2.010e-15 1.998e-15",
        "-8.563885596638e-01 1.890e-15 1.998e-15"]),
}


@pytest.mark.parametrize("subset,couplings,eigs", list(PINNED_SPECTRA))
def test_spectrum_set_prints_pinned_lines(tmp_path, subset, couplings, eigs):
    doc, K, values = PINNED_SPECTRA[subset, couplings, eigs]
    lines = ["eigenvalue {}  residual {}  floor {}".format(*v.split())
             for v in values]
    circ = write_circuit(tmp_path, doc)
    out = run("spectrum", "--circuit", circ, "--set", subset,
              "--couplings", couplings, "--eigs", eigs)
    assert out.returncode == 0, out.stdout + out.stderr
    # the config line lists only options that the run reads
    assert out.stdout.splitlines() == [
        f"config: circuit={circ} couplings={couplings} eigs={eigs} "
        f"seed=0 set={subset}",
        f"set={subset} K={K} converged=True", *lines]


def test_eigenvalue_lines_print_and_flag_the_floor():
    from hamline.cli import eigenvalue_lines
    from hamline.spectra import EigResult
    res = EigResult(np.array([-1e-17, 0.25]), np.array([1e-16, 2e-16]),
                    True, floor=4e-16)
    lines = eigenvalue_lines(res)
    assert lines[0].split()[1] == "-1.000000000000e-17"
    assert lines[0].endswith("floor 4.000e-16  below floor")
    assert lines[1].endswith("residual 2.000e-16  floor 4.000e-16")


def test_spectrum_dense_guard(tmp_path):
    # the whole chain shares the block cap: 8^8 dimensions are refused
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    out = run("spectrum", "--circuit", circ, "--set", "chain")
    assert out.returncode == 2
    assert out.stderr == ("validation error: chain dimension 16777216 "
                          "exceeds 200000\n")


def test_spectrum_chain_refuses_six_sites_before_building(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    from hamline import cli, spectra

    def build(*args):
        raise AssertionError("the whole-chain matrix was built")

    monkeypatch.setattr(spectra, "full_sparse_matrix", build)
    circ = write_circuit(tmp_path, {"n": 3, "m": 1,
                                    "rounds": [[{"kind": "I"}] * 2]})
    assert cli.main(["spectrum", "--circuit", circ, "--set", "chain"]) == 2
    assert capsys.readouterr().err == ("validation error: chain dimension "
                                       "262144 exceeds 200000\n")


@pytest.mark.parametrize("couplings", ["auto", "unit"])
def test_spectrum_dense_certified(tmp_path, couplings, component_eigh):
    """``--set chain`` solves the whole-chain matrix through the
    certified route.  Each value lies within its residual plus floor of
    the LAPACK value for the same matrix, give or take the LAPACK pair's
    own residual: at auto couplings that reaches 2.0e-9, and
    ``eigvalsh`` alone lies 2.5e-9 above the certified minimum.  The
    LAPACK pairs come from the component oracle; one dense ``eigh`` of
    all 4,096 dimensions takes ten times as long, and its four values
    differ from these by at most 6.2e-10 at auto couplings."""
    from hamline import circuit, hamiltonian as hm, spectra
    circ = write_circuit(tmp_path, ONE_ROUND_DOC)
    out = run("spectrum", "--circuit", circ, "--set", "chain",
              "--couplings", couplings)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "converged=True" in out.stdout
    spec = hm.build_hamiltonian(
        circuit.parse_circuit(json.dumps(ONE_ROUND_DOC)),
        couplings=hm.UNIT_COUPLINGS if couplings == "unit" else None)
    H = spectra.full_sparse_matrix(spec.terms, 2, 1).tocsr()
    assert not np.any(H.data.imag)
    H = H.real
    want, vecs = component_eigh(H, 4)
    want_res = np.linalg.norm(H @ vecs - vecs * want, axis=0)
    lines = [l.split() for l in out.stdout.splitlines()
             if l.startswith("eigenvalue")]
    assert len(lines) == 4
    for ref, ref_res, (_, lam, _, res, _, floor) in zip(want, want_res, lines):
        # the printed value keeps 13 significant digits
        assert abs(float(lam) - ref) <= (float(res) + float(floor) + ref_res
                                         + 5e-13 * abs(ref))


def test_verify_suites_exit_zero():
    assert run("verify", "census").returncode == 0
    assert run("verify", "facts", "--n", "3", "--R", "2").returncode == 0
    assert run("verify", "appendix", "--Lmax", "16").returncode == 0


def test_verify_census_runs_under_a_three_gigabyte_cap():
    # census checks the pen terms one code per legal configuration; it
    # once expanded 2^n content vectors per configuration, and this run
    # raised MemoryError at a 2.2 GB peak
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    out = subprocess.run(CLI + ["verify", "census", "--n", "13", "--R", "2"],
                         capture_output=True, text=True, env=ENV,
                         preexec_fn=cap)
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("args", [("horizon", "--max-len", "3"),
                                  ("appendix", "--Lmax", "0")])
def test_verify_refuses_a_suite_that_checks_nothing(args):
    # no chain has fewer than 4 sites, and no walk fewer than 1 step
    out = run("verify", *args)
    assert out.returncode == 2
    assert out.stderr.startswith("validation error:")


def test_import_loads_no_submodule_and_light_commands_skip_scipy(tmp_path):
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    code = (
        "import sys, hamline\n"
        "assert not [m for m in sys.modules if m.startswith('hamline.')]\n"
        "from hamline import cli\n"
        "assert cli.main(['sequence', '--n', '2', '--R', '1']) == 0\n"
        f"assert cli.main(['compile', '--circuit', {circ!r}, '--out', "
        f"{str(tmp_path / 'h.txt')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_verify_has_no_full_space_flag():
    # the soundness suite's full-space values come from its exact blocks
    out = run("verify", "soundness", "--full-space")
    assert out.returncode == 1
    assert "unrecognized arguments: --full-space" in out.stderr


def test_verify_fault_injection_exit_three(tmp_path):
    out = run("verify", "facts", "--n", "3", "--R", "2",
              "--inject-fault", "mutate-rule")
    assert out.returncode == 3
    out = run("verify", "census", "--inject-fault", "drop-pen-family",
              "--json", str(tmp_path / "rep.json"))
    assert out.returncode == 3
    doc = json.load(open(tmp_path / "rep.json"))
    assert doc[0]["passed"] is False


def test_verify_fault_is_installed_for_the_run_only(monkeypatch, capsys):
    """A fault replaces one module attribute for its suite's run and is
    undone afterwards, also when the suite raises."""
    from hamline import chain, cli, hamiltonian as hm, verify
    rules, build_h_pen = chain.RULES, hm.build_h_pen
    facts = ["verify", "facts", "--n", "3", "--R", "2"]
    assert cli.main(facts + ["--inject-fault", "mutate-rule"]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines()
              if "[FAIL]" in line]
    assert failed == ["  [FAIL] the legal sequence equals the closed-form "
                      "templates measured=3 (measured: the first step where "
                      "they differ)"]
    assert chain.RULES is rules
    assert cli.main(facts) == 0
    assert cli.main(["verify", "census", "--inject-fault",
                     "drop-pen-family"]) == 3
    assert hm.build_h_pen is build_h_pen
    assert cli.main(["verify", "census"]) == 0

    seen = []

    def raising(n, R):
        seen.append(chain.RULES)
        raise RuntimeError("suite raised")

    monkeypatch.setattr(verify, "check_facts", raising)
    assert cli.main(facts + ["--inject-fault", "mutate-rule"]) == 3
    assert "RuntimeError('suite raised')" in capsys.readouterr().out
    assert seen == [chain.mutated_rules("2a", (chain.DEAD, chain.GATE))]
    assert chain.RULES is rules


def test_unwritable_output_paths_exit_one(tmp_path, capsys):
    """Every output option whose directory does not exist: one error line
    and exit 1, no traceback."""
    from hamline import cli
    circ = write_circuit(tmp_path, ONE_ROUND_DOC)
    missing = str(tmp_path / "missing" / "out.txt")
    ok = str(tmp_path / "h.txt")
    for argv in (["sequence", "--n", "2", "--R", "1", "--out", missing],
                 ["compile", "--circuit", circ, "--out", missing],
                 ["compile", "--circuit", circ, "--out", ok, "--coo", missing],
                 ["spectrum", "--circuit", circ, "--out", missing],
                 ["verify", "appendix", "--Lmax", "2", "--json", missing]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert missing in err


def test_unwritable_output_paths_fail_before_the_work(tmp_path, monkeypatch,
                                                      capsys):
    """``verify --json`` opens its path before any suite runs, and
    ``compile --out`` before the export; a parse error leaves no file."""
    from hamline import cli, hamiltonian as hm, verify
    calls = []
    for func, _, _ in cli.SUITES.values():
        monkeypatch.setattr(verify, func, lambda *a, func=func, **kw:
                            calls.append(func))
    monkeypatch.setattr(hm, "export_terms", lambda spec: calls.append(spec))
    missing = str(tmp_path / "missing" / "x.json")
    assert cli.main(["verify", "all", "--json", missing]) == 1
    circ = write_circuit(tmp_path, ONE_ROUND_DOC)
    assert cli.main(["compile", "--circuit", circ, "--out", missing]) == 1
    assert calls == []
    assert capsys.readouterr().err.count(missing) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = tmp_path / "h.txt"
    assert cli.main(["compile", "--circuit", str(bad), "--out",
                     str(out)]) == 1
    assert not out.exists()


def test_unknown_method_usage_error(tmp_path):
    # --set names what spectrum solves; there is no --method of any value
    circ = write_circuit(tmp_path, ACCEPT_DOC)
    for method in ("dense", "subspace", "magic"):
        out = run("spectrum", "--circuit", circ, "--method", method)
        assert out.returncode == 1
        assert f"unrecognized arguments: --method {method}" in out.stderr


@pytest.mark.parametrize("option,value,message", [
    ("--set", "lanczos", "argument --set: invalid choice: 'lanczos'"),
    ("--maxiter", "5", "unrecognized arguments: --maxiter 5"),
])
def test_spectrum_uncertified_options_usage_error(tmp_path, option, value,
                                                  message):
    # spectrum has no uncertified full-space Lanczos route
    circ = write_circuit(tmp_path, ONE_ROUND_DOC)
    out = run("spectrum", "--circuit", circ, option, value)
    assert out.returncode == 1
    assert out.stderr.startswith("usage: hamline")
    assert message in out.stderr


@pytest.mark.parametrize("shape", [("--n", "3"), ("--R", "3")])
def test_verify_soundness_refuses_other_shapes(shape):
    # the soundness suite runs the n=2, R=2 reference circuits and takes
    # no shape
    out = run("verify", "soundness", *shape)
    assert out.returncode == 1, out.stdout + out.stderr
    assert f"unrecognized arguments: {' '.join(shape)}" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("shape", [("--n", "4"), ("--R", "3")])
def test_verify_history_refuses_other_shapes(shape):
    # the history suite runs the n=2, R=2 accepting circuit and takes no
    # shape
    out = run("verify", "history", *shape)
    assert out.returncode == 1, out.stdout + out.stderr
    assert f"unrecognized arguments: {' '.join(shape)}" in out.stderr
    assert out.stdout == ""


def test_verify_history_echoes_the_shape_it_runs():
    # the config line holds no shape the run does not read; the report
    # names the shape it ran
    out = run("verify", "history")
    assert out.returncode == 0, out.stdout + out.stderr
    config, suite = out.stdout.splitlines()[:2]
    assert config == "config: suite=history"
    assert suite.startswith("suite history(n=2,R=2): PASS")


# a value for each verify option, none of them its default
SUITE_OPTIONS = {"n": "2", "R": "1", "Lmax": "8", "max_len": "6"}


def test_verify_suite_table_takes_only_what_each_suite_reads(monkeypatch,
                                                             capsys):
    """Every suite of the table, and ``all``, echoes exactly the options
    it reads, passes exactly those to its functions, and refuses every
    option of another suite (exit 1).  The suite functions are replaced
    by ones that record their arguments, so no suite runs."""
    from hamline import cli, verify
    calls = []

    def recorder(func):
        def suite(**kwargs):
            calls.append((func, sorted(kwargs)))
            rep = verify.Report(func)
            rep.add("ran", True)
            return rep
        return suite

    for func, _, _ in cli.SUITES.values():
        monkeypatch.setattr(verify, func, recorder(func))
    # ``all`` reads the union of its suites' options
    assert set(SUITE_OPTIONS) == {p for _, ps, _ in cli.SUITES.values()
                                  for p in ps}
    table = {**cli.SUITES, "all": (None, tuple(SUITE_OPTIONS), None)}
    every = [(f"--{p.replace('_', '-')}", v) for p, v in SUITE_OPTIONS.items()]
    every += [("--inject-fault", fault[0])
              for _, _, fault in cli.SUITES.values() if fault]
    for name, (func, params, fault) in table.items():
        own = [(f"--{p.replace('_', '-')}", SUITE_OPTIONS[p]) for p in params]
        if fault:
            own.append(("--inject-fault", fault[0]))
        calls.clear()
        assert cli.main(["verify", name, *sum(own, ())]) == 0, name
        config = capsys.readouterr().out.splitlines()[0].split()
        assert config[0] == "config:"
        assert sorted(config[1:]) == sorted(
            [f"suite={name}"] + [f"{p}={SUITE_OPTIONS[p]}" for p in params]
            + ([f"inject_fault={fault[0]}"] if fault else []))
        if func:
            ran = [(func, sorted(params))]
        else:
            ran = [(f, sorted(ps)) for f, ps, _ in cli.SUITES.values()]
        assert calls == ran, name
        for option in every:
            if option in own:
                continue
            assert cli.main(["verify", name, *option]) == 1, (name, option)
            err = capsys.readouterr().err
            assert ("unrecognized arguments" in err
                    or "invalid choice" in err), (name, option)


def test_seed_belongs_to_spectrum(capsys):
    from hamline import cli
    assert cli.main(["sequence", "--n", "2", "--R", "1"]) == 0
    assert capsys.readouterr().out.startswith("config: R=1 n=2\n")
    for argv in (["sequence", "--n", "2", "--R", "1", "--seed", "1"],
                 ["verify", "census", "--seed", "1"]):
        assert cli.main(argv) == 1, argv
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    # no global option either
    assert cli.main(["--seed", "1", "sequence", "--n", "2", "--R", "1"]) == 1


def test_options_take_their_full_names(tmp_path, capsys):
    # no option answers to a prefix of its name
    from hamline import cli
    out = tmp_path / "seq.txt"
    for argv in (["sequence", "--n", "2", "--R", "1", "--o", str(out)],
                 ["verify", "horizon", "--max", "4"]):
        assert cli.main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("sequence", "--n", "3", "--R", "2"),
                                     ("verify", "horizon", "--max-len", "4")])
def test_closed_stdout_exits_without_traceback(command):
    # a reader that is gone before anything is written: every write to
    # stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(CLI + list(command), stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=ENV)
    finally:
        os.close(write_end)
    assert out.stderr == ""
    assert out.returncode == 141


@pytest.mark.parametrize("command", [
    ("sequence", "--n", "1", "--R", "2"),
    ("verify", "facts", "--n", "1", "--R", "2"),
    ("verify", "census", "--n", "2", "--R", "0"),
    ("verify", "all", "--n", "2", "--R", "0"),
])
def test_chain_shape_validation_exit_two(command):
    out = run(*command)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == "validation error: need n >= 2 and R >= 1\n"


@pytest.mark.parametrize("subset,flag,value", [
    ("legal", "--eigs", "0"), ("legal", "--eigs", "-1"),
    ("chain", "--eigs", "0"), ("chain", "--eigs", "-1"),
])
def test_spectrum_count_validation_exit_two(tmp_path, subset, flag, value):
    # a solver count below its least value is refused before any solve,
    # on the 4-site identity circuit that every set accepts
    circ = write_circuit(tmp_path, ONE_ROUND_DOC)
    out = run("spectrum", "--circuit", circ, "--set", subset, flag, value)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == "validation error: need --eigs >= 1\n"


@pytest.mark.parametrize("n, R, eigs, message", [
    # the legal+fringe block has 271,744 dimensions: refused by restrict
    (6, 4, "4", "restricted dimension 271744 exceeds 200000"),
    # 53,824 dimensions: a dense solve would need a 23 GB array
    (5, 3, "53823", "a dense solve of dimension 53824 needs 23176183808 "
                    "bytes, over 536870912"),
])
def test_spectrum_size_caps_exit_two(tmp_path, n, R, eigs, message):
    circ = write_circuit(tmp_path, {
        "n": n, "m": 1, "rounds": [[{"kind": "I"}] * (n - 1)] * R})
    out = run("spectrum", "--circuit", circ, "--set", "fringe",
              "--eigs", eigs)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == f"validation error: {message}\n"


@pytest.mark.parametrize("command", [
    ("sequence", "--n", "1000", "--R", "10"),
    ("verify", "facts", "--n", "1000", "--R", "10"),
])
def test_automaton_size_guard_exit_two(command):
    # (K+1) * 2nR = 5.4e11 site symbols: refused before anything is built
    out = run(*command)
    assert out.returncode == 2, out.stderr
    assert "validation error: the legal sequence of n=1000, R=10" in out.stderr
