import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

from teamlogic.cli import main

MODEL = "domain 0 1\nrel P 1\n  1\n"
TEAM_OK = "vars x y\nrow 0 0\nrow 1 1\n"
TEAM_BAD = "vars x y\nrow 0 0\nrow 0 1\n"
PROOF_GOOD = "1. x = x ; EqRefl\n"
PROOF_BAD = "1. x = y ; EqRefl\n"
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_check_satisfied_and_refuted(files, capsys):
    m = files("m.txt", MODEL)
    t = files("t.txt", TEAM_OK)
    assert main(["check", "--model", m, "--team", t, "--formula", "=(x ; y)"]) == 0
    assert "satisfied" in capsys.readouterr().out
    t2 = files("t2.txt", TEAM_BAD)
    assert main(["check", "--model", m, "--team", t2, "--formula", "=(x ; y)"]) == 1
    assert "not satisfied" in capsys.readouterr().out


def test_check_machine_records(files, capsys):
    m = files("m.txt", MODEL)
    t = files("t.txt", TEAM_OK)
    assert main(["--machine", "check", "--model", m, "--team", t,
                 "--formula", "=(x ; y)"]) == 0
    assert "result=sat" in capsys.readouterr().out


def test_entail_valid(capsys):
    rc = main(["entail", "--hyp", "=(x ; y)", "--hyp", "=(y ; z)",
               "--concl", "=(x ; z)"])
    assert rc == 0
    assert "valid up to domain size 2" in capsys.readouterr().out


def test_entail_counterexample_dumps_witness(capsys):
    rc = main(["entail", "--hyp", "=(x ; y)", "--concl", "=(y ; x)"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "counterexample" in out
    assert "domain" in out and "row" in out


def test_negate(capsys):
    assert main(["negate", "--formula", "x = y"]) == 0
    assert capsys.readouterr().out.strip()
    assert main(["negate", "--formula", "=(x ; y) \\/ x = y"]) == 2


def test_translate_atom_prints_both_forms(capsys):
    assert main(["translate", "--formula", "=(x ; y)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2  # second-order sentence plus in-language definition
    assert main(["translate", "--formula", "E x. P(x)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1


def test_prove(files, capsys):
    good = files("good.prf", PROOF_GOOD)
    bad = files("bad.prf", PROOF_BAD)
    assert main(["prove", "--script", good]) == 0
    assert "ACCEPTED" in capsys.readouterr().out
    assert main(["prove", "--script", bad]) == 1
    assert "REJECTED at step 1" in capsys.readouterr().out


def test_prove_machine_counts_steps_per_rule(files, capsys):
    script = str(REPO / "proofs" / "ind_symmetry.prf")
    assert main(["--machine", "prove", "--script", script]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "result=accepted", "rule_AndE=10", "rule_ExE=3", "rule_FO=1",
        "rule_IncCmp=1", "rule_IncPro=3", "rule_IncTrs=1", "rule_IndE=1",
        "rule_WNegE=1", "rule_assume=4", "rule_premise=1"]
    assert main(["prove", "--script", script]) == 0
    assert capsys.readouterr().out == "ACCEPTED\n"
    bad = files("bad.prf", "1. x = x ; EqRefl\n2. x = y ; EqRefl\n3. y = y ; EqRefl\n")
    assert main(["prove", "--script", bad, "--machine"]) == 1
    assert capsys.readouterr().out.splitlines()[-1:] == ["rule_EqRefl=3"]

def test_props_single_suite_machine(capsys):
    rc = main(["--machine", "props", "--suite", "flatness", "--samples", "5"])
    assert rc == 0
    assert "suite=flatness status=pass" in capsys.readouterr().out


def test_usage_errors_exit_2(files, capsys):
    assert main(["prove", "--script", "/nonexistent.prf"]) == 2
    assert "error:" in capsys.readouterr().err
    m = files("m.txt", MODEL)
    t = files("t.txt", TEAM_OK)
    assert main(["check", "--model", m, "--team", t, "--formula", "(x ="]) == 2
    assert "error:" in capsys.readouterr().err


def _declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _run_console_script(*args):
    # The body of the wrapper an installer writes for a console script,
    # run as its own process against the source tree.
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys; from teamlogic.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_script_is_installed():
    declared = _declared_scripts().get("teamlogic")
    assert declared is not None
    ep = EntryPoint(name="teamlogic", value=declared, group="console_scripts")
    assert ep.load() is main

    ok = _run_console_script("negate", "--formula", "x = y")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip()
    refuted = _run_console_script("entail", "--hyp", "=(x ; y)", "--concl", "=(y ; x)")
    assert refuted.returncode == 1, refuted.stderr
    bad = _run_console_script("negate", "--formula", "=(x ; y) \\/ x = y")
    assert bad.returncode == 2, bad.stderr

    # Where the package is installed, its script must be on PATH and must
    # record the entry point that pyproject.toml declares.
    try:
        dist = distribution("teamlogic")
    except PackageNotFoundError:
        return
    assert shutil.which("teamlogic") is not None
    recorded = dist.entry_points.select(group="console_scripts", name="teamlogic")
    assert [e.value for e in recorded] == [declared]


def test_entail_says_when_teams_were_sampled(capsys):
    # 27 assignments at domain 3 exceed --team-cap 16, so teams are sampled
    argv = ["entail", "--hyp", "ind(x;z;y)", "--concl", "ind(y;z;x)",
            "--max-domain", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "valid up to domain size 3" in out
    assert "sampled, not searched exhaustively" in out
    assert "teams at domain size 3 were sampled" in out
    assert main(["--machine"] + argv) == 0
    records = capsys.readouterr().out.splitlines()
    assert "search=sampled" in records
    assert [r for r in records if r.startswith("search_d")] == [
        "search_d1=exhaustive", "search_d2=exhaustive", "search_d3=sampled"]
    assert main(["--machine", "entail", "--hyp", "ind(x;z;y)",
                 "--concl", "ind(y;z;x)"]) == 0
    assert "search=exhaustive" in capsys.readouterr().out.splitlines()


def test_entail_refuses_a_negative_sample_count(capsys):
    argv = ["entail", "--hyp", "=(x;y)", "--concl", "=(y;x)", "--max-domain", "3",
            "--team-cap", "0", "--samples", "-5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "samples" in captured.err


def test_machine_flag_before_or_after_the_subcommand(capsys):
    argv = ["entail", "--hyp", "=(x ; y)", "--concl", "=(y ; x)"]
    assert main(["--machine"] + argv) == 1
    before = capsys.readouterr().out
    assert main(argv + ["--machine"]) == 1
    assert capsys.readouterr().out == before
    assert before.startswith("result=counterexample\n")
    assert main(["negate", "--machine", "--formula", "x = y"]) == 0
    assert capsys.readouterr().out.startswith("negation=")


def test_main_calls_share_no_state(capsys):
    assert main(["--machine", "negate", "--formula", "x = y"]) == 0
    assert capsys.readouterr().out.startswith("negation=")
    assert main(["negate", "--formula", "x = y"]) == 0
    assert not capsys.readouterr().out.startswith("negation=")
    # x = y entails =(x ; y); a --hyp kept from the call before would hide
    # the counterexample of the second call
    assert main(["entail", "--hyp", "x = y", "--concl", "=(x ; y)"]) == 0
    capsys.readouterr()
    assert main(["entail", "--concl", "=(x ; y)"]) == 1


# The negate and translate output for one atom of each kind: (negation,
# second-order sentence, in-language definition).  It pins the argument order
# of genatom.atom_def_of, and the formulas built from it, byte for byte.
ATOM_GOLDEN = {
    '=(x ; y)': (
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. ((inc(w$1$1$1,w$1$1$2,w$1$1$3 ; y,y,x) /\\ inc(w$1$2$1,w$'
        '1$2$2,w$1$2$3 ; y,y,x)) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. ('
        '((inc(y,y,x ; w$2$1$1,w$2$1$2,w$2$1$3) /\\ top) /\\ ind(w$1$1$1,w$'
        '1$1$2,w$1$1$3,w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w$2$1$1,w$2$1$2,w$2$1'
        '$3)) /\\ ((w$1$1$3 = w$1$2$3) /\\ (((w$2$1$3 != w$1$1$3) \\/ (w$2$1'
        '$1 != w$1$1$1)) \\/ (w$2$1$2 != w$1$2$2))))))))))))))',
        '(A w$1$1$1. (A w$1$1$2. (A w$1$1$3. (A w$1$2$1. (A w$1$2$2. (A w'
        '$1$2$3. ((((w$1$1$2 = w$1$1$1) /\\ R(w$1$1$3,w$1$1$1)) /\\ ((w$1$2'
        '$2 = w$1$2$1) /\\ R(w$1$2$3,w$1$2$1))) -> (E w$2$1$1. (E w$2$1$2.'
        ' (E w$2$1$3. (((w$2$1$2 = w$2$1$1) /\\ R(w$2$1$3,w$2$1$1)) /\\ ((w'
        '$1$1$3 = w$1$2$3) -> (((w$2$1$3 = w$1$1$3) /\\ (w$2$1$1 = w$1$1$1'
        ')) /\\ (w$2$1$2 = w$1$2$2))))))))))))))',
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. (((((inc(y,y,x ; w$1$1$1,w$1$1$2,w$1$1$3) /\\ inc(y,y,x ;'
        ' w$1$2$1,w$1$2$2,w$1$2$3)) /\\ ind(w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w'
        '$1$1$1,w$1$1$2,w$1$1$3)) /\\ ind(w$1$1$1,w$1$1$2,w$1$1$3 ;  ; w$1'
        '$2$1,w$1$2$2,w$1$2$3)) /\\ top) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2'
        '$1$3. (inc(w$2$1$1,w$2$1$2,w$2$1$3 ; y,y,x) /\\ ((w$1$1$3 = w$1$2'
        '$3) -> (((w$2$1$3 = w$1$1$3) /\\ (w$2$1$1 = w$1$1$1)) /\\ (w$2$1$2'
        ' = w$1$2$2))))))))))))))',
    ),
    '=(x,y ; z)': (
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$1$4. (E w$1$2$1. (E w'
        '$1$2$2. (E w$1$2$3. (E w$1$2$4. ((inc(w$1$1$1,w$1$1$2,w$1$1$3,w$'
        '1$1$4 ; z,z,x,y) /\\ inc(w$1$2$1,w$1$2$2,w$1$2$3,w$1$2$4 ; z,z,x,'
        'y)) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. (E w$2$1$4. (((inc(z,'
        'z,x,y ; w$2$1$1,w$2$1$2,w$2$1$3,w$2$1$4) /\\ top) /\\ ind(w$1$1$1,'
        'w$1$1$2,w$1$1$3,w$1$1$4,w$1$2$1,w$1$2$2,w$1$2$3,w$1$2$4 ;  ; w$2'
        '$1$1,w$2$1$2,w$2$1$3,w$2$1$4)) /\\ (((w$1$1$3 = w$1$2$3) /\\ (w$1$'
        '1$4 = w$1$2$4)) /\\ ((((w$2$1$3 != w$1$1$3) \\/ (w$2$1$4 != w$1$1$'
        '4)) \\/ (w$2$1$1 != w$1$1$1)) \\/ (w$2$1$2 != w$1$2$2)))))))))))))'
        '))))',
        '(A w$1$1$1. (A w$1$1$2. (A w$1$1$3. (A w$1$1$4. (A w$1$2$1. (A w'
        '$1$2$2. (A w$1$2$3. (A w$1$2$4. ((((w$1$1$2 = w$1$1$1) /\\ R(w$1$'
        '1$3,w$1$1$4,w$1$1$1)) /\\ ((w$1$2$2 = w$1$2$1) /\\ R(w$1$2$3,w$1$2'
        '$4,w$1$2$1))) -> (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. (E w$2$1$4.'
        ' (((w$2$1$2 = w$2$1$1) /\\ R(w$2$1$3,w$2$1$4,w$2$1$1)) /\\ (((w$1$'
        '1$3 = w$1$2$3) /\\ (w$1$1$4 = w$1$2$4)) -> ((((w$2$1$3 = w$1$1$3)'
        ' /\\ (w$2$1$4 = w$1$1$4)) /\\ (w$2$1$1 = w$1$1$1)) /\\ (w$2$1$2 = w'
        '$1$2$2)))))))))))))))))',
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$1$4. (E w$1$2$1. (E w'
        '$1$2$2. (E w$1$2$3. (E w$1$2$4. (((((inc(z,z,x,y ; w$1$1$1,w$1$1'
        '$2,w$1$1$3,w$1$1$4) /\\ inc(z,z,x,y ; w$1$2$1,w$1$2$2,w$1$2$3,w$1'
        '$2$4)) /\\ ind(w$1$2$1,w$1$2$2,w$1$2$3,w$1$2$4 ;  ; w$1$1$1,w$1$1'
        '$2,w$1$1$3,w$1$1$4)) /\\ ind(w$1$1$1,w$1$1$2,w$1$1$3,w$1$1$4 ;  ;'
        ' w$1$2$1,w$1$2$2,w$1$2$3,w$1$2$4)) /\\ top) /\\ (E w$2$1$1. (E w$2'
        '$1$2. (E w$2$1$3. (E w$2$1$4. (inc(w$2$1$1,w$2$1$2,w$2$1$3,w$2$1'
        '$4 ; z,z,x,y) /\\ (((w$1$1$3 = w$1$2$3) /\\ (w$1$1$4 = w$1$2$4)) -'
        '> ((((w$2$1$3 = w$1$1$3) /\\ (w$2$1$4 = w$1$1$4)) /\\ (w$2$1$1 = w'
        '$1$1$1)) /\\ (w$2$1$2 = w$1$2$2)))))))))))))))))',
    ),
    'ind(x ; z ; y)': (
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. ((inc(w$1$1$1,w$1$1$2,w$1$1$3 ; x,y,z) /\\ inc(w$1$2$1,w$'
        '1$2$2,w$1$2$3 ; x,y,z)) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. ('
        '((inc(x,y,z ; w$2$1$1,w$2$1$2,w$2$1$3) /\\ top) /\\ ind(w$1$1$1,w$'
        '1$1$2,w$1$1$3,w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w$2$1$1,w$2$1$2,w$2$1'
        '$3)) /\\ ((w$1$1$3 = w$1$2$3) /\\ (((w$2$1$3 != w$1$1$3) \\/ (w$2$1'
        '$1 != w$1$1$1)) \\/ (w$2$1$2 != w$1$2$2))))))))))))))',
        '(A w$1$1$1. (A w$1$1$2. (A w$1$1$3. (A w$1$2$1. (A w$1$2$2. (A w'
        '$1$2$3. ((R(w$1$1$1,w$1$1$2,w$1$1$3) /\\ R(w$1$2$1,w$1$2$2,w$1$2$'
        '3)) -> (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. (R(w$2$1$1,w$2$1$2,w$'
        '2$1$3) /\\ ((w$1$1$3 = w$1$2$3) -> (((w$2$1$3 = w$1$1$3) /\\ (w$2$'
        '1$1 = w$1$1$1)) /\\ (w$2$1$2 = w$1$2$2))))))))))))))',
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. (((((inc(x,y,z ; w$1$1$1,w$1$1$2,w$1$1$3) /\\ inc(x,y,z ;'
        ' w$1$2$1,w$1$2$2,w$1$2$3)) /\\ ind(w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w'
        '$1$1$1,w$1$1$2,w$1$1$3)) /\\ ind(w$1$1$1,w$1$1$2,w$1$1$3 ;  ; w$1'
        '$2$1,w$1$2$2,w$1$2$3)) /\\ top) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2'
        '$1$3. (inc(w$2$1$1,w$2$1$2,w$2$1$3 ; x,y,z) /\\ ((w$1$1$3 = w$1$2'
        '$3) -> (((w$2$1$3 = w$1$1$3) /\\ (w$2$1$1 = w$1$1$1)) /\\ (w$2$1$2'
        ' = w$1$2$2))))))))))))))',
    ),
    'ind(x,y ;; z)': (
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. ((inc(w$1$1$1,w$1$1$2,w$1$1$3 ; x,y,z) /\\ inc(w$1$2$1,w$'
        '1$2$2,w$1$2$3 ; x,y,z)) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. ('
        '((inc(x,y,z ; w$2$1$1,w$2$1$2,w$2$1$3) /\\ top) /\\ ind(w$1$1$1,w$'
        '1$1$2,w$1$1$3,w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w$2$1$1,w$2$1$2,w$2$1'
        '$3)) /\\ (((w$2$1$1 != w$1$1$1) \\/ (w$2$1$2 != w$1$1$2)) \\/ (w$2$'
        '1$3 != w$1$2$3)))))))))))))',
        '(A w$1$1$1. (A w$1$1$2. (A w$1$1$3. (A w$1$2$1. (A w$1$2$2. (A w'
        '$1$2$3. ((R(w$1$1$1,w$1$1$2,w$1$1$3) /\\ R(w$1$2$1,w$1$2$2,w$1$2$'
        '3)) -> (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. (R(w$2$1$1,w$2$1$2,w$'
        '2$1$3) /\\ (((w$2$1$1 = w$1$1$1) /\\ (w$2$1$2 = w$1$1$2)) /\\ (w$2$'
        '1$3 = w$1$2$3)))))))))))))',
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$2$1. (E w$1$2$2. (E w'
        '$1$2$3. (((((inc(x,y,z ; w$1$1$1,w$1$1$2,w$1$1$3) /\\ inc(x,y,z ;'
        ' w$1$2$1,w$1$2$2,w$1$2$3)) /\\ ind(w$1$2$1,w$1$2$2,w$1$2$3 ;  ; w'
        '$1$1$1,w$1$1$2,w$1$1$3)) /\\ ind(w$1$1$1,w$1$1$2,w$1$1$3 ;  ; w$1'
        '$2$1,w$1$2$2,w$1$2$3)) /\\ top) /\\ (E w$2$1$1. (E w$2$1$2. (E w$2'
        '$1$3. (inc(w$2$1$1,w$2$1$2,w$2$1$3 ; x,y,z) /\\ (((w$2$1$1 = w$1$'
        '1$1) /\\ (w$2$1$2 = w$1$1$2)) /\\ (w$2$1$3 = w$1$2$3)))))))))))))',
    ),
    'inc(x,y ; z,w)': (
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$1$4. (inc(w$1$1$1,w$1'
        '$1$2,w$1$1$3,w$1$1$4 ; x,y,z,w) /\\ (E w$2$1$1. (E w$2$1$2. (E w$'
        '2$1$3. (E w$2$1$4. (((inc(x,y,z,w ; w$2$1$1,w$2$1$2,w$2$1$3,w$2$'
        '1$4) /\\ top) /\\ ind(w$1$1$1,w$1$1$2,w$1$1$3,w$1$1$4 ;  ; w$2$1$1'
        ',w$2$1$2,w$2$1$3,w$2$1$4)) /\\ ((w$1$1$1 != w$2$1$3) \\/ (w$1$1$2 '
        '!= w$2$1$4))))))))))))',
        '(A w$1$1$1. (A w$1$1$2. (A w$1$1$3. (A w$1$1$4. (R(w$1$1$4,w$1$1'
        '$1,w$1$1$2,w$1$1$3) -> (E w$2$1$1. (E w$2$1$2. (E w$2$1$3. (E w$'
        '2$1$4. (R(w$2$1$4,w$2$1$1,w$2$1$2,w$2$1$3) /\\ ((w$1$1$1 = w$2$1$'
        '3) /\\ (w$1$1$2 = w$2$1$4))))))))))))',
        '(E w$1$1$1. (E w$1$1$2. (E w$1$1$3. (E w$1$1$4. (((inc(x,y,z,w ;'
        ' w$1$1$1,w$1$1$2,w$1$1$3,w$1$1$4) /\\ top) /\\ top) /\\ (E w$2$1$1.'
        ' (E w$2$1$2. (E w$2$1$3. (E w$2$1$4. (inc(w$2$1$1,w$2$1$2,w$2$1$'
        '3,w$2$1$4 ; x,y,z,w) /\\ ((w$1$1$1 = w$2$1$3) /\\ (w$1$1$2 = w$2$1'
        '$4))))))))))))',
    ),
}


@pytest.mark.parametrize("formula", sorted(ATOM_GOLDEN))
def test_atom_negate_and_translate_output_is_unchanged(formula, capsys):
    negation, second_order, in_language = ATOM_GOLDEN[formula]
    expected = [
        (["negate"], negation + "\n"),
        (["--machine", "negate"], "negation=%s\n" % negation),
        (["translate"], "%s\n%s\n" % (second_order, in_language)),
        (["--machine", "translate"],
         "second_order=%s\nin_language=%s\n" % (second_order, in_language)),
    ]
    for argv, out in expected:
        assert main(argv + ["--formula", formula]) == 0
        assert capsys.readouterr().out == out


def test_atom_commands_print_the_same_bytes_when_repeated(capsys):
    # the atom definitions are shared between calls; a call may not leave
    # anything in them that changes the next call's output
    def one_round():
        outs = []
        for formula in sorted(ATOM_GOLDEN):
            for command in ("negate", "translate"):
                assert main([command, "--formula", formula]) == 0
                outs.append(capsys.readouterr().out)
        return outs

    assert one_round() == one_round()
