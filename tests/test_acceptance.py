"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with -s or in captured output) before asserting.
"""

import glob
import itertools
import os
import random

from teamlogic.checks import (default_model, gen_downward, gen_fo,
                              gen_so_friendly, run_suite)
from teamlogic.entailment import entails_bounded
from teamlogic.eso import EsoCapExceeded, check_correspondence
from teamlogic.formula import (And, BoolOr, Dep, Eq, Exists, Exists1, Inc,
                               Ind, NegEq, SplitOr, Var, WNeg, free_vars)
from teamlogic.genatom import (complement, eval_direct, make_dep, make_inc,
                               make_ind, sigma_pi_translate)
from teamlogic.model import Model
from teamlogic.negation import wneg
from teamlogic.parser import parse_formula
from teamlogic.proofkernel import check_proof, parse_proof
from teamlogic.semantics import Evaluator, eval_formula
from teamlogic.team import Team, all_teams, sample_small_teams

import oracle_atoms

PROOF_DIR = os.path.join(os.path.dirname(__file__), "..", "proofs")

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
M = default_model()


def report(num, label, failures):
    print("criterion %d (%s): %s" % (num, label,
                                     "pass" if not failures else "FAIL"))
    assert not failures, failures[:5]


def test_criterion_01_atomic_clause_conformance():
    """Exhaustive 65 536-team comparison of the three atomic clauses against
    the independent oracle (16 assignments over a two-element domain).  Each
    oracle reads only its atom's columns, so its verdict depends only on the
    set of the team's rows projected onto them: it is asked once per such
    set, and every team is still put to the evaluator."""
    vs = ("x", "y", "z", "w")
    space = sorted(itertools.product(M.domain, repeat=4))
    assert len(space) == 16

    def memoized(holds, *args):
        columns = sorted({vs.index(v) for part in args for v in part})
        verdicts = {}

        def oracle(rows):
            key = frozenset(tuple(r[i] for i in columns) for r in rows)
            if key not in verdicts:
                verdicts[key] = holds(vs, rows, *args)
            return verdicts[key]
        return oracle
    cases = [
        (Dep((x,), (y,)), memoized(oracle_atoms.holds_dep, ("x",), ("y",))),
        (Dep((x, y), (z,)), memoized(oracle_atoms.holds_dep, ("x", "y"), ("z",))),
        (Inc((x,), (y,)), memoized(oracle_atoms.holds_inc, ("x",), ("y",))),
        (Inc((x, y), (z, w)), memoized(oracle_atoms.holds_inc, ("x", "y"), ("z", "w"))),
        (Ind((x,), (), (y,)), memoized(oracle_atoms.holds_ind, ("x",), (), ("y",))),
        (Ind((x,), (z,), (y,)), memoized(oracle_atoms.holds_ind, ("x",), ("z",), ("y",))),
    ]
    ev = Evaluator(M)
    failures = []
    checked = 0
    for mask in range(1 << 16):
        rows = [space[i] for i in range(16) if mask >> i & 1]
        X = Team(vs, rows)
        for phi, oracle in cases:
            checked += 1
            if ev.eval(X, phi) != oracle(rows):
                failures.append((phi, rows))
    assert checked == 6 * 65536
    report(1, "atomic clause conformance", failures)


def test_criterion_02_closure_property_suites():
    failures = []
    for name in ("flatness", "union", "lem", "downward", "locality",
                 "empty-team"):
        res = run_suite(name, seed=2024, runs=100)
        failures.extend(res.failures)
    report(2, "closure and locality suites", failures)


def test_criterion_03_synthesized_negation_matches_primitive():
    rng = random.Random(33)
    failures = []
    teams = list(all_teams(M, ("x", "y")))
    for i in range(50):
        phi = gen_fo(rng, ("x", "y"), depth=3)
        psi = wneg(phi)
        for X in teams:
            if eval_formula(M, X, psi) != eval_formula(M, X, WNeg(phi)):
                failures.append((i, phi, X))
    report(3, "weak negation synthesis", failures)


def _atom_grid():
    """The builtin atoms with their native formulas and team grids used by
    criteria 4 and 5: every team of at most 3 rows, plus 50 sampled teams of
    at most 4 rows."""
    cases = [
        (make_dep(1), Dep((x,), (y,)), ("x", "y")),
        (make_inc(1), Inc((x,), (y,)), ("x", "y")),
        (make_ind(1, 1, 0), Ind((x,), (), (y,)), ("x", "y")),
        (make_ind(1, 1, 1), Ind((x,), (z,), (y,)), ("x", "y", "z")),
    ]
    for d, native, vs in cases:
        space = sorted(itertools.product(M.domain, repeat=len(vs)))
        teams = [Team(vs, rows)
                 for n in range(4)
                 for rows in itertools.combinations(space, n)]
        teams += list(sample_small_teams(M, vs, 50, max_rows=4, seed=44))
        yield d, native, vs, teams


def test_criterion_04_translation_three_way_agreement():
    failures = []
    for d, native, vs, teams in _atom_grid():
        args = tuple(Var(v) for v in vs)
        translated = sigma_pi_translate(d, args)
        for X in teams:
            a = eval_formula(M, X, native)
            b = eval_formula(M, X, translated)
            c = eval_direct(M, X, d, args)
            if not (a == b == c):
                failures.append((d.name, X, a, b, c))
    report(4, "atom translation agreement", failures)


def test_criterion_05_complement_atom_is_the_negation():
    failures = []
    for d, native, vs, teams in _atom_grid():
        args = tuple(Var(v) for v in vs)
        co = complement(d)
        for X in teams:
            lhs = eval_formula(M, X, WNeg(native))
            rhs = eval_direct(M, X, co, args)
            if lhs != rhs:
                failures.append((d.name, X, lhs, rhs))
    report(5, "complement atoms", failures)


def test_criterion_06_team_construction_postconditions():
    res = run_suite("team-constructions", seed=66, runs=100)
    report(6, "team construction postconditions", res.failures)


def test_criterion_07_second_order_correspondence():
    failures = []
    for native, vs in [(Dep((x,), (y,)), ("x", "y")),
                       (Inc((x,), (y,)), ("x", "y")),
                       (Ind((x,), (), (y,)), ("x", "y")),
                       (Ind((x,), (z,), (y,)), ("x", "y", "z"))]:
        space = sorted(itertools.product(M.domain, repeat=len(vs)))
        for n in range(5):
            for rows in itertools.combinations(space, n):
                if not check_correspondence(M, Team(vs, rows), native):
                    failures.append((native, rows))
    rng = random.Random(77)
    done = 0
    while done < 100:
        phi = gen_so_friendly(rng, depth=3)
        vs = tuple(sorted({v.name for v in free_vars(phi)} | {"x"}))
        X = next(iter(sample_small_teams(M, vs, 1, max_rows=4,
                                         seed=rng.randrange(1 << 30))))
        try:
            ok = check_correspondence(M, X, phi)
        except EsoCapExceeded:
            continue  # too many splits for brute force; draw another formula
        done += 1
        if not ok:
            failures.append((phi, X))
    report(7, "second-order correspondence", failures)


FUNCTIONAL_RULES = [
    ([], "=(x ; x)"),
    (["=(x,y ; z)"], "=(y,x ; z)"),
    (["=(x,x ; y)"], "=(x ; y)"),
    (["=(y ; z)"], "=(x,y ; z)"),
    (["=(x ; y)", "=(y ; z)"], "=(x ; z)"),
]

INDEPENDENCE_RULES = [
    (["ind(x ;; y)"], "ind(y ;; x)"),
    (["ind(x1,x2 ;; y)"], "ind(x1 ;; y)"),
    (["ind(x1,x2 ;; y)"], "ind(x2,x1 ;; y)"),
    (["ind(x ;; y)", "ind(x,y ;; z)"], "ind(x ;; y,z)"),
]


def test_criterion_08_axiom_validity():
    failures = []
    for hyps, concl in FUNCTIONAL_RULES + INDEPENDENCE_RULES:
        hs = [parse_formula(h) for h in hyps]
        c = parse_formula(concl)
        for max_domain, samples in ((2, 0), (3, 10000)):
            v = entails_bounded(hs, c, max_domain=max_domain, samples=samples,
                                seed=88)
            if not v:
                failures.append((hyps, concl, max_domain, v))
    v = entails_bounded([parse_formula("=(x ; y)")], parse_formula("=(y ; x)"))
    if v.status != "Counterexample":
        failures.append(("dep symmetry should fail", v))
    report(8, "axiom validity up to bound", failures)


def _corrupt_citation(text):
    """Flip one rule citation in the last cited step of a proof script."""
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        line = lines[i]
        if not line.strip() or line.lstrip().startswith(("#", "assume", "qed")):
            continue
        body, sep, just = line.rpartition(";")
        parts = just.split()
        if sep and len(parts) >= 2 and parts[1].isdigit():
            c = int(parts[1])
            parts[1] = str(c - 1 if c > 1 else c + 1)
            lines[i] = body + "; " + " ".join(parts)
            return "\n".join(lines) + "\n"
    raise AssertionError("no cited step found to corrupt")


def test_criterion_09_proof_corpus():
    failures = []
    paths = sorted(glob.glob(os.path.join(PROOF_DIR, "*.prf")))
    assert len(paths) == 7
    for p in paths:
        name = os.path.basename(p)
        with open(p) as fh:
            text = fh.read()
        script = parse_proof(text)
        verdict = check_proof(script)
        if not verdict:
            failures.append((name, "rejected", verdict))
            continue
        hyps = list(script.premises)
        sem = entails_bounded(hyps, script.conclusion, max_domain=2,
                              samples=400, max_rows=3, seed=99)
        if not sem:
            failures.append((name, "end-sequent refuted", sem))
        mutated = check_proof(parse_proof(_corrupt_citation(text)))
        if mutated:
            failures.append((name, "corrupted citation accepted"))
    report(9, "proof corpus and mutations", failures)


def test_criterion_10_quantifier_and_disjunction_definability():
    rng = random.Random(100)
    failures = []
    teams = list(all_teams(M, ("x", "y")))
    # single-value quantifier: E1 v phi == E v (=(v) /\ phi)
    for i in range(10):
        phi = gen_downward(rng, ("x", "y"), depth=2)
        for X in teams:
            lhs = eval_formula(M, X, Exists1(x, phi))
            rhs = eval_formula(M, X, Exists(x, And(Dep((), (x,)), phi)))
            if lhs != rhs:
                failures.append(("single-value", i, phi, X))
    # Boolean disjunction via two constancy flags
    from teamlogic.formula import fresh_var
    wv, uv = fresh_var("w"), fresh_var("u")
    for i in range(10):
        phi = gen_downward(rng, ("x", "y"), depth=2)
        psi = gen_downward(rng, ("x", "y"), depth=2)
        defined = Exists(wv, Exists(uv, And(
            And(Dep((), (wv,)), Dep((), (uv,))),
            And(SplitOr(Eq(wv, uv), phi), SplitOr(NegEq(wv, uv), psi)))))
        for X in teams:
            if eval_formula(M, X, BoolOr(phi, psi)) != eval_formula(M, X, defined):
                failures.append(("boolean-or", i, phi, psi, X))
    report(10, "definability of the sugar", failures)
