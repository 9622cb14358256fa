"""Named property suites: randomized checks of the semantic laws the
evaluator is supposed to satisfy, runnable from the command line and reused
by the test suite.

Every suite draws seeded random formulas and teams over a fixed two-element
model, evaluates both sides of the law, and reports failures as printable
strings.  A formula generator per fragment keeps each suite inside the
fragment its law actually holds for.
"""

import random

from .formula import (SHAPES, And, BoolOr, Dep, Eq, Exists, Exists1, FOAtom,
                      Forall, Forall1, Inc, Ind, NegEq, NegFOAtom, SplitOr,
                      Var, WNeg, fo_negate, fresh_var, sorted_free_vars)
from .genatom import (build_inc, build_pro, complement, duplicating_team,
                      eval_direct, make_dep, make_inc, make_ind,
                      sigma_pi_translate, simulating_team)
from .model import Model
from .negation import wneg
from .semantics import BudgetExceeded, eval_formula, eval_single
from .team import Team, all_teams, restrict

VARIABLES = ("x", "y", "z")


def default_model():
    return Model(("0", "1"),
                 {"P": [("1",)], "Q": [("0", "1"), ("1", "1")]})


class SuiteResult:
    def __init__(self, name, runs, failures):
        self.name = name
        self.runs = runs
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def summary(self):
        if self.ok:
            return "%s: PASS (%d checks)" % (self.name, self.runs)
        return "%s: FAIL (%d/%d): %s" % (self.name, len(self.failures),
                                         self.runs, self.failures[0])


# --- random generators --------------------------------------------------------


def _leaf_fo(rng, vs):
    a, b = rng.choice(vs), rng.choice(vs)
    return rng.choice([
        lambda: Eq(Var(a), Var(b)),
        lambda: NegEq(Var(a), Var(b)),
        lambda: FOAtom("P", (Var(a),)),
        lambda: NegFOAtom("P", (Var(a),)),
        lambda: FOAtom("Q", (Var(a), Var(b))),
        lambda: NegFOAtom("Q", (Var(a), Var(b))),
    ])()


def _grow(rng, vs, depth, leaf, p_leaf, connectives):
    """A random formula: a leaf at depth 0 or with probability p_leaf, else
    a connective drawn from the list (None draws a leaf), each binder a
    variable of vs and each subformula grown one level shallower."""
    if depth == 0 or rng.random() < p_leaf:
        return leaf(rng, vs)
    cls = connectives[rng.randrange(len(connectives))]
    if cls is None:
        return leaf(rng, vs)
    # spelled out per arity: a loop over the fields makes every draw slower
    below = (rng, vs, depth - 1, leaf, p_leaf, connectives)
    if SHAPES[cls].binder is not None:
        return cls(Var(rng.choice(vs)), _grow(*below))
    if len(SHAPES[cls].fields) == 1:
        return cls(_grow(*below))
    return cls(_grow(*below), _grow(*below))


def gen_fo(rng, vs=VARIABLES, depth=3):
    return _grow(rng, vs, depth, _leaf_fo, 0.3, (And, SplitOr, Exists, Forall, None))


def _leaf_dep(rng, vs):
    if rng.random() < 0.4:
        det = tuple(Var(v) for v in rng.sample(vs, rng.randrange(0, 2)))
        return Dep(det, (Var(rng.choice(vs)),))
    return _leaf_fo(rng, vs)


def gen_downward(rng, vs=VARIABLES, depth=3):
    """Formulas from the downward-closed fragment (no inclusion or
    independence atoms, no Boolean disjunction)."""
    return _grow(rng, vs, depth, _leaf_dep, 0.3, (And, SplitOr, Exists, Forall))


def _leaf_full(rng, vs):
    r = rng.random()
    if r < 0.2:
        det = tuple(Var(v) for v in rng.sample(vs, rng.randrange(0, 2)))
        return Dep(det, (Var(rng.choice(vs)),))
    if r < 0.4:
        return Inc((Var(rng.choice(vs)),), (Var(rng.choice(vs)),))
    if r < 0.6:
        zs = tuple(Var(v) for v in rng.sample(vs, rng.randrange(0, 2)))
        return Ind((Var(rng.choice(vs)),), zs, (Var(rng.choice(vs)),))
    return _leaf_fo(rng, vs)


def gen_full(rng, vs=VARIABLES, depth=3):
    return _grow(rng, vs, depth, _leaf_full, 0.3,
                 (And, SplitOr, BoolOr, Exists, Forall, Exists1, Forall1, WNeg))


def gen_so_friendly(rng, vs=("x", "y"), depth=2):
    """Random formulas kept small enough for brute-force second-order
    checking: few free variables and at most modest relation arities."""
    return _grow(rng, vs, depth, _leaf_full, 0.4,
                 (And, SplitOr, Exists, Forall, Exists1, Forall1))


def _random_team(rng, model, variables, max_rows=8):
    space = [tuple(row) for row in _assignments(model, variables)]
    n = rng.randrange(0, max_rows + 1)
    rows = rng.sample(space, min(n, len(space)))
    return Team(variables, rows)


def _assignments(model, variables):
    import itertools
    return itertools.product(model.domain, repeat=len(variables))


def _team_vars(phi):
    fv = {v.name for v in sorted_free_vars(phi)}
    return tuple(sorted(fv | {"x"}))


# --- the suites ---------------------------------------------------------------


def suite_flatness(seed=0, runs=100):
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_fo(rng)
        X = _random_team(rng, model, _team_vars(phi))
        lhs = eval_formula(model, X, phi, literal=True)
        rhs = all(eval_single(model, s, phi) for s in X.assignments())
        if lhs != rhs:
            failures.append("run %d: team %r formula %r" % (i, X, phi))
    return SuiteResult("flatness", runs, failures)


def suite_union(seed=0, runs=100):
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_fo(rng)
        vs = _team_vars(phi)
        X, Y = _random_team(rng, model, vs), _random_team(rng, model, vs)
        if (eval_formula(model, X, phi, literal=True)
                and eval_formula(model, Y, phi, literal=True)):
            union = Team(vs, list(X.rows) + list(Y.rows))
            if not eval_formula(model, union, phi, literal=True):
                failures.append("run %d: union of %r and %r on %r" % (i, X, Y, phi))
    return SuiteResult("union", runs, failures)


def suite_lem(seed=0, runs=100):
    """Every team satisfies the split disjunction of a first-order formula
    with its negation."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_fo(rng)
        X = _random_team(rng, model, _team_vars(phi))
        if not eval_formula(model, X, SplitOr(phi, fo_negate(phi)), literal=True):
            failures.append("run %d: team %r formula %r" % (i, X, phi))
    return SuiteResult("lem", runs, failures)


def suite_downward(seed=0, runs=100):
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_downward(rng)
        vs = _team_vars(phi)
        X = _random_team(rng, model, vs)
        if not eval_formula(model, X, phi):
            continue
        rows = sorted(X.rows)
        for _ in range(8):
            sub = Team(vs, [r for r in rows if rng.random() < 0.5])
            if not eval_formula(model, sub, phi):
                failures.append("run %d: subteam %r of %r on %r" % (i, sub, X, phi))
                break
    return SuiteResult("downward", runs, failures)


def suite_locality(seed=0, runs=100):
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_full(rng, depth=2)
        fv = tuple(sorted({v.name for v in sorted_free_vars(phi)}))
        wide = tuple(sorted(set(fv) | {"x", "pad"}))
        X = _random_team(rng, model, wide, max_rows=4)
        try:
            lhs = eval_formula(model, X, phi, literal=True)
            rhs = eval_formula(model, restrict(X, fv or ("x",)), phi, literal=True)
        except BudgetExceeded:
            # a pathological nesting of quantifiers; no verdict either way
            continue
        if lhs != rhs:
            failures.append("run %d: team %r formula %r" % (i, X, phi))
    return SuiteResult("locality", runs, failures)


def suite_empty_team(seed=0, runs=100):
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_full(rng, depth=2)
        X = Team(_team_vars(phi), [])
        if not eval_formula(model, X, phi, literal=True):
            failures.append("run %d: formula %r" % (i, phi))
    return SuiteResult("empty-team", runs, failures)


def suite_fo_negation(seed=0, runs=50):
    """The synthesized weak negation of a first-order formula agrees with the
    semantic weak-negation clause."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_fo(rng, depth=2)
        X = _random_team(rng, model, _team_vars(phi), max_rows=4)
        lhs = eval_formula(model, X, wneg(phi))
        rhs = eval_formula(model, X, WNeg(phi))
        if lhs != rhs:
            failures.append("run %d: team %r formula %r" % (i, X, phi))
    return SuiteResult("fo-negation", runs, failures)


# (definition, its argument variables, the native atom it defines); the
# argument order of an independence definition is x-part, y-part, z-part
_X, _Y, _Z = Var("x"), Var("y"), Var("z")
_ATOM_CASES = [
    (make_dep(1), ("x", "y"), Dep((_X,), (_Y,))),
    (make_inc(1), ("x", "y"), Inc((_X,), (_Y,))),
    (make_ind(1, 1, 0), ("x", "y"), Ind((_X,), (), (_Y,))),
    (make_ind(1, 1, 1), ("x", "y", "z"), Ind((_X,), (_Z,), (_Y,))),
]


def suite_atom_translation(seed=0, runs=30):
    """Native atom evaluation, the direct alternation clause, and the
    translated defining formula agree."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    total = 0
    for d, vs, native in _ATOM_CASES:
        translated = sigma_pi_translate(d, [Var(v) for v in vs])
        if len(vs) <= 2:
            teams = list(all_teams(model, vs))
        else:
            teams = [_random_team(rng, model, vs, max_rows=4) for _ in range(runs)]
        for X in teams:
            total += 1
            a = eval_formula(model, X, native)
            b = eval_direct(model, X, d, [Var(v) for v in vs])
            c = eval_formula(model, X, translated)
            if not (a == b == c):
                failures.append("%s on %r: native=%s direct=%s translated=%s"
                                % (d.name, X, a, b, c))
    return SuiteResult("atom-translation", total, failures)


def suite_atom_complement(seed=0, runs=30):
    """Weak negation of an atom is the complemented atom over the same grid."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    total = 0
    for d, vs, native in _ATOM_CASES:
        co = complement(d)
        if len(vs) <= 2:
            teams = list(all_teams(model, vs))
        else:
            teams = [_random_team(rng, model, vs, max_rows=4) for _ in range(runs)]
        for X in teams:
            total += 1
            lhs = eval_formula(model, X, WNeg(native), literal=True)
            rhs = eval_direct(model, X, co, [Var(v) for v in vs])
            if lhs != rhs:
                failures.append("%s on %r: wneg=%s complement=%s"
                                % (d.name, X, lhs, rhs))
    return SuiteResult("atom-complement", total, failures)


def suite_so_correspondence(seed=0, runs=40):
    """Team satisfaction agrees with truth of the second-order translation
    over the team relation."""
    from .eso import check_correspondence
    model = default_model()
    rng = random.Random(seed)
    failures = []
    total = 0
    for d, vs, native in _ATOM_CASES[:3]:
        for X in all_teams(model, vs):
            total += 1
            if not check_correspondence(model, X, native):
                failures.append("atom %s on %r" % (d.name, X))
    for i in range(runs):
        phi = gen_so_friendly(rng)
        X = _random_team(rng, model, _team_vars(phi), max_rows=4)
        total += 1
        if not check_correspondence(model, X, phi):
            failures.append("run %d: team %r formula %r" % (i, X, phi))
    return SuiteResult("so-correspondence", total, failures)


def suite_definability(seed=0, runs=50):
    """The single-value quantifier and the Boolean disjunction are definable:
    E1 x phi == E x (=(x) /\\ phi), and phi || psi via two constancy flags."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    for i in range(runs):
        phi = gen_downward(rng, depth=2)
        psi = gen_downward(rng, depth=2)
        x = Var(rng.choice(VARIABLES))
        X = _random_team(rng, model, _team_vars(And(phi, psi)), max_rows=4)
        lhs = eval_formula(model, X, Exists1(x, phi))
        rhs = eval_formula(model, X, Exists(x, And(Dep((), (x,)), phi)))
        if lhs != rhs:
            failures.append("run %d (single-value): team %r formula %r" % (i, X, phi))
            continue
        w, u = fresh_var("w"), fresh_var("u")
        defined = Exists(w, Exists(u, And(
            And(Dep((), (w,)), Dep((), (u,))),
            And(SplitOr(Eq(w, u), phi), SplitOr(NegEq(w, u), psi)))))
        lhs = eval_formula(model, X, BoolOr(phi, psi))
        rhs = eval_formula(model, X, defined)
        if lhs != rhs:
            failures.append("run %d (boolean-or): team %r formulas %r, %r"
                            % (i, X, phi, psi))
    return SuiteResult("definability", runs, failures)


def suite_team_constructions(seed=0, runs=50):
    """simulating_team satisfies the inclusion guard of its rounds;
    duplicating_team satisfies the duplication guard."""
    model = default_model()
    rng = random.Random(seed)
    failures = []
    xs = [Var("x"), Var("y")]
    d_sim = make_ind(1, 1, 0)  # round 1: two team-drawn rows
    d_dup = make_dep(1)        # round 1: two independent covering rows
    for i in range(runs):
        X = _random_team(rng, model, ("x", "y"), max_rows=4)
        if X.is_empty():
            continue
        rows = sorted(X.rows)
        groups = [d_sim.row_vars(1, 1), d_sim.row_vars(1, 2)]
        choices = [{r: rng.choice(rows) for r in rows} for _ in groups]
        Y = simulating_team(model, X, choices, xs, groups)
        if not eval_formula(model, Y, build_inc(d_sim, 1, xs)):
            failures.append("run %d: simulating team %r misses its guard" % (i, Y))
            continue
        groups = [d_dup.row_vars(1, 1), d_dup.row_vars(1, 2)]
        Z = duplicating_team(model, X, xs, groups)
        if not eval_formula(model, Z, build_pro(d_dup, 1, xs)):
            failures.append("run %d: duplicating team %r misses its guard" % (i, Z))
    return SuiteResult("team-constructions", runs, failures)


SUITES = {
    "flatness": suite_flatness,
    "union": suite_union,
    "lem": suite_lem,
    "downward": suite_downward,
    "locality": suite_locality,
    "empty-team": suite_empty_team,
    "fo-negation": suite_fo_negation,
    "atom-translation": suite_atom_translation,
    "atom-complement": suite_atom_complement,
    "so-correspondence": suite_so_correspondence,
    "definability": suite_definability,
    "team-constructions": suite_team_constructions,
}


def run_suite(name, seed=0, runs=None):
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    if runs is not None and runs < 0:
        raise ValueError("runs must be 0 or positive, got %d" % runs)
    fn = SUITES[name]
    if runs is None:
        return fn(seed=seed)
    return fn(seed=seed, runs=runs)


def run_all(seed=0, runs=None):
    return [run_suite(name, seed=seed, runs=runs) for name in SUITES]
