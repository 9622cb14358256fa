import itertools

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.checks import default_model
from teamlogic.formula import And, Dep, Eq, Inc, Ind, Var, free_vars
from teamlogic.genatom import (AtomDefError, GeneralizedAtomDef, atom_def_of,
                               build_inc, build_pro, complement, duplicating_team,
                               eval_direct, make_dep, make_inc, make_ind,
                               register_builtin_atoms, sigma_pi_translate,
                               simulating_team, wvar)
from teamlogic.semantics import eval_formula
from teamlogic.team import Team, all_teams

x, y = Var("x"), Var("y")
M = default_model()


def test_builtin_registry_names():
    atoms = register_builtin_atoms()
    assert set(atoms) == {"dep1", "dep2", "inc1", "inc2", "ind1_1_1", "ind1_1_0"}
    assert atoms["dep1"].m == 2
    assert atoms["ind1_1_1"].m == 3


def test_definitions_are_shared_and_registries_are_not():
    assert make_ind(1, 1, 0) is make_ind(1, 1, 0)
    assert make_dep(2) is make_dep(2) and make_inc(1) is make_inc(1)
    first, second = register_builtin_atoms(), register_builtin_atoms()
    assert first is not second
    assert first.keys() == second.keys()
    assert all(first[name] is second[name] for name in first)
    first["mine"] = make_dep(3)
    assert "mine" not in second
    assert "mine" not in register_builtin_atoms()


def test_eval_direct_dep():
    d = make_dep(1)
    X = Team(("x", "y"), [("0", "0"), ("0", "1")])
    assert not eval_direct(M, X, d, (x, y))
    Y = Team(("x", "y"), [("0", "0"), ("1", "1")])
    assert eval_direct(M, Y, d, (x, y))
    assert eval_direct(M, Team(("x", "y"), []), d, (x, y))


def test_eval_direct_inc_and_ind():
    inc1 = make_inc(1)
    X = Team(("x", "y"), [("0", "1"), ("1", "1")])
    assert not eval_direct(M, X, inc1, (x, y))
    assert eval_direct(M, X, inc1, (y, x))
    ind = make_ind(1, 1, 0)
    full = Team(("x", "y"), [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
    assert eval_direct(M, full, ind, (x, y))
    diag = Team(("x", "y"), [("0", "0"), ("1", "1")])
    assert not eval_direct(M, diag, ind, (x, y))


def test_eval_direct_arity_check():
    with pytest.raises(AtomDefError):
        eval_direct(M, Team(("x",), [("0",)]), make_dep(1), (x,))


def test_complement_flips_verdict_on_nonempty_teams():
    d = make_dep(1)
    co = complement(d)
    assert co.name == "co_dep1"
    assert co.polarity != d.polarity
    for X in all_teams(M, ("x", "y")):
        if X.is_empty():
            assert eval_direct(M, X, co, (x, y))
        else:
            assert eval_direct(M, X, co, (x, y)) != eval_direct(M, X, d, (x, y))


def test_def_validation():
    with pytest.raises(AtomDefError):
        GeneralizedAtomDef("bad", "neither", 1, (1,), 1, Eq(wvar(1, 1, 1), wvar(1, 1, 1)))
    with pytest.raises(AtomDefError):
        GeneralizedAtomDef("bad", "pi", 1, (0,), 1, Eq(wvar(1, 1, 1), wvar(1, 1, 1)))
    with pytest.raises(AtomDefError):
        # formula mentions a variable outside the grid
        GeneralizedAtomDef("bad", "pi", 1, (1,), 1, Eq(wvar(1, 1, 1), x))


def test_translate_matches_direct_on_all_small_teams():
    for d, vs in [(make_dep(1), ("x", "y")), (make_inc(1), ("x", "y")),
                  (make_ind(1, 1, 0), ("x", "y"))]:
        args = tuple(Var(v) for v in vs)
        phi = sigma_pi_translate(d, args)
        for X in all_teams(M, vs):
            assert eval_formula(M, X, phi) == eval_direct(M, X, d, args), (d.name, X)


def test_translate_rejects_grid_arguments():
    with pytest.raises(AtomDefError):
        sigma_pi_translate(make_dep(1), (x, wvar(1, 1, 1)))


def test_build_inc_and_pro_shapes():
    d = make_dep(1)
    g = build_inc(d, 1, (x, y))
    assert isinstance(g, And)
    assert free_vars(g) == {x, y} | set(d.group_vars(1))
    p = build_pro(d, 1, (x, y))
    assert free_vars(p) == {x, y} | set(d.group_vars(1))
    with pytest.raises(AtomDefError):
        build_inc(d, 1, (x,))


def test_simulating_team_satisfies_inclusion_guards():
    d = make_dep(1)
    X = Team(("x", "y"), [("0", "0"), ("1", "1")])
    groups = [d.row_vars(1, 1), d.row_vars(1, 2)]
    rows = sorted(X.rows)
    choices = [{r: rows[0] for r in rows}, {r: rows[1] for r in rows}]
    Y = simulating_team(M, X, choices, (x, y), groups)
    assert Y.vars[:2] == ("x", "y")
    assert eval_formula(M, Y, build_inc(d, 1, (x, y)))


def test_simulating_team_error_cases():
    X = Team(("x", "y"), [("0", "0")])
    g = [make_dep(1).row_vars(1, 1)]
    with pytest.raises(AtomDefError):
        simulating_team(M, Team(("x", "y"), []), [{}], (x, y), g)
    with pytest.raises(AtomDefError):
        simulating_team(M, X, [], (x, y), g)
    with pytest.raises(AtomDefError):
        simulating_team(M, X, [{}], (x, y), g)  # undefined on the row
    with pytest.raises(AtomDefError):
        simulating_team(M, X, [{("0", "0"): ("1", "1")}], (x, y), g)  # not a team row


def test_duplicating_team_satisfies_production_guards():
    d = make_dep(1)
    X = Team(("x", "y"), [("0", "0"), ("1", "1")])
    groups = [d.row_vars(1, 1), d.row_vars(1, 2)]
    Y = duplicating_team(M, X, (x, y), groups)
    assert len(Y.rows) == 8
    assert eval_formula(M, Y, build_pro(d, 1, (x, y)))
    with pytest.raises(AtomDefError):
        duplicating_team(M, Team(("x", "y"), []), (x, y), groups)
    with pytest.raises(AtomDefError):
        duplicating_team(M, X, (x,), groups)


_XYZ = (Var("x"), Var("y"), Var("z"))
_ROWS = sorted(itertools.product(M.domain, repeat=3))


@st.composite
def _native_atom(draw):
    """A dep, ind or inc atom over x, y and z, variables repeated freely,
    whose generalized atom has at most 3 arguments (inc: 4).  The search
    under the translated formula grows fast with the arity: an independence
    atom of arity 4 takes about ten times as long per team as one of 3."""
    def seq(lo, hi):
        return st.lists(st.sampled_from(_XYZ), min_size=lo, max_size=hi).map(tuple)
    kind = draw(st.sampled_from(["dep", "ind", "inc"]))
    if kind == "dep":
        return Dep(draw(seq(0, 1)), draw(seq(1, 1)))
    if kind == "inc":
        xs = draw(seq(1, 2))
        return Inc(xs, draw(seq(len(xs), len(xs))))
    xs = draw(seq(0, 3))
    zs = draw(seq(0, 3 - len(xs)))
    return Ind(xs, zs, draw(seq(0 if xs or zs else 1, 3 - len(xs) - len(zs))))


@settings(max_examples=150, deadline=None)
@given(_native_atom(), st.lists(st.sampled_from(_ROWS), max_size=4, unique=True))
def test_native_atom_agrees_with_eval_direct_and_the_translation(native, rows):
    X = Team(("x", "y", "z"), rows)
    d, args = atom_def_of(native)
    expected = eval_formula(M, X, native)
    assert eval_direct(M, X, d, args) == expected
    assert eval_formula(M, X, sigma_pi_translate(d, args)) == expected
