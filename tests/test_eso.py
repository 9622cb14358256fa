import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.checks import default_model, gen_so_friendly
from teamlogic.eso import (ESOFormula, EsoCapExceeded, EsoError,
                           check_correspondence, eval_eso, print_eso, tau)
from teamlogic.formula import (And, Const, Dep, Eq, Exists, FOAtom, Forall,
                               Inc, Ind, NegFOAtom, SplitOr, Var, WNeg,
                               free_vars, sorted_free_vars)
from teamlogic.model import Model, expand_with_relation
from teamlogic.semantics import eval_single
from teamlogic.team import Team, all_teams, rel, sample_small_teams

x, y = Var("x"), Var("y")
M = default_model()


def test_eso_formula_requires_fo_matrix():
    with pytest.raises(EsoError):
        ESOFormula((), Dep((x,), (y,)))


def test_tau_of_fo_guards_by_membership():
    psi = tau(Eq(x, y), sym="R")
    assert psi.so_vars == ()
    assert isinstance(psi.matrix, Forall)


def test_tau_of_split_introduces_two_relations():
    psi = tau(SplitOr(Dep((x,), (y,)), Eq(x, y)), sym="R")
    assert len(psi.so_vars) == 2
    assert all(ar == 2 for _, ar in psi.so_vars) or {ar for _, ar in psi.so_vars} == {2}


def test_tau_rejects_wneg():
    with pytest.raises(EsoError):
        tau(WNeg(Eq(x, y)))


def test_tau_rejects_unregistered_atom():
    from teamlogic.formula import Gen
    with pytest.raises(EsoError):
        tau(Gen("mystery", (x,)))


def test_print_eso_prefix():
    psi = ESOFormula((("S", 2),), FOAtom("S", (x, y)))
    assert print_eso(psi).startswith("E2 S/2. ")


def test_eval_eso_cap():
    psi = ESOFormula((("S", 6),), Forall(x, Eq(x, x)))
    with pytest.raises(EsoCapExceeded):
        eval_eso(M, psi, max_combos=1 << 10)


def test_eval_eso_simple_sentences():
    psi = ESOFormula((("S", 1),),
                     Forall(x, SplitOr(FOAtom("S", (x,)), FOAtom("P", (x,)))))
    assert eval_eso(M, psi)
    # some unary S containing exactly the P-elements
    matrix = Forall(x, SplitOr(And(FOAtom("S", (x,)), FOAtom("P", (x,))),
                               And(NegFOAtom("P", (x,)), NegFOAtom("S", (x,)))))
    assert eval_eso(M, ESOFormula((("S", 1),), matrix))


def eval_eso_by_expansion(model, psi, max_combos=1 << 22):
    """The reference enumeration: a model expanded by expand_with_relation
    for every interpretation, and eval_single on each."""
    total = 1
    spaces = []
    for sym, arity in psi.so_vars:
        total *= 2 ** len(model.domain) ** arity
        if total > max_combos:
            raise EsoCapExceeded("%d second-order interpretations exceed the cap of %d"
                                 % (total, max_combos))
        spaces.append(sorted(itertools.product(model.domain, repeat=arity)))

    def rec(i, m):
        if i == len(psi.so_vars):
            return eval_single(m, {}, psi.matrix)
        sym, _ = psi.so_vars[i]
        space = spaces[i]
        for mask in range(1 << len(space)):
            interp = [space[j] for j in range(len(space)) if mask >> j & 1]
            if rec(i + 1, expand_with_relation(m, sym, interp)):
                return True
        return False

    return rec(0, model)


def _outcome(f, *args):
    """f(*args)'s value, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_eval_eso_agrees_with_the_expanding_enumeration(seed):
    """tau of five gen_so_friendly formulas per seed, those with at most 8
    second-order bits (about a fifth of them have any)."""
    rng = random.Random(seed)
    for _ in range(5):
        phi = gen_so_friendly(rng)
        psi = tau(phi, sym="R")
        if sum(len(M.domain) ** arity for _, arity in psi.so_vars) > 8:
            continue
        fv = [v.name for v in sorted_free_vars(phi)]
        for X in sample_small_teams(M, tuple(fv) or ("x",), 3, max_rows=3, seed=seed):
            expanded = expand_with_relation(M, "R", rel(X, fv))
            assert eval_eso(expanded, psi) == eval_eso_by_expansion(expanded, psi), (phi, X)


S, T = FOAtom("S", (x,)), FOAtom("T", (x, y))
P = FOAtom("P", (x,))


def test_an_inner_binder_leaves_the_outer_value():
    # true, and false if the inner loop clobbers x
    for psi in (ESOFormula((), Exists(x, And(Exists(x, P), NegFOAtom("P", (x,))))),
                ESOFormula((("S", 1),), Exists(x, And(Exists(x, S), NegFOAtom("S", (x,)))))):
        assert eval_eso(M, psi) is True
        assert eval_eso_by_expansion(M, psi) is True


@pytest.mark.parametrize("model, psi, max_combos", [
    (M, ESOFormula((("S", 1), ("T", 2)), Forall(x, Exists(y, SplitOr(T, S)))), 1 << 22),
    # the cap
    (M, ESOFormula((("S", 1), ("T", 2)), Forall(x, S)), 1 << 5),
    # a symbol the model interprets, as a relation or as a constant
    (M, ESOFormula((("S", 1), ("P", 1)), Forall(x, S)), 1 << 22),
    (Model(("0", "1"), {}, {"S": "0"}), ESOFormula((("S", 1),), Forall(x, S)), 1 << 22),
    # a repeated symbol
    (M, ESOFormula((("S", 1), ("T", 1), ("S", 1)), Forall(x, S)), 1 << 22),
    # an unknown relation and constant, and an unassigned variable
    (M, ESOFormula((("S", 1),), Forall(x, SplitOr(S, FOAtom("U", (x,))))), 1 << 22),
    (M, ESOFormula((("S", 1),), Forall(x, SplitOr(S, Eq(x, Const("c"))))), 1 << 22),
    (M, ESOFormula((("S", 1),), Forall(x, SplitOr(S, Eq(x, y)))), 1 << 22),
])
def test_eval_eso_agrees_with_the_expanding_enumeration_on_edge_cases(model, psi, max_combos):
    want = _outcome(eval_eso_by_expansion, model, psi, max_combos)
    assert _outcome(eval_eso, model, psi, max_combos) == want


def test_correspondence_on_concrete_cases():
    for phi, vs in [(Dep((x,), (y,)), ("x", "y")),
                    (Inc((x,), (y,)), ("x", "y")),
                    (Ind((x,), (), (y,)), ("x", "y")),
                    (Exists(y, And(Eq(x, y), Dep((), (y,)))), ("x",)),
                    (SplitOr(FOAtom("P", (x,)), Dep((), (x,))), ("x",))]:
        for X in all_teams(M, vs):
            assert check_correspondence(M, X, phi), (phi, X)


def test_correspondence_sentence_uses_nullary_relation():
    phi = Exists(x, FOAtom("P", (x,)))
    psi = tau(phi, sym="R")
    # nonempty team: R holds the empty tuple
    expanded = expand_with_relation(M, "R", [()])
    assert eval_eso(expanded, psi)
    for X in all_teams(M, ("y",)):
        assert check_correspondence(M, X, phi)


def test_single_value_universal_parametrizes_inner_relations():
    """The split relations inside a single-value universal must be allowed
    to vary with the quantified value (regression: they were hoisted above
    the first-order quantifier unchanged)."""
    from teamlogic.formula import Forall1, NegEq
    phi = Forall1(x, SplitOr(Dep((x,), (y,)), NegEq(x, x)))
    psi = tau(phi, sym="R")
    assert all(ar >= 1 for _, ar in psi.so_vars)
    X = Team(("x", "y"), [("0", "0"), ("1", "0")])
    assert check_correspondence(M, X, phi)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_correspondence_on_random_formulas(seed):
    rng = random.Random(seed)
    phi = gen_so_friendly(rng)
    vs = tuple(sorted({v.name for v in free_vars(phi)} | {"x"}))
    for X in sample_small_teams(M, vs, 2, max_rows=3, seed=seed):
        assert check_correspondence(M, X, phi), (phi, X)
