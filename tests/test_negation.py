import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.checks import default_model, gen_fo
from teamlogic.formula import (And, BoolOr, Dep, Eq, Exists, Exists1, FOAtom,
                               Inc, Ind, SplitOr, Var, WNeg, free_vars)
from teamlogic.negation import (NotNegatableError, is_negatable_fragment, wneg)
from teamlogic.semantics import eval_formula
from teamlogic.team import Team, all_teams

x, y = Var("x"), Var("y")
M = default_model()


def test_fragment_recognition():
    assert is_negatable_fragment(Exists(x, Eq(x, y)))
    assert is_negatable_fragment(Dep((x,), (y,)))
    assert is_negatable_fragment(And(Inc((x,), (y,)), BoolOr(Eq(x, y), Ind((x,), (), (y,)))))
    assert is_negatable_fragment(Exists1(x, WNeg(Dep((x,), (y,)))))

    rep = is_negatable_fragment(SplitOr(Dep((x,), (y,)), Eq(x, y)))
    assert not rep
    assert "offending" in rep.reason
    assert not is_negatable_fragment(Exists(x, Dep((x,), (y,))))


def test_unregistered_atom_rejected():
    from teamlogic.formula import Gen
    phi = Gen("mystery", (x, y))
    assert not is_negatable_fragment(phi, registry={})
    with pytest.raises(NotNegatableError):
        wneg(phi, registry={})


def test_generalized_atom_without_registry_is_refused():
    # no registry holds the defining formula, so the atom cannot be negated
    from teamlogic.formula import Gen
    phi = Gen("dep1", (x, y))
    rep = is_negatable_fragment(phi)
    assert not rep and rep.reason == "unregistered atom dep1"
    with pytest.raises(NotNegatableError):
        wneg(phi)


def test_wneg_refuses_outside_fragment():
    with pytest.raises(NotNegatableError):
        wneg(SplitOr(Dep((x,), (y,)), Eq(x, y)))


def _agrees_with_semantic_negation(phi, variables):
    psi = wneg(phi)
    for X in all_teams(M, variables):
        want = X.is_empty() or not eval_formula(M, X, phi)
        assert eval_formula(M, X, psi) == want, (phi, X)


def test_wneg_of_atoms():
    _agrees_with_semantic_negation(Dep((x,), (y,)), ("x", "y"))
    _agrees_with_semantic_negation(Inc((x,), (y,)), ("x", "y"))
    _agrees_with_semantic_negation(Ind((x,), (), (y,)), ("x", "y"))


@pytest.mark.parametrize("atom", [Ind((), (), ()), Inc((), ())], ids=repr)
def test_argument_free_atoms_are_negated_and_translated(atom):
    # both hold on every team, so the weak negation holds on the empty team
    # only; the parser never builds them
    from teamlogic.eso import check_correspondence
    from teamlogic.parser import ParseError, parse_formula
    psi = wneg(atom)
    for X in all_teams(M, ("x",)):
        assert eval_formula(M, X, psi) == X.is_empty()
        assert eval_formula(M, X, WNeg(atom), literal=True) == X.is_empty()
        assert check_correspondence(M, X, atom)
        assert check_correspondence(M, X, psi)
    for text in ("ind( ; ; )", "inc( ; )"):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_wneg_of_connectives_and_single_value_quantifiers():
    _agrees_with_semantic_negation(And(FOAtom("P", (x,)), Dep((x,), (y,))), ("x", "y"))
    _agrees_with_semantic_negation(BoolOr(Eq(x, y), Inc((x,), (y,))), ("x", "y"))
    _agrees_with_semantic_negation(Exists1(y, And(Eq(x, y), FOAtom("P", (y,)))), ("x",))


def test_double_wneg_collapses():
    phi = Dep((x,), (y,))
    assert wneg(WNeg(phi)) == phi


def test_wneg_of_sentence_has_no_free_variables():
    psi = wneg(Exists(x, FOAtom("P", (x,))))
    assert free_vars(psi) == set()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_wneg_matches_wneg_node_on_random_fo(seed):
    rng = random.Random(seed)
    phi = gen_fo(rng, ("x", "y"), depth=2)
    psi = wneg(phi)
    rows = [t for t in itertools.product(M.domain, repeat=2)
            if rng.random() < 0.5]
    X = Team(("x", "y"), rows)
    assert eval_formula(M, X, psi) == eval_formula(M, X, WNeg(phi))
