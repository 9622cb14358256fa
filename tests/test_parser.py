import glob
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic.checks import gen_full
from teamlogic.formula import (SHAPES, And, Bot, BoolOr, Const, Dep, Eq, Exists,
                               Exists1, FOAtom, Forall, Forall1, Gen, Implies,
                               Inc, Ind, NegEq, NegFOAtom, SeqEq, SeqNeq,
                               SplitOr, Top, Var, WNeg, expand_sugar,
                               subformulas)
from teamlogic.genatom import register_builtin_atoms
from teamlogic.parser import ParseError, parse_formula, print_formula

x, y, z = Var("x"), Var("y"), Var("z")


def test_atoms():
    assert parse_formula("=(x ; y)") == Dep((x,), (y,))
    assert parse_formula("=(x,y ; z)") == Dep((x, y), (z,))
    assert parse_formula("=(; y)") == Dep((), (y,))
    assert parse_formula("inc(x ; y)") == Inc((x,), (y,))
    assert parse_formula("ind(x ; z ; y)") == Ind((x,), (z,), (y,))
    assert parse_formula("ind(x ;; y)") == Ind((x,), (), (y,))


def test_equality_and_sequences():
    assert parse_formula("x = y") == Eq(x, y)
    assert parse_formula("x y = y z", expand=False) == SeqEq((x, y), (y, z))
    # expansion turns a sequence equality into a conjunction
    assert parse_formula("x y = y z") == And(Eq(x, y), Eq(y, z))


def test_constants_need_declaring():
    assert parse_formula("x = c", constants=("c",)) == Eq(x, Const("c"))
    assert parse_formula("x = c") == Eq(x, Var("c"))


def test_connective_precedence():
    phi = parse_formula("x = y /\\ y = z \\/ P(x)")
    assert isinstance(phi, SplitOr)
    assert isinstance(phi.l, And)


def test_boolean_or_binds_loosest_of_the_lattice():
    phi = parse_formula("x = y \\/ y = z || P(x)")
    assert isinstance(phi, BoolOr)


def test_implies_requires_fo_antecedent():
    phi = parse_formula("x = y -> P(x)", expand=False)
    assert isinstance(phi, Implies)
    with pytest.raises(ParseError):
        parse_formula("=(x ; y) -> P(x)", expand=False)


def test_quantifiers():
    phi = parse_formula("E x. A1 y. inc(x ; y)")
    assert isinstance(phi, Exists)
    phi = parse_formula("E1 x. P(x)")
    assert isinstance(phi, Exists1)


def test_wneg_keyword():
    assert parse_formula("wneg x = y") == WNeg(Eq(x, y))


def test_fo_bang_is_eliminated():
    phi = parse_formula("! (x = y /\\ P(x))")
    assert isinstance(phi, SplitOr)  # negation normal form, no WNeg node


def test_bang_rejected_outside_fo():
    with pytest.raises(ParseError):
        parse_formula("! =(x ; y)")


def test_reserved_dollar_names():
    with pytest.raises(ParseError):
        parse_formula("w$1$1$1 = x")
    assert parse_formula("w$1$1$1 = x", allow_reserved=True) == Eq(Var("w$1$1$1"), x)


def test_registered_atom_application():
    from teamlogic.genatom import register_builtin_atoms
    atoms = register_builtin_atoms()
    phi = parse_formula("dep1(x,y)", atoms=atoms)
    from teamlogic.formula import Gen
    assert phi == Gen("dep1", (x, y))
    with pytest.raises(ParseError):
        parse_formula("dep1(x)", atoms=atoms)  # arity mismatch


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse_formula("x = ")
    with pytest.raises(ParseError):
        parse_formula("(x = y")
    with pytest.raises(ParseError):
        parse_formula("")


# The message and span of each error are pinned: spans count tabs and
# newlines as one character, and a faster tokenizer may not move them.
@pytest.mark.parametrize("text, message, span", [
    ("", "expected a formula, got None (at 0..0)", (0, 0)),
    ("   ", "expected a formula, got None (at 3..3)", (3, 3)),
    ("x = ", "expected a term, got None (at 4..4)", (4, 4)),
    ("(x = y", "expected ')', got None (at 6..6)", (6, 6)),
    ("  @", "unexpected character '@' (at 2..3)", (2, 3)),
    ("x # y", "unexpected character '#' (at 2..3)", (2, 3)),
    ("=(x;y) %", "unexpected character '%' (at 7..8)", (7, 8)),
    ("x =\ty /\\\t%", "unexpected character '%' (at 9..10)", (9, 10)),
    ("=(x;\ny)\n/\\ ?", "unexpected character '?' (at 11..12)", (11, 12)),
    ("x\t# y", "unexpected character '#' (at 2..3)", (2, 3)),
    ("x =\t", "expected a term, got None (at 4..4)", (4, 4)),
    ("(x = y\n", "expected ')', got None (at 7..7)", (7, 7)),
    ("E x.\n\t=(x ;)", "dependence atom needs a dependent part (at 12..12)", (12, 12)),
    ("w$1$1$1 = x", "variable 'w$1$1$1' uses the reserved '$' prefix (at 0..7)", (0, 7)),
    ("x = y$2", "variable 'y$2' uses the reserved '$' prefix (at 4..7)", (4, 7)),
    ("dep1(x)", "atom dep1 expects 2 arguments, got 1 (at 0..4)", (0, 4)),
    ("x = y /\\ inc1(x, y, z)", "atom inc1 expects 2 arguments, got 3 (at 9..13)",
     (9, 13)),
])
def test_parse_error_messages_and_spans(text, message, span):
    with pytest.raises(ParseError) as err:
        parse_formula(text, atoms=register_builtin_atoms())
    assert str(err.value) == message
    assert (err.value.span.start, err.value.span.end) == span


def test_tabs_and_newlines_separate_tokens():
    assert parse_formula("x\t=\ny") == Eq(x, y)


# One node of each class of formula.SHAPES, written so that the printer's
# output parses back to it (with the constant c and the builtin atoms).
_c = Const("c")
PRINTABLE = {type(phi): phi for phi in [
    FOAtom("P", (x, _c)), NegFOAtom("Q", (y, x)), Eq(x, _c), NegEq(_c, y),
    Bot(), Top(), Dep((x, y), (z,)), Ind((x,), (), (y, z)), Inc((x, y), (z, x)),
    Gen("dep1", (y, x)), And(Eq(x, y), Top()), SplitOr(Bot(), Eq(y, z)),
    BoolOr(Top(), Bot()), Exists(x, Eq(x, y)), Forall(y, Top()),
    Exists1(z, Eq(z, _c)), Forall1(x, Bot()), WNeg(Dep((), (x,))),
    Implies(Eq(x, y), Eq(y, x)), SeqEq((x, _c), (y, z)), SeqNeq((x, y), (z, _c)),
]}


@pytest.mark.parametrize("cls", sorted(SHAPES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_node_class_prints_and_parses_back(cls):
    phi = PRINTABLE[cls]
    text = print_formula(phi)
    assert parse_formula(text, constants=("c",), atoms=register_builtin_atoms(),
                         expand=False) == phi


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    phi = gen_full(rng, depth=3)
    text = print_formula(phi)
    assert parse_formula(text, expand=False) == phi


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_round_trip_survives_reprinting(seed):
    rng = random.Random(seed)
    phi = gen_full(rng, depth=2)
    once = print_formula(phi)
    twice = print_formula(parse_formula(once, expand=False))
    assert once == twice


# Everything a token can be, and a space, a reserved-looking name and a bad
# character: inserting any of them anywhere may only give a ParseError.
_TOKEN_ALPHABET = ["->", "!=", "||", "/\\", "\\/", "(", ")", ".", ",", ";", "=",
                   "!", "x", "c", "w$1", "P", "dep1", "E", "A1", "wneg", "bot",
                   "top", "inc", "ind", " ", "@"]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_corrupted_formulas_parse_or_raise_a_parse_error_inside_the_text(seed):
    text = print_formula(gen_full(random.Random(seed), depth=2))
    corrupted = [text[:i] + text[i + 1:] for i in range(len(text))]
    corrupted += [text[:i] + tok + text[i:] for i in range(len(text) + 1)
                  for tok in _TOKEN_ALPHABET]
    atoms = register_builtin_atoms()
    for bad in corrupted:
        try:
            parse_formula(bad, constants=("c",), atoms=atoms)
        except ParseError as err:
            assert 0 <= err.span.start <= err.span.end <= len(bad), (bad, str(err))


def _proof_formula_texts():
    """The formula of every assume line and numbered step of proofs/*.prf."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                              "proofs", "*.prf"))):
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line.startswith("assume "):
                    yield line[len("assume "):]
                elif line[:1].isdigit():
                    yield line.partition(".")[2].rpartition(";")[0]


def _expanded_both_ways(text):
    once = parse_formula(text, allow_reserved=True)
    return once, expand_sugar(parse_formula(text, expand=False, allow_reserved=True))


def test_proof_formulas_parse_as_expand_sugar_of_their_unexpanded_parse():
    texts = list(_proof_formula_texts())
    assert len(texts) > 100
    for text in texts:
        once, twice = _expanded_both_ways(text)
        assert once == twice, text


@pytest.mark.parametrize("text", [
    "x = y -> P(x)", "x = y -> y = z -> P(x)", "a b = c d", "a b != c d",
    "(x = y -> (a b != c d)) /\\ E z. (z y = x x)", "! (a b = c d)",
    "=(x ; y) || (a b = c d /\\ x = y -> a b != c d)", "wneg (a b = c d)",
])
def test_sugar_is_expanded_as_expand_sugar_expands_it(text):
    once, twice = _expanded_both_ways(text)
    assert once == twice
    assert not {Implies, SeqEq, SeqNeq} & {type(phi) for phi in subformulas(once)}
