import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from teamlogic import formula
from teamlogic.checks import gen_downward, gen_fo, gen_full, gen_so_friendly
from teamlogic.formula import (_FIRST_ORDER, SHAPES, And, Bot, BoolOr, Const,
                               Dep, Eq, Exists, Exists1, FOAtom, Forall,
                               Forall1, Formula, Gen, Implies, Inc, Ind,
                               NegEq, NegFOAtom, NotFirstOrderError, SeqEq,
                               SeqNeq, SplitOr, SubstitutionError, Term, Top,
                               Var, WNeg, alpha_equal,
                               children, exists_block, exists_prefix,
                               expand_sugar, fo_negate, free_names, free_vars,
                               fresh_var, is_first_order, rebuild,
                               sorted_free_vars, substitute, terms)

x, y, z = Var("x"), Var("y"), Var("z")


def test_free_vars_atom():
    phi = Ind((x,), (z,), (y,))
    assert free_vars(phi) == {x, y, z}


def test_free_vars_quantifier():
    phi = Exists(x, And(Eq(x, y), FOAtom("P", (x,))))
    assert free_vars(phi) == {y}
    assert sorted_free_vars(phi) == (y,)


def test_substitute_simple():
    phi = Eq(x, y)
    assert substitute(phi, {x: z}) == Eq(z, y)


def test_substitute_shadowed():
    phi = Exists(x, Eq(x, y))
    assert substitute(phi, {x: z}) == phi


def test_substitute_capture_avoiding():
    phi = Exists(y, Eq(x, y))
    out = substitute(phi, {x: y})
    # the bound y must have been renamed away from the substituted value
    assert isinstance(out, Exists)
    assert out.v != y
    assert out.body == Eq(y, out.v)


def test_substitute_const_into_atom_rejected():
    phi = Dep((x,), (y,))
    with pytest.raises(SubstitutionError):
        substitute(phi, {x: Const("c")})


def test_fresh_var_is_new_each_time():
    a, b = fresh_var("q"), fresh_var("q")
    assert a != b


def test_is_first_order():
    assert is_first_order(Forall(x, SplitOr(Eq(x, y), NegFOAtom("P", (x,)))))
    assert not is_first_order(Dep((x,), (y,)))
    assert not is_first_order(And(Eq(x, y), Inc((x,), (y,))))


def test_fo_negate_literals():
    assert fo_negate(Eq(x, y)) == NegEq(x, y)
    assert fo_negate(NegEq(x, y)) == Eq(x, y)
    assert fo_negate(FOAtom("P", (x,))) == NegFOAtom("P", (x,))
    assert fo_negate(Bot()) == Top()


def test_fo_negate_swaps_connectives_and_quantifiers():
    phi = Exists(x, And(Eq(x, y), FOAtom("P", (x,))))
    neg = fo_negate(phi)
    assert neg == Forall(x, SplitOr(NegEq(x, y), NegFOAtom("P", (x,))))


def test_expand_sugar_implies():
    phi = Implies(Eq(x, y), FOAtom("P", (x,)))
    assert expand_sugar(phi) == SplitOr(NegEq(x, y), FOAtom("P", (x,)))


def test_expand_sugar_sequences():
    assert expand_sugar(SeqEq((x, y), (y, z))) == And(Eq(x, y), Eq(y, z))
    got = expand_sugar(SeqNeq((x, y), (y, z)))
    assert got == SplitOr(NegEq(x, y), NegEq(y, z))


def test_expand_sugar_empty_sequences():
    assert expand_sugar(SeqEq((), ())) == Top()
    assert expand_sugar(SeqNeq((), ())) == Bot()


def test_sequence_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Inc((x,), (y, z))
    with pytest.raises(ValueError):
        SeqEq((x,), (y, z))


def test_alpha_equal_bound_renaming():
    assert alpha_equal(Exists(x, Eq(x, y)), Exists(z, Eq(z, y)))
    assert not alpha_equal(Exists(x, Eq(x, y)), Exists(z, Eq(z, z)))


def test_alpha_equal_free_vars_matter():
    assert not alpha_equal(Eq(x, y), Eq(x, z))


def test_alpha_equal_nested():
    a = Exists(x, Forall(y, And(Eq(x, y), Inc((x,), (y,)))))
    b = Exists(y, Forall(x, And(Eq(y, x), Inc((y,), (x,)))))
    assert alpha_equal(a, b)


def test_wneg_node_is_not_first_order():
    assert not is_first_order(WNeg(Eq(x, y)))


c = Const("c")
ONE_OF_EACH = [
    FOAtom("P", (x, c)), NegFOAtom("Q", ()), Eq(x, c), NegEq(c, y), Bot(), Top(),
    Dep((x, y), (z,)), Ind((x,), (), (y, z)), Inc((x, y), (z, x)),
    Gen("dep1", (y, x)), And(Eq(x, y), Top()), SplitOr(Bot(), Eq(y, z)),
    BoolOr(Top(), Bot()), Exists(x, Eq(x, y)), Forall(y, Top()),
    Exists1(z, Eq(z, c)), Forall1(x, Bot()), WNeg(Dep((), (x,))),
    Implies(Eq(x, y), Eq(y, x)), SeqEq((x, c), (y, z)), SeqNeq((), ()),
]


def test_every_node_class_has_a_shape():
    assert set(SHAPES) == set(Formula.__subclasses__())
    assert {type(phi) for phi in ONE_OF_EACH} == set(SHAPES)


@pytest.mark.parametrize("phi", ONE_OF_EACH, ids=lambda phi: type(phi).__name__)
def test_rebuild_from_children_and_terms_is_the_identity(phi):
    assert rebuild(phi, children(phi), terms(phi)) == phi


@pytest.mark.parametrize("phi", ONE_OF_EACH, ids=lambda phi: type(phi).__name__)
def test_fo_negate_is_an_involution_on_the_first_order_classes(phi):
    if type(phi) is Implies:
        # sugar: its negation is written in the core connectives
        assert fo_negate(phi) == And(phi.ante, fo_negate(phi.cons))
    elif type(phi) in _FIRST_ORDER:
        assert type(fo_negate(phi)) is not type(phi)
        assert fo_negate(fo_negate(phi)) == phi
    else:
        with pytest.raises(NotFirstOrderError, match="cannot negate non-first-order"):
            fo_negate(phi)


def _field_names(cls):
    return [name for name, _ in SHAPES[cls].fields] if cls in SHAPES else ["name"]


@pytest.mark.parametrize("node", ONE_OF_EACH + [x, c], ids=lambda node: type(node).__name__)
def test_node_contract(node):
    cls = type(node)
    names = _field_names(cls)
    values = [getattr(node, name) for name in names]
    same = cls(*values)
    assert same is not node and same == node and hash(same) == hash(node)
    assert cls(**dict(zip(names, values))) == node
    with pytest.raises(TypeError):
        cls(*values, None)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    for name in names + ["other"]:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert [getattr(node, name) for name in names] == values
    # Var(x) prints its name bare: evaluate the repr with each name bound to itself
    namespace = {k.__name__: k for k in [*SHAPES, Var, Const]}
    namespace.update(x="x", y="y", z="z", c="c")
    assert eval(repr(node), namespace) == node
    for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert type(copied) is cls and copied == node and hash(copied) == hash(node)
        assert repr(copied) == repr(node)


def test_classes_with_the_same_fields_never_compare_equal():
    pairs = 0
    for node in ONE_OF_EACH + [x, c]:
        names = _field_names(type(node))
        values = [getattr(node, name) for name in names]
        for other in [*SHAPES, Var, Const]:
            if other is not type(node) and _field_names(other) == names:
                assert other(*values) != node and not other(*values) == node
                pairs += 1
    assert pairs >= 20  # And/SplitOr/BoolOr, the quantifiers, Inc/SeqEq/SeqNeq, ...
    assert And(Top(), Bot()) != SplitOr(Top(), Bot()) and Top() != Bot() and x != Const("x")


@pytest.mark.parametrize("build", [lambda: Dep((x,), ()), lambda: Inc((x,), ()),
                                   lambda: SeqEq((x,), ()), lambda: SeqNeq((), (c,))],
                         ids=["Dep", "Inc", "SeqEq", "SeqNeq"])
def test_post_init_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_shape_of_binders_and_atoms():
    assert SHAPES[Exists].binder == "v" and terms(Exists(x, Top())) == (x,)
    assert children(Implies(Bot(), Top())) == (Bot(), Top())
    assert terms(Ind((x,), (z,), (y,))) == (x, z, y)
    assert [cls.__name__ for cls, shape in SHAPES.items() if shape.vars_only] == [
        "Dep", "Ind", "Inc", "Gen"]


def _rename_bound(phi):
    """phi with each bound variable renamed to a fresh one."""
    kids = [_rename_bound(k) for k in children(phi)]
    binder = SHAPES[type(phi)].binder
    if binder is None:
        return rebuild(phi, kids, terms(phi))
    v = getattr(phi, binder)
    w = fresh_var(v.name)
    return rebuild(phi, [substitute(kids[0], {v: w})], (w,))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_alpha_equal_is_renaming_of_bound_variables(seed):
    phi = gen_full(random.Random(seed))
    psi = _rename_bound(phi)
    assert alpha_equal(phi, psi) and alpha_equal(psi, phi)
    for v in free_vars(phi):
        changed = substitute(psi, {v: Var("free")})
        assert not alpha_equal(phi, changed) and not alpha_equal(changed, phi)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([x, y, z]), max_size=3))
def test_exists_prefix_inverts_exists_block(seed, vs):
    phi = exists_block(vs, gen_full(random.Random(seed)))
    prefix, body = exists_prefix(phi)
    assert exists_block(prefix, body) == phi
    assert prefix[:len(vs)] == tuple(vs) and not isinstance(body, Exists)


# --- the compiled free_names and is_first_order against the generic walks -----


def _reference_free_vars(phi):
    """free_vars as one walk over the shape table: the terms that are Vars,
    the free variables of the subformulas, less the bound variable."""
    shape = SHAPES[type(phi)]
    out = {t for t in shape.terms(phi) if type(t) is Var}
    for c in shape.children(phi):
        out |= _reference_free_vars(c)
    if shape.binder is not None:
        out.discard(getattr(phi, shape.binder))
    return out


def _reference_is_first_order(phi):
    return type(phi) in _FIRST_ORDER and all(map(_reference_is_first_order, children(phi)))


def _assert_walks_agree(phi):
    """free_names is the names of the reference walk's Vars, a new set on
    each call; free_vars and sorted_free_vars are those names as Vars."""
    expected = _reference_free_vars(phi)
    names = {v.name for v in expected}
    got = free_names(phi)
    assert got == names and all(type(n) is str for n in got)
    got.add("added")
    assert free_names(phi) == names
    got = free_vars(phi)
    assert got == expected and all(type(v) is Var for v in got)
    assert sorted_free_vars(phi) == tuple(Var(n) for n in sorted(names))
    assert is_first_order(phi) is _reference_is_first_order(phi)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([gen_fo, gen_downward, gen_full, gen_so_friendly]))
def test_compiled_walks_agree_with_the_generic_walks(seed, gen):
    phi = gen(random.Random(seed))
    for node in formula.subformulas(phi):
        _assert_walks_agree(node)


@pytest.mark.parametrize("phi", ONE_OF_EACH + [
    FOAtom("R", (c, x, c)), Eq(c, c), SeqEq((c, y), (x, c)), SeqNeq((c,), (z,)),
    Gen("g", ()), Ind((x,), (z,), (y, x)), WNeg(Exists(x, Eq(x, y))),
    Implies(Exists(y, Eq(x, y)), Forall(x, Inc((x,), (z,)))),
    And(Eq(x, y), Exists(x, Eq(x, z))), Exists(x, Exists(x, Eq(x, y))),
], ids=lambda phi: type(phi).__name__)
def test_compiled_walks_agree_on_every_shape(phi):
    _assert_walks_agree(phi)


def test_a_bound_variable_free_elsewhere_stays_free():
    assert free_vars(And(Eq(x, y), Exists(x, Eq(x, z)))) == {x, y, z}
    assert free_vars(SplitOr(Exists(x, Eq(x, z)), Eq(x, y))) == {x, y, z}
    assert free_vars(Forall(x, And(Eq(x, y), Exists(y, Eq(x, y))))) == {y}


@pytest.fixture
def later_classes():
    """Put the shape and clause tables back after a test has defined node
    classes, and collect those classes, so that Formula.__subclasses__()
    again lists the classes of SHAPES only."""
    tables = (SHAPES, formula._FREE_NAMES, formula._IS_FIRST_ORDER)
    saved = [dict(table) for table in tables]
    yield
    for table, before in zip(tables, saved):
        table.clear()
        table.update(before)
    gc.collect()


def test_a_node_class_defined_after_import_gets_both_walks(later_classes):
    class Box(Formula):  # one subformula, as WNeg
        body: Formula

    class Pair(Formula):  # a label and two subformulas
        name: str
        l: Formula
        r: Formula

    class Guarded(Formula):  # a binder and two subformulas: no class above has it
        v: Var
        guard: Formula
        body: Formula

    class Tagged(Formula):  # a term beside a subformula
        t: Term
        body: Formula

    class Cols(Formula):  # variables only
        xs: tuple[Var, ...]
        ys: tuple[Var, ...]

    cases = [
        (Box(Eq(x, y)), {x, y}),
        (Pair("p", Eq(x, c), Exists(z, Eq(z, y))), {x, y}),
        (Guarded(x, Eq(x, y), FOAtom("P", (x, z))), {y, z}),
        (Tagged(z, Exists(z, Eq(z, x))), {x, z}),
        (Tagged(c, Top()), set()),
        (Cols((x,), (y, x)), {x, y}),
    ]
    for phi, expected in cases:
        assert free_vars(phi) == expected
        assert free_vars(And(phi, Eq(y, y))) == expected | {y}
        assert free_vars(Exists(x, phi)) == expected - {x}
        assert is_first_order(phi) is False and not is_first_order(SplitOr(Top(), phi))
        _assert_walks_agree(phi)
