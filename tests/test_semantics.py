import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle_atoms
from teamlogic.checks import VARIABLES, default_model, gen_downward, gen_fo
from teamlogic.formula import (_FIRST_ORDER, SHAPES, And, BoolOr, Bot, Const,
                               Dep, Eq, Exists, Exists1, FOAtom, Forall,
                               Forall1, Implies, Inc, Ind, NegEq, NegFOAtom,
                               SeqEq, SeqNeq, SplitOr, Top, Var, WNeg,
                               free_vars)
from teamlogic.semantics import (_COMPILED, _SINGLE, BudgetExceeded,
                                 EvalBudget, EvalError, _SingleCompiler,
                                 eval_formula, eval_single)
from teamlogic import semantics
from teamlogic.model import Model, ModelError
from teamlogic.team import Team, all_teams, sample_teams

x, y, z = Var("x"), Var("y"), Var("z")
M = default_model()


def T(*rows, vs=("x", "y")):
    return Team(vs, rows)


def test_empty_team_satisfies_everything():
    empty = Team(("x", "y"), [])
    for phi in (Bot(), Dep((x,), (y,)), WNeg(Top()), Inc((x,), (y,))):
        assert eval_formula(M, empty, phi)


def test_fo_is_pointwise():
    X = T(("1", "0"), ("1", "1"))
    assert eval_formula(M, X, FOAtom("P", (x,)))
    assert not eval_formula(M, X, FOAtom("P", (y,)))


def test_dep_clause():
    assert eval_formula(M, T(("0", "0"), ("0", "0")), Dep((x,), (y,)))
    assert not eval_formula(M, T(("0", "0"), ("0", "1")), Dep((x,), (y,)))
    # empty determiner list means constancy
    assert eval_formula(M, T(("0", "0"), ("1", "0")), Dep((), (y,)))
    assert not eval_formula(M, T(("0", "0"), ("0", "1")), Dep((), (y,)))


def test_dep_on_sequences_is_sequence_sensitive():
    X = Team(("x", "y", "z"), [("0", "0", "0"), ("0", "1", "1")])
    assert eval_formula(M, X, Dep((x, y), (z,)))
    assert not eval_formula(M, X, Dep((x,), (z,)))


def test_ind_clause():
    full = T(("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    assert eval_formula(M, full, Ind((x,), (), (y,)))
    assert not eval_formula(M, T(("0", "1"), ("1", "0")), Ind((x,), (), (y,)))


def test_conditional_ind_clause():
    X = Team(("x", "y", "z"),
             [("0", "0", "0"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "0"),
              ("0", "1", "1")])
    assert eval_formula(M, X, Ind((x,), (z,), (y,)))
    Y = Team(("x", "y", "z"), [("0", "0", "0"), ("1", "1", "0")])
    assert not eval_formula(M, Y, Ind((x,), (z,), (y,)))


def test_ind_clause_holds_where_the_product_bound_is_met_exactly():
    """A team satisfying x _|_z y has as many rows as the sum over z-classes of
    |x-values| * |y-values|: on product teams the clause's early bound is met,
    not passed."""
    M3 = Model(("0", "1", "2"))
    full = Team(("x", "y", "z"), itertools.product(M3.domain, repeat=3))
    cases = [(M3, full, Ind((x,), (z,), (y,)), True),
             (M3, full, Ind((x, y), (), (z,)), True),
             (M, T(("0", "1")), Ind((x,), (), (y,)), True),
             # z=0 is the product {0,1} x {0,1}, z=1 is not
             (M, Team(("x", "y", "z"), [("0", "0", "0"), ("0", "1", "0"),
                                        ("1", "0", "0"), ("1", "1", "0"),
                                        ("0", "0", "1"), ("1", "1", "1")]),
              Ind((x,), (z,), (y,)), False),
             # the bound is met, but w doubles the rows: 4 rows, 2 (z, x, y) values
             (M, Team(("x", "y", "z", "w"), [("0", "0", "0", "0"), ("0", "0", "0", "1"),
                                             ("1", "1", "0", "0"), ("1", "1", "0", "1")]),
              Ind((x,), (z,), (y,)), False)]
    for model, X, phi, want in cases:
        names = [tuple(v.name for v in vs) for vs in (phi.xs, phi.zs, phi.ys)]
        assert oracle_atoms.holds_ind(X.vars, X.rows, *names) is want
        for literal in (False, True):
            assert eval_formula(model, X, phi, literal=literal) is want, (phi, literal)


def test_relation_literals_on_empty_and_full_relations():
    """P(xs) and !P(xs) over team variables compare P with the rows'
    projections as sets: empty and full relations of arity 0-2, repeated
    variables, and the empty team, against the literal mode."""
    empty_team = Team(("x", "y"), [])
    teams = [empty_team, T(("0", "0")), T(("0", "1"), ("1", "1")),
             T(*itertools.product("01", repeat=2))]
    relations = [{"T": [], "P": [], "R": []},
                 {"T": [()], "P": [("0",), ("1",)],
                  "R": list(itertools.product("01", repeat=2))},
                 {"T": [()], "P": [("1",)], "R": [("0", "0"), ("1", "1")]}]
    for rels in relations:
        model = Model(("0", "1"), rels)
        for atom in (FOAtom("T", ()), FOAtom("P", (x,)), FOAtom("P", (y,)),
                     FOAtom("R", (x, y)), FOAtom("R", (y, x)), FOAtom("R", (x, x))):
            for phi in (atom, NegFOAtom(atom.rel, atom.args)):
                for X in teams:
                    assert eval_formula(model, X, phi) == eval_formula(
                        model, X, phi, literal=True), (rels, phi, X)
                assert eval_formula(model, empty_team, phi)
    full = Model(("0", "1"), relations[1])
    assert eval_formula(full, teams[3], FOAtom("R", (x, y)))
    assert not eval_formula(full, teams[3], NegFOAtom("P", (y,)))
    assert not eval_formula(Model(("0", "1"), relations[0]), teams[1], FOAtom("T", ()))


def test_inc_clause():
    assert eval_formula(M, T(("0", "0"), ("1", "1")), Inc((x,), (y,)))
    assert not eval_formula(M, T(("0", "1"), ("1", "1")), Inc((x,), (y,)))


def test_split_or_splits_the_team():
    # neither disjunct holds on the whole team, but a split works
    X = T(("1", "0"), ("0", "1"))
    assert eval_formula(M, X, SplitOr(FOAtom("P", (x,)), FOAtom("P", (y,))))
    assert not eval_formula(M, X, BoolOr(FOAtom("P", (x,)), FOAtom("P", (y,))))


def test_boolean_or_takes_whole_team():
    X = T(("1", "0"), ("1", "1"))
    assert eval_formula(M, X, BoolOr(FOAtom("P", (x,)), FOAtom("P", (y,))))


def test_exists_supplements_per_row():
    X = Team(("x",), [("0",), ("1",)])
    assert eval_formula(M, X, Exists(y, NegEq(x, y)))
    # y must copy x: fine rowwise, so dependence on x is satisfiable
    assert eval_formula(M, X, Exists(y, And(Eq(x, y), Dep((x,), (y,)))))
    # but a constant y cannot equal both x-values
    assert not eval_formula(M, X, Exists(y, And(Eq(x, y), Dep((), (y,)))))


def test_exists1_picks_one_value_uniformly():
    X = Team(("x",), [("0",), ("1",)])
    assert not eval_formula(M, X, Exists1(y, Eq(x, y)))
    assert eval_formula(M, X, Exists1(y, FOAtom("P", (y,))))


def test_forall_duplicates():
    X = Team(("x",), [("0",)])
    assert eval_formula(M, X, Forall(y, Inc((x,), (x,))))
    assert not eval_formula(M, X, Forall(y, Eq(x, y)))
    assert eval_formula(M, X, Forall1(y, SplitOr(Eq(x, y), NegEq(x, y))))


def test_wneg_clause():
    X = T(("0", "1"))
    assert eval_formula(M, X, WNeg(Eq(x, y)))
    assert not eval_formula(M, X, WNeg(NegEq(x, y)))
    assert eval_formula(M, Team(("x", "y"), []), WNeg(Top()))


def test_eval_requires_free_vars_in_team():
    X = Team(("x",), [("0",)])
    with pytest.raises(Exception):
        eval_formula(M, X, Eq(x, y))


def test_eval_single_handles_sugar():
    s = {"x": "0", "y": "0"}
    assert eval_single(M, s, Implies(Eq(x, y), Eq(y, x)))
    assert eval_single(M, s, SeqEq((x, y), (y, x)))


@pytest.mark.parametrize("cls", sorted(SHAPES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_eval_single_decides_exactly_the_first_order_classes(cls):
    from test_formula import ONE_OF_EACH
    phi = {type(f): f for f in ONE_OF_EACH}[cls]
    model = Model(("0", "1"), {"P": [("1", "1")], "Q": [()]}, {"c": "1"})
    s = {"x": "0", "y": "1", "z": "1"}
    if cls in _FIRST_ORDER:
        assert eval_single(model, s, phi) in (True, False)
    else:
        with pytest.raises(EvalError, match="eval_single expects a first-order formula"):
            eval_single(model, s, phi)


def test_every_single_class_has_a_compiled_clause():
    assert set(_COMPILED) == set(_SINGLE)


def _outcome(f):
    """f()'s value, or the class and message of what it raised."""
    try:
        return f()
    except Exception as e:
        return type(e), str(e)


# default_model() interprets no constant; the second model interprets c and
# the third lacks the relation Q and the constant c
SINGLE_MODELS = [M, Model(("0", "1"), {"P": [("1",)], "Q": [("0", "1")]}, {"c": "0"}),
                 Model(("0", "1", "2"), {"P": [("1",), ("2",)]})]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_compiled_single_agrees_with_eval_single(seed):
    """A gen_fo formula joined with a node of each class gen_fo never draws,
    compiled once per model and set of assigned variables, under every
    assignment of those: the same value as eval_single, or the same error."""
    rng = random.Random(seed)
    v = lambda: Var(rng.choice(VARIABLES))
    c = Const("c")
    extra = rng.choice([Top(), Bot(), Eq(v(), c), FOAtom("Q", (c, v())),
                        SeqEq((v(), c), (v(), v())), SeqNeq((v(), v()), (c, v()))])
    phi = rng.choice([And, SplitOr, Implies])(*rng.sample([gen_fo(rng), extra], 2))
    for model in SINGLE_MODELS:
        for k in range(len(VARIABLES) + 1):
            for names in itertools.combinations(VARIABLES, k):
                compiler = _SingleCompiler(model, names)
                run = compiler.formula(phi, compiler.scope)
                for values in itertools.product(model.domain, repeat=k):
                    compiler.env[:k] = values
                    s = dict(zip(names, values))
                    assert _outcome(run) == _outcome(lambda: eval_single(model, s, phi)), \
                        (phi, model, s)


@pytest.mark.parametrize("cls", sorted(SHAPES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_node_class_has_a_clause_in_both_modes(cls):
    from test_formula import ONE_OF_EACH
    from teamlogic.genatom import register_builtin_atoms
    phi = {type(f): f for f in ONE_OF_EACH}[cls]
    model = Model(("0", "1"), {"P": [("1", "1")], "Q": [()]}, {"c": "1"})
    X = Team(("x", "y", "z"), [("0", "1", "1"), ("1", "1", "0")])
    verdicts = [eval_formula(model, X, phi, register_builtin_atoms(), literal=literal)
                for literal in (False, True)]
    assert [type(v) for v in verdicts] == [bool, bool]
    assert verdicts[0] == verdicts[1]


def test_budget_refuses_rather_than_approximates():
    X = Team(("x",), [("0",), ("1",)])
    tight = EvalBudget(max_split_rows=1, max_supplement_rows=400000,
                       max_solver_nodes=200000, max_fallback_combos=1)
    with pytest.raises(BudgetExceeded):
        eval_formula(M, X, SplitOr(Dep((), (x,)), Dep((), (x,))), budget=tight)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_literal_and_default_evaluator_agree(seed):
    rng = random.Random(seed)
    phi = gen_downward(rng, depth=2)
    vs = tuple(sorted({v.name for v in free_vars(phi)} | {"x"}))
    rows = [t for t in itertools.product(M.domain, repeat=len(vs))
            if rng.random() < 0.5]
    X = Team(vs, rows)
    assert eval_formula(M, X, phi) == eval_formula(M, X, phi, literal=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_block_solver_agrees_with_literal_search(seed):
    """Existential blocks over atom conjunctions: the dedicated solver and
    the row-by-row fallback must agree."""
    rng = random.Random(seed)
    matrix = And(Inc((y,), (x,)), gen_fo(rng, ("x", "y"), depth=1))
    phi = Exists(y, matrix)
    rows = [t for t in itertools.product(M.domain, repeat=1)
            if rng.random() < 0.7]
    X = Team(("x",), rows)
    assert eval_formula(M, X, phi) == eval_formula(M, X, phi, literal=True)


_x_free_leaf = st.sampled_from([
    Dep((y,), (z,)), Dep((), (y,)), Ind((y,), (), (z,)), Ind((y,), (z,), (y,)),
    Inc((y,), (z,)), Eq(y, z), FOAtom("P", (z,))])
_x_free = st.recursive(
    _x_free_leaf,
    lambda c: st.one_of(st.builds(WNeg, c), st.builds(BoolOr, c, c)),
    max_leaves=3)
_with_x = st.sampled_from([
    Eq(x, y), Dep((), (x,)), Dep((z,), (x,)), Inc((x,), (y,)), Ind((x,), (), (y,)),
    SplitOr(Eq(x, y), Inc((x,), (z,))), BoolOr(Dep((), (x,)), NegEq(x, z))])


@settings(max_examples=80, deadline=None)
@given(_x_free, _with_x, st.booleans(), st.booleans(), st.data())
def test_exists_locality_precheck_agrees_with_literal(a, b, a_first, x_in_team, data):
    """E x (A /\\ B) with x not free in A: the default evaluator checks A on
    the team before any supplement; the literal search must agree, also
    when x is already a team variable."""
    phi = Exists(x, And(a, b) if a_first else And(b, a))
    vs = ("x", "y", "z") if x_in_team else ("y", "z")
    row = st.tuples(*[st.sampled_from(M.domain)] * len(vs))
    X = Team(vs, data.draw(st.lists(row, max_size=3)))
    assert eval_formula(M, X, phi) == eval_formula(M, X, phi, literal=True)


def test_locality_precheck_skips_conjuncts_that_mention_x():
    # =(x) fails on the team, but E x rebinds x to a constant
    X = Team(("x",), [("0",), ("1",)])
    assert not eval_formula(M, X, Dep((), (x,)))
    assert eval_formula(M, X, Exists(x, Dep((), (x,))))
    assert eval_formula(M, X, Exists(x, Dep((), (x,))), literal=True)


def test_formula_hash_is_cached_and_structural():
    import pickle
    from teamlogic.semantics import Evaluator

    def build():
        return Exists(y, And(Dep((x,), (y,)), SplitOr(Eq(x, y), Inc((y,), (x,)))))

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    h = hash(a)
    ev = Evaluator(M)
    X = Team(("x",), [("0",), ("1",)])
    assert ev.eval(X, a)
    plan = ev._plans[b, X.vars]  # b finds the plan and the memo entry that a made
    assert plan.phi is a and X.rows in plan.memo
    assert hash(a) == h == hash(build())
    assert [name for name, _ in SHAPES[Exists].fields] == ["v", "body"]
    assert repr(Dep((x,), (y,))) == "Dep(determiners=(Var(x),), dependent=(Var(y),))"
    # a pickled node carries no hash: str hashes differ between interpreters
    c = pickle.loads(pickle.dumps(a))
    assert "_hash" not in vars(c) and c == a and hash(c) == h


_ATOM_VARS = ("x", "y", "z", "w")
_tuple = st.lists(st.sampled_from(_ATOM_VARS), max_size=3).map(tuple)


@st.composite
def _atom(draw):
    kind = draw(st.sampled_from(["dep", "ind", "inc", "fixed"]))
    if kind == "dep":
        dependent = draw(st.lists(st.sampled_from(_ATOM_VARS), min_size=1,
                                  max_size=3).map(tuple))
        return ("dep", draw(_tuple), dependent)
    if kind == "ind":
        return ("ind", draw(_tuple), draw(_tuple), draw(_tuple))
    if kind == "inc":
        xs = draw(_tuple)
        ys = draw(st.lists(st.sampled_from(_ATOM_VARS), min_size=len(xs),
                           max_size=len(xs)).map(tuple))
        return ("inc", xs, ys)
    # repeated and overlapping variables: ind(x;x;y) and ind(x,y;;x)
    return draw(st.sampled_from([("ind", ("x",), ("x",), ("y",)),
                                 ("ind", ("x", "y"), (), ("x",))]))


def _as_formula(atom):
    kind, *parts = atom
    parts = [tuple(Var(v) for v in p) for p in parts]
    return {"dep": Dep, "ind": Ind, "inc": Inc}[kind](*parts)


def _oracle(atom, rows):
    kind, *parts = atom
    return getattr(oracle_atoms, "holds_" + kind)(_ATOM_VARS, rows, *parts)


@settings(max_examples=300, deadline=None)
@given(_atom(), st.sampled_from([("0", "1"), ("0", "1", "2")]), st.booleans(),
       st.data())
def test_atom_clauses_agree_with_the_oracle(atom, domain, literal, data):
    """dep, ind and inc against the independent transcription of their
    defining clauses, on teams of up to 40 rows."""
    row = st.tuples(*[st.sampled_from(domain)] * len(_ATOM_VARS))
    rows = set(data.draw(st.lists(row, max_size=40)))
    X = Team(_ATOM_VARS, rows)
    assert (eval_formula(Model(domain), X, _as_formula(atom), literal=literal)
            == _oracle(atom, rows))


# --- row tests against the literal evaluator -----------------------------------

c = Const("c")
M_ROWS = Model(("0", "1"),
               {"T": [()], "P": [("1",)], "R": [("0", "1"), ("1", "1")],
                "S": [("0", "0", "1"), ("1", "0", "1"), ("1", "1", "1")]},
               {"c": "1"})
M_ROWS_ARITY = {"T": 0, "P": 1, "R": 2, "S": 3}
_terms = st.sampled_from([x, y, z, c])


@st.composite
def _literal(draw):
    if draw(st.booleans()):
        rel = draw(st.sampled_from(sorted(M_ROWS_ARITY)))
        args = draw(st.lists(_terms, min_size=M_ROWS_ARITY[rel],
                             max_size=M_ROWS_ARITY[rel]))
        return draw(st.sampled_from([FOAtom, NegFOAtom]))(rel, tuple(args))
    return draw(st.sampled_from([Eq, NegEq]))(draw(_terms), draw(_terms))


# A literal under a non-first-order parent is decided by its own row test; a
# first-order parent is decided by the Tarskian evaluator instead.
_SHAPES = [
    lambda a, b, g, v: a,
    lambda a, b, g, v: And(a, g),
    lambda a, b, g, v: And(g, And(a, b)),
    lambda a, b, g, v: SplitOr(a, g),
    lambda a, b, g, v: SplitOr(g, a),
    lambda a, b, g, v: SplitOr(a, b),
    lambda a, b, g, v: Exists(v, And(a, g)),
    lambda a, b, g, v: Exists(v, SplitOr(g, a)),
    lambda a, b, g, v: Forall(v, And(g, a)),
    lambda a, b, g, v: Forall(v, SplitOr(a, And(b, g))),
]
_nested = st.builds(
    lambda shape, *parts: shape(*parts), st.sampled_from(_SHAPES),
    _literal(), _literal(),
    st.sampled_from([Dep((), (x,)), Dep((y,), (z,)), Inc((x,), (y,))]),
    st.sampled_from([y, z]))


@settings(max_examples=500, deadline=None)
@given(_nested, st.sets(st.tuples(*[st.sampled_from(M_ROWS.domain)] * 3),
                        min_size=1, max_size=3))
def test_row_tests_agree_with_literal(phi, rows):
    """FO literals of arity 0-3 over variables, constants and repeated
    variables, alone and nested: the default mode's row tests against the
    per-assignment Tarskian clauses of the literal mode."""
    X = Team(("x", "y", "z"), rows)
    assert eval_formula(M_ROWS, X, phi) == eval_formula(M_ROWS, X, phi, literal=True)


def test_row_tests_cover_every_literal_shape():
    X = Team(("x", "y"), [("0", "1"), ("1", "1")])
    cases = [(FOAtom("T", ()), True), (NegFOAtom("T", ()), False),
             (FOAtom("P", (y,)), True), (NegFOAtom("P", (x,)), False),
             (FOAtom("R", (x, y)), True), (FOAtom("R", (y, y)), True),
             (NegFOAtom("R", (y, x)), False), (FOAtom("S", (x, x, y)), True),
             (FOAtom("S", (x, y, x)), False),
             (FOAtom("P", (c,)), True), (FOAtom("R", (x, c)), True),
             (Eq(x, y), False), (NegEq(x, y), False), (Eq(y, y), True),
             (Eq(y, c), True), (NegEq(x, c), False), (Eq(c, c), True)]
    for phi, want in cases:
        for literal in (False, True):
            assert eval_formula(M_ROWS, X, phi, literal=literal) is want, (phi, literal)
        # a first-order side of a split disjunction filters rows by its test
        assert eval_formula(M_ROWS, X, SplitOr(phi, Dep((), (x,)))) == eval_formula(
            M_ROWS, X, SplitOr(phi, Dep((), (x,))), literal=True)


def test_precondition_is_checked_on_every_team():
    from teamlogic.semantics import EvalError, Evaluator
    ev = Evaluator(M)
    phi = Eq(x, y)
    with_y, without_y = Team(("x", "y"), [("0", "0")]), Team(("x",), [("0",)])
    message = r"free variables \['y'\] not in team domain"
    assert ev.eval(with_y, phi)
    with pytest.raises(EvalError, match=message):
        ev.eval(without_y, phi)
    with pytest.raises(EvalError, match=message):
        ev.eval(Team(("x",), []), phi)
    assert ev.eval(with_y, phi)
    # the other order: a refusal is not remembered either
    ev = Evaluator(M)
    with pytest.raises(EvalError, match=message):
        ev.eval(without_y, phi)
    assert ev.eval(with_y, phi)
    # every kind of team test, once built, still refuses a team without y
    for phi in (Dep((x,), (y,)), Ind((x,), (), (y,)), Inc((y,), (x,)),
                FOAtom("P", (y,)), And(FOAtom("P", (x,)), Eq(x, y)),
                Exists(z, Inc((z,), (y,))), SplitOr(Eq(x, y), Dep((), (y,)))):
        for literal in (False, True):
            ev = Evaluator(M, literal=literal)
            ev.eval(with_y, phi)
            for X in (without_y, Team(("x",), []), Team(("x", "z"), [])):
                with pytest.raises(EvalError, match=message):
                    ev.eval(X, phi)


def _answer(ev, X, phi):
    try:
        return ev.eval(X, phi)
    except EvalError as e:
        return "EvalError: %s" % e


@pytest.mark.parametrize("literal", [False, True], ids=["default", "literal"])
def test_the_last_plan_answers_as_a_fresh_evaluator(literal):
    """eval reruns the plan it ran last only for the same formula object and
    the same variable tuple object; every other call answers, or refuses,
    as a fresh evaluator does."""
    from teamlogic.semantics import Evaluator
    dep, inc = Dep((x,), (y,)), Inc((y,), (x,))
    A = Team(("x", "y"), [("0", "0"), ("1", "0")])
    B = Team(tuple(["x", "y"]), [("0", "0"), ("0", "1")])  # equal, distinct vars
    no_y = Team(("x",), [("0",)])
    assert A.vars == B.vars and A.vars is not B.vars
    calls = [
        (A, dep), (A, dep), (B, dep), (A, dep), (B, Dep((x,), (y,))),
        (A, Ind((x,), (), (y,))), (A, dep),  # another formula in between
        (B, And(dep, inc)), (B, inc), (A, inc), (B, inc),  # inc first built by _visit
        (no_y, dep), (no_y, dep), (A, dep), (no_y, dep), (no_y, inc), (no_y, inc)]
    ev = Evaluator(M, literal=literal)
    got = [_answer(ev, X, phi) for X, phi in calls]
    assert got == [_answer(Evaluator(M, literal=literal), X, phi) for X, phi in calls]
    refused = "EvalError: free variables ['y'] not in team domain"
    assert got[:3] == [True, True, False]
    assert got[-6:] == [refused, refused, True, refused, refused, refused]
    # the last plan is run without looking it up; any other call looks it up
    ev.eval(A, dep)
    ev._plans = {}
    assert ev.eval(A, dep) and ev._plans == {}
    assert not ev.eval(B, dep) and list(ev._plans) == [(dep, A.vars)]


def test_marginal_independence_agrees_with_the_oracle():
    """ind(xs;;ys), whose clause keeps one pair of value sets, against the
    oracle on every team over x, y, z at domain 2, including repeated and
    empty sides."""
    from teamlogic.semantics import Evaluator
    from teamlogic.team import all_teams
    model, vs = Model(("0", "1")), ("x", "y", "z")
    atoms = [Ind((x,), (), (x,)), Ind((), (), (y,)), Ind((x,), (), ()),
             Ind((x, x), (), (y,)), Ind((x,), (), (y, x)), Ind((), (), ())]
    teams = list(all_teams(model, vs, cap=8))
    assert len(teams) == 256
    for literal in (False, True):
        ev = Evaluator(model, literal=literal)
        for phi in atoms:
            names = [[v.name for v in side] for side in (phi.xs, phi.zs, phi.ys)]
            for X in teams:
                assert ev.eval(X, phi) == oracle_atoms.holds_ind(vs, X.rows, *names), (
                    phi, X, literal)


def test_literal_mode_runs_every_clause_on_the_empty_team():
    """The default mode answers the empty team by a shortcut (see
    test_empty_team_satisfies_everything); the literal mode runs each clause
    on zero rows, bot and ~ by their empty-team conditions."""
    empty = Team(("x", "y"), [])
    for phi in (Bot(), Top(), WNeg(Top()), WNeg(Bot()), WNeg(WNeg(Bot())),
                Dep((x,), (y,)), Ind((x,), (), (y,)), Inc((x,), (y,)),
                NegEq(x, x), And(Bot(), WNeg(Top())), BoolOr(Bot(), Bot()),
                SplitOr(Bot(), Bot()), Exists(z, Bot()), Forall(z, Bot()),
                Exists1(z, Bot()), Forall1(z, WNeg(Top()))):
        assert eval_formula(M, empty, phi, literal=True), phi
    X = Team(("x", "y"), [("0", "0")])
    assert not eval_formula(M, X, Bot(), literal=True)
    assert not eval_formula(M, X, WNeg(Top()), literal=True)
    assert eval_formula(M, X, WNeg(Bot()), literal=True)


# --- team tests through Evaluator.eval -----------------------------------------

_leaf_vars = st.lists(st.sampled_from([x, y, z]), max_size=2).map(tuple)


@st.composite
def _leaf(draw):
    kind = draw(st.sampled_from(["dep", "ind", "inc", "fo"]))
    if kind == "dep":
        return Dep(draw(_leaf_vars), draw(st.lists(st.sampled_from([x, y, z]),
                                                   min_size=1, max_size=2).map(tuple)))
    if kind == "ind":
        return Ind(draw(_leaf_vars), draw(_leaf_vars), draw(_leaf_vars))
    if kind == "inc":
        xs = draw(_leaf_vars)
        return Inc(xs, draw(st.lists(st.sampled_from([x, y, z]), min_size=len(xs),
                                     max_size=len(xs)).map(tuple)))
    return draw(st.one_of(_literal(), st.builds(And, _literal(), _literal()),
                          st.builds(Exists, st.sampled_from([x, y]), _literal())))


# formulas over leaves whose plans depend on the team variables: w is a team
# variable in some orders below and not in others
_w = Var("w")
_compound = st.one_of(
    st.builds(Exists, st.sampled_from([x, _w]), _leaf()),
    st.builds(Exists, st.just(_w), st.builds(And, _leaf(), _leaf())),
    st.builds(SplitOr, _leaf(), _leaf()),
    st.builds(Forall, st.sampled_from([y, _w]), _leaf()),
    st.builds(And, _leaf(), _leaf()))

# the same variables in other column orders, with and without an extra one
_TEAM_VARS = [("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x", "w"),
              ("w", "z", "y", "x")]


@st.composite
def _teams(draw):
    vs = draw(st.sampled_from(_TEAM_VARS))
    row = st.tuples(*[st.sampled_from(M_ROWS.domain)] * len(vs))
    return Team(vs, draw(st.sets(row, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_leaf(), min_size=1, max_size=4), st.lists(_compound, max_size=2),
       st.lists(_teams(), min_size=1, max_size=6))
def test_team_tests_agree_with_literal(leaves, compounds, teams):
    """dep/ind/inc and first-order leaves on teams of 0-8 rows, and E, A,
    split disjunctions and conjunctions over them on teams of 0-4 rows (the
    literal clauses search every supplement and cover), asked of one
    default-mode evaluator across teams whose variables come in different
    orders: each (formula, team variables) gets its own plan."""
    from teamlogic.semantics import Evaluator
    default, literal = Evaluator(M_ROWS), Evaluator(M_ROWS, literal=True)
    for X in teams + [Team(teams[0].vars, [])]:
        for phi in leaves + (compounds if len(X) <= 4 else []):
            assert default.eval(X, phi) == literal.eval(X, phi), (phi, X)


def test_an_evaluator_is_freed_without_the_cycle_collector():
    """Plans hold no reference back to their evaluator, so a dropped
    evaluator frees its plans and their memos at once, in both modes and
    after every kind of plan has run."""
    import gc
    import weakref
    from teamlogic.semantics import Evaluator
    formulas = [
        Dep((x,), (y,)), FOAtom("P", (x,)), And(FOAtom("P", (x,)), Eq(x, y)),
        SplitOr(Eq(x, y), Dep((), (y,))), Forall(z, Dep((x,), (y,))),
        BoolOr(Dep((), (y,)), Eq(x, y)), Exists1(z, Eq(z, x)), WNeg(Dep((), (x,))),
        Exists(z, Inc((z,), (y,))),  # the block solver
        Exists(z, SplitOr(Dep((), (z,)), Dep((), (y,))))]  # the per-row search
    gc.disable()
    try:
        for literal in (False, True):
            ev = Evaluator(M, literal=literal)
            for phi in formulas:
                ev.eval(T(("0", "1"), ("1", "1")), phi)
            ref = weakref.ref(ev)
            del ev
            assert ref() is None, literal
    finally:
        gc.enable()


def test_per_formula_facts_are_derived_once_per_plan(monkeypatch):
    """is_first_order, free_names, _flatten_and and _collect_block run per
    plan, not per visit: below, each runs at most once per (subformula, team
    variables) in one evaluator, however many teams it is asked and its
    existential search visits.  It meets two tuples of team variables, (x, y)
    and (x, y, w)."""
    import collections
    from teamlogic import semantics
    from teamlogic.parser import parse_formula
    phi = parse_formula("E w. (=(;w) /\\ ((w = x \\/ =(;y)) || (w != y \\/ =(;x))))")
    rows = list(itertools.product(M.domain, repeat=2))
    teams = [Team(("x", "y"), rs) for k in (4, 3, 2) for rs in itertools.combinations(rows, k)]
    want = [eval_formula(M, X, phi, literal=True) for X in teams]
    calls = collections.Counter()

    def count(name, key):
        fn = getattr(semantics, name)

        def wrapper(*args):
            calls[name, key(*args)] += 1
            return fn(*args)
        monkeypatch.setattr(semantics, name, wrapper)
    for name in ("is_first_order", "free_names", "_flatten_and"):
        count(name, lambda f: f)
    count("_collect_block", lambda f, team_vars, *rest: (f, frozenset(team_vars)))
    ev = semantics.Evaluator(M)
    assert [ev.eval(X, phi) for X in teams] == want
    assert {name for name, _ in calls} == {"is_first_order", "free_names", "_flatten_and",
                                           "_collect_block"}
    assert max(n for (name, _), n in calls.items() if name == "_collect_block") == 1
    assert max(calls.values()) <= 2, calls.most_common(3)


@pytest.mark.parametrize("literal", [False, True], ids=["default", "literal"])
@pytest.mark.parametrize("phi", [FOAtom("R", (x,)), NegFOAtom("R", (x,)),
                                 And(Eq(x, x), FOAtom("R", (x,)))],
                         ids=["R(x)", "!R(x)", "x = x /\\ R(x)"])
def test_unknown_relation_holds_on_the_empty_team_and_raises_on_a_row(phi, literal):
    """A relation the model lacks is looked up when a row is tested, in
    both modes: no row, nothing to look up."""
    from teamlogic.model import ModelError
    model = Model(("0", "1"))
    assert eval_formula(model, Team(("x",), []), phi, literal=literal) is True
    with pytest.raises(ModelError, match="unknown relation R"):
        eval_formula(model, Team(("x",), [("0",)]), phi, literal=literal)


def test_nested_existentials_walk_each_conjunct_once(monkeypatch):
    """_collect_block of the outer E w hoists E u and takes the free
    variables of its conjuncts; the plan of E u, which the per-row search
    builds over (x, y, w), reads them from the same evaluator's map."""
    from teamlogic import semantics
    w, u = Var("w"), Var("u")
    conjuncts = [Dep((x,), (u,)), Eq(u, w), Dep((), (w,)), SplitOr(Eq(x, u), Eq(y, u))]
    phi = Exists(w, Exists(u, And(And(conjuncts[0], conjuncts[1]),
                                  And(conjuncts[2], conjuncts[3]))))
    rows = list(itertools.product(M.domain, repeat=2))
    teams = [Team(("x", "y"), rs) for k in (1, 2) for rs in itertools.combinations(rows, k)]
    want = [eval_formula(M, X, phi, literal=True) for X in teams]
    assert True in want and False in want
    walks = collections.Counter()
    real = semantics.free_names

    def counted(f):
        walks[f] += 1
        return real(f)
    monkeypatch.setattr(semantics, "free_names", counted)
    ev = semantics.Evaluator(M)
    assert [ev.eval(X, phi) for X in teams] == want
    assert all(walks[c] == 1 for c in conjuncts), walks
    assert set(walks.values()) == {1}


def test_searches_build_no_checked_team(monkeypatch):
    """The existential, split and quantifier searches derive every subteam
    from a valid team without Team's checks; the block solver's witness
    still goes through them.  The fallback builds its body's plan once per
    (body, team variables), however many supplements it visits."""
    from teamlogic import semantics
    phi, psi = Dep((), (x,)), SplitOr(Dep((), (y,)), Eq(x, y))
    w, u = Var("w"), Var("u")
    defined = Exists(w, Exists(u, And(And(Dep((), (w,)), Dep((), (u,))),
                                      And(SplitOr(Eq(w, u), phi), SplitOr(NegEq(w, u), psi)))))
    rows = list(itertools.product(M.domain, repeat=2))
    teams = [Team(("x", "y"), rs) for k in (1, 2, 3) for rs in itertools.combinations(rows, k)]
    want = [eval_formula(M, X, BoolOr(phi, psi)) for X in teams]
    assert False in want and True in want
    one = T(("0", "1"))
    built = []
    init = Team.__init__

    def counted_init(self, variables, rows):
        built.append(variables)
        init(self, variables, rows)
    monkeypatch.setattr(Team, "__init__", counted_init)
    small = [X for X in teams if len(X) <= 2]
    assert [eval_formula(M, X, defined, literal=True) for X in small] == want[:len(small)]
    planned = collections.Counter()
    plan = semantics.Evaluator._plan

    def counted_plan(self, f, variables):
        planned[f, variables] += 1
        return plan(self, f, variables)
    monkeypatch.setattr(semantics.Evaluator, "_plan", counted_plan)
    ev = semantics.Evaluator(M)
    assert [ev.eval(X, defined) for X in teams] == want
    assert built == []
    assert planned[defined.body.body, ("x", "y", "w", "u")] == 1
    assert set(planned.values()) == {1}
    assert eval_formula(M, one, Exists(z, Inc((z,), (y,))))
    assert built == [("x", "y", "z")]


# --- masked teams: cell masks against the row clauses ---------------------------

# dep/ind/inc with repeated variables and empty sides, and the literals that
# the default mode decides on cell masks: P(xs), !P(xs), x = y, x != y
_MASKED_FORMULAS = [
    Dep((x,), (y,)), Dep((x, y), (z,)), Dep((), (x,)), Dep((x, x), (y, x)),
    Dep((z,), (z,)), Dep((y, z), (x, y)),
    Ind((x,), (), (y,)), Ind((x,), (z,), (y,)), Ind((x,), (), (x,)), Ind((), (), ()),
    Ind((x, y), (), (z,)), Ind((x,), (y,), (y,)), Ind((x,), (y, z), (x,)),
    Ind((), (x,), (y,)), Ind((x,), (x,), (y,)), Ind((z, x), (y,), (z,)),
    Inc((x,), (y,)), Inc((x, y), (y, x)), Inc((x, x), (y, z)), Inc((), ()),
    Inc((x, y), (z, z)), Inc((z,), (z,)),
    FOAtom("P", (x,)), NegFOAtom("P", (y,)), FOAtom("Q", (x, y)), NegFOAtom("Q", (z, z)),
    FOAtom("R", ()), NegFOAtom("R", ()), FOAtom("S", ()),
    Eq(x, y), NegEq(y, z), Eq(z, z), NegEq(x, x),
]
_M2 = Model(("0", "1"))
_M3 = Model(("0", "1", "2"), {"P": [("1",), ("2",)], "Q": [("0", "1"), ("2", "2"), ("1", "0")],
                              "R": [()], "S": []})


def _masked_twin(X, domain):
    """X's rows rebuilt from its mask over the sorted product space."""
    space = sorted(itertools.product(domain, repeat=len(X.vars)))
    return Team(X.vars, [r for i, r in enumerate(space) if X.mask >> i & 1])


def _oracle_of(phi, X):
    kind = {Dep: "dep", Ind: "ind", Inc: "inc"}.get(type(phi))
    if kind is None:
        return None
    names = [[v.name for v in side] for side in
             ((phi.determiners, phi.dependent) if kind == "dep" else
              (phi.xs, phi.zs, phi.ys) if kind == "ind" else (phi.xs, phi.ys))]
    return getattr(oracle_atoms, "holds_" + kind)(X.vars, X.rows, *names)


@pytest.mark.parametrize("teams", [
    lambda: [(X, ("0", "1")) for X in all_teams(_M2, ("x", "y", "z"), cap=8)],
    lambda: [(X, ("0", "1", "2")) for X in sample_teams(_M3, ("w", "x", "y", "z"), 60, seed=11)],
    # one evaluator, two spaces over the same variables, interleaved
    lambda: [pair for Xs in zip(all_teams(_M2, ("x", "y", "z"), cap=8),
                                sample_teams(_M3, ("x", "y", "z"), 256, seed=3))
             for pair in zip(Xs, (("0", "1"), ("0", "1", "2")))],
], ids=["all-3-vars-d2", "sampled-4-vars-d3", "two-spaces"])
def test_masked_teams_agree_with_row_twins_and_the_oracle(teams):
    """The default mode decides a masked team on the cell masks of its own
    space; literal mode on the checked twin runs the row clauses, and the
    oracle transcribes the defining clauses.  The relation literals read
    _M3's relations on the domain-2 teams too."""
    pairs = teams()
    default, literal = semantics.Evaluator(_M3), semantics.Evaluator(_M3, literal=True)
    seen = collections.Counter()
    for phi in _MASKED_FORMULAS:
        for X, domain in pairs:
            twin = _masked_twin(X, domain)
            got = default.eval(X, phi)
            want = literal.eval(twin, phi)
            assert got is want, (phi, twin)
            assert _oracle_of(phi, twin) in (None, want), (phi, twin)
            seen[phi, want] += 1
    both = [phi for phi in _MASKED_FORMULAS if seen[phi, True] and seen[phi, False]]
    assert len(both) >= 4  # on large sampled teams most atoms fail


def test_masked_teams_decide_without_building_rows():
    X = list(sample_teams(_M3, ("w", "x", "y", "z"), 3, seed=1))[-1]
    ev = semantics.Evaluator(_M3)
    for phi in _MASKED_FORMULAS:
        ev.eval(X, phi)
    assert "rows" not in vars(X)
    assert ev.eval(X, SplitOr(Eq(x, y), NegEq(x, y)))  # a memoized path reads rows
    assert "rows" in vars(X)


def test_the_empty_masked_team_holds_before_its_space_is_read():
    class Unread(tuple):
        def __iter__(self):
            raise AssertionError("the space of an empty team was read")
    X = next(all_teams(_M2, ("x", "y", "z")))
    X.space = Unread(X.space)
    ev = semantics.Evaluator(_M3)
    assert all(ev.eval(X, phi) for phi in _MASKED_FORMULAS)


def _outcome(evaluate):
    try:
        return evaluate()
    except (EvalError, ModelError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("phi", [
    FOAtom("P", (x,)), NegFOAtom("P", (x, y)), Implies(Eq(x, y), FOAtom("P", (y,))),
    Implies(NegEq(x, y), NegFOAtom("P", ())), FOAtom("P", (Const("c"),))])
def test_masked_teams_raise_where_the_row_path_raises(phi):
    """With a relation or constant the model lacks, the row tests run on the
    team's rows only: the empty masked team holds, a team raises exactly
    when one of its rows does, and answers otherwise."""
    model = Model(("0", "1"))
    default, literal = semantics.Evaluator(model), semantics.Evaluator(model, literal=True)
    outcomes = set()
    for X in all_teams(model, ("x", "y")):
        twin = _masked_twin(X, model.domain)
        got = _outcome(lambda: default.eval(X, phi))
        assert got == _outcome(lambda: literal.eval(twin, phi)), (phi, twin)
        assert got == _outcome(lambda: semantics.Evaluator(model).eval(twin, phi)), (phi, twin)
        if not X.mask:
            assert got is True
        else:
            outcomes.add(got if type(got) is bool else got[0])
    assert outcomes == ({True, ModelError} if isinstance(phi, Implies) else {ModelError})
