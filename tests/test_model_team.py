import itertools
import random
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from teamlogic.model import (Model, ModelError, Signature, enumerate_models,
                             expand_with_relation, parse_model, print_model)
from teamlogic.team import (Team, TeamCapExceeded, TeamError, all_supplements,
                            all_teams, duplicate, parse_team, print_team, rel,
                            restrict, sample_small_teams, sample_teams, set_var,
                            supplement)


def m2():
    return Model(("0", "1"), {"P": [("1",)]})


def test_model_basics():
    m = m2()
    assert m.domain == ("0", "1")
    assert m.rel("P") == frozenset({("1",)})
    with pytest.raises(ModelError):
        m.rel("missing")


def test_model_rejects_mixed_arity():
    with pytest.raises(ModelError):
        Model(("0",), {"R": [("0",), ("0", "0")]})


def test_expand_with_relation():
    m = expand_with_relation(m2(), "R", [("0", "1")])
    assert m.rel("R") == frozenset({("0", "1")})
    with pytest.raises(ModelError):
        expand_with_relation(m, "P", [])


def test_model_print_parse_round_trip():
    m = Model(("a", "b"), {"R": [("a", "b"), ("b", "b")], "Z": []},
              {"c": "a"})
    assert parse_model(print_model(m)) == m


@pytest.mark.parametrize("model", [
    Model(("a",), {"T": [()]}),
    Model(("a",), {"F": []}),
    Model(("a", "b"), {"T": [()], "F": [], "R": [], "S": [("b", "a")]},
          {"c": "b", "d": "a"}),
    Model(("a", "b"), {"P": [("a",), ("b",)], "E": []}, {"c": "a"}),
], ids=["true-0-ary", "false-0-ary", "mixed", "unary-and-empty"])
def test_model_print_then_parse_is_the_identity(model):
    text = print_model(model)
    assert parse_model(text) == model
    assert print_model(parse_model(text)) == text


def test_true_0_ary_relation_is_written_holds():
    assert "rel T 0 holds\n" in print_model(Model(("a",), {"T": [()]}))
    assert parse_model("domain a\nrel T 0 holds\n").rel("T") == {()}
    assert parse_model("domain a\nrel F 0\n").rel("F") == frozenset()
    for bad in ("rel R 1 holds", "rel R 0 true", "rel R 0 holds x"):
        with pytest.raises(ModelError):
            parse_model("domain a\n%s\n" % bad)


def test_enumerate_models_counts():
    sig = Signature({"P": 1})
    models = list(enumerate_models(sig, 2))
    # domains of size 1 and 2: 2 + 4 interpretations of P
    assert len(models) == 6
    sig = Signature({}, constants=("c",))
    assert len(list(enumerate_models(sig, 2))) == 3


def test_team_rejects_ragged_rows():
    with pytest.raises(TeamError):
        Team(("x", "y"), [("0",)])
    with pytest.raises(TeamError):
        Team(("x", "x"), [("0", "0")])
    with pytest.raises(TeamError, match="row length 1 does not match 2"):
        Team(("x", "y"), [["0", "1"], ["0"]])
    with pytest.raises(TeamError, match="row length 3 does not match 2"):
        Team(("x", "y"), (r for r in [("0", "1"), ("0", "1", "1")]))
    with pytest.raises(TeamError, match="row length 1 does not match 2"):
        Team(("x", "y"), [(v for v in "0")])
    assert Team(("x", "y"), (list(r) for r in [("0", "1")])).rows == {("0", "1")}


def test_duplicate_extends_and_overwrites():
    X = Team(("x",), [("0",)])
    Y = duplicate(X, m2(), "y")
    assert Y.vars == ("x", "y")
    assert Y.rows == {("0", "0"), ("0", "1")}
    Z = duplicate(Y, m2(), "x")
    assert Z.rows == {("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")}


def test_supplement_requires_total_nonempty():
    X = Team(("x",), [("0",), ("1",)])
    Y = supplement(X, {("0",): {"1"}, ("1",): {"0", "1"}}, "y")
    assert Y.rows == {("0", "1"), ("1", "0"), ("1", "1")}
    with pytest.raises(TeamError):
        supplement(X, {("0",): {"1"}}, "y")
    with pytest.raises(TeamError):
        supplement(X, {("0",): set(), ("1",): {"0"}}, "y")


def test_rel():
    X = Team(("x", "y"), [("0", "1"), ("1", "1")])
    assert rel(X, ["y", "x"]) == {("1", "0"), ("1", "1")}
    assert rel(X, []) == {()}
    assert rel(Team(("x",), []), []) == set()


def test_restrict_collapses_duplicates():
    X = Team(("x", "y"), [("0", "0"), ("0", "1")])
    assert restrict(X, ("x",)).rows == {("0",)}


def test_all_teams_count_and_cap():
    teams = list(all_teams(m2(), ("x", "y")))
    assert len(teams) == 16
    with pytest.raises(TeamCapExceeded):
        list(all_teams(m2(), ("a", "b", "c", "d", "e")))


@pytest.mark.parametrize("domain, variables", [
    (("0", "1"), ("x", "y", "z")), (("0", "1", "2"), ("x", "y"))])
def test_all_teams_keeps_the_bit_mask_order(domain, variables):
    model = Model(domain)
    space = sorted(itertools.product(domain, repeat=len(variables)))
    n = len(space)
    masks = [Team(variables, [space[i] for i in range(n) if mask >> i & 1])
             for mask in range(1 << n)]
    assert list(all_teams(model, variables)) == masks


_M3 = Model(("0", "1", "2"))


@pytest.mark.parametrize("teams", [
    lambda: all_teams(m2(), ("x", "y", "z")),
    lambda: all_teams(_M3, ["x", "y"]),
    lambda: sample_teams(_M3, ("x", "y", "z"), 50, seed=7),
    lambda: sample_teams(m2(), ("x", "y"), 50, seed=2024),
    lambda: sample_small_teams(_M3, ("x", "y", "z"), 50, 5, seed=1),
], ids=["all-d2", "all-d3", "sample-7", "sample-2024", "sample-small"])
def test_generated_teams_equal_checked_teams(teams):
    """The generators skip Team's per-row checks; what they yield is still
    what the checked constructor builds from the same rows."""
    got = list(teams())
    assert got
    for X in got:
        checked = Team(X.vars, X.rows)
        assert X == checked and hash(X) == hash(checked)
        assert type(X.vars) is tuple and type(X.rows) is frozenset
        assert all(type(r) is tuple and len(r) == len(X.vars) for r in X.rows)


def _checked_with(X, x, pairs):
    """X[F/x] for F as (row, values) pairs, rebuilt row by row as dicts and
    through the checked constructor."""
    variables = X.vars if x in X.vars else X.vars + (x,)
    rows = []
    for r, values in pairs:
        for a in values:
            s = dict(zip(X.vars, r))
            s[x] = a
            rows.append(tuple(s[v] for v in variables))
    return Team(variables, rows)


def _same_team(got, want):
    assert got == want and hash(got) == hash(want)
    assert type(got.vars) is tuple and type(got.rows) is frozenset
    assert len(set(got.vars)) == len(got.vars)
    assert all(type(r) is tuple and len(r) == len(got.vars) for r in got.rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from([("0", "1"), ("0", "1", "2")]), st.data())
def test_derived_teams_equal_checked_teams(n_vars, domain, data):
    """set_var, duplicate, supplement and all_supplements build their teams
    without Team's checks, from a valid team; each is what the checked
    constructor builds from the same rows, with x a variable of the team or
    a fresh one."""
    variables = ("x", "y", "z")[:n_vars]
    space = list(itertools.product(domain, repeat=n_vars))
    X = Team(variables, data.draw(st.lists(st.sampled_from(space), max_size=4)))
    x = data.draw(st.sampled_from(variables + ("w",)))
    model = Model(domain)
    rows = sorted(X.rows)
    F = {r: data.draw(st.sets(st.sampled_from(domain), min_size=1)) for r in rows}
    _same_team(set_var(X, x, F.items()), _checked_with(X, x, F.items()))
    _same_team(supplement(X, F, x), _checked_with(X, x, F.items()))
    _same_team(duplicate(X, model, x), _checked_with(X, x, ((r, domain) for r in rows)))
    choices = [values for k in range(1, len(domain) + 1)
               for values in itertools.combinations(domain, k)]
    got = list(all_supplements(X, x, choices))
    want = [_checked_with(X, x, zip(rows, combo))
            for combo in itertools.product(choices, repeat=len(rows))]
    assert len(got) == len(want) == len(choices) ** len(rows)
    for Y, Z in zip(got, want):
        _same_team(Y, Z)


def test_generators_reject_duplicate_variables():
    for teams in (all_teams(m2(), ("x", "y", "x")),
                  sample_teams(m2(), ("x", "x"), 3, seed=1),
                  sample_small_teams(m2(), ("x", "x"), 3, 2, seed=1)):
        with pytest.raises(TeamError, match="duplicate variable"):
            next(teams)


def test_sample_teams_reproducible():
    a = list(sample_teams(m2(), ("x", "y"), 5, seed=7))
    b = list(sample_teams(m2(), ("x", "y"), 5, seed=7))
    assert a == b


def test_team_print_parse_round_trip():
    X = Team(("x", "y"), [("0", "1"), ("1", "1")])
    assert parse_team(print_team(X)) == X


def test_team_column():
    X = Team(("x", "y"), [("0", "1")])
    assert (X.column("x"), X.column("y")) == (0, 1)
    with pytest.raises(TeamError, match="unknown variable z"):
        X.column("z")
    with pytest.raises(TeamError, match="unknown variable x"):
        Team((), [()]).column("x")


def test_sample_teams_keeps_its_sequence():
    got = [sorted(X.rows) for X in sample_teams(m2(), ("x", "y"), 4, seed=7)]
    assert got == [[("0", "0"), ("0", "1"), ("1", "1")],
                   [("0", "1"), ("1", "0")],
                   [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
                   [("0", "0"), ("1", "0"), ("1", "1")]]
    got = [sorted(X.rows) for X in sample_teams(Model(("a", "b", "c")), ("x",), 3, seed=2024)]
    assert got == [[("a",), ("c",)], [("b",)], [("a",), ("b",)]]


def _drawn_one_by_one(model, variables, count, seed):
    """sample_teams's sequence as the draw-by-draw loop: one random() per
    sorted assignment, kept when below 1/2."""
    draw = random.Random(seed).random
    space = sorted(itertools.product(model.domain, repeat=len(variables)))
    return [frozenset(row for row in space if draw() < 0.5) for _ in range(count)]


def test_sample_teams_draws_as_one_random_call_per_assignment():
    for seed in range(50):
        for size in (1, 2, 3):
            model = Model(("a", "b", "c")[:size])
            for k in range(5):
                variables = ("x", "y", "z", "w")[:k]
                for count in (0, 1, 100):
                    got = [X.rows for X in sample_teams(model, variables, count, seed)]
                    assert got == _drawn_one_by_one(model, variables, count, seed), (
                        seed, size, k, count)


def test_sample_teams_draws_only_the_teams_taken(monkeypatch):
    """Taking k teams leaves the generator where k teams of the draw-by-draw
    loop leave it, and taking none creates no generator."""
    from teamlogic import team
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)
    monkeypatch.setattr(team, "random", types.SimpleNamespace(Random=Recorded))
    model, variables = Model(("a", "b", "c")), ("x", "y")  # 9 assignments
    for k in (0, 1, 2, 7):
        del made[:]
        teams = sample_teams(model, variables, 100, seed=3)
        taken = [X.rows for X in itertools.islice(teams, k)]
        assert taken == _drawn_one_by_one(model, variables, k, 3)
        if not k:
            assert made == []
            continue
        reference = random.Random(3)
        for _ in range(9 * k):
            reference.random()
        assert len(made) == 1 and made[0].getstate() == reference.getstate(), k


def test_parse_model_rejects_repeated_and_outside_constants():
    with pytest.raises(ModelError, match="constant c declared twice"):
        parse_model("domain a b\nconst c a\nconst c b\n")
    with pytest.raises(ModelError, match="constant c declared twice"):
        parse_model("domain a b\nconst c a\nconst c a\n")
    with pytest.raises(ModelError, match="constant c interpreted outside domain"):
        parse_model("domain a b\nconst c z\n")
    assert parse_model("domain a b\nconst c b\nconst d a\n").consts == {"c": "b", "d": "a"}


@pytest.mark.parametrize("text, message", [
    ("domain a b\nrel P 1\n  a\ndomain a c\n", "duplicate domain line: 'domain a c'"),
    ("domain a\ndomain a\n", "duplicate domain line: 'domain a'"),
    ("domain a b\nrel P x\n", "rel line needs a nonnegative integer arity: 'rel P x'"),
    ("domain a b\nrel P -1\n", "rel line needs a nonnegative integer arity: 'rel P -1'"),
    ("domain a b\nrel P +1\n  a\n", "rel line needs a nonnegative integer arity: 'rel P +1'"),
])
def test_parse_model_refuses_a_second_domain_and_a_bad_arity(text, message):
    with pytest.raises(ModelError) as refused:
        parse_model(text)
    assert str(refused.value) == message


@pytest.mark.parametrize("text, message", [
    ("domain a\nrel c 0 holds\nconst c a\n", "c declared as both a relation and a constant"),
    ("domain a\nconst c a\nrel c 0 holds\n", "c declared as both a relation and a constant"),
    ("domain a b\nconst P b\nrel P 1\n  a\n", "P declared as both a relation and a constant"),
    ("domain a b\nrel d 2\n  a b\nrel c 0\nconst c a\nconst d b\n",
     "c, d declared as both a relation and a constant"),
])
def test_parse_model_refuses_a_symbol_both_relation_and_constant(text, message):
    with pytest.raises(ModelError) as refused:
        parse_model(text)
    assert str(refused.value) == message


@st.composite
def _models(draw):
    domain = draw(st.lists(st.sampled_from(["a", "b", "e2"]), min_size=1, unique=True))
    names = draw(st.lists(st.sampled_from(["c", "d", "P", "R", "T"]), unique=True))
    split = draw(st.integers(0, len(names)))
    rels = {}
    for name in names[:split]:
        arity = draw(st.integers(0, 2))
        rels[name] = draw(st.lists(st.tuples(*[st.sampled_from(domain)] * arity)))
    consts = {name: draw(st.sampled_from(domain)) for name in names[split:]}
    return Model(tuple(domain), rels, consts)


@settings(max_examples=200, deadline=None)
@given(_models())
def test_printed_models_with_distinct_symbols_parse_back(model):
    text = print_model(model)
    assert parse_model(text) == model
    assert print_model(parse_model(text)) == text


_team_values = st.sampled_from(["0", "1", "a", "e2"])


@st.composite
def _teams(draw):
    variables = draw(st.lists(st.sampled_from(["x", "y", "z", "u$1", "w"]),
                              max_size=3, unique=True))
    row = st.tuples(*[_team_values] * len(variables))
    return Team(variables, draw(st.lists(row, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(_teams())
@example(Team(("x", "y"), []))
@example(Team((), []))
@example(Team((), [()]))
def test_team_print_then_parse_is_the_identity(X):
    text = print_team(X)
    assert parse_team(text) == X
    assert print_team(parse_team(text)) == text


def _checked_models(relations, constants, max_size):
    """The models that enumerate_models documents, each built by Model(...)
    with its checks: relation subsets in the order of the sorted tuple
    space, then constant values in the order e1, e2, ..."""
    names, consts = sorted(relations), sorted(constants)
    out = []
    for d in range(1, max_size + 1):
        domain = ["e%d" % i for i in range(1, d + 1)]
        choices = []
        for name in names:
            space = sorted(itertools.product(domain, repeat=relations[name]))
            choices.append([[t for i, t in enumerate(space) if mask >> i & 1]
                            for mask in range(1 << len(space))])
        for rels in itertools.product(*choices):
            for values in itertools.product(domain, repeat=len(consts)):
                out.append(Model(domain, dict(zip(names, rels)),
                                 dict(zip(consts, values))))
    return out


@pytest.mark.parametrize("relations, constants", [
    ({"R": 2}, ("c",)),
    ({"P": 1, "Q": 0}, ("c", "d")),
    ({"T": 0}, ()),
])
def test_enumerated_models_equal_checked_ones(relations, constants):
    models = list(enumerate_models(Signature(relations, constants), 3))
    assert models == _checked_models(relations, constants, 3)
    for m in models:
        assert type(m.domain) is tuple and type(m.consts) is dict
        assert all(type(r) is frozenset and all(type(t) is tuple for t in r)
                   for r in m.rels.values())
        assert parse_model(print_model(m)) == m


def test_an_enumerated_domain_is_sorted_as_model_sorts_it():
    *_, m = enumerate_models(Signature(), 10)
    assert m.domain == Model(["e%d" % i for i in range(1, 11)]).domain
    assert m.domain[:3] == ("e1", "e10", "e2")
