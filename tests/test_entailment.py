import pytest

from teamlogic.entailment import (EntailmentVerdict, entails_bounded,
                                  mentioned_signature)
from teamlogic.formula import (Const, Dep, Eq, Exists, FOAtom, Inc, Ind, Var,
                               free_vars)
from teamlogic.genatom import register_builtin_atoms
from teamlogic.parser import parse_formula
from teamlogic.semantics import EvalBudget, eval_formula

x, y, z = Var("x"), Var("y"), Var("z")


def test_mentioned_signature():
    sig = mentioned_signature([Exists(x, FOAtom("P", (x,))),
                               Eq(x, Const("c")),
                               FOAtom("R", (x, y))])
    assert sig.relations == {"P": 1, "R": 2}
    assert set(sig.constants) == {"c"}


def test_mentioned_signature_sees_through_registered_atoms():
    from teamlogic.formula import Gen
    from teamlogic.genatom import PI, GeneralizedAtomDef, wvar
    d = GeneralizedAtomDef("px", PI, 1, (1,), 1, FOAtom("P", (wvar(1, 1, 1),)))
    sig = mentioned_signature([Gen("px", (y,))], registry={"px": d})
    assert sig.relations == {"P": 1}


def test_dependence_transitivity_is_valid():
    v = entails_bounded([Dep((x,), (y,)), Dep((y,), (z,))], Dep((x,), (z,)))
    assert v
    assert v.status == "ValidUpToBound"
    assert v.witness is None
    assert v.searched["models"] >= 1 and v.searched["teams"] > 0


def test_dependence_symmetry_has_a_counterexample():
    v = entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)))
    assert not v
    assert v.status == "Counterexample"
    model, X = v.witness
    assert eval_formula(model, X, Dep((x,), (y,)))
    assert not eval_formula(model, X, Dep((y,), (x,)))


def test_inclusion_transitivity_is_valid():
    assert entails_bounded([Inc((x,), (y,)), Inc((y,), (z,))], Inc((x,), (z,)))


def test_independence_symmetry_is_valid():
    assert entails_bounded([Ind((x,), (), (y,))], Ind((y,), (), (x,)))


def test_sampling_mode_reports_itself():
    # six variables exceed the exhaustive team cap; sampling kicks in
    hyp = parse_formula("=(a ; b)")
    con = parse_formula("inc(a,b,c,d ; e,f,a,b)")
    v = entails_bounded([hyp], con, samples=20, max_rows=3, seed=1)
    assert "sampled teams" in v.searched["notes"]


def test_a_negative_sample_count_is_refused():
    # a negative count would draw no team and read as valid after 0 teams
    with pytest.raises(ValueError, match="samples"):
        entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)), max_domain=3,
                        team_cap=0, samples=-5)


def test_a_negative_team_cap_is_refused():
    # a negative cap would sample every domain size, as a cap of 0 does
    with pytest.raises(ValueError, match="team_cap must be 0 or positive, got -3"):
        entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)), team_cap=-3)


def test_a_negative_row_bound_is_refused():
    with pytest.raises(ValueError, match="max_rows must be 0 or positive, got -1"):
        entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)), team_cap=0,
                        samples=5, max_rows=-1)
    # a bound of 0 rows is a search of empty teams, which every formula holds on
    assert entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)), team_cap=0,
                           samples=5, max_rows=0)


def test_a_domain_bound_below_one_is_refused():
    # the refusal names this function's parameter, not enumerate_models'
    with pytest.raises(ValueError, match="max_domain must be 1 or more, got 0"):
        entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)), max_domain=0)


def test_rule_soundness_check_delegates():
    assert entails_bounded([Dep((x,), (y,)), Dep((y,), (z,))],
                           Dep((x,), (z,)), max_domain=2)


def test_registry_flows_through():
    atoms = register_builtin_atoms()
    phi = parse_formula("dep1(x,y)", atoms=atoms)
    v = entails_bounded([phi], Dep((x,), (y,)), registry=atoms)
    assert v


def test_search_is_reported_per_domain_size():
    hyp, con = parse_formula("ind(x;z;y)"), parse_formula("ind(y;z;x)")
    v = entails_bounded([hyp], con, max_domain=3)
    by_size = v.searched["by_size"]
    # 1 and 8 assignments fit the team cap of 16, 27 do not
    assert by_size == {1: {"models": 1, "teams": 2, "sampled": False},
                       2: {"models": 1, "teams": 256, "sampled": False},
                       3: {"models": 1, "teams": 1000, "sampled": True}}
    assert v.searched["teams"] == 1258 and v.searched["models"] == 3
    assert v.searched["notes"] == ["sampled teams"]
    v = entails_bounded([Dep((x,), (y,))], Dep((y,), (x,)))
    assert not v
    assert sum(d["teams"] for d in v.searched["by_size"].values()) == v.searched["teams"]


# --- shared teams against a per-model literal reference ------------------------

def _reference(hypotheses, conclusion, max_domain, team_cap, samples, seed):
    """What entails_bounded answers, with the teams rebuilt for every model
    and every formula evaluated by the literal evaluator."""
    from teamlogic.model import enumerate_models
    from teamlogic.team import all_teams, sample_teams
    formulas = hypotheses + [conclusion]
    variables = sorted({v.name for phi in formulas for v in free_vars(phi)})
    n_models = n_teams = 0
    by_size = {}
    for model in enumerate_models(mentioned_signature(formulas), max_domain):
        n_models += 1
        size = by_size.setdefault(len(model.domain),
                                  {"models": 0, "teams": 0, "sampled": False})
        size["models"] += 1
        if len(model.domain) ** len(variables) <= team_cap:
            teams = all_teams(model, variables, cap=team_cap)
        else:
            teams = sample_teams(model, variables, samples, seed)
            size["sampled"] = True
        for X in teams:
            n_teams += 1
            size["teams"] += 1
            if (all(eval_formula(model, X, h, literal=True) for h in hypotheses)
                    and not eval_formula(model, X, conclusion, literal=True)):
                return "Counterexample", (model, X), n_models, n_teams, by_size
    return "ValidUpToBound", None, n_models, n_teams, by_size


@pytest.mark.parametrize("hyps, concl", [
    (["P(x)", "inc(y,z ; x,z)"], "P(y)"),
    (["P(x)", "inc(x,z ; y,z)"], "P(y)"),
    (["P(x)", "inc(y ; x)"], "P(y)"),
    (["!P(x)", "inc(y ; x)", "=(z ; y)"], "!P(y)"),
    (["P(x)"], "=(x ; y)"),
])
@pytest.mark.parametrize("max_domain", [2, 3])
@pytest.mark.parametrize("team_cap", [9, 0])  # exhaustive up to 9 assignments; all sampled
def test_shared_teams_match_a_per_model_literal_search(hyps, concl, max_domain, team_cap):
    hs, c = [parse_formula(h) for h in hyps], parse_formula(concl)
    v = entails_bounded(hs, c, max_domain=max_domain, team_cap=team_cap,
                        samples=40, seed=5)
    status, witness, models, teams, by_size = _reference(
        hs, c, max_domain, team_cap, 40, 5)
    assert (v.status, v.witness) == (status, witness)
    assert (v.searched["models"], v.searched["teams"]) == (models, teams)
    assert v.searched["by_size"] == by_size


def _count_draws(monkeypatch):
    from teamlogic import entailment
    calls, drawn = [], []
    real = entailment.sample_teams

    def counting(*args):
        calls.append(args)
        for X in real(*args):
            drawn.append(X)
            yield X
    monkeypatch.setattr(entailment, "sample_teams", counting)
    return calls, drawn


def test_a_counterexample_at_the_first_sampled_team_draws_one_team(monkeypatch):
    from teamlogic.formula import NegEq
    calls, drawn = _count_draws(monkeypatch)
    # at seed 1 the first sampled team holds the one assignment of domain size 1
    v = entails_bounded([], NegEq(x, x), max_domain=2, team_cap=0, samples=100, seed=1)
    assert v.status == "Counterexample" and v.witness[1] == drawn[0]
    assert (len(calls), len(drawn), v.searched["teams"]) == (1, 1, 1)


def test_models_of_one_domain_size_draw_their_teams_once(monkeypatch):
    calls, drawn = _count_draws(monkeypatch)
    p = FOAtom("P", (x,))
    v = entails_bounded([p], p, max_domain=2, team_cap=0, samples=5, seed=3)
    assert v.searched["by_size"] == {1: {"models": 2, "teams": 10, "sampled": True},
                                     2: {"models": 4, "teams": 20, "sampled": True}}
    assert len(calls) == 2 and len(drawn) == 10


def _count_built(monkeypatch):
    """Record the teams entails_bounded takes from all_teams.  The wrapper is
    a generator function, as a tracer's is, so a cap refusal from all_teams
    would surface only when the first team is taken."""
    from teamlogic import entailment
    calls, built = [], []
    real = entailment.all_teams

    def counting(*args, **kwargs):
        calls.append(args)
        for X in real(*args, **kwargs):
            built.append(X)
            yield X
    monkeypatch.setattr(entailment, "all_teams", counting)
    return calls, built


def test_exhaustive_search_builds_only_the_teams_it_tests(monkeypatch):
    calls, built = _count_built(monkeypatch)
    v = entails_bounded([parse_formula("=(x,y ; z)")], parse_formula("=(x ; z)"),
                        max_domain=2)
    assert not v and len(calls) == 2
    by_size = v.searched["by_size"]
    assert not by_size[1]["sampled"] and not by_size[2]["sampled"]
    # 2 teams at size 1, then up to the counterexample of the 256 at size 2
    assert len(built) == v.searched["teams"] < 2 + 256
    assert built[-1] == v.witness[1]


def test_an_over_cap_size_is_sampled_behind_a_generator_wrapper(monkeypatch):
    calls, built = _count_built(monkeypatch)
    hyp, con = parse_formula("ind(x;z;y)"), parse_formula("ind(y;z;x)")
    v = entails_bounded([hyp], con, max_domain=3, samples=20, seed=4)
    assert v
    assert v.searched["by_size"][3] == {"models": 1, "teams": 20, "sampled": True}
    assert [len(model.domain) for model, *_ in calls] == [1, 2]
    assert len(built) == 2 + 256


# --- evaluation order and search counts ---------------------------------------

def _record_evals(monkeypatch):
    """Record every Evaluator.eval call as (model, team, formula), in order;
    the class method is wrapped as the benchmark tracer wraps it."""
    from teamlogic.model import print_model
    from teamlogic.semantics import Evaluator
    calls = []
    real = Evaluator.eval

    def recording(self, X, phi):
        calls.append((print_model(self.model), X, phi))
        return real(self, X, phi)
    monkeypatch.setattr(Evaluator, "eval", recording)
    return calls


def _move_to_front_loop(hypotheses, conclusion, max_domain, team_cap, samples, seed):
    """The documented order rule as a plain loop, one eval_formula (one
    Evaluator.eval call) per test: the hypotheses, wanted to hold, then the
    conclusion, wanted to fail, in that order at first; the test that rules
    a team out moves to the front for the next team."""
    from teamlogic.model import enumerate_models
    from teamlogic.team import all_teams, sample_teams
    formulas = hypotheses + [conclusion]
    variables = sorted({v.name for phi in formulas for v in free_vars(phi)})
    order = [(h, True) for h in hypotheses] + [(conclusion, False)]
    for model in enumerate_models(mentioned_signature(formulas), max_domain):
        if len(model.domain) ** len(variables) <= team_cap:
            teams = all_teams(model, variables, cap=team_cap)
        else:
            teams = sample_teams(model, variables, samples, seed)
        for X in teams:
            for k, (phi, wanted) in enumerate(order):
                if eval_formula(model, X, phi) != wanted:
                    order.insert(0, order.pop(k))
                    break
            else:
                return


@pytest.mark.parametrize("hyps, concl, team_cap", [
    (["=(x;y)", "=(y;z)"], "=(x;z)", 16),
    (["=(x;y)"], "=(y;x)", 16),
    (["P(x)", "inc(x,z ; y,z)"], "P(y)", 16),
    (["=(x;y)", "=(y;z)"], "=(x;z)", 0),  # every team sampled
])
def test_the_search_evaluates_as_the_plain_loop_does(monkeypatch, hyps, concl, team_cap):
    hs, c = [parse_formula(h) for h in hyps], parse_formula(concl)
    calls = _record_evals(monkeypatch)
    entails_bounded(hs, c, max_domain=2, team_cap=team_cap, samples=30, seed=2)
    searched = calls[:]
    del calls[:]
    _move_to_front_loop(hs, c, 2, team_cap, 30, 2)
    assert searched == calls and len(calls) > 2


# inc(x;y) \/ inc(x;y) splits a team by the defining clause, which _TIGHT
# refuses on every team of two rows or more; on one row it holds iff x = y.
# At domain size 2 it rules out the team x = e1, y = e2 and so moves to the
# front, where the next team, of two rows, reaches it out of the given order.
_SPLIT, _ONE_ROW = "inc(x;y) \\/ inc(x;y)", "=(;x) /\\ =(;y)"
_TIGHT = EvalBudget(max_split_rows=1)


def _count_raises(monkeypatch):
    """Record the BudgetExceeded that Evaluator.eval raises."""
    from teamlogic.semantics import BudgetExceeded, Evaluator
    raised = []
    real = Evaluator.eval

    def counting(self, X, phi):
        try:
            return real(self, X, phi)
        except BudgetExceeded as e:
            raised.append((X, str(e)))
            raise
    monkeypatch.setattr(Evaluator, "eval", counting)
    return raised


def test_a_test_before_the_raising_one_in_the_given_order_answers(monkeypatch):
    # the given order asks =(;x) /\ =(;y) first, which rules out every
    # team of two rows or more before the split is asked
    hs, c = [parse_formula(_ONE_ROW), parse_formula(_SPLIT)], parse_formula("x = y")
    raised = _count_raises(monkeypatch)
    v = entails_bounded(hs, c, max_domain=2, team_cap=16, budget=_TIGHT)
    assert raised and all(len(X.rows) >= 2 for X, _ in raised)
    status, witness, models, teams, by_size = _reference(hs, c, 2, 16, 0, 0)
    assert (v.status, v.witness) == (status, witness)
    assert (v.searched["models"], v.searched["teams"]) == (models, teams)
    assert v.searched["by_size"] == by_size


def test_the_search_raises_where_the_given_order_raises(monkeypatch):
    from teamlogic.semantics import BudgetExceeded
    # the split comes first in the given order too; on the first two-row
    # team the conclusion stands ahead of =(x;y), out of the given order
    hs, c = [parse_formula(_SPLIT), parse_formula("=(x;y)")], parse_formula("x = y")
    raised = _count_raises(monkeypatch)
    with pytest.raises(BudgetExceeded) as e:
        entails_bounded(hs, c, max_domain=2, team_cap=16, budget=_TIGHT)
    # the split raised out of the given order, then again in it on that team
    (X, first), (Y, second) = raised
    assert X == Y and first == second == str(e.value)


def _cli_search(hyps, concl):
    """entails_bounded as `teamlogic entail --max-domain 3` runs it."""
    return entails_bounded([parse_formula(h) for h in hyps], parse_formula(concl),
                           max_domain=3, team_cap=16, samples=0, seed=0,
                           registry=register_builtin_atoms())


def test_counts_add_up_over_several_models_per_domain_size():
    v = _cli_search(["P(x)", "inc(y,z ; x,z)"], "P(y)")
    assert v
    assert (v.searched["models"], v.searched["teams"]) == (14, 9028)
    assert v.searched["by_size"] == {
        1: {"models": 2, "teams": 4, "sampled": False},
        2: {"models": 4, "teams": 1024, "sampled": False},
        3: {"models": 8, "teams": 8000, "sampled": True}}


def test_counts_include_the_models_before_a_counterexample():
    from teamlogic.model import print_model
    from teamlogic.team import print_team
    v = _cli_search(["P(x)", "inc(x,z ; y,z)"], "P(y)")
    assert not v
    # the first model of domain size 2 passes all its 256 teams; the second
    # fails at its sixth
    assert (v.searched["models"], v.searched["teams"]) == (4, 266)
    assert v.searched["by_size"] == {
        1: {"models": 2, "teams": 4, "sampled": False},
        2: {"models": 2, "teams": 262, "sampled": False}}
    assert v.searched["notes"] == []
    model, X = v.witness
    assert print_model(model) + print_team(X) == (
        "domain e1 e2\nrel P 1\n  e1\nvars x y z\nrow e1 e1 e1\nrow e1 e2 e1\n")


# --- one model per domain size, and symbols used with two arities ------------

# Two constants and no relation: 1 model at domain size 1 and 4 at size 2,
# which share their size's teams.  x = c rules out most teams first, then
# =(x;y) and the conclusion take turns at the front.
_CONSTS = ([Eq(x, Const("c")), Dep((x,), (y,))], Dep((y,), (x,)))
_CONSTS_COUNTER = ([Eq(x, Const("c")), Eq(y, Const("d"))], Eq(x, y))


@pytest.mark.parametrize("hs, c", [_CONSTS, _CONSTS_COUNTER])
@pytest.mark.parametrize("team_cap", [16, 0])
def test_models_sharing_only_constants_replay_the_teams(monkeypatch, hs, c, team_cap):
    assert mentioned_signature(hs + [c]).relations == {}
    calls = _record_evals(monkeypatch)
    v = entails_bounded(hs, c, max_domain=2, team_cap=team_cap, samples=30, seed=2)
    searched = calls[:]
    del calls[:]
    _move_to_front_loop(hs, c, 2, team_cap, 30, 2)
    assert searched == calls and len(calls) > 2
    assert len({model for model, _, _ in calls}) > 2
    status, witness, models, teams, by_size = _reference(hs, c, 2, team_cap, 30, 2)
    assert (v.status, v.witness) == (status, witness)
    assert (v.searched["models"], v.searched["teams"]) == (models, teams)
    assert v.searched["by_size"] == by_size


@pytest.mark.parametrize("hyp, concl", [
    ("P(x)", "P(x,y)"),
    ("P(x,y)", "P(x)"),
    ("!P(x,y)", "P(x)"),
    ("P(x)", "!P(x,y)"),
])
def test_a_relation_used_with_two_arities_is_refused(hyp, concl):
    # the last arity met would be the only one the models interpret, so the
    # other atom would be false on every nonempty team
    with pytest.raises(ValueError, match="^relation P is used with arities 1 and 2$"):
        entails_bounded([parse_formula(hyp)], parse_formula(concl), max_domain=2)
    with pytest.raises(ValueError, match="arities 1 and 2"):
        mentioned_signature([parse_formula("P(x) /\\ E y. !P(x,y)")])
