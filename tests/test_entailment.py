import pytest

from teamlogic.entailment import (EntailmentVerdict, entails_bounded,
                                  mentioned_signature)
from teamlogic.formula import (Const, Dep, Eq, Exists, FOAtom, Inc, Ind, Var,
                               free_vars)
from teamlogic.genatom import register_builtin_atoms
from teamlogic.parser import parse_formula
from teamlogic.semantics import eval_formula

x, y, z = Var("x"), Var("y"), Var("z")


def test_mentioned_signature():
    sig = mentioned_signature([Exists(x, FOAtom("P", (x,))),
                               Eq(x, Const("c")),
                               FOAtom("R", (x, y))])
    assert sig.relations == {"P": 1, "R": 2}
    assert set(sig.constants) == {"c"}


def test_mentioned_signature_sees_through_registered_atoms():
    from teamlogic.formula import Gen
    from teamlogic.genatom import make_fo
    d = make_fo("px", FOAtom("P", (x,)), (x,))
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
    # _reference asks eval_formula, one Evaluator.eval call per formula
    _reference(hs, c, 2, team_cap, 30, 2)
    assert searched == calls and len(calls) > 2


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
