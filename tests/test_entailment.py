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
