import random

import pytest

from teamlogic.checks import (SUITES, gen_downward, gen_fo,
                              gen_full, gen_so_friendly, run_all, run_suite)
from teamlogic.parser import print_formula


def test_suite_registry_names():
    assert set(SUITES) == {
        "flatness", "union", "lem", "downward", "locality", "empty-team",
        "fo-negation", "atom-translation", "atom-complement",
        "so-correspondence", "definability", "team-constructions"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_small_run(name):
    res = run_suite(name, seed=11, runs=8)
    assert res.ok, res.summary()
    assert res.name == name
    assert res.failures == []
    assert "PASS" in res.summary()


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonesuch", seed=0, runs=1)


def test_a_negative_run_count_is_refused():
    # a negative count would run no check and read as a pass
    with pytest.raises(ValueError, match="runs must be 0 or positive, got -1"):
        run_suite("flatness", runs=-1)
    with pytest.raises(ValueError, match="runs must be 0 or positive, got -3"):
        run_all(runs=-3)


def test_run_all_covers_every_suite():
    results = run_all(seed=3, runs=2)
    assert {r.name for r in results} == set(SUITES)
    assert all(r.ok for r in results)


def test_runs_are_reproducible():
    a = run_suite("flatness", seed=9, runs=5)
    b = run_suite("flatness", seed=9, runs=5)
    assert a.runs == b.runs and a.failures == b.failures


# The first three draws of each generator at seed 2024 and the next 32 random
# bits after them, as the generators drew them before they shared one
# recursion; the benchmark's pools are drawn from these generators.
GENERATOR_DRAWS = [
    (gen_fo, ["!Q(y,x)", "(E z. P(z))", "Q(x,y)"], 3023913752),
    (gen_downward, ["(E x. (A z. (P(z) \\/ (z != z))))", "(E z. !Q(x,z))",
                    "((A x. (A y. =( ; y))) \\/ (E x. (A y. (y != x))))"], 173890558),
    (gen_full, ["(A x. (A1 z. (E z. !P(y))))", "(E y. (E1 z. !Q(x,z)))",
                "((A1 x. (A1 y. =( ; y))) || (E1 x. (A1 y. ind(x ; x ; x))))"], 3220834165),
    (gen_so_friendly, ["(A1 y. !Q(y,x))", "(A y. (A1 x. inc(y ; x)))",
                       "((A1 y. !P(x)) \\/ (E y. ind(y ;  ; y)))"], 1420887823),
]


@pytest.mark.parametrize("gen, draws, bits", GENERATOR_DRAWS,
                         ids=[gen.__name__ for gen, _, _ in GENERATOR_DRAWS])
def test_generator_draws_are_pinned(gen, draws, bits):
    rng = random.Random(2024)
    assert [print_formula(gen(rng)) for _ in draws] == draws
    assert rng.getrandbits(32) == bits
