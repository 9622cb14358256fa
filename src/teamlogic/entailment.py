"""Bounded semantic entailment: exhaust finite models and teams looking for
a counterexample.  A positive answer is only ever "valid up to the bound";
a counterexample is conclusive and is reported with its witness.

A team is a counterexample when it passes every test: each hypothesis must
hold on it and the conclusion must fail.  The search tries first the test
that last ruled a team out (move-to-front), which changes only how many
evaluations a team costs: the models and teams visited, their order, the
counts and the witness are those of testing in the given order.
"""

import copy
import itertools

from .formula import Const, FOAtom, Gen, NegFOAtom, free_names, subformulas, terms
from .model import Signature, enumerate_models
from .semantics import EvalBudget, EvalError, Evaluator
from .team import all_teams, sample_small_teams, sample_teams

VALID_UP_TO_BOUND = "ValidUpToBound"
COUNTEREXAMPLE = "Counterexample"


class EntailmentVerdict:
    def __init__(self, status, witness, searched):
        self.status = status
        self.witness = witness  # (model, team) for a counterexample
        self.searched = searched  # dict with model/team counts and notes

    def __bool__(self):
        return self.status == VALID_UP_TO_BOUND

    def __repr__(self):
        return "EntailmentVerdict(%s, searched=%r)" % (self.status, self.searched)


def mentioned_signature(formulas, registry=None):
    """Relations and constants occurring in the formulas.  Generalized atoms
    contribute the relations of their defining formulas."""
    rels = {}
    consts = set()

    def walk(phi):
        for node in subformulas(phi):
            if isinstance(node, (FOAtom, NegFOAtom)):
                rels[node.rel] = len(node.args)
            if isinstance(node, Gen) and registry and node.atom_name in registry:
                walk(registry[node.atom_name].phiR)
            consts.update(t.name for t in terms(node) if isinstance(t, Const))

    for phi in formulas:
        walk(phi)
    return Signature(rels, consts)


def _ruling_out(ev, X, tests):
    """Position in tests of the first (formula, wanted) pair whose value on
    X is not the wanted one, or None when X passes them all."""
    for k, (phi, wanted) in enumerate(tests):
        if ev(X, phi) != wanted:
            return k
    return None


def entails_bounded(hypotheses, conclusion, max_domain=2, team_cap=16,
                    samples=0, seed=0, max_rows=None, registry=None,
                    budget=None):
    """Search all models up to max_domain over the mentioned signature and,
    per model, all teams over the union of free variables, or, when that
    space has more than team_cap assignments, `samples` random teams (1000
    when samples is 0), with at most max_rows rows each if max_rows is set.
    A max_domain below 1 or a negative team_cap, samples or max_rows is
    refused (ValueError).

    The teams depend on the domain only, so the models of one domain size
    share them: the first model builds them lazily, up to a counterexample,
    and the later ones replay the built teams and build on.

    `searched` counts the models and teams tried, in total and, under
    "by_size", per domain size, where "sampled" says whether that size's
    teams were sampled rather than enumerated.

    Each team is tested against the hypotheses, each wanted to hold, and
    then the conclusion, wanted to fail; the first test whose value differs
    from the wanted one rules the team out, and a team that passes every
    test is the witness.  The tests start in that given order, and a test
    that rules a team out moves to the front for the next team, for the
    rest of this call.  Whether a team passes every test does not depend
    on the order, so the verdict, the witness and `searched` do not either.
    If an evaluation raises EvalError (BudgetExceeded included) while the
    tests are out of the given order, the team is tested again in the given
    order: the search raises only on a team where the given order raises
    too, and it may answer where the given order would have given up,
    since another test ruled the team out first."""
    if max_domain < 1:
        raise ValueError("max_domain must be 1 or more, got %d" % max_domain)
    if samples < 0:
        raise ValueError("samples must be 0 (the default) or positive, got %d"
                         % samples)
    if team_cap < 0:
        raise ValueError("team_cap must be 0 or positive, got %d" % team_cap)
    if max_rows is not None and max_rows < 0:
        raise ValueError("max_rows must be 0 or positive, got %d" % max_rows)
    formulas = list(hypotheses) + [conclusion]
    given = [(h, True) for h in formulas[:-1]] + [(conclusion, False)]
    order = given[:]
    sig = mentioned_signature(formulas, registry)
    variables = sorted(set().union(*map(free_names, formulas)))
    budget = budget or EvalBudget()
    n_models = n_teams = 0
    notes = []
    by_size = {}
    shared = {}  # domain -> (teams, sampled)
    witness = None
    for model in enumerate_models(sig, max_domain):
        n_models += 1
        size = by_size.setdefault(len(model.domain),
                                  {"models": 0, "teams": 0, "sampled": False})
        size["models"] += 1
        if model.domain not in shared:
            # decided up front: the teams are built lazily, so all_teams
            # would raise TeamCapExceeded only when the first team is taken
            sampled = len(model.domain) ** len(variables) > team_cap
            if not sampled:
                teams = all_teams(model, variables, cap=team_cap)
            elif max_rows is not None:
                teams = sample_small_teams(model, variables, samples or 1000,
                                           max_rows, seed)
            else:
                teams = sample_teams(model, variables, samples or 1000, seed)
            shared[model.domain] = itertools.tee(teams, 1)[0], sampled
        teams, sampled = shared[model.domain]
        if sampled:
            size["sampled"] = True
            if "sampled teams" not in notes:
                notes.append("sampled teams")
        ev = Evaluator(model, registry, budget).eval
        n = 0
        # the shared tee iterator is never advanced: a copy of it starts at
        # the first team and shares the buffer of the teams drawn so far
        for n, X in enumerate(copy.copy(teams), 1):
            try:  # _ruling_out(ev, X, order), inline
                for k, (phi, wanted) in enumerate(order):
                    if ev(X, phi) != wanted:
                        break
                else:
                    k = None
            except EvalError:
                if order == given:
                    raise
                k = _ruling_out(ev, X, given)
                if k is not None:
                    k = order.index(given[k])
            if k is None:
                witness = (model, X)
                break
            if k:
                order.insert(0, order.pop(k))
        n_teams += n
        size["teams"] += n
        if witness is not None:
            break
    return EntailmentVerdict(
        VALID_UP_TO_BOUND if witness is None else COUNTEREXAMPLE, witness,
        {"models": n_models, "teams": n_teams, "notes": notes,
         "by_size": by_size})
