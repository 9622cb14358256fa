"""Synthesis of the weak classical negation inside the base language.

Weak negation is expressible only for the negatable fragment: first-order
formulas, the dependence / independence / inclusion atoms, generalized atoms
whose first-order defining formula is in the registry, closed under
conjunction, Boolean disjunction, the single-value quantifiers, and weak
negation itself.
is_negatable_fragment recognizes that fragment syntactically; wneg carries
out the synthesis.
"""

from .formula import (And, Bot, BoolOr, Dep, Exists1, Forall1, Gen, Inc, Ind,
                      Var, WNeg, children, exists_block, fo_negate, free_names,
                      is_first_order, substitute, terms)
from .genatom import atom_def_of, complement, sigma_pi_translate


class NotNegatableError(ValueError):
    def __init__(self, report):
        super().__init__("formula outside the negatable fragment: %s" % report.reason)
        self.report = report


class NegatableReport:
    def __init__(self, in_fragment, reason):
        self.in_fragment = in_fragment
        self.reason = reason

    def __bool__(self):
        return self.in_fragment


def is_negatable_fragment(phi, registry=None):
    if is_first_order(phi):
        return NegatableReport(True, "first-order")
    if isinstance(phi, (Dep, Ind, Inc)):
        return NegatableReport(True, "dependency atom")
    if isinstance(phi, Gen):
        if registry is None or phi.atom_name not in registry:
            return NegatableReport(False, "unregistered atom %s" % phi.atom_name)
        return NegatableReport(True, "generalized atom")
    if isinstance(phi, (And, BoolOr, Exists1, Forall1, WNeg)):
        for sub in children(phi):
            rep = is_negatable_fragment(sub, registry)
            if not rep:
                return rep
        return NegatableReport(True, "closure under %s" % type(phi).__name__)
    return NegatableReport(False, "offending subformula %r" % (phi,))


def wneg(phi, registry=None):
    """A formula of the base language equivalent to the weak classical
    negation of phi (true on the empty team, elsewhere the complement)."""
    rep = is_negatable_fragment(phi, registry)
    if not rep:
        raise NotNegatableError(rep)
    return _wneg(phi, registry)


_DUALS = {And: BoolOr, BoolOr: And, Exists1: Forall1, Forall1: Exists1}


def _wneg(phi, registry):
    if is_first_order(phi):
        return _wneg_fo(phi)
    if isinstance(phi, (Ind, Inc)) and not terms(phi):
        # without arguments the atom holds on every team, so its weak
        # negation holds on the empty team only
        return Bot()
    pair = ((registry[phi.atom_name], phi.args) if isinstance(phi, Gen)
            else atom_def_of(phi))
    if pair is not None:
        d, args = pair
        return sigma_pi_translate(complement(d), list(args))
    dual = _DUALS.get(type(phi))
    if dual is not None:
        # the dual connective, over the same variable (if any) and the
        # weak negations of the subformulas
        return dual(*terms(phi), *(_wneg(c, registry) for c in children(phi)))
    if isinstance(phi, WNeg):
        # double weak negation collapses: both sides are true on the empty
        # team, and on nonempty teams the two complements cancel
        return phi.body
    raise AssertionError("unreachable: %r" % (phi,))


def _wneg_fo(phi):
    """A nonempty team fails a first-order formula iff some row does, i.e.
    iff some value combination of the team refutes it: quantify a fresh copy
    of the free variables, included in the originals, satisfying the
    negation."""
    used = free_names(phi)
    xs = list(map(Var, sorted(used)))
    if not xs:
        return fo_negate(phi)
    ws = []
    i = 1
    while len(ws) < len(xs):
        name = "w$0$%d" % i
        if name not in used:
            ws.append(Var(name))
        i += 1
    renamed = substitute(phi, {x: w for x, w in zip(xs, ws)})
    return exists_block(ws, And(Inc(tuple(ws), tuple(xs)), fo_negate(renamed)))
