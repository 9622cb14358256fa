"""Translation of team-semantics formulas into existential second-order
sentences over a relation symbol carrying the team, plus a brute-force
checker for such sentences, which compiles the first-order matrix once and
sets each interpretation of a second-order symbol in place, with
eval_single on the expanded model as its oracle.

The translation threads a "member" callback: given terms aligned with the
sorted free variables of the current subformula, it returns a first-order
formula expressing that some row of the current team takes those values.
Each clause rewrites the callback to reflect how the team evolves
(supplementation, duplication, splitting), introducing a fresh second-order
relation variable wherever the defining clause quantifies over a team.
"""

import itertools

from .formula import (And, BoolOr, Eq, Exists, Exists1, FOAtom, Forall,
                      Forall1, Gen, Implies, Inc, Ind, NegFOAtom, SplitOr, Top,
                      Var, WNeg, children, conj, exists_block, forall_block,
                      fresh_var, is_first_order, rebuild, sorted_free_vars,
                      terms)
from .genatom import atom_def_of, eso_atom_matrix
from .model import ModelError, expand_with_relation
from .team import rel as team_rel


class EsoError(ValueError):
    pass


class EsoCapExceeded(EsoError):
    pass


class ESOFormula:
    """A block of existential second-order quantifiers over a first-order
    matrix.  so_vars is a tuple of (symbol, arity) pairs."""

    def __init__(self, so_vars, matrix):
        self.so_vars = tuple(so_vars)
        if not is_first_order(matrix):
            raise EsoError("matrix must be first-order")
        self.matrix = matrix

    def __repr__(self):
        return "ESOFormula(%r, %r)" % (self.so_vars, self.matrix)


def print_eso(psi):
    from .parser import print_formula
    prefix = "".join("E2 %s/%d. " % (sym, ar) for sym, ar in psi.so_vars)
    return prefix + print_formula(psi.matrix)


# --- the translation ----------------------------------------------------------


def tau(phi, sym="R", registry=None):
    """The second-order translation of phi over the team relation symbol
    `sym`, whose arity is the number of free variables of phi (0 for
    sentences, where the relation holds the empty tuple iff the team is
    nonempty)."""
    fv = _fv(phi)
    so, matrix = _tau(phi, fv, lambda ts: FOAtom(sym, tuple(ts)), registry)
    return ESOFormula(so, matrix)


def _tau(phi, fv, member, registry):
    """fv: sorted free-variable names of phi; member: terms aligned with fv
    -> row-membership formula.  Returns (so_vars, first-order matrix)."""
    if is_first_order(phi):
        us = [Var(v) for v in fv]
        return (), forall_block(us, Implies(member(us), phi))
    if isinstance(phi, (Ind, Inc)) and not terms(phi):
        return (), Top()  # without arguments the atom holds on every team
    pair = atom_def_of(phi)
    if isinstance(phi, Gen):
        if not registry or phi.atom_name not in registry:
            raise EsoError("unregistered atom %s" % phi.atom_name)
        pair = registry[phi.atom_name], phi.args
    if pair is not None:
        d, args = pair
        return (), eso_atom_matrix(d, _atom_member(args, fv, member))
    if isinstance(phi, (And, BoolOr)):
        so1, m1 = _tau(phi.l, _fv(phi.l), _project(member, fv, _fv(phi.l)), registry)
        so2, m2 = _tau(phi.r, _fv(phi.r), _project(member, fv, _fv(phi.r)), registry)
        joined = And(m1, m2) if isinstance(phi, And) else SplitOr(m1, m2)
        return so1 + so2, joined
    if isinstance(phi, SplitOr):
        return _tau_split(phi, fv, member, registry)
    if isinstance(phi, Exists):
        return _tau_exists(phi, fv, member, registry)
    if isinstance(phi, Forall):
        fvb = _fv(phi.body)
        sub = _drop_coordinate(member, fv, fvb, phi.v.name)
        return _tau(phi.body, fvb, sub, registry)
    if isinstance(phi, Exists1):
        return _tau_single(phi, fv, member, registry, existential=True)
    if isinstance(phi, Forall1):
        return _tau_single(phi, fv, member, registry, existential=False)
    if isinstance(phi, WNeg):
        raise EsoError("weak negation has no existential second-order "
                       "translation; synthesize it away first")
    raise EsoError("cannot translate %r" % (phi,))


def _fv(phi):
    return [v.name for v in sorted_free_vars(phi)]


def _project(member, fv, sub_fv):
    """Adapt a membership test over fv to one over sub_fv (a subset):
    the dropped coordinates are filled existentially."""
    if fv == sub_fv:
        return member

    def adapted(ts):
        lookup = dict(zip(sub_fv, ts))
        extras = []
        full = []
        for v in fv:
            if v in lookup:
                full.append(lookup[v])
            else:
                q = fresh_var("q")
                extras.append(q)
                full.append(q)
        return exists_block(extras, member(full))

    return adapted


def _drop_coordinate(member, fv, fvb, x):
    """Membership for the body of a universal quantifier: the x coordinate
    takes every value, the rest must come from a row."""
    rest = [v for v in fvb if v != x]

    def adapted(ts):
        lookup = dict(zip(fvb, ts))
        return _project(member, fv, rest)([lookup[v] for v in rest])

    return adapted


def _atom_member(args, fv, member):
    """Membership aligned with an atom's argument positions (repetitions
    allowed): equal arguments force equal coordinates, and the membership
    test runs on one representative per variable."""
    names = [a.name for a in args]
    first = {}
    for i, v in enumerate(names):
        first.setdefault(v, i)

    def adapted(ts):
        reps = {v: ts[i] for v, i in first.items()}
        eqs = [Eq(ts[i], reps[v]) for i, v in enumerate(names) if first[v] != i]
        return conj(eqs + [member([reps[v] for v in fv])])

    return adapted


def _tau_split(phi, fv, member, registry):
    fvl, fvr = _fv(phi.l), _fv(phi.r)
    sl = fresh_var("S").name
    sr = fresh_var("S").name
    so1, m1 = _tau(phi.l, fvl, lambda ts: FOAtom(sl, tuple(ts)), registry)
    so2, m2 = _tau(phi.r, fvr, lambda ts: FOAtom(sr, tuple(ts)), registry)
    vs = [Var(v) for v in fv]
    lookup = dict(zip(fv, vs))
    cover = forall_block(vs, Implies(member(vs), SplitOr(
        FOAtom(sl, tuple(lookup[v] for v in fvl)),
        FOAtom(sr, tuple(lookup[v] for v in fvr)))))
    guards = []
    for s, fvs in ((sl, fvl), (sr, fvr)):
        us = [fresh_var("u") for _ in fvs]
        guards.append(forall_block(us, Implies(
            FOAtom(s, tuple(us)), _project(member, fv, fvs)(us))))
    matrix = conj([m1, m2, cover] + guards)
    return ((sl, len(fvl)), (sr, len(fvr))) + so1 + so2, matrix


def _tau_exists(phi, fv, member, registry):
    x = phi.v.name
    fvb = _fv(phi.body)
    if x not in fvb:
        # the supplemented value is never consulted; the body sees the team
        # restricted to its own free variables
        return _tau(phi.body, fvb, _project(member, fv, fvb), registry)
    s = fresh_var("S").name
    so, m = _tau(phi.body, fvb, lambda ts: FOAtom(s, tuple(ts)), registry)
    p = fvb.index(x)
    rest = [v for v in fvb if v != x]
    vs = [Var(v) for v in rest]
    xh = fresh_var("xh")
    with_x = [Var(v) if v != x else xh for v in fvb]
    cover = forall_block(vs, Implies(
        _project(member, fv, rest)(vs),
        Exists(xh, FOAtom(s, tuple(with_x)))))
    us = [fresh_var("u") for _ in fvb]
    guard = forall_block(us, Implies(
        FOAtom(s, tuple(us)),
        _project(member, fv, rest)([u for i, u in enumerate(us) if i != p])))
    return ((s, len(fvb)),) + so, conj([m, cover, guard])


def _tau_single(phi, fv, member, registry, existential):
    x = phi.v.name
    fvb = _fv(phi.body)
    xh = fresh_var("xh")
    if x not in fvb:
        sub = _project(member, fv, fvb)
    else:
        rest = [v for v in fvb if v != x]
        p = fvb.index(x)

        def sub(ts):
            return And(_project(member, fv, rest)(
                [t for i, t in enumerate(ts) if i != p]), Eq(ts[p], xh))

    so, m = _tau(phi.body, fvb, sub, registry)
    if not existential and so:
        # the body's second-order witnesses may depend on the universally
        # quantified value: give each relation an extra coordinate for it
        m = _add_parameter(m, {sym for sym, _ in so}, xh)
        so = tuple((sym, ar + 1) for sym, ar in so)
    return so, (Exists(xh, m) if existential else Forall(xh, m))


def _add_parameter(phi, names, t):
    """Append the term t to every occurrence of the named relations."""
    if isinstance(phi, (FOAtom, NegFOAtom)):
        return type(phi)(phi.rel, phi.args + (t,)) if phi.rel in names else phi
    kids = children(phi)
    return (rebuild(phi, [_add_parameter(c, names, t) for c in kids], terms(phi))
            if kids else phi)


# --- evaluation ---------------------------------------------------------------


def eval_eso(model, psi, max_combos=1 << 22):
    """Truth of an existential second-order sentence by enumerating every
    interpretation of the second-order variables.

    The matrix is compiled once (semantics._SingleCompiler), and each
    second-order symbol reads one cell, which the enumeration sets in place:
    the first symbol outermost, its interpretations in increasing mask
    order.  eval_single on the model that expand_with_relation extends by
    each interpretation is the oracle: the same verdict, and the same
    errors in the same order."""
    from .semantics import _SingleCompiler
    total = 1
    spaces = []
    for sym, arity in psi.so_vars:
        n = len(model.domain) ** arity
        total *= 2 ** n
        if total > max_combos:
            raise EsoCapExceeded(
                "%d second-order interpretations exceed the cap of %d"
                % (total, max_combos))
        spaces.append(sorted(itertools.product(model.domain, repeat=arity)))
    symbols = [sym for sym, _ in psi.so_vars]
    for i, sym in enumerate(symbols):
        if sym in model.rels or sym in model.consts or sym in symbols[:i]:
            raise ModelError("symbol %s already interpreted" % sym)  # as expand_with_relation
    compiler = _SingleCompiler(model, relations=symbols)
    run, env = compiler.formula(psi.matrix, compiler.scope), compiler.env

    def rec(i):
        if i == len(spaces):
            return run()
        space = spaces[i]
        for mask in range(1 << len(space)):
            env[i] = frozenset([space[j] for j in range(len(space)) if mask >> j & 1])
            if rec(i + 1):
                return True
        return False

    return rec(0)


def check_correspondence(model, X, phi, registry=None, budget=None,
                         sym=None, max_combos=1 << 22):
    """Does team satisfaction of phi agree with truth of its second-order
    translation over the team relation?  Returns the boolean comparison."""
    from .semantics import eval_formula
    if sym is None:
        sym = fresh_var("R").name
    fv = _fv(phi)
    psi = tau(phi, sym, registry)
    expanded = expand_with_relation(model, sym, team_rel(X, fv))
    lhs = eval_formula(model, X, phi, registry, budget)
    rhs = eval_eso(expanded, psi, max_combos)
    return lhs == rhs
