"""Generalized quantifier-prefix atoms.

An atom is described by a polarity (sigma = the alternation starts with
"exists", pi = it starts with "for all"), a number of rounds n, a tuple
k = (k_1 .. k_n) saying how many team rows each round picks, an argument
arity m, and a first-order formula phiR over the reserved grid variables
w$i$j$l (round i, row j of that round, coordinate l) defining the relation
the picked rows are tested against.

The module provides direct evaluation of such atoms, complementation,
the translation into the base language (inclusion + independence atoms),
the first-order sentence over a team relation symbol that expresses an atom,
and the two team constructions used to justify the translation.
"""

import functools
import itertools
import re

from .formula import (And, Dep, Eq, Implies, Inc, Ind, Top, Var, conj,
                      exists_block, fo_negate, forall_block, free_names,
                      is_first_order)
from .team import Team, rel as team_rel

SIGMA = "sigma"
PI = "pi"

_GRID_RE = re.compile(r"w\$(\d+)\$(\d+)\$(\d+)$")


class AtomDefError(ValueError):
    pass


@functools.cache
def wvar(i, j, l):
    """The grid variable for round i, row j, coordinate l (all 1-based).
    Pure, and Vars are immutable, so each is built once per process."""
    return Var("w$%d$%d$%d" % (i, j, l))


class GeneralizedAtomDef:
    def __init__(self, name, polarity, n, k, m, phiR):
        if polarity not in (SIGMA, PI):
            raise AtomDefError("polarity must be %r or %r" % (SIGMA, PI))
        if n < 1 or len(k) != n or any(ki < 1 for ki in k):
            raise AtomDefError("need n >= 1 round sizes, all positive")
        if m < 1:
            raise AtomDefError("argument arity m must be positive")
        if not is_first_order(phiR):
            raise AtomDefError("defining formula must be first-order")
        grid = {wvar(i, j, l).name
                for i in range(1, n + 1)
                for j in range(1, k[i - 1] + 1)
                for l in range(1, m + 1)}
        stray = free_names(phiR) - grid
        if stray:
            raise AtomDefError("defining formula mentions non-grid variables %s"
                               % sorted(stray))
        self.name = name
        self.polarity = polarity
        self.n = n
        self.k = tuple(k)
        self.m = m
        self.phiR = phiR
        self._complement = None

    def group_vars(self, i):
        """The grid variables of round i, row-major."""
        return [wvar(i, j, l)
                for j in range(1, self.k[i - 1] + 1)
                for l in range(1, self.m + 1)]

    def row_vars(self, i, j):
        return [wvar(i, j, l) for l in range(1, self.m + 1)]

    def __repr__(self):
        return ("GeneralizedAtomDef(%r, %r, n=%d, k=%r, m=%d)"
                % (self.name, self.polarity, self.n, self.k, self.m))


def round_is_existential(polarity, i):
    return (i % 2 == 1) == (polarity == SIGMA)


# --- direct evaluation --------------------------------------------------------


def eval_direct(model, X, d, args):
    """The alternation clause: round i picks k_i rows of X (existentially or
    universally, by parity and polarity) and the argument values of all picked
    rows are finally tested against the defining relation."""
    if len(args) != d.m:
        raise AtomDefError("atom %s expects %d arguments, got %d"
                           % (d.name, d.m, len(args)))
    if X.is_empty():
        return True
    values = sorted(team_rel(X, [v.name for v in args]))

    def rec(i, env):
        if i > d.n:
            from .semantics import eval_single
            return eval_single(model, env, d.phiR)
        combos = itertools.product(values, repeat=d.k[i - 1])
        branch = any if round_is_existential(d.polarity, i) else all
        return branch(rec(i + 1, _bind(env, d, i, tup)) for tup in combos)

    return rec(1, {})


def _bind(env, d, i, rows):
    out = dict(env)
    for j, row in enumerate(rows, start=1):
        for l, a in enumerate(row, start=1):
            out[wvar(i, j, l).name] = a
    return out


# --- complementation ----------------------------------------------------------


def complement(d):
    """The weak negation of the atom: dual polarity, complemented relation.
    Built once per definition and kept on it: a definition's fields do not
    change after __init__."""
    if d._complement is None:
        pol = PI if d.polarity == SIGMA else SIGMA
        d._complement = GeneralizedAtomDef("co_" + d.name, pol, d.n, d.k, d.m,
                                           fo_negate(d.phiR))
    return d._complement


# --- builtin atom constructions -----------------------------------------------
# make_dep, make_ind and make_inc are pure and nothing changes a definition
# once built, so each definition is built once per process.


@functools.cache
def make_dep(k):
    """Dependence =(x_1..x_k ; y) as a pi atom with one round of two rows."""
    m = k + 1
    ante = conj([Eq(wvar(1, 1, l), wvar(1, 2, l)) for l in range(1, k + 1)])
    phi = Implies(ante, Eq(wvar(1, 1, m), wvar(1, 2, m))) if k else \
        Eq(wvar(1, 1, m), wvar(1, 2, m))
    return GeneralizedAtomDef("dep%d" % k, PI, 1, (2,), m, phi)


@functools.cache
def make_ind(k, m, n):
    """Conditional independence x_1..x_k _|_{z_1..z_n} y_1..y_m as a pi atom:
    two universal rows, then one existential row combining them.  Argument
    order is x-part, y-part, z-part.  Coordinates: 1..k the x-part, k+1..k+m
    the y-part, k+m+1.. the z-part."""
    arity = k + m + n
    z = range(k + m + 1, arity + 1)
    want = ([Eq(wvar(2, 1, l), wvar(1, 1, l)) for l in z]
            + [Eq(wvar(2, 1, l), wvar(1, 1, l)) for l in range(1, k + 1)]
            + [Eq(wvar(2, 1, l), wvar(1, 2, l)) for l in range(k + 1, k + m + 1)])
    cons = conj(want)
    if n:
        ante = conj([Eq(wvar(1, 1, l), wvar(1, 2, l)) for l in z])
        phi = Implies(ante, cons)
    else:
        phi = cons
    return GeneralizedAtomDef("ind%d_%d_%d" % (k, m, n), PI, 2, (2, 1), arity, phi)


@functools.cache
def make_inc(k):
    """Inclusion x_1..x_k <= y_1..y_k as a pi atom: one universal row, one
    existential row whose y-part matches the first row's x-part."""
    m = 2 * k
    phi = conj([Eq(wvar(1, 1, l), wvar(2, 1, k + l)) for l in range(1, k + 1)])
    return GeneralizedAtomDef("inc%d" % k, PI, 2, (1, 1), m, phi)


def atom_def_of(phi):
    """The generalized-atom definition of a dependence, independence or
    inclusion atom with its argument list, or None for any other formula.
    =(zs ; ys) is ys _|_zs ys, and independence arguments run x-part,
    y-part, z-part."""
    if isinstance(phi, Dep):
        k = len(phi.dependent)
        return (make_ind(k, k, len(phi.determiners)),
                phi.dependent + phi.dependent + phi.determiners)
    if isinstance(phi, Ind):
        return make_ind(len(phi.xs), len(phi.ys), len(phi.zs)), phi.xs + phi.ys + phi.zs
    if isinstance(phi, Inc):
        return make_inc(len(phi.xs)), phi.xs + phi.ys
    return None


def register_builtin_atoms():
    """A new registry of the builtin atoms; the definitions are shared, the
    dict is the caller's own."""
    atoms = [make_dep(1), make_dep(2), make_inc(1), make_inc(2),
             make_ind(1, 1, 1), make_ind(1, 1, 0)]
    return {d.name: d for d in atoms}


# --- translation into the base language ---------------------------------------


def build_inc(d, i, xs):
    """Round i rows each drawn from the team: a conjunction of inclusions."""
    if len(xs) != d.m:
        raise AtomDefError("expected %d argument variables" % d.m)
    return conj([Inc(tuple(d.row_vars(i, j)), tuple(xs))
                 for j in range(1, d.k[i - 1] + 1)])


def build_pro(d, i, xs):
    """Round i rows range over the whole team independently of each other and
    of all earlier rounds."""
    if len(xs) != d.m:
        raise AtomDefError("expected %d argument variables" % d.m)
    ki = d.k[i - 1]
    onto = [Inc(tuple(xs), tuple(d.row_vars(i, j))) for j in range(1, ki + 1)]
    mutual = []
    for j in range(1, ki + 1):
        others = [v for j2 in range(1, ki + 1) if j2 != j
                  for v in d.row_vars(i, j2)]
        mutual.append(Ind(tuple(others), (), tuple(d.row_vars(i, j)))
                      if others else Top())
    prefix = [v for i2 in range(1, i) for v in d.group_vars(i2)]
    last = (Ind(tuple(prefix), (), tuple(d.group_vars(i)))
            if prefix else Top())
    return conj(onto + mutual + [last])


def sigma_pi_translate(d, xs):
    """Define the atom at argument list xs inside the base language.  Each
    round's rows are quantified as a block, guarded by build_inc for the
    existential rounds and build_pro for the universal ones."""
    if len(xs) != d.m:
        raise AtomDefError("atom %s expects %d arguments, got %d"
                           % (d.name, d.m, len(xs)))
    for v in xs:
        if _GRID_RE.match(v.name):
            raise AtomDefError("argument %s clashes with the reserved grid" % v.name)
    current = d.phiR
    for i in range(d.n, 0, -1):
        guard = (build_inc(d, i, xs) if round_is_existential(d.polarity, i)
                 else build_pro(d, i, xs))
        current = exists_block(d.group_vars(i), And(guard, current))
    return current


# --- translation into a sentence over the team relation -----------------------


def eso_atom_matrix(d, member):
    """The first-order sentence expressing the atom's alternation, with team
    membership of a candidate row supplied by the `member` callback (a list
    of m terms -> formula)."""
    current = d.phiR
    for i in range(d.n, 0, -1):
        mem = conj([member(d.row_vars(i, j)) for j in range(1, d.k[i - 1] + 1)])
        gv = d.group_vars(i)
        if round_is_existential(d.polarity, i):
            current = exists_block(gv, And(mem, current))
        else:
            current = forall_block(gv, Implies(mem, current))
    return current


# --- the two team constructions -----------------------------------------------


def simulating_team(model, X, choices, xs, w_groups):
    """Extend every row of X with, per group, the argument values of a chosen
    row of X.  `choices` holds one table per group mapping each original row
    tuple to the chosen row tuple.  The result satisfies build_inc for every
    group."""
    if X.is_empty():
        raise AtomDefError("the construction needs a nonempty team")
    if len(choices) != len(w_groups):
        raise AtomDefError("one choice table per group required")
    xi = [X.column(v.name) for v in xs]
    base_len = len(X.vars)
    out_vars = list(X.vars)
    out_rows = [list(r) for r in sorted(X.rows)]
    for gvars, gamma in zip(w_groups, choices):
        if len(gvars) != len(xs):
            raise AtomDefError("group width must match the argument list")
        for r in out_rows:
            base = tuple(r[:base_len])
            if base not in gamma:
                raise AtomDefError("choice table undefined on a row")
            chosen = gamma[base]
            if tuple(chosen) not in X.rows:
                raise AtomDefError("choice table must pick rows of the team")
            r.extend(chosen[i] for i in xi)
        out_vars.extend(v.name for v in gvars)
    return Team(out_vars, [tuple(r) for r in out_rows])


def duplicating_team(model, X, xs, w_groups):
    """Extend X so that, per group, every row meets every argument-value
    pattern of the original team.  The result satisfies build_pro for every
    group."""
    if X.is_empty():
        raise AtomDefError("the construction needs a nonempty team")
    patterns = sorted(team_rel(X, [v.name for v in xs]))
    out_vars = list(X.vars)
    out_rows = [tuple(r) for r in sorted(X.rows)]
    for gvars in w_groups:
        if len(gvars) != len(xs):
            raise AtomDefError("group width must match the argument list")
        out_rows = [r + p for r in out_rows for p in patterns]
        out_vars.extend(v.name for v in gvars)
    return Team(out_vars, out_rows)
