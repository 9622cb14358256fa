"""The team-semantics evaluator (lax semantics) plus a Tarskian evaluator
for first-order formulas on single assignments.

Every evaluation path is an entry of one of two tables keyed by type(phi),
each entry a plain function clause(evaluator, plan, X).  _DEFINING holds the
defining clauses: Tarskian evaluation of each assignment for first-order
literals, cover enumeration for split disjunction, per-row supplement-
function search for the existential quantifier, and every clause run on the
empty team too.  It is the whole literal mode (literal=True), which the
clause-conformance property suites run against, and the oracle of the
default mode.  _FAST, the default mode's table, overrides two entries, each
falling back to its defining clause: a split disjunction with a first-order
side gives that side every row satisfying it and splits only those
(flatness); E x (c1 /\\ ... /\\ cn) is false if a conjunct ci without x fails
on X itself (locality: ci sees X[F/x] exactly as X; the locality suite
checks this on the literal evaluator), and an existential block over
first-order / inclusion / unconditional-independence / constancy conjuncts
goes to a branch-and-delete search whose witnesses are always re-verified.

An evaluator keeps one plan per formula and tuple of team variables (see
_Plan), built when the formula is first visited over them with a nonempty
team: the formula's path, its memo, and the facts the path needs, each
built the first time it is needed.  A visit looks the plan up once, hashing
the formula once.  A search (the existential fallback, the single-value
quantifiers, the split searches) visits many teams over the same variables,
so it looks its subformula's plan up once (Evaluator._visitor) and runs it
on each team.  It derives each team from the valid team X it searches, as
a subset of X's rows or as X[F/x], without Team's checks (team._generated);
the block solver's witness, whose rows it assembles by index, goes through
the checked constructor.

In the default mode three exact paths need no memo: a dep/ind/inc atom
runs its clause on the rows, P(xs) or !P(xs) over team variables compares
the set P with the rows' projections, and any other first-order formula
runs its row test on every row (flatness, which the
check suites verify independently): column lookups for a literal over
variables, the Tarskian evaluator for the rest.  Each holds on the empty
team by itself; the other paths answer it without a clause run.  The
independence clause fails once the sum over its z-classes of |x-values| *
|y-values| exceeds the number of rows, which a team satisfying it never
reaches, as each class is then the product of its projections (Graedel &
Vaananen, Studia Logica 2013); without zs the team is the one class.

A masked team (team.MaskedTeam: a bit mask over its space, the sorted
assignments) takes the _on_cells path for those atoms, for P(xs) and !P(xs)
over team variables and for x = y and x != y between team variables: the
empty team holds, and any other is decided by the mask test that the masks
module builds once per plan and space.  Those literals' row tests read
columns and relation sets only, so a test built over the whole space raises
nothing; a row test that runs the Tarskian evaluator, which may raise on a
row the team lacks, stays on the rows.

eval_single, the Tarskian evaluator, has a twin for a formula evaluated
many times, _SingleCompiler, with one compiled clause per eval_single clause.
"""

import functools
import itertools
import operator

from . import masks
from .formula import (And, Bot, BoolOr, Const, Dep, Eq, Exists, Exists1,
                      FOAtom, Forall, Forall1, Implies, Inc, Ind, NegEq,
                      NegFOAtom, SeqEq, SeqNeq, SplitOr, Top, Var, WNeg, Gen,
                      exists_prefix, free_names, is_first_order)
from .team import MaskedTeam, Team, _generated, all_supplements, duplicate, set_var


class EvalError(ValueError):
    pass


class BudgetExceeded(EvalError):
    """An exact answer would exceed the configured search budget.  Never a
    silent approximation: the caller must shrink the instance or raise the
    budget."""


class EvalBudget:
    def __init__(self, max_split_rows=10, max_supplement_rows=400000,
                 max_solver_nodes=200000, max_fallback_combos=400000):
        if min(max_split_rows, max_supplement_rows, max_solver_nodes,
               max_fallback_combos) <= 0:
            raise ValueError("budget fields must be positive")
        self.max_split_rows = max_split_rows
        self.max_supplement_rows = max_supplement_rows
        self.max_solver_nodes = max_solver_nodes
        self.max_fallback_combos = max_fallback_combos


def term_value(t, s, model):
    if isinstance(t, Var):
        if t.name not in s:
            raise EvalError("variable %s not assigned" % t.name)
        return s[t.name]
    if isinstance(t, Const):
        return model.const(t.name)
    raise TypeError("not a term: %r" % (t,))


def eval_single(model, s, phi):
    """Tarskian truth of a first-order formula under a single assignment
    (dict variable-name -> element)."""
    clause = _SINGLE.get(type(phi))
    if clause is None:
        raise EvalError("eval_single expects a first-order formula, got %r" % (phi,))
    return clause(model, s, phi)


# The clauses of eval_single, one per first-order node class.  They recurse
# through the module-level name, so a wrapper swapped in for it (as
# bench/tracer.py does) sees the nested calls too.
_SINGLE = {
    FOAtom: lambda model, s, phi:
        tuple(term_value(a, s, model) for a in phi.args) in model.rel(phi.rel),
    NegFOAtom: lambda model, s, phi:
        tuple(term_value(a, s, model) for a in phi.args) not in model.rel(phi.rel),
    Eq: lambda model, s, phi:
        term_value(phi.lhs, s, model) == term_value(phi.rhs, s, model),
    NegEq: lambda model, s, phi:
        term_value(phi.lhs, s, model) != term_value(phi.rhs, s, model),
    Bot: lambda model, s, phi: False,
    Top: lambda model, s, phi: True,
    And: lambda model, s, phi:
        eval_single(model, s, phi.l) and eval_single(model, s, phi.r),
    SplitOr: lambda model, s, phi:
        eval_single(model, s, phi.l) or eval_single(model, s, phi.r),
    Exists: lambda model, s, phi:
        any(eval_single(model, {**s, phi.v.name: a}, phi.body) for a in model.domain),
    Forall: lambda model, s, phi:
        all(eval_single(model, {**s, phi.v.name: a}, phi.body) for a in model.domain),
    Implies: lambda model, s, phi:
        (not eval_single(model, s, phi.ante)) or eval_single(model, s, phi.cons),
    SeqEq: lambda model, s, phi:
        all(term_value(a, s, model) == term_value(b, s, model)
            for a, b in zip(phi.xs, phi.ys)),
    SeqNeq: lambda model, s, phi:
        any(term_value(a, s, model) != term_value(b, s, model)
            for a, b in zip(phi.xs, phi.ys)),
}


class _SingleCompiler:
    """eval_single's twin for a formula evaluated many times (eval_eso's
    matrix): formula() turns it once into closures of no arguments with
    eval_single's value, errors and evaluation order.  Values live in the
    list self.env: variables[i] in slot i, the set of tuples of relations[k]
    (symbols the model does not interpret) in slot len(variables) + k, and
    each quantifier occurrence, constant occurrence and model relation in a
    slot of its own, so an inner binder of a name cannot overwrite the value
    an outer one reads.  Model relations and constants are looked up here,
    once; a missing one, an unassigned variable and a node eval_single
    refuses become closures that raise eval_single's error when they run."""

    def __init__(self, model, variables=(), relations=()):
        self.model = model
        self.env = [None] * (len(variables) + len(relations))
        self.scope = {v: i for i, v in enumerate(variables)}
        self.cells = {r: len(variables) + k for k, r in enumerate(relations)}

    def formula(self, phi, scope):
        """phi compiled, with scope mapping its variables to their slots."""
        clause = _COMPILED.get(type(phi))
        if clause is None:
            return functools.partial(eval_single, self.model, {}, phi)  # raises
        return clause(self, phi, scope)

    def slot(self, t, scope):
        """The slot holding t's value, or None where evaluating t raises."""
        if isinstance(t, Var):
            return scope.get(t.name)
        if isinstance(t, Const) and t.name in self.model.consts:
            self.env.append(self.model.consts[t.name])
            return len(self.env) - 1
        return None

    def refusal(self, t):
        """A closure raising term_value's error for a term without a slot."""
        return functools.partial(term_value, t, {}, self.model)

    def atom(self, phi, scope):
        slots = [self.slot(t, scope) for t in phi.args]
        if None in slots:  # the args are evaluated before the relation
            return self.refusal(phi.args[slots.index(None)])
        env, rels = self.env, self.model.rels
        if phi.rel not in self.cells:
            if phi.rel not in rels:
                return functools.partial(self.model.rel, phi.rel)  # raises
            self.cells[phi.rel] = len(env)
            env.append(rels[phi.rel])
        k = self.cells[phi.rel]
        if len(slots) == 1:
            i, = slots
            get = lambda env: (env[i],)
        else:
            get = operator.itemgetter(*slots) if slots else lambda env: ()
        if type(phi) is FOAtom:
            return lambda: get(env) in env[k]
        return lambda: get(env) not in env[k]

    def equality(self, phi, scope):
        i, j = self.slot(phi.lhs, scope), self.slot(phi.rhs, scope)
        if i is None or j is None:
            return self.refusal(phi.lhs if i is None else phi.rhs)
        env = self.env
        if type(phi) is Eq:
            return lambda: env[i] == env[j]
        return lambda: env[i] != env[j]

    def sequence(self, phi, scope):
        env, pairs, seq_eq = self.env, [], type(phi) is SeqEq
        rest = lambda: seq_eq  # the verdict when every pair is equal
        for a, b in zip(phi.xs, phi.ys):
            i, j = self.slot(a, scope), self.slot(b, scope)
            if i is None or j is None:  # raises once the pairs before are equal
                rest = self.refusal(a if i is None else b)
                break
            pairs.append((i, j))
        if seq_eq:
            return lambda: all(env[i] == env[j] for i, j in pairs) and rest()
        return lambda: any(env[i] != env[j] for i, j in pairs) or rest()

    def connective(self, phi, scope):
        if type(phi) is Implies:
            ante, cons = self.formula(phi.ante, scope), self.formula(phi.cons, scope)
            return lambda: not ante() or cons()
        l, r = self.formula(phi.l, scope), self.formula(phi.r, scope)
        if type(phi) is And:
            return lambda: l() and r()
        return lambda: l() or r()

    def quantifier(self, phi, scope):
        env, domain, i = self.env, self.model.domain, len(self.env)
        env.append(None)
        body = self.formula(phi.body, {**scope, phi.v.name: i})
        if type(phi) is Exists:
            def run():
                for a in domain:
                    env[i] = a
                    if body():
                        return True
                return False
        else:
            def run():
                for a in domain:
                    env[i] = a
                    if not body():
                        return False
                return True
        return run


# One compiled clause per class of _SINGLE.
_COMPILED = {
    FOAtom: _SingleCompiler.atom, NegFOAtom: _SingleCompiler.atom,
    Eq: _SingleCompiler.equality, NegEq: _SingleCompiler.equality,
    Bot: lambda c, phi, scope: lambda: False,
    Top: lambda c, phi, scope: lambda: True,
    And: _SingleCompiler.connective, SplitOr: _SingleCompiler.connective,
    Implies: _SingleCompiler.connective,
    Exists: _SingleCompiler.quantifier, Forall: _SingleCompiler.quantifier,
    SeqEq: _SingleCompiler.sequence, SeqNeq: _SingleCompiler.sequence,
}


class _Plan:
    """What an evaluator knows about phi over the team variables vars: its
    path run(evaluator, plan, X); the clause of a path that runs one, and the
    memo (by the team's rows) of the memoized path; facts, what the clause
    or path needs besides the team, built when first needed; and cells, the
    space and mask test of _on_cells, built for the space of the last masked
    team it decided."""

    __slots__ = ("phi", "vars", "run", "clause", "memo", "facts", "cells")

    def __init__(self, phi, variables, run, clause=None, facts=None):
        self.phi, self.vars, self.run, self.clause, self.facts = phi, variables, run, clause, facts
        self.memo = {} if run is _memoized else None
        self.cells = None


class Evaluator:
    def __init__(self, model, registry=None, budget=None, literal=False):
        self.model = model
        self.registry = registry or {}
        self.budget = budget or EvalBudget()
        self.literal = literal
        self._clauses = _DEFINING if literal else _FAST
        self._plans = {}  # (phi, team variables) -> _Plan
        self._free = {}  # formula -> its free variable names, for _eval_exists
        self._last = None, None, None  # phi, X.vars and the plan eval last ran

    def eval(self, X, phi):
        """phi on X.  The plan of (phi, X.vars) is built on the first call,
        after checking that X has phi's free variables (EvalError if not,
        and nothing is kept).  eval keeps the plan it ran last: a call with
        the very same formula object and the very same X.vars tuple object
        runs it without building the key or hashing the formula.  Any other
        call looks the plan up as the first did, so equal formulas and
        equal variable tuples still share one plan."""
        last_phi, last_vars, plan = self._last
        if phi is not last_phi or X.vars is not last_vars:
            key = (phi, X.vars)
            plan = self._plans.get(key)
            if plan is None:
                missing = free_names(phi).difference(X.vars)
                if missing:
                    raise EvalError("free variables %s not in team domain" % sorted(missing))
                plan = self._plans[key] = self._plan(phi, X.vars)
            self._last = phi, X.vars, plan
        return plan.run(self, plan, X)

    def _free_names(self, phi):
        """free_names(phi), walked once per evaluator: _exists_facts and
        _collect_block read the conjuncts of nested existentials from here."""
        fv = self._free.get(phi)
        if fv is None:
            fv = self._free[phi] = free_names(phi)
        return fv

    def _visit(self, X, phi):
        """phi on X through its plan over X.vars, built on its first visit
        with a nonempty team (in the default mode the empty team satisfies
        every formula)."""
        key = (phi, X.vars)
        plan = self._plans.get(key)
        if plan is None:
            if not X.rows and not self.literal:
                return True
            plan = self._plans[key] = self._plan(phi, X.vars)
        return plan.run(self, plan, X)

    def _plan_of(self, phi, variables):
        """phi's plan over `variables`, built if missing."""
        key = (phi, variables)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(phi, variables)
        return plan

    def _visitor(self, phi):
        """_visit(X, phi) for the teams X of one search, which share their
        variables: phi's plan is looked up once, at the first team that
        needs it, and each team is then just the plan's run."""
        plan = None

        def visit(X):
            nonlocal plan
            if plan is None:
                if not X.rows and not self.literal:
                    return True
                plan = self._plan_of(phi, X.vars)
            return plan.run(self, plan, X)
        return visit

    def _plan(self, phi, variables):
        """A new plan, its path chosen as the module docstring says."""
        kind = type(phi)
        if self.literal or not (kind in _ATOM_CLAUSES or is_first_order(phi)):
            return _Plan(phi, variables, _memoized, self._clauses[kind])
        if kind in _ATOM_CLAUSES:
            return _Plan(phi, variables, _on_cells, _ATOM_CLAUSES[kind])
        relation = _relation_literal(self.model, phi, variables)
        if relation is None:  # flatness
            columns = _column_test(phi, variables)
            return _Plan(phi, variables, _on_cells if columns else _rows, _rows,
                         (columns or _row_test(self.model, phi, variables), all))
        get, holds = relation
        return _Plan(phi, variables, _on_cells, _rows, (
            get, holds.issuperset if kind is FOAtom else holds.isdisjoint))

    def _eval_split(self, plan, X):
        """A first-order side holds on exactly the subteams of the rows that
        satisfy it (flatness), so give it all of those and try the other
        side on the rest plus each subset of them."""
        test, other = plan.facts or _built(plan, _first_order_side(self, plan))
        passing, forced = [], []
        for r in sorted(X.rows) if test else ():
            (passing if test(r) else forced).append(r)
        if test is None or len(passing) > self.budget.max_split_rows:
            return self._split_covers(plan, X)  # which refuses the latter by its budget
        visit, forced = self._visitor(other), frozenset(forced)
        for k in range(len(passing) + 1):
            for extra in itertools.combinations(passing, k):
                if visit(_generated(X.vars, forced.union(extra))):
                    return True
        return False

    def _split_covers(self, plan, X):
        """Defining clause: some cover of X by two subteams, one per side."""
        rows = sorted(X.rows)
        n = len(rows)
        if n > self.budget.max_split_rows:
            raise BudgetExceeded(
                "split disjunction over %d rows exceeds the budget of %d"
                % (n, self.budget.max_split_rows))
        left, right = self._visitor(plan.phi.l), self._visitor(plan.phi.r)
        # each row goes left only (0), right only (1) or to both sides (2)
        subteam = lambda labels, skip: _generated(
            X.vars, frozenset([r for r, a in zip(rows, labels) if a != skip]))
        for labels in itertools.product((0, 1, 2), repeat=n):
            if left(subteam(labels, 1)) and right(subteam(labels, 0)):
                return True
        return False

    def _eval_exists(self, plan, X):
        """E x phi is false if a conjunct of phi without x fails on X itself
        (locality: it sees X[F/x] exactly as it sees X); past that, a block
        goes to the block solver, anything else to the defining clause.  The
        facts: the conjuncts of phi without x, phi's conjuncts and the free
        variables of each, then the block, collected once the conjuncts
        without x hold."""
        phi = plan.phi
        facts = plan.facts or _built(plan, _exists_facts(phi, self._free_names))
        local, conjuncts, fvs, block = facts
        for c in local:
            if not self._visit(X, c):
                return False
        if block is None:
            block = facts[3] = _collect_block(phi, plan.vars, conjuncts, fvs, self._free_names)
        if block:
            return self._solve_block(X, block)
        return self._eval_exists_fallback(plan, X)

    def _eval_exists_fallback(self, plan, X):
        """Defining clause: per-row choice of a nonempty value set."""
        choices = _value_sets(self.model.domain)
        total = len(choices) ** len(X.rows)
        if total > self.budget.max_fallback_combos:
            raise BudgetExceeded(
                "existential search space %d exceeds the budget of %d"
                % (total, self.budget.max_fallback_combos))
        return any(map(self._visitor(plan.phi.body), all_supplements(X, plan.phi.v.name, choices)))

    def _solve_block(self, X, block):
        """Decide X |= E bound . /\\ conjuncts for a block _collect_block
        returned.  Sound and complete within budget (BudgetExceeded
        otherwise); any witness found is re-verified by a fresh default-mode
        evaluator, whose dep/ind/inc clauses are the ones literal mode runs."""
        bound, conjuncts, fo, incs, inds, consts = block
        model = self.model
        y_vars = X.vars + tuple(v for v in bound if v not in X.vars)
        col = {v: i for i, v in enumerate(y_vars)}
        base_cols = [i for i, v in enumerate(X.vars) if v not in bound]

        base_rows = sorted(X.rows)
        n_cand = len(base_rows) * len(model.domain) ** len(bound)
        if n_cand > self.budget.max_supplement_rows:
            raise BudgetExceeded(
                "%d candidate rows exceed the budget of %d"
                % (n_cand, self.budget.max_supplement_rows))

        padding = [None] * (len(y_vars) - len(X.vars))
        candidates = []
        for base in base_rows:
            basekey = tuple(base[i] for i in base_cols)
            for vals in itertools.product(model.domain, repeat=len(bound)):
                row = list(base) + padding
                for v, a in zip(bound, vals):
                    row[col[v]] = a
                s = dict(zip(y_vars, row))
                if all(eval_single(model, s, f) for f in fo):
                    candidates.append((basekey, tuple(row)))

        needed = {tuple(base[i] for i in base_cols) for base in base_rows}
        inc_idx = [([col[v.name] for v in c.xs], [col[v.name] for v in c.ys]) for c in incs]
        ind_idx = [([col[v.name] for v in c.xs], [col[v.name] for v in c.ys]) for c in inds]
        const_cols = sorted({col[v.name] for c in consts for v in c.dependent})
        value_choices = (itertools.product(model.domain, repeat=len(const_cols))
                         if const_cols else [()])

        nodes = itertools.count(1)  # the search nodes of this call
        for values in value_choices:
            fixed = dict(zip(const_cols, values))
            cand = [c for c in candidates if all(c[1][i] == a for i, a in fixed.items())]
            witness = self._solve_core(cand, needed, inc_idx, ind_idx, set(), nodes)
            if witness is not None:
                Y = Team(y_vars, [row for _, row in witness])
                self._verify_witness(X, Y, conjuncts, needed, base_cols)
                return True
        return False

    def _solve_core(self, cand, needed, inc_idx, ind_idx, failed, nodes):
        if next(nodes) > self.budget.max_solver_nodes:
            raise BudgetExceeded("existential block solver exceeded %d nodes"
                                 % self.budget.max_solver_nodes)
        # greatest fixpoint under the inclusion constraints
        cand = list(cand)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in inc_idx:
                present = {tuple(row[i] for i in rhs) for _, row in cand}
                keep = [c for c in cand if tuple(c[1][i] for i in lhs) in present]
                if len(keep) != len(cand):
                    cand = keep
                    changed = True
        if {bk for bk, _ in cand} != needed:
            return None
        key = frozenset(row for _, row in cand)
        if key in failed:
            return None
        # look for an independence violation
        for A, B in ind_idx:
            ab = [(tuple(row[i] for i in A), tuple(row[i] for i in B)) for _, row in cand]
            pairs, seen_b = set(ab), dict.fromkeys(b for _, b in ab)
            for a in dict.fromkeys(a for a, _ in ab):
                for b in seen_b:
                    if (a, b) not in pairs:
                        # any solution inside cand lacks value a or value b
                        for columns, value in ((A, a), (B, b)):
                            sub = [c for c in cand if tuple(c[1][i] for i in columns) != value]
                            res = self._solve_core(sub, needed, inc_idx, ind_idx, failed, nodes)
                            if res is not None:
                                return res
                        failed.add(key)
                        return None
        return cand

    def _verify_witness(self, X, Y, conjuncts, needed, base_cols):
        sub = Evaluator(self.model, self.registry, self.budget)
        for c in conjuncts:
            if not sub.eval(Y, c):
                raise AssertionError("block solver produced a bad witness for %r" % (c,))
        if {tuple(row[i] for i in base_cols) for row in Y.rows} != needed:
            raise AssertionError("block solver witness does not cover the team")


# -- paths ----------------------------------------------------------------------

def _memoized(ev, plan, X):
    if not X.rows and not ev.literal:
        return True
    memo = plan.memo
    out = memo.get(X.rows)  # the plan fixes the team's variables
    if out is None:
        out = memo[X.rows] = plan.clause(ev, plan, X)
    return out


def _rows(ev, plan, X):
    get, compare = plan.facts  # stops at the first failing row
    return compare(map(get, X.rows))


def _on_cells(ev, plan, X):
    """A masked team decided by the mask test that _CELL_TESTS builds for
    phi over the team's space, once per space; any other team by the plan's
    clause on its rows.  The empty team holds before any test is built."""
    if type(X) is not MaskedTeam:
        return plan.clause(ev, plan, X)
    mask = X.mask
    if not mask:
        return True
    cells = plan.cells
    if cells is None or cells[0] is not X.space:
        cells = plan.cells = X.space, _CELL_TESTS[type(plan.phi)](ev, plan, X.space)
    return cells[1](mask)


def _built(plan, facts):
    plan.facts = facts
    return facts


@functools.lru_cache(maxsize=None)
def _value_sets(domain):
    """The nonempty sets of values of `domain`, as tuples, by bit mask."""
    return tuple(tuple(a for i, a in enumerate(domain) if mask >> i & 1)
                 for mask in range(1, 1 << len(domain)))


def _exists_facts(phi, free):
    """_eval_exists's facts for E x phi.body, the block not yet collected;
    free(c) gives the free variable names of a conjunct c."""
    conjuncts = _flatten_and(phi.body)
    fvs = [free(c) for c in conjuncts]
    return [[c for c, fv in zip(conjuncts, fvs) if phi.v.name not in fv], conjuncts, fvs, None]


def _first_order_side(ev, plan):
    """The row test of a split disjunction's first-order side, and its other
    side.  An atom is not first-order; any other side gets its plan here,
    whose path says whether it is."""
    for side, other in ((plan.phi.l, plan.phi.r), (plan.phi.r, plan.phi.l)):
        if type(side) in _ATOM_CLAUSES:
            continue
        side_plan = ev._plan_of(side, plan.vars)
        if side_plan.clause is _rows:
            test, compare = side_plan.facts
            return (test if compare is all else _row_test(ev.model, side, plan.vars)), other
    return None, None


# -- atoms: each clause reads the row projections _projections builds --------

def _dep_holds(ev, plan, X):
    key, val = plan.facts or _built(plan, _projections(plan))
    seen = {}
    for r in X.rows:
        v = val(r)
        if seen.setdefault(key(r), v) != v:
            return False
    return True


def _ind_holds(ev, plan, X):
    # The atom holds iff every z-class is the product of its x-values A_z and
    # y-values B_z.  Its pairs P_z lie in A_z x B_z and number at most the
    # rows, so the clause fails once the sum of |A_z|*|B_z| passes the row
    # count, and holds iff that sum equals the number of (z, x, y) values.
    xkey, zkey, ykey, pkey = plan.facts or _built(plan, _projections(plan))
    rows = X.rows
    n = len(rows)
    total = 0
    if zkey is None:  # no z: one class, the whole team
        A, B = set(), set()
        for r in rows:
            a = xkey(r)
            if a not in A:
                A.add(a)
                total += len(B)
            b = ykey(r)
            if b not in B:
                B.add(b)
                total += len(A)
            if total > n:
                return False
        return len(set(map(pkey, rows))) == total
    classes = {}
    for r in rows:
        z = zkey(r)
        c = classes.get(z)
        if c is None:
            c = classes[z] = (set(), set())
        A, B = c
        a = xkey(r)
        if a not in A:
            A.add(a)
            total += len(B)
        b = ykey(r)
        if b not in B:
            B.add(b)
            total += len(A)
        if total > n:
            return False
    return len(set(map(pkey, rows))) == total


def _inc_holds(ev, plan, X):
    xkey, ykey = plan.facts or _built(plan, _projections(plan))
    return set(map(ykey, X.rows)).issuperset(map(xkey, X.rows))


def _projections(plan):
    phi, vs = plan.phi, plan.vars
    if type(phi) is Dep:
        return _key(vs, phi.determiners), _key(vs, phi.dependent)
    if type(phi) is Ind:  # no z-key when there are no zs
        return (_key(vs, phi.xs), _key(vs, phi.zs) if phi.zs else None, _key(vs, phi.ys),
                _key(vs, (*phi.zs, *phi.xs, *phi.ys)))
    return _key(vs, phi.xs), _key(vs, phi.ys)


_ATOM_CLAUSES = {Dep: _dep_holds, Ind: _ind_holds, Inc: _inc_holds}


# The mask test of each class _on_cells decides, test(evaluator, plan, space);
# a literal's row test reads columns and relation sets only.
_CELL_TESTS = {
    Dep: lambda ev, plan, space: masks.dep(space, *_projections(plan)),
    Ind: lambda ev, plan, space: masks.ind(space, *_projections(plan)[:3]),
    Inc: lambda ev, plan, space: masks.inc(space, *_projections(plan)),
    **dict.fromkeys((FOAtom, NegFOAtom, Eq, NegEq), lambda ev, plan, space: masks.literal(
        space, _row_test(ev.model, plan.phi, plan.vars))),
}


# -- the clause tables ----------------------------------------------------------

def _tarskian(ev, plan, X):
    return all(eval_single(ev.model, s, plan.phi) for s in X.assignments())


def _generalized(ev, plan, X):
    from .genatom import eval_direct
    name = plan.phi.atom_name
    if name not in ev.registry:
        raise EvalError("unregistered atom %s" % name)
    return eval_direct(ev.model, X, ev.registry[name], plan.phi.args)




def _at_each_value(ev, plan, X):
    """phi.body on the teams X[a/x], x set to one value a on every row, for
    each a, lazily."""
    x = plan.phi.v.name
    return map(ev._visitor(plan.phi.body), (set_var(X, x, zip(X.rows, itertools.repeat((a,))))
                                            for a in ev.model.domain))


# The clause of each node class, clause(evaluator, plan, X).  Clauses and
# paths are plain functions, not bound methods, and no plan refers to its
# evaluator, so a dropped evaluator is freed at once with all its plans.
_DEFINING = {
    **dict.fromkeys((FOAtom, NegFOAtom, Eq, NegEq, SeqEq, SeqNeq, Implies, Top), _tarskian),
    Bot: lambda ev, plan, X: X.is_empty(),
    **_ATOM_CLAUSES,
    Gen: _generalized,
    And: lambda ev, plan, X: ev._visit(X, plan.phi.l) and ev._visit(X, plan.phi.r),
    BoolOr: lambda ev, plan, X: ev._visit(X, plan.phi.l) or ev._visit(X, plan.phi.r),
    SplitOr: Evaluator._split_covers,
    Exists: Evaluator._eval_exists_fallback,
    Forall: lambda ev, plan, X: ev._visit(duplicate(X, ev.model, plan.phi.v.name), plan.phi.body),
    Exists1: lambda ev, plan, X: any(_at_each_value(ev, plan, X)),
    Forall1: lambda ev, plan, X: all(_at_each_value(ev, plan, X)),
    WNeg: lambda ev, plan, X: X.is_empty() or not ev._visit(X, plan.phi.body),
}
_FAST = {**_DEFINING, SplitOr: Evaluator._eval_split, Exists: Evaluator._eval_exists}


def _collect_block(phi, team_vars, conjuncts, fvs, free):
    """Gather E x1 ... E xn (conjunction) from phi and phi.body's conjuncts
    and their free variable names fvs (free(c) gives those of any other
    conjunct c), hoisting nested fresh existentials out of conjuncts, as (bound
    variable names, conjuncts, and among these the first-order formulas,
    inclusion, unconditional independence and constancy atoms); False if a
    binder or a conjunct does not fit."""
    vs, body = exists_prefix(phi)
    bound = [v.name for v in vs]
    if len(set(bound)) != len(bound):
        return False
    if body is not phi.body:
        conjuncts = _flatten_and(body)
        fvs = [free(c) for c in conjuncts]
    i = 0
    while i < len(conjuncts):
        if isinstance(conjuncts[i], Exists):
            inner_vs, inner = exists_prefix(conjuncts[i])
            inner_bound = {v.name for v in inner_vs}
            others = fvs[:i] + fvs[i + 1:]
            used = set(bound).union(team_vars, *others)
            if len(inner_bound) == len(inner_vs) and not inner_bound & used:
                bound.extend(v.name for v in inner_vs)
                hoisted = _flatten_and(inner)
                conjuncts = conjuncts[:i] + conjuncts[i + 1:] + hoisted
                fvs = others + [free(c) for c in hoisted]
                i = 0
                continue
        i += 1
    fo, incs, inds, consts = [], [], [], []
    for c in conjuncts:
        if is_first_order(c):
            fo.append(c)
        elif isinstance(c, Inc):
            incs.append(c)
        elif isinstance(c, Ind) and not c.zs:
            inds.append(c)
        elif isinstance(c, Dep) and not c.determiners:
            consts.append(c)
        else:
            return False
    return bound, conjuncts, fo, incs, inds, consts


def _row_test(model, phi, variables):
    """A first-order phi's test of a row over `variables`: column lookups
    for a literal over variables, the Tarskian evaluator for the rest."""
    relation = _relation_literal(model, phi, variables)
    if relation is not None:
        get, holds = relation
        return (lambda r: get(r) in holds) if isinstance(phi, FOAtom) else (
            lambda r: get(r) not in holds)
    return _column_test(phi, variables) or (
        lambda r: eval_single(model, dict(zip(variables, r)), phi))


def _column_test(phi, variables):
    """For x = y or x != y over team variables, the comparison of their
    columns; None for any other formula."""
    if not isinstance(phi, (Eq, NegEq)) or not _team_vars_only(variables, (phi.lhs, phi.rhs)):
        return None
    i, j = variables.index(phi.lhs.name), variables.index(phi.rhs.name)
    return (lambda r: r[i] == r[j]) if isinstance(phi, Eq) else (lambda r: r[i] != r[j])


def _relation_literal(model, phi, variables):
    """For P(xs) or !P(xs) over team variables, the pair (projection,
    relation set): a row satisfies P(xs) iff its xs-projection is in the
    set.  None for any other formula, and for a relation the model lacks,
    which the Tarskian row test looks up on each row, as literal mode does."""
    if (type(phi) not in (FOAtom, NegFOAtom) or phi.rel not in model.rels
            or not _team_vars_only(variables, phi.args)):
        return None
    holds = model.rels[phi.rel]
    if len(phi.args) == 1:
        holds = {t[0] for t in holds if len(t) == 1}  # _key yields bare values
    return _key(variables, phi.args), holds


def _team_vars_only(variables, terms):
    return all(isinstance(t, Var) and t.name in variables for t in terms)


def _key(variables, vs):
    """Row projection onto the columns of vs among `variables`.  A single
    column projects to a bare value: compare only keys of equal length."""
    columns = [variables.index(v.name) for v in vs]
    if not columns:
        return lambda r: ()
    return operator.itemgetter(*columns)


def _flatten_and(phi):
    if isinstance(phi, And):
        return _flatten_and(phi.l) + _flatten_and(phi.r)
    return [phi]


def eval_formula(model, X, phi, registry=None, budget=None, literal=False):
    """M |=_X phi under lax team semantics."""
    return Evaluator(model, registry, budget, literal).eval(X, phi)
