"""The team-semantics evaluator (lax semantics) plus a Tarskian evaluator
for first-order formulas on single assignments.

Every evaluation path is an entry of one of two tables keyed by type(phi),
each entry a plain function clause(evaluator, X, phi).  _DEFINING holds the
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

In front of its table the default mode has three more exact shortcuts.
Evaluator.eval resolves each formula, once per team variables, to a team
test that runs a dep/ind/inc clause, a set comparison for P(xs) and !P(xs)
over team variables (are the xs-projections of the rows a subset of P, or
disjoint from it?), or another first-order literal's row test on every row,
without the memo or the empty-team shortcut (each holds on the empty team by
itself).  The independence clause fails once the sum over its z-classes of
|x-values| * |y-values| exceeds the number of rows, which a team satisfying
it never reaches, as each class is then the product of its projections
(Graedel & Vaananen, Studia Logica 2013).  The empty team satisfies every
formula without running a clause.  First-order subformulas are evaluated
rowwise (flatness, which the check suites verify independently), each by a
row test built once per formula and team variables: column lookups for a
literal over variables, the Tarskian evaluator for anything else.

eval_single, the Tarskian evaluator, has a twin for a formula evaluated
many times, _SingleCompiler, with one compiled clause per eval_single clause.
"""

import functools
import itertools
import operator

from .formula import (And, Bot, BoolOr, Const, Dep, Eq, Exists, Exists1,
                      FOAtom, Forall, Forall1, Implies, Inc, Ind, NegEq,
                      NegFOAtom, SeqEq, SeqNeq, SplitOr, Top, Var, WNeg, Gen,
                      exists_prefix, free_vars, is_first_order)
from .team import Team, duplicate, set_var


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


def _nonempty_subsets(domain):
    out = []
    n = len(domain)
    for mask in range(1, 1 << n):
        out.append(tuple(domain[i] for i in range(n) if mask >> i & 1))
    return out


_UNBUILT = object()  # no team test built yet for a (phi, team variables)


class Evaluator:
    def __init__(self, model, registry=None, budget=None, literal=False):
        self.model = model
        self.registry = registry or {}
        self.budget = budget or EvalBudget()
        self.literal = literal
        self._clauses = _DEFINING if literal else _FAST
        self._memo = {}
        self._tests = {}  # (phi, team variables) -> see _team_test
        self._prepared = {}  # (phi, team variables) -> see _prepare

    # -- public ---------------------------------------------------------------

    def eval(self, X, phi):
        key = (phi, X.vars)
        test = self._tests.get(key, _UNBUILT)
        if test is _UNBUILT:
            test = self._tests[key] = self._team_test(phi, X)
        return self._eval(X, phi) if test is None else test(X)

    def _team_test(self, phi, X):
        """The test eval runs on every team over X.vars, built once per
        (phi, X.vars) after the free-variable precondition.  In the default
        mode a dep/ind/inc atom runs its clause on the rows, P(xs) or !P(xs)
        over team variables compares the set P with the rows' projections,
        and another first-order literal runs its row test on every row
        (flatness); each holds on the empty team by itself, so none needs
        the memo or the empty-team shortcut.  Anything else gets None and
        goes through _eval, which decides compound first-order formulas
        rowwise too (asking is_first_order here would walk every such
        formula twice, and eval_formula builds a new evaluator for each
        call).  A test that called self._eval would hold the evaluator in a
        reference cycle and keep its memo alive until the cycle collector
        runs."""
        missing = {v.name for v in free_vars(phi)}.difference(X.vars)
        if missing:
            raise EvalError("free variables %s not in team domain" % sorted(missing))
        if self.literal:
            return None
        clause = _ATOM_CLAUSES.get(type(phi))
        if clause is not None:
            keys = self._prepare(phi, X)
            return lambda Y: clause(Y, keys)
        if type(phi) in _LITERALS:
            relation = _relation_literal(self.model, phi, X)
            if relation is not None:
                # a set comparison that stops at the first failing row
                get, holds = relation
                if type(phi) is FOAtom:
                    return lambda Y: holds.issuperset(map(get, Y.rows))
                return lambda Y: holds.isdisjoint(map(get, Y.rows))
            row_test = self._prepare(phi, X)
            return lambda Y: all(map(row_test, Y.rows))
        return None

    # -- dispatch -------------------------------------------------------------

    def _eval(self, X, phi):
        if X.is_empty() and not self.literal:
            return True  # empty team property; literal mode runs the clauses
        key = (phi, X)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval_uncached(X, phi)
        self._memo[key] = out
        return out

    def _eval_uncached(self, X, phi):
        if not self.literal and is_first_order(phi):
            return all(map(self._prepare(phi, X), X.rows))  # flatness
        return self._clauses[type(phi)](self, X, phi)

    def _prepare(self, phi, X):
        """What evaluating phi on X needs that does not depend on its rows,
        built once per (phi, X.vars): for a first-order phi a row test
        (flatness: phi holds on a team iff it holds on every row), for a
        dep/ind/inc atom its row projections."""
        key = (phi, X.vars)
        got = self._prepared.get(key)
        if got is None:
            got = self._prepared[key] = _prepare_uncached(self.model, phi, X)
        return got

    # -- split disjunction ----------------------------------------------------

    def _eval_split(self, X, phi):
        """A first-order side holds on exactly the subteams of the rows that
        satisfy it (flatness), so give it all of those and try the other
        side on the rest plus each subset of them."""
        for fo_side, other in ((phi.l, phi.r), (phi.r, phi.l)):
            if is_first_order(fo_side):
                test = self._prepare(fo_side, X)
                passing, forced = [], []
                for r in sorted(X.rows):
                    (passing if test(r) else forced).append(r)
                if len(passing) > self.budget.max_split_rows:
                    break  # the defining clause refuses it by its budget
                for k in range(len(passing) + 1):
                    for extra in itertools.combinations(passing, k):
                        if self._eval(Team(X.vars, forced + list(extra)), other):
                            return True
                return False
        return self._split_covers(X, phi)

    def _split_covers(self, X, phi):
        """Defining clause: some cover of X by two subteams, one per side."""
        rows = sorted(X.rows)
        n = len(rows)
        if n > self.budget.max_split_rows:
            raise BudgetExceeded(
                "split disjunction over %d rows exceeds the budget of %d"
                % (n, self.budget.max_split_rows))
        for assignment in itertools.product((0, 1, 2), repeat=n):
            left = [r for r, a in zip(rows, assignment) if a != 1]
            right = [r for r, a in zip(rows, assignment) if a != 0]
            if self._eval(Team(X.vars, left), phi.l) and self._eval(Team(X.vars, right), phi.r):
                return True
        return False

    # -- existential quantifier ----------------------------------------------

    def _eval_exists(self, X, phi):
        # locality: a conjunct without x sees X[F/x] exactly as it sees X
        for c in _flatten_and(phi.body):
            if phi.v not in free_vars(c) and not self._eval(X, c):
                return False
        block = _collect_block(phi, set(X.vars))
        if block is not None:
            bound, conjuncts = block
            res = self._solve_block(X, bound, conjuncts)
            if res is not None:
                return res
        return self._eval_exists_fallback(X, phi)

    def _eval_exists_fallback(self, X, phi):
        """Defining clause: per-row choice of a nonempty value set."""
        rows = sorted(X.rows)
        choices = _nonempty_subsets(self.model.domain)
        total = len(choices) ** len(rows)
        if total > self.budget.max_fallback_combos:
            raise BudgetExceeded(
                "existential search space %d exceeds the budget of %d"
                % (total, self.budget.max_fallback_combos))
        x = phi.v.name
        for combo in itertools.product(choices, repeat=len(rows)):
            if self._eval(set_var(X, x, zip(rows, combo)), phi.body):
                return True
        return False

    # -- existential block solver ---------------------------------------------

    def _solve_block(self, X, bound, conjuncts):
        """Decide X |= E bound . /\\ conjuncts, or return None if the matrix
        shape is unsupported.  Conjuncts may be first-order formulas,
        inclusion atoms, unconditional independence atoms and constancy
        atoms.  Sound and complete within budget (BudgetExceeded otherwise);
        any witness found is re-verified against the literal clauses."""
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
                return None

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
                row = tuple(row)
                s = dict(zip(y_vars, row))
                if all(eval_single(model, s, f) for f in fo):
                    candidates.append((basekey, row))

        needed = {tuple(base[i] for i in base_cols) for base in base_rows}

        inc_idx = [([col[v.name] for v in c.xs], [col[v.name] for v in c.ys]) for c in incs]
        ind_idx = [([col[v.name] for v in c.xs], [col[v.name] for v in c.ys]) for c in inds]
        const_idx = [[col[v.name] for v in c.dependent] for c in consts]

        const_cols = sorted({i for idx in const_idx for i in idx})
        value_choices = (itertools.product(model.domain, repeat=len(const_cols))
                         if const_cols else [()])

        self._solver_nodes = 0
        for values in value_choices:
            fixed = dict(zip(const_cols, values))
            cand = [c for c in candidates
                    if all(c[1][i] == a for i, a in fixed.items())]
            witness = self._solve_core(cand, needed, inc_idx, ind_idx, set())
            if witness is not None:
                Y = Team(y_vars, [row for _, row in witness])
                self._verify_witness(X, Y, conjuncts, needed, base_cols)
                return True
        return False

    def _solve_core(self, cand, needed, inc_idx, ind_idx, failed):
        self._solver_nodes += 1
        if self._solver_nodes > self.budget.max_solver_nodes:
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
            seen_a = {}
            seen_b = {}
            pairs = set()
            for _, row in cand:
                a = tuple(row[i] for i in A)
                b = tuple(row[i] for i in B)
                seen_a[a] = True
                seen_b[b] = True
                pairs.add((a, b))
            for a in seen_a:
                for b in seen_b:
                    if (a, b) not in pairs:
                        # any solution inside cand lacks value a or value b
                        sub = [c for c in cand if tuple(c[1][i] for i in A) != a]
                        res = self._solve_core(sub, needed, inc_idx, ind_idx, failed)
                        if res is not None:
                            return res
                        sub = [c for c in cand if tuple(c[1][i] for i in B) != b]
                        res = self._solve_core(sub, needed, inc_idx, ind_idx, failed)
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
        covered = {tuple(row[i] for i in base_cols) for row in Y.rows}
        if covered != needed:
            raise AssertionError("block solver witness does not cover the team")


# -- atoms --------------------------------------------------------------------
# Each clause takes the team and the row projections _prepare built for it.

def _dep_holds(X, keys):
    key, val = keys
    seen = {}
    for r in X.rows:
        v = val(r)
        if seen.setdefault(key(r), v) != v:
            return False
    return True


def _ind_holds(X, keys):
    # The atom holds iff every z-class is the product of its x-values A_z and
    # y-values B_z.  Its pairs P_z lie in A_z x B_z and number at most the
    # rows, so the clause fails once the sum of |A_z|*|B_z| passes the row
    # count, and holds iff that sum equals the number of (z, x, y) values.
    xkey, zkey, ykey, pkey = keys
    rows = X.rows
    n = len(rows)
    classes = {}
    total = 0
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


def _inc_holds(X, keys):
    xkey, ykey = keys
    return set(map(ykey, X.rows)).issuperset(map(xkey, X.rows))


_ATOM_CLAUSES = {Dep: _dep_holds, Ind: _ind_holds, Inc: _inc_holds}
_LITERALS = frozenset((FOAtom, NegFOAtom, Eq, NegEq))


# -- the clause tables ----------------------------------------------------------


def _tarskian(ev, X, phi):
    return all(eval_single(ev.model, s, phi) for s in X.assignments())


def _atom(ev, X, phi):
    return _ATOM_CLAUSES[type(phi)](X, ev._prepare(phi, X))


def _generalized(ev, X, phi):
    from .genatom import eval_direct
    if phi.atom_name not in ev.registry:
        raise EvalError("unregistered atom %s" % phi.atom_name)
    return eval_direct(ev.model, X, ev.registry[phi.atom_name], phi.args)


def _at_each_value(ev, X, phi):
    """The teams X[a/x], x set to one value a on every row, for each a."""
    x = phi.v.name
    return (set_var(X, x, zip(X.rows, itertools.repeat((a,)))) for a in ev.model.domain)


# The clause of each node class, clause(evaluator, X, phi).  The entries are
# plain functions, not bound methods, so an evaluator holds no reference to
# itself and is freed with its memo as soon as it is dropped.
_DEFINING = {
    **dict.fromkeys((FOAtom, NegFOAtom, Eq, NegEq, SeqEq, SeqNeq, Implies, Top), _tarskian),
    Bot: lambda ev, X, phi: X.is_empty(),
    **dict.fromkeys((Dep, Ind, Inc), _atom),
    Gen: _generalized,
    And: lambda ev, X, phi: ev._eval(X, phi.l) and ev._eval(X, phi.r),
    BoolOr: lambda ev, X, phi: ev._eval(X, phi.l) or ev._eval(X, phi.r),
    SplitOr: Evaluator._split_covers,
    Exists: Evaluator._eval_exists_fallback,
    Forall: lambda ev, X, phi: ev._eval(duplicate(X, ev.model, phi.v.name), phi.body),
    Exists1: lambda ev, X, phi: any(ev._eval(Y, phi.body) for Y in _at_each_value(ev, X, phi)),
    Forall1: lambda ev, X, phi: all(ev._eval(Y, phi.body) for Y in _at_each_value(ev, X, phi)),
    WNeg: lambda ev, X, phi: X.is_empty() or not ev._eval(X, phi.body),
}
_FAST = {**_DEFINING, SplitOr: Evaluator._eval_split, Exists: Evaluator._eval_exists}


def _collect_block(phi, team_vars):
    """Gather E x1 ... E xn (conjunction), hoisting nested fresh existentials
    out of conjuncts.  Returns (bound variable names, conjunct list) or None
    if the binder pattern is not a clean block."""
    vs, body = exists_prefix(phi)
    bound = [v.name for v in vs]
    if len(set(bound)) != len(bound):
        return None

    conjuncts = _flatten_and(body)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(conjuncts):
            if isinstance(c, Exists):
                inner_vs, inner = exists_prefix(c)
                inner_bound = [v.name for v in inner_vs]
                others = conjuncts[:i] + conjuncts[i + 1:]
                used = set(bound) | set(team_vars)
                for o in others:
                    used |= {v.name for v in free_vars(o)}
                if (len(set(inner_bound)) == len(inner_bound)
                        and not (set(inner_bound) & used)):
                    bound.extend(inner_bound)
                    conjuncts = others + _flatten_and(inner)
                    changed = True
                    break
    return bound, conjuncts


def _prepare_uncached(model, phi, X):
    if isinstance(phi, Dep):
        return _key(X, phi.determiners), _key(X, phi.dependent)
    if isinstance(phi, Ind):
        return (_key(X, phi.xs), _key(X, phi.zs), _key(X, phi.ys),
                _key(X, (*phi.zs, *phi.xs, *phi.ys)))
    if isinstance(phi, Inc):
        return _key(X, phi.xs), _key(X, phi.ys)
    relation = _relation_literal(model, phi, X)
    if relation is not None:
        get, holds = relation
        if isinstance(phi, FOAtom):
            return lambda r: get(r) in holds
        return lambda r: get(r) not in holds
    if isinstance(phi, (Eq, NegEq)) and _team_vars_only(X, (phi.lhs, phi.rhs)):
        i, j = X.column(phi.lhs.name), X.column(phi.rhs.name)
        if isinstance(phi, Eq):
            return lambda r: r[i] == r[j]
        return lambda r: r[i] != r[j]
    vs = X.vars
    return lambda r: eval_single(model, dict(zip(vs, r)), phi)


def _relation_literal(model, phi, X):
    """For P(xs) or !P(xs) over team variables, the pair (projection,
    relation set): a row satisfies P(xs) iff its xs-projection is in the
    set.  None for any other formula, and for a relation the model lacks:
    the Tarskian row test looks that up on each row, so the empty team
    holds and any other team raises ModelError, as in literal mode."""
    if (type(phi) not in (FOAtom, NegFOAtom) or phi.rel not in model.rels
            or not _team_vars_only(X, phi.args)):
        return None
    holds = model.rels[phi.rel]
    if len(phi.args) == 1:
        holds = {t[0] for t in holds if len(t) == 1}  # _key yields bare values
    return _key(X, phi.args), holds


def _team_vars_only(X, terms):
    return all(isinstance(t, Var) and t.name in X.vars for t in terms)


def _key(X, variables):
    """Row projection onto the columns of `variables`.  A single column
    projects to a bare value, so only keys built from variable lists of the
    same length may be compared."""
    columns = [X.column(v.name) for v in variables]
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
