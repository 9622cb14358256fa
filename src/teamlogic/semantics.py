"""The team-semantics evaluator (lax semantics) plus a Tarskian evaluator
for first-order formulas on single assignments.

Two evaluation modes exist.  The default mode is exact and uses six sound
accelerations: Evaluator.eval resolves each formula, once per team
variables, to a team test that runs a dep/ind/inc clause, a set comparison
for P(xs) and !P(xs) over team variables (are the xs-projections of the
rows a subset of P, or disjoint from it? either stops at the first failing
row), or the row test of another first-order literal straight on the rows,
without the memo or the empty-team shortcut (each holds on the empty team
by itself); the independence clause fails as soon as the sum over its
z-classes of |x-values| * |y-values| exceeds the number of rows, which a
team satisfying it never reaches, since each class is then the product of
its projections (Graedel & Vaananen, Studia Logica 2013); first-order
subformulas are evaluated rowwise (justified by the flatness property, which
the check suites verify independently), each by a row test built once per
formula and team variables, which decides a literal over variables by
column lookups alone (P(y) on X: is the y-projection of every row in P?)
and anything else by the Tarskian evaluator; the empty team satisfies every
formula without running a clause;
existential blocks over conjunctions of first-order / inclusion /
unconditional-independence / constancy conjuncts are solved by a dedicated
branch-and-delete search whose witnesses are always re-verified literally;
and E x (c1 /\\ ... /\\ cn) first checks on X itself every conjunct ci that
does not mention x, and is false if one fails (justified by locality: ci
sees X[F/x] exactly as it sees X; the locality suite checks this property
independently, on the literal evaluator).
The literal mode (literal=True) implements the defining clauses directly
(Tarskian evaluation of each assignment for first-order literals, cover
enumeration for split disjunction, per-row supplement-function search for
the existential quantifier, every clause on the empty team too) and is what
the clause-conformance property suites run against; it is the oracle of the
row tests.
"""

import itertools
import operator

from .formula import (And, Bot, BoolOr, Const, Dep, Eq, Exists, Exists1,
                      FOAtom, Forall, Forall1, Implies, Inc, Ind, NegEq,
                      NegFOAtom, SeqEq, SeqNeq, SplitOr, Top, Var, WNeg, Gen,
                      free_vars, is_first_order)
from .team import Team


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
    if isinstance(phi, FOAtom):
        return tuple(term_value(a, s, model) for a in phi.args) in model.rel(phi.rel)
    if isinstance(phi, NegFOAtom):
        return tuple(term_value(a, s, model) for a in phi.args) not in model.rel(phi.rel)
    if isinstance(phi, Eq):
        return term_value(phi.lhs, s, model) == term_value(phi.rhs, s, model)
    if isinstance(phi, NegEq):
        return term_value(phi.lhs, s, model) != term_value(phi.rhs, s, model)
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Top):
        return True
    if isinstance(phi, And):
        return eval_single(model, s, phi.l) and eval_single(model, s, phi.r)
    if isinstance(phi, SplitOr):
        return eval_single(model, s, phi.l) or eval_single(model, s, phi.r)
    if isinstance(phi, Exists):
        return any(eval_single(model, {**s, phi.v.name: a}, phi.body)
                   for a in model.domain)
    if isinstance(phi, Forall):
        return all(eval_single(model, {**s, phi.v.name: a}, phi.body)
                   for a in model.domain)
    if isinstance(phi, Implies):
        return (not eval_single(model, s, phi.ante)) or eval_single(model, s, phi.cons)
    if isinstance(phi, SeqEq):
        return all(term_value(a, s, model) == term_value(b, s, model)
                   for a, b in zip(phi.xs, phi.ys))
    if isinstance(phi, SeqNeq):
        return any(term_value(a, s, model) != term_value(b, s, model)
                   for a, b in zip(phi.xs, phi.ys))
    raise EvalError("eval_single expects a first-order formula, got %r" % (phi,))


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
        the memo or the empty-team shortcut.  Anything else gets None and goes through _eval, which
        decides compound first-order formulas rowwise too (asking
        is_first_order here would walk every such formula twice, and
        eval_formula builds a new evaluator for each call).  A test that
        called self._eval would hold the evaluator in a reference cycle and
        keep its memo alive until the cycle collector runs."""
        missing = {v.name for v in free_vars(phi)}.difference(X.vars)
        if missing:
            raise EvalError("free variables %s not in team domain" % sorted(missing))
        if not self.literal:
            clause = _ATOM_CLAUSES.get(type(phi))
            if clause is not None:
                keys = self._prepare(phi, X)
                return lambda Y: clause(Y, keys)
            if type(phi) in _LITERALS:
                test = _relation_test(self.model, phi, X)
                if test is not None:
                    return test
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
            return all(map(self._prepare(phi, X), X.rows))
        if isinstance(phi, (FOAtom, NegFOAtom, Eq, NegEq, SeqEq, SeqNeq, Implies, Top)):
            return all(eval_single(self.model, s, phi) for s in X.assignments())
        if isinstance(phi, Bot):
            return X.is_empty()
        clause = _ATOM_CLAUSES.get(type(phi))
        if clause is not None:
            return clause(X, self._prepare(phi, X))
        if isinstance(phi, Gen):
            from .genatom import eval_direct
            if phi.atom_name not in self.registry:
                raise EvalError("unregistered atom %s" % phi.atom_name)
            return eval_direct(self.model, X, self.registry[phi.atom_name], phi.args)
        if isinstance(phi, And):
            return self._eval(X, phi.l) and self._eval(X, phi.r)
        if isinstance(phi, BoolOr):
            return self._eval(X, phi.l) or self._eval(X, phi.r)
        if isinstance(phi, SplitOr):
            return self._eval_split(X, phi)
        if isinstance(phi, Exists):
            return self._eval_exists(X, phi)
        if isinstance(phi, Forall):
            from .team import duplicate
            return self._eval(duplicate(X, self.model, phi.v.name), phi.body)
        if isinstance(phi, Exists1):
            return any(self._eval(_assign_const(X, phi.v.name, a), phi.body)
                       for a in self.model.domain)
        if isinstance(phi, Forall1):
            return all(self._eval(_assign_const(X, phi.v.name, a), phi.body)
                       for a in self.model.domain)
        if isinstance(phi, WNeg):
            return X.is_empty() or not self._eval(X, phi.body)
        raise EvalError("cannot evaluate %r" % (phi,))

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
        rows = sorted(X.rows)
        n = len(rows)
        if not self.literal:
            for fo_side, other in ((phi.l, phi.r), (phi.r, phi.l)):
                if is_first_order(fo_side):
                    test = self._prepare(fo_side, X)
                    passing, forced = [], []
                    for r in rows:
                        (passing if test(r) else forced).append(r)
                    if len(passing) > self.budget.max_split_rows:
                        break  # fall through to the generic search budget check
                    for k in range(len(passing) + 1):
                        for extra in itertools.combinations(passing, k):
                            if self._eval(Team(X.vars, forced + list(extra)), other):
                                return True
                    return False
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
        if not self.literal:
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
        """Literal clause: per-row choice of a nonempty value set."""
        rows = sorted(X.rows)
        choices = _nonempty_subsets(self.model.domain)
        total = len(choices) ** len(rows)
        if total > self.budget.max_fallback_combos:
            raise BudgetExceeded(
                "existential search space %d exceeds the budget of %d"
                % (total, self.budget.max_fallback_combos))
        x = phi.v.name
        overwrite = x in X.vars
        col = X.column(x) if overwrite else None
        new_vars = X.vars if overwrite else X.vars + (x,)
        for combo in itertools.product(choices, repeat=len(rows)):
            out = []
            for r, vals in zip(rows, combo):
                for a in vals:
                    out.append(r[:col] + (a,) + r[col + 1:] if overwrite else r + (a,))
            if self._eval(Team(new_vars, out), phi.body):
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
        overwrite = [v for v in bound if v in X.vars]
        ext = [v for v in bound if v not in X.vars]
        y_vars = X.vars + tuple(ext)
        col = {v: i for i, v in enumerate(y_vars)}
        base_cols = [i for i, v in enumerate(y_vars)
                     if v in X.vars and v not in overwrite]

        base_rows = sorted(X.rows)
        n_cand = len(base_rows) * len(model.domain) ** len(bound)
        if n_cand > self.budget.max_supplement_rows:
            raise BudgetExceeded(
                "%d candidate rows exceed the budget of %d"
                % (n_cand, self.budget.max_supplement_rows))

        ow_cols = [X.column(v) for v in overwrite]

        def build(base, vals):
            row = list(base) + [None] * len(ext)
            for v, a in zip(bound, vals):
                if v in X.vars:
                    row[X.column(v)] = a
                else:
                    row[col[v]] = a
            return tuple(row)

        candidates = []
        for base in base_rows:
            basekey = tuple(base[i] for i in range(len(X.vars)) if i not in ow_cols)
            for vals in itertools.product(model.domain, repeat=len(bound)):
                row = build(base, vals)
                s = dict(zip(y_vars, row))
                if all(eval_single(model, s, f) for f in fo):
                    candidates.append((basekey, row))

        needed = {tuple(base[i] for i in range(len(X.vars)) if i not in ow_cols)
                  for base in base_rows}

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


def _collect_block(phi, team_vars):
    """Gather E x1 ... E xn (conjunction), hoisting nested fresh existentials
    out of conjuncts.  Returns (bound variable names, conjunct list) or None
    if the binder pattern is not a clean block."""
    bound = []
    body = phi
    while isinstance(body, Exists):
        name = body.v.name
        if name in bound:
            return None
        bound.append(name)
        body = body.body

    conjuncts = _flatten_and(body)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(conjuncts):
            if isinstance(c, Exists):
                inner_bound = []
                inner = c
                while isinstance(inner, Exists):
                    inner_bound.append(inner.v.name)
                    inner = inner.body
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
    if isinstance(phi, (FOAtom, NegFOAtom)) and _team_vars_only(X, phi.args):
        holds = model.rel(phi.rel)
        if len(phi.args) == 1:
            i = X.column(phi.args[0].name)
            if isinstance(phi, FOAtom):
                return lambda r: (r[i],) in holds
            return lambda r: (r[i],) not in holds
        get = _key(X, phi.args)
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


def _relation_test(model, phi, X):
    """For P(xs) or !P(xs) over team variables, the team test that the
    xs-projection of every row is in P, or of none: a set comparison that
    stops at the first failing row.  None for any other literal."""
    if type(phi) not in (FOAtom, NegFOAtom) or not _team_vars_only(X, phi.args):
        return None
    holds = model.rel(phi.rel)
    if len(phi.args) == 1:
        holds = {t[0] for t in holds if len(t) == 1}  # _key yields bare values
    get = _key(X, phi.args)
    if isinstance(phi, FOAtom):
        return lambda Y: holds.issuperset(map(get, Y.rows))
    return lambda Y: holds.isdisjoint(map(get, Y.rows))


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


def _assign_const(X, x, a):
    if x in X.vars:
        i = X.column(x)
        return Team(X.vars, [r[:i] + (a,) + r[i + 1:] for r in X.rows])
    return Team(X.vars + (x,), [r + (a,) for r in X.rows])


def eval_formula(model, X, phi, registry=None, budget=None, literal=False):
    """M |=_X phi under lax team semantics."""
    return Evaluator(model, registry, budget, literal).eval(X, phi)
