"""AST for the extended team-semantics language.

Formulas are in negation normal form: negation occurs only on first-order
literals (NegFOAtom / NegEq) or as the weak classical negation connective
WNeg.  A few surface-level sugar nodes (Implies, SeqEq, SeqNeq) are kept
around so proof scripts can talk about sequence equalities the way the
literature writes them; expand_sugar rewrites them away.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return "Var(%s)" % self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self):
        return "Const(%s)" % self.name


class Formula:
    """Base class; subclasses are frozen dataclasses and hence hashable.
    Each node's hash is computed once, on first use, by the dataclass field
    hash and kept in the instance __dict__; until then the class-level None
    stands in (see the end of this module)."""

    __slots__ = ()
    _hash = None

    def __getstate__(self):
        # string hashes differ between interpreters: never pickle the cache
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class FOAtom(Formula):
    rel: str
    args: tuple  # of Term


@dataclass(frozen=True)
class NegFOAtom(Formula):
    rel: str
    args: tuple


@dataclass(frozen=True)
class Eq(Formula):
    lhs: object
    rhs: object


@dataclass(frozen=True)
class NegEq(Formula):
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Dep(Formula):
    """Dependence atom =(determiners; dependent).  The dependent part may be
    a sequence (evaluated via the equivalence =(x,y) == y _|_x y)."""

    determiners: tuple  # of Var
    dependent: tuple  # of Var, nonempty

    def __post_init__(self):
        if len(self.dependent) < 1:
            raise ValueError("dependence atom needs a dependent variable")


@dataclass(frozen=True)
class Ind(Formula):
    """Independence atom xs _|_zs ys."""

    xs: tuple
    zs: tuple
    ys: tuple


@dataclass(frozen=True)
class Inc(Formula):
    """Inclusion atom xs (= ys, componentwise sequences of equal length."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("inclusion atom sides must have equal length")


@dataclass(frozen=True)
class Gen(Formula):
    """Occurrence of a registered generalized atom."""

    atom_name: str
    args: tuple  # of Var


@dataclass(frozen=True)
class And(Formula):
    l: Formula
    r: Formula


@dataclass(frozen=True)
class SplitOr(Formula):
    """Team-splitting disjunction."""

    l: Formula
    r: Formula


@dataclass(frozen=True)
class BoolOr(Formula):
    """Boolean (non-splitting) disjunction."""

    l: Formula
    r: Formula


@dataclass(frozen=True)
class Exists(Formula):
    v: Var
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    v: Var
    body: Formula


@dataclass(frozen=True)
class Exists1(Formula):
    """Exists-one: some single value for v works uniformly on the team."""

    v: Var
    body: Formula


@dataclass(frozen=True)
class Forall1(Formula):
    v: Var
    body: Formula


@dataclass(frozen=True)
class WNeg(Formula):
    body: Formula


# --- sugar ------------------------------------------------------------------


@dataclass(frozen=True)
class Implies(Formula):
    """FO-antecedent implication, sugar for fo_negate(ante) \\/ cons."""

    ante: Formula
    cons: Formula


@dataclass(frozen=True)
class SeqEq(Formula):
    xs: tuple  # of Term
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("sequence equality sides must have equal length")


@dataclass(frozen=True)
class SeqNeq(Formula):
    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("sequence inequality sides must have equal length")


def _cached_hash(self):
    h = self._hash
    if h is None:
        h = self._field_hash()
        object.__setattr__(self, "_hash", h)
    return h


for _cls in Formula.__subclasses__():
    _cls._field_hash = _cls.__hash__
    _cls.__hash__ = _cached_hash


def conj(parts):
    """Left-associated conjunction of a nonempty list (Top for empty)."""
    parts = list(parts)
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def split_disj(parts):
    parts = list(parts)
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = SplitOr(out, p)
    return out


def exists_block(vs, body):
    for v in reversed(list(vs)):
        body = Exists(v, body)
    return body


def term_vars(t):
    return {t} if isinstance(t, Var) else set()


def free_vars(phi):
    """The set of free Var objects of a formula."""
    if isinstance(phi, (FOAtom, NegFOAtom)):
        out = set()
        for a in phi.args:
            out |= term_vars(a)
        return out
    if isinstance(phi, (Eq, NegEq)):
        return term_vars(phi.lhs) | term_vars(phi.rhs)
    if isinstance(phi, (Bot, Top)):
        return set()
    if isinstance(phi, Dep):
        return set(phi.determiners) | set(phi.dependent)
    if isinstance(phi, Ind):
        return set(phi.xs) | set(phi.zs) | set(phi.ys)
    if isinstance(phi, Inc):
        return set(phi.xs) | set(phi.ys)
    if isinstance(phi, Gen):
        return set(phi.args)
    if isinstance(phi, (And, SplitOr, BoolOr)):
        return free_vars(phi.l) | free_vars(phi.r)
    if isinstance(phi, (Exists, Forall, Exists1, Forall1)):
        return free_vars(phi.body) - {phi.v}
    if isinstance(phi, WNeg):
        return free_vars(phi.body)
    if isinstance(phi, Implies):
        return free_vars(phi.ante) | free_vars(phi.cons)
    if isinstance(phi, (SeqEq, SeqNeq)):
        out = set()
        for t in phi.xs + phi.ys:
            out |= term_vars(t)
        return out
    raise TypeError("not a formula: %r" % (phi,))


def sorted_free_vars(phi):
    return tuple(sorted(free_vars(phi), key=lambda v: v.name))


_fresh_counter = [0]


def fresh_var(base="v"):
    _fresh_counter[0] += 1
    return Var("%s$%d" % (base, _fresh_counter[0]))


class SubstitutionError(ValueError):
    pass


def _subst_term(t, sigma):
    if isinstance(t, Var):
        return sigma.get(t, t)
    return t


def _subst_atom_var(v, sigma, where):
    t = sigma.get(v, v)
    if not isinstance(t, Var):
        raise SubstitutionError(
            "cannot substitute constant %s into %s (variables only)" % (t.name, where))
    return t


def substitute(phi, sigma):
    """Capture-avoiding simultaneous substitution of terms for free variables.

    sigma maps Var -> Term.  Substituting a Constant into a Dep/Ind/Inc/Gen
    argument position raises SubstitutionError.
    """
    sigma = {v: t for v, t in sigma.items() if t != v}
    if not sigma:
        return phi
    if isinstance(phi, FOAtom):
        return FOAtom(phi.rel, tuple(_subst_term(a, sigma) for a in phi.args))
    if isinstance(phi, NegFOAtom):
        return NegFOAtom(phi.rel, tuple(_subst_term(a, sigma) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(_subst_term(phi.lhs, sigma), _subst_term(phi.rhs, sigma))
    if isinstance(phi, NegEq):
        return NegEq(_subst_term(phi.lhs, sigma), _subst_term(phi.rhs, sigma))
    if isinstance(phi, (Bot, Top)):
        return phi
    if isinstance(phi, Dep):
        return Dep(tuple(_subst_atom_var(v, sigma, "dependence atom") for v in phi.determiners),
                   tuple(_subst_atom_var(v, sigma, "dependence atom") for v in phi.dependent))
    if isinstance(phi, Ind):
        return Ind(tuple(_subst_atom_var(v, sigma, "independence atom") for v in phi.xs),
                   tuple(_subst_atom_var(v, sigma, "independence atom") for v in phi.zs),
                   tuple(_subst_atom_var(v, sigma, "independence atom") for v in phi.ys))
    if isinstance(phi, Inc):
        return Inc(tuple(_subst_atom_var(v, sigma, "inclusion atom") for v in phi.xs),
                   tuple(_subst_atom_var(v, sigma, "inclusion atom") for v in phi.ys))
    if isinstance(phi, Gen):
        return Gen(phi.atom_name, tuple(_subst_atom_var(v, sigma, "generalized atom")
                                        for v in phi.args))
    if isinstance(phi, (And, SplitOr, BoolOr)):
        return type(phi)(substitute(phi.l, sigma), substitute(phi.r, sigma))
    if isinstance(phi, (Exists, Forall, Exists1, Forall1)):
        inner = {v: t for v, t in sigma.items() if v != phi.v}
        if not inner:
            return phi
        captured = any(phi.v in term_vars(t) for v, t in inner.items()
                       if v in free_vars(phi.body))
        v, body = phi.v, phi.body
        if captured:
            v2 = fresh_var(phi.v.name.split("$")[0])
            body = substitute(body, {v: v2})
            v = v2
        return type(phi)(v, substitute(body, inner))
    if isinstance(phi, WNeg):
        return WNeg(substitute(phi.body, sigma))
    if isinstance(phi, Implies):
        return Implies(substitute(phi.ante, sigma), substitute(phi.cons, sigma))
    if isinstance(phi, (SeqEq, SeqNeq)):
        return type(phi)(tuple(_subst_term(t, sigma) for t in phi.xs),
                         tuple(_subst_term(t, sigma) for t in phi.ys))
    raise TypeError("not a formula: %r" % (phi,))


def is_first_order(phi):
    """True iff phi uses only FO literals, bot/top, /\\, \\/, E, A (sugar over
    FO parts counts as FO)."""
    if isinstance(phi, (FOAtom, NegFOAtom, Eq, NegEq, Bot, Top, SeqEq, SeqNeq)):
        return True
    if isinstance(phi, (And, SplitOr)):
        return is_first_order(phi.l) and is_first_order(phi.r)
    if isinstance(phi, (Exists, Forall)):
        return is_first_order(phi.body)
    if isinstance(phi, Implies):
        return is_first_order(phi.ante) and is_first_order(phi.cons)
    return False


def is_quantifier_free_fo(phi):
    if isinstance(phi, (FOAtom, NegFOAtom, Eq, NegEq, Bot, Top, SeqEq, SeqNeq)):
        return True
    if isinstance(phi, (And, SplitOr)):
        return is_quantifier_free_fo(phi.l) and is_quantifier_free_fo(phi.r)
    if isinstance(phi, Implies):
        return is_quantifier_free_fo(phi.ante) and is_quantifier_free_fo(phi.cons)
    return False


class NotFirstOrderError(ValueError):
    pass


def fo_negate(phi):
    """Syntactic NNF negation of a first-order formula."""
    if isinstance(phi, FOAtom):
        return NegFOAtom(phi.rel, phi.args)
    if isinstance(phi, NegFOAtom):
        return FOAtom(phi.rel, phi.args)
    if isinstance(phi, Eq):
        return NegEq(phi.lhs, phi.rhs)
    if isinstance(phi, NegEq):
        return Eq(phi.lhs, phi.rhs)
    if isinstance(phi, Bot):
        return Top()
    if isinstance(phi, Top):
        return Bot()
    if isinstance(phi, And):
        return SplitOr(fo_negate(phi.l), fo_negate(phi.r))
    if isinstance(phi, SplitOr):
        return And(fo_negate(phi.l), fo_negate(phi.r))
    if isinstance(phi, Exists):
        return Forall(phi.v, fo_negate(phi.body))
    if isinstance(phi, Forall):
        return Exists(phi.v, fo_negate(phi.body))
    if isinstance(phi, SeqEq):
        return SeqNeq(phi.xs, phi.ys)
    if isinstance(phi, SeqNeq):
        return SeqEq(phi.xs, phi.ys)
    if isinstance(phi, Implies):
        return And(expand_sugar(phi.ante), fo_negate(phi.cons))
    raise NotFirstOrderError("cannot negate non-first-order formula: %r" % (phi,))


def expand_sugar(phi):
    """Rewrite Implies/SeqEq/SeqNeq into core connectives, recursively."""
    if isinstance(phi, Implies):
        if not is_first_order(phi.ante):
            raise NotFirstOrderError("implication antecedent must be first-order")
        return SplitOr(fo_negate(expand_sugar(phi.ante)), expand_sugar(phi.cons))
    if isinstance(phi, SeqEq):
        if not phi.xs:
            return Top()
        return conj([Eq(a, b) for a, b in zip(phi.xs, phi.ys)])
    if isinstance(phi, SeqNeq):
        if not phi.xs:
            return Bot()
        return split_disj([NegEq(a, b) for a, b in zip(phi.xs, phi.ys)])
    if isinstance(phi, (And, SplitOr, BoolOr)):
        return type(phi)(expand_sugar(phi.l), expand_sugar(phi.r))
    if isinstance(phi, (Exists, Forall, Exists1, Forall1)):
        return type(phi)(phi.v, expand_sugar(phi.body))
    if isinstance(phi, WNeg):
        return WNeg(expand_sugar(phi.body))
    return phi


def alpha_equal(a, b):
    """Structural equality modulo renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a, b, ma, mb):
    if type(a) is not type(b):
        return False

    def tm(t, u):
        if isinstance(t, Var) and isinstance(u, Var):
            return ma.get(t, t) == mb.get(u, u) and ma.get(t) == mb.get(u)
        return t == u

    def tms(ts, us):
        return len(ts) == len(us) and all(tm(t, u) for t, u in zip(ts, us))

    if isinstance(a, (FOAtom, NegFOAtom)):
        return a.rel == b.rel and tms(a.args, b.args)
    if isinstance(a, (Eq, NegEq)):
        return tm(a.lhs, b.lhs) and tm(a.rhs, b.rhs)
    if isinstance(a, (Bot, Top)):
        return True
    if isinstance(a, Dep):
        return tms(a.determiners, b.determiners) and tms(a.dependent, b.dependent)
    if isinstance(a, Ind):
        return tms(a.xs, b.xs) and tms(a.zs, b.zs) and tms(a.ys, b.ys)
    if isinstance(a, Inc):
        return tms(a.xs, b.xs) and tms(a.ys, b.ys)
    if isinstance(a, Gen):
        return a.atom_name == b.atom_name and tms(a.args, b.args)
    if isinstance(a, (And, SplitOr, BoolOr)):
        return _alpha(a.l, b.l, ma, mb) and _alpha(a.r, b.r, ma, mb)
    if isinstance(a, (Exists, Forall, Exists1, Forall1)):
        mark = object()
        ma2 = dict(ma)
        mb2 = dict(mb)
        ma2[a.v] = mark
        mb2[b.v] = mark
        return _alpha(a.body, b.body, ma2, mb2)
    if isinstance(a, WNeg):
        return _alpha(a.body, b.body, ma, mb)
    if isinstance(a, Implies):
        return _alpha(a.ante, b.ante, ma, mb) and _alpha(a.cons, b.cons, ma, mb)
    if isinstance(a, (SeqEq, SeqNeq)):
        return tms(a.xs, b.xs) and tms(a.ys, b.ys)
    raise TypeError("not a formula: %r" % (a,))
