"""AST for the extended team-semantics language.

Formulas are in negation normal form: negation occurs only on first-order
literals (NegFOAtom / NegEq) or as the weak classical negation connective
WNeg.  A few surface-level sugar nodes (Implies, SeqEq, SeqNeq) are kept
around so proof scripts can talk about sequence equalities the way the
literature writes them; expand_sugar rewrites them away.

A node class declares its fields once, as annotations in its class body, in
constructor order; Node reads them when the class is created and gives the
class its constructor, equality, hash and repr.  The shape table SHAPES is
read off the same annotations.  A Formula field holds a subformula, a Var
field the variable the node binds, a Term field one term, a tuple[Term, ...]
field a sequence of terms and a tuple[Var, ...] field a sequence of variables
only (the arguments of Dep, Ind, Inc and Gen); any other field (the name of a
relation or atom) is a label.  children, terms and rebuild read the table,
and so do the traversals over it: substitute, expand_sugar, subformulas and
match.  free_names and is_first_order, which run under every evaluation,
do not walk the table: when a class is created, one clause of each is built
from its shape (a binder's body minus the bound name, the union of two
subformulas, the names of a leaf's variables, ...), and the two functions
call the clause of type(phi).  free_names is the one free-variable walk; its
sets of str hash in C, and free_vars and sorted_free_vars wrap it to give
Vars.  A new node class needs nothing more here than its annotated fields
(and, if it is first-order, its entry in _FIRST_ORDER and its dual in
_FO_DUALS); the clauses that give it a meaning (the evaluator, the printer)
are written out where they live.
"""

from operator import attrgetter

_set = object.__setattr__
_name = attrgetter("name")


def _init(cls, _check):
    """The __init__ of a node class: one argument per field, named as the
    field, each stored in the instance __dict__; then the class's own
    __post_init__ check, if it has one.  One template per arity, as a loop
    over the arguments makes every construction slower; the template's
    parameters are renamed to the fields, so fields pass by keyword too."""
    names = cls._fields
    if not names:
        def __init__(self):
            if _check is not None:
                _check(self)
    elif len(names) == 1:
        (_a,) = names

        def __init__(self, a):
            _set(self, _a, a)
            if _check is not None:
                _check(self)
    elif len(names) == 2:
        _a, _b = names

        def __init__(self, a, b):
            _set(self, _a, a)
            _set(self, _b, b)
            if _check is not None:
                _check(self)
    elif len(names) == 3:
        _a, _b, _c = names

        def __init__(self, a, b, c):
            _set(self, _a, a)
            _set(self, _b, b)
            _set(self, _c, c)
            if _check is not None:
                _check(self)
    else:
        raise TypeError("a node class has at most three fields")
    __init__.__code__ = __init__.__code__.replace(co_varnames=("self",) + names)
    __init__.__qualname__ = cls.__qualname__ + ".__init__"
    return __init__


class Node:
    """An immutable tree node whose fields are its class's own annotations.
    Two nodes are equal iff they are of the same class with equal fields.
    A node's hash is computed once, on first use, and kept in the instance
    __dict__; until then the class-level None stands in."""

    __slots__ = ()
    _hash = None

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        # what equality compares and the hash hashes: the one field, the
        # tuple of the fields, or for a class without fields the class
        cls._key = attrgetter(*cls._fields) if cls._fields else type
        cls.__init__ = _init(cls, vars(cls).get("__post_init__"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            _set(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __getstate__(self):
        # string hashes differ between interpreters: never pickle the cache
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


class Var(Node):
    name: str

    def __repr__(self):
        return "Var(%s)" % self.name


class Const(Node):
    name: str

    def __repr__(self):
        return "Const(%s)" % self.name


Term = Var | Const


class Formula(Node):
    """Base class of the formula nodes.  Creating a subclass enters its
    shape, read off its annotated fields, into SHAPES, and its free_names and
    is_first_order clauses, built from that shape, into _FREE_NAMES and
    _IS_FIRST_ORDER.  A class is not first-order until _FIRST_ORDER names it,
    which only the classes defined in this module can be."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        SHAPES[cls] = shape = Shape(cls)
        _FREE_NAMES[cls] = _free_names_clause(shape)
        _IS_FIRST_ORDER[cls] = _not_first_order


# --- the shape table ----------------------------------------------------------

SUB, BINDER, TERM, TERMS, VARS, LABEL = "sub", "binder", "term", "terms", "vars", "label"
_KINDS = {Formula: SUB, Var: BINDER, Term: TERM,
          tuple[Term, ...]: TERMS, tuple[Var, ...]: VARS}


def _values(names):
    """node -> tuple of the values of the named fields.  An attrgetter, not a
    loop over the names: the readers run at every node that substitute,
    expand_sugar, match or subformulas visits, and at every two-subformula
    node of free_names and is_first_order."""
    if not names:
        return lambda phi: ()
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda phi: (get(phi),)


class Shape:
    """The fields of a formula node class: fields, its (name, kind) pairs in
    constructor order; binder, the name of the bound-variable field or None;
    vars_only, whether its term fields hold variables only; and the readers
    children and terms, node -> tuple of its subformulas or of its terms,
    the bound variable included."""

    __slots__ = ("fields", "binder", "vars_only", "children", "terms")

    def __init__(self, cls):
        self.fields = kinds = tuple((name, _KINDS.get(annotation, LABEL))
                                    for name, annotation in cls.__annotations__.items())
        named = lambda *wanted: tuple(name for name, kind in kinds if kind in wanted)
        self.binder = (named(BINDER) or (None,))[0]
        self.vars_only = bool(named(VARS))
        self.children = _values(named(SUB))
        if named(TERMS, VARS):  # no class has both single terms and term sequences
            sequences = named(TERMS, VARS)
            self.terms = (attrgetter(*sequences) if len(sequences) == 1 else
                          lambda phi, get=_values(sequences): sum(get(phi), ()))
        else:
            self.terms = _values(named(BINDER, TERM))


SHAPES = {}  # formula node class -> Shape, in the order the classes are defined
_FREE_NAMES = {}  # formula node class -> its free_names clause
_IS_FIRST_ORDER = {}  # formula node class -> its is_first_order clause


def _free_names_clause(shape):
    """node -> a new set of the names of its free variables, for the nodes
    of one shape.  The clause recurses through the module-level free_names,
    so a wrapper put there sees every call.  The shapes of the classes here
    get a clause that knows where their variables are; any other shape gets
    the walk over its children and terms."""
    subs = tuple(name for name, kind in shape.fields if kind == SUB)
    term_fields = {name: kind for name, kind in shape.fields if kind not in (SUB, LABEL)}
    terms, kids, binder = shape.terms, shape.children, shape.binder
    if not subs and binder is None:
        if set(term_fields.values()) <= {VARS}:  # Dep, Ind, Inc, Gen, Bot, Top
            return lambda phi: set(map(_name, terms(phi)))
        return lambda phi: {t.name for t in terms(phi) if type(t) is Var}
    if len(subs) == 1 and not term_fields:
        sub = attrgetter(*subs)
        return lambda phi: free_names(sub(phi))
    if len(subs) == 1 and list(term_fields) == [binder]:
        sub, bound = attrgetter(*subs), attrgetter(binder + ".name")

        def clause(phi):
            out = free_names(sub(phi))
            out.discard(bound(phi))
            return out
        return clause
    if len(subs) == 2 and not term_fields:
        def clause(phi):
            left, right = kids(phi)
            out = free_names(left)
            out |= free_names(right)
            return out
        return clause

    def clause(phi):
        out = {t.name for t in terms(phi) if type(t) is Var}
        for c in kids(phi):
            out |= free_names(c)
        if binder is not None:
            out.discard(getattr(phi, binder).name)
        return out
    return clause


def _first_order_clause(shape):
    """node -> whether it is first-order, for the nodes of one first-order
    class: a leaf is, a compound node is iff its subformulas are (through
    the module-level is_first_order, as free_names recurses)."""
    subs = tuple(name for name, kind in shape.fields if kind == SUB)
    if not subs:
        return lambda phi: True
    if len(subs) == 1:
        sub = attrgetter(*subs)
        return lambda phi: is_first_order(sub(phi))
    kids = shape.children
    if len(subs) == 2:
        def clause(phi):
            left, right = kids(phi)
            return is_first_order(left) and is_first_order(right)
        return clause
    return lambda phi: all(map(is_first_order, kids(phi)))


def _not_first_order(phi):
    return False


# --- the formula node classes -------------------------------------------------


class FOAtom(Formula):
    rel: str
    args: tuple[Term, ...]


class NegFOAtom(Formula):
    rel: str
    args: tuple[Term, ...]


class Eq(Formula):
    lhs: Term
    rhs: Term


class NegEq(Formula):
    lhs: Term
    rhs: Term


class Bot(Formula):
    pass


class Top(Formula):
    pass


class Dep(Formula):
    """Dependence atom =(determiners; dependent).  The dependent part may be
    a sequence (evaluated via the equivalence =(x,y) == y _|_x y)."""

    determiners: tuple[Var, ...]
    dependent: tuple[Var, ...]  # nonempty

    def __post_init__(self):
        if len(self.dependent) < 1:
            raise ValueError("dependence atom needs a dependent variable")


class Ind(Formula):
    """Independence atom xs _|_zs ys."""

    xs: tuple[Var, ...]
    zs: tuple[Var, ...]
    ys: tuple[Var, ...]


class Inc(Formula):
    """Inclusion atom xs (= ys, componentwise sequences of equal length."""

    xs: tuple[Var, ...]
    ys: tuple[Var, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("inclusion atom sides must have equal length")


class Gen(Formula):
    """Occurrence of a registered generalized atom."""

    atom_name: str
    args: tuple[Var, ...]


class And(Formula):
    l: Formula
    r: Formula


class SplitOr(Formula):
    """Team-splitting disjunction."""

    l: Formula
    r: Formula


class BoolOr(Formula):
    """Boolean (non-splitting) disjunction."""

    l: Formula
    r: Formula


class Exists(Formula):
    v: Var
    body: Formula


class Forall(Formula):
    v: Var
    body: Formula


class Exists1(Formula):
    """Exists-one: some single value for v works uniformly on the team."""

    v: Var
    body: Formula


class Forall1(Formula):
    v: Var
    body: Formula


class WNeg(Formula):
    body: Formula


# --- sugar ------------------------------------------------------------------


class Implies(Formula):
    """FO-antecedent implication, sugar for fo_negate(ante) \\/ cons."""

    ante: Formula
    cons: Formula


class SeqEq(Formula):
    xs: tuple[Term, ...]
    ys: tuple[Term, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("sequence equality sides must have equal length")


class SeqNeq(Formula):
    xs: tuple[Term, ...]
    ys: tuple[Term, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("sequence inequality sides must have equal length")


# --- traversal over the shape table -------------------------------------------


def children(phi):
    """The subformulas of phi's own fields, in field order."""
    return SHAPES[type(phi)].children(phi)


def terms(phi):
    """The terms of phi's own fields in field order: the variable phi binds,
    or the terms of its term fields."""
    return SHAPES[type(phi)].terms(phi)


def rebuild(phi, kids, ts):
    """A node of phi's class with phi's labels, the subformulas kids and the
    terms ts, cut into fields of the lengths of phi's."""
    kids, ts, args = iter(kids), tuple(ts), []
    for name, kind in SHAPES[type(phi)].fields:
        if kind == SUB:
            args.append(next(kids))
        elif kind == LABEL:
            args.append(getattr(phi, name))
        elif kind in (BINDER, TERM):
            args.append(ts[0])
            ts = ts[1:]
        else:
            n = len(getattr(phi, name))
            args.append(ts[:n])
            ts = ts[n:]
    return type(phi)(*args)


def subformulas(phi):
    """phi and all its subformulas, in pre-order."""
    yield phi
    for c in children(phi):
        yield from subformulas(c)


def match(a, b, term, bind, env):
    """Zip two formula trees: the same node classes and labels, sequences of
    the same lengths, term(env, t, u) at every pair of term positions, and
    below each pair of binders v, w the environment bind(env, v, w), where
    None means the two binders may not pair."""
    if type(a) is not type(b):
        return False
    for name, kind in SHAPES[type(a)].fields:
        x, y = getattr(a, name), getattr(b, name)
        if kind == SUB:
            if not match(x, y, term, bind, env):
                return False
        elif kind == BINDER:
            env = bind(env, x, y)
            if env is None:
                return False
        elif kind == LABEL:
            if x != y:
                return False
        else:
            if kind == TERM:
                x, y = (x,), (y,)
            if len(x) != len(y) or not all(term(env, t, u) for t, u in zip(x, y)):
                return False
    return True


# --- construction and traversal -------------------------------------------------


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


def exists_prefix(phi):
    """The variables of phi's leading existential quantifiers, outermost
    first, and the formula below them: the inverse of exists_block."""
    vs = []
    while isinstance(phi, Exists):
        vs.append(phi.v)
        phi = phi.body
    return tuple(vs), phi


def forall_block(vs, body):
    for v in reversed(list(vs)):
        body = Forall(v, body)
    return body


def free_names(phi):
    """The names of phi's free variables, a new set on every call."""
    return _FREE_NAMES[type(phi)](phi)


def free_vars(phi):
    """The set of free Vars of a formula, built from free_names."""
    return set(map(Var, free_names(phi)))


def sorted_free_vars(phi):
    return tuple(map(Var, sorted(free_names(phi))))


_fresh_counter = [0]


def fresh_var(base="v"):
    _fresh_counter[0] += 1
    return Var("%s$%d" % (base, _fresh_counter[0]))


class SubstitutionError(ValueError):
    pass


def substitute(phi, sigma):
    """Capture-avoiding simultaneous substitution of terms for free variables.

    sigma maps Var -> Term.  Substituting a Constant into a Dep/Ind/Inc/Gen
    argument position raises SubstitutionError.
    """
    sigma = {v: t for v, t in sigma.items() if t != v}
    if not sigma:
        return phi
    shape = SHAPES[type(phi)]
    if shape.binder is not None:
        v = getattr(phi, shape.binder)
        inner = {u: t for u, t in sigma.items() if u != v}
        if not inner:
            return phi
        (body,) = shape.children(phi)
        fv = free_names(body)
        if any(t == v for u, t in inner.items() if u.name in fv):
            v2 = fresh_var(v.name.split("$")[0])
            body = substitute(body, {v: v2})
            v = v2
        return rebuild(phi, [substitute(body, inner)], (v,))
    ts = [sigma.get(t, t) for t in shape.terms(phi)]
    bad = [t for t in ts if type(t) is not Var] if shape.vars_only else ()
    if bad:
        raise SubstitutionError("cannot substitute constant %s into %s (variables "
                                "only)" % (bad[0].name, type(phi).__name__))
    return rebuild(phi, [substitute(c, sigma) for c in shape.children(phi)], ts)


_FIRST_ORDER = frozenset((FOAtom, NegFOAtom, Eq, NegEq, Bot, Top, SeqEq, SeqNeq,
                          And, SplitOr, Implies, Exists, Forall))
_IS_FIRST_ORDER.update((cls, _first_order_clause(SHAPES[cls])) for cls in _FIRST_ORDER)


def is_first_order(phi):
    """True iff phi uses only FO literals, bot/top, /\\, \\/, E, A (sugar over
    FO parts counts as FO)."""
    return _IS_FIRST_ORDER[type(phi)](phi)


class NotFirstOrderError(ValueError):
    pass


# each first-order node class and the class of its negation (the table is
# symmetric); fo_negate rebuilds a node as its dual over the same fields,
# with the subformulas negated
_FO_DUALS = {FOAtom: NegFOAtom, Eq: NegEq, Bot: Top, And: SplitOr,
             Exists: Forall, SeqEq: SeqNeq}
_FO_DUALS.update({dual: cls for cls, dual in _FO_DUALS.items()})


def fo_negate(phi):
    """Syntactic NNF negation of a first-order formula."""
    if isinstance(phi, Implies):
        return And(expand_sugar(phi.ante), fo_negate(phi.cons))
    dual = _FO_DUALS.get(type(phi))
    if dual is None:
        raise NotFirstOrderError("cannot negate non-first-order formula: %r" % (phi,))
    return dual(*[fo_negate(getattr(phi, name)) if kind == SUB else getattr(phi, name)
                  for name, kind in SHAPES[type(phi)].fields])


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
    shape = SHAPES[type(phi)]
    kids = shape.children(phi)
    return rebuild(phi, map(expand_sugar, kids), shape.terms(phi)) if kids else phi


def alpha_equal(a, b):
    """Structural equality modulo renaming of bound variables.  The
    environment lists the pairs of binders met on the way down, innermost
    first; a pair of variables is bound by the same pair of binders, or both
    are free and equal."""

    def term(env, t, u):
        for v, w in env:
            if t == v or u == w:
                return t == v and u == w
        return t == u

    return match(a, b, term, lambda env, v, w: ((v, w),) + env, ())
