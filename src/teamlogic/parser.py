"""Concrete ASCII syntax for formulas, with a round-tripping printer.

Grammar (loosest to tightest):

    formula := bor ("->" formula)?          implication, right-assoc, FO antecedent
    bor     := or  ("||" or)*               boolean disjunction
    or      := and ("\\/" and)*             splitting disjunction
    and     := pre ("/\\" pre)*
    pre     := ("E"|"A"|"E1"|"A1") var "." pre | "wneg" pre | "!" pre | prim
    prim    := "bot" | "top"
             | "=(" varlist (";" varlist)? ")"
             | "inc(" varlist ";" varlist ")"
             | "ind(" varlist ";" varlist ";" varlist ")"
             | ident "(" termlist ")"
             | "(" formula ")"
             | termseq ("="|"!=") termseq

"!" is only permitted on first-order subformulas and is eliminated by
fo_negate.  "=(x,y,z)" without a ";" reads all-but-last-determine-last.
Identifiers listed in `constants` parse as constants, everything else as a
variable.  Variables containing "$" are reserved for generated formulas and
rejected unless allow_reserved is set.
"""

import re

from .formula import (And, Bot, BoolOr, Const, Dep, Eq, Exists, Exists1,
                      FOAtom, Forall, Forall1, Gen, Implies, Inc, Ind, NegEq,
                      NegFOAtom, SeqEq, SeqNeq, SplitOr, Top, Var, WNeg,
                      expand_sugar, fo_negate, is_first_order)


class SourceSpan:
    def __init__(self, start, end):
        assert start <= end
        self.start = start
        self.end = end

    def __repr__(self):
        return "SourceSpan(%d, %d)" % (self.start, self.end)


class ParseError(ValueError):
    def __init__(self, message, span):
        super().__init__("%s (at %d..%d)" % (message, span.start, span.end))
        self.span = span


_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_IDENT_RE = re.compile(_IDENT)
# One scan: an operator, an identifier, or any other non-space character,
# which is an error.
_TOKEN_RE = re.compile(r"(->|!=|\|\||/\\|\\/|[().,;=!])|(%s)|(\S)" % _IDENT)

KEYWORDS = {"E", "A", "E1", "A1", "wneg", "bot", "top", "inc", "ind"}


def _tokenize(text):
    """(text, start, end) per token, then (None, n, n) at the end."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 3:
            raise ParseError("unexpected character %r" % m.group(),
                             SourceSpan(m.start(), m.end()))
        toks.append((m.group(), m.start(), m.end()))
    toks.append((None, len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text, constants, atoms, allow_reserved):
        self.toks = _tokenize(text)
        self.i = 0
        self.constants = set(constants)
        self.atoms = atoms or {}
        self.allow_reserved = allow_reserved

    def peek(self):
        return self.toks[self.i][0]

    def span(self, i=None):
        """The source span of token i, by default the current one."""
        _, start, end = self.toks[self.i if i is None else i]
        return SourceSpan(start, end)

    def next(self):
        t = self.toks[self.i][0]
        self.i += 1
        return t

    def expect(self, tok):
        if self.peek() != tok:
            self.fail("expected %r, got %r" % (tok, self.peek()))
        self.i += 1

    def fail(self, msg, i=None):
        raise ParseError(msg, self.span(i))

    # -- terms ---------------------------------------------------------------

    def is_ident(self, t):
        return t is not None and _IDENT_RE.fullmatch(t) is not None

    def term(self):
        t = self.peek()
        if not self.is_ident(t) or t in KEYWORDS:
            self.fail("expected a term, got %r" % t)
        if "$" in t and not self.allow_reserved:
            self.fail("variable %r uses the reserved '$' prefix" % t)
        self.i += 1
        if t in self.constants:
            return Const(t)
        return Var(t)

    def variable(self):
        t = self.term()
        if not isinstance(t, Var):
            self.fail("expected a variable, not the constant %r" % t.name)
        return t

    def varlist(self):
        """Comma-separated (possibly empty) list of variables."""
        out = []
        while self.is_ident(self.peek()) and self.peek() not in KEYWORDS:
            out.append(self.variable())
            if self.peek() == ",":
                self.next()
            else:
                break
        return tuple(out)

    def termlist(self):
        out = [self.term()]
        while self.peek() == ",":
            self.next()
            out.append(self.term())
        return tuple(out)

    # -- formulas ------------------------------------------------------------

    def formula(self):
        lhs = self.bor()
        if self.peek() == "->":
            at = self.i
            self.next()
            rhs = self.formula()
            if not is_first_order(lhs):
                self.fail("implication antecedent must be first-order", at)
            return Implies(lhs, rhs)
        return lhs

    def bor(self):
        out = self.orr()
        while self.peek() == "||":
            self.next()
            out = BoolOr(out, self.orr())
        return out

    def orr(self):
        out = self.andd()
        while self.peek() == "\\/":
            self.next()
            out = SplitOr(out, self.andd())
        return out

    def andd(self):
        out = self.pre()
        while self.peek() == "/\\":
            self.next()
            out = And(out, self.pre())
        return out

    def pre(self):
        t = self.peek()
        if t in ("E", "A", "E1", "A1"):
            self.next()
            v = self.variable()
            self.expect(".")
            body = self.pre()
            cls = {"E": Exists, "A": Forall, "E1": Exists1, "A1": Forall1}[t]
            return cls(v, body)
        if t == "wneg":
            self.next()
            return WNeg(self.pre())
        if t == "!":
            at = self.i
            self.next()
            body = self.pre()
            if not is_first_order(body):
                self.fail("'!' applies to first-order subformulas only", at)
            return fo_negate(expand_sugar(body))
        return self.prim()

    def prim(self):
        t = self.peek()
        if t == "bot":
            self.next()
            return Bot()
        if t == "top":
            self.next()
            return Top()
        if t == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if t == "=":
            # dependence atom "=( ... )"
            self.next()
            self.expect("(")
            first = self.varlist()
            if self.peek() == ";":
                self.next()
                dep = self.varlist()
                dets = first
            else:
                if len(first) < 2:
                    self.fail("dependence atom shorthand needs at least two variables")
                dets, dep = first[:-1], first[-1:]
            self.expect(")")
            if not dep:
                self.fail("dependence atom needs a dependent part")
            return Dep(dets, dep)
        if t == "inc":
            self.next()
            self.expect("(")
            xs = self.varlist()
            self.expect(";")
            ys = self.varlist()
            self.expect(")")
            if len(xs) != len(ys) or not xs:
                self.fail("inclusion atom sides must be nonempty and of equal length")
            return Inc(xs, ys)
        if t == "ind":
            self.next()
            self.expect("(")
            xs = self.varlist()
            self.expect(";")
            zs = self.varlist()
            self.expect(";")
            ys = self.varlist()
            self.expect(")")
            if not xs or not ys:
                self.fail("independence atom needs nonempty outer parts")
            return Ind(xs, zs, ys)
        if self.is_ident(t) and t not in KEYWORDS:
            # relation/atom application, or a term (in)equality
            save = self.i
            name = self.next()
            if self.peek() == "(" and name not in self.constants:
                self.next()
                args = self.termlist()
                self.expect(")")
                if name in self.atoms:
                    d = self.atoms[name]
                    if len(args) != d.m:
                        self.fail("atom %s expects %d arguments, got %d"
                                  % (name, d.m, len(args)), save)
                    for a in args:
                        if not isinstance(a, Var):
                            self.fail("generalized atoms take variables only", save)
                    return Gen(name, args)
                return FOAtom(name, args)
            self.i = save
            return self.eq_or_seq()
        self.fail("expected a formula, got %r" % t)

    def eq_or_seq(self):
        xs = [self.term()]
        while self.is_ident(self.peek()) and self.peek() not in KEYWORDS:
            xs.append(self.term())
        at = self.i
        op = self.next()
        if op not in ("=", "!="):
            self.fail("expected '=' or '!=' after term sequence", at)
        ys = [self.term()]
        while self.is_ident(self.peek()) and self.peek() not in KEYWORDS:
            ys.append(self.term())
        if len(xs) != len(ys):
            self.fail("sequence comparison sides must have equal length", at)
        if len(xs) == 1:
            return Eq(xs[0], ys[0]) if op == "=" else NegEq(xs[0], ys[0])
        if op == "=":
            return SeqEq(tuple(xs), tuple(ys))
        return SeqNeq(tuple(xs), tuple(ys))


def parse_formula(text, constants=(), atoms=None, expand=True, allow_reserved=False):
    p = _Parser(text, constants, atoms, allow_reserved)
    out = p.formula()
    if p.peek() is not None:
        p.fail("trailing input")
    if expand:
        out = expand_sugar(out)
    return out


# --- printer ----------------------------------------------------------------


def _pterm(t):
    return t.name


def _pseq(ts):
    return ",".join(_pterm(t) for t in ts)


def print_formula(phi):
    """Fully parenthesized canonical form; parse_formula round-trips it
    (pass the same constants/atoms, and allow_reserved for generated names)."""
    clause = _PRINT.get(type(phi))
    if clause is None:
        raise TypeError("not a formula: %r" % (phi,))
    return clause(phi)


def _binary(op):
    return lambda phi: "(%s %s %s)" % (print_formula(phi.l), op, print_formula(phi.r))


def _quantifier(q):
    return lambda phi: "(%s %s. %s)" % (q, phi.v.name, print_formula(phi.body))


def _sequences(op):
    return lambda phi: "(%s %s %s)" % (" ".join(map(_pterm, phi.xs)), op,
                                      " ".join(map(_pterm, phi.ys)))


# The clauses of print_formula, one per node class.  Like those of
# eval_single, they recurse through the module-level name.
_PRINT = {
    FOAtom: lambda phi: "%s(%s)" % (phi.rel, _pseq(phi.args)),
    NegFOAtom: lambda phi: "!%s(%s)" % (phi.rel, _pseq(phi.args)),
    Eq: lambda phi: "(%s = %s)" % (_pterm(phi.lhs), _pterm(phi.rhs)),
    NegEq: lambda phi: "(%s != %s)" % (_pterm(phi.lhs), _pterm(phi.rhs)),
    Bot: lambda phi: "bot",
    Top: lambda phi: "top",
    Dep: lambda phi: "=(%s ; %s)" % (_pseq(phi.determiners), _pseq(phi.dependent)),
    Ind: lambda phi: "ind(%s ; %s ; %s)" % (_pseq(phi.xs), _pseq(phi.zs), _pseq(phi.ys)),
    Inc: lambda phi: "inc(%s ; %s)" % (_pseq(phi.xs), _pseq(phi.ys)),
    Gen: lambda phi: "%s(%s)" % (phi.atom_name, _pseq(phi.args)),
    And: _binary("/\\"),
    SplitOr: _binary("\\/"),
    BoolOr: _binary("||"),
    Exists: _quantifier("E"),
    Forall: _quantifier("A"),
    Exists1: _quantifier("E1"),
    Forall1: _quantifier("A1"),
    WNeg: lambda phi: "(wneg %s)" % print_formula(phi.body),
    Implies: lambda phi: "(%s -> %s)" % (print_formula(phi.ante), print_formula(phi.cons)),
    SeqEq: _sequences("="),
    SeqNeq: _sequences("!="),
}
