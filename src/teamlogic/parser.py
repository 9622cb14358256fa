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

The text is split by one `findall` into token strings.  A token that is not
an operator is an identifier; only the distinct ones are checked for a bad
character, once per parse.  The three left-associative connectives are one
precedence-climbing loop over _BINARY (Pratt, POPL 1973).  Token positions
are found again by a second scan only when a ParseError needs its span.  The
parser notes whether it built Implies, SeqEq or SeqNeq; if it did not,
expand_sugar has nothing to rewrite and is not run.
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


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
# One scan: an operator, an identifier, or any other non-space character,
# which is an error.
_TOKEN_RE = re.compile(r"->|!=|\|\||/\\|\\/|[().,;=!]|%s|\S" % _IDENT_RE.pattern)
_OPERATORS = frozenset(["->", "!=", "||", "/\\", "\\/", "(", ")", ".", ",", ";",
                        "=", "!"])

KEYWORDS = {"E", "A", "E1", "A1", "wneg", "bot", "top", "inc", "ind"}
# everything a term cannot be; None ends the token list
_NOT_TERMS = _OPERATORS | KEYWORDS | {None}
# binding strength and node class of each left-associative connective
_BINARY = {"||": (0, BoolOr), "\\/": (1, SplitOr), "/\\": (2, And)}
_QUANTIFIERS = {"E": Exists, "A": Forall, "E1": Exists1, "A1": Forall1}


def _tokenize(text):
    """The token strings of text, then None."""
    toks = _TOKEN_RE.findall(text)
    bad = {t for t in set(toks) - _OPERATORS if not _IDENT_RE.fullmatch(t)}
    if bad:
        m = next(m for m in _TOKEN_RE.finditer(text) if m.group() in bad)
        raise ParseError("unexpected character %r" % m.group(),
                         SourceSpan(m.start(), m.end()))
    toks.append(None)
    return toks


class _Parser:
    def __init__(self, text, constants, atoms, allow_reserved):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.constants = set(constants)
        self.atoms = atoms or {}
        self.allow_reserved = allow_reserved
        self.sugar = False  # built an Implies, SeqEq or SeqNeq

    def expect(self, tok):
        if self.toks[self.i] != tok:
            self.fail("expected %r, got %r" % (tok, self.toks[self.i]))
        self.i += 1

    def fail(self, msg, i=None):
        """Raise at token i, by default the current one."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.text)]
        spans.append((len(self.text), len(self.text)))
        raise ParseError(msg, SourceSpan(*spans[self.i if i is None else i]))

    # -- terms ---------------------------------------------------------------

    def term(self):
        t = self.toks[self.i]
        if t in _NOT_TERMS:
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
        while self.toks[self.i] not in _NOT_TERMS:
            out.append(self.variable())
            if self.toks[self.i] != ",":
                break
            self.i += 1
        return tuple(out)

    def termlist(self):
        out = [self.term()]
        while self.toks[self.i] == ",":
            self.i += 1
            out.append(self.term())
        return tuple(out)

    # -- formulas ------------------------------------------------------------

    def formula(self):
        lhs = self.binary(0)
        if self.toks[self.i] != "->":
            return lhs
        at = self.i
        self.i += 1
        rhs = self.formula()
        if not is_first_order(lhs):
            self.fail("implication antecedent must be first-order", at)
        self.sugar = True
        return Implies(lhs, rhs)

    def binary(self, floor):
        """A chain of prefixed formulas joined by connectives of _BINARY that
        bind at least as tightly as floor, grouped to the left."""
        out = self.pre()
        while True:
            op = _BINARY.get(self.toks[self.i])
            if op is None or op[0] < floor:
                return out
            self.i += 1
            out = op[1](out, self.binary(op[0] + 1))

    def pre(self):
        t = self.toks[self.i]
        if t in _QUANTIFIERS:
            self.i += 1
            v = self.variable()
            self.expect(".")
            return _QUANTIFIERS[t](v, self.pre())
        if t == "wneg":
            self.i += 1
            return WNeg(self.pre())
        if t == "!":
            at = self.i
            self.i += 1
            body = self.pre()
            if not is_first_order(body):
                self.fail("'!' applies to first-order subformulas only", at)
            return fo_negate(expand_sugar(body))
        return self.prim()

    def prim(self):
        t = self.toks[self.i]
        if t not in _NOT_TERMS:
            # relation/atom application, or a term (in)equality
            at = self.i
            self.i += 1
            if self.toks[self.i] != "(" or t in self.constants:
                self.i = at
                return self.eq_or_seq()
            self.i += 1
            args = self.termlist()
            self.expect(")")
            if t not in self.atoms:
                return FOAtom(t, args)
            d = self.atoms[t]
            if len(args) != d.m:
                self.fail("atom %s expects %d arguments, got %d" % (t, d.m, len(args)), at)
            for a in args:
                if not isinstance(a, Var):
                    self.fail("generalized atoms take variables only", at)
            return Gen(t, args)
        if t == "(":
            self.i += 1
            out = self.formula()
            self.expect(")")
            return out
        if t == "bot":
            self.i += 1
            return Bot()
        if t == "top":
            self.i += 1
            return Top()
        if t == "=":
            # dependence atom "=( ... )"
            self.i += 1
            self.expect("(")
            first = self.varlist()
            if self.toks[self.i] == ";":
                self.i += 1
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
            self.i += 1
            self.expect("(")
            xs = self.varlist()
            self.expect(";")
            ys = self.varlist()
            self.expect(")")
            if len(xs) != len(ys) or not xs:
                self.fail("inclusion atom sides must be nonempty and of equal length")
            return Inc(xs, ys)
        if t == "ind":
            self.i += 1
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
        self.fail("expected a formula, got %r" % t)

    def eq_or_seq(self):
        xs = [self.term()]
        while self.toks[self.i] not in _NOT_TERMS:
            xs.append(self.term())
        at = self.i
        op = self.toks[at]
        if op != "=" and op != "!=":
            self.fail("expected '=' or '!=' after term sequence", at)
        self.i += 1
        ys = [self.term()]
        while self.toks[self.i] not in _NOT_TERMS:
            ys.append(self.term())
        if len(xs) != len(ys):
            self.fail("sequence comparison sides must have equal length", at)
        if len(xs) == 1:
            return Eq(xs[0], ys[0]) if op == "=" else NegEq(xs[0], ys[0])
        self.sugar = True
        if op == "=":
            return SeqEq(tuple(xs), tuple(ys))
        return SeqNeq(tuple(xs), tuple(ys))


def parse_formula(text, constants=(), atoms=None, expand=True, allow_reserved=False):
    p = _Parser(text, constants, atoms, allow_reserved)
    out = p.formula()
    if p.toks[p.i] is not None:
        p.fail("trailing input")
    if expand and p.sugar:
        out = expand_sugar(out)
    return out


# --- printer ----------------------------------------------------------------


def _pseq(ts):
    return ",".join([t.name for t in ts])


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
    return lambda phi: "(%s %s %s)" % (" ".join([t.name for t in phi.xs]), op,
                                      " ".join([t.name for t in phi.ys]))


# The clauses of print_formula, one per node class.  Like those of
# eval_single, they recurse through the module-level name.
_PRINT = {
    FOAtom: lambda phi: "%s(%s)" % (phi.rel, _pseq(phi.args)),
    NegFOAtom: lambda phi: "!%s(%s)" % (phi.rel, _pseq(phi.args)),
    Eq: lambda phi: "(%s = %s)" % (phi.lhs.name, phi.rhs.name),
    NegEq: lambda phi: "(%s != %s)" % (phi.lhs.name, phi.rhs.name),
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
