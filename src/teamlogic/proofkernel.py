"""Fitch-style proof checker for the extended natural-deduction system.

Script format, one step per line ("#" starts a comment):

    K. FORMULA ; RULE cites...
    assume FORMULA
    qed K

Regular lines carry their (sequential) number K and a justification after
the LAST ";" on the line; each citation is a line number.  The keywords
"assume" and "qed" are whole words, followed by any whitespace.  "assume"
opens a subproof and is numbered automatically; "qed K" closes the innermost
subproof, which must have been opened by assume line K.  Closed subproofs
are cited by their assume line's number.  The last line at depth zero is
the proof's conclusion; lines justified by the rule "premise" form its
premise set.

parse_proof makes one Step per line.  The Step of an assume line is also the
subproof it opens: it carries the subproof's last formula, and its scope
without its own number is the scope outside the subproof.  A line is in
scope at a later step when every subproof open at the line is still open at
the step.

check_proof looks each justification up in _RULES, one plain function
rule(checker, step) per rule name:

    premise, ExI, ExE, WNegE, IncPro, IncTrs, IncCmp, IndE, AndI, AndE,
    OrI, EqRefl, FO

The FO rule compiles each formula once into a test of a tuple of truth
values, one per distinct literal, and runs the tests over every truth
assignment.
"""

import itertools

from .formula import (And, Bot, Const, Dep, Eq, Exists, FOAtom, Gen,
                      Implies, Inc, Ind, NegEq, NegFOAtom, SeqEq, SplitOr,
                      SubstitutionError, Top, Var, alpha_equal, exists_block,
                      exists_prefix, expand_sugar, free_vars, match,
                      subformulas, substitute, terms)
from .negation import NotNegatableError, wneg


class ProofError(ValueError):
    pass


class Step:
    def __init__(self, num, formula, rule, cites, scope):
        self.num = num
        self.formula = formula
        self.rule = rule
        self.cites = cites
        self.scope = scope  # assume-line numbers of the subproofs open here
        self.last = None  # the last formula of the subproof an assume opens


class ProofScript:
    def __init__(self, steps, premises, conclusion):
        self.steps = steps  # dict num -> Step
        self.premises = premises
        self.conclusion = conclusion


class Verdict:
    def __init__(self, accepted, step=None, reason=None):
        self.accepted = accepted
        self.step = step
        self.reason = reason

    def __bool__(self):
        return self.accepted

    def __repr__(self):
        if self.accepted:
            return "Verdict(accepted)"
        return "Verdict(rejected at step %s: %s)" % (self.step, self.reason)


# --- parsing ------------------------------------------------------------------


def parse_proof(text, constants=(), atoms=None):
    from .parser import parse_formula
    steps = {}
    stack = []  # open assume-line numbers
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "assume":
            if len(parts) == 1:
                raise ProofError("assume without a formula: %r" % raw)
            # the formula follows the keyword and one whitespace character
            phi = parse_formula(line[len("assume") + 1:], constants, atoms,
                                expand=False, allow_reserved=True)
            num = len(steps) + 1
            stack.append(num)
            steps[num] = Step(num, phi, "assume", (), tuple(stack))
            continue
        if parts[0] == "qed":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ProofError("malformed qed line: %r" % raw)
            k = int(parts[1])
            if not stack or stack[-1] != k:
                raise ProofError("qed %d does not close the innermost subproof" % k)
            if steps[k].last is None:
                raise ProofError("subproof %d is empty" % k)
            stack.pop()
            continue
        head, _, tail = line.partition(".")
        if not head.strip().isdecimal():
            raise ProofError("missing step number: %r" % raw)
        num = int(head)
        if num != len(steps) + 1:
            raise ProofError("step %d out of sequence (expected %d)"
                             % (num, len(steps) + 1))
        body, sep, just = tail.rpartition(";")
        if not sep:
            raise ProofError("missing justification on step %d" % num)
        phi = parse_formula(body.strip(), constants, atoms,
                            expand=False, allow_reserved=True)
        jparts = just.split()
        if not jparts:
            raise ProofError("empty justification on step %d" % num)
        if jparts[0] == "assume":
            raise ProofError("step %d: assume opens a subproof on a line of its "
                             "own and is not a rule" % num)
        cites = tuple(_citation(num, c) for c in jparts[1:])
        steps[num] = Step(num, phi, jparts[0], cites, tuple(stack))
        if stack:
            steps[stack[-1]].last = phi
    if stack:
        raise ProofError("unclosed subproof %d" % stack[-1])
    depth0 = [s for s in steps.values() if not s.scope]
    if not depth0:
        raise ProofError("no conclusion at depth 0")
    premises = [s.formula for s in steps.values() if s.rule == "premise"]
    return ProofScript(steps, premises, depth0[-1].formula)


def _citation(num, word):
    try:
        return int(word)
    except ValueError:
        raise ProofError("step %d cites %r, which is not a line number"
                         % (num, word)) from None


# --- checking -----------------------------------------------------------------


def check_proof(script, registry=None):
    ck = _Checker(script, registry)
    for num in sorted(script.steps):
        st = script.steps[num]
        if st.rule == "assume":
            continue
        try:
            rule = _RULES.get(st.rule)
            if rule is None:
                raise ProofError("unknown rule %r" % st.rule)
            rule(ck, st)
        except ProofError as e:
            return Verdict(False, num, str(e))
    return Verdict(True)


def _in_scope(scope, st):
    """Is a line whose open subproofs are `scope` in scope at step st?"""
    return st.scope[:len(scope)] == scope


class _Checker:
    def __init__(self, script, registry):
        self.script = script
        self.registry = registry

    def line(self, st, k):
        """The formula of line k, which st cites."""
        cited = self.script.steps.get(k)
        if cited is None or k >= st.num:
            raise ProofError("citation of line %d is out of range" % k)
        # the assume line itself is citable only from inside its subproof
        if cited.rule == "assume" and k not in st.scope:
            raise ProofError("line %d is an assumption of a closed subproof" % k)
        if not _in_scope(cited.scope, st):
            raise ProofError("line %d is not in scope at line %d" % (k, st.num))
        return cited.formula

    def subproof(self, st, k):
        """The assume step of subproof k, which st cites."""
        blk = self.script.steps.get(k)
        if blk is None or blk.rule != "assume" or k >= st.num:
            raise ProofError("citation of subproof %d is out of range" % k)
        if k in st.scope:
            raise ProofError("subproof %d is still open" % k)
        if not _in_scope(blk.scope[:-1], st):
            raise ProofError("subproof %d is not in scope at line %d" % (k, st.num))
        return blk

    def cited(self, st, want=None):
        if want is not None and len(st.cites) != want:
            raise ProofError("rule %s expects %d citations, got %d"
                             % (st.rule, want, len(st.cites)))
        return [self.line(st, k) for k in st.cites]


# --- rules --------------------------------------------------------------------


def _premise(ck, st):
    if st.scope:
        raise ProofError("premises must be stated at depth 0")
    if st.cites:
        raise ProofError("premise takes no citations")


def _exi(ck, st):
    (prem,) = ck.cited(st, 1)
    if not isinstance(st.formula, Exists):
        raise ProofError("ExI conclusion must be existential")
    x, body = st.formula.v, st.formula.body
    for t in dict.fromkeys([x] + [t for n in subformulas(prem) for t in terms(n)]):
        try:
            inst = substitute(body, {x: t})
        except SubstitutionError:  # a constant in a variables-only argument
            continue
        if inst == prem or alpha_equal(expand_sugar(inst), expand_sugar(prem)):
            return
    raise ProofError("cited formula is not an instance of the ExI body")


def _exe(ck, st):
    if len(st.cites) != 2:
        raise ProofError("ExE cites the existential line and a subproof")
    src = ck.line(st, st.cites[0])
    blk = ck.subproof(st, st.cites[1])
    # strip as many quantifiers as needed to match the assumption
    vs, body = exists_prefix(src)
    for n in range(len(vs) + 1):
        mapping = _match_eigen(exists_block(vs[n:], body), blk.formula, set(vs[:n]))
        if mapping is not None:
            break
    else:
        raise ProofError("assumption does not match the existential body")
    eigen = [mapping.get(v, v) for v in vs[:n]]
    if len(set(eigen)) != len(eigen):
        raise ProofError("eigenvariables must be distinct")
    eigenset = set(eigen)
    if eigenset & free_vars(st.formula):
        raise ProofError("eigenvariable occurs free in the conclusion")
    if eigenset & free_vars(src):
        raise ProofError("eigenvariable occurs free in the cited formula")
    for s in ck.script.steps.values():
        if (s.num < blk.num and _in_scope(s.scope, blk)
                and eigenset & free_vars(s.formula)):
            raise ProofError("eigenvariable occurs free in an open assumption")
    if not alpha_equal(expand_sugar(blk.last), expand_sugar(st.formula)):
        raise ProofError("conclusion differs from the subproof's last formula")


def _wnege(ck, st):
    if len(st.cites) != 1:
        raise ProofError("WNegE cites one subproof")
    blk = ck.subproof(st, st.cites[0])
    if not isinstance(blk.last, Bot):
        raise ProofError("the WNegE subproof must end in bot")
    try:
        target = wneg(st.formula, ck.registry)
    except NotNegatableError as e:
        raise ProofError(str(e))
    if not alpha_equal(expand_sugar(blk.formula), expand_sugar(target)):
        raise ProofError("assumption is not the weak negation of the goal")


def _incpro(ck, st):
    (prem,) = ck.cited(st, 1)
    if not isinstance(prem, Inc) or not isinstance(st.formula, Inc):
        raise ProofError("IncPro relates two inclusion atoms")
    src, dst = prem, st.formula
    if len(dst.xs) != len(dst.ys):
        raise ProofError("malformed inclusion atom")
    for a, b in zip(dst.xs, dst.ys):
        if not any(x == a and y == b for x, y in zip(src.xs, src.ys)):
            raise ProofError("column pair (%s, %s) does not occur in the premise"
                             % (a.name, b.name))


def _inctrs(ck, st):
    p1, p2 = ck.cited(st, 2)
    if not (isinstance(p1, Inc) and isinstance(p2, Inc)
            and isinstance(st.formula, Inc)):
        raise ProofError("IncTrs relates three inclusion atoms")
    if p1.ys != p2.xs:
        raise ProofError("middle sequences do not match")
    if st.formula.xs != p1.xs or st.formula.ys != p2.ys:
        raise ProofError("conclusion does not chain the two premises")


def _inccmp(ck, st):
    p1, p2 = ck.cited(st, 2)
    if not isinstance(p1, Inc):
        raise ProofError("the first IncCmp premise must be an inclusion atom")
    pairs = list(zip(p1.ys, p1.xs))  # (pattern variable, replacement)
    # the rule is not extended to generalized atoms
    if (any(isinstance(n, Gen) for n in subformulas(p2))
            or not _cmp_match(p2, st.formula, pairs)):
        raise ProofError("conclusion is not a compression instance of the premise")


def _inde(ck, st):
    atom, i1, i2 = ck.cited(st, 3)
    if isinstance(atom, Dep):
        atom = Ind(atom.dependent, atom.determiners, atom.dependent)
    if not isinstance(atom, Ind):
        raise ProofError("IndE needs an independence (or dependence) atom")
    if not (isinstance(i1, Inc) and isinstance(i2, Inc)):
        raise ProofError("IndE needs two inclusion premises")
    if i1.ys != i2.ys:
        raise ProofError("the two inclusion premises must share their right side")
    rhs = i1.ys
    head = atom.xs + atom.ys + atom.zs
    if rhs[:len(head)] != head:
        raise ProofError("inclusion right side must start with the atom's "
                         "variables in x,y,z order")
    total = len(rhs)
    if len(i1.xs) != total or len(i2.xs) != total:
        raise ProofError("inclusion left sides have the wrong length")
    kx, ky, k = len(atom.xs), len(atom.ys), len(head)
    w1, v1 = i1.xs[:kx], i1.xs[kx + ky:k]
    u2, v2 = i2.xs[kx:kx + ky], i2.xs[kx + ky:k]
    fresh = exists_prefix(st.formula)[0][:total]
    if len(fresh) < total:
        raise ProofError("IndE conclusion must bind %d fresh variables" % total)
    if len(set(fresh)) != len(fresh):
        raise ProofError("IndE bound variables must be distinct")
    outside = (set(free_vars(atom)) | set(free_vars(i1)) | set(free_vars(i2)))
    if set(fresh) & outside:
        raise ProofError("IndE bound variables must be fresh")
    cons = _seq_eq(fresh[:k], w1 + u2 + v2)
    guard = cons if not atom.zs else Implies(_seq_eq(v1, v2), cons)
    expected = exists_block(fresh, And(Inc(fresh, rhs), guard))
    if not alpha_equal(expand_sugar(expected), expand_sugar(st.formula)):
        raise ProofError("IndE conclusion has the wrong shape")


def _andi(ck, st):
    p1, p2 = ck.cited(st, 2)
    if not isinstance(st.formula, And) or st.formula.l != p1 or st.formula.r != p2:
        raise ProofError("AndI conclusion must conjoin the cited lines in order")


def _ande(ck, st):
    (prem,) = ck.cited(st, 1)
    if not isinstance(prem, And) or st.formula not in (prem.l, prem.r):
        raise ProofError("AndE conclusion must be a conjunct of the cited line")


def _ori(ck, st):
    (prem,) = ck.cited(st, 1)
    if not isinstance(st.formula, SplitOr) or prem not in (st.formula.l, st.formula.r):
        raise ProofError("OrI conclusion must have the cited line as a disjunct")


def _eqrefl(ck, st):
    ck.cited(st, 0)
    f = st.formula
    if isinstance(f, Eq) and f.lhs == f.rhs:
        return
    if isinstance(f, SeqEq) and f.xs == f.ys:
        return
    raise ProofError("EqRefl concludes t = t only")


def _fo(ck, st):
    if not bounded_fo_step(ck.cited(st), st.formula):
        raise ProofError("conclusion does not follow by quantifier-free "
                         "first-order reasoning")


_RULES = {"premise": _premise, "ExI": _exi, "ExE": _exe, "WNegE": _wnege,
          "IncPro": _incpro, "IncTrs": _inctrs, "IncCmp": _inccmp,
          "IndE": _inde, "AndI": _andi, "AndE": _ande, "OrI": _ori,
          "EqRefl": _eqrefl, "FO": _fo}


def _seq_eq(xs, ys):
    if len(xs) == 1:
        return Eq(xs[0], ys[0])
    return SeqEq(tuple(xs), tuple(ys))


def _match_eigen(pattern, candidate, renameable):
    """Match candidate against pattern where free occurrences of the
    renameable variables may be consistently renamed.  Returns the renaming
    dict or None."""

    def term(mapping, t, u):
        if t in renameable:
            return isinstance(u, Var) and mapping.setdefault(t, u) == u
        return t == u

    def bind(mapping, v, w):
        return mapping if v == w and v not in renameable else None

    mapping = {}
    return mapping if match(pattern, candidate, term, bind, mapping) else None


def _cmp_match(alpha, concl, pairs):
    """Does concl arise from alpha by replacing every occurrence of a pattern
    variable with one of its paired replacements?  A binder must be the same
    on both sides, and the variable it binds takes no part in a pair below
    it."""

    def term(pairs, t, u):
        return (t == u and all(t != x for x, _ in pairs)) or (t, u) in pairs

    def bind(pairs, v, w):
        return [(x, y) for x, y in pairs if v not in (x, y)] if v == w else None

    return match(alpha, concl, term, bind, pairs)


# --- quantifier-free first-order entailment -----------------------------------


def bounded_fo_step(premises, conclusion, atom_cap=16):
    """premises |= conclusion for quantifier-free first-order formulas over
    equality and relation symbols.  Complete: truth assignments over the
    distinct literals are enumerated and filtered for realizability by
    congruence closure."""
    # every formula is expanded before any is compiled, so that an error of
    # expand_sugar comes before the refusal of a quantifier
    formulas = [expand_sugar(f) for f in [*premises, conclusion]]
    keys = {}  # literal key -> its position in a truth assignment
    *prems, concl = [_compile(f, keys) for f in formulas]
    if len(keys) > atom_cap:
        raise ProofError("too many distinct atoms (%d) for the FO rule" % len(keys))
    keys = list(keys)
    for bits in itertools.product((False, True), repeat=len(keys)):
        if all(p(bits) for p in prems) and not concl(bits) and _realizable(keys, bits):
            return False
    return True


def _term_key(t):
    return ("c" if isinstance(t, Const) else "v", t.name)


def _compile(phi, keys):
    """phi as a test of a truth-assignment tuple; a literal met for the first
    time gets the next position in keys."""
    cls = type(phi)
    if cls is And or cls is SplitOr:
        l, r = _compile(phi.l, keys), _compile(phi.r, keys)
        return (lambda a: l(a) and r(a)) if cls is And else (lambda a: l(a) or r(a))
    if cls is Top or cls is Bot:
        return (lambda a: True) if cls is Top else (lambda a: False)
    if cls is Eq or cls is NegEq:
        key = ("eq",) + tuple(sorted((_term_key(phi.lhs), _term_key(phi.rhs))))
    elif cls is FOAtom or cls is NegFOAtom:
        key = ("rel", phi.rel, tuple(_term_key(a) for a in phi.args))
    else:
        raise ProofError("the FO rule handles quantifier-free formulas only")
    i = keys.setdefault(key, len(keys))
    return (lambda a: a[i]) if cls is Eq or cls is FOAtom else (lambda a: not a[i])


def _realizable(keys, bits):
    parent = {}

    def find(t):
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        parent[find(a)] = find(b)

    asg = list(zip(keys, bits))
    for k, v in asg:
        if k[0] == "eq" and v:
            union(k[1], k[2])
    for k, v in asg:
        if k[0] == "eq" and not v and find(k[1]) == find(k[2]):
            return False
    rels = {}
    for k, v in asg:
        if k[0] == "rel":
            sig = (k[1], tuple(find(t) for t in k[2]))
            if sig in rels and rels[sig] != v:
                return False
            rels[sig] = v
    return True
