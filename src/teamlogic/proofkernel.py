"""Fitch-style proof checker for the extended natural-deduction system.

Script format, one step per line ("#" starts a comment):

    K. FORMULA ; RULE cites...
    assume FORMULA
    qed K

Regular lines carry their (sequential) number K and a justification after
the LAST ";" on the line.  "assume" opens a subproof and is numbered
automatically; "qed K" closes the innermost subproof, which must have been
opened by assume line K.  Closed subproofs are cited by their assume line's
number.  The last line at depth zero is the proof's conclusion; lines
justified by the rule "premise" form its premise set.

Rule registry: premise, ExI, ExE, WNegE, IncPro, IncTrs, IncCmp, IndE,
AndI, AndE, OrI, EqRefl, FO.
"""

import itertools

from .formula import (And, Bot, Const, Dep, Eq, Exists, FOAtom, Gen,
                      Implies, Inc, Ind, NegEq, NegFOAtom, SeqEq, SplitOr, Top,
                      Var, alpha_equal, exists_block, expand_sugar, free_vars,
                      is_quantifier_free_fo, match, subformulas, substitute,
                      terms)
from .negation import NotNegatableError, wneg


class ProofError(ValueError):
    pass


class Step:
    def __init__(self, num, formula, rule, cites, depth, scope):
        self.num = num
        self.formula = formula
        self.rule = rule
        self.cites = cites
        self.depth = depth
        self.scope = scope  # tuple of enclosing assume-line numbers


class Block:
    def __init__(self, num, assumption, scope):
        self.num = num
        self.assumption = assumption
        self.scope = scope  # scope OUTSIDE the block
        self.last = None
        self.closed = False


class ProofScript:
    def __init__(self, steps, blocks, premises, conclusion):
        self.steps = steps  # dict num -> Step
        self.blocks = blocks  # dict assume-num -> Block
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
    blocks = {}
    order = []
    stack = []  # open assume-line numbers
    counter = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("assume "):
            counter += 1
            phi = parse_formula(line[len("assume "):], constants, atoms,
                                expand=False, allow_reserved=True)
            blk = Block(counter, phi, tuple(stack))
            blocks[counter] = blk
            stack.append(counter)
            st = Step(counter, phi, "assume", (), len(stack), tuple(stack))
            steps[counter] = st
            order.append(st)
            continue
        if line.startswith("qed"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ProofError("malformed qed line: %r" % raw)
            k = int(parts[1])
            if not stack or stack[-1] != k:
                raise ProofError("qed %d does not close the innermost subproof" % k)
            blk = blocks[k]
            if blk.last is None:
                raise ProofError("subproof %d is empty" % k)
            blk.closed = True
            stack.pop()
            continue
        head, _, tail = line.partition(".")
        if not head.strip().isdigit():
            raise ProofError("missing step number: %r" % raw)
        num = int(head)
        counter += 1
        if num != counter:
            raise ProofError("step %d out of sequence (expected %d)" % (num, counter))
        body, sep, just = tail.rpartition(";")
        if not sep:
            raise ProofError("missing justification on step %d" % num)
        phi = parse_formula(body.strip(), constants, atoms,
                            expand=False, allow_reserved=True)
        jparts = just.split()
        if not jparts:
            raise ProofError("empty justification on step %d" % num)
        rule, cites = jparts[0], tuple(int(c) for c in jparts[1:])
        st = Step(num, phi, rule, cites, len(stack), tuple(stack))
        steps[num] = st
        order.append(st)
        if stack:
            blocks[stack[-1]].last = phi
    if stack:
        raise ProofError("unclosed subproof %d" % stack[-1])
    depth0 = [s for s in order if not s.scope]
    if not depth0:
        raise ProofError("no conclusion at depth 0")
    premises = [s.formula for s in order if s.rule == "premise"]
    return ProofScript(steps, blocks, premises, depth0[-1].formula)


# --- checking -----------------------------------------------------------------


def check_proof(script, registry=None, fo_atom_cap=16):
    ck = _Checker(script, registry, fo_atom_cap)
    return ck.run()


class _Checker:
    def __init__(self, script, registry, fo_atom_cap):
        self.script = script
        self.registry = registry
        self.fo_atom_cap = fo_atom_cap

    def run(self):
        for num in sorted(self.script.steps):
            st = self.script.steps[num]
            try:
                self.check_step(st)
            except ProofError as e:
                return Verdict(False, num, str(e))
        return Verdict(True)

    # -- scope helpers -------------------------------------------------------

    def accessible_line(self, st, k):
        if k not in self.script.steps or k >= st.num:
            raise ProofError("citation of line %d is out of range" % k)
        cited = self.script.steps[k]
        if cited.rule == "assume" and k in self.script.blocks:
            # the assume line itself is citable only from inside its block
            if k not in st.scope:
                raise ProofError("line %d is an assumption of a closed subproof" % k)
        if cited.scope != st.scope[:len(cited.scope)]:
            raise ProofError("line %d is not in scope at line %d" % (k, st.num))
        return cited.formula

    def accessible_block(self, st, k):
        blk = self.script.blocks.get(k)
        if blk is None or k >= st.num:
            raise ProofError("citation of subproof %d is out of range" % k)
        if not blk.closed:
            raise ProofError("subproof %d is still open" % k)
        if blk.scope != st.scope[:len(blk.scope)]:
            raise ProofError("subproof %d is not in scope at line %d" % (k, st.num))
        return blk

    def formulas_in_scope_before(self, st, upto):
        """Formulas citable at step `upto` (used for eigenvariable checks)."""
        out = []
        ref = self.script.steps[upto]
        for num in sorted(self.script.steps):
            if num >= upto:
                break
            s = self.script.steps[num]
            if s.scope == ref.scope[:len(s.scope)]:
                out.append(s.formula)
        return out

    # -- dispatch ------------------------------------------------------------

    def check_step(self, st):
        handlers = {
            "assume": lambda st: None,
            "premise": self.r_premise,
            "ExI": self.r_exi,
            "ExE": self.r_exe,
            "WNegE": self.r_wnege,
            "IncPro": self.r_incpro,
            "IncTrs": self.r_inctrs,
            "IncCmp": self.r_inccmp,
            "IndE": self.r_inde,
            "AndI": self.r_andi,
            "AndE": self.r_ande,
            "OrI": self.r_ori,
            "EqRefl": self.r_eqrefl,
            "FO": self.r_fo,
        }
        if st.rule not in handlers:
            raise ProofError("unknown rule %r" % st.rule)
        handlers[st.rule](st)

    def cited(self, st, want=None):
        if want is not None and len(st.cites) != want:
            raise ProofError("rule %s expects %d citations, got %d"
                             % (st.rule, want, len(st.cites)))
        return [self.accessible_line(st, k) for k in st.cites]

    # -- rules ---------------------------------------------------------------

    def r_premise(self, st):
        if st.scope:
            raise ProofError("premises must be stated at depth 0")
        if st.cites:
            raise ProofError("premise takes no citations")

    def r_exi(self, st):
        (prem,) = self.cited(st, 1)
        if not isinstance(st.formula, Exists):
            raise ProofError("ExI conclusion must be existential")
        x, body = st.formula.v, st.formula.body
        candidates = {x} | {t for n in subformulas(prem) for t in terms(n)}
        for t in candidates:
            try:
                if substitute(body, {x: t}) == prem or alpha_equal(
                        expand_sugar(substitute(body, {x: t})), expand_sugar(prem)):
                    return
            except Exception:
                continue
        raise ProofError("cited formula is not an instance of the ExI body")

    def r_exe(self, st):
        if len(st.cites) != 2:
            raise ProofError("ExE cites the existential line and a subproof")
        src = self.accessible_line(st, st.cites[0])
        blk = self.accessible_block(st, st.cites[1])
        # strip as many quantifiers as needed to match the assumption
        mapping = None
        bound = []
        probe_body = src
        probe_bound = []
        while True:
            m = _match_eigen(probe_body, blk.assumption, set(probe_bound))
            if m is not None:
                mapping = m
                bound = list(probe_bound)
                break
            if not isinstance(probe_body, Exists):
                break
            probe_bound.append(probe_body.v)
            probe_body = probe_body.body
        if mapping is None:
            raise ProofError("assumption does not match the existential body")
        eigen = [mapping.get(v, v) for v in bound]
        if len(set(eigen)) != len(eigen):
            raise ProofError("eigenvariables must be distinct")
        eigenset = set(eigen)
        if eigenset & free_vars(st.formula):
            raise ProofError("eigenvariable occurs free in the conclusion")
        if eigenset & free_vars(src):
            raise ProofError("eigenvariable occurs free in the cited formula")
        for phi in self.formulas_in_scope_before(st, self.script.steps[st.cites[1]].num):
            if eigenset & free_vars(phi):
                raise ProofError("eigenvariable occurs free in an open assumption")
        if not alpha_equal(expand_sugar(blk.last), expand_sugar(st.formula)):
            raise ProofError("conclusion differs from the subproof's last formula")

    def r_wnege(self, st):
        if len(st.cites) != 1:
            raise ProofError("WNegE cites one subproof")
        blk = self.accessible_block(st, st.cites[0])
        if not isinstance(blk.last, Bot):
            raise ProofError("the WNegE subproof must end in bot")
        try:
            target = wneg(st.formula, self.registry)
        except NotNegatableError as e:
            raise ProofError(str(e))
        if not alpha_equal(expand_sugar(blk.assumption), expand_sugar(target)):
            raise ProofError("assumption is not the weak negation of the goal")

    def r_incpro(self, st):
        (prem,) = self.cited(st, 1)
        if not isinstance(prem, Inc) or not isinstance(st.formula, Inc):
            raise ProofError("IncPro relates two inclusion atoms")
        src, dst = prem, st.formula
        if len(dst.xs) != len(dst.ys):
            raise ProofError("malformed inclusion atom")
        for a, b in zip(dst.xs, dst.ys):
            if not any(x == a and y == b for x, y in zip(src.xs, src.ys)):
                raise ProofError("column pair (%s, %s) does not occur in the premise"
                                 % (a.name, b.name))

    def r_inctrs(self, st):
        p1, p2 = self.cited(st, 2)
        if not (isinstance(p1, Inc) and isinstance(p2, Inc)
                and isinstance(st.formula, Inc)):
            raise ProofError("IncTrs relates three inclusion atoms")
        if p1.ys != p2.xs:
            raise ProofError("middle sequences do not match")
        if st.formula.xs != p1.xs or st.formula.ys != p2.ys:
            raise ProofError("conclusion does not chain the two premises")

    def r_inccmp(self, st):
        p1, p2 = self.cited(st, 2)
        if not isinstance(p1, Inc):
            raise ProofError("the first IncCmp premise must be an inclusion atom")
        pairs = list(zip(p1.ys, p1.xs))  # (pattern variable, replacement)
        # the rule is not extended to generalized atoms
        if (any(isinstance(n, Gen) for n in subformulas(p2))
                or not _cmp_match(p2, st.formula, pairs)):
            raise ProofError("conclusion is not a compression instance of the premise")

    def r_inde(self, st):
        atom, i1, i2 = self.cited(st, 3)
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
        ss = rhs[len(head):]
        kx, ky, kz, ks = len(atom.xs), len(atom.ys), len(atom.zs), len(ss)
        total = kx + ky + kz + ks
        if len(i1.xs) != total or len(i2.xs) != total:
            raise ProofError("inclusion left sides have the wrong length")
        w1, u1, v1 = i1.xs[:kx], i1.xs[kx:kx + ky], i1.xs[kx + ky:kx + ky + kz]
        w2, u2, v2 = i2.xs[:kx], i2.xs[kx:kx + ky], i2.xs[kx + ky:kx + ky + kz]
        stated = st.formula
        fresh = []
        probe = stated
        for _ in range(total):
            if not isinstance(probe, Exists):
                raise ProofError("IndE conclusion must bind %d fresh variables" % total)
            fresh.append(probe.v)
            probe = probe.body
        if len(set(fresh)) != len(fresh):
            raise ProofError("IndE bound variables must be distinct")
        outside = (set(free_vars(atom)) | set(free_vars(i1)) | set(free_vars(i2)))
        if set(fresh) & outside:
            raise ProofError("IndE bound variables must be fresh")
        w3 = tuple(fresh[:kx])
        u3 = tuple(fresh[kx:kx + ky])
        v3 = tuple(fresh[kx + ky:kx + ky + kz])
        cons = _seq_eq(w3 + u3 + v3, tuple(w1) + tuple(u2) + tuple(v2))
        guard = cons if kz == 0 else Implies(_seq_eq(tuple(v1), tuple(v2)), cons)
        expected = exists_block(fresh, And(Inc(tuple(fresh), rhs), guard))
        if not alpha_equal(expand_sugar(expected), expand_sugar(stated)):
            raise ProofError("IndE conclusion has the wrong shape")

    def r_andi(self, st):
        p1, p2 = self.cited(st, 2)
        if not isinstance(st.formula, And) or st.formula.l != p1 or st.formula.r != p2:
            raise ProofError("AndI conclusion must conjoin the cited lines in order")

    def r_ande(self, st):
        (prem,) = self.cited(st, 1)
        if not isinstance(prem, And) or st.formula not in (prem.l, prem.r):
            raise ProofError("AndE conclusion must be a conjunct of the cited line")

    def r_ori(self, st):
        (prem,) = self.cited(st, 1)
        if not isinstance(st.formula, SplitOr) or prem not in (st.formula.l, st.formula.r):
            raise ProofError("OrI conclusion must have the cited line as a disjunct")

    def r_eqrefl(self, st):
        self.cited(st, 0)
        f = st.formula
        if isinstance(f, Eq) and f.lhs == f.rhs:
            return
        if isinstance(f, SeqEq) and f.xs == f.ys:
            return
        raise ProofError("EqRefl concludes t = t only")

    def r_fo(self, st):
        prems = self.cited(st)
        if not bounded_fo_step(prems, st.formula, self.fo_atom_cap):
            raise ProofError("conclusion does not follow by quantifier-free "
                             "first-order reasoning")


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
    distinct atomic formulas are enumerated and filtered for realizability
    by congruence closure."""
    prems = [expand_sugar(p) for p in premises]
    concl = expand_sugar(conclusion)
    for f in prems + [concl]:
        if not is_quantifier_free_fo(f):
            raise ProofError("the FO rule handles quantifier-free formulas only")
    keys = []
    seen = set()
    for f in prems + [concl]:
        for k in _atom_keys(f):
            if k not in seen:
                seen.add(k)
                keys.append(k)
    if len(keys) > atom_cap:
        raise ProofError("too many distinct atoms (%d) for the FO rule" % len(keys))
    for bits in itertools.product((False, True), repeat=len(keys)):
        asg = dict(zip(keys, bits))
        if all(_eval_bool(p, asg) for p in prems) and not _eval_bool(concl, asg):
            if _realizable(asg):
                return False
    return True


def _term_key(t):
    return ("c" if isinstance(t, Const) else "v", t.name)


def _atom_keys(phi):
    if isinstance(phi, (Eq, NegEq)):
        yield ("eq",) + tuple(sorted((_term_key(phi.lhs), _term_key(phi.rhs))))
    elif isinstance(phi, (FOAtom, NegFOAtom)):
        yield ("rel", phi.rel, tuple(_term_key(a) for a in phi.args))
    elif isinstance(phi, (And, SplitOr)):
        yield from _atom_keys(phi.l)
        yield from _atom_keys(phi.r)
    elif isinstance(phi, (Bot, Top)):
        return
    else:
        raise ProofError("unexpected node in FO step: %r" % (phi,))


def _eval_bool(phi, asg):
    if isinstance(phi, Eq):
        return asg[next(_atom_keys(phi))]
    if isinstance(phi, NegEq):
        return not asg[next(_atom_keys(phi))]
    if isinstance(phi, FOAtom):
        return asg[next(_atom_keys(phi))]
    if isinstance(phi, NegFOAtom):
        return not asg[next(_atom_keys(phi))]
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Top):
        return True
    if isinstance(phi, And):
        return _eval_bool(phi.l, asg) and _eval_bool(phi.r, asg)
    if isinstance(phi, SplitOr):
        return _eval_bool(phi.l, asg) or _eval_bool(phi.r, asg)
    raise ProofError("unexpected node in FO step: %r" % (phi,))


def _realizable(asg):
    parent = {}

    def find(t):
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        parent[find(a)] = find(b)

    for k, v in asg.items():
        if k[0] == "eq" and v:
            union(k[1], k[2])
    for k, v in asg.items():
        if k[0] == "eq" and not v and find(k[1]) == find(k[2]):
            return False
    rels = {}
    for k, v in asg.items():
        if k[0] == "rel":
            sig = (k[1], tuple(find(t) for t in k[2]))
            if sig in rels and rels[sig] != v:
                return False
            rels[sig] = v
    return True


# --- helpers used by script generation ----------------------------------------


def close_formula(delta, chi):
    """Existentially close chi over its free variables (which must be
    disjoint from those of delta) and return the closure together with two
    mechanical scripts exercising the introduction and elimination patterns;
    both pass check_proof."""
    from .parser import print_formula
    from .formula import sorted_free_vars
    dvars = set()
    for d in delta:
        dvars |= {v.name for v in free_vars(d)}
    xs = sorted_free_vars(chi)
    clash = {v.name for v in xs} & dvars
    if clash:
        raise ProofError("free variables %s shared with the context" % sorted(clash))
    closed = exists_block(list(xs), chi)
    intro = "\n".join(
        ["1. %s ; premise" % print_formula(chi)]
        + ["%d. %s ; ExI %d" % (i + 2, print_formula(exists_block(list(xs[len(xs) - 1 - i:]), chi)), i + 1)
           for i in range(len(xs))]) + "\n"
    fresh = {x: Var("%s_0" % x.name) for x in xs}
    inst = substitute(chi, fresh)
    elim = ("1. %s ; premise\n" % print_formula(closed)
            + "assume %s\n" % print_formula(inst)
            + "".join("%d. %s ; ExI %d" % (i + 3, print_formula(
                exists_block([fresh[x] for x in xs[len(xs) - 1 - i:]], inst)), i + 2) + "\n"
                for i in range(len(xs)))
            + "qed 2\n"
            + "%d. %s ; ExE 1 2\n" % (len(xs) + 3,
                                      print_formula(exists_block([fresh[x] for x in xs], inst))))
    return closed, intro, elim
