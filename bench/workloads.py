"""Question pools for the three benchmark workloads.

A workload is a list of questions drawn from a seed.  Each question is a
zero-argument callable that asks teamlogic one thing and returns a verdict;
the timed loop calls them one after another (a closed loop with one client).
After the loop, each workload's checker compares the recorded verdicts with an
independent computation.

Every call into teamlogic goes through a module attribute
(`semantics.eval_formula`, `cli.main`, ...), so that a traced run, which swaps
those attributes for timing wrappers, sees the same calls.

The pools are stratified: the number of questions of each kind, and of the
expensive kinds in particular, is fixed, and the seed only chooses the
formulas, teams, variable names and sampling seeds.  So the cost of one pass
over a pool hardly depends on the seed.
"""

import collections
import contextlib
import io
import itertools
import os
import random
import re

from teamlogic import (checks, cli, entailment, eso, formula, negation,
                       parser, proofkernel, semantics)
from teamlogic.formula import (And, BoolOr, Dep, Eq, Exists, Exists1, Inc, Ind,
                               NegEq, SplitOr, Var)
from teamlogic.team import Team

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROOF_DIR = os.path.join(REPO, "proofs")

# quantifier-search team sizes.  A Boolean-disjunction definition that comes
# out false runs the literal existential search to the end: about 12 ms at two
# rows, 0.2 s at three and 2.7 s at four.  The cost of one such question varies
# by a factor of three with the formulas, so the seeded ones are kept at two
# rows, where a pass holds a hundred of them and their sum hardly depends on
# the seed.  A fixed core of three-row ones keeps the heaviest tail in view.
SEEDED_ROWS = 2
CORE_ROWS = 3
CORE_SEED = 100        # the seed of acceptance criterion 10
GEN_FULL_ROWS = 3
ENTAIL_SAMPLES = 100   # sampled teams per model once a space exceeds the cap
ENTAIL_TEAM_CAP = 8    # 3 variables at domain 2 are exhaustive, 4 are sampled


class Question:
    """One question of a pool.  `ask` returns the verdict; `key` maps a
    verdict to the form compared between passes; `info` holds what the
    workload's checker needs."""

    def __init__(self, kind, ask, key=None, **info):
        self.kind = kind
        self.ask = ask
        self.key = key or (lambda verdict: verdict)
        self.info = info


class CliRefused(Exception):
    """The CLI exited with code 2: usage, parse or fragment error."""


# Genuine refusals: the question failed, but no verdict was wrong.
REFUSALS = (semantics.BudgetExceeded, eso.EsoCapExceeded, CliRefused)


class Raised:
    """The verdict of a question that raised instead of answering."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.message = str(exc)
        self.refusal = isinstance(exc, REFUSALS)

    def __eq__(self, other):
        return (isinstance(other, Raised) and self.kind == other.kind
                and self.message == other.message)

    def __repr__(self):
        return "Raised(%s: %s)" % (self.kind, self.message)


def ask(question):
    """Ask one question.  Any exception becomes a Raised verdict, so that the
    loop keeps running and the failure is counted and reported."""
    try:
        return question.ask()
    except Exception as exc:
        return Raised(exc)


class Pool:
    def __init__(self, questions, warmup, check):
        self.questions = questions
        self.warmup = warmup      # indices asked once during set-up
        self.check = check        # verdicts -> {index: problem}


def _team(rng, variables, n_rows):
    space = list(itertools.product(("0", "1"), repeat=len(variables)))
    return Team(variables, rng.sample(space, min(n_rows, len(space))))


def _team_vars(phi):
    return tuple(sorted({v.name for v in formula.free_vars(phi)} | {"x"}))


def _eval(model, X, phi, literal=False):
    return lambda: semantics.eval_formula(model, X, phi, literal=literal)


# --- quantifier-search --------------------------------------------------------


def _definability_pairs(rng, model, rows, quota):
    """Draw (phi, psi, x, X) as the definability suite does, on teams of up to
    `rows` rows, until `quota` ({exhaustive: count}) is filled.  A draw is
    exhaustive when its team has `rows` rows, phi or psi is not first-order
    and phi || psi is false, so that the definition's search runs to the end."""
    quota = dict(quota)
    while quota[True] or quota[False]:
        phi = checks.gen_downward(rng, depth=2)
        psi = checks.gen_downward(rng, depth=2)
        x = Var(rng.choice(checks.VARIABLES))
        X = _team(rng, _team_vars(And(phi, psi)), rng.randint(0, rows))
        exhaustive = (len(X) == rows
                      and not (formula.is_first_order(phi)
                               and formula.is_first_order(psi))
                      and not semantics.eval_formula(model, X, BoolOr(phi, psi)))
        if quota[exhaustive]:
            quota[exhaustive] -= 1
            yield phi, psi, x, X, exhaustive


def quantifier_search(seed, scale=1.0):
    """The definability laws E1 x phi == E x (=(x) /\\ phi) and phi || psi ==
    E w E u (=(w) /\\ =(u) /\\ (w = u \\/ phi) /\\ (w != u \\/ psi)), plus cheap
    gen_full formulas, all on the default two-element model.  The number of
    exhaustive definitions is fixed, so the heavy tail weighs the same for
    every seed."""
    model = checks.default_model()
    n = lambda k: max(1, round(k * scale))
    pairs = list(_definability_pairs(random.Random(CORE_SEED), model, CORE_ROWS,
                                     {True: n(4), False: 0}))
    rng = random.Random(seed)
    pairs += _definability_pairs(rng, model, SEEDED_ROWS, {True: n(96), False: n(32)})

    questions = []
    for phi, psi, x, X, exhaustive in pairs:
        w, u = formula.fresh_var("w"), formula.fresh_var("u")
        defined = Exists(w, Exists(u, And(
            And(Dep((), (w,)), Dep((), (u,))),
            And(SplitOr(Eq(w, u), phi), SplitOr(NegEq(w, u), psi)))))
        first = len(questions)
        questions += [
            Question("single-value", _eval(model, X, Exists1(x, phi))),
            Question("single-value-def",
                     _eval(model, X, Exists(x, And(Dep((), (x,)), phi))),
                     same_as=first),
            Question("bool-or", _eval(model, X, BoolOr(phi, psi))),
            Question("bool-or-def-%dr" % len(X) if exhaustive else "bool-or-def",
                     _eval(model, X, defined), same_as=first + 2),
        ]
    for _ in range(n(320)):
        phi = checks.gen_full(rng, depth=3)
        X = _team(rng, _team_vars(phi), rng.randint(0, GEN_FULL_ROWS))
        questions.append(Question("gen-full", _eval(model, X, phi),
                                  literal=_eval(model, X, phi, literal=True)))
    return _pool(questions, _check_quantifier_search)


def _check_quantifier_search(questions, verdicts):
    problems = {}
    for i, q in enumerate(questions):
        if isinstance(verdicts[i], Raised):
            continue
        other = verdicts[q.info.get("same_as", i)]
        if not isinstance(other, Raised) and verdicts[i] != other:
            problems[i] = "definability law broken: %r vs %r" % (other, verdicts[i])
        if "literal" in q.info:
            try:
                want = q.info["literal"]()
            except semantics.BudgetExceeded:
                continue  # the literal evaluator gives no verdict here
            if verdicts[i] != want:
                problems[i] = "default %r, literal %r" % (verdicts[i], want)
    return problems


# --- entail-sweep -------------------------------------------------------------

VALID = entailment.VALID_UP_TO_BOUND
COUNTER = entailment.COUNTEREXAMPLE

# The functional (Armstrong) and independence rules of acceptance criterion
# 08, asked with their own variable names.
CRITERION_RULES = [
    ([], "=(x ; x)"),
    (["=(x,y ; z)"], "=(y,x ; z)"),
    (["=(x,x ; y)"], "=(x ; y)"),
    (["=(y ; z)"], "=(x,y ; z)"),
    (["=(x ; y)", "=(y ; z)"], "=(x ; z)"),
    (["ind(x ;; y)"], "ind(y ;; x)"),
    (["ind(x1,x2 ;; y)"], "ind(x1 ;; y)"),
    (["ind(x1,x2 ;; y)"], "ind(x2,x1 ;; y)"),
    (["ind(x ;; y)", "ind(x,y ;; z)"], "ind(x ;; y,z)"),
]
DEP_SYMMETRY = (["=(x ; y)"], "=(y ; x)")

# Rule schemas over the slots a..d, instantiated with seeded variable names.
# (hypotheses, conclusion, known status)
SCHEMAS = [
    (["=({a} ; {b})"], "=({a},{c} ; {b})", VALID),
    (["=({a} ; {b})", "=({a} ; {c})"], "=({a} ; {b},{c})", VALID),
    (["=({a} ; {b})", "=({b} ; {c})", "=({c} ; {d})"], "=({a} ; {d})", VALID),
    (["=({a},{b} ; {c},{d})"], "=({b},{a} ; {d})", VALID),
    (["ind({a} ; {c} ; {b})"], "ind({b} ; {c} ; {a})", VALID),
    (["ind({a} ;; {b},{c})"], "ind({a} ;; {c})", VALID),
    (["ind({a},{b} ;; {c},{d})"], "ind({d},{c} ;; {b},{a})", VALID),
    (["ind({a} ; {c},{d} ; {b})"], "ind({b} ; {d},{c} ; {a})", VALID),
    (["inc({a},{b} ; {c},{d})"], "inc({b} ; {d})", VALID),
    (["inc({a},{b} ; {c},{d})"], "inc({b},{a} ; {d},{c})", VALID),
    (["inc({a} ; {b})", "inc({b} ; {c})"], "inc({a} ; {c})", VALID),
    (["P({a})", "inc({b},{c} ; {a},{c})"], "P({b})", VALID),
    (["P({a})", "inc({b},{c} ; {a},{d})"], "P({b})", VALID),
    (["!P({a})", "inc({b} ; {a})", "=({c} ; {b})"], "!P({b})", VALID),
    (["=({a},{c} ; {b})"], "=({b} ; {a})", COUNTER),
    (["=({a},{b} ; {c})"], "=({a} ; {c})", COUNTER),
    (["inc({a},{c} ; {b},{c})"], "inc({b} ; {a})", COUNTER),
    (["ind({a} ; {c} ; {b})"], "ind({a} ;; {b})", COUNTER),
    (["ind({a} ;; {b})", "ind({b} ;; {c})"], "ind({a} ;; {c})", COUNTER),
    (["ind({a},{b} ;; {c})"], "ind({a} ;; {c},{d})", COUNTER),
    (["P({a})", "inc({a},{c} ; {b},{c})"], "P({b})", COUNTER),
]
NAMES = ("x", "y", "z", "w", "u", "v", "s", "t")


# The verdict of an entail-sweep question; `sampled` records whether any
# model's teams were sampled rather than enumerated.
Entailed = collections.namedtuple("Entailed", "status models teams sampled witness")


def _entail(hyps, concl, max_domain, seed):
    def ask():
        v = entailment.entails_bounded(
            hyps, concl, max_domain=max_domain, team_cap=ENTAIL_TEAM_CAP,
            samples=ENTAIL_SAMPLES, seed=seed)
        return Entailed(v.status, v.searched["models"], v.searched["teams"],
                        "sampled teams" in v.searched["notes"], v.witness)
    return ask


def entail_sweep(seed, scale=1.0):
    """entails_bounded at max domain 2 and 3 on the criterion-08 rules, the
    dependence-symmetry counterexample, and seeded instances of valid and
    invalid rule schemas over 3-4 variables, some mentioning a unary
    relation."""
    rng = random.Random(seed)
    cases = [(h, c, VALID) for h, c in CRITERION_RULES] + [DEP_SYMMETRY + (COUNTER,)]
    for _ in range(max(1, round(2 * scale))):
        for hyps, concl, status in SCHEMAS:
            names = dict(zip("abcd", rng.sample(NAMES, 4)))
            cases.append(([h.format(**names) for h in hyps],
                          concl.format(**names), status))
    questions = []
    for hyps, concl, status in cases:
        hs = [parser.parse_formula(h) for h in hyps]
        c = parser.parse_formula(concl)
        for max_domain in (2, 3):
            questions.append(Question(
                "%s-d%d" % ("valid" if status == VALID else "counter", max_domain),
                _entail(hs, c, max_domain, rng.randrange(1 << 30)),
                hyps=hs, concl=c, status=status,
                text="%s |= %s" % (", ".join(hyps), concl)))
    return _pool(questions, _check_entail_sweep)


def _check_entail_sweep(questions, verdicts):
    problems = {}
    for i, q in enumerate(questions):
        if isinstance(verdicts[i], Raised):
            continue
        v = verdicts[i]
        if v.status != q.info["status"]:
            problems[i] = "%s: %s, expected %s" % (q.info["text"], v.status,
                                                  q.info["status"])
        elif v.witness is not None:
            model, X = v.witness
            holds = [semantics.eval_formula(model, X, h, literal=True)
                     for h in q.info["hyps"]]
            if not all(holds) or semantics.eval_formula(
                    model, X, q.info["concl"], literal=True):
                problems[i] = "%s: witness fails the literal evaluator" % q.info["text"]
    return problems


# --- toolchain ----------------------------------------------------------------


def _cli(argv):
    def ask():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        if code == 2:
            raise CliRefused(out.getvalue().strip())
        return code, out.getvalue()
    return ask


def _cli_key(verdict):
    """Fresh-variable counters differ from pass to pass; the rest may not."""
    code, out = verdict
    return code, re.sub(r"\$\d+", "$", out)


def _random_atom(rng):
    a, b, c = (Var(v) for v in rng.sample(checks.VARIABLES, 3))
    return rng.choice([Dep((a,), (b,)), Dep((a, b), (c,)), Inc((a,), (b,)),
                       Ind((a,), (c,), (b,)), Ind((a,), (), (b, c))])


def _corrupt_citation(text):
    """Flip one rule citation in the last cited step of a proof script."""
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        line = lines[i]
        if not line.strip() or line.lstrip().startswith(("#", "assume", "qed")):
            continue
        body, sep, just = line.rpartition(";")
        parts = just.split()
        if sep and len(parts) >= 2 and parts[1].isdigit():
            c = int(parts[1])
            parts[1] = str(c - 1 if c > 1 else c + 1)
            lines[i] = body + "; " + " ".join(parts)
            return "\n".join(lines) + "\n"
    raise ValueError("no cited step to corrupt")


def _so_bits(model, phi):
    """log2 of the number of second-order interpretations eval_eso may try
    for phi's translation on `model`."""
    return sum(len(model.domain) ** arity for _, arity in eso.tau(phi).so_vars)


def _correspondence(rng, model, bits, exhaustive=False):
    """Endless check_correspondence questions on gen_so_friendly formulas
    whose translation has a second-order search of `bits` (lo, hi) bits;
    `exhaustive` keeps those the team falsifies, where eval_eso tries every
    interpretation."""
    while True:
        phi = checks.gen_so_friendly(rng)
        X = _team(rng, _team_vars(phi), rng.randint(0, 4))
        if (bits[0] <= _so_bits(model, phi) <= bits[1]
                and not (exhaustive and semantics.eval_formula(model, X, phi))):
            yield Question("correspondence-%d-%d" % bits,
                           lambda X=X, phi=phi: eso.check_correspondence(model, X, phi))


def toolchain(seed, scale=1.0):
    """negate / translate / prove through cli.main, parse-print round trips,
    and check_correspondence (tau against the eval_eso brute force).

    eval_eso tries up to 2**bits interpretations, and above 4 bits one
    question costs anything from 1 ms to 1 s, so the seeded correspondence
    questions stay at 4 bits or less, and a fixed core of 5-8-bit ones that
    the team falsifies keeps the exhaustive brute force in view."""
    rng = random.Random(seed)
    model = checks.default_model()
    n = lambda k: max(1, round(k * scale))
    questions = list(itertools.islice(
        _correspondence(random.Random(CORE_SEED), model, (5, 8), exhaustive=True), n(4)))
    questions += itertools.islice(_correspondence(rng, model, (0, 4)), n(100))
    while sum(q.kind == "negate" for q in questions) < n(80):
        phi = _random_atom(rng) if rng.random() < 0.25 else checks.gen_downward(rng)
        if negation.is_negatable_fragment(phi):
            questions.append(Question(
                "negate", _cli(["negate", "--formula", parser.print_formula(phi)]),
                key=_cli_key))
    for _ in range(n(80)):
        phi = _random_atom(rng) if rng.random() < 0.25 else checks.gen_so_friendly(rng)
        questions.append(Question(
            "translate", _cli(["translate", "--formula", parser.print_formula(phi)]),
            key=_cli_key))
    for path in sorted(os.listdir(PROOF_DIR)) * 2:
        if path.endswith(".prf"):
            path = os.path.join(PROOF_DIR, path)
            with open(path) as fh:
                text = fh.read()
            questions.append(Question("prove", _cli(["prove", "--script", path]),
                                      proof=text, name=os.path.basename(path)))
    for _ in range(n(400)):
        phi = checks.gen_full(rng)
        questions.append(Question(
            "round-trip",
            lambda phi=phi: parser.parse_formula(parser.print_formula(phi)),
            original=phi))
    return _pool(questions, _check_toolchain)


def _check_toolchain(questions, verdicts):
    problems = {}
    for i, q in enumerate(questions):
        v = verdicts[i]
        if isinstance(v, Raised):
            continue
        if q.kind in ("negate", "translate", "prove"):
            code, out = v
            if code != 0 or not out.strip():
                problems[i] = "%s exited %r: %s" % (q.kind, code, out.strip())
            elif q.kind == "negate":
                try:
                    parser.parse_formula(out.strip(), expand=False,
                                         allow_reserved=True)
                except parser.ParseError as e:
                    problems[i] = "negation does not parse back: %s" % e
            elif q.kind == "prove":
                if out.strip() != "ACCEPTED":
                    problems[i] = "%s: %s" % (q.info["name"], out.strip())
                else:
                    try:
                        mutated = proofkernel.check_proof(proofkernel.parse_proof(
                            _corrupt_citation(q.info["proof"])))
                    except proofkernel.ProofError:
                        mutated = False
                    if mutated:
                        problems[i] = "%s: corrupted citation accepted" % q.info["name"]
        elif q.kind == "round-trip" and v != q.info["original"]:
            problems[i] = "print/parse changed %r into %r" % (q.info["original"], v)
        elif q.kind.startswith("correspondence") and v is not True:
            problems[i] = "tau disagrees with team semantics"
    return problems


# --- shared -------------------------------------------------------------------


def _pool(questions, check):
    """Choose the warm-up, the first question of each kind but the fixed
    heavy cores, and bind the checker."""
    warmup, seen = [], {"bool-or-def-%dr" % CORE_ROWS, "correspondence-5-8"}
    for i, q in enumerate(questions):
        if q.kind not in seen:
            seen.add(q.kind)
            warmup.append(i)
    return Pool(questions, warmup, lambda verdicts: check(questions, verdicts))


WORKLOADS = {
    "quantifier-search": quantifier_search,
    "entail-sweep": entail_sweep,
    "toolchain": toolchain,
}
