"""Command-line front end.

Subcommands:
    check      evaluate a formula on a model and team
    entail     bounded entailment search over small models and teams
    negate     synthesize the weak negation of a formula
    translate  second-order translation (and, for atoms, the in-language one)
    prove      check a proof script
    props      run the named property suites

Exit codes: 0 satisfied/valid/accepted, 1 refuted/rejected, 2 usage or
parse errors.
"""

import argparse
import collections
import functools
import sys

from .checks import SUITES, run_all, run_suite
from .entailment import entails_bounded, mentioned_signature
from .eso import print_eso, tau
from .genatom import atom_def_of, sigma_pi_translate
from .model import parse_model, print_model
from .negation import NotNegatableError, wneg
from .parser import ParseError, parse_formula, print_formula
from .proofkernel import ProofError, check_proof, parse_proof
from .semantics import eval_formula
from .team import parse_team, print_team


class CliError(Exception):
    pass


def _emit(machine, human, records):
    if machine:
        for k, v in records:
            print("%s=%s" % (k, v))
    else:
        print(human)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e))


def cmd_check(args):
    model = parse_model(_read(args.model))
    X = parse_team(_read(args.team))
    for row in sorted(X.rows):
        for var, value in zip(X.vars, row):
            if value not in model.domain:
                raise CliError("team value %r of variable %s is not in the "
                               "model's domain" % (value, var))
    phi = parse_formula(args.formula, constants=tuple(model.consts))
    for name, arity in mentioned_signature([phi]).relations.items():
        tuples = model.rels.get(name)
        if tuples:  # an empty relation keeps no arity
            n = len(next(iter(tuples)))
            if n != arity:
                raise CliError("relation %s is used with arity %d, but the "
                               "model's %s has arity %d" % (name, arity, name, n))
    value = eval_formula(model, X, phi)
    _emit(args.machine, "satisfied" if value else "not satisfied",
          [("result", "sat" if value else "unsat")])
    return 0 if value else 1


def cmd_entail(args):
    hyps = [parse_formula(h) for h in args.hyp]
    concl = parse_formula(args.concl)
    verdict = entails_bounded(hyps, concl, max_domain=args.max_domain,
                              team_cap=args.team_cap, samples=args.samples,
                              seed=args.seed)
    if verdict:
        by_size = verdict.searched["by_size"]
        sampled = [d for d in sorted(by_size) if by_size[d]["sampled"]]
        how = ("teams; teams at domain size%s %s were sampled, not searched "
               "exhaustively" % ("s" if len(sampled) > 1 else "",
                                 ", ".join(map(str, sampled)))
               if sampled else "teams searched")
        _emit(args.machine,
              "valid up to domain size %d (%d models, %d %s)"
              % (args.max_domain, verdict.searched["models"],
                 verdict.searched["teams"], how),
              [("result", "valid-up-to-bound"),
               ("max_domain", args.max_domain),
               ("models", verdict.searched["models"]),
               ("teams", verdict.searched["teams"]),
               ("search", "sampled" if sampled else "exhaustive")]
              + [("search_d%d" % d,
                  "sampled" if by_size[d]["sampled"] else "exhaustive")
                 for d in sorted(by_size)])
        return 0
    model, X = verdict.witness
    if args.machine:
        _emit(True, "", [("result", "counterexample")])
    else:
        print("counterexample:")
    sys.stdout.write(print_model(model))
    sys.stdout.write(print_team(X))
    return 1


def cmd_negate(args):
    phi = parse_formula(args.formula, expand=False)
    try:
        neg = wneg(phi)
    except NotNegatableError as e:
        raise CliError(str(e))
    text = print_formula(neg)
    _emit(args.machine, text, [("negation", text)])
    return 0


def cmd_translate(args):
    phi = parse_formula(args.formula, expand=False)
    records = [("second_order", print_eso(tau(phi)))]
    pair = atom_def_of(phi)
    if pair is not None:
        d, xs = pair
        records.append(("in_language", print_formula(sigma_pi_translate(d, xs))))
    _emit(args.machine, "\n".join(text for _, text in records), records)
    return 0


def cmd_prove(args):
    script = parse_proof(_read(args.script))
    verdict = check_proof(script)
    rules = collections.Counter(st.rule for st in script.steps.values())
    steps = [("rule_" + rule, n) for rule, n in sorted(rules.items())]
    if verdict:
        _emit(args.machine, "ACCEPTED", [("result", "accepted")] + steps)
        return 0
    _emit(args.machine, "REJECTED at step %s: %s" % (verdict.step, verdict.reason),
          [("result", "rejected"), ("step", verdict.step),
           ("reason", verdict.reason)] + steps)
    return 1


def cmd_props(args):
    if args.suite:
        results = [run_suite(args.suite, seed=args.seed,
                             runs=args.samples or None)]
    else:
        results = run_all(seed=args.seed, runs=args.samples or None)
    ok = True
    for r in results:
        ok = ok and r.ok
        if args.machine:
            print("suite=%s status=%s checks=%d failures=%d"
                  % (r.name, "pass" if r.ok else "fail", r.runs, len(r.failures)))
        else:
            print(r.summary())
    return 0 if ok else 1


MACHINE_HELP = "emit key=value records instead of prose"


def build_parser():
    p = argparse.ArgumentParser(
        prog="teamlogic",
        description="workbench for dependence and independence logic "
                    "under team semantics")
    p.add_argument("--machine", action="store_true", help=MACHINE_HELP)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="evaluate a formula on a model and team")
    c.add_argument("--model", required=True)
    c.add_argument("--team", required=True)
    c.add_argument("--formula", required=True)
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("entail", help="bounded entailment search")
    c.add_argument("--hyp", action="append", default=[])
    c.add_argument("--concl", required=True)
    c.add_argument("--max-domain", type=int, default=2)
    c.add_argument("--team-cap", type=int, default=16)
    c.add_argument("--samples", type=int, default=0)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_entail)

    c = sub.add_parser("negate", help="synthesize the weak negation")
    c.add_argument("--formula", required=True)
    c.set_defaults(fn=cmd_negate)

    c = sub.add_parser("translate", help="second-order translation")
    c.add_argument("--formula", required=True)
    c.set_defaults(fn=cmd_translate)

    c = sub.add_parser("prove", help="check a proof script")
    c.add_argument("--script", required=True)
    c.set_defaults(fn=cmd_prove)

    c = sub.add_parser("props", help="run property suites")
    c.add_argument("--suite", choices=sorted(SUITES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--samples", type=int, default=0,
                   help="override the per-suite number of random checks")
    c.set_defaults(fn=cmd_props)

    # --machine is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from overwriting a --machine given before it
    for c in sub.choices.values():
        c.add_argument("--machine", action="store_true",
                       default=argparse.SUPPRESS, help=MACHINE_HELP)
    return p


@functools.cache
def _parser():
    """The parser, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, ProofError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
