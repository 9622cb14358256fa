"""Smoke test of the benchmark itself, in a few seconds:

    python3 bench/smoke.py

Runs every workload at a small pool size, untraced and traced, and checks
the result line (keys, metric names and units as BENCHMARK.json declares
them, verdicts), that tracing leaves Team and Model intact, and that the
benchmark refuses to run without the teamlogic sources.  Exits 1 on the
first failure.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


# Per-layer metrics that must be nonzero on each workload: a traced run that
# reports zero there has lost a wrapper.
ACTIVE = {
    "quantifier-search": ["semantics.eval.calls", "team.Team.calls",
                          "team.duplicate.calls", "formula.is_first_order.calls"],
    "entail-sweep": ["entailment.teams_searched", "model.enumerate_models.models",
                     "team.sample_teams.teams", "semantics.atom.ind.us_per_call.rows_le_8"],
    "toolchain": ["cli.main.self_s", "eso.eval_eso.calls", "parser.parse_formula.calls",
                  "negation.wneg.calls", "proofkernel.bounded_fo_step.calls"],
}


def fail(message):
    print("FAIL: %s" % message)
    sys.exit(1)


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def check_result(spec, workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
              "--trace", str(trace), "--scale", "0.05")
    if out.returncode != 0:
        fail("%s trace=%d exited %d: %s" % (workload, trace, out.returncode, out.stderr))
    result = json.loads(out.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s trace=%d: verdicts\n%s" % (workload, trace, out.stdout))
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("%s trace=%d: metrics %s, expected %s" % (workload, trace, got, want))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail("%s: metric %s is %r" % (workload, name, m))
    for name in ACTIVE[workload] if trace else want:
        if not result["metrics"][name]["value"] > 0:
            fail("%s trace=%d: %s is not positive" % (workload, trace, name))


def check_tracer_keeps_classes():
    sys.path.insert(0, BENCH)
    from tracer import Tracer
    from teamlogic.model import Model
    from teamlogic.team import Team
    original = Team.__init__
    tracer = Tracer()
    tracer.install()
    try:
        X = Team(("x",), [("0",)])
        M = Model(("0", "1"))
        if not (type(X) is Team and isinstance(X, Team) and X == Team(("x",), [("0",)])
                and type(M) is Model and M == Model(("0", "1"))):
            fail("tracing changed Team or Model")
        if tracer.calls["team.Team"] != 2 or tracer.calls["model.Model"] != 2:
            fail("tracer missed constructions: %s" % dict(tracer.calls))
    finally:
        tracer.uninstall()
    if Team.__init__ is not original:
        fail("uninstall left a wrapper on Team")


def check_refuses_without_sources():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    out = run(bare, "--workload", "toolchain", "--seed", "1", "--seconds", "1",
              "--trace", "0")
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        fail("ran without the sources: exit %d, stdout %r" % (out.returncode, out.stdout))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_tracer_keeps_classes()
    check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
            print("ok %s trace=%d" % (workload, trace))
    print("smoke test passed")


if __name__ == "__main__":
    main()
