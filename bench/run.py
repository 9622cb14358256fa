"""teamlogic benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload quantifier-search --seed 1 --seconds 35 --trace 0

One client in one thread asks the workload's questions one after another,
each only after the previous verdict has come back, in whole passes over the
seeded question pool until --seconds have passed.  The verdicts are checked
after the loop.  The last line of stdout is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
and the per-layer metrics from a traced loop with --trace 1.  See
bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 9  # fresh interpreters whose set-up time is measured


def metric_specs(kind):
    """(name, unit) of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class Loop:
    """Latencies and verdicts of a timed loop of whole passes.

    A question's latency is its shortest time over the passes.  On a shared
    machine the time of one pass can double while other tenants are busy, for
    a burst or for the length of a whole run; the shortest of several tries
    is the closest estimate of what the question itself costs (as with
    timeit).  The throughput is the pool size over the sum of those
    latencies: the questions per second of one uninterrupted pass."""

    def __init__(self, pool, seconds, tracer=None, reference=None):
        """Only the verdicts of the first pass are kept; every later pass,
        and every pass when `reference` (another loop's first pass) is
        given, is compared with them as it goes."""
        from workloads import Raised, ask
        questions = pool.questions
        self.first = None          # verdicts of the first pass
        self.raised = []           # per pass, indices of questions that raised
        self.differs = {}          # index -> how a pass disagreed
        self.latencies = []        # per pass, seconds per question
        clock = time.perf_counter
        start = clock()
        while True:
            verdicts, latencies = [], []
            for q in questions:
                if tracer is not None:
                    tracer.qid += 1
                t = clock()
                verdicts.append(ask(q))
                latencies.append(clock() - t)
            self.latencies.append(latencies)
            self.raised.append({i for i, v in enumerate(verdicts) if isinstance(v, Raised)})
            if self.first is None:
                self.first = verdicts
            expect = reference or self.first
            for i, (q, v) in enumerate(zip(questions, verdicts)):
                if q.key(v) != q.key(expect[i]):
                    self.differs.setdefault(i, "pass %d answered %r, not %r"
                                            % (len(self.raised) - 1, v, expect[i]))
            if clock() - start >= seconds:
                break
        self.elapsed = clock() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.passes = len(self.latencies)
        self.asked = self.passes * len(questions)
        self.per_question = [min(ts) for ts in zip(*self.latencies)]
        self.questions_per_s = len(questions) / sum(self.per_question)


def judge(pool, loops):
    """Check the first pass against the workload's independent computations;
    add every disagreement between passes.  Returns (problems by question
    index, number of failed questions over all passes)."""
    from workloads import Raised
    first = loops[0].first
    problems = pool.check(first)
    for i, v in enumerate(first):
        if isinstance(v, Raised) and not v.refusal:
            problems[i] = repr(v)
    for loop in loops:
        for i, why in loop.differs.items():
            problems.setdefault(i, why)
    failed = sum(len(raised | problems.keys())
                 for loop in loops for raised in loop.raised)
    return problems, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s, failed):
    ms = [t * 1e3 for t in loop.per_question]
    values = {
        "questions_per_s": loop.questions_per_s,
        "question_p50_ms": statistics.median(ms),
        "question_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": loop.peak_rss_mb,
        "answered_share": 1 - failed / loop.asked,
    }
    return {name: metric(values[name], unit) for name, unit in metric_specs("end_to_end")}


def per_layer(pool, loop, tracer, overhead_share):
    """Per-layer metrics, per pass over the pool (atom timings per call)."""
    from workloads import Entailed, Raised
    n = loop.passes
    entail = [v for v in loop.first if isinstance(v, Entailed)]
    values = {
        "semantics.budget_exceeded": sum(
            isinstance(v, Raised) and v.kind == "BudgetExceeded" for v in loop.first),
        "entailment.models_searched": sum(v.models for v in entail),
        "entailment.teams_searched": sum(v.teams for v in entail),
        "entailment.sampled_share": (sum(v.sampled for v in entail) / len(entail)
                                     if entail else 0.0),
        "trace.overhead_share": overhead_share,
    }
    out = {}
    for name, unit in metric_specs("per_layer"):
        layer, _, stat = name.rpartition(".")
        if name in values:
            value = values[name]
        elif name.startswith("semantics.atom."):
            key = "%s.%s" % (name.split(".")[2], stat)
            count = tracer.atom_n[key]
            value = tracer.atom_s[key] / count * 1e6 if count else 0.0
        elif stat == "self_s":
            value = tracer.self_s[layer] / n
        elif stat == "calls":
            value = tracer.calls[layer] / n
        else:  # counts kept under the metric's own name: rows, teams, models
            value = tracer.calls[name] / n
        out[name] = metric(value, unit)
    return out


def setup_child(args):
    """Set-up time of a fresh interpreter, measured by a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def report(pool, loops, problems, tracer):
    """Human-readable lines printed above the JSON result."""
    loop = loops[0]
    lines = ["%d questions in the pool, %d passes, %d questions asked in %.2f s"
             % (len(pool.questions), loop.passes, loop.asked, loop.elapsed)]
    kinds = {}
    for q, t in zip(pool.questions, loop.per_question):
        kinds.setdefault(q.kind, []).append(t * 1e3)
    for kind, ts in sorted(kinds.items()):
        lines.append("  %-18s %4d questions  median %9.3f ms  max %9.3f ms  total %8.3f ms"
                     % (kind, len(ts), statistics.median(ts), max(ts), sum(ts)))
    from workloads import Entailed
    entail = [v for v in loop.first if isinstance(v, Entailed)]
    if entail:
        sampled = sum(v.sampled for v in entail)
        lines.append("  entails_bounded: %d of %d questions sampled teams, "
                     "%d searched every team" % (sampled, len(entail),
                                                  len(entail) - sampled))
    for i, problem in sorted(problems.items())[:10]:
        lines.append("  FAILED question %d (%s): %s"
                     % (i, pool.questions[i].kind, problem))
    if tracer is not None:
        lines.append("  trace: %d spans kept, %d past the cap"
                     % (len(tracer.spans), tracer.dropped))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="pool size factor; the smoke test runs at a small one")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "teamlogic", "__init__.py")):
        print("error: teamlogic sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()  # set-up: import teamlogic, draw the pool, warm up
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))

    pool = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    for i in pool.warmup:
        workloads.ask(pool.questions[i])
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Set-up is timed in fresh interpreters before and after the loop, so
    # that the samples do not all fall into one spell of a busy machine.
    times = [setup_s]
    if not args.trace:
        times += [setup_child(args) for _ in range(SETUP_RUNS // 2)]

    # A traced run splits its time between an untraced and a traced loop,
    # whose throughputs give the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    loop = Loop(pool, seconds)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = Loop(pool, seconds, tracer, reference=loop.first)
        finally:
            tracer.uninstall()
        loops = [loop, traced]
    else:
        loops = [loop]
    problems, failed = judge(pool, loops)

    if args.trace:
        overhead = loop.questions_per_s / traced.questions_per_s - 1
        metrics = per_layer(pool, traced, tracer, overhead)
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, "spans-%s-seed%d.tsv" % (args.workload, args.seed)))
        attempted = loop.asked + traced.asked
    else:
        times += [setup_child(args) for _ in range(SETUP_RUNS - len(times))]
        metrics = end_to_end(loop, times, failed)
        attempted = loop.asked

    for line in report(pool, loops, problems, tracer):
        print(line)
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
