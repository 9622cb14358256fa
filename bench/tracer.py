"""Spans and counters at teamlogic's module boundaries, recorded from outside.

`Tracer.install` swaps each traced function for a wrapper in every teamlogic
module that holds it, whatever the name it is bound to there.  Callers look
names up in module globals at call time (function-level `from .x import y`
included), so every call goes through the wrapper.  `Team.__init__`,
`Model.__init__` and `Evaluator.eval` are wrapped on the class itself, which
keeps the classes, and so their `isinstance` and `__eq__` checks, intact.
`uninstall` puts every original back.

A span records its id, the id of the span it ran inside, the question id, the
layer name, and start and end times.  Self time is a span's duration minus
the time its child spans cover.  Hot leaf functions get count-only wrappers.
For recursive functions only the outermost call counts.
"""

import collections
import sys
import time

ATOM_BUCKETS = ((8, "rows_le_8"), (32, "rows_9_32"), (None, "rows_gt_32"))
SPAN_CAP = 100_000  # spans kept for writing out; later ones are only aggregated


def _bucket(n_rows):
    for limit, name in ATOM_BUCKETS:
        if limit is None or n_rows <= limit:
            return name


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent id, question id, name, start, end)
        self.dropped = 0           # spans past the cap: aggregated, not kept
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.atom_s = collections.Counter()   # "dep.rows_le_8" -> seconds
        self.atom_n = collections.Counter()
        self.qid = 0
        self._open = []            # [span id, time covered by children]
        self._next_id = 0
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def timed(self, name, fn, outermost=False, after=None):
        """Record a span per call; `after(args, seconds)` runs on success."""
        tracer, stack, spans, clock = self, self._open, self.spans, time.perf_counter
        self_s, calls = self.self_s, self.calls
        active = [0]

        def wrapper(*args, **kwargs):
            if outermost and active[0]:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent, tracer.qid, name, start, end))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, duration)
            return result
        return wrapper

    def counted(self, name, fn, outermost=False):
        calls = self.calls
        if not outermost:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            active[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] = False
        return wrapper

    def yields(self, name, fn):
        """Count the items a generator function yields."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_name(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("teamlogic"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        from teamlogic import (cli, entailment, eso, formula, genatom, model,
                               negation, parser, proofkernel, semantics, team)
        from teamlogic.formula import Dep, Inc, Ind

        self._patch_name(semantics, "eval_single",
                         lambda f: self.counted("semantics.eval_single", f, outermost=True))
        for attr in ("is_first_order", "free_vars"):
            self._patch_name(formula, attr, lambda f, a=attr: self.counted(
                "formula." + a, f, outermost=True))
        self._patch_name(formula, "fresh_var",
                         lambda f: self.counted("formula.fresh_var", f))
        self._patch_name(team, "duplicate", lambda f: self.counted("team.duplicate", f))
        self._patch_name(model, "expand_with_relation",
                         lambda f: self.counted("model.expand_with_relation", f))
        self._patch_name(team, "all_teams", lambda f: self.yields("team.all_teams.teams", f))
        self._patch_name(team, "sample_teams",
                         lambda f: self.yields("team.sample_teams.teams", f))
        self._patch_name(model, "enumerate_models",
                         lambda f: self.yields("model.enumerate_models.models", f))
        for mod, attr in ((entailment, "entails_bounded"), (eso, "tau"),
                          (eso, "eval_eso"), (parser, "parse_formula"),
                          (negation, "wneg"), (genatom, "sigma_pi_translate"),
                          (proofkernel, "parse_proof"), (proofkernel, "check_proof"),
                          (proofkernel, "bounded_fo_step"), (cli, "main")):
            name = "%s.%s" % (mod.__name__.rsplit(".", 1)[1], attr)
            self._patch_name(mod, attr, lambda f, n=name: self.timed(n, f))
        self._patch_name(parser, "print_formula",
                         lambda f: self.timed("parser.print_formula", f, outermost=True))

        atom_names = {Dep: "dep", Ind: "ind", Inc: "inc"}

        def atom_verdict(args, seconds):
            _, X, phi = args[:3]
            kind = atom_names.get(type(phi))
            if kind is not None:
                key = "%s.%s" % (kind, _bucket(len(X)))
                self.atom_s[key] += seconds
                self.atom_n[key] += 1

        def team_rows(args, seconds):
            self.calls["team.Team.rows"] += len(args[0].rows)

        self._patch_method(semantics.Evaluator, "eval",
                           lambda f: self.timed("semantics.eval", f, after=atom_verdict))
        self._patch_method(team.Team, "__init__",
                           lambda f: self.timed("team.Team", f, after=team_rows))
        self._patch_method(model.Model, "__init__", lambda f: self.timed("model.Model", f))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tquestion\tname\tstart_s\tend_s\n")
            for sid, parent, qid, name, start, end in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (sid, parent, qid, name, start, end))
