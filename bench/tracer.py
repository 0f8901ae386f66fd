"""Spans and counters around calls into declsolve's modules.

The modules import names into their own namespaces, so each wrapper is
installed on the namespace that makes the call (``declsolve.evaluation.
solve_system``, ``declsolve.solver.forward_substitute``, ...), never on the
defining module alone.  Nothing inside the package changes; `uninstall`
puts every original back.

A span is ``[name, start, end, parent, problem]``.  Spans stay in memory
during a pass; afterwards they are summarised, and `dump` writes them out.
A span's self time is its duration minus the durations of its direct
children.  record-resume runs two workers, so the span stack, the current
problem and the counters are kept per thread.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict

RUN_PROBLEM = "evaluation.run_problem"
STEP_ALIASES = {"linear-elimination": "linear"}  # SolveOutcome.trace label -> metric


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._counters: list[Counter] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.problem = None
            local.live = False
            local.counts = Counter()
            self._counters.append(local.counts)  # list.append is atomic
        return local

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def reset(self) -> None:
        self.spans = []
        for counter in self._counters:
            counter.clear()

    def traced(self, name, function, *, before=None, after=None, failed=None):
        """`function` wrapped in a span; hooks see the thread state."""

        def wrapper(*args, **kwargs):
            state = self._state()
            if before is not None:
                before(state, args)
            parent = state.stack[-1] if state.stack else None
            span = [name, time.perf_counter(), 0.0, parent, state.problem]
            self.spans.append(span)
            state.stack.append(span)
            try:
                result = function(*args, **kwargs)
            except BaseException as err:
                span[2] = time.perf_counter()
                state.stack.pop()
                if failed is not None:
                    failed(state, err)
                raise
            span[2] = time.perf_counter()
            state.stack.pop()
            if after is not None:
                after(state, result)
            return result

        return wrapper

    def counted(self, name, function):
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Wiring into declsolve

    def install(self) -> None:
        from declsolve import client, evaluation, parsing, solver
        from declsolve.client import CassetteMissError

        def enter_problem(state, args):
            state.problem = args[0].id

        def leave_problem(state, _):
            state.problem = None

        def complete_start(state, args):
            state.live = False  # set by the transport span

        def complete_done(state, result):
            state.counts["client.cassette_misses" if state.live else "client.cassette_hits"] += 1

        def complete_failed(state, err):
            if state.live or isinstance(err, CassetteMissError):
                state.counts["client.cassette_misses"] += 1

        def solved(state, outcome):
            for entry in outcome.trace:
                label = entry.split(":", 1)[0]
                state.counts[f"solver.steps.{STEP_ALIASES.get(label, label)}"] += 1

        def solve_failed(state, err):
            state.counts[f"solver.fail.{type(err).__name__}"] += 1

        def count_call(key):
            def hook(state, args):
                state.counts[key] += 1

            return hook

        span = self.traced
        ev = evaluation.__dict__
        self.patch(evaluation, "run_problem", span(
            RUN_PROBLEM, ev["run_problem"], before=enter_problem, after=leave_problem, failed=leave_problem))
        self.patch(evaluation, "emit_report", span("evaluation.emit_report", ev["emit_report"]))
        self.patch(evaluation, "assemble_prompt", span("prompts.assemble", ev["assemble_prompt"]))
        self.patch(evaluation, "complete", span(
            "client.complete", ev["complete"], before=complete_start, after=complete_done,
            failed=complete_failed))
        self.patch(evaluation, "script_from_transcript", span("parsing.script", ev["script_from_transcript"]))
        self.patch(evaluation, "check_principles", span("parsing.check", ev["check_principles"]))
        self.patch(evaluation, "solve_system", span(
            "solver.solve", ev["solve_system"], after=solved, failed=solve_failed))

        self.patch(client, "fingerprint", span(
            "client.fingerprint", client.fingerprint, before=count_call("client.fingerprint_calls")))
        self.patch(client, "append_record", span(
            "client.append", client.append_record, before=count_call("client.append_calls")))
        load = client.Cassette.__dict__["load"].__func__
        self.patch(client.Cassette, "load", classmethod(span("client.cassette_load", load)))

        self.patch(parsing, "extract_brackets", span("parsing.extract", parsing.extract_brackets))
        self.patch(parsing, "parse_declaration", span(
            "parsing.declaration", parsing.parse_declaration, before=count_call("parsing.declarations")))

        self.patch(solver, "forward_substitute", span("solver.substitute", solver.forward_substitute))
        self.patch(solver, "solve_linear", span("solver.linear", solver.solve_linear))
        for name in ("substitute", "eval_exact", "linear_form"):
            self.patch(solver, name, self.counted(f"exprs.{name}_calls", solver.__dict__[name]))

    def transport(self, function):
        """`function`, a transport for run_eval's ``transport=``, in a span."""

        def went_live(state, args):
            state.live = True
            state.counts["client.transport_calls"] += 1

        return self.traced("client.transport", function, before=went_live)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent line, problem."""
        line = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, problem in self.spans:
                handle.write(json.dumps([name, start, end, line.get(id(parent)), problem]) + "\n")

    # ------------------------------------------------------------------
    # Summaries

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Seconds per span name: total, self, and self counted only inside
        run_problem spans."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[id(parent)] += end - start
        own: dict[str, float] = defaultdict(float)
        inside: dict[str, float] = defaultdict(float)
        for span in self.spans:
            seconds = (span[2] - span[1]) - child.get(id(span), 0.0)
            own[span[0]] += seconds
            root = span
            while root[3] is not None:
                root = root[3]
            if root[0] == RUN_PROBLEM:
                inside[span[0]] += seconds
        return total, own, inside

    def problem_busy(self) -> float:
        """Seconds during which at least one run_problem span was open."""
        intervals = sorted((s[1], s[2]) for s in self.spans if s[0] == RUN_PROBLEM)
        busy, open_start, open_end = 0.0, None, None
        for start, end in intervals:
            if open_end is None or start > open_end:
                if open_end is not None:
                    busy += open_end - open_start
                open_start, open_end = start, end
            else:
                open_end = max(open_end, end)
        if open_end is not None:
            busy += open_end - open_start
        return busy
