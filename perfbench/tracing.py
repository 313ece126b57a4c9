"""In-memory span tracing around revlab's public layer functions.

Each wrapper replaces a function where its caller looks it up (a module
global or a class attribute), so no revlab code changes.  A span is
``[name, start, end, parent]``; spans stay in a list until the traced
repetition ends and are then written to one JSON file.  Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans sum to the root span's duration.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import perf_counter

ROOT = "bench.timed"

# Query-layer methods of DepthLab; private helpers they call (_producers,
# run_one, rev_one) count toward the calling query's self time.
QUERY_METHODS = (
    "k_bounded", "shortest_programs", "incompressible_programs",
    "logical_depth", "logical_depth_general", "logical_depth_reversible",
    "exact_halters", "psi_table", "phi_table", "f_table",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_ledger = None
        self.file_bytes = 0  # ledger file size after the latest load or save
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper; ``after``
        gets (result, args) and records counts outside the span."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(result, args)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self, revlab) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        cli, depth = revlab.cli, revlab.depth
        prefixvm, machines, reversal = revlab.prefixvm, revlab.machines, revlab.reversal
        c = self.counts

        def universal_done(result, _args):
            c["prefixvm.universal_run.reported_steps"] += result.steps
            c["prefixvm.outcome." + result.outcome.replace("-", "_")] += 1
            if result.outcome == prefixvm.BUDGET_EXCEEDED:
                c["prefixvm.budget_exceeded_steps"] += result.steps

        def steps_of(key):
            def done(result, _args):
                c[key] += result.steps
            return done

        def ledger_made(_result, args):
            self.last_ledger = args[0]
            self._note_file(args[0])

        self.wrap(cli, "main", "cli.main")
        # depth imported universal_run by name; interp-long calls the
        # prefixvm attribute directly.  Both are the same layer.
        self.wrap(depth, "universal_run", "prefixvm.universal_run", universal_done)
        self.wrap(prefixvm, "universal_run", "prefixvm.universal_run", universal_done)
        self.wrap(prefixvm, "run_prefix", "prefixvm.run_prefix",
                  steps_of("prefixvm.run_prefix.steps"))
        self.wrap(machines, "run_from", "machines.run_from",
                  steps_of("machines.run_from.steps"))
        # reversal.run_reverse steps its inverse through its own run_from
        # reference, which stays unwrapped: reverse stepping is the
        # run_reverse span's self time, and invert is its child.
        self.wrap(reversal, "run_reverse", "reversal.run_reverse",
                  steps_of("reversal.run_reverse.steps"))
        self.wrap(reversal, "invert", "reversal.invert")
        self.wrap(reversal, "bennett_transform", "reversal.bennett_transform")
        self.wrap(depth.DepthLab, "sweep", "depth.sweep")
        for method in QUERY_METHODS:
            self.wrap(depth.DepthLab, method, "depth.query." + method)
        self.wrap(depth.RunLedger, "__init__", "depth.ledger.load", ledger_made)
        self.wrap(depth.RunLedger, "run", "depth.ledger.run")
        self.wrap(depth.RunLedger, "put", "depth.ledger.put")
        self._wrap_save(depth.RunLedger)

    def _wrap_save(self, ledger_cls) -> None:
        # A save that finds nothing dirty writes nothing; count only saves
        # that changed the file.  The stat calls sit outside the span.
        save = ledger_cls.__dict__["save"]
        tracer = self

        def stamp(ledger):
            if ledger.path is None or not ledger.path.exists():
                return None
            st = ledger.path.stat()
            return st.st_mtime_ns, st.st_size, st.st_ino

        def traced(ledger):
            before = stamp(ledger)
            idx = tracer.begin("depth.ledger.save")
            try:
                save(ledger)
            finally:
                tracer.end(idx)
            if stamp(ledger) != before:
                tracer.counts["depth.ledger.saves"] += 1
            tracer._note_file(ledger)

        self._undo.append((ledger_cls, "save", save))
        ledger_cls.save = traced

    def _note_file(self, ledger) -> None:
        if ledger.path is not None and ledger.path.exists():
            self.file_bytes = ledger.path.stat().st_size

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of this trace (see README.md)."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        under: Counter = Counter()  # (child name, parent name) -> calls
        for i, (name, _, _, parent) in enumerate(spans):
            self_s[name] += dur[i] - child[i]
            total_s[name] += dur[i]
            calls[name] += 1
            if parent >= 0:
                under[(name, spans[parent][0])] += 1
        roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
        if len(roots) != 1 or spans[roots[0]][3] != -1:
            raise RuntimeError("trace must hold exactly one root span")
        wall = dur[roots[0]]
        self_sum = sum(self_s.values())
        if abs(self_sum - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(f"self times sum to {self_sum}, root lasted {wall}")

        c = self.counts

        def rate(num, den):
            return num / den if den > 0 else 0.0

        query = [n for n in calls if n.startswith("depth.query.")]
        executed = under[("depth.ledger.run", "depth.sweep")]
        derived = under[("depth.ledger.put", "depth.sweep")]
        strings = executed + derived
        ledger_runs = calls["depth.ledger.run"]
        misses = under[("prefixvm.universal_run", "depth.ledger.run")]
        ledger = self.last_ledger
        reported = c["prefixvm.universal_run.reported_steps"]
        return {
            "prefixvm.universal_run.calls": calls["prefixvm.universal_run"],
            "prefixvm.universal_run.self_s": self_s["prefixvm.universal_run"],
            "prefixvm.universal_run.calls_per_s": rate(
                calls["prefixvm.universal_run"], total_s["prefixvm.universal_run"]),
            "prefixvm.outcome.halted": c["prefixvm.outcome.halted"],
            "prefixvm.outcome.tape_exhausted": c["prefixvm.outcome.tape_exhausted"],
            "prefixvm.outcome.budget_exceeded": c["prefixvm.outcome.budget_exceeded"],
            "prefixvm.universal_run.reported_steps": reported,
            "prefixvm.budget_exceeded_step_share": rate(
                c["prefixvm.budget_exceeded_steps"], reported),
            "prefixvm.run_prefix.steps_per_s": rate(
                c["prefixvm.run_prefix.steps"], self_s["prefixvm.run_prefix"]),
            "machines.run_from.steps_per_s": rate(
                c["machines.run_from.steps"], self_s["machines.run_from"]),
            "reversal.run_reverse.steps_per_s": rate(
                c["reversal.run_reverse.steps"], self_s["reversal.run_reverse"]),
            "reversal.invert.self_s": self_s["reversal.invert"],
            "reversal.bennett_transform.self_s": self_s["reversal.bennett_transform"],
            "depth.sweep.self_s": self_s["depth.sweep"],
            "depth.sweep.strings": strings,
            "depth.sweep.executed": executed,
            "depth.sweep.derived": derived,
            "depth.sweep.executed_ratio": rate(executed, strings),
            "depth.ledger.load_s": total_s["depth.ledger.load"],
            "depth.ledger.save_s": total_s["depth.ledger.save"],
            "depth.ledger.saves": c["depth.ledger.saves"],
            "depth.ledger.hits": ledger_runs - misses,
            "depth.ledger.misses": misses,
            "depth.ledger.entries": len(ledger) if ledger is not None else 0,
            "depth.ledger.file_bytes": self.file_bytes,
            "depth.query.calls": sum(calls[n] for n in query),
            "depth.query.self_s": sum(self_s[n] for n in query),
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "trace.spans": len(spans),
            "trace.wall_s": wall,
            "trace.layer_self_s": wall - self_s[ROOT],
            "trace.remainder_s": self_s[ROOT],
        }

    def write(self, path: str | os.PathLike, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        ix = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[ix[n], a, b, p] for n, a, b, p in self.spans]},
                      fh, separators=(",", ":"))
