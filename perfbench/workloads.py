"""Workload inputs, set-up, timed repetitions and correctness gates.

revlab is imported inside the functions, never at module level, so a
repetition's process can time its own import of revlab as set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import ROOT

WORKLOADS = ("sweep-cold", "ledger-warm", "interp-long")
BUDGET = 100_000           # D for every depth command
RUN_BUDGET = 10 ** 7       # step cap for interp-long runs (none reaches it)
QUERY_LENGTHS = range(3, 9)
QUERY_KINDS = ("k", "rev", "gen")


@dataclass(frozen=True)
class Size:
    sweep_len: int      # L of the sweep-cold f-table
    warm_len: int       # L of the ledger-warm sweep and queries
    queries: int        # ledger-warm queries per repetition
    slow_k: int         # unary payload of the slow zeros/ones programs
    doubler_n: int      # ones_doubler input 1^n
    binary_len: int     # length of the seeded binary inputs


SIZES = {
    "full": Size(16, 14, 12, 9, 40, 1024),
    "smoke": Size(8, 8, 6, 3, 8, 16),
}


# -- inputs ---------------------------------------------------------------------


def sweep_argv(size: Size, cache_dir: str) -> list[str]:
    """The headline command; exhaustive, so the seed does not enter it."""
    return ["depth", "table", "f", "--n-max", "3", "--max-len", str(size.sweep_len),
            "--budget", str(BUDGET), "--cache-dir", cache_dir]


def warm_queries(seed: int, size: Size) -> list[list[str]]:
    """Seeded single queries.  The (length, kind) pairs are a fixed
    balanced set: each length 3..8 equally often, each kind equally
    often, kinds cycling over the sorted lengths.  A query's cost depends
    mostly on that pair (ld-gen on a short x runs a new program for every
    producer), so every seed gets the same mix; x, b and the order vary
    with the seed."""
    rng = random.Random(f"ledger-warm/{seed}")
    lengths = sorted(list(QUERY_LENGTHS) * (size.queries // len(QUERY_LENGTHS)))
    pairs = [(n, QUERY_KINDS[i % len(QUERY_KINDS)]) for i, n in enumerate(lengths)]
    rng.shuffle(pairs)
    out = []
    for n, kind in pairs:
        x = "".join(rng.choice("01") for _ in range(n))
        if kind == "k":
            out.append(["depth", "k", x])
        else:
            out.append(["depth", "ld", x, "--b", str(rng.randrange(3)),
                        "--variant", kind])
    return out


def warm_argv(query: list[str], size: Size, cache_dir: str) -> list[str]:
    return query + ["--max-len", str(size.warm_len), "--budget", str(BUDGET),
                    "--cache-dir", cache_dir]


def slow_programs(size: Size) -> list[tuple[str, str]]:
    """(program, emitted symbol) for slow zeros and slow ones at k."""
    from revlab.prefixvm import SLOW_ONES_INDEX, SLOW_ZEROS_INDEX, encode_index
    payload = "0" * size.slow_k + "1"
    return [(encode_index(SLOW_ZEROS_INDEX) + payload, "0"),
            (encode_index(SLOW_ONES_INDEX) + payload, "1")]


def roundtrip_inputs(seed: int, size: Size) -> list[tuple[str, str]]:
    """(corpus name, input) pairs run forward and back on the emulators:
    ones_doubler on 1^n, then one seeded binary input of the fixed length
    for each halting binary-input corpus machine."""
    from revlab.corpus import BIN, corpus
    rng = random.Random(f"interp-long/{seed}")
    out = [("ones_doubler", "1" * size.doubler_n)]
    for entry in corpus():
        if entry.halts and entry.input_alphabet == BIN:
            out.append((entry.name,
                        "".join(rng.choice("01") for _ in range(size.binary_len))))
    return out


def program_inputs(workload: str, seed: int, size: Size) -> dict:
    """Everything the program receives in one workload, for the seed check."""
    if workload == "sweep-cold":
        return {"argv": sweep_argv(size, "<cache>")}
    if workload == "ledger-warm":
        return {"fill": ["sweep", size.warm_len, BUDGET],
                "queries": [warm_argv(q, size, "<cache>")
                            for q in warm_queries(seed, size)]}
    return {"universal_run": slow_programs(size),
            "bennett_transform": "corpus",
            "roundtrips": roundtrip_inputs(seed, size)}


# -- set-up outside the timed repetitions -------------------------------------


def _answer(rec) -> tuple[int, dict]:
    from revlab.depth import NoWitness
    rc = 4 if isinstance(rec, NoWitness) else 0
    return rc, json.loads(json.dumps(dataclasses.asdict(rec)))


def prepare(workload: str, seed: int, size: Size, workdir: Path) -> dict:
    """ledger-warm: fill a ledger with one cold sweep and compute every
    query's answer on an in-memory lab that never loads a ledger file."""
    if workload != "ledger-warm":
        return {}
    from revlab.depth import Budget, DepthLab, RunLedger
    cache = workdir / "warm"
    lab = DepthLab(ledger=RunLedger(cache))
    budget = Budget(size.warm_len, BUDGET)
    lab.sweep(budget)
    lab.ledger.save()
    expected = []
    for q in warm_queries(seed, size):
        if q[1] == "k":
            rec = lab.k_bounded(q[2], budget)
        else:
            rec = lab.logical_depth(q[2], int(q[4]), budget, q[6])
        rc, payload = _answer(rec)
        expected.append({"argv": q, "rc": rc, "payload": payload})
    return {"ledger": str(lab.ledger.path), "expected": expected}


# -- timed repetitions ---------------------------------------------------------


class Rep:
    """One repetition: its timed section, operations and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[str] = set()
        self.counts: dict[str, int] = {}
        self.wall_s = self.cpu_s = 0.0

    @contextlib.contextmanager
    def timed(self):
        root = self.tracer.begin(ROOT) if self.tracer else None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.wall_s = perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if root is not None:
                self.tracer.end(root)
            self.cpu_s = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)

    def op(self, fn, *args):
        """Run one timed operation; an exception is a failed operation."""
        self.attempted += 1
        t = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program under test failed this op
            self.latencies.append(perf_counter() - t)
            self.check(False, f"operation {self.attempted}",
                       f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(perf_counter() - t)
        return result

    def check(self, ok: bool, op: str, detail: str = "") -> None:
        """Record a wrong answer of the operation(s) named ``op``."""
        if not ok:
            self.failed_ops.add(op)
            self.failures.append(f"{op}: {detail}" if detail else op)

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "latencies": self.latencies, "attempted": self.attempted,
                "failed": min(self.attempted, len(self.failed_ops)),
                "failures": self.failures[:10],
                "counts": self.counts}


def _cli(argv: list[str]) -> tuple[int, str]:
    from revlab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _ledger_counts(cache: Path) -> dict[str, int]:
    files = list(cache.glob("*.jsonl"))
    if len(files) != 1:
        return {"ledger_files": len(files)}
    data = files[0].read_bytes()
    return {"ledger_files": 1, "ledger_bytes": len(data),
            "ledger_entries": data.count(b"\n")}


def _check_envelopes(rep: Rep, what: str, text: str, payloads: list,
                     budget: dict, digest: str) -> None:
    try:
        envs = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        rep.check(False, what, "output is not JSON lines")
        return
    rep.check([e.get("payload") for e in envs] == payloads, what, "payload")
    rep.check(all(e.get("digest") == digest for e in envs), what, "digest")
    rep.check(all(e.get("budget") == budget for e in envs), what, "budget")


def rep_sweep_cold(rep: Rep, size: Size, seed: int, workdir: Path,
                   prep: dict, expected: dict) -> None:
    cache = workdir / "cache"
    argv = sweep_argv(size, str(cache))
    with rep.timed():
        got = rep.op(_cli, argv)
    if got is None:
        return
    want = expected["sweep_cold"][str(size.sweep_len)]
    rep.check(got[0] == want["rc"], "sweep-cold", f"exit code {got[0]}")
    _check_envelopes(rep, "sweep-cold", got[1], want["payloads"],
                     {"max_len": size.sweep_len, "max_steps": BUDGET},
                     expected["digest"])
    rep.counts = _ledger_counts(cache)
    shutil.rmtree(cache, ignore_errors=True)


def rep_ledger_warm(rep: Rep, size: Size, seed: int, workdir: Path,
                    prep: dict, expected: dict) -> None:
    cache = workdir / "cache"
    cache.mkdir()
    shutil.copy(prep["ledger"], cache)
    outputs = []
    with rep.timed():
        for q in prep["expected"]:
            outputs.append(rep.op(_cli, warm_argv(q["argv"], size, str(cache))))
    budget = {"max_len": size.warm_len, "max_steps": BUDGET}
    for q, got in zip(prep["expected"], outputs):
        what = "ledger-warm " + " ".join(q["argv"])
        if got is not None:
            rep.check(got[0] == q["rc"], what, f"exit code {got[0]}")
            _check_envelopes(rep, what, got[1], [q["payload"]], budget,
                             expected["digest"])
    rep.counts = _ledger_counts(cache)
    shutil.rmtree(cache, ignore_errors=True)


def rep_interp_long(rep: Rep, size: Size, seed: int, workdir: Path,
                    prep: dict, expected: dict) -> None:
    from revlab import machines, prefixvm, reversal
    from revlab.corpus import corpus

    want = expected["interp_long"]
    programs = slow_programs(size)
    entries = {e.name: e for e in corpus()}
    sources = [(e.name, machines.normalize_to_quadruples(e.machine)
                if isinstance(e.machine, machines.QuintupleMachine) else e.machine)
               for e in entries.values()]
    roundtrips = roundtrip_inputs(seed, size)
    universal, emulators, runs = [], {}, []
    with rep.timed():
        for bits, _ in programs:
            universal.append(rep.op(prefixvm.universal_run, bits, "", RUN_BUDGET))
        for name, m in sources:
            emulators[name] = rep.op(reversal.bennett_transform, m)
        for name, w in roundtrips:
            bm = emulators[name]
            if bm is None:
                continue
            c0 = machines.initial_configuration(bm.machine, w)
            fwd = rep.op(machines.run_from, bm.machine, c0, RUN_BUDGET)
            back = None
            if fwd is not None:
                back = rep.op(reversal.run_reverse, bm, fwd.final, fwd.steps)
            runs.append((name, w, c0, fwd, back))

    # A batch of runs has no request structure: its one request is the
    # whole timed section, as on sweep-cold.
    rep.latencies = [rep.wall_s]

    slow_steps = want["slow_steps"][str(size.slow_k)]
    for (bits, emit), r in zip(programs, universal):
        if r is None:
            continue
        rep.check(r.outcome == prefixvm.HALTED and r.program == bits
                  and r.steps == slow_steps
                  and r.output == emit * (2 ** (size.slow_k + 1) - 1),
                  f"universal_run {bits}", f"{r.outcome} after {r.steps} steps")
    rep.check(sum(bm is not None for bm in emulators.values()) == want["transforms"],
              "bennett_transform", "emulator count")
    doubler_steps = want["doubler_steps"][str(size.doubler_n)]
    for name, w, c0, fwd, back in runs:
        what = f"roundtrip {name}"
        if fwd is None or back is None:
            continue
        rep.check(fwd.outcome == machines.HALTED, what, "no halt")
        rep.check(fwd.output == entries[name].reference(w), what, "output")
        rep.check("".join(fwd.final.tapes[0]) == w, what, "input not restored")
        rep.check(not fwd.final.tapes[1], what, "history not blank")
        if name == "ones_doubler":
            rep.check(fwd.steps == doubler_steps, what, f"{fwd.steps} steps")
        rep.check(back.steps == fwd.steps and back.final.state == c0.state
                  and back.final.tapes == c0.tapes and back.final.heads == c0.heads,
                  what, "reverse run did not return to the initial configuration")
    rep.counts = {
        "universal_steps": sum(r.steps for r in universal if r is not None),
        "forward_steps": sum(f.steps for *_, f, _ in runs if f is not None),
        "reverse_steps": sum(b.steps for *_, b in runs if b is not None),
        "emulator_rules": sum(len(bm.machine.rules)
                              for bm in emulators.values() if bm is not None),
    }


REPS = {"sweep-cold": rep_sweep_cold, "ledger-warm": rep_ledger_warm,
        "interp-long": rep_interp_long}
