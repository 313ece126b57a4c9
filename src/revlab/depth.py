"""Budget-bounded complexity and logical depth by exhaustive enumeration.

Every value here is relative to an explicit Budget(max_len L, max_steps
D) and exact only under the assumption that a program not halting within
D steps never halts.  The machinery:

  * a persistent RunLedger caching interpreter runs keyed by
    (universal digest, bits, aux, D): an append-only JSONL file holding
    only the runs actually executed, which are the sweeps' runs;
  * one cache entry per (L, D, aux): the sweep, the tree of machine runs
    rooted at ``machine_starts(min(L, D), aux)``, grown in canonical
    order by running both children of every tape-exhausted run, each
    for up to D steps, down to length L, and stored with its
    exactly-consumed halting runs grouped by output.  The index layer
    (prefixes of codes, malformed pairs, indices naming the diverger) is
    fixed by the code alone, so it is derived, never run, stored or
    persisted.  A root starts its
    machine right after <i>, and a child resumes its parent's paused run
    with one more program bit, so no step of a shared prefix is
    simulated twice; a child of a ledger hit resumes the run its parent
    resumed, which paused on a shorter prefix.  Paused runs live only
    until both children have run and are never persisted.  Every query
    reads its producers from that index; a string extending a halted or
    budget-exceeded run is never a program and is not stored;
  * the codes ``machine_starts`` leaves out, whose runs have closed
    forms, are never run and write no ledger line: the table takes their
    records from ``closed_subtrees(L, D)``, built once per (L, D) in a
    process, and every query adds ``closed_producers(x, D)``.  The
    general variant admits a producer by reading the empty-aux sweep
    alone, so queries run nothing.

A bit string is a program for x only when its run halts having scanned
precisely that string.  Every value is a read of x's (length, steps)
staircases over its programs: docs/depth.md defines each value, its
flags and the one tie-break, (steps, length, lexicographic).
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional

from .prefixvm import (
    BUDGET_EXCEEDED,
    HALTED,
    TAPE_EXHAUSTED,
    PausedRun,
    PrefixRunResult,
    closed_producers,
    closed_subtrees,
    machine_starts,
    resume_run,
    reversible_view,
    universal_machine,
    universal_run,
)


@dataclass(frozen=True)
class Budget:
    max_len: int
    max_steps: int

    def __post_init__(self) -> None:
        if self.max_len < 0 or self.max_steps < 0:
            raise ValueError("budget bounds must be >= 0")


@dataclass(frozen=True)
class NoWitness:
    x: str
    aux: str
    budget: Budget
    detail: str = ""


@dataclass(frozen=True)
class ComplexityRecord:
    x: str
    aux: str
    k_upper: int
    witnesses: tuple[str, ...]
    budget: Budget
    exhaustive: bool
    universal_digest: str


@dataclass(frozen=True)
class IncompressibleSet:
    x: str
    b: int
    aux: str
    programs: tuple[str, ...]
    nested_exhaustive: bool
    budget: Budget


@dataclass(frozen=True)
class DepthRecord:
    x: str
    b: int
    ld: int
    witness: str
    variant: str  # "general" | "reversible"
    budget: Budget
    exhaustive: bool
    universal_digest: str


@dataclass(frozen=True)
class GrowthRow:
    n: int
    value: Optional[int]
    witness_x: str
    witness_program: str
    witness_b: Optional[int]
    inconclusive: bool


@dataclass(frozen=True)
class GrowthTable:
    kind: str  # "psi" | "phi" | "f"
    variant: str
    rows: tuple[GrowthRow, ...]
    budget: Budget
    universal_digest: str


# One ledger line: the bytes ``json.dumps(..., sort_keys=True)`` writes for
# binary strings, the only strings ``run`` and ``extend`` accept.
_LINE = ('{{"aux": "{}", "bits": "{}", "budget": {}, "outcome": "{}", '
         '"output": "{}", "program": "{}", "steps": {}}}\n')

# The same line read back; any other line is no run record.
_OUTCOMES = {o.encode(): o for o in (HALTED, TAPE_EXHAUSTED, BUDGET_EXCEEDED)}
_RECORD = re.compile(
    rb'\{"aux": "([01]*)", "bits": "([01]*)", "budget": (0|[1-9][0-9]*), '
    rb'"outcome": "(' + b"|".join(_OUTCOMES) + rb')", '
    rb'"output": "([01]*)", "program": "([01]*)", "steps": (0|[1-9][0-9]*)\}')


class RunLedger:
    """Cache of executed interpreter runs, persisted per digest.

    Hits are bit-identical to recomputation: the key is the exact query
    (bits, aux, budget) and the stored value the full result.  Only runs
    this ledger executed (misses in ``run`` and ``extend``) are
    persisted: the sweep's runs of machines rooted at ``machine_starts``.
    The index layer is derived and the closed codes' records come from
    ``closed_subtrees``, so neither is run or stored.  A resumed run is
    stored like any other; its paused run is not, so the children of a
    hit resume the paused run the hit was asked with.  Lines of
    index-layer, printer-subtree, printer-program and slow-repeater
    runs, which older versions stored, still load; the sweep just never
    asks for them.
    Every line is written from one template, ``_LINE``, and read back
    through its pattern, ``_RECORD``.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        """Load ``<cache_dir>/<digest>.jsonl`` when a directory is given.

        The file is append-only JSONL, one executed run per line.  Ledgers
        sharing a directory append concurrently, so a key may appear on
        several identical lines; the last line per key wins.  Blank lines
        are skipped.  A saved line always ends in a newline, so a last
        line without one that does not match ``_RECORD`` is a save cut
        short by a crash: it is skipped with a warning on stderr.  Any
        other line that does not match raises ValueError naming
        ``path:line``.  A directory that cannot hold the file, such as a
        path through a regular file, raises OSError here, before any run.
        """
        self.digest = universal_machine().digest
        self._mem: dict[tuple[str, str, int], PrefixRunResult] = {}
        self._fresh: list[tuple[str, str, int]] = []
        self.path: Optional[Path] = None
        if cache_dir is not None:
            self.path = Path(cache_dir) / f"{self.digest}.jsonl"
            self._load()

    def _load(self) -> None:
        try:
            lines = self.path.read_bytes().split(b"\n")
        except FileNotFoundError:  # no ledger yet; a path under a file raises
            return
        for n, line in enumerate(lines, 1):
            m = _RECORD.fullmatch(line)
            if m is not None:
                aux, bits, budget, outcome, output, program, steps = m.groups()
                self._mem[bits.decode(), aux.decode(), int(budget)] = PrefixRunResult(
                    _OUTCOMES[outcome], program.decode(), output.decode(), int(steps))
            elif line.strip():
                if n < len(lines):
                    raise ValueError(f"{self.path}:{n}: corrupt ledger line: "
                                     "not a run record")
                print(f"warning: {self.path}:{n}: skipping truncated last line",
                      file=sys.stderr)

    def run(self, bits: str, aux: str, budget: int) -> PrefixRunResult:
        """The run of ``bits`` on ``aux``, from the ledger or executed.  A
        miss with non-binary bits or aux raises ValueError before running,
        so every line ``save`` writes reads back through ``_RECORD``."""
        key = (bits, aux, budget)
        hit = self._mem.get(key)
        if hit is None:
            check_binary(bits, "bits")
            check_binary(aux, "aux")
            hit = self._mem[key] = universal_run(bits, aux, budget)
            self._fresh.append(key)
        return hit

    def extend(self, bits: str, aux: str, budget: int, parent: PausedRun
               ) -> tuple[PrefixRunResult, PausedRun | None]:
        """``run`` for the sweep: ``parent`` is a run paused on a prefix
        of ``bits``, with at most ``budget`` steps taken.  A miss resumes
        it, and comes back with its own paused run when it exhausted
        ``bits``.  A hit comes back with ``parent`` itself, which its
        children can resume as well.  Paused runs are never stored."""
        key = (bits, aux, budget)
        hit = self._mem.get(key)
        if hit is not None:
            return hit, parent
        check_binary(bits, "bits")
        check_binary(aux, "aux")
        result, paused = resume_run(parent, bits, budget)
        self._mem[key] = result
        self._fresh.append(key)
        return result, paused

    def put(self, bits: str, aux: str, budget: int, result: PrefixRunResult) -> None:
        """Record a result known to equal recomputation, in memory only."""
        self._mem.setdefault((bits, aux, budget), result)

    def save(self) -> None:
        """Append the runs executed since the last save to the file.

        The batch goes out in one write to a file opened for appending,
        and nothing stored is rewritten.  When the file does not end in a
        newline, its last line is read back: a run record gets its
        newline, and anything else, such as a save cut short by a crash,
        is cut off before the append.  Check, cut and append happen under
        an exclusive lock on the file, so concurrent savers never cut or
        clobber each other's lines.
        """
        if self.path is None or not self._fresh:
            return
        lines = []
        for bits, aux, budget in self._fresh:
            r = self._mem[bits, aux, budget]
            lines.append(_LINE.format(aux, bits, budget, r.outcome, r.output,
                                      r.program, r.steps))
        data = "".join(lines).encode()
        import fcntl  # only saves lock; imported by the first one

        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab+", buffering=0) as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    buf = fh.read()
                    last = buf.rpartition(b"\n")[2]
                    if _RECORD.fullmatch(last):
                        data = b"\n" + data
                    else:
                        fh.truncate(len(buf) - len(last))
            if fh.write(data) != len(data):
                raise OSError(f"{self.path}: short write while appending runs")
        self._fresh.clear()

    def __len__(self) -> int:
        return len(self._mem)


def check_binary(x: str, what: str = "string") -> None:
    if x.strip("01"):
        raise ValueError(f"{what} must be binary, got {x!r}")


def _exact(bits: str, r: PrefixRunResult) -> bool:
    """A halting run that consumed exactly its bit string: a program."""
    return r.outcome == HALTED and r.program == bits


def _canonical(item: tuple[str, object]) -> tuple[int, str]:
    """Sort key of a (bits, ...) pair: canonical order of its bits."""
    return len(item[0]), item[0]


@dataclass
class _Staircases:
    """x's producers in (length, lexicographic) order and their forward
    staircase (:func:`_staircase`); their reversible staircase within
    ``max_steps`` is built on its first read."""
    producers: dict[str, PrefixRunResult]
    forward: tuple[tuple[int, int, str], ...]
    max_steps: int

    @cached_property
    def reversible(self) -> tuple[tuple[int, int, str], ...]:
        return _staircase({p: reversible_view(r, self.max_steps)
                           for p, r in self.producers.items()})


@dataclass
class DepthLab:
    """Shared sweep state for all depth-lab operations.

    ``_sweeps`` holds one entry per (budget, aux): the sweep table, its
    exact halters grouped by output and the staircases of each string
    queried.  Every query reads that entry and runs nothing: only
    ``sweep`` runs programs and adds them to the ledger.
    """

    ledger: RunLedger = field(default_factory=RunLedger)
    _sweeps: dict = field(default_factory=dict, repr=False)

    @property
    def digest(self) -> str:
        return self.ledger.digest

    # -- sweeps ------------------------------------------------------------

    def sweep(self, budget: Budget, aux: str = "") -> dict[str, PrefixRunResult]:
        """The tree of machine runs over bit strings of length <= L.

        Its roots are ``machine_starts(min(L, D), aux)``
        (:func:`prefixvm.machine_starts`); the index layer around their
        codes is derived, never run.  One heap yields the runs in
        canonical (length, lexicographic) order: each popped string runs
        through the ledger for <= D steps, and a tape-exhausted one
        shorter than L pushes its two children, which sort after it.  So
        a sweep costs what its table holds, not L.  The subtrees under
        the closed codes, ``closed_subtrees(L, D)``, join it, never run.
        A string extending a run that halted or exceeded the budget runs
        identically (the machine never looks at the extension) and is
        never a program, so it is not stored.  A root or child missing
        from the ledger resumes its parent's paused run (a root's parent
        is its machine about to start; a ledger hit passes on the run it
        was given), so the result is the from-scratch run's and nothing
        is decoded.  Each paused run is dropped once both children have
        run.  The table is sorted once into canonical order, and cached
        with its exact halters grouped by output, the index
        ``_producers`` reads.  A non-binary aux raises ValueError before
        anything runs.
        """
        if (budget, aux) not in self._sweeps:
            check_binary(aux, "aux")
            # Canonical order is a heap order, and no two entries share
            # (length, bits), so paused runs are never compared.
            heap = [(len(bits), bits, start) for bits, start in
                    machine_starts(min(budget.max_len, budget.max_steps), aux)]
            records = list(closed_subtrees(budget.max_len, budget.max_steps))
            while heap:
                n, bits, parent = heappop(heap)
                r, paused = self.ledger.extend(bits, aux, budget.max_steps, parent)
                records.append((bits, r))
                if r.outcome == TAPE_EXHAUSTED and n < budget.max_len:
                    heappush(heap, (n + 1, bits + "0", paused))
                    heappush(heap, (n + 1, bits + "1", paused))
            table = dict(sorted(records, key=_canonical))
            by_output: dict[str, dict[str, PrefixRunResult]] = {}
            for bits, r in table.items():
                if _exact(bits, r):
                    by_output.setdefault(r.output, {})[bits] = r
            self._sweeps[budget, aux] = table, by_output, {}
        return self._sweeps[budget, aux][0]

    def exact_halters(self, budget: Budget, aux: str = "") -> dict[str, PrefixRunResult]:
        """Halting runs of the sweep that consumed exactly their bit
        string: every program of length <= L whose code <i> is a root's
        (:func:`prefixvm.machine_starts`)."""
        return {bits: r for bits, r in self.sweep(budget, aux).items()
                if _exact(bits, r)}

    # -- producers and their staircases ---------------------------------------

    def _producers(self, x: str, budget: Budget, aux: str) -> dict[str, PrefixRunResult]:
        """Programs whose run halts with output x: the (budget, aux)
        sweep's exact halters for x, and ``closed_producers(x, D)``, the
        programs for x that the sweep never holds, at any length, which
        are not run.  The caller has built the sweep."""
        return {**self._sweeps[budget, aux][1].get(x, {}),
                **closed_producers(x, budget.max_steps)}

    def _staircases(self, x: str, budget: Budget, aux: str) -> _Staircases:
        """x's staircases, built from one ``_producers`` call per (x,
        budget, aux) and kept in the sweep entry.  x and aux are checked
        before anything runs."""
        check_binary(x)
        self.sweep(budget, aux)
        known = self._sweeps[budget, aux][2]
        if x not in known:
            producers = dict(sorted(self._producers(x, budget, aux).items(),
                                    key=_canonical))
            known[x] = _Staircases(producers, _staircase(producers), budget.max_steps)
        return known[x]

    # -- complexity -----------------------------------------------------------

    def k_bounded(self, x: str, budget: Budget,
                  aux: str = "") -> ComplexityRecord | NoWitness:
        """k(x): the length of the first point of x's forward staircase,
        witnessed by every producer of that length."""
        s = self._staircases(x, budget, aux)
        if not s.forward:
            return NoWitness(x, aux, budget, "no producing program within budget")
        k = s.forward[0][0]
        return ComplexityRecord(x, aux, k, tuple(p for p in s.producers if len(p) == k),
                                budget, k - 1 <= budget.max_len, self.digest)

    def shortest_programs(self, x: str, budget: Budget,
                          aux: str = "") -> tuple[str, ...] | NoWitness:
        rec = self.k_bounded(x, budget, aux)
        return rec if isinstance(rec, NoWitness) else rec.witnesses

    def _excess(self, s: _Staircases, budget: Budget) -> tuple[dict[str, int], bool]:
        """Each producer p of ``s`` with its excess, so that p is
        b-incompressible at every b >= excess, and whether every k(p) is
        exhaustive.

        p is b-incompressible when no program for p is shorter than
        |p| - b.  No program in ``closed_producers(p, D)`` is shorter
        than p, so only the (budget, "") sweep's programs for p decide
        that, and nothing is run: the excess is |p| less the shortest of
        them, or 0 when there is none.  k(p) is exhaustive, as in
        ``k_bounded``, when the sweep holds a program for p or one of
        ``closed_producers(p, D)`` has at most L + 1 bits."""
        self.sweep(budget)
        index = self._sweeps[budget, ""][1]
        excess = {p: len(p) - min(map(len, index[p])) if p in index else 0
                  for p in s.producers}
        return excess, all(p in index or any(
            len(q) <= budget.max_len + 1 for q in closed_producers(p, budget.max_steps))
            for p in s.producers)

    def incompressible_programs(self, x: str, b: int, budget: Budget,
                                aux: str = "") -> IncompressibleSet | NoWitness:
        """Producers p of x that are b-incompressible (see
        :meth:`_excess`), in (length, lexicographic) order.  The sweep
        decides admission exactly when |p| <= L + b + 1; a longer p, only
        ever one of ``closed_producers(x, D)``, is admitted without a
        decision."""
        if b < 0:
            raise ValueError("significance level must be >= 0")
        s = self._staircases(x, budget, aux)
        if not s.producers:
            return self.k_bounded(x, budget, aux)
        excess, exhaustive = self._excess(s, budget)
        return IncompressibleSet(x, b, aux, tuple(p for p in excess if excess[p] <= b),
                                 exhaustive, budget)

    # -- logical depth -----------------------------------------------------------

    def _depths(self, x: str, levels, budget: Budget, variant: str,
                aux: str) -> list[DepthRecord | NoWitness]:
        """ld_b(x) for every b in ``levels``, for a variant named as
        records name it: the last point of the staircase of the programs
        eligible at b.  Reversible: x's reversible staircase up to length
        k(x) + b.  General: the forward staircase of x's b-incompressible
        producers (see :meth:`incompressible_programs`), whose nested k
        are read once for all levels."""
        if min(levels) < 0:
            raise ValueError("significance level must be >= 0")
        s = self._staircases(x, budget, aux)
        if not s.producers:
            return [self.k_bounded(x, budget, aux)] * len(levels)
        if variant == "reversible":
            k = s.forward[0][0]
            eligible = [([pt for pt in s.reversible if pt[0] <= k + b],
                         k + b <= budget.max_len) for b in levels]
            missing = "no reversible run within budget at this level"
        else:
            excess, exhaustive = self._excess(s, budget)
            eligible = [(_staircase({p: r for p, r in s.producers.items() if excess[p] <= b}),
                         exhaustive) for b in levels]
            missing = "no incompressible producer"
        return [DepthRecord(x, b, points[-1][1], points[-1][2], variant, budget, flag,
                            self.digest) if points else NoWitness(x, aux, budget, missing)
                for b, (points, flag) in zip(levels, eligible)]

    def logical_depth_general(self, x: str, b: int, budget: Budget,
                              aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, "general", aux)[0]

    def logical_depth_reversible(self, x: str, b: int, budget: Budget,
                                 aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, "reversible", aux)[0]

    def logical_depth(self, x: str, b: int, budget: Budget, variant: str,
                      aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, _variant(variant), aux)[0]

    # -- growth tables -------------------------------------------------------------

    def _growth_table(self, kind: str, variant: str, n_max: int,
                      budget: Budget, row_of) -> GrowthTable:
        """Row n is the max over |x| = n of ``row_of(x)``, a (value,
        witness program, witness b) triple, with ties going to the first
        x in lexicographic order.  The first x for which ``row_of`` gives
        None (inconclusive within budget) ends the row as inconclusive."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        rows = []
        for n in range(n_max + 1):
            best = None
            for x in _binary_strings(n):
                got = row_of(x)
                if got is None:
                    rows.append(GrowthRow(n, None, x, "", None, True))
                    break
                if best is None or got[0] > best[1][0]:
                    best = x, got
            else:
                x, (value, program, b) = best
                rows.append(GrowthRow(n, value, x, program, b, False))
        return GrowthTable(kind, variant, tuple(rows), budget, self.digest)

    def psi_table(self, n_max: int, budget: Budget, aux: str = "") -> GrowthTable:
        """Worst case over length-n strings of the shortest running time
        of a shortest program on the reversible interpreter: ld_0-rev(x),
        with no value when no shortest program's reversible run fits D."""
        def ld_0(x: str) -> tuple[int, str, None] | None:
            rec = self._depths(x, [0], budget, "reversible", aux)[0]
            return None if isinstance(rec, NoWitness) else (rec.ld, rec.witness, None)
        return self._growth_table("psi", "reversible", n_max, budget, ld_0)

    def phi_table(self, n_max: int, budget: Budget, aux: str = "") -> GrowthTable:
        """psi over forward steps: the first point of x's forward staircase."""
        return self._growth_table("phi", "general", n_max, budget, lambda x: _first(
            self._staircases(x, budget, aux).forward))

    def f_table(self, n_max: int, budget: Budget, aux: str = "",
                variant: str = "reversible") -> GrowthTable:
        """Largest one-level drop of depth: max over |x| = n, 0 <= b <= n
        of ld_b(x) - ld_(b+1)(x), ties going to the first b."""
        variant = _variant(variant)

        def drop(x: str) -> tuple[int, str, int] | None:
            lds = self._depths(x, range(len(x) + 2), budget, variant, aux)
            if any(isinstance(rec, NoWitness) for rec in lds):
                return None
            return max(((lds[b].ld - lds[b + 1].ld, lds[b].witness, b)
                        for b in range(len(x) + 1)), key=lambda t: t[0])
        return self._growth_table("f", variant, n_max, budget, drop)


def _variant(name: str) -> str:
    """The name records and tables carry for a depth variant's long or
    short name."""
    full = {"rev": "reversible", "gen": "general"}.get(name, name)
    if full not in ("reversible", "general"):
        raise ValueError(f"unknown variant {name!r}")
    return full


def _staircase(runs: dict[str, PrefixRunResult]) -> tuple[tuple[int, int, str], ...]:
    """The (length, steps, program) points of the halting runs among
    ``runs``, keyed in (length, lexicographic) order.  Length rises and
    steps strictly fall along it: a run takes a point when it is faster
    than every earlier one, replacing the point of its own length, so each
    point is the (steps, length, lexicographic) least run up to its
    length."""
    points: list[tuple[int, int, str]] = []
    for p, r in runs.items():
        if r.outcome == HALTED and (not points or r.steps < points[-1][1]):
            if points and points[-1][0] == len(p):
                points.pop()
            points.append((len(p), r.steps, p))
    return tuple(points)


def _first(points) -> tuple[int, str, None] | None:
    """A growth row's (value, program, b): a staircase's first point."""
    return (points[0][1], points[0][2], None) if points else None


def _binary_strings(n: int) -> list[str]:
    return [format(k, f"0{n}b") for k in range(2 ** n)] if n else [""]
