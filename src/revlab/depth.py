"""Budget-bounded complexity and logical depth by exhaustive enumeration.

Every value here is relative to an explicit Budget(max_len L, max_steps
D) and exact only under the assumption that a program not halting within
D steps never halts.  The machinery:

  * a persistent RunLedger caching interpreter runs keyed by
    (universal digest, bits, aux, D): an append-only JSONL file holding
    only the runs actually executed;
  * one cache entry per (L, D, aux): the sweep, the tree of machine runs
    rooted at the code <i> of every non-diverger machine i with
    |<i>| <= min(L, D) other than the literal printer, grown by running
    both children of every tape-exhausted run, each for up to D steps, down
    to length L, and stored with its exactly-consumed halting runs
    grouped by output.  The index layer (prefixes of codes, malformed
    pairs, indices naming the diverger) is fixed by the code alone, so
    it is derived, never run, stored or persisted.  A root starts its
    machine right after <i>, and a child resumes its parent's paused run
    with one more program bit, so no step of a shared prefix is
    simulated twice; a child of a ledger hit resumes the run its parent
    resumed, which paused on a shorter prefix.  Paused runs live only
    until both children have run and are never persisted.  Every query
    reads its producers from that index; a string extending a halted or
    budget-exceeded run is never a program and is not stored;
  * the literal printer is never swept: its only program for x,
    ``print_program(x)``, is seeded as a candidate for every x, within L
    or beyond it, and run through the ledger.  This keeps k_upper below
    the print bound whenever the step budget allows the print run at
    all.

Candidate sets respect exact consumption: a bit string counts as a
program for x only when the run halts having scanned precisely that
string.  Tie-breaks are (steps, length, lexicographic) everywhere, so
results are independent of enumeration order.

The general-variant depth uses permissive incompressibility: a producer
p qualifies at significance b when |p| <= k_upper(p) + b with k_upper
from this same budget, which can only admit extra programs (k_upper
bounds the true complexity from above) and therefore biases depth
downward; records carry flags for nested non-exhaustive results.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .prefixvm import (
    BUDGET_EXCEEDED,
    HALTED,
    PRINT_INDEX,
    TAPE_EXHAUSTED,
    PausedRun,
    PrefixRunResult,
    encode_index,
    machine_starts,
    print_program,
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
    persisted, and the sweep's table holds nothing but machine runs,
    rooted at the code of each machine but the diverger and the literal
    printer: the index layer is derived, never run.  A resumed run is
    stored like any other; its paused run is not, so the children of a
    hit resume the paused run the hit was asked with.  Lines of
    index-layer and printer-subtree runs, which older sweeps stored,
    still load; the sweep just never asks for them.  Every line is
    written from one template, ``_LINE``, and read back through its
    pattern, ``_RECORD``.
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


# The code of the literal printer, whose one program per x is the seed
# _producers runs: the sweep never grows its subtree.
_PRINTER = encode_index(PRINT_INDEX)


def check_binary(x: str, what: str = "string") -> None:
    if x.strip("01"):
        raise ValueError(f"{what} must be binary, got {x!r}")


def _exact(bits: str, r: PrefixRunResult) -> bool:
    """A halting run that consumed exactly its bit string: a program."""
    return r.outcome == HALTED and r.program == bits


@dataclass
class DepthLab:
    """Shared sweep state for all depth-lab operations.

    ``_sweeps`` holds one entry per (budget, aux): the sweep table and
    its exact halters grouped by output.  Every query reads that entry
    and runs nothing but literal-printer seeds through the ledger, the
    only source of printer programs.
    """

    ledger: RunLedger = field(default_factory=RunLedger)
    _sweeps: dict = field(default_factory=dict, repr=False)

    @property
    def digest(self) -> str:
        return self.ledger.digest

    # -- sweeps ------------------------------------------------------------

    def sweep(self, budget: Budget, aux: str = "") -> dict[str, PrefixRunResult]:
        """The tree of machine runs over bit strings of length <= L.

        It is rooted at the code <i> of every non-diverger machine i with
        |<i>| <= min(L, D) (:func:`prefixvm.machine_starts`) except the
        literal printer, whose programs ``_producers`` seeds; the index
        layer around those codes is derived, never run.  Below each root
        the table holds, length by length, the two children of every
        tape-exhausted entry, each run through the ledger for <= D steps.
        A string extending a run that halted or exceeded the budget runs
        identically (the machine never looks at the extension) and is
        never a program, so it is not stored.  A root or child missing
        from the ledger resumes its parent's paused run (a root's parent
        is its machine about to start; a ledger hit passes on the run it
        was given), so the result is the from-scratch run's and nothing
        is decoded.  Each paused run is dropped once both children have
        run.  The table is in canonical (length, lexicographic) order,
        and cached with its exact halters grouped by output, the index
        ``_producers`` reads.  A non-binary aux raises ValueError before
        anything runs.
        """
        if (budget, aux) not in self._sweeps:
            check_binary(aux, "aux")
            roots = [root for root in machine_starts(min(budget.max_len, budget.max_steps),
                                                     aux) if root[0] != _PRINTER]
            table = {}
            layer: list = []  # (bits, its parent's paused run), one length
            for n in range(budget.max_len + 1):
                layer = sorted(layer + [root for root in roots if len(root[0]) == n],
                               key=itemgetter(0))
                grown = []
                for bits, parent in layer:
                    r, paused = self.ledger.extend(bits, aux, budget.max_steps, parent)
                    table[bits] = r
                    if r.outcome == TAPE_EXHAUSTED and n < budget.max_len:
                        grown += ((bits + "0", paused), (bits + "1", paused))
                layer = grown
            by_output: dict[str, dict[str, PrefixRunResult]] = {}
            for bits, r in table.items():
                if _exact(bits, r):
                    by_output.setdefault(r.output, {})[bits] = r
            self._sweeps[budget, aux] = table, by_output
        return self._sweeps[budget, aux][0]

    def exact_halters(self, budget: Budget, aux: str = "") -> dict[str, PrefixRunResult]:
        """Halting runs of the sweep that consumed exactly their bit
        string: every program of length <= L except the printer's."""
        return {bits: r for bits, r in self.sweep(budget, aux).items()
                if _exact(bits, r)}

    # -- producers ----------------------------------------------------------

    def _producers(self, x: str, budget: Budget, aux: str) -> dict[str, PrefixRunResult]:
        """Programs whose run halts with output x: the sweep's exact
        halters for x, and the literal printer's one program for x, which
        the sweep never holds, run through the ledger at any length.  x
        and aux are checked before anything runs."""
        check_binary(x)
        self.sweep(budget, aux)
        out = dict(self._sweeps[budget, aux][1].get(x, {}))
        seed = print_program(x)
        r = self.ledger.run(seed, aux, budget.max_steps)
        if _exact(seed, r) and r.output == x:
            out[seed] = r
        return out

    # -- complexity -----------------------------------------------------------

    def _k_record(self, x: str, budget: Budget, aux: str,
                  producers: dict[str, PrefixRunResult]) -> ComplexityRecord | NoWitness:
        """k(x) from the producers of x; NoWitness when there are none."""
        if not producers:
            return NoWitness(x, aux, budget, "no producing program within budget")
        k_upper = min(len(p) for p in producers)
        witnesses = tuple(sorted(p for p in producers if len(p) == k_upper))
        exhaustive = k_upper - 1 <= budget.max_len
        return ComplexityRecord(x, aux, k_upper, witnesses, budget,
                                exhaustive, self.digest)

    def k_bounded(self, x: str, budget: Budget,
                  aux: str = "") -> ComplexityRecord | NoWitness:
        return self._k_record(x, budget, aux, self._producers(x, budget, aux))

    def shortest_programs(self, x: str, budget: Budget,
                          aux: str = "") -> tuple[str, ...] | NoWitness:
        rec = self.k_bounded(x, budget, aux)
        if isinstance(rec, NoWitness):
            return rec
        return rec.witnesses

    def _nested(self, producers: dict[str, PrefixRunResult],
                budget: Budget) -> tuple[list[tuple[str, Optional[int]]], bool]:
        """Producers in (length, lexicographic) order, each with its nested
        k_upper (same budget, empty aux; None for a NoWitness), and whether
        every nested record is exhaustive."""
        nested = []
        exhaustive = True
        for p in sorted(producers, key=lambda q: (len(q), q)):
            rec = self.k_bounded(p, budget, aux="")
            known = not isinstance(rec, NoWitness)
            exhaustive = exhaustive and known and rec.exhaustive
            nested.append((p, rec.k_upper if known else None))
        return nested, exhaustive

    def incompressible_programs(self, x: str, b: int, budget: Budget,
                                aux: str = "") -> IncompressibleSet | NoWitness:
        """Producers p of x with |p| <= k_upper(p) + b.

        Nested complexities use the same budget and empty auxiliary; a
        nested NoWitness admits the program (permissive direction) and
        clears the nested_exhaustive flag.
        """
        if b < 0:
            raise ValueError("significance level must be >= 0")
        producers = self._producers(x, budget, aux)
        if not producers:
            return self._k_record(x, budget, aux, producers)
        nested, exhaustive = self._nested(producers, budget)
        return IncompressibleSet(x, b, aux, _kept(nested, b), exhaustive, budget)

    # -- logical depth -----------------------------------------------------------

    def _depths(self, x: str, levels, budget: Budget, variant: str,
                aux: str) -> list[DepthRecord | NoWitness]:
        """ld_b(x) for every b in ``levels``.  The work that does not
        depend on b is done once: the producers of x, k(x) and their
        reversible runs, or each producer's nested complexity.

        Reversible: the least reversible-interpreter step count over
        programs p with pair output (p, x) and |p| <= k_upper(x) + b.
        General: the least step count over the b-incompressible
        producers (see :meth:`incompressible_programs`).  Either way the
        witness at b is the (steps, length, lexicographic) least program
        eligible at b.
        """
        reversible = variant in ("reversible", "rev")
        if not reversible and variant not in ("general", "gen"):
            raise ValueError(f"unknown variant {variant!r}")
        if min(levels) < 0:
            raise ValueError("significance level must be >= 0")
        producers = self._producers(x, budget, aux)
        if not producers:
            return [self._k_record(x, budget, aux, producers)] * len(levels)
        if reversible:
            kx = self._k_record(x, budget, aux, producers)
            runs = _reversible_runs(producers, budget)
            eligible = [([p for p in runs if len(p) <= kx.k_upper + b],
                         kx.exhaustive and kx.k_upper + b <= budget.max_len)
                        for b in levels]
            name, missing = "reversible", "no reversible run within budget at this level"
        else:
            runs = producers
            nested, exhaustive = self._nested(producers, budget)
            eligible = [(_kept(nested, b), exhaustive) for b in levels]
            name, missing = "general", "no incompressible producer"
        out: list[DepthRecord | NoWitness] = []
        for b, (candidates, exhaustive) in zip(levels, eligible):
            if not candidates:
                out.append(NoWitness(x, aux, budget, missing))
                continue
            best = min(candidates, key=lambda p: (runs[p].steps, len(p), p))
            out.append(DepthRecord(x, b, runs[best].steps, best, name,
                                   budget, exhaustive, self.digest))
        return out

    def logical_depth_general(self, x: str, b: int, budget: Budget,
                              aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, "general", aux)[0]

    def logical_depth_reversible(self, x: str, b: int, budget: Budget,
                                 aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, "reversible", aux)[0]

    def logical_depth(self, x: str, b: int, budget: Budget, variant: str,
                      aux: str = "") -> DepthRecord | NoWitness:
        return self._depths(x, [b], budget, variant, aux)[0]

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
        """Worst-case over length-n strings of the shortest program's
        reversible running time."""
        return self._growth_table(
            "psi", "reversible", n_max, budget,
            lambda x: _shortest(_reversible_runs(self._producers(x, budget, aux),
                                                 budget)))

    def phi_table(self, n_max: int, budget: Budget, aux: str = "") -> GrowthTable:
        return self._growth_table(
            "phi", "general", n_max, budget,
            lambda x: _shortest(self._producers(x, budget, aux)))

    def f_table(self, n_max: int, budget: Budget, aux: str = "",
                variant: str = "reversible") -> GrowthTable:
        """Largest one-level drop of depth: max over |x| = n, 0 <= b <= n
        of ld_b(x) - ld_(b+1)(x), ties going to the first b."""
        def drop(x: str) -> tuple[int, str, int] | None:
            lds = self._depths(x, range(len(x) + 2), budget, variant, aux)
            if any(isinstance(rec, NoWitness) for rec in lds):
                return None
            return max(((lds[b].ld - lds[b + 1].ld, lds[b].witness, b)
                        for b in range(len(x) + 1)), key=lambda t: t[0])
        return self._growth_table("f", variant, n_max, budget, drop)


def _reversible_runs(producers: dict[str, PrefixRunResult],
                     budget: Budget) -> dict[str, PrefixRunResult]:
    """Producers whose reversible run halts within D, mapped to that run;
    its pair is (p, x) because every producer is exact."""
    runs = {p: reversible_view(r, budget.max_steps) for p, r in producers.items()}
    return {p: r for p, r in runs.items() if r.outcome == HALTED}


def _kept(nested: list[tuple[str, Optional[int]]], b: int) -> tuple[str, ...]:
    """The b-incompressible producers of a :meth:`DepthLab._nested` list."""
    return tuple(p for p, k in nested if k is None or len(p) <= k + b)


def _shortest(runs: dict[str, PrefixRunResult]) -> tuple[int, str, None] | None:
    """Steps and program of the canonical shortest run, or None if there is none."""
    star = min(runs, key=lambda p: (len(p), p), default=None)
    return None if star is None else (runs[star].steps, star, None)


def _binary_strings(n: int) -> list[str]:
    return [format(k, f"0{n}b") for k in range(2 ** n)] if n else [""]
