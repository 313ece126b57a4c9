"""Quadruple multi-tape Turing machines: model, validation, execution.

A machine works on one-way infinite tapes (cell indices 0, 1, 2, ...).
Rules come in exactly two kinds:

  * ReadWriteRule -- matches on (state, one symbol per tape), rewrites the
    scanned cells, heads do not move.
  * ShiftRule -- matches on state alone, moves each head by -1/0/+1.

Because a shift rule matches regardless of tape contents, it conflicts
with any other rule sharing its source state.  A left shift at cell 0
clamps: the head stays at 0.  Clamping is deterministic but not
injective, so machines meant to run backwards must never trigger it
(see docs/machine-format.md).

Output of a run is the maximal blank-free prefix of the designated
output tape.  Halting means no rule applies; declared halt states are a
convenience subset that must have no outgoing rules.

Rules, configurations, run results and reports are ``NamedTuple``s:
immutable values, equal when their type's fields are, which no code
compares with a bare tuple or with a record of another type.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union


class MachineError(Exception):
    """A machine is structurally unusable for the requested operation."""


# A dataclass, not a NamedTuple: ``__post_init__`` checks the blank, and a
# NamedTuple can run no code when it is built.
@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set for one tape with a designated blank."""

    symbols: frozenset[str]
    blank: str

    def __post_init__(self) -> None:
        if self.blank not in self.symbols:
            raise MachineError(f"blank {self.blank!r} not in alphabet")

    @staticmethod
    def of(*symbols: str, blank: str) -> "Alphabet":
        return Alphabet(frozenset(symbols) | {blank}, blank)


def fmt_tuple(items: tuple[str, ...]) -> str:
    """A symbol tuple as machine files write it: comma-joined, or "-"."""
    return ",".join(items) if items else "-"


def fmt_moves(moves: tuple[int, ...]) -> str:
    """A shift tuple as machine files write it: signed, or "-"."""
    return ",".join(f"{m:+d}" if m else "0" for m in moves) if moves else "-"


class ReadWriteRule(NamedTuple):
    from_state: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    to_state: str

    def describe(self) -> str:
        """The rule's machine-file line without its ``rule`` keyword."""
        return (f"{self.from_state} {fmt_tuple(self.reads)} -> "
                f"{fmt_tuple(self.writes)} {self.to_state}")


class ShiftRule(NamedTuple):
    from_state: str
    moves: tuple[int, ...]
    to_state: str

    def describe(self) -> str:
        """The rule's machine-file line without its ``rule`` keyword."""
        return f"{self.from_state} / -> {fmt_moves(self.moves)} {self.to_state}"


Rule = Union[ReadWriteRule, ShiftRule]


# A dataclass, not a NamedTuple: the compiled forms and the hash below are
# cached in the instance ``__dict__``, which a NamedTuple does not have.
@dataclass(frozen=True)
class Machine:
    """Immutable quadruple machine description.

    ``output_tape`` is 1-based; by convention the last tape unless stated
    otherwise (Bennett machines designate tape 3, prefix machines tape 4).
    """

    name: str
    alphabets: tuple[Alphabet, ...]
    states: frozenset[str]
    start_state: str
    halt_states: frozenset[str]
    rules: tuple[Rule, ...]
    output_tape: int = 0  # 0 means "last tape"

    @property
    def tape_count(self) -> int:
        return len(self.alphabets)

    @property
    def output_index(self) -> int:
        return (self.output_tape or self.tape_count) - 1

    def blanks(self) -> tuple[str, ...]:
        return tuple(a.blank for a in self.alphabets)

    # Compiled forms and the hash, built on first use and kept on the
    # object: the fields never change, and a lookup then hashes no rule
    # list, neither in a compiled table nor as a cache key.
    _compiled = cached_property(lambda self: _compile(self))
    _step_lookup = cached_property(lambda self: _rule_lookup(self))
    _hash = cached_property(
        lambda self: hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash


class RuleConflict(NamedTuple):
    first: int
    second: int
    reason: str


class ValidationReport(NamedTuple):
    machine: str
    errors: tuple[str, ...]
    conflicts: tuple[RuleConflict, ...]
    unreachable_states: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.conflicts

    @property
    def problems(self) -> str:
        """Why the machine is invalid, in one line: its structural errors,
        or else its conflicts."""
        return "; ".join(self.errors or [c.reason for c in self.conflicts])


def rule_states(rules, named: Iterable[str] = ()
                ) -> tuple[frozenset[str], frozenset[str]]:
    """The states in ``named`` or on either side of a rule in ``rules``,
    and those of them that no rule leaves."""
    sources = {r.from_state for r in rules}
    states = frozenset({*named, *sources, *(r.to_state for r in rules)})
    return states, states - sources


def _structural_errors(m: Machine) -> list[str]:
    errors: list[str] = []
    if m.tape_count < 1:
        errors.append("machine has no tapes")
        return errors
    if m.start_state not in m.states:
        errors.append(f"start state {m.start_state!r} not in states")
    for h in sorted(m.halt_states):
        if h not in m.states:
            errors.append(f"halt state {h!r} not in states")
    if not 0 <= m.output_tape <= m.tape_count:
        errors.append(f"output tape {m.output_tape} out of range")
    for i, rule in enumerate(m.rules):
        for error in _rule_errors(m, rule):
            errors.append(f"rule {i} ({rule.describe()}): {error}")
    return errors


def _rule_errors(m: Machine, rule: Rule) -> Iterator[str]:
    """What is wrong with one rule of ``m``, without naming the rule."""
    for s in (rule.from_state, rule.to_state):
        if s not in m.states:
            yield f"unknown state {s!r}"
    if rule.from_state in m.halt_states:
        yield "source state is a halt state"
    if isinstance(rule, ReadWriteRule):
        if len(rule.reads) != m.tape_count or len(rule.writes) != m.tape_count:
            yield "tuple arity != tape count"
            return
        for t, (r, w) in enumerate(zip(rule.reads, rule.writes)):
            if r not in m.alphabets[t].symbols:
                yield f"symbol {r!r} not in tape {t + 1} alphabet"
            if w not in m.alphabets[t].symbols:
                yield f"symbol {w!r} not in tape {t + 1} alphabet"
    else:
        if len(rule.moves) != m.tape_count:
            yield "shift arity != tape count"
            return
        for d in rule.moves:
            if d not in (-1, 0, 1):
                yield f"shift {d} not in -1/0/+1"


def _reachable_states(m: Machine) -> set[str]:
    edges: dict[str, set[str]] = {}
    for rule in m.rules:
        edges.setdefault(rule.from_state, set()).add(rule.to_state)
    seen = {m.start_state}
    frontier = [m.start_state]
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _overlap_conflicts(rules: tuple[Rule, ...],
                       key: Callable[[Rule], str],
                       tuples: Callable[[Rule], tuple[str, ...]],
                       what: str) -> list[RuleConflict]:
    """Conflicting rule pairs, grouped by state so valid machines cost O(n).

    A shift rule in a group conflicts with every other member; ReadWrite
    rules conflict when their symbol tuples coincide.  The tests check
    this against an all-pairs scan with the naive domain and range
    overlap predicates in ``tests/oracles.py``.
    """
    groups: dict[str, list[int]] = {}
    for i, r in enumerate(rules):
        groups.setdefault(key(r), []).append(i)
    conflicts: list[RuleConflict] = []
    for state, members in groups.items():
        if len(members) < 2:
            continue
        shifts = [i for i in members if isinstance(rules[i], ShiftRule)]
        pairs: set[tuple[int, int]] = set()
        for j in shifts:
            for i in members:
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
        for a, b in pairs:
            conflicts.append(RuleConflict(
                a, b, f"rules {a} and {b} {what} state {state!r}"))
        by_tuple: dict[tuple[str, ...], list[int]] = {}
        for i in members:
            if isinstance(rules[i], ReadWriteRule):
                by_tuple.setdefault(tuples(rules[i]), []).append(i)
        for group in by_tuple.values():
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    conflicts.append(RuleConflict(
                        group[x], group[y],
                        f"rules {group[x]} and {group[y]} {what} state {state!r}"))
    conflicts.sort(key=lambda c: (c.first, c.second))
    return conflicts


def domain_conflicts(rules: tuple[Rule, ...]) -> list[RuleConflict]:
    return _overlap_conflicts(
        rules, lambda r: r.from_state,
        lambda r: r.reads, "overlap in")


def range_conflicts(rules: tuple[Rule, ...]) -> list[RuleConflict]:
    return _overlap_conflicts(
        rules, lambda r: r.to_state,
        lambda r: r.writes, "reach indistinguishably")


def validate_machine(m: Machine) -> ValidationReport:
    """Full structural check plus the domain-overlap scan.

    The conflict list is empty iff the machine is forward deterministic.
    Unreachable states are informational and never fail validation.
    """
    errors = _structural_errors(m)
    conflicts = domain_conflicts(m.rules) if not errors else []
    unreachable = tuple(sorted(m.states - _reachable_states(m)))
    return ValidationReport(m.name, tuple(errors), tuple(conflicts), unreachable)


def check_valid(m: Machine) -> None:
    """Raise MachineError naming why ``validate_machine`` rejects ``m``."""
    report = validate_machine(m)
    if not report.ok:
        raise MachineError(f"machine {m.name!r} invalid: {report.problems}")


# ---------------------------------------------------------------------------
# Execution


def _strip(cells: tuple[str, ...], blank: str) -> tuple[str, ...]:
    end = len(cells)
    while end > 0 and cells[end - 1] == blank:
        end -= 1
    return cells[:end]


class Configuration(NamedTuple):
    """Machine snapshot.  Tapes are stored with trailing blanks stripped so
    that equal configurations compare equal."""

    state: str
    tapes: tuple[tuple[str, ...], ...]
    heads: tuple[int, ...]
    steps: int

    @staticmethod
    def make(state: str,
             tapes: tuple[tuple[str, ...], ...],
             heads: tuple[int, ...],
             steps: int,
             blanks: tuple[str, ...]) -> "Configuration":
        stripped = tuple(_strip(t, b) for t, b in zip(tapes, blanks))
        return Configuration(state, stripped, heads, steps)


def initial_configuration(m: Machine, input_symbols: str | tuple[str, ...]) -> Configuration:
    """Start state, input on tape 1, all other tapes blank, heads at 0."""
    symbols = tuple(input_symbols)
    for s in symbols:
        if s not in m.alphabets[0].symbols:
            raise MachineError(f"input symbol {s!r} not in tape 1 alphabet")
    tapes = (symbols,) + tuple(() for _ in range(m.tape_count - 1))
    return Configuration.make(m.start_state, tapes, (0,) * m.tape_count, 0, m.blanks())


class _ExecTable(NamedTuple):
    """Each machine compiled once into the form :func:`execute` steps.

    Rules are sparse: a ReadWrite entry lists only the cells its write
    changes, as (tape, symbol) pairs, and a shift entry only the heads
    it moves, as (tape, delta) pairs; equal entries are shared.  The
    loop keeps its tapes padded, every head on a cell (see
    :func:`execute`), so it reads and writes without bounds checks and
    hands its tapes back with trailing blanks.

    A ReadWrite entry's third field marks a scan loop: an entry of
    state S whose write changes at most tape i and whose successor T
    is a shift state moving head i alone, by d, back to S.  It holds
    (i, d, cells), where ``cells`` maps the symbol under head i to the
    symbol written, for every entry of S through the same T with the
    same reads on the other tapes (one shared dict), so :func:`execute`
    can step cell after cell without returning to its dispatch.  The
    field is None on every other entry.

    A ReadWrite entry's fourth field fuses it with the shift it always
    leads to: on an entry that is no scan loop and whose successor is a
    shift state outside the spins, it is that state's entry in ``live``,
    (moves, to_state); it is None on every other entry.
    """

    # state -> {read_tuple: (changes, to_state, scan or None, then or None)}
    rw: dict[str, dict[tuple[str, ...], tuple]]
    # state -> (moves, to_state)
    shift: dict[str, tuple]
    # Spin states, whose chain of shift-only successors closes a cycle: a
    # run entering one never reads, writes or halts again.  Bounded runs
    # step ``live``, the shift table without them (see :func:`execute`).
    spins: frozenset[str]
    live: dict[str, tuple]
    # Why tape 1 cannot be a bounded input (a rule writes it or shifts it
    # left), or None.
    unbounded_input: Optional[str]
    # Each tape's blank, padded onto a tape a head moves past.
    blanks: tuple[str, ...]


def _compile(m: Machine) -> _ExecTable:
    rw: dict[str, dict[tuple[str, ...], tuple]] = {}
    shift: dict[str, tuple] = {}
    shared: dict[tuple, tuple] = {}
    unbounded_input = None
    for rule in m.rules:
        state = rule.from_state
        if isinstance(rule, ShiftRule):
            if state in shift or state in rw:
                raise _nondeterministic(m, state)
            moves = tuple((i, d) for i, d in enumerate(rule.moves) if d)
            if (0, -1) in moves and unbounded_input is None:
                unbounded_input = "program tape is one-way: no left shifts"
            moves = shared.setdefault(moves, moves)
            shift[state] = shared.setdefault((moves, rule.to_state),
                                             (moves, rule.to_state))
        else:
            table = rw.setdefault(state, {})
            if state in shift or rule.reads in table:
                raise _nondeterministic(m, state)
            changes = tuple((i, w) for i, (r, w)
                            in enumerate(zip(rule.reads, rule.writes)) if r != w)
            if changes and changes[0][0] == 0 and unbounded_input is None:
                unbounded_input = "program tape is read-only"
            table[rule.reads] = (shared.setdefault(changes, changes), rule.to_state)
    spins: set[str] = set()
    seen: set[str] = set()
    for state in shift:
        walk = []  # shift-only successors not walked before
        while state not in seen and state in shift:
            seen.add(state)
            walk.append(state)
            state = shift[state][1]
        if state in walk or state in spins:
            spins.update(walk)
    live = {s: e for s, e in shift.items() if s not in spins}
    for state, table in rw.items():
        scans: dict[tuple, tuple] = {}  # (T, other reads) -> (i, d, cells)
        for reads, (changes, to) in table.items():
            scan = None
            moves, back = shift.get(to, ((), None))
            if back == state and len(moves) == 1:
                i, d = moves[0]
                if all(t == i for t, _ in changes):
                    scan = scans.setdefault((to, reads[:i] + reads[i + 1:]),
                                            (i, d, {}))
                    scan[2][reads[i]] = changes[0][1] if changes else reads[i]
            entry = (changes, to, scan, None if scan else live.get(to))
            table[reads] = entry if scan else shared.setdefault(entry, entry)
    return _ExecTable(rw, shift, frozenset(spins), live, unbounded_input,
                      m.blanks())


def _nondeterministic(m: Machine, state: str) -> MachineError:
    return MachineError(
        f"machine {m.name!r} not forward deterministic at state {state!r}")


def _rule_lookup(m: Machine) -> dict[str, Union[Rule, dict[tuple[str, ...], Rule]]]:
    """state -> its shift rule, or {read_tuple: ReadWrite rule}.

    Built straight from ``m.rules``, on the first :func:`step`, so that
    stepping stays a reference independent of :func:`execute`'s table.
    """
    lookup: dict[str, Union[Rule, dict[tuple[str, ...], Rule]]] = {}
    for rule in m.rules:
        state = rule.from_state
        if isinstance(rule, ShiftRule):
            if state in lookup:
                raise _nondeterministic(m, state)
            lookup[state] = rule
        else:
            table = lookup.setdefault(state, {})
            if not isinstance(table, dict) or rule.reads in table:
                raise _nondeterministic(m, state)
            table[rule.reads] = rule
    return lookup


def _applicable_rule(m: Machine, c: Configuration) -> Optional[Rule]:
    """The unique rule matching ``c``, or None when the machine halts."""
    entry = m._step_lookup.get(c.state)
    if isinstance(entry, dict):
        return entry.get(tuple(t[h] if h < len(t) else b
                               for t, h, b in zip(c.tapes, c.heads, m.blanks())))
    return entry


def step(m: Machine, c: Configuration) -> Optional[Configuration]:
    """Apply the unique matching rule, or return None when the machine halts."""
    rule = _applicable_rule(m, c)
    if rule is None:
        return None
    if isinstance(rule, ShiftRule):
        heads = tuple(max(0, h + d) for h, d in zip(c.heads, rule.moves))
        return Configuration(rule.to_state, c.tapes, heads, c.steps + 1)
    blanks = m.blanks()
    new_tapes = []
    for t, h, w, b in zip(c.tapes, c.heads, rule.writes, blanks):
        if h < len(t):
            if t[h] == w:
                new_tapes.append(t)
            else:
                new_tapes.append(t[:h] + (w,) + t[h + 1:])
        elif w == b:
            new_tapes.append(t)
        else:
            new_tapes.append(t + (b,) * (h - len(t)) + (w,))
    tapes = tuple(_strip(t, b) for t, b in zip(new_tapes, blanks))
    return Configuration(rule.to_state, tapes, c.heads, c.steps + 1)


HALTED = "halted"
BUDGET_EXCEEDED = "budget-exceeded"
TAPE_EXHAUSTED = "tape-exhausted"


class RunResult(NamedTuple):
    outcome: str
    final: Configuration
    steps: int
    output: str


def blank_free_prefix(tape, blank: str) -> str:
    """The cells of ``tape`` before its first blank, joined."""
    end = tape.index(blank) if blank in tape else len(tape)
    return "".join(tape[:end])


def output_of(m: Machine, c: Configuration) -> str:
    """Maximal blank-free prefix of the designated output tape."""
    return blank_free_prefix(c.tapes[m.output_index],
                             m.alphabets[m.output_index].blank)


def execute(m: Machine, state: str, tapes: list[list[str]], heads: list[int],
            budget: int, bounded: bool = False) -> tuple[str, str, int, int]:
    """Step ``m`` from ``state`` for at most ``budget`` steps, updating
    ``tapes`` and ``heads`` in place; returns (outcome, state, steps,
    scanned).

    The one stepping loop behind :func:`run_from` and the prefix runs.
    Halting is checked before the budget, so a run that halts exactly at
    the budget counts as Halted.  A left shift at cell 0 clamps.  Tapes
    are padded: on entry each is extended with blanks until its head is
    on a cell, and a shift onto a tape's end appends one blank, so the
    caller gets its tapes back with trailing blanks.  With ``bounded``,
    tape 1 is a finite prefix of an unbounded input and must be read-only
    and one-way: a ReadWrite state whose tape-1 head is at or past the
    prefix's end ends the run TAPE_EXHAUSTED, before the rule lookup and
    the budget check, and ``scanned`` is one past the last tape-1 cell
    read (0 when not bounded).  The result is identical to iterating
    :func:`step`, except that a bounded run entering a spin state ends
    BUDGET_EXCEEDED at once with ``budget`` steps, its heads and state
    left where the spin began (prefix runs discard them).

    A ReadWrite entry whose third field marks a scan loop (see
    :class:`_ExecTable`) runs, with at least 2 steps of budget left, as
    one inner loop on its tape: per cell it writes, moves (clamping at 0,
    appending a blank past the end) and counts 2 steps, for at most
    half the remaining budget and, on a bounded tape 1, up to the end
    of the prefix.  It stops in the ReadWrite state, where the loop
    above goes on, so the result stays that of iterated :func:`step`.

    Any other ReadWrite entry whose fourth field is set writes, counts
    its step and, if budget is left, applies its successor's shift in the
    same pass and counts that step too; with no budget left it stops in
    the shift state, as honest stepping does.  The loop keeps ``under``,
    the symbols under the heads, from entry on: every write, move and
    scan-loop exit updates it, so a rule lookup reads no tape.
    """
    if budget < 0:
        raise MachineError("budget must be >= 0")
    tables = m._compiled
    if bounded and tables.unbounded_input:
        raise MachineError(tables.unbounded_input)
    rw = tables.rw
    shift = tables.live if bounded else tables.shift
    blanks = tables.blanks
    limit = len(tapes[0])
    for t, h, b in zip(tapes, heads, blanks):
        if h >= len(t):
            t.extend([b] * (h + 1 - len(t)))
    under = list(map(list.__getitem__, tapes, heads))
    scanned = 0
    taken = 0
    while True:
        table = rw.get(state)
        if table is not None:
            if bounded:
                h = heads[0]
                if h >= limit:
                    outcome = TAPE_EXHAUSTED
                    break
                scanned = h + 1
            hit = table.get(tuple(under))
            if hit is None:
                outcome = HALTED
                break
            if taken >= budget:
                outcome = BUDGET_EXCEEDED
                break
            changes, to, scan, then = hit
            if scan is not None and budget - taken > 1:
                # A scan loop: two steps a cell, ending back in ``state``.
                i, d, cells = scan
                tape = tapes[i]
                h = heads[i]
                n = left = (budget - taken) // 2
                if bounded and not i:  # stop where the prefix ends
                    n = left = min(n, limit - h)
                while left:
                    w = cells.get(tape[h])
                    if w is None:
                        break
                    tape[h] = w
                    h += d
                    if h < 0:
                        h = 0
                    elif h == len(tape):
                        tape.append(blanks[i])
                    left -= 1
                heads[i] = h
                under[i] = tape[h]
                if bounded and not i:  # one past the last program cell read
                    scanned = h
                taken += 2 * (n - left)
                continue
            for i, w in changes:
                tapes[i][heads[i]] = under[i] = w
            taken += 1
            if then is None or taken >= budget:
                state = to
                continue
            moves, state = then  # the shift ``to`` always leads to
        else:
            hit = shift.get(state)
            if hit is None:
                if state in tables.spins:  # only bounded runs get here
                    outcome, taken = BUDGET_EXCEEDED, budget
                else:
                    outcome = HALTED
                break
            if taken >= budget:
                outcome = BUDGET_EXCEEDED
                break
            moves, state = hit
        for i, d in moves:
            tape = tapes[i]
            h = heads[i] + d
            if h < 0:
                h = 0
            elif h == len(tape):
                tape.append(blanks[i])
            heads[i] = h
            under[i] = tape[h]
        taken += 1
    return outcome, state, taken, scanned


def run_from(m: Machine, c: Configuration, budget: int) -> RunResult:
    """Run until halted or ``budget`` further steps were applied
    (semantics: :func:`execute`)."""
    if {len(c.tapes), len(c.heads)} != {m.tape_count} or min(c.heads, default=0) < 0:
        raise MachineError(f"configuration with {len(c.tapes)} tapes and heads "
                           f"{c.heads} does not fit {m.tape_count}-tape {m.name!r}")
    if c.state not in m.states:
        raise MachineError(f"state {c.state!r} is not a state of {m.name!r}")
    for t, (a, cells) in enumerate(zip(m.alphabets, c.tapes), start=1):
        if not a.symbols.issuperset(cells):
            raise MachineError(f"tape {t} cells {sorted(set(cells) - a.symbols)} "
                               f"are not in its alphabet")
    tapes = [list(t) for t in c.tapes]
    heads = list(c.heads)
    outcome, state, taken, _ = execute(m, c.state, tapes, heads, budget)
    final = Configuration.make(
        state, tuple(tuple(t) for t in tapes), tuple(heads), c.steps + taken,
        m._compiled.blanks)
    return RunResult(outcome, final, taken, output_of(m, final))


def run(m: Machine, input_symbols: str | tuple[str, ...], budget: int) -> RunResult:
    return run_from(m, initial_configuration(m, input_symbols), budget)


def trace_run(m: Machine, input_symbols: str | tuple[str, ...],
              budget: int) -> Iterator[Configuration]:
    """Yield the initial configuration and every successor up to the budget."""
    if budget < 0:
        raise MachineError("budget must be >= 0")
    c = initial_configuration(m, input_symbols)
    yield c
    for _ in range(budget):
        nxt = step(m, c)
        if nxt is None:
            return
        c = nxt
        yield c


# ---------------------------------------------------------------------------
# Quintuple (combined write-and-shift) machines


class QuintupleRule(NamedTuple):
    from_state: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    moves: tuple[int, ...]
    to_state: str


class QuintupleMachine(NamedTuple):
    name: str
    alphabets: tuple[Alphabet, ...]
    states: frozenset[str]
    start_state: str
    halt_states: frozenset[str]
    rules: tuple[QuintupleRule, ...]
    output_tape: int = 0

    @property
    def tape_count(self) -> int:
        return len(self.alphabets)


def normalize_to_quadruples(m5: QuintupleMachine) -> Machine:
    """Split each quintuple into a ReadWrite rule plus a Shift rule.

    Every quintuple gets one fresh intermediate state, named after its
    position in the rule list so the construction is deterministic.  Step
    counts at most double.
    """
    rules: list[Rule] = []
    states = set(m5.states)
    for i, r in enumerate(m5.rules):
        mid = f"{r.from_state}@{i}"
        while mid in states:
            mid += "'"
        states.add(mid)
        rules.append(ReadWriteRule(r.from_state, r.reads, r.writes, mid))
        rules.append(ShiftRule(mid, r.moves, r.to_state))
    return Machine(
        name=m5.name,
        alphabets=m5.alphabets,
        states=frozenset(states),
        start_state=m5.start_state,
        halt_states=m5.halt_states,
        rules=tuple(rules),
        output_tape=m5.output_tape,
    )
