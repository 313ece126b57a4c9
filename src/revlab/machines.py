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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union


class MachineError(Exception):
    """A machine is structurally unusable for the requested operation."""


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


@dataclass(frozen=True)
class ReadWriteRule:
    from_state: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    to_state: str

    def describe(self) -> str:
        return (f"{self.from_state} {','.join(self.reads)} -> "
                f"{','.join(self.writes)} {self.to_state}")


@dataclass(frozen=True)
class ShiftRule:
    from_state: str
    moves: tuple[int, ...]
    to_state: str

    def describe(self) -> str:
        moves = ",".join(f"{m:+d}" if m else "0" for m in self.moves)
        return f"{self.from_state} / -> {moves} {self.to_state}"


Rule = Union[ReadWriteRule, ShiftRule]


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


def domains_overlap(a: Rule, b: Rule) -> bool:
    """True when the two rules could both apply in some configuration."""
    if a.from_state != b.from_state:
        return False
    if isinstance(a, ShiftRule) or isinstance(b, ShiftRule):
        return True
    return a.reads == b.reads


def ranges_overlap(a: Rule, b: Rule) -> bool:
    """True when the two rules could both have produced some configuration."""
    if a.to_state != b.to_state:
        return False
    if isinstance(a, ShiftRule) or isinstance(b, ShiftRule):
        return True
    return a.writes == b.writes


@dataclass(frozen=True)
class RuleConflict:
    first: int
    second: int
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    machine: str
    errors: tuple[str, ...]
    conflicts: tuple[RuleConflict, ...]
    unreachable_states: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.conflicts


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
        where = f"rule {i} ({rule.describe()})"
        for s in (rule.from_state, rule.to_state):
            if s not in m.states:
                errors.append(f"{where}: unknown state {s!r}")
        if rule.from_state in m.halt_states:
            errors.append(f"{where}: source state is a halt state")
        if isinstance(rule, ReadWriteRule):
            if len(rule.reads) != m.tape_count or len(rule.writes) != m.tape_count:
                errors.append(f"{where}: tuple arity != tape count")
                continue
            for t, (r, w) in enumerate(zip(rule.reads, rule.writes)):
                if r not in m.alphabets[t].symbols:
                    errors.append(f"{where}: symbol {r!r} not in tape {t + 1} alphabet")
                if w not in m.alphabets[t].symbols:
                    errors.append(f"{where}: symbol {w!r} not in tape {t + 1} alphabet")
        else:
            if len(rule.moves) != m.tape_count:
                errors.append(f"{where}: shift arity != tape count")
                continue
            for d in rule.moves:
                if d not in (-1, 0, 1):
                    errors.append(f"{where}: shift {d} not in -1/0/+1")
    return errors


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

    Equivalent to the naive all-pairs scan with domains_overlap /
    ranges_overlap (the tests check this equivalence against the naive
    oracle); a shift rule in a group conflicts with every other member,
    ReadWrite rules conflict when their symbol tuples coincide.
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


# ---------------------------------------------------------------------------
# Execution


def _strip(cells: tuple[str, ...], blank: str) -> tuple[str, ...]:
    end = len(cells)
    while end > 0 and cells[end - 1] == blank:
        end -= 1
    return cells[:end]


@dataclass(frozen=True)
class Configuration:
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


@dataclass(frozen=True)
class _ExecTable:
    """Per-state dispatch compiled from the rule list."""

    # state -> ("rw", {read_tuple: (writes, to_state, rule_index)})
    #        | ("shift", (moves, to_state, rule_index))
    dispatch: dict[str, tuple]
    # Spin states, whose chain of shift-only successors closes a cycle: a
    # run entering one never reads, writes or halts again.  Bounded runs
    # step ``live``, the dispatch without them (see :func:`execute`).
    spins: frozenset[str]
    live: dict[str, tuple]


@lru_cache(maxsize=256)
def _tables(m: Machine) -> _ExecTable:
    dispatch: dict[str, tuple] = {}
    for idx, rule in enumerate(m.rules):
        if isinstance(rule, ShiftRule):
            if rule.from_state in dispatch:
                raise MachineError(
                    f"machine {m.name!r} not forward deterministic at "
                    f"state {rule.from_state!r}")
            dispatch[rule.from_state] = ("shift", (rule.moves, rule.to_state, idx))
        else:
            kind, table = dispatch.setdefault(rule.from_state, ("rw", {}))
            if kind != "rw" or rule.reads in table:
                raise MachineError(
                    f"machine {m.name!r} not forward deterministic at "
                    f"state {rule.from_state!r}")
            table[rule.reads] = (rule.writes, rule.to_state, idx)
    spins: set[str] = set()
    seen: set[str] = set()
    for state in dispatch:
        walk = []  # shift-only successors not walked before
        while state not in seen and dispatch.get(state, ("",))[0] == "shift":
            seen.add(state)
            walk.append(state)
            state = dispatch[state][1][1]
        if state in walk or state in spins:
            spins.update(walk)
    live = {s: e for s, e in dispatch.items() if s not in spins}
    return _ExecTable(dispatch, frozenset(spins), live)


def _scan(tape: tuple[str, ...], head: int, blank: str) -> str:
    return tape[head] if head < len(tape) else blank


def step(m: Machine, c: Configuration) -> Optional[Configuration]:
    """Apply the unique matching rule, or return None when the machine halts."""
    entry = _tables(m).dispatch.get(c.state)
    blanks = m.blanks()
    if entry is None:
        return None
    kind, payload = entry
    if kind == "shift":
        moves, to_state, _ = payload
        heads = tuple(max(0, h + d) for h, d in zip(c.heads, moves))
        return Configuration(to_state, c.tapes, heads, c.steps + 1)
    reads = tuple(_scan(t, h, b) for t, h, b in zip(c.tapes, c.heads, blanks))
    hit = payload.get(reads)
    if hit is None:
        return None
    writes, to_state, _ = hit
    new_tapes = []
    for t, h, w, b in zip(c.tapes, c.heads, writes, blanks):
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
    return Configuration(to_state, tapes, c.heads, c.steps + 1)


HALTED = "halted"
BUDGET_EXCEEDED = "budget-exceeded"
TAPE_EXHAUSTED = "tape-exhausted"


@dataclass(frozen=True)
class RunResult:
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
    the budget counts as Halted.  A left shift at cell 0 clamps; a write
    past a tape's end extends it with blanks.  With ``bounded``, tape 1
    is a finite prefix of an unbounded input: a ReadWrite state whose
    tape-1 head is past that prefix ends the run TAPE_EXHAUSTED, before
    the rule lookup and the budget check, and ``scanned`` is one past the
    last tape-1 cell read (0 when not bounded).  The result is identical
    to iterating :func:`step`, except that a bounded run entering a spin
    state ends BUDGET_EXCEEDED at once with ``budget`` steps, its heads
    and state left where the spin began (prefix runs discard them).
    """
    if budget < 0:
        raise MachineError("budget must be >= 0")
    tables = _tables(m)
    dispatch = tables.live if bounded else tables.dispatch
    blanks = m.blanks()
    n = m.tape_count
    limit = len(tapes[0])
    scanned = 0
    taken = 0
    while True:
        entry = dispatch.get(state)
        if entry is None:
            if state in tables.spins:  # only bounded runs get here
                outcome, taken = BUDGET_EXCEEDED, budget
            else:
                outcome = HALTED
            break
        kind, payload = entry
        if kind == "rw":
            if bounded:
                h = heads[0]
                if h >= limit:
                    outcome = TAPE_EXHAUSTED
                    break
                scanned = h + 1
            hit = payload.get(tuple([
                tapes[i][heads[i]] if heads[i] < len(tapes[i]) else blanks[i]
                for i in range(n)]))
            if hit is None:
                outcome = HALTED
                break
            if taken >= budget:
                outcome = BUDGET_EXCEEDED
                break
            writes, state = hit[0], hit[1]
            for i in range(n):
                w = writes[i]
                h = heads[i]
                t = tapes[i]
                if h < len(t):
                    t[h] = w
                elif w != blanks[i]:
                    t.extend([blanks[i]] * (h - len(t)))
                    t.append(w)
        else:
            if taken >= budget:
                outcome = BUDGET_EXCEEDED
                break
            moves, state = payload[0], payload[1]
            for i in range(n):
                d = moves[i]
                if d:
                    h = heads[i] + d
                    heads[i] = h if h > 0 else 0
        taken += 1
    return outcome, state, taken, scanned


def run_from(m: Machine, c: Configuration, budget: int) -> RunResult:
    """Run until halted or ``budget`` further steps were applied
    (semantics: :func:`execute`)."""
    tapes = [list(t) for t in c.tapes]
    heads = list(c.heads)
    outcome, state, taken, _ = execute(m, c.state, tapes, heads, budget)
    final = Configuration.make(
        state, tuple(tuple(t) for t in tapes), tuple(heads), c.steps + taken,
        m.blanks())
    return RunResult(outcome, final, taken, output_of(m, final))


def run(m: Machine, input_symbols: str | tuple[str, ...], budget: int) -> RunResult:
    return run_from(m, initial_configuration(m, input_symbols), budget)


def trace_run(m: Machine, input_symbols: str | tuple[str, ...],
              budget: int) -> Iterator[Configuration]:
    """Yield the initial configuration and every successor up to the budget."""
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


@dataclass(frozen=True)
class QuintupleRule:
    from_state: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    moves: tuple[int, ...]
    to_state: str


@dataclass(frozen=True)
class QuintupleMachine:
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


def run_quintuple(m5: QuintupleMachine, input_symbols: str | tuple[str, ...],
                  budget: int) -> RunResult:
    """Direct interpreter for quintuple machines (write then shift in one
    step); used to compare step counts against the normalized form."""
    if budget < 0:
        raise MachineError("budget must be >= 0")
    table: dict[tuple[str, tuple[str, ...]], QuintupleRule] = {}
    for r in m5.rules:
        key = (r.from_state, r.reads)
        if key in table:
            raise MachineError(
                f"machine {m5.name!r} not forward deterministic at {key[0]!r}")
        table[key] = r
    blanks = tuple(a.blank for a in m5.alphabets)
    symbols = tuple(input_symbols)
    for s in symbols:
        if s not in m5.alphabets[0].symbols:
            raise MachineError(f"input symbol {s!r} not in tape 1 alphabet")
    tapes = [list(symbols)] + [[] for _ in range(m5.tape_count - 1)]
    heads = [0] * m5.tape_count
    state = m5.start_state
    taken = 0
    while True:
        reads = tuple(
            tapes[i][heads[i]] if heads[i] < len(tapes[i]) else blanks[i]
            for i in range(m5.tape_count))
        rule = table.get((state, reads))
        if rule is None:
            outcome = HALTED
            break
        if taken >= budget:
            outcome = BUDGET_EXCEEDED
            break
        for i, w in enumerate(rule.writes):
            h, t = heads[i], tapes[i]
            if h < len(t):
                t[h] = w
            elif w != blanks[i]:
                t.extend([blanks[i]] * (h - len(t)))
                t.append(w)
        for i, d in enumerate(rule.moves):
            if d:
                h = heads[i] + d
                heads[i] = h if h > 0 else 0
        state = rule.to_state
        taken += 1
    final = Configuration.make(
        state, tuple(tuple(t) for t in tapes), tuple(heads), taken, blanks)
    out_index = (m5.output_tape or m5.tape_count) - 1
    out = []
    for s in final.tapes[out_index] if out_index < len(final.tapes) else ():
        if s == blanks[out_index]:
            break
        out.append(s)
    return RunResult(outcome, final, taken, "".join(out))


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
