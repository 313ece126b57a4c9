"""Textual formats for machines and configuration snapshots.

Machine files (see docs/machine-format.md for the exact grammar):

    machine flipper
    tapes 1
    alphabet 1 blank _ symbols 0 1 _
    states s m0 m1
    start s
    halt
    rule s 0 -> 1 m0
    rule m0 / -> +1 s

Quintuple rules carry a shift tuple after the write tuple:

    quintuple s 0 -> 1 +1 s

Configuration snapshots are bit-exact:

    state s
    steps 4
    tape 1 head 2 cells 0,1

Blank lines and ``#`` comments are ignored.  Parse errors carry the
offending line number.
"""

from __future__ import annotations

from .machines import (
    Alphabet,
    Configuration,
    Machine,
    QuintupleMachine,
    QuintupleRule,
    ReadWriteRule,
    Rule,
    ShiftRule,
)


class MachineFormatError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _split_tuple(text: str) -> tuple[str, ...]:
    if text == "-":
        return ()
    return tuple(text.split(","))


def _parse_moves(text: str, line_no: int) -> tuple[int, ...]:
    moves = []
    for part in _split_tuple(text):
        if part in ("+1", "1"):
            moves.append(1)
        elif part == "-1":
            moves.append(-1)
        elif part == "0":
            moves.append(0)
        else:
            raise MachineFormatError(line_no, f"bad shift component {part!r}")
    return tuple(moves)


def _check_tape_number(tape: int, expected: int, what: str, line_no: int) -> None:
    # Tapes are numbered 1, 2, ... in file order: a repeated, skipped or
    # out-of-order number would silently move a line to another tape.
    if tape != expected:
        raise MachineFormatError(line_no, f"{what} {tape} out of order, expected {expected}")


def parse_machine(text: str) -> Machine | QuintupleMachine:
    """Parse a machine file.  Returns a QuintupleMachine when any
    ``quintuple`` line is present (mixing rule styles is rejected)."""
    name = None
    tape_count = None
    alphabets: list[tuple[int, Alphabet]] = []  # (line number, alphabet)
    states: list[str] = []
    start = None
    halts: list[str] = []
    output_tape = 0
    quad_rules: list[Rule] = []
    quint_rules: list[QuintupleRule] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key == "machine":
            if len(fields) != 2:
                raise MachineFormatError(line_no, "machine takes one name")
            name = fields[1]
        elif key == "tapes":
            try:
                tape_count = int(fields[1])
            except (IndexError, ValueError):
                raise MachineFormatError(line_no, "tapes takes one integer")
            if tape_count < 1:
                raise MachineFormatError(line_no, f"tapes must be >= 1, got {tape_count}")
        elif key == "alphabet":
            if len(fields) < 5 or fields[2] != "blank" or fields[4] != "symbols":
                raise MachineFormatError(
                    line_no, "expected: alphabet <tape> blank <sym> symbols <sym>...")
            try:
                tape = int(fields[1])
            except ValueError:
                raise MachineFormatError(line_no, f"bad tape number {fields[1]!r}")
            _check_tape_number(tape, len(alphabets) + 1, "alphabet", line_no)
            blank = fields[3]
            symbols = frozenset(fields[5:]) | {blank}
            alphabets.append((line_no, Alphabet(symbols, blank)))
        elif key == "states":
            states.extend(fields[1:])
        elif key == "start":
            if len(fields) != 2:
                raise MachineFormatError(line_no, "start takes one state")
            start = fields[1]
        elif key == "halt":
            halts.extend(fields[1:])
        elif key == "output-tape":
            try:
                output_tape = int(fields[1])
            except (IndexError, ValueError):
                raise MachineFormatError(line_no, "output-tape takes one integer")
        elif key == "rule":
            rest = fields[1:]
            if len(rest) != 5 or rest[2] != "->":
                raise MachineFormatError(
                    line_no, "expected: rule <from> <reads|/> -> <writes|shifts> <to>")
            from_state, lhs, _, rhs, to_state = rest
            if lhs == "/":
                quad_rules.append(ShiftRule(from_state, _parse_moves(rhs, line_no), to_state))
            else:
                quad_rules.append(ReadWriteRule(
                    from_state, _split_tuple(lhs), _split_tuple(rhs), to_state))
        elif key == "quintuple":
            rest = fields[1:]
            if len(rest) != 6 or rest[2] != "->":
                raise MachineFormatError(
                    line_no, "expected: quintuple <from> <reads> -> <writes> <shifts> <to>")
            from_state, lhs, _, rhs, shifts, to_state = rest
            quint_rules.append(QuintupleRule(
                from_state, _split_tuple(lhs), _split_tuple(rhs),
                _parse_moves(shifts, line_no), to_state))
        else:
            raise MachineFormatError(line_no, f"unknown directive {key!r}")

    if name is None:
        raise MachineFormatError(0, "missing 'machine' header")
    if tape_count is None:
        raise MachineFormatError(0, "missing 'tapes' header")
    if start is None:
        raise MachineFormatError(0, "missing 'start' header")
    if len(alphabets) < tape_count:
        raise MachineFormatError(0, f"missing alphabet for tape {len(alphabets) + 1}")
    if len(alphabets) > tape_count:
        raise MachineFormatError(
            alphabets[tape_count][0],
            f"alphabet for tape {tape_count + 1} of a {tape_count}-tape machine")
    if quad_rules and quint_rules:
        raise MachineFormatError(0, "cannot mix rule and quintuple lines")

    alpha = tuple(a for _, a in alphabets)
    common = dict(
        name=name,
        alphabets=alpha,
        states=frozenset(states),
        start_state=start,
        halt_states=frozenset(halts),
        output_tape=output_tape,
    )
    if quint_rules:
        return QuintupleMachine(rules=tuple(quint_rules), **common)
    return Machine(rules=tuple(quad_rules), **common)


def _fmt_tuple(items: tuple[str, ...]) -> str:
    return ",".join(items) if items else "-"


def _fmt_moves(moves: tuple[int, ...]) -> str:
    return ",".join(f"{m:+d}" if m else "0" for m in moves) if moves else "-"


def serialize_machine(m: Machine | QuintupleMachine) -> str:
    lines = [f"machine {m.name}", f"tapes {m.tape_count}"]
    for t, a in enumerate(m.alphabets, start=1):
        symbols = " ".join(sorted(a.symbols))
        lines.append(f"alphabet {t} blank {a.blank} symbols {symbols}")
    lines.append("states " + " ".join(sorted(m.states)))
    lines.append(f"start {m.start_state}")
    lines.append(("halt " + " ".join(sorted(m.halt_states))).rstrip())
    if m.output_tape:
        lines.append(f"output-tape {m.output_tape}")
    for r in m.rules:
        if isinstance(r, QuintupleRule):
            lines.append(f"quintuple {r.from_state} {_fmt_tuple(r.reads)} -> "
                         f"{_fmt_tuple(r.writes)} {_fmt_moves(r.moves)} {r.to_state}")
        elif isinstance(r, ShiftRule):
            lines.append(f"rule {r.from_state} / -> {_fmt_moves(r.moves)} {r.to_state}")
        else:
            lines.append(f"rule {r.from_state} {_fmt_tuple(r.reads)} -> "
                         f"{_fmt_tuple(r.writes)} {r.to_state}")
    return "\n".join(lines) + "\n"


def serialize_configuration(c: Configuration) -> str:
    lines = [f"state {c.state}", f"steps {c.steps}"]
    for t, (tape, head) in enumerate(zip(c.tapes, c.heads), start=1):
        lines.append(f"tape {t} head {head} cells {_fmt_tuple(tape)}")
    return "\n".join(lines) + "\n"


def parse_configuration(text: str) -> Configuration:
    state = None
    steps = 0
    tapes: list[tuple[str, ...]] = []
    heads: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "state" and len(fields) == 2:
            state = fields[1]
        elif fields[0] == "steps" and len(fields) == 2:
            try:
                steps = int(fields[1])
            except ValueError:
                raise MachineFormatError(line_no, f"bad step count {fields[1]!r}")
        elif fields[0] == "tape":
            if len(fields) != 6 or fields[2] != "head" or fields[4] != "cells":
                raise MachineFormatError(
                    line_no, "expected: tape <n> head <h> cells <c1,c2,...|->")
            try:
                tape, head = int(fields[1]), int(fields[3])
            except ValueError:
                raise MachineFormatError(line_no, f"bad tape or head in {line!r}")
            _check_tape_number(tape, len(tapes) + 1, "tape", line_no)
            if head < 0:
                raise MachineFormatError(line_no, f"negative head {head}")
            tapes.append(_split_tuple(fields[5]))
            heads.append(head)
        else:
            raise MachineFormatError(line_no, f"unknown directive {fields[0]!r}")
    if state is None:
        raise MachineFormatError(0, "missing 'state' line")
    return Configuration(state, tuple(tapes), tuple(heads), steps)
