"""Bundled machine corpus with recorded expected behaviour.

Every entry pairs a machine with a plain-Python reference function for
its input/output map (None for machines that never halt).  The corpus
observes one discipline that matters for reverse execution: no machine
ever attempts a left shift while a head is at cell 0.  Leftward scans
always stop on a marker symbol placed before the scan starts (cell 0 is
marked in the machine's first step, when the position is still known).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .machines import (
    Alphabet,
    Machine,
    QuintupleMachine,
    QuintupleRule,
    ReadWriteRule,
    Rule,
    ShiftRule,
    rule_states,
)

BLANK = "_"
BINARY = Alphabet.of("0", "1", blank=BLANK)
UNARY = Alphabet.of("1", blank=BLANK)


class CorpusEntry(NamedTuple):
    name: str
    machine: Machine | QuintupleMachine
    input_alphabet: tuple[str, ...]
    reference: Optional[Callable[[str], str]]  # None: never halts
    note: str

    @property
    def kind(self) -> str:
        return "quintuple" if isinstance(self.machine, QuintupleMachine) else "quadruple"

    @property
    def halts(self) -> bool:
        return self.reference is not None


def _quad(name: str, alphabet: Alphabet, start: str, halts: tuple[str, ...],
          rules: list[Rule]) -> Machine:
    states, _ = rule_states(rules, (start, *halts))
    return Machine(name, (alphabet,), states, start, frozenset(halts), tuple(rules))


def _quint(name: str, alphabet: Alphabet, start: str, halts: tuple[str, ...],
           rules: list[tuple[str, str, str, int, str]]) -> QuintupleMachine:
    qrules = tuple(
        QuintupleRule(f, (a,), (b,), (d,), t) for f, a, b, d, t in rules)
    states, _ = rule_states(qrules, (start, *halts))
    return QuintupleMachine(name, (alphabet,), states, start, frozenset(halts), qrules)


def _rw(f: str, a: str, b: str, t: str) -> ReadWriteRule:
    return ReadWriteRule(f, (a,), (b,), t)


def _sh(f: str, d: int, t: str) -> ShiftRule:
    return ShiftRule(f, (d,), t)


def _scan_right(state: str, symbols: tuple[str, ...], prefix: str) -> list[Rule]:
    rules: list[Rule] = []
    for s in symbols:
        mid = f"{prefix}{s}"
        rules.append(_rw(state, s, s, mid))
        rules.append(_sh(mid, 1, state))
    return rules


def _immediate_halt() -> Machine:
    return _quad("immediate_halt", BINARY, "h", ("h",), [])


def _flipper() -> Machine:
    return _quad("flipper", BINARY, "s", (), [
        _rw("s", "0", "1", "m0"), _sh("m0", 1, "s"),
        _rw("s", "1", "0", "m1"), _sh("m1", 1, "s"),
    ])


def _flipper5() -> QuintupleMachine:
    return _quint("flipper5", BINARY, "s", (), [
        ("s", "0", "1", 1, "s"),
        ("s", "1", "0", 1, "s"),
    ])


def _unary_inc() -> Machine:
    return _quad("unary_inc", UNARY, "s", ("d",), [
        _rw("s", "1", "1", "m"), _sh("m", 1, "s"),
        _rw("s", BLANK, "1", "d"),
    ])


def _unary_inc5() -> QuintupleMachine:
    return _quint("unary_inc5", UNARY, "s", ("d",), [
        ("s", "1", "1", 1, "s"),
        ("s", BLANK, "1", 0, "d"),
    ])


def _eraser() -> Machine:
    return _quad("eraser", BINARY, "s", (), [
        _rw("s", "0", BLANK, "m"),
        _rw("s", "1", BLANK, "m"),
        _sh("m", 1, "s"),
    ])


_PARITY_ALPHABET = Alphabet.of("0", "1", "M", "Z", blank=BLANK)


def _parity() -> Machine:
    # Two rightward parity-tracking scans share mark M; the first cell is
    # marked Z so the leftward cleanup knows where to stop and write the
    # answer.
    rules: list[Rule] = [
        _rw("p0", BLANK, "0", "fin"),
        _rw("p0", "0", "Z", "a0"), _sh("a0", 1, "e"),
        _rw("p0", "1", "Z", "a1"), _sh("a1", 1, "o"),
        _rw("e", "0", "M", "b0"), _sh("b0", 1, "e"),
        _rw("e", "1", "M", "b1"), _sh("b1", 1, "o"),
        _rw("o", "0", "M", "c0"), _sh("c0", 1, "o"),
        _rw("o", "1", "M", "c1"), _sh("c1", 1, "e"),
        _rw("e", BLANK, BLANK, "te"), _sh("te", -1, "we"),
        _rw("o", BLANK, BLANK, "to"), _sh("to", -1, "wo"),
        _rw("we", "M", BLANK, "de"), _sh("de", -1, "we"),
        _rw("wo", "M", BLANK, "do"), _sh("do", -1, "wo"),
        _rw("we", "Z", "0", "fin"),
        _rw("wo", "Z", "1", "fin"),
    ]
    return _quad("parity", _PARITY_ALPHABET, "p0", ("fin",), rules)


def _parity5() -> QuintupleMachine:
    return _quint("parity5", _PARITY_ALPHABET, "p0", ("fin",), [
        ("p0", BLANK, "0", 0, "fin"),
        ("p0", "0", "Z", 1, "e"),
        ("p0", "1", "Z", 1, "o"),
        ("e", "0", "M", 1, "e"),
        ("e", "1", "M", 1, "o"),
        ("o", "0", "M", 1, "o"),
        ("o", "1", "M", 1, "e"),
        ("e", BLANK, BLANK, -1, "we"),
        ("o", BLANK, BLANK, -1, "wo"),
        ("we", "M", BLANK, -1, "we"),
        ("wo", "M", BLANK, -1, "wo"),
        ("we", "Z", "0", 0, "fin"),
        ("wo", "Z", "1", 0, "fin"),
    ])


def _parity_ref(w: str) -> str:
    return str(w.count("1") % 2)


def _spinner() -> Machine:
    return _quad("spinner", BINARY, "loop", (), [_sh("loop", 0, "loop")])


def _runner() -> Machine:
    return _quad("runner", BINARY, "loop", (), [_sh("loop", 1, "loop")])


def _bounce() -> Machine:
    # Head oscillates between cells 1 and 2 after the first move.
    return _quad("bounce", BINARY, "a", (), [
        _sh("a", 1, "b"), _sh("b", 1, "c"), _sh("c", -1, "b"),
    ])


def _nonreversible_fixture() -> Machine:
    # Both rules write "1" into q2: ranges collide, so the machine is
    # forward deterministic but not reversible.
    return _quad("nonrev_fixture", BINARY, "q0", (), [
        _rw("q0", "0", "1", "q2"),
        _rw("q1", "1", "1", "q2"),
    ])


def _nonrev_ref(w: str) -> str:
    return "1" + w[1:] if w.startswith("0") else w


_DOUBLER_ALPHABET = Alphabet.of("1", "X", "Y", "Z", blank=BLANK)


def _ones_doubler() -> Machine:
    # Per source cell: mark it (Z at cell 0, X after), append a Y copy on
    # the right, walk back to the rightmost mark, advance.  A final sweep
    # rewrites every mark and copy to plain ones.
    rules: list[Rule] = [
        _rw("s0", BLANK, BLANK, "fin"),
        _rw("s0", "1", "Z", "g0"), _sh("g0", 1, "R"),
        _rw("R", "1", "1", "r1"), _sh("r1", 1, "R"),
        _rw("R", "Y", "Y", "r2"), _sh("r2", 1, "R"),
        _rw("R", BLANK, "Y", "L"),
        _rw("L", "Y", "Y", "l1"), _sh("l1", -1, "L"),
        _rw("L", "1", "1", "l2"), _sh("l2", -1, "L"),
        _rw("L", "X", "X", "advx"), _sh("advx", 1, "N"),
        _rw("L", "Z", "Z", "advz"), _sh("advz", 1, "N"),
        _rw("N", "1", "X", "gn"), _sh("gn", 1, "R"),
        _rw("N", "Y", "1", "f1"), _sh("f1", 1, "F"),
        _rw("F", "Y", "1", "f2"), _sh("f2", 1, "F"),
        _rw("F", BLANK, BLANK, "g1"), _sh("g1", -1, "B"),
        _rw("B", "1", "1", "b1"), _sh("b1", -1, "B"),
        _rw("B", "X", "1", "b2"), _sh("b2", -1, "B"),
        _rw("B", "Z", "1", "fin"),
    ]
    return _quad("ones_doubler", _DOUBLER_ALPHABET, "s0", ("fin",), rules)


def _ones_doubler5() -> QuintupleMachine:
    return _quint("ones_doubler5", _DOUBLER_ALPHABET, "s0", ("fin",), [
        ("s0", BLANK, BLANK, 0, "fin"),
        ("s0", "1", "Z", 1, "R"),
        ("R", "1", "1", 1, "R"),
        ("R", "Y", "Y", 1, "R"),
        ("R", BLANK, "Y", -1, "L"),
        ("L", "Y", "Y", -1, "L"),
        ("L", "1", "1", -1, "L"),
        ("L", "X", "X", 1, "N"),
        ("L", "Z", "Z", 1, "N"),
        ("N", "1", "X", 1, "R"),
        ("N", "Y", "1", 1, "F"),
        ("F", "Y", "1", 1, "F"),
        ("F", BLANK, BLANK, -1, "B"),
        ("B", "1", "1", -1, "B"),
        ("B", "X", "1", -1, "B"),
        ("B", "Z", "1", 0, "fin"),
    ])


def _doubler_ref(w: str) -> str:
    return "1" * (2 * len(w))


def _const(name: str, bit: str) -> Machine:
    return _quad(name, BINARY, "s", ("d",), [_rw("s", BLANK, bit, "d")])


def _identity() -> Machine:
    return _quad("identity", BINARY, "s", (),
                 _scan_right("s", ("0", "1"), "m"))


def _head_runner5() -> QuintupleMachine:
    return _quint("head_runner5", BINARY, "s", (), [
        ("s", "0", "0", 1, "s"),
        ("s", "1", "1", 1, "s"),
    ])


def _ones_to_zeros5() -> QuintupleMachine:
    return _quint("ones_to_zeros5", BINARY, "s", (), [
        ("s", "1", "0", 1, "s"),
        ("s", "0", "0", 1, "s"),
    ])


def _appender() -> Machine:
    rules = _scan_right("s", ("0", "1"), "m")
    rules.append(_rw("s", BLANK, "0", "d"))
    return _quad("appender", BINARY, "s", ("d",), rules)


def _toggle_first() -> Machine:
    return _quad("toggle_first", BINARY, "s", ("d",), [
        _rw("s", "0", "1", "d"),
        _rw("s", "1", "0", "d"),
    ])


def _toggle_ref(w: str) -> str:
    if not w:
        return ""
    return ("1" if w[0] == "0" else "0") + w[1:]


def _first_symbol() -> Machine:
    return _quad("first_symbol", BINARY, "s", (), [
        _rw("s", "0", "0", "a0"), _sh("a0", 1, "e"),
        _rw("s", "1", "1", "a1"), _sh("a1", 1, "e"),
        _rw("e", "0", BLANK, "em"),
        _rw("e", "1", BLANK, "em"),
        _sh("em", 1, "e"),
    ])


def _first_three() -> Machine:
    # Keeps the first three bits, erases the rest: the one-tape rendition
    # of a 3-bit copier under the output-prefix convention.
    rules: list[Rule] = []
    for n in range(3):
        nxt = "e" if n == 2 else f"c{n + 1}"
        for s in ("0", "1"):
            rules.append(_rw(f"c{n}", s, s, f"a{n}{s}"))
            rules.append(_sh(f"a{n}{s}", 1, nxt))
    rules.extend([
        _rw("e", "0", BLANK, "em"),
        _rw("e", "1", BLANK, "em"),
        _sh("em", 1, "e"),
    ])
    return _quad("first_three", BINARY, "c0", (), rules)


_FLIP = str.maketrans("01", "10")

BIN = ("0", "1")
ONE = ("1",)


def corpus() -> tuple[CorpusEntry, ...]:
    """All bundled machines, in a fixed order."""
    return (
        CorpusEntry("immediate_halt", _immediate_halt(), BIN,
                    lambda w: w, "halts at step 0; tape is the output"),
        CorpusEntry("flipper", _flipper(), BIN,
                    lambda w: w.translate(_FLIP), "flips every bit"),
        CorpusEntry("flipper5", _flipper5(), BIN,
                    lambda w: w.translate(_FLIP), "flipper in quintuple form"),
        CorpusEntry("unary_inc", _unary_inc(), ONE,
                    lambda w: w + "1", "appends one mark"),
        CorpusEntry("unary_inc5", _unary_inc5(), ONE,
                    lambda w: w + "1", "incrementer in quintuple form"),
        CorpusEntry("eraser", _eraser(), BIN,
                    lambda w: "", "blanks the whole input"),
        CorpusEntry("parity", _parity(), BIN,
                    _parity_ref, "emits the parity of the number of ones"),
        CorpusEntry("parity5", _parity5(), BIN,
                    _parity_ref, "parity in quintuple form"),
        CorpusEntry("spinner", _spinner(), BIN,
                    None, "single self-loop shift; never halts"),
        CorpusEntry("runner", _runner(), BIN,
                    None, "runs right forever"),
        CorpusEntry("bounce", _bounce(), BIN,
                    None, "oscillates between cells 1 and 2"),
        CorpusEntry("nonrev_fixture", _nonreversible_fixture(), BIN,
                    _nonrev_ref, "forward deterministic, fails the reverse check"),
        CorpusEntry("ones_doubler", _ones_doubler(), ONE,
                    _doubler_ref, "doubles a block of ones via marked copies"),
        CorpusEntry("ones_doubler5", _ones_doubler5(), ONE,
                    _doubler_ref, "doubler in quintuple form"),
        CorpusEntry("const0", _const("const0", "0"), BIN,
                    lambda w: "0" if w == "" else w, "writes 0 on empty input"),
        CorpusEntry("const1", _const("const1", "1"), BIN,
                    lambda w: "1" if w == "" else w, "writes 1 on empty input"),
        CorpusEntry("identity", _identity(), BIN,
                    lambda w: w, "scans its input and halts"),
        CorpusEntry("head_runner5", _head_runner5(), BIN,
                    lambda w: w, "identity in quintuple form"),
        CorpusEntry("ones_to_zeros5", _ones_to_zeros5(), BIN,
                    lambda w: "0" * len(w), "rewrites everything to zeros"),
        CorpusEntry("appender", _appender(), BIN,
                    lambda w: w + "0", "appends a zero"),
        CorpusEntry("toggle_first", _toggle_first(), BIN,
                    _toggle_ref, "flips only the first bit"),
        CorpusEntry("first_symbol", _first_symbol(), BIN,
                    lambda w: w[:1], "keeps the first symbol, erases the rest"),
        CorpusEntry("first_three", _first_three(), BIN,
                    lambda w: w[:3], "three-bit copier: keeps the first three bits"),
    )


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)

