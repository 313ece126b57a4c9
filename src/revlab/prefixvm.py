"""Prefix-machine semantics, the machine enumeration, and the reference
universal interpreter.

Prefix machines here are four-tape quadruple machines with fixed roles:
tape 1 is the one-way read-only program tape, tape 2 the auxiliary tape,
tape 3 the work tape, tape 4 the output tape.  The program tape carries
an unbounded bit stream of which the caller supplies a finite prefix;
a machine that scans past the supplied prefix ends with TapeExhausted.
The bits actually scanned when a run halts are the program.

Integers name machines through the standard bijection with bit strings
(i <-> the binary expansion of i+1 without its leading 1).  Description
strings decode as:

    ""      canonical diverging machine (the empty description is malformed)
    "0"     halt machine (no rules)
    "1"     literal printer: doubled payload bits terminated by "01"
    "00"    three-bit copier
    "01"    slow zeros: unary payload k -> 2^(k+1)-1 zeros, built by
            quadratic-time doubling on the work tape
    "10"    slow ones: same with ones
    "11"    auxiliary-tape copier
    "111"+b general rule-table grammar (docs/universal-machine.md)
    other   canonical diverging machine

The universal interpreter decodes a self-delimiting index <i> (each bit
of the description string doubled, terminated by "01"; the pair "10" is
malformed and diverges), then simulates machine i on the remaining bit
stream.  One interpreter step is one bit consumed while decoding <i>
plus one step per simulated step of machine i; divergence consumes the
whole budget.  Machine i runs as a paused run resumed on the bits
(``resume_run``): a run that exhausts them pauses again, and resuming
it on longer bits gives the result of running those from scratch.
``machine_starts`` lists the runs about to begin right after each code
<i> of a non-diverger.  The reversible counterpart reports the step
count the Bennett transform of the interpreter would take, using the
transform's own construction constants, and pairs the program with the
output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .machines import (  # the outcome names are re-exported
    BUDGET_EXCEEDED,
    HALTED,
    TAPE_EXHAUSTED,
    Alphabet,
    Machine,
    MachineError,
    ReadWriteRule,
    Rule,
    ShiftRule,
    blank_free_prefix,
    domain_conflicts,
    execute,
    rule_states,
)
from .reversal import LINEAR_A, LINEAR_B, LINEAR_C, linear_bound

BIT_BLANK = "_"
BITS = Alphabet.of("0", "1", blank=BIT_BLANK)


@dataclass(frozen=True)
class PrefixRunResult:
    outcome: str
    program: str
    output: str
    steps: int
    pair: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# Integer <-> description string bijection and the self-delimiting code


def string_of_index(i: int) -> str:
    if i < 0:
        raise ValueError("index must be >= 0")
    return bin(i + 1)[3:]


def index_of_string(s: str) -> int:
    return int("1" + s, 2) - 1


def encode_index(i: int) -> str:
    """Self-delimiting code: description bits doubled, then "01"."""
    return "".join(c + c for c in string_of_index(i)) + "01"


def decode_index(bits: str) -> tuple[int, int] | None:
    """(index, bits consumed), or None when more bits are needed.

    Raises MalformedIndex on the pair "10".
    """
    pos = _DOUBLED.match(bits).end()  # the next pair is "01", "10" or cut
    pair = bits[pos:pos + 2]
    if len(pair) < 2:
        return None
    if pair == "10":
        raise MalformedIndex(pos + 2)
    return index_of_string(bits[0:pos:2]), pos + 2


_DOUBLED = re.compile(r"(?:00|11)*")


class MalformedIndex(Exception):
    def __init__(self, consumed: int):
        super().__init__(f"malformed index pair at bit {consumed - 2}")
        self.consumed = consumed


# ---------------------------------------------------------------------------
# Builtin machines

AUX_SYMS = ("0", "1", BIT_BLANK)
PROG_SYMS = ("0", "1")


def _prefix_machine(name: str, work_extra: Iterable[str], rules: list[Rule],
                    start: str, states: Iterable[str]) -> Machine:
    work = Alphabet(frozenset({"0", "1", BIT_BLANK, *work_extra}), BIT_BLANK)
    all_states, halt = rule_states(rules, states)
    return Machine(name, (BITS, BITS, work, BITS), all_states,
                   start, halt, tuple(rules), output_tape=4)


def diverger_machine() -> Machine:
    return _prefix_machine(
        "diverger", (), [ShiftRule("spin", (0, 0, 0, 0), "spin")],
        "spin", ("spin",))


def halt_machine() -> Machine:
    return _prefix_machine("halt", (), [], "h", ("h",))


def print_machine() -> Machine:
    # Reads doubled payload bits until "01"; "10" diverges.  The head
    # parks on the terminator's second bit so nothing is over-scanned.
    rules: list[Rule] = []
    for p in PROG_SYMS:
        for a in AUX_SYMS:
            rules.append(ReadWriteRule(
                "r1", (p, a, BIT_BLANK, BIT_BLANK),
                (p, a, BIT_BLANK, BIT_BLANK), f"m1_{p}"))
    for b in PROG_SYMS:
        rules.append(ShiftRule(f"m1_{b}", (1, 0, 0, 0), f"r2_{b}"))
    for a in AUX_SYMS:
        rules.append(ReadWriteRule(  # pair 00: emit 0
            "r2_0", ("0", a, BIT_BLANK, BIT_BLANK),
            ("0", a, BIT_BLANK, "0"), "m2"))
        rules.append(ReadWriteRule(  # pair 01: done
            "r2_0", ("1", a, BIT_BLANK, BIT_BLANK),
            ("1", a, BIT_BLANK, BIT_BLANK), "done"))
        rules.append(ReadWriteRule(  # pair 11: emit 1
            "r2_1", ("1", a, BIT_BLANK, BIT_BLANK),
            ("1", a, BIT_BLANK, "1"), "m2"))
        rules.append(ReadWriteRule(  # pair 10: malformed
            "r2_1", ("0", a, BIT_BLANK, BIT_BLANK),
            ("0", a, BIT_BLANK, BIT_BLANK), "spin"))
    rules.append(ShiftRule("m2", (1, 0, 0, 1), "r1"))
    rules.append(ShiftRule("spin", (0, 0, 0, 0), "spin"))
    return _prefix_machine("print", (), rules, "r1", ("r1", "done", "spin"))


def copy3_machine() -> Machine:
    rules: list[Rule] = []
    for n in (1, 2, 3):
        nxt = "done" if n == 3 else f"d{n}"
        for b in PROG_SYMS:
            for a in AUX_SYMS:
                rules.append(ReadWriteRule(
                    f"c{n}", (b, a, BIT_BLANK, BIT_BLANK),
                    (b, a, BIT_BLANK, b), nxt))
        if n < 3:
            rules.append(ShiftRule(f"d{n}", (1, 0, 0, 1), f"c{n + 1}"))
    return _prefix_machine("copy3", (), rules, "c1", ("c1", "done"))


def slow_repeater_machine(emit: str) -> Machine:
    """Unary payload 0^k 1 -> emit^(2^(k+1)-1), by k quadratic doubling
    rounds of a marked block on the work tape."""
    name = "slow_zeros" if emit == "0" else "slow_ones"
    rules: list[Rule] = []

    def rw(f, p, a, w, o, wp, op, t):
        rules.append(ReadWriteRule(f, (p, a, w, o), (p, a, wp, op), t))

    B = BIT_BLANK
    for p in PROG_SYMS:
        for a in AUX_SYMS:
            rw("i0", p, a, B, B, "Z", B, "rp")  # seed block of size one
    for a in AUX_SYMS:
        # payload 0: double the block.  Mark cell 0 and start the round.
        rw("rp", "0", a, "Z", B, "ZM", B, "db")
        # payload 1: copy the block to the output as `emit` symbols.
        rw("rp", "1", a, "Z", B, "Z", emit, "cb")
        for w in ("O", "Y"):
            rw("dc", "0", a, w, B, w, B, "dcm")
        rw("dc", "0", a, B, B, "Y", B, "dd")
        for w in ("Y", "O"):
            rw("dd", "0", a, w, B, w, B, "ddm")
        for w in ("ZM", "OM"):
            rw("dd", "0", a, w, B, w, B, "de")
        rw("df", "0", a, "O", B, "OM", B, "db")
        rw("df", "0", a, "Y", B, "Y", B, "dg")
        rw("dg", "0", a, "Y", B, "Y", B, "dgm")
        rw("dg", "0", a, B, B, "Y", B, "dh")
        for w in ("Y", "OM"):
            rw("dh", "0", a, w, B, "O", B, "dhm")
        rw("dh", "0", a, "ZM", B, "Z", B, "di")
        rw("cc", "1", a, "O", B, "O", emit, "cb")
        rw("cc", "1", a, B, B, B, B, "done")
    rules.append(ShiftRule("db", (0, 0, 1, 0), "dc"))
    rules.append(ShiftRule("dcm", (0, 0, 1, 0), "dc"))
    rules.append(ShiftRule("ddm", (0, 0, -1, 0), "dd"))
    rules.append(ShiftRule("de", (0, 0, 1, 0), "df"))
    rules.append(ShiftRule("dgm", (0, 0, 1, 0), "dg"))
    rules.append(ShiftRule("dhm", (0, 0, -1, 0), "dh"))
    rules.append(ShiftRule("di", (1, 0, 0, 0), "rp"))
    rules.append(ShiftRule("cb", (0, 0, 1, 1), "cc"))
    return _prefix_machine(name, ("Z", "O", "ZM", "OM", "Y"), rules,
                           "i0", ("i0", "done"))


def aux_copy_machine() -> Machine:
    rules: list[Rule] = []
    for p in PROG_SYMS:
        for a in ("0", "1"):
            rules.append(ReadWriteRule(
                "a1", (p, a, BIT_BLANK, BIT_BLANK),
                (p, a, BIT_BLANK, a), "a2"))
        rules.append(ReadWriteRule(
            "a1", (p, BIT_BLANK, BIT_BLANK, BIT_BLANK),
            (p, BIT_BLANK, BIT_BLANK, BIT_BLANK), "done"))
    rules.append(ShiftRule("a2", (0, 1, 0, 1), "a1"))
    return _prefix_machine("aux_copy", (), rules, "a1", ("a1", "done"))


HALT_INDEX = 1
PRINT_INDEX = 2
COPY3_INDEX = 3
SLOW_ZEROS_INDEX = 4
SLOW_ONES_INDEX = 5
AUX_COPY_INDEX = 6

_GENERAL_PREFIX = "111"


@lru_cache(maxsize=1)
def builtin_machines() -> dict[str, Machine]:
    return {
        "0": halt_machine(),
        "1": print_machine(),
        "00": copy3_machine(),
        "01": slow_repeater_machine("0"),
        "10": slow_repeater_machine("1"),
        "11": aux_copy_machine(),
    }


@lru_cache(maxsize=1)
def _diverger() -> Machine:
    return diverger_machine()


def is_diverger(m: Machine) -> bool:
    return m is _diverger()


# ---------------------------------------------------------------------------
# General description grammar


class _BitReader:
    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def take(self, n: int) -> str:
        if self.pos + n > len(self.bits):
            raise _Malformed()
        out = self.bits[self.pos:self.pos + n]
        self.pos += n
        return out

    def gamma(self) -> int:
        """Elias gamma: value >= 1."""
        zeros = 0
        while self.take(1) == "0":
            zeros += 1
            if zeros > 60:
                raise _Malformed()
        return int("1" + self.take(zeros), 2)

    def done(self) -> bool:
        return self.pos == len(self.bits)


class _Malformed(Exception):
    pass


def _width(n: int) -> int:
    return max(1, (n - 1).bit_length()) if n > 1 else 0


_AUX_CODE = {"00": "0", "01": "1", "10": BIT_BLANK}
_AUX_ENC = {v: k for k, v in _AUX_CODE.items()}
_MOVE_CODE = {"00": -1, "01": 0, "10": 1}
_MOVE_ENC = {v: k for k, v in _MOVE_CODE.items()}


def _work_symbols(extra: int) -> list[str]:
    return [BIT_BLANK, "0", "1"] + [f"w{n}" for n in range(extra)]


def _parse_general(body: str) -> Machine | None:
    try:
        r = _BitReader(body)
        extra = r.gamma() - 1
        n_states = r.gamma()
        n_rules = r.gamma() - 1
        if extra > 64 or n_states > 4096 or n_rules > 16384:
            return None
        work = _work_symbols(extra)
        wwidth = _width(len(work))
        swidth = _width(n_states)
        states = [f"s{n}" for n in range(n_states)]

        def state() -> str:
            ix = int(r.take(swidth), 2) if swidth else 0
            if ix >= n_states:
                raise _Malformed()
            return states[ix]

        def aux_sym() -> str:
            code = r.take(2)
            if code not in _AUX_CODE:
                raise _Malformed()
            return _AUX_CODE[code]

        def work_sym() -> str:
            ix = int(r.take(wwidth), 2) if wwidth else 0
            if ix >= len(work):
                raise _Malformed()
            return work[ix]

        def move() -> int:
            code = r.take(2)
            if code not in _MOVE_CODE:
                raise _Malformed()
            return _MOVE_CODE[code]

        rules: list[Rule] = []
        for _ in range(n_rules):
            kind = r.take(1)
            frm, to = None, None
            if kind == "0":
                frm = state()
                p = r.take(1)
                a_r, a_w = aux_sym(), aux_sym()
                w_r, w_w = work_sym(), work_sym()
                o_r, o_w = aux_sym(), aux_sym()
                to = state()
                rules.append(ReadWriteRule(
                    frm, (p, a_r, w_r, o_r), (p, a_w, w_w, o_w), to))
            else:
                frm = state()
                p_move = 1 if r.take(1) == "1" else 0
                moves = (p_move, move(), move(), move())
                to = state()
                rules.append(ShiftRule(frm, moves, to))
        if not r.done():
            return None
    except (_Malformed, ValueError):
        return None

    work_alpha = Alphabet(frozenset(_work_symbols(extra)), BIT_BLANK)
    all_states, halt = rule_states(rules, states)
    m = Machine(f"t_{_GENERAL_PREFIX}{body}"[:40], (BITS, BITS, work_alpha, BITS),
                all_states, "s0", halt, tuple(rules), output_tape=4)
    if domain_conflicts(m.rules):
        return None
    return m


def serialize_index(m: Machine) -> int:
    """Index of a prefix-convention machine under the general grammar.

    The machine must have four tapes with the standard alphabets (work
    extras are renamed canonically), a read-only program tape, and no
    left shifts on the program tape.  Behaviour is preserved; state and
    symbol names are not.
    """
    if m.tape_count != 4:
        raise MachineError("prefix machines have exactly 4 tapes")
    base = {BIT_BLANK, "0", "1"}
    for t in (0, 1, 3):
        if m.alphabets[t].symbols != frozenset(base) or m.alphabets[t].blank != BIT_BLANK:
            raise MachineError(f"tape {t + 1} must use the binary alphabet")
    extras = sorted(m.alphabets[2].symbols - base)
    if m.alphabets[2].blank != BIT_BLANK:
        raise MachineError("work tape blank must be '_'")
    work = _work_symbols(len(extras))
    rename = {BIT_BLANK: BIT_BLANK, "0": "0", "1": "1"}
    rename.update({s: f"w{n}" for n, s in enumerate(extras)})
    states = sorted(m.states)
    states.remove(m.start_state)
    states.insert(0, m.start_state)
    state_ix = {s: n for n, s in enumerate(states)}
    swidth = _width(len(states))
    wwidth = _width(len(work))
    work_ix = {s: n for n, s in enumerate(work)}

    def gamma(n: int) -> str:
        b = bin(n)[2:]
        return "0" * (len(b) - 1) + b

    def fixed(ix: int, width: int) -> str:
        return format(ix, f"0{width}b") if width else ""

    bits = [gamma(len(extras) + 1), gamma(len(states)), gamma(len(m.rules) + 1)]
    for rule in m.rules:
        if isinstance(rule, ReadWriteRule):
            if rule.reads[0] != rule.writes[0]:
                raise MachineError("program tape is read-only")
            if rule.reads[0] not in ("0", "1"):
                raise MachineError("program tape reads must be bits")
            bits.append("0")
            bits.append(fixed(state_ix[rule.from_state], swidth))
            bits.append(rule.reads[0])
            bits.append(_AUX_ENC[rule.reads[1]] + _AUX_ENC[rule.writes[1]])
            bits.append(fixed(work_ix[rename[rule.reads[2]]], wwidth)
                        + fixed(work_ix[rename[rule.writes[2]]], wwidth))
            bits.append(_AUX_ENC[rule.reads[3]] + _AUX_ENC[rule.writes[3]])
            bits.append(fixed(state_ix[rule.to_state], swidth))
        else:
            if rule.moves[0] == -1:
                raise MachineError("program tape is one-way")
            bits.append("1")
            bits.append(fixed(state_ix[rule.from_state], swidth))
            bits.append("1" if rule.moves[0] == 1 else "0")
            bits.append(_MOVE_ENC[rule.moves[1]] + _MOVE_ENC[rule.moves[2]]
                        + _MOVE_ENC[rule.moves[3]])
            bits.append(fixed(state_ix[rule.to_state], swidth))
    return index_of_string(_GENERAL_PREFIX + "".join(bits))


@lru_cache(maxsize=4096)
def enumerate_machine(i: int) -> Machine:
    """Total enumeration: malformed descriptions give the diverging machine."""
    desc = string_of_index(i)
    builtin = builtin_machines().get(desc)
    if builtin is not None:
        return builtin
    if desc.startswith(_GENERAL_PREFIX):
        parsed = _parse_general(desc[len(_GENERAL_PREFIX):])
        if parsed is not None:
            return parsed
    return _diverger()


# ---------------------------------------------------------------------------
# Prefix-tape execution


def run_prefix(m: Machine, bits: str, aux: str, budget: int) -> PrefixRunResult:
    """Simulate a prefix machine on a finite program-bit prefix.

    :func:`machines.execute` with tape 1 bounded by ``bits``: the run
    ends TapeExhausted the moment the machine scans a cell beyond the
    supplied bits (scanning happens whenever the current state has
    ReadWrite rules).  ``program`` is the prefix of bits actually scanned.
    """
    if m.tape_count != 4:
        raise MachineError(f"prefix machine needs 4 tapes, got {m.tape_count}")
    return resume_run(_fresh(m, aux, 0), bits, budget)[0]


class PausedRun(NamedTuple):
    """A prefix run stopped TapeExhausted, to be continued on more bits.

    It holds what the run has computed: machine ``machine``, its state,
    tapes 2-4 and heads, the steps taken and the program bits scanned,
    index included.  Tape 1 is not kept, since :func:`machines.execute`
    padded it with a blank where the bits ran out: it is rebuilt from
    the longer bits, which must extend the bits the run was paused on.
    :func:`resume_run` copies the tapes, so one paused run continues any
    number of extensions.
    """

    machine: Machine
    state: str
    tapes: tuple[list[str], ...]
    heads: tuple[int, ...]
    steps: int
    scanned: int


def _fresh(m: Machine, aux: str, index_len: int) -> PausedRun:
    """Machine ``m`` about to start after an index of ``index_len`` bits,
    its tape-1 head on the first bit past the index."""
    return PausedRun(m, m.start_state, (list(aux), [], []),
                     (index_len, 0, 0, 0), index_len, index_len)


def machine_starts(max_len: int, aux: str) -> list[tuple[str, PausedRun]]:
    """(<i>, machine i about to start on ``aux``) for every i whose code
    has at most ``max_len`` bits and whose machine is not the diverger,
    in (length, lexicographic) order of the codes.

    Every other string of the index layer is fixed by the code alone: a
    prefix of some <i> is tape-exhausted, and a malformed pair or an
    index naming the diverger spins out.  Resuming a start on a string
    beginning with its code gives :func:`universal_run`'s result for it
    at any budget of at least ``len(<i>)`` steps.
    """
    return [(code, _fresh(m, aux, len(code))) for code, m in _described(max_len)]


@lru_cache(maxsize=None)
def _described(max_len: int) -> tuple[tuple[str, Machine], ...]:
    # Only a builtin or a general-grammar description can name a machine
    # other than the diverger (see enumerate_machine): skip the rest
    # undecoded.
    out = []
    for desc in all_bit_strings((max_len - 2) // 2) if max_len >= 2 else ():
        if desc not in builtin_machines() and not desc.startswith(_GENERAL_PREFIX):
            continue
        i = index_of_string(desc)
        m = enumerate_machine(i)
        if not is_diverger(m):
            out.append((encode_index(i), m))
    return tuple(out)


def resume_run(paused: PausedRun, bits: str,
               budget: int) -> tuple[PrefixRunResult, PausedRun | None]:
    """Continue ``paused`` on ``bits`` within ``budget`` steps in all.

    For any budget >= ``paused.steps`` this gives the result of running
    ``bits`` from scratch, steps included, because the paused
    configuration is where that run stood after ``paused.steps`` steps.
    A run that exhausts ``bits`` comes back with its own paused run;
    any other outcome with None.
    """
    m = paused.machine
    tapes = [list(bits), *map(list, paused.tapes)]
    heads = list(paused.heads)
    outcome, state, taken, scanned = execute(
        m, paused.state, tapes, heads, budget - paused.steps, bounded=True)
    steps = paused.steps + taken
    scanned = scanned or paused.scanned
    output = blank_free_prefix(tapes[3], m.alphabets[3].blank)
    result = PrefixRunResult(outcome, bits[:scanned], output, steps)
    if outcome != TAPE_EXHAUSTED:
        return result, None
    return result, PausedRun(m, state, tuple(tapes[1:]), tuple(heads),
                             steps, scanned)


# ---------------------------------------------------------------------------
# The universal interpreter


@dataclass(frozen=True)
class UniversalMachine:
    digest: str


@lru_cache(maxsize=1)
def universal_machine() -> UniversalMachine:
    from .machfmt import serialize_machine
    payload = ["index-scheme doubled-bits-01", "grammar rev-grammar-v1"]
    for desc in sorted(builtin_machines()):
        payload.append(f"builtin {desc}")
        payload.append(serialize_machine(builtin_machines()[desc]))
    payload.append(serialize_machine(_diverger()))
    payload.append(f"accounting decode-per-bit sim-per-step "
                   f"rev {LINEAR_A} {LINEAR_B} {LINEAR_C}")
    digest = hashlib.sha256("\n".join(payload).encode()).hexdigest()
    return UniversalMachine(digest)


def universal_run(bits: str, aux: str = "", budget: int = 0) -> PrefixRunResult:
    """Decode <i> from the bit stream, then simulate machine i.

    Steps: one per bit consumed during index decoding plus one per
    simulated step.  Malformed indices and malformed descriptions
    diverge (never a parse error) so halting programs stay prefix-free.
    """
    if budget < 0:
        raise MachineError("budget must be >= 0")
    # One step per bit read; the decoder sees only the bits the budget
    # lets it read, and exhaustion is checked before the budget, like the
    # per-step order in machines.execute.
    readable = bits[:budget]
    try:
        decoded = decode_index(readable)
    except MalformedIndex as exc:
        # The pair "10" diverges, burning the remaining budget.  Machine
        # runs that diverge in a shift-only cycle (the diverger's
        # included) end the same way inside machines.execute.
        return PrefixRunResult(BUDGET_EXCEEDED, bits[:exc.consumed], "", budget)
    if decoded is None:
        outcome = TAPE_EXHAUSTED if len(readable) == len(bits) else BUDGET_EXCEEDED
        return PrefixRunResult(outcome, readable, "", len(readable))
    i, pos = decoded
    return resume_run(_fresh(enumerate_machine(i), aux, pos), bits, budget)[0]


def reversible_view(u: PrefixRunResult, budget: int) -> PrefixRunResult:
    """Map a forward interpreter result to the reversible emulation's.

    A halted run takes linear_bound(...) steps and outputs the pair
    (program, output); non-halting outcomes carry over (the emulation is
    only slower, so a forward non-halt within the budget implies a
    reversible non-halt within the same budget)."""
    if u.outcome == HALTED:
        rev = linear_bound(u.steps, len(u.program), len(u.output))
        if rev <= budget:
            return PrefixRunResult(HALTED, u.program, u.output, rev,
                                   pair=(u.program, u.output))
        return PrefixRunResult(BUDGET_EXCEEDED, u.program, "", budget)
    if u.outcome == TAPE_EXHAUSTED:
        return PrefixRunResult(TAPE_EXHAUSTED, u.program, "",
                               min(budget, LINEAR_A * u.steps))
    return PrefixRunResult(BUDGET_EXCEEDED, u.program, "", budget)


def universal_reversible_run(bits: str, aux: str = "",
                             budget: int = 0) -> PrefixRunResult:
    """Reversible counterpart of universal_run, realized through the
    transform's step accounting (see module docstring)."""
    return reversible_view(universal_run(bits, aux, budget), budget)


def print_program(x: str) -> str:
    """Program making the literal printer output x."""
    return encode_index(PRINT_INDEX) + "".join(c + c for c in x) + "01"


def print_steps(x: str) -> int:
    """Steps of the run of ``print_program(x)``, on any aux: it halts
    within a budget D exactly when ``print_steps(x) <= D``."""
    return 4 * len(x) + 7


def all_bit_strings(max_len: int) -> list[str]:
    out = [""]
    layer = [""]
    for _ in range(max_len):
        layer = [w + b for w in layer for b in "01"]
        out.extend(layer)
    return out
