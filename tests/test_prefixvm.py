"""Program-tape semantics, the enumeration, and the universal interpreter."""

import ast
import hashlib
import re
from collections import Counter
from itertools import groupby, product
from pathlib import Path

import pytest

import revlab
from oracles import (
    assert_run_from_matches_stepping,
    bit_strings,
    gamma,
    honest_prefix_results,
    honest_trace,
    prefix_free_check,
    prefix_start,
    serialize_index,
)
from revlab.corpus import corpus, corpus_entry
from revlab.machines import (
    Alphabet,
    Configuration,
    Machine,
    MachineError,
    QuintupleMachine,
    ReadWriteRule,
    ShiftRule,
    normalize_to_quadruples,
    validate_machine,
)
from revlab.prefixvm import (
    BUDGET_EXCEEDED,
    HALT_INDEX,
    HALTED,
    PRINT_INDEX,
    SLOW_ONES_INDEX,
    SLOW_ZEROS_INDEX,
    TAPE_EXHAUSTED,
    MalformedIndex,
    PrefixRunResult,
    _described,
    _fresh,
    _parse_general,
    _prefix_machine,
    _slow_pause,
    aux_copy_machine,
    builtin_machines,
    closed_halters,
    closed_producers,
    closed_subtrees,
    copy3_machine,
    decode_index,
    diverger_machine,
    encode_index,
    enumerate_machine,
    halt_machine,
    index_of_string,
    is_diverger,
    machine_starts,
    print_machine,
    print_program,
    print_steps,
    resume_run,
    run_prefix,
    slow_repeater_machine,
    slow_steps,
    string_of_index,
    universal_machine,
    universal_reversible_run,
    universal_run,
)
from revlab.reversal import bennett_transform, linear_bound


# --- codec --------------------------------------------------------------------

def test_string_bijection_roundtrip():
    for i in range(2000):
        assert index_of_string(string_of_index(i)) == i


def test_index_code_roundtrip():
    for i in range(500):
        code = encode_index(i)
        assert decode_index(code) == (i, len(code))
        assert decode_index(code + "10101") == (i, len(code))


def test_decode_index_matches_reading_pair_by_pair():
    def by_pairs(bits):
        desc = ""
        for pos in range(0, len(bits) - 1, 2):
            pair = bits[pos:pos + 2]
            if pair == "01":
                return index_of_string(desc), pos + 2
            if pair == "10":
                return "malformed", pos + 2
            desc += pair[0]
        return None

    for bits in bit_strings(12):
        try:
            got = decode_index(bits)
        except MalformedIndex as exc:
            got = "malformed", exc.consumed
        assert got == by_pairs(bits), bits


def test_index_code_prefix_free():
    codes = sorted(encode_index(i) for i in range(300))
    for a, b in zip(codes, codes[1:]):
        assert not (b.startswith(a) and a != b)


def test_known_encodings():
    assert encode_index(0) == "01"
    assert encode_index(1) == "0001"
    assert encode_index(2) == "1101"
    assert encode_index(3) == "000001"


# --- run_prefix ------------------------------------------------------------------

def test_immediate_halt_scans_nothing():
    result = run_prefix(halt_machine(), "0110", "", 100)
    assert result.outcome == HALTED
    assert result.program == ""
    assert result.steps == 0


def test_copy3_hand_trace():
    # c1 reads bit0 and writes it, shift; c2 bit1; shift; c3 bit2 -> done.
    # Five steps, three bits scanned.
    result = run_prefix(copy3_machine(), "10111", "", 100)
    assert result.outcome == HALTED
    assert result.program == "101"
    assert result.output == "101"
    assert result.steps == 5


def test_copy3_tape_exhausted():
    result = run_prefix(copy3_machine(), "10", "", 100)
    assert result.outcome == TAPE_EXHAUSTED


def test_print_machine_decodes_payload():
    m = print_machine()
    result = run_prefix(m, "11" + "00" + "11" + "01", "", 100)
    assert result.outcome == HALTED
    assert result.output == "101"
    assert result.program == "11001101"


def test_print_machine_malformed_pair_diverges():
    result = run_prefix(print_machine(), "10", "", 500)
    assert result.outcome == BUDGET_EXCEEDED
    assert result.steps == 500


def test_slow_repeater_outputs():
    m = slow_repeater_machine("0")
    for k, n in ((0, 1), (1, 3), (2, 7), (3, 15)):
        result = run_prefix(m, "0" * k + "1", "", 100_000)
        assert result.outcome == HALTED, k
        assert result.output == "0" * n, k
        assert result.program == "0" * k + "1"
    ones = slow_repeater_machine("1")
    assert run_prefix(ones, "01", "", 100_000).output == "111"


def test_slow_repeater_is_slow():
    m = slow_repeater_machine("0")
    fast = run_prefix(m, "1", "", 100_000).steps
    slow = run_prefix(m, "0001", "", 100_000).steps
    assert slow > 10 * fast


def test_aux_copy_copies_aux():
    result = run_prefix(aux_copy_machine(), "0", "1011", 1000)
    assert result.outcome == HALTED
    assert result.output == "1011"
    assert result.program == "0"  # parks on one program bit


def test_prefix_cursor_is_monotone_and_program_prefix():
    for bits in ("", "0", "10", "110011", "000111"):
        result = run_prefix(print_machine(), bits, "", 200)
        assert bits.startswith(result.program)


def test_run_prefix_matches_honest_stepping():
    machines = list(builtin_machines().values()) + [diverger_machine()]
    outcomes = set()
    cases = 0
    for m in machines:
        for bits in bit_strings(6):
            for aux in ("", "1011"):
                honest = honest_prefix_results(m, bits, aux, 400)
                for budget in (0, 1, 2, 7, 400):
                    r = run_prefix(m, bits, aux, budget)
                    got = (r.outcome, r.program, r.output, r.steps)
                    assert got == honest[min(budget, len(honest) - 1)], \
                        (m.name, bits, aux, budget)
                    outcomes.add(r.outcome)
                    cases += 1
    assert cases == 8890
    assert outcomes == {HALTED, BUDGET_EXCEEDED, TAPE_EXHAUSTED}


def read_bit(state, bit, out, to):
    """Rules reading program bit ``bit`` under any aux symbol, writing
    ``out`` to the output cell."""
    return [ReadWriteRule(state, (bit, a, "_", "_"), (bit, a, "_", out), to)
            for a in ("0", "1", "_")]


def four_tape(name, start, rules):
    return _prefix_machine(name, (), rules, start)


def spin_machines():
    """Hand-built prefix machines around shift-only cycles, with their
    expected spin states."""
    # First bit 1: write it, then a one-state shift tail into a 2-cycle
    # moving the program, work and output heads.  First bit 0: write it,
    # shift, then halt on 0 or re-read the next bit from the start on 1.
    tail = four_tape("tail_into_cycle", "r", [
        *read_bit("r", "0", "0", "m"), *read_bit("r", "1", "1", "t"),
        ShiftRule("m", (1, 0, 0, 1), "q"),
        *read_bit("q", "0", "_", "done"), *read_bit("q", "1", "_", "r"),
        ShiftRule("t", (0, 0, 1, 0), "c1"),
        ShiftRule("c1", (1, 0, 1, 1), "c2"),
        ShiftRule("c2", (1, 0, -1, 1), "c1"),
    ])
    # The start state leads into a shift cycle listed before it, so the
    # cycle is known when the tail is walked; the reader is unreachable.
    start = four_tape("spinning_start", "s0", [
        ShiftRule("s1", (0, 0, 0, 1), "s2"),
        ShiftRule("s2", (1, 0, -1, 0), "s1"),
        ShiftRule("s0", (1, 0, 1, 0), "s1"),
        *read_bit("r", "0", "0", "done"),
    ])
    # A shift chain back to the reader is no spin.
    chain = four_tape("chain_back_to_read", "r", [
        *read_bit("r", "0", "0", "a"), *read_bit("r", "1", "_", "done"),
        ShiftRule("a", (1, 0, 1, 1), "b"),
        ShiftRule("b", (0, 0, -1, 0), "r"),
    ])
    return [(tail, {"t", "c1", "c2"}), (start, {"s0", "s1", "s2"}),
            (chain, set())]


def spin_entry(m, bits, aux, budget):
    """Steps taken before the last stretch of shift-only steps of at most
    ``budget`` honest steps: where a run that ends spinning enters its
    spin."""
    shifts = {r.from_state for r in m.rules if isinstance(r, ShiftRule)}
    trace = honest_trace(m, prefix_start(m, bits, aux), budget)
    return max((c.steps + 1 for c in trace[:budget] if c.state not in shifts),
               default=0)


def test_spin_states():
    for desc, m in builtin_machines().items():
        assert m._compiled.spins == ({"spin"} if desc == "1" else set()), desc
    assert diverger_machine()._compiled.spins == {"spin"}
    for m, spins in spin_machines():
        assert m._compiled.spins == spins, m.name


def test_spin_fast_path_matches_honest_stepping():
    # Budgets 0, 400 and the honest spin entry e, e - 1 and e + 1 (at
    # most 401), for every string up to 10 bits (6 for the builtins
    # without a spin), all read from one honest run.  A string extending
    # one whose run did not exhaust the tape within 400 steps never reads
    # past that string, so it shares its honest reference.
    machines = [(m, 10 if desc == "1" else 6)
                for desc, m in builtin_machines().items()]
    machines += [(diverger_machine(), 10)]
    machines += [(m, 10) for m, _ in spin_machines()]
    spun = set()
    cases = 0
    for m, max_len in machines:
        for aux in ("", "1011"):
            ref = {}
            for bits in bit_strings(max_len):
                parent = ref.get(bits[:-1]) if bits else None
                if parent is not None and parent[400][0] != TAPE_EXHAUSTED:
                    ref[bits] = parent
                else:
                    e = spin_entry(m, bits, aux, 400)
                    honest = honest_prefix_results(m, bits, aux, 401)
                    ref[bits] = {b: honest[min(b, len(honest) - 1)]
                                 for b in {0, 400, max(e - 1, 0), e, e + 1}}
                for budget, want in ref[bits].items():
                    r = run_prefix(m, bits, aux, budget)
                    assert (r.outcome, r.program, r.output, r.steps) == want, \
                        (m.name, bits, aux, budget)
                    cases += 1
                if ref[bits][400][0] == BUDGET_EXCEEDED and m._compiled.spins:
                    spun.add(m.name)
    assert cases == 89982
    assert spun == {"print", "diverger", "tail_into_cycle", "spinning_start"}


def scan_states(m):
    """States with an entry compiled as a scan loop."""
    return {s for s, table in m._compiled.rw.items()
            if any(entry[2] for entry in table.values())}


def one_tape(name, start, rules, symbols=("0", "1")):
    states = {start} | {r.from_state for r in rules} | {r.to_state for r in rules}
    return Machine(name, (Alphabet.of(*symbols, blank="_"),), frozenset(states),
                   start, frozenset(), tuple(rules))


def rw1(f, a, b, t):
    return ReadWriteRule(f, (a,), (b,), t)


def scan_machines():
    """Hand-built machines around scan loops, each with a configuration
    to run it from and a cap on the honest steps to compare."""
    # A rewriting left scan that clamps at cell 0 and then spins there.
    clamp = one_tape("clamp_left", "L", [
        rw1("L", "0", "1", "T"), rw1("L", "1", "1", "T"), ShiftRule("T", (-1,), "L")])
    # A right scan onto fresh blanks, writing each: only the budget ends it.
    fresh = one_tape("right_onto_blanks", "R", [
        rw1("R", "0", "0", "T"), rw1("R", "_", "1", "T"), ShiftRule("T", (1,), "R")])
    # A flipping scan that halts on the first blank.
    flip = one_tape("flip", "S", [
        rw1("S", "0", "1", "T"), rw1("S", "1", "0", "T"), ShiftRule("T", (1,), "S")])
    # Identity scans: rightwards over 0s and blanks, each 1 rewritten to
    # 0 by a one-cell loop of its own; leftwards over 0s, clamping at 0.
    right = one_tape("right_identity", "R", [
        rw1("R", "0", "0", "T"), rw1("R", "_", "_", "T"), ShiftRule("T", (1,), "R"),
        rw1("R", "1", "0", "U"), ShiftRule("U", (1,), "R")])
    left = one_tape("left_identity", "L", [
        rw1("L", "0", "0", "T"), ShiftRule("T", (-1,), "L")])
    # Two loops of one state on one tape: a and c leave through the
    # right shift, b through the left one; d halts.
    two = one_tape("two_loops", "S", [
        rw1("S", "a", "a", "Tr"), rw1("S", "b", "c", "Tl"), rw1("S", "c", "b", "Tr"),
        ShiftRule("Tr", (1,), "S"), ShiftRule("Tl", (-1,), "S")],
        symbols=("a", "b", "c", "d"))
    # A scan of tape 2 under fixed tape-1 reads, ended by a write to
    # tape 1.  The first rule shifts through T too, but it writes tape 1,
    # so it is no scan.
    ab = Alphabet.of("0", "1", blank="_")
    two_tape = Machine("two_tape", (ab, ab), frozenset({"S", "T", "U"}), "S",
                       frozenset(), (
        ReadWriteRule("S", ("0", "1"), ("1", "1"), "T"),
        ReadWriteRule("S", ("1", "1"), ("1", "0"), "T"),
        ReadWriteRule("S", ("1", "0"), ("1", "0"), "T"),
        ShiftRule("T", (0, 1), "S"),
        ReadWriteRule("S", ("1", "_"), ("0", "_"), "U"),
        ShiftRule("U", (0, -1), "S")))

    def at(m, tapes, heads):
        return Configuration.make(m.start_state, tuple(map(tuple, tapes)), heads,
                                  0, m.blanks())

    # The long ones scan 64 cells or more, past where execute stops
    # stepping cell by cell: identity and rewriting maps both ways, a
    # clamp at cell 0, stops far ahead (right_identity's first 1, flip's
    # blank, with cells past it the map would change) and on the tape's
    # last cell (its second 1), then a scan onto fresh blanks.
    return [
        (clamp, at(clamp, ["0101"], (3,)), 30),
        (fresh, at(fresh, ["00"], (0,)), 31),
        (flip, at(flip, ["0110100"], (0,)), 30),
        (clamp, at(clamp, ["0110" * 17], (67,)), 140),
        (flip, at(flip, ["0110100" * 10 + "_" + "0110"], (0,)), 150),
        (right, at(right, ["0" * 66 + "1000" + "1"], (0,)), 172),
        (left, at(left, ["0" * 66], (65,)), 136),
        (two, at(two, ["aabbcaad"], (0,)), 60),
        (two_tape, at(two_tape, ["0", "1101"], (0, 0)), 60),
    ]


def test_scan_loop_states():
    for desc, m in builtin_machines().items():
        want = {"dc", "dd", "dg", "dh"} if desc in ("01", "10") else set()
        assert scan_states(m) == want, m.name
    expected = {"flipper": {"s"}, "identity": {"s"}, "appender": {"s"},
                "parity": {"e", "o", "we", "wo"},
                "ones_doubler": {"B", "F", "L", "R"},
                "runner": set(), "bounce": set(), "spinner": set()}
    for name, want in expected.items():
        assert scan_states(corpus_entry(name).machine) == want, name
    # The cell map is keyed by the shift state too: one map per loop.
    slow = slow_repeater_machine("1")
    assert slow._compiled.rw["dh"][("0", "1", "Y", "_")][2] == \
        (2, -1, {"Y": "O", "OM": "O"})
    hand_built = {m.name: m._compiled.rw for m, _, _ in scan_machines()}
    two = hand_built["two_loops"]["S"]
    assert two[("a",)][2] is two[("c",)][2] == (0, 1, {"a": "a", "c": "b"})
    assert two[("b",)][2] == (0, -1, {"b": "c"})
    two_tape = hand_built["two_tape"]["S"]
    assert two_tape[("0", "1")][2] is None
    assert two_tape[("1", "1")][2] is two_tape[("1", "0")][2] == \
        (1, 1, {"1": "0", "0": "0"})


def test_fused_shift_entries():
    # An entry carries its target's shift entry exactly when the target
    # is a live shift state and the entry is no scan loop.
    machines = [*builtin_machines().values(), diverger_machine()]
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        machines += [m, bennett_transform(m).machine]
    kinds = set()
    for m in machines:
        tables = m._compiled
        for table in tables.rw.values():
            for _, to, scan, then in table.values():
                fused = scan is None and to in tables.live
                assert then is (tables.live[to] if fused else None), (m.name, to)
                kinds.add((fused, scan is not None, to in tables.spins))
    # Fused, scan and plain entries all occur, and some plain ones enter
    # a spin.
    assert kinds == {(True, False, False), (False, True, False),
                     (False, False, False), (False, False, True)}


def test_scan_loop_matches_honest_stepping():
    # Every budget from 0 to the honest step count, so each scan is cut
    # after an odd and an even number of its steps.  Slow zeros and ones
    # scan their work tape; the skipper scans the program tape, onto its
    # end (a blank there is in its cell map, never read honestly).
    skipper = four_tape("skipper", "S", [
        *read_bit("S", "1", "_", "T"), *read_bit("S", "_", "_", "T"),
        *read_bit("S", "0", "1", "E"),
        ShiftRule("T", (1, 0, 0, 0), "S"), ShiftRule("E", (1, 0, 0, 1), "S")])
    assert scan_states(skipper) == {"S"}
    prefix_cases = [(m, "0" * k + "1") for m in (slow_repeater_machine("0"),
                                                 slow_repeater_machine("1"))
                    for k in range(4)]
    prefix_cases += [(skipper, bits) for bits in ("", "1", "111", "11011", "0111")]
    prefix_cases += [(slow_repeater_machine("0"), "000")]
    outcomes = set()
    for m, bits in prefix_cases:
        for aux in ("", "1011"):
            honest = honest_prefix_results(m, bits, aux, 10_000)
            for budget in range(len(honest) + 2):
                r = run_prefix(m, bits, aux, budget)
                want = honest[min(budget, len(honest) - 1)]
                assert (r.outcome, r.program, r.output, r.steps) == want, \
                    (m.name, bits, aux, budget)
            outcomes.add((m.name, honest[-1][0]))
    assert (("skipper", TAPE_EXHAUSTED) in outcomes
            and ("slow_zeros", TAPE_EXHAUSTED) in outcomes
            and ("slow_ones", HALTED) in outcomes)
    # Unbounded runs from every configuration of the trace, every budget.
    for m, c0, n in scan_machines():
        assert_run_from_matches_stepping(m, honest_trace(m, c0, n), range(n + 1))


def test_long_prefix_scans_match_honest_stepping():
    # The slow repeaters walk their work tape in stretches of 120 steps
    # or more (60 cells and up) from step 5,388 on: at k = 5 one rewriting
    # left scan, at k = 6 it, then an identity right and an identity left
    # scan.  Both machines take the same steps on every aux, so the
    # stretches come from one trace of the first 5,800 steps; budgets cut
    # each just past execute's first cells one by one, after an odd and
    # an even number of its steps, and one step short of its end.
    cap = 5800
    loops = {s: s[:2] for s in ("dc", "dcm", "dd", "ddm", "dg", "dgm", "dh", "dhm")}
    zeros, ones = slow_repeater_machine("0"), slow_repeater_machine("1")
    for k, kinds in ((5, ["dh"]), (6, ["dh", "dc", "dd"])):
        bits = "0" * k + "1"
        configs = honest_trace(zeros, prefix_start(zeros, bits, ""), cap)
        stretches = []
        for loop, steps in groupby(range(len(configs) - 1),
                                   key=lambda j: loops.get(configs[j].state)):
            steps = list(steps)
            if loop and len(steps) >= 120:
                stretches.append((loop, steps[0], len(steps)))
        assert [loop for loop, _, _ in stretches] == kinds
        budgets = {start + j for _, start, n in stretches
                   for j in (17, n // 2, n // 2 + 1, n - 1)}
        for m in (zeros, ones):
            for aux in ("", "1011"):
                honest = honest_prefix_results(m, bits, aux, cap)
                for budget in budgets:
                    r = run_prefix(m, bits, aux, budget)
                    assert (r.outcome, r.program, r.output, r.steps) == \
                        honest[budget], (m.name, bits, aux, budget)
    # The skipper of the test above, on a 70-bit program prefix: it scans
    # the program tape to the prefix end, or to a 0 far into it.
    skipper = four_tape("skipper", "S", [
        *read_bit("S", "1", "_", "T"), *read_bit("S", "_", "_", "T"),
        *read_bit("S", "0", "1", "E"),
        ShiftRule("T", (1, 0, 0, 0), "S"), ShiftRule("E", (1, 0, 0, 1), "S")])
    for bits in ("1" * 70, "1" * 50 + "0" + "1" * 19):
        for aux in ("", "1011"):
            honest = honest_prefix_results(skipper, bits, aux, 200)
            assert honest[-1] == (TAPE_EXHAUSTED, bits, "1" * bits.count("0"), 140)
            for budget in range(len(honest) + 2):
                r = run_prefix(skipper, bits, aux, budget)
                want = honest[min(budget, len(honest) - 1)]
                assert (r.outcome, r.program, r.output, r.steps) == want, \
                    (bits, aux, budget)
            paused = resume_run(_fresh(skipper, aux, 0), bits, 200)[1]
            assert (paused.scanned, paused.heads[0]) == (70, 70)


def test_prefix_rejects_leftward_program_shift():
    bad = Machine(
        "bad", (print_machine().alphabets), frozenset({"a", "b"}), "a",
        frozenset(), (ShiftRule("a", (-1, 0, 0, 0), "b"),), output_tape=4)
    with pytest.raises(MachineError):
        run_prefix(bad, "0", "", 10)


def test_prefix_rejects_program_write():
    alpha = print_machine().alphabets
    bad = Machine(
        "bad", alpha, frozenset({"a", "b"}), "a", frozenset(),
        (ReadWriteRule("a", ("0", "_", "_", "_"), ("1", "_", "_", "_"), "b"),),
        output_tape=4)
    with pytest.raises(MachineError):
        run_prefix(bad, "0", "", 10)


# --- enumeration -------------------------------------------------------------------

def test_index_zero_is_diverger():
    assert is_diverger(enumerate_machine(0))


def test_builtins_validate():
    for desc, m in builtin_machines().items():
        report = validate_machine(m)
        assert report.ok, (desc, report.errors, report.conflicts)
    assert validate_machine(diverger_machine()).ok


def test_builtin_indices():
    assert enumerate_machine(1).name == "halt"
    assert enumerate_machine(2).name == "print"
    assert enumerate_machine(3).name == "copy3"
    assert enumerate_machine(4).name == "slow_zeros"
    assert enumerate_machine(5).name == "slow_ones"
    assert enumerate_machine(6).name == "aux_copy"


def test_serialize_enumerate_roundtrip_behaviour():
    # The general-grammar image of each builtin behaves identically.
    cases = [
        ("", "", 1000),
        ("10111", "", 1000),
        ("11001101", "", 1000),
        ("001", "", 100_000),
        ("0", "101", 1000),
    ]
    for desc, m in builtin_machines().items():
        i = serialize_index(m)
        again = enumerate_machine(i)
        assert not is_diverger(again), desc
        assert len(again.rules) == len(m.rules)
        for bits, aux, budget in cases:
            assert run_prefix(again, bits, aux, budget) == \
                run_prefix(m, bits, aux, budget), (desc, bits)


def test_described_matches_decoding_every_description():
    # The reference: decode every description whose code fits max_len.
    # The sweep's roots are the same machines but the printer and the
    # slow repeaters, in the same order, each about to start just past
    # its code.
    closed = {encode_index(i) for i in (PRINT_INDEX, SLOW_ZEROS_INDEX, SLOW_ONES_INDEX)}
    for max_len in range(27):
        descs = bit_strings((max_len - 2) // 2) if max_len >= 2 else ()
        want = [(encode_index(i), m) for i in map(index_of_string, descs)
                if not is_diverger(m := enumerate_machine(i))]
        assert _described(max_len) == tuple(want), max_len
        starts = machine_starts(max_len, "")
        assert [(code, start.machine) for code, start in starts] == \
            [(code, m) for code, m in want if code not in closed], max_len
        assert all(start.scanned == start.steps == len(code)
                   for code, start in starts), max_len


def test_distinct_descriptions_distinct_rule_sets():
    machines = [enumerate_machine(i) for i in range(1, 7)]
    rule_sets = [frozenset(m.rules) for m in machines]
    assert len(set(rule_sets)) == len(rule_sets)


def test_general_machines_declare_only_the_states_their_rules_name():
    # The header's state count sets only the index width: a decoded
    # machine declares s0 and the states its rules name, and halts in
    # those of them that no rule leaves.
    general = [m for _, m in _described(30) if m.name.startswith("t_111")]
    images = [enumerate_machine(serialize_index(m)) for m in builtin_machines().values()]
    for m in general + images:
        sources = {r.from_state for r in m.rules}
        named = {"s0", *sources, *(r.to_state for r in m.rules)}
        assert m.states == named, m.name
        assert m.halt_states == named - sources, m.name
    assert (len(general), sum(len(m.states) for m in general)) == (129, 129)
    # Four states in the header, and one rule: s0 shifts nothing into s2.
    shift = "1" + "00" + "0" + "010101" + "10"  # kind, from, program, moves, to
    m = _parse_general(gamma(1) + gamma(4) + gamma(2) + shift)
    assert (m.states, m.halt_states) == ({"s0", "s2"}, {"s2"})


def test_general_grammar_rejects_trailing_bits():
    desc = string_of_index(serialize_index(aux_copy_machine()))
    assert not is_diverger(enumerate_machine(index_of_string(desc)))
    for extra in "01":
        assert is_diverger(enumerate_machine(index_of_string(desc + extra)))


def test_general_grammar_rejects_counts_over_its_limits():
    # Complete bodies at each limit parse; one more is rejected.
    def body(extra, states, rules=()):
        return gamma(extra + 1) + gamma(states) + gamma(len(rules) + 1) + "".join(rules)

    assert _parse_general(body(64, 1)) is not None
    assert _parse_general(body(65, 1)) is None
    assert _parse_general(body(0, 4096)) is not None
    assert _parse_general(body(0, 4097)) is None
    # 16 states and 67 work symbols give 19,296 distinct (state, reads)
    # keys: identity ReadWrite rules on them are forward deterministic.
    rules = [f"0{s:04b}{p}{a}{a}{w:07b}{w:07b}{o}{o}{s:04b}"
             for s in range(16) for p in "01" for a in ("00", "01", "10")
             for w in range(67) for o in ("00", "01", "10")]
    assert len(_parse_general(body(64, 16, rules[:16384])).rules) == 16384
    assert _parse_general(body(64, 16, rules[:16385])) is None


def test_huge_malformed_index_diverges():
    assert is_diverger(enumerate_machine(123456789))


def test_lifted_corpus_machine_roundtrips():
    # A one-tape binary machine lifted onto the output tape serializes and
    # comes back behaviourally identical.
    lifted = lift_to_prefix(corpus_entry("flipper").machine)
    i = serialize_index(lifted)
    again = enumerate_machine(i)
    assert not is_diverger(again)
    for bits in ("0", "1"):
        assert run_prefix(again, bits, "", 500) == run_prefix(lifted, bits, "", 500)


def lift_to_prefix(m: Machine) -> Machine:
    """One-tape binary machine acting on the output tape of a prefix frame."""
    from revlab.prefixvm import BITS, PROG_SYMS, AUX_SYMS
    rules = []
    for r in m.rules:
        if isinstance(r, ReadWriteRule):
            for p in PROG_SYMS:
                for a in AUX_SYMS:
                    rules.append(ReadWriteRule(
                        r.from_state, (p, a, "_", r.reads[0]),
                        (p, a, "_", r.writes[0]), r.to_state))
        else:
            rules.append(ShiftRule(r.from_state, (0, 0, 0, r.moves[0]),
                                   r.to_state))
    return Machine(m.name + "_lifted", (BITS, BITS, BITS, BITS), m.states,
                   m.start_state, m.halt_states, tuple(rules), output_tape=4)


# --- universal interpreter ------------------------------------------------------------

def test_universal_halt_program():
    result = universal_run("0001", "", 1000)
    assert result.outcome == HALTED
    assert result.program == "0001"
    assert result.output == ""
    assert result.steps == 4  # decoding <1> costs its four bits


def test_universal_copy3_composition():
    bits = encode_index(3) + "101" + "0110"  # junk after the payload
    result = universal_run(bits, "", 1000)
    assert result.outcome == HALTED
    assert result.program == encode_index(3) + "101"
    assert result.output == "101"


def test_universal_print_convention():
    # The printer: for every x of at most 8 bits, on any aux,
    # print_program(x) has 2|x| + 6 bits and halts with output x in
    # print_steps(x) = 4|x| + 7 steps, and not a step earlier;
    # closed_producers(x, D) holds exactly that run when it fits D.
    for x, aux in product(bit_strings(8), ("", "1011")):
        p = print_program(x)
        assert (len(p), print_steps(x)) == (2 * len(x) + 6, 4 * len(x) + 7)
        for budget in (print_steps(x) - 1, print_steps(x), 100_000):
            r = universal_run(p, aux, budget)
            if budget < print_steps(x):
                assert (r.outcome, closed_producers(x, budget)) == (BUDGET_EXCEEDED, {}), \
                    (x, aux)
            else:
                assert r == PrefixRunResult(HALTED, p, x, print_steps(x)), (x, aux, budget)
                assert closed_producers(x, budget) == {p: r}, (x, aux, budget)


@pytest.mark.parametrize("aux", ["", "1011"])
def test_slow_subtrees_match_real_runs(aux):
    # The slow repeaters: each record of <i>0^k and <i>0^k1 in
    # closed_subtrees, for every k <= 9, equals the real run at budgets
    # around E(k) and T(k), or is absent exactly when the sweep would not
    # grow it: when its parent's run does not pause within the budget.
    # The real runs resume the run of <i>0^(k-1) paused at E(k-1), which
    # gives universal_run's result (test_resumed_sweep_equals_runs_from_
    # scratch), and a run that ends at step s is the same at every budget
    # >= s, so only runs cut short by the budget are run again.  Their
    # programs are in the sweep's table, so closed_producers never holds
    # one.
    def real(start, bits, whole, budget):
        if start.steps > budget:
            return None
        return whole if whole.steps <= budget else resume_run(start, bits, budget)[0]

    assert [slow_steps(k) for k in range(4)] == [10, 31, 106, 385]
    for index, emit in ((SLOW_ZEROS_INDEX, "0"), (SLOW_ONES_INDEX, "1")):
        code = encode_index(index)
        parent = _fresh(enumerate_machine(index), aux, len(code))
        for k in range(10):
            zeros, ones = code + "0" * k, code + "0" * k + "1"
            paused_zeros, paused = resume_run(parent, zeros, 10 ** 9)
            ones_run, _ = resume_run(paused, ones, 10 ** 9)
            assert paused_zeros == PrefixRunResult(TAPE_EXHAUSTED, zeros, "", _slow_pause(k))
            assert ones_run == PrefixRunResult(HALTED, ones, emit * (2 ** (k + 1) - 1),
                                               slow_steps(k))
            for budget in (_slow_pause(k) - 1, _slow_pause(k), _slow_pause(k) + 1,
                           slow_steps(k) - 1, slow_steps(k), 100_000):
                for bits, start, whole in ((zeros, parent, paused_zeros),
                                           (ones, paused, ones_run)):
                    got = dict(closed_subtrees(len(bits), budget)).get(bits)
                    assert got == real(start, bits, whole, budget), (bits, budget)
                assert ones not in closed_producers(ones_run.output, budget)
            parent = paused


def test_closed_halters_count_printer_runs():
    # closed_halters: the printer's programs of at most L bits that halt
    # within D, counted over every x with 2|x| + 6 <= 40.
    runs = Counter((len(print_program(x)), print_steps(x)) for x in bit_strings(17))
    for budget in (0, 6, 7, 10, 11, 38, 39, 75, 100_000):
        for max_len in range(41):
            want = sum(c for (n, steps), c in runs.items() if n <= max_len and steps <= budget)
            assert closed_halters(max_len, budget) == want, (max_len, budget)


def test_depth_and_cli_name_no_closed_form_family():
    # The facts about the printer and the slow repeaters live in prefixvm
    # alone: depth and cli import only the generic closed_* names.
    family = re.compile(r"print_.*|slow_.*|_PRINT_CODE|_SLOW_CODES|PRINT_INDEX|SLOW_.*_INDEX")
    for module in ("depth.py", "cli.py"):
        tree = ast.parse((Path(revlab.__file__).parent / module).read_text())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "prefixvm"
                 for alias in node.names]
        assert names, module
        assert [n for n in names if family.fullmatch(n)] == [], module


def test_universal_malformed_index_diverges():
    result = universal_run("10", "", 777)
    assert result.outcome == BUDGET_EXCEEDED
    assert result.steps == 777


def test_universal_diverger_fast_path_matches_honest_simulation():
    # "01" decodes to index 0, the diverging machine; the fast path must be
    # bit-identical to honestly stepping it.
    for budget in (2, 3, 10, 57):
        fast = universal_run("01", "", budget)
        outcome, _, _, steps = honest_prefix_results(diverger_machine(), "", "",
                                                     budget - 2)[-1]
        assert fast.outcome == BUDGET_EXCEEDED
        assert fast.steps == budget
        assert fast.program == "01"
        assert outcome == BUDGET_EXCEEDED
        assert fast.steps == 2 + steps


def test_universal_spin_takes_no_steps():
    # The printer's malformed pair "10" spins; stepping 10**12 steps would
    # never finish.
    r = universal_run("110110", "", 10**12)
    assert (r.outcome, r.program, r.output, r.steps) == \
        (BUDGET_EXCEEDED, "110110", "", 10**12)


def test_universal_budget_cases():
    assert universal_run("0001", "", 0).outcome == BUDGET_EXCEEDED
    assert universal_run("0001", "", 3).outcome == BUDGET_EXCEEDED
    assert universal_run("0001", "", 4).outcome == HALTED  # halt at budget
    assert universal_run("", "", 10).outcome == TAPE_EXHAUSTED
    assert universal_run("0", "", 10).outcome == TAPE_EXHAUSTED


def test_universal_determinism_including_steps():
    for bits in bit_strings(8):
        a = universal_run(bits, "", 500)
        b = universal_run(bits, "", 500)
        assert a == b


def test_universal_run_fingerprint():
    # Pins every result field over all programs up to 10 bits, both aux
    # values and budgets around the decoding and simulation boundaries.
    h = hashlib.sha256()
    for budget in (0, 1, 2, 3, 4, 5, 8, 17, 100, 3000):
        for aux in ("", "1011"):
            for bits in bit_strings(10):
                r = universal_run(bits, aux, budget)
                h.update(f"{bits}|{aux}|{budget}|{r.outcome}|{r.program}|"
                         f"{r.output}|{r.steps}\n".encode())
    assert h.hexdigest() == \
        "f316165b59e6e8ae2165e25b6aa1b9b9f07531510f99e1c02b3702107caaf323"


def _started(bits, aux, budget):
    """Run ``bits`` from machine i about to start after its code <i>."""
    i, pos = decode_index(bits)
    return resume_run(_fresh(enumerate_machine(i), aux, pos), bits, budget)


def _resumed_tree(bits, aux, budget, extra):
    """Every extension of ``bits`` by up to ``extra`` bits, each resumed
    from its parent's paused run, or from the run its parent resumed
    when the parent did not pause, mapped to its result."""
    r, paused = _started(bits, aux, budget)
    out, layer = {bits: r}, [(bits, paused)]
    for _ in range(extra):
        grown = []
        for w, parent in layer:
            for b in "01":
                r, paused = resume_run(parent, w + b, budget)
                out[w + b] = r
                grown.append((w + b, paused or parent))
        layer = grown
    return out


def test_resumed_run_equals_run_from_scratch():
    # Slow zeros paused on a growing payload, and the skipper, each
    # resumed under every budget from its own first pause's steps up.
    # The skipper's program head moves two cells past the bit it read,
    # so its next pause has scanned no new bit.
    skipper = four_tape("skipper", "s0", [
        *read_bit("s0", "0", "_", "s1"), *read_bit("s0", "1", "_", "s1"),
        ShiftRule("s1", (1, 0, 0, 0), "s2"), ShiftRule("s2", (1, 0, 0, 0), "s3"),
        *read_bit("s3", "0", "0", "s4"), *read_bit("s3", "1", "1", "s4")])
    for prefix in (encode_index(SLOW_ZEROS_INDEX) + "000",
                   encode_index(serialize_index(skipper))):
        paused = _started(prefix, "1", 10_000)[1]
        for budget in (paused.steps, paused.steps + 1, paused.steps + 40, 10_000):
            for bits, r in _resumed_tree(prefix, "1", budget, 3).items():
                assert r == universal_run(bits, "1", budget), (bits, budget)


def test_universal_aux_conditional():
    bits = encode_index(6) + "0"
    result = universal_run(bits, "1101", 1000)
    assert result.outcome == HALTED
    assert result.output == "1101"


# --- reversible interpreter ------------------------------------------------------------

def test_reversible_pairs_every_halting_run():
    for bits in bit_strings(9):
        u = universal_run(bits, "", 2000)
        r = universal_reversible_run(bits, "", 200_000)
        if u.outcome == HALTED:
            assert r.outcome == HALTED
            assert r.pair == (u.program, u.output)
            assert r.steps == linear_bound(u.steps, len(u.program), len(u.output))
        else:
            assert r.outcome in (BUDGET_EXCEEDED, TAPE_EXHAUSTED)
            assert r.pair is None


def test_reversible_linear_in_forward_steps():
    p = print_program("0110")
    u = universal_run(p, "", 10_000)
    r = universal_reversible_run(p, "", 10_000)
    assert r.steps <= 12 * u.steps + 4 * (len(u.program) + len(u.output)) + 9


def halt_program() -> str:
    """The one program of the halt machine: its code alone."""
    return encode_index(HALT_INDEX)


def test_reversible_immediate_halt_pair():
    r = universal_reversible_run(halt_program(), "", 1000)
    assert r.outcome == HALTED
    assert r.pair == ("0001", "")


def test_reversible_budget_boundary():
    p = halt_program()
    u = universal_run(p, "", 100)
    need = linear_bound(u.steps, len(u.program), len(u.output))
    assert universal_reversible_run(p, "", need).outcome == HALTED
    assert universal_reversible_run(p, "", need - 1).outcome == BUDGET_EXCEEDED


# --- prefix-freeness ---------------------------------------------------------------

def test_prefix_free_vacuous_at_len_zero():
    report = prefix_free_check(0, 100)
    assert report.prefix_free


def test_prefix_free_at_len_ten():
    report = prefix_free_check(10, 10_000)
    assert report.prefix_free
    assert report.halting_programs  # some programs do halt


def test_prefix_free_under_nonempty_aux():
    report = prefix_free_check(9, 5000, aux="1011")
    assert report.prefix_free
    # The aux copier's program appears once aux is nonempty.
    assert any(p.startswith(encode_index(6)) for p in report.halting_programs)


def test_broken_interpreter_variant_fails_check():
    # Fixture that rewinds its cursor before reporting, as if bits were
    # re-readable: every fast halting run claims the empty program.
    def rereading(bits, aux, budget):
        r = universal_run(bits, aux, budget)
        if r.outcome == HALTED and r.steps <= 5:
            return type(r)(r.outcome, "", r.output, r.steps)
        return r

    report = prefix_free_check(8, 2000, runner=rereading)
    assert not report.prefix_free


def test_digest_is_stable():
    a = universal_machine()
    b = universal_machine.__wrapped__()
    assert a.digest == b.digest
    assert len(a.digest) == 64
