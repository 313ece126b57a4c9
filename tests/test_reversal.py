"""Reverse checking, inversion, and the Bennett transform."""

import hashlib
from dataclasses import replace

import pytest

from oracles import inputs_up_to, ranges_overlap
from revlab.corpus import BINARY, corpus, corpus_entry
from revlab.machfmt import serialize_machine
from revlab.machines import (
    HALTED,
    Machine,
    MachineError,
    QuintupleMachine,
    ReadWriteRule,
    ShiftRule,
    initial_configuration,
    normalize_to_quadruples,
    run,
    run_from,
    step,
    validate_machine,
)
from revlab.reversal import (
    LINEAR_A,
    LINEAR_B,
    LINEAR_C,
    ReversibilityError,
    TransformRefusal,
    bennett_transform,
    invert,
    linear_bound,
    run_reverse,
    verify_reversible,
)


def quad(rules, start="q0", halts=()):
    states = {start, *halts}
    for r in rules:
        states.add(r.from_state)
        states.add(r.to_state)
    return Machine("test", (BINARY,), frozenset(states), start,
                   frozenset(halts), tuple(rules))


def rw(f, a, b, t):
    return ReadWriteRule(f, (a,), (b,), t)


def sh(f, d, t):
    return ShiftRule(f, (d,), t)


def halting_corpus():
    for entry in corpus():
        if not entry.halts:
            continue
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        yield entry, m


# --- verify_reversible -------------------------------------------------------

def test_single_rule_is_reversible():
    assert verify_reversible(quad([rw("q0", "0", "1", "q1")])).reversible


def test_identical_ranges_conflict():
    report = verify_reversible(quad([
        rw("q0", "0", "1", "q2"),
        rw("q1", "1", "1", "q2"),
    ]))
    assert not report.reversible
    assert [(c.first, c.second) for c in report.conflicts] == [(0, 1)]


def test_range_scan_matches_naive_oracle():
    rules = (
        rw("q0", "0", "1", "q2"),
        sh("q1", 1, "q2"),
        rw("q2", "0", "0", "q3"),
        rw("q3", "1", "0", "q3"),
    )
    naive = sorted(
        (i, j)
        for i in range(len(rules))
        for j in range(i + 1, len(rules))
        if ranges_overlap(rules[i], rules[j]))
    report = verify_reversible(quad(list(rules)))
    assert sorted((c.first, c.second) for c in report.conflicts) == naive


# --- invert -------------------------------------------------------------------

def test_invert_single_rule_definition():
    m = quad([rw("q0", "0", "1", "q1")])
    inv = invert(m)
    assert inv.rules == (rw("q1", "1", "0", "q0"),)


def test_invert_is_involution_on_rule_sets():
    m = quad([rw("q0", "0", "1", "q1"), sh("q1", 1, "q0")])
    assert invert(invert(m)).rules == m.rules


def test_emulator_is_verified_once(monkeypatch):
    # bennett_transform verifies its emulator; reversing a run of it
    # must not validate or range-scan the emulator again.
    import revlab.reversal as reversal
    invert.cache_clear()
    verify_reversible.cache_clear()
    bm = bennett_transform(corpus_entry("parity").machine)
    calls = []
    for name in ("validate_machine", "range_conflicts"):
        real = getattr(reversal, name)
        monkeypatch.setattr(reversal, name,
                            lambda x, real=real: calls.append(x) or real(x))
    full = run(bm.machine, "101", 100_000)
    back = run_reverse(bm, full.final, full.steps)
    assert back.steps == full.steps
    assert back.final._replace(steps=0) == initial_configuration(bm.machine, "101")
    assert calls == []
    # Failures are not cached: each call raises again.
    nonrev = corpus_entry("nonrev_fixture").machine
    invalid = quad([rw("q0", "7", "1", "q1")])
    for _ in range(2):
        with pytest.raises(ReversibilityError):
            invert(nonrev)
        with pytest.raises(MachineError):
            verify_reversible(invalid)


def test_cached_reversal_hashes_each_machine_once():
    # invert and verify_reversible are keyed by the machine; a hit must
    # not hash its rule list again.
    class CountingRules(tuple):
        hashes = 0

        def __hash__(self):
            CountingRules.hashes += 1
            return super().__hash__()

    bm = bennett_transform(corpus_entry("parity").machine)
    m = replace(bm.machine, rules=CountingRules(bm.machine.rules))
    first = invert(m)
    for _ in range(3):
        assert invert(m) is first
        assert verify_reversible(m).reversible
    assert CountingRules.hashes == 1


def test_invert_refuses_nonreversible_and_cites_conflicts():
    m = corpus_entry("nonrev_fixture").machine
    with pytest.raises(ReversibilityError) as err:
        invert(m)
    assert err.value.conflicts


# --- bennett_transform ---------------------------------------------------------

def test_transform_refuses_quintuple_and_multitape():
    with pytest.raises(TransformRefusal):
        bennett_transform(corpus_entry("flipper5").machine)
    two_tape = Machine(
        "two", (BINARY, BINARY), frozenset({"a"}), "a", frozenset(), ())
    with pytest.raises(TransformRefusal):
        bennett_transform(two_tape)


def test_transform_of_flipper_output_shape():
    bm = bennett_transform(corpus_entry("flipper").machine)
    result = run(bm.machine, "10", 10_000)
    assert result.outcome == HALTED
    work = "".join(result.final.tapes[0])
    assert work == "10"                      # input restored
    assert result.output == "01"             # source output on tape 3
    hist = result.final.tapes[1]
    assert all(s == "_" for s in hist)       # history consumed


def test_transform_is_reversible_and_valid_for_all_corpus_machines():
    for entry, m in halting_corpus():
        bm = bennett_transform(m)
        assert validate_machine(bm.machine).ok, entry.name
        assert verify_reversible(bm.machine).reversible, entry.name


def test_corpus_emulators_are_pinned():
    # Every emulator's rules, states and alphabets, in corpus order: any
    # change to the construction or to its state names changes the hash.
    digest = hashlib.sha256()
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        digest.update(serialize_machine(bennett_transform(m).machine).encode())
    assert digest.hexdigest() == (
        "f97979da4c4a65b396340ffb97dc4ebf008515e9ef9495ecc1f026b50f7d5d1b")


def test_transform_pair_output_on_corpus():
    budget = 10_000
    for entry, m in halting_corpus():
        bm = bennett_transform(m)
        for w in inputs_up_to(entry.input_alphabet, 4):
            src = run(m, w, budget)
            if src.outcome != HALTED:
                continue
            rev = run(bm.machine, w, linear_bound(src.steps, len(w), len(src.output)))
            assert rev.outcome == HALTED, (entry.name, w)
            assert "".join(rev.final.tapes[0]) == w, (entry.name, w)
            assert rev.output == src.output, (entry.name, w)
            assert all(s == "_" for s in rev.final.tapes[1]), (entry.name, w)
            assert rev.final.heads[0] == 0
            assert rev.final.heads[1] == 0


def test_transform_of_empty_machine_on_empty_input():
    bm = bennett_transform(corpus_entry("immediate_halt").machine)
    result = run(bm.machine, "", 100)
    assert result.outcome == HALTED
    assert result.output == ""
    assert result.final.tapes[0] == ()


def test_linear_emulation_constants_hold_corpus_wide():
    for entry, m in halting_corpus():
        bm = bennett_transform(m)
        for w in inputs_up_to(entry.input_alphabet, 4):
            src = run(m, w, 10_000)
            if src.outcome != HALTED:
                continue
            rev = run(bm.machine, w, 10 ** 7)
            assert rev.outcome == HALTED
            bound = LINEAR_A * src.steps + LINEAR_B * (len(w) + len(src.output)) + LINEAR_C
            assert rev.steps <= bound, (entry.name, w, rev.steps, bound)


def test_flipper_rev_exact_step_count():
    # Construction accounting for 2 ReadWrite + 2 Shift source steps and
    # output length 2: compute 2*2+4*2 = 12, halt detect 3, walk 2*4+1 = 9,
    # copy 4*2+1 = 9, then the mirrored walk 9, detect 3, compute 12 -> 57.
    bm = bennett_transform(corpus_entry("flipper").machine)
    result = run(bm.machine, "10", 10_000)
    assert result.steps == 57


# --- run_reverse ----------------------------------------------------------------

def test_reverse_from_initial_configuration_is_identity():
    bm = bennett_transform(corpus_entry("flipper").machine)
    c0 = initial_configuration(bm.machine, "10")
    result = run_reverse(bm, c0, 100)
    assert result.steps == 0
    assert result.final.tapes == c0.tapes
    assert result.final.state == c0.state


def test_reverse_single_step():
    bm = bennett_transform(corpus_entry("flipper").machine)
    c0 = initial_configuration(bm.machine, "1")
    c1 = step(bm.machine, c0)
    back = run_reverse(bm, c1, 1)
    assert back.final.state == c0.state
    assert back.final.tapes == c0.tapes
    assert back.final.heads == c0.heads


def test_roundtrip_forward_k_then_reverse_k_restores_initial():
    for entry, m in halting_corpus():
        bm = bennett_transform(m)
        for w in inputs_up_to(entry.input_alphabet, 3):
            full = run(bm.machine, w, 100_000)
            assert full.outcome == HALTED
            total = full.steps
            c0 = initial_configuration(bm.machine, w)
            for k in sorted({0, 1, total // 2, total}):
                fwd = run_from(bm.machine, c0, k)
                assert fwd.steps == min(k, total)
                back = run_reverse(bm, fwd.final, fwd.steps)
                assert back.steps == fwd.steps, (entry.name, w, k)
                assert back.final.state == c0.state, (entry.name, w, k)
                assert back.final.tapes == c0.tapes, (entry.name, w, k)
                assert back.final.heads == c0.heads, (entry.name, w, k)


def test_reverse_full_run_ends_in_halted_state_of_inverse():
    # Reversing the complete computation must stop exactly at the initial
    # configuration: one more reverse step is impossible.
    bm = bennett_transform(corpus_entry("parity").machine)
    w = "101"
    full = run(bm.machine, w, 100_000)
    back = run_reverse(bm, full.final, full.steps + 50)
    c0 = initial_configuration(bm.machine, w)
    assert back.steps == full.steps
    assert back.final.tapes == c0.tapes
    assert back.final.heads == c0.heads
