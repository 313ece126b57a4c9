"""Machine model, validation, and execution semantics."""

from dataclasses import replace

import pytest

from revlab.machines import (
    BUDGET_EXCEEDED,
    Configuration,
    HALTED,
    Machine,
    MachineError,
    QuintupleMachine,
    QuintupleRule,
    ReadWriteRule,
    ShiftRule,
    domain_conflicts,
    initial_configuration,
    normalize_to_quadruples,
    run,
    step,
    trace_run,
    validate_machine,
)
from oracles import (
    assert_run_from_matches_stepping,
    domains_overlap,
    honest_trace,
    inputs_up_to,
    run_quintuple,
)
from revlab.corpus import BLANK, BINARY, corpus, corpus_entry
from revlab.reversal import bennett_transform, invert


def quad(rules, start="q0", halts=(), alphabet=BINARY, states=None):
    found = {start, *halts}
    for r in rules:
        found.add(r.from_state)
        found.add(r.to_state)
    if states:
        found |= set(states)
    return Machine("test", (alphabet,), frozenset(found), start,
                   frozenset(halts), tuple(rules))


def rw(f, a, b, t):
    return ReadWriteRule(f, (a,), (b,), t)


def sh(f, d, t):
    return ShiftRule(f, (d,), t)


# --- validate_machine ------------------------------------------------------

def test_single_rule_no_conflict():
    report = validate_machine(quad([rw("q0", "0", "1", "q1")]))
    assert report.ok
    assert report.conflicts == ()


def test_identical_domains_conflict():
    report = validate_machine(quad([
        rw("q0", "0", "1", "q1"),
        rw("q0", "0", "0", "q2"),
    ]))
    assert not report.ok
    assert len(report.conflicts) == 1
    assert (report.conflicts[0].first, report.conflicts[0].second) == (0, 1)


def test_shift_vs_readwrite_conflict_matches_naive_oracle():
    # Oracle: enumerate all rule pairs with domains_overlap directly.
    rules = (sh("q0", 1, "q1"), rw("q0", "0", "1", "q1"), rw("q1", "0", "0", "q0"))
    naive = [(i, j)
             for i in range(len(rules))
             for j in range(i + 1, len(rules))
             if domains_overlap(rules[i], rules[j])]
    assert naive == [(0, 1)]
    report = validate_machine(quad(list(rules)))
    assert [(c.first, c.second) for c in report.conflicts] == naive


@pytest.mark.parametrize("n_rules", [0, 1, 2, 5])
def test_conflict_scan_equals_naive_oracle_on_corpus_and_variants(n_rules):
    # Cross-check the grouped conflict scan against the O(n^2) definition
    # on every corpus machine prefix.
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            continue
        rules = m.rules[:n_rules]
        naive = sorted(
            (i, j)
            for i in range(len(rules))
            for j in range(i + 1, len(rules))
            if domains_overlap(rules[i], rules[j]))
        got = [(c.first, c.second) for c in domain_conflicts(rules)]
        assert got == naive


def test_validate_reports_unknown_symbol_with_rule():
    m = Machine("bad", (BINARY,), frozenset({"q0", "q1"}), "q0",
                frozenset(), (rw("q0", "7", "1", "q1"),))
    report = validate_machine(m)
    assert not report.ok
    assert any("rule 0" in e and "'7'" in e for e in report.errors)


@pytest.mark.parametrize("changes, error", [
    (dict(start_state="q"), "start state 'q' not in states"),
    (dict(halt_states=frozenset({"h"})), "halt state 'h' not in states"),
    (dict(rules=(rw("s", "0", "1", "zz"),)), "rule 0 (s 0 -> 1 zz): unknown state 'zz'"),
    (dict(rules=(rw("s", "0", "9", "s"),)),
     "rule 0 (s 0 -> 9 s): symbol '9' not in tape 1 alphabet"),
    (dict(rules=(ShiftRule("s", (1, 0), "s"),)),
     "rule 0 (s / -> +1,0 s): shift arity != tape count"),
    (dict(rules=(sh("s", 2, "s"),)), "shift 2 not in -1/0/+1"),
], ids=["start", "halt", "rule-state", "written-symbol", "shift-arity",
        "shift-value"])
def test_validate_reports_structural_errors(changes, error):
    m = replace(quad([rw("s", "0", "1", "s")], start="s"), **changes)
    report = validate_machine(m)
    assert not report.ok
    assert any(error in e for e in report.errors), report.errors


def test_validate_rejects_rule_from_halt_state():
    m = quad([rw("q0", "0", "0", "q0")], halts=("q0",))
    report = validate_machine(m)
    assert any("halt state" in e for e in report.errors)


def test_validate_reports_unreachable_states():
    m = quad([rw("q0", "0", "1", "q1")], states={"lost"})
    report = validate_machine(m)
    assert report.ok
    assert report.unreachable_states == ("lost",)


# --- step -------------------------------------------------------------------

def test_step_in_halt_state_returns_none():
    m = quad([], start="h", halts=("h",))
    c = initial_configuration(m, "1")
    assert step(m, c) is None


def test_step_applies_readwrite():
    m = quad([rw("q0", "0", "1", "q1")])
    c = initial_configuration(m, "0")
    nxt = step(m, c)
    assert nxt is not None
    assert nxt.state == "q1"
    assert nxt.tapes[0] == ("1",)
    assert nxt.steps == 1
    assert nxt.heads == (0,)


def test_left_shift_clamps_at_cell_zero():
    # Two-step hand trace: shift -1 at head 0 leaves the head at 0.
    m = quad([sh("q0", -1, "q1"), sh("q1", -1, "q0")])
    c = initial_configuration(m, "1")
    one = step(m, c)
    two = step(m, one)
    assert one.heads == (0,) and one.state == "q1"
    assert two.heads == (0,) and two.state == "q0"


# --- run ---------------------------------------------------------------------

def test_run_empty_rules_halts_immediately():
    m = quad([], start="h", halts=("h",))
    result = run(m, "101", 10)
    assert result.outcome == HALTED
    assert result.steps == 0
    assert result.output == "101"  # blank-free prefix of the untouched tape


def test_flipper_hand_trace():
    # Hand trace on "10": 0) s@0 reads 1->0, 1) shift, 2) s@1 reads 0->1,
    # 3) shift, then s@2 scans blank: halt after 4 steps with tape "01".
    flipper = corpus_entry("flipper").machine
    result = run(flipper, "10", 100)
    assert result.outcome == HALTED
    assert result.steps == 4
    assert result.output == "01"
    assert result.final.heads == (2,)
    # Halted iff no rule applies in the final configuration.
    assert step(flipper, result.final) is None


def test_self_loop_exceeds_budget():
    m = quad([sh("q0", 0, "q0")])
    result = run(m, "", 100)
    assert result.outcome == BUDGET_EXCEEDED
    assert result.steps == 100


def test_halt_exactly_at_budget_counts_as_halted():
    flipper = corpus_entry("flipper").machine
    result = run(flipper, "10", 4)
    assert result.outcome == HALTED
    assert result.steps == 4


def test_budget_monotonicity():
    flipper = corpus_entry("flipper").machine
    at_halt = run(flipper, "110", 10_000)
    assert at_halt.outcome == HALTED
    for budget in range(at_halt.steps, at_halt.steps + 20):
        assert run(flipper, "110", budget) == at_halt


def test_run_matches_step_iteration():
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        for w in inputs_up_to(entry.input_alphabet, 3):
            configs = list(trace_run(m, w, 60))
            result = run(m, w, 60)
            last = configs[-1]
            assert result.final.state == last.state
            assert result.final.tapes == last.tapes
            assert result.final.heads == last.heads
            assert result.steps == last.steps


def test_run_from_matches_step_from_every_configuration():
    # Runs start mid-run too: heads far past the stripped tape end,
    # interior blanks, and history tapes half written or half erased.
    # The inverse emulator runs back from the forward run's halt.  Budget
    # 2 cuts a write fused with its shift both before and after the shift.
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        em = bennett_transform(m).machine
        inv = invert(em)
        ks = (0, 1, 2, 5)
        for w in inputs_up_to(entry.input_alphabet, 2):
            assert_run_from_matches_stepping(m, list(trace_run(m, w, 400)), ks)
            configs = list(trace_run(em, w, 400))
            assert_run_from_matches_stepping(em, configs, ks)
            if step(em, configs[-1]) is None:
                back = honest_trace(inv, replace(configs[-1], steps=0), 400)
                assert_run_from_matches_stepping(inv, back, ks)


def test_padded_tape_edges():
    # From a head past the stripped end: write the blank there, erase the
    # last cell, clamp a left shift at 0, then walk right onto a cell no
    # run has touched and halt there, reading a blank no rule matches.
    rules = [
        rw("s0", BLANK, BLANK, "s1"), sh("s1", -1, "s2"),
        rw("s2", BLANK, BLANK, "s3"), sh("s3", -1, "s4"),
        rw("s4", "0", BLANK, "s5"), sh("s5", -1, "s6"),
        sh("s6", -1, "s7"), rw("s7", "1", "0", "s8"),
        sh("s8", 1, "s9"), sh("s9", 1, "s10"), sh("s10", 1, "s11"),
        sh("s11", 1, "s12"), rw("s12", "1", "1", "s0"),
    ]
    m = quad(rules, start="s0")
    configs = honest_trace(m, Configuration("s0", (("1", "0"),), (3,), 0), 99)
    assert [c.heads[0] for c in configs] == [3, 3, 2, 2, 1, 1, 0, 0, 0, 1, 2, 3, 4]
    assert configs[-1] == Configuration("s12", (("0",),), (4,), 12)
    assert_run_from_matches_stepping(m, configs, range(14))


def test_run_determinism_bit_identical():
    m = corpus_entry("parity").machine
    a = run(m, "1011", 10_000)
    b = run(m, "1011", 10_000)
    assert a == b


def test_run_rejects_bad_input_symbol():
    with pytest.raises(MachineError):
        run(corpus_entry("flipper").machine, "2", 10)


def test_run_rejects_nondeterministic_machine():
    m = quad([rw("q0", "0", "1", "q1"), sh("q0", 1, "q1")])
    with pytest.raises(MachineError):
        run(m, "0", 10)


@pytest.mark.parametrize("rules", [
    [rw("q0", "0", "1", "q1"), rw("q0", "0", "0", "q1")],
    [rw("q0", "0", "1", "q1"), sh("q0", 1, "q1")],
    [sh("q0", 1, "q1"), rw("q0", "0", "1", "q1")],
])
def test_run_and_step_name_the_nondeterministic_state(rules):
    m = quad(rules)
    want = "not forward deterministic at state 'q0'"
    with pytest.raises(MachineError, match=want):
        run(m, "0", 10)
    with pytest.raises(MachineError, match=want):
        step(m, initial_configuration(m, "0"))


# --- normalize_to_quadruples --------------------------------------------------

def test_normalize_counts():
    m5 = QuintupleMachine(
        "one", (BINARY,), frozenset({"a", "b"}), "a", frozenset(),
        (QuintupleRule("a", ("0",), ("1",), (1,), "b"),))
    m = normalize_to_quadruples(m5)
    assert len(m.rules) == 2
    assert len(m.states) == 3  # a, b, one fresh intermediate


def test_normalize_empty_machine():
    m5 = QuintupleMachine("none", (BINARY,), frozenset({"a"}), "a",
                          frozenset(), ())
    m = normalize_to_quadruples(m5)
    assert m.rules == ()
    assert m.states == frozenset({"a"})


def test_flipper_quintuple_matches_quadruple_output():
    quint = normalize_to_quadruples(corpus_entry("flipper5").machine)
    quad_m = corpus_entry("flipper").machine
    for w in inputs_up_to(("0", "1"), 4):
        assert run(quint, w, 1000).output == run(quad_m, w, 1000).output


def test_normalize_preserves_io_and_step_bound_on_corpus():
    for entry in corpus():
        if entry.kind != "quintuple" or not entry.halts:
            continue
        m = normalize_to_quadruples(entry.machine)
        for w in inputs_up_to(entry.input_alphabet, 4):
            quint = run_quintuple(entry.machine, w, 50_000)
            result = run(m, w, 50_000)
            assert result.outcome == HALTED
            assert quint.output == result.output == entry.reference(w)
            assert result.steps <= 2 * quint.steps + 1
            assert result.steps == 2 * quint.steps  # exact for this construction


def test_configuration_equality_ignores_trailing_blanks():
    a = Configuration.make("q", (("1", BLANK, BLANK),), (0,), 0, (BLANK,))
    b = Configuration.make("q", (("1",),), (0,), 0, (BLANK,))
    assert a == b
