"""Corpus machines behave as their recorded references say."""

from oracles import inputs_up_to
from revlab.corpus import corpus, corpus_entry
from revlab.machines import (
    BUDGET_EXCEEDED,
    HALTED,
    QuintupleMachine,
    ShiftRule,
    _applicable_rule,
    normalize_to_quadruples,
    run,
    trace_run,
    validate_machine,
)
from revlab.reversal import verify_reversible


def as_quadruple(entry):
    m = entry.machine
    return normalize_to_quadruples(m) if isinstance(m, QuintupleMachine) else m


def test_corpus_is_large_enough():
    assert len(corpus()) >= 20


def test_corpus_names_unique():
    names = [e.name for e in corpus()]
    assert len(names) == len(set(names))


def test_all_corpus_machines_validate():
    for entry in corpus():
        report = validate_machine(as_quadruple(entry))
        assert report.ok, (entry.name, report)


def test_corpus_outputs_match_references():
    for entry in corpus():
        if not entry.halts:
            continue
        m = as_quadruple(entry)
        for w in inputs_up_to(entry.input_alphabet, 6):
            result = run(m, w, 100_000)
            assert result.outcome == HALTED, (entry.name, w)
            assert result.output == entry.reference(w), (entry.name, w)


def test_frozen_expectations():
    # A few literal pairs, independently hand-derived.
    assert run(corpus_entry("flipper").machine, "10", 100).output == "01"
    assert run(corpus_entry("unary_inc").machine, "111", 100).output == "1111"
    assert run(corpus_entry("parity").machine, "1011", 1000).output == "1"
    assert run(corpus_entry("parity").machine, "", 1000).output == "0"
    assert run(corpus_entry("ones_doubler").machine, "11", 1000).output == "1111"
    assert run(corpus_entry("eraser").machine, "101", 100).output == ""


def test_divergers_never_halt():
    for name in ("spinner", "runner", "bounce"):
        result = run(corpus_entry(name).machine, "1", 1_000_000)
        assert result.outcome == BUDGET_EXCEEDED
        assert result.steps == 1_000_000


def test_nonreversible_fixture_fails_reverse_check():
    report = verify_reversible(corpus_entry("nonrev_fixture").machine)
    assert not report.reversible
    assert len(report.conflicts) == 1


def test_no_corpus_machine_ever_clamps():
    # Reverse execution relies on no source ever shifting left at cell 0.
    for entry in corpus():
        m = as_quadruple(entry)
        for w in inputs_up_to(entry.input_alphabet, 5):
            for c in trace_run(m, w, 3000):
                applied = _applicable_rule(m, c)
                if isinstance(applied, ShiftRule):
                    for h, d in zip(c.heads, applied.moves):
                        assert not (h == 0 and d == -1), (entry.name, w)

