"""revlab's internal records are immutable values, and README's library
sketch runs as written."""

from pathlib import Path

import pytest

from revlab.corpus import CorpusEntry
from revlab.machines import (
    Alphabet,
    Configuration,
    Machine,
    QuintupleMachine,
    QuintupleRule,
    ReadWriteRule,
    RuleConflict,
    RunResult,
    ShiftRule,
    ValidationReport,
    _ExecTable,
)
from revlab.prefixvm import PrefixRunResult, UniversalMachine
from revlab.reversal import BennettMachine, ReversibilityReport

ROOT = Path(__file__).resolve().parent.parent
BITS = Alphabet.of("0", "1", blank="_")


def _machine():
    return Machine("m", (BITS,), frozenset({"s", "t"}), "s", frozenset({"t"}),
                   (ReadWriteRule("s", ("0",), ("1",), "t"),))


def _config():
    return Configuration("s", (("0", "1"),), (1,), 3)


# Each record type with a function building one value of it from fresh
# objects, so that two calls give equal but distinct values.  Every field
# holds a hashable value, _ExecTable's included, whose tables are dicts
# in use.
RECORDS = {
    "ReadWriteRule": lambda: ReadWriteRule("s", ("0",), ("1",), "t"),
    "ShiftRule": lambda: ShiftRule("s", (1,), "t"),
    "RuleConflict": lambda: RuleConflict(0, 1, "rules 0 and 1 overlap"),
    "ValidationReport": lambda: ValidationReport(
        "m", ("an error",), (RuleConflict(0, 1, "overlap"),), ("u",)),
    "Configuration": _config,
    "_ExecTable": lambda: _ExecTable((("s", 1),), (), frozenset({"s"}), (),
                                     None, ("_",)),
    "RunResult": lambda: RunResult("halted", _config(), 3, "01"),
    "QuintupleRule": lambda: QuintupleRule("s", ("0",), ("1",), (1,), "t"),
    "QuintupleMachine": lambda: QuintupleMachine(
        "q", (BITS,), frozenset({"s", "t"}), "s", frozenset({"t"}),
        (QuintupleRule("s", ("0",), ("1",), (1,), "t"),)),
    "PrefixRunResult": lambda: PrefixRunResult("halted", "0101", "1", 7, ("0101", "1")),
    "UniversalMachine": lambda: UniversalMachine("c6c53d8a"),
    "ReversibilityReport": lambda: ReversibilityReport(
        "m", (RuleConflict(0, 1, "reach"),)),
    "BennettMachine": lambda: BennettMachine(_machine(), "digest"),
    "CorpusEntry": lambda: CorpusEntry("m", _machine(), ("0", "1"), None, "note"),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_record_is_an_immutable_value(make):
    a, b = make(), make()
    assert type(a).__name__ in RECORDS
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for name in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_rule_kinds_never_compare_equal():
    # The three kinds share their state, tuple and move fields; a value of
    # one kind equals no value of another.
    rw = ReadWriteRule("s", ("0",), ("1",), "t")
    sh = ShiftRule("s", (1,), "t")
    q5 = QuintupleRule("s", ("0",), ("1",), (1,), "t")
    rules = [rw, sh, q5]
    for i, a in enumerate(rules):
        for b in rules[i + 1:]:
            assert a != b and b != a and not a == b
    assert len({*rules}) == 3
    assert ReadWriteRule("s", (), (), "t") != ShiftRule("s", (), "t")


def test_readme_library_sketch_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library sketch", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("ComplexityRecord(x='000', aux='', k_upper=8, ")
    assert lines[1] == "425"
