"""Machine file and configuration snapshot formats."""

import pytest

from revlab.corpus import corpus
from revlab.machfmt import (
    MachineFormatError,
    parse_configuration,
    parse_machine,
    serialize_configuration,
    serialize_machine,
)
from revlab.machines import Configuration, QuintupleMachine, normalize_to_quadruples, run


def test_machine_roundtrip_on_corpus():
    for entry in corpus():
        text = serialize_machine(entry.machine)
        again = parse_machine(text)
        assert serialize_machine(again) == text
        assert again.rules == entry.machine.rules
        assert again.states == entry.machine.states
        assert again.start_state == entry.machine.start_state


def test_parsed_machine_runs_identically():
    for entry in corpus():
        if not entry.halts:
            continue
        m = entry.machine
        again = parse_machine(serialize_machine(m))
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
            again = normalize_to_quadruples(again)
        for w in ("", "1", "11"):
            if any(s not in entry.input_alphabet for s in w):
                continue
            assert run(again, w, 10_000) == run(m, w, 10_000)


def test_parse_error_carries_line_number():
    text = "machine x\ntapes 1\nalphabet 1 blank _ symbols 0 1\nstart s\nbogus line\n"
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert err.value.line_no == 5
    assert "line 5" in str(err.value)


def test_parse_rejects_mixed_rule_styles():
    text = (
        "machine x\ntapes 1\nalphabet 1 blank _ symbols 0 1\n"
        "states s t\nstart s\n"
        "rule s 0 -> 1 t\n"
        "quintuple s 1 -> 0 +1 t\n"
    )
    with pytest.raises(MachineFormatError):
        parse_machine(text)


def test_parse_rejects_bad_shift():
    text = (
        "machine x\ntapes 1\nalphabet 1 blank _ symbols 0 1\n"
        "states s t\nstart s\n"
        "rule s / -> +2 t\n"
    )
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert err.value.line_no == 6


def test_configuration_snapshot_roundtrip():
    c = Configuration("q1", (("1", "0"), ()), (1, 0), 17)
    text = serialize_configuration(c)
    assert parse_configuration(text) == c
    # Bit-exact: serializing again yields the same text.
    assert serialize_configuration(parse_configuration(text)) == text


MACHINE_HEAD = "machine x\ntapes {tapes}\n"
MACHINE_TAIL = "states s\nstart s\nhalt s\n"


@pytest.mark.parametrize("tapes, alphabets, bad_line", [
    (1, ["alphabet 1 blank _ symbols 0 1", "alphabet 1 blank _ symbols 0"], 4),
    (1, ["alphabet 1 blank _ symbols 0 1", "alphabet 5 blank _ symbols 0 1"], 4),
    (1, ["alphabet 1 blank _ symbols 0 1", "alphabet 2 blank _ symbols 0 1"], 4),
    (2, ["alphabet 2 blank _ symbols 0 1", "alphabet 1 blank _ symbols 0 1"], 3),
    (1, ["alphabet 0 blank _ symbols 0 1"], 3),
], ids=["repeated", "skipped", "past-tape-count", "swapped", "zero"])
def test_parse_rejects_misnumbered_alphabets(tapes, alphabets, bad_line):
    text = MACHINE_HEAD.format(tapes=tapes) + "\n".join(alphabets) + "\n" + MACHINE_TAIL
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert err.value.line_no == bad_line


def test_parse_accepts_alphabets_before_tapes_line():
    text = ("machine x\nalphabet 1 blank _ symbols 0 1\nalphabet 2 blank _ symbols 0\n"
            "tapes 2\n" + MACHINE_TAIL)
    assert parse_machine(text).tape_count == 2


@pytest.mark.parametrize("tapes", [0, -1])
@pytest.mark.parametrize("head, bad_line", [
    ("machine x\ntapes {tapes}\n", 2),
    ("machine x\nalphabet 1 blank _ symbols 0 1\ntapes {tapes}\n", 3),
], ids=["no-alphabet", "after-alphabet"])
def test_parse_rejects_tape_count_below_one(head, bad_line, tapes):
    with pytest.raises(MachineFormatError) as err:
        parse_machine(head.format(tapes=tapes) + MACHINE_TAIL)
    assert err.value.line_no == bad_line
    assert "tapes must be >= 1" in str(err.value)


@pytest.mark.parametrize("tape_lines, bad_line", [
    (["tape 2 head 0 cells 1", "tape 1 head 0 cells 0"], 3),
    (["tape 1 head 0 cells 1", "tape 1 head 0 cells 0"], 4),
    (["tape 7 head 0 cells -"], 3),
    (["tape 0 head 0 cells -"], 3),
    (["tape 1 head 0 cells 1", "tape 3 head 0 cells 0"], 4),
], ids=["swapped", "repeated", "seven", "zero", "skipped"])
def test_configuration_rejects_misnumbered_tapes(tape_lines, bad_line):
    text = "state s\nsteps 0\n" + "\n".join(tape_lines) + "\n"
    with pytest.raises(MachineFormatError) as err:
        parse_configuration(text)
    assert err.value.line_no == bad_line


GOOD_MACHINE = ["machine x", "tapes 1", "alphabet 1 blank _ symbols 0 1",
                "states s t", "start s", "halt t", "output-tape 1",
                "rule s 0 -> 1 t"]


def test_good_machine_lines_parse():
    assert parse_machine("\n".join(GOOD_MACHINE) + "\n").rules


@pytest.mark.parametrize("line_no, bad, message", [
    (1, "machine", "machine takes one name"),
    (1, "machine x y", "machine takes one name"),
    (2, "tapes", "tapes takes one integer"),
    (2, "tapes one", "tapes takes one integer"),
    (2, "tapes 1 2", "tapes takes one integer"),
    (2, "tapes 0", "tapes must be >= 1"),
    (3, "alphabet one blank _ symbols 0 1", "bad tape number 'one'"),
    (3, "alphabet 1 blank _", "expected: alphabet"),
    (5, "start", "start takes one state"),
    (5, "start s t", "start takes one state"),
    (7, "output-tape", "output-tape takes one integer"),
    (7, "output-tape last", "output-tape takes one integer"),
    (7, "output-tape 1 1", "output-tape takes one integer"),
    (8, "rule s 0 1 t", "expected: rule"),
    (8, "rule s 0 => 1 t", "expected: rule"),
    (8, "quintuple s 0 -> 1 t", "expected: quintuple"),
    (8, "quintuple s 0 => 1 +1 t", "expected: quintuple"),
    (8, "quintuple s 0 -> 1 2 t", "bad shift component '2'"),
], ids=["machine-bare", "machine-two", "tapes-bare", "tapes-word",
        "tapes-two", "tapes-zero", "alphabet-tape", "alphabet-short",
        "start-bare", "start-two", "output-bare", "output-word",
        "output-two", "rule-arity", "rule-arrow", "quintuple-arity",
        "quintuple-arrow", "quintuple-shift"])
def test_parse_rejects_bad_line_with_its_number(line_no, bad, message):
    lines = list(GOOD_MACHINE)
    lines[line_no - 1] = bad
    with pytest.raises(MachineFormatError) as err:
        parse_machine("\n".join(lines) + "\n")
    assert err.value.line_no == line_no
    assert message in str(err.value)


@pytest.mark.parametrize("dropped, message", [
    ("machine x", "missing 'machine' header"),
    ("tapes 1", "missing 'tapes' header"),
    ("start s", "missing 'start' header"),
    ("alphabet 1 blank _ symbols 0 1", "missing alphabet for tape 1"),
], ids=["machine", "tapes", "start", "alphabet"])
def test_parse_rejects_missing_header_at_line_zero(dropped, message):
    text = "\n".join(line for line in GOOD_MACHINE if line != dropped) + "\n"
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert err.value.line_no == 0
    assert message in str(err.value)


def test_comments_and_blank_lines_are_ignored():
    def commented(text):
        return "# leading comment\n\n" + "".join(
            f"  {line}  # note\n   \n# between lines\n" for line in text.splitlines())

    for entry in corpus():
        text = serialize_machine(entry.machine)
        assert parse_machine(commented(text)) == parse_machine(text), entry.name
    c = Configuration("q1", (("1", "0"), ()), (1, 0), 17)
    text = serialize_configuration(c)
    assert parse_configuration(commented(text)) == c


@pytest.mark.parametrize("lines, line_no, message", [
    (["state s", "steps many"], 2, "bad step count 'many'"),
    (["state s", "steps 1 2"], 2, "steps takes one integer"),
    (["state a b", "steps 0"], 1, "state takes one name"),
    (["state s", "tape 1 head 0 cells"], 2, "expected: tape <n>"),
    (["state s", "tape 1 at 0 cells 0"], 2, "expected: tape <n>"),
    (["state s", "tape one head 0 cells 0"], 2, "bad tape or head"),
    (["state s", "tape 1 head zero cells 0"], 2, "bad tape or head"),
    (["state s", "heads 0"], 2, "unknown directive 'heads'"),
    (["steps 0", "tape 1 head 0 cells 0"], 0, "missing 'state' line"),
], ids=["steps", "steps-two", "state-two", "tape-short", "tape-words", "tape-number", "head",
        "directive", "no-state"])
def test_configuration_rejects_bad_line_with_its_number(lines, line_no, message):
    with pytest.raises(MachineFormatError) as err:
        parse_configuration("\n".join(lines) + "\n")
    assert err.value.line_no == line_no
    assert message in str(err.value)
