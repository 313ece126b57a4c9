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
from revlab.machines import QuintupleMachine, normalize_to_quadruples, run


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
    from revlab.machines import Configuration
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
