"""CLI dispatch, envelopes, exit codes, and reproducibility."""

import hashlib
import json

import pytest

from oracles import prefix_free_check
from revlab import cli, depth
from revlab.cli import EXIT_INVALID, EXIT_NO_WITNESS, EXIT_OK, EXIT_USAGE, main
from revlab.corpus import corpus_entry
from revlab.depth import RunLedger
from revlab.machfmt import serialize_machine
from revlab.prefixvm import universal_run


@pytest.fixture()
def corpus_dir(tmp_path, capsys):
    rc = main(["corpus", "export", str(tmp_path / "corpus")])
    assert rc == EXIT_OK
    capsys.readouterr()  # drain the export envelope
    return tmp_path / "corpus"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    for env in lines:
        assert set(env) >= {"tool", "digest", "payload", "wall_ms"}
    return rc, lines, captured.err


def test_no_arguments_is_usage_error(capsys):
    rc = main([])
    assert rc == EXIT_USAGE


TOP_USAGE = "usage: revlab [-h] {machine,rev,univ,depth,corpus} ...\n"
DEPTH_USAGE = "usage: revlab depth [-h] {k,ld,table} ...\n"


@pytest.mark.parametrize("argv, want_rc, want_out, want_err", [
    (["--help"], EXIT_OK, TOP_USAGE + """
Reversible machine toolkit and logical-depth laboratory

positional arguments:
  {machine,rev,univ,depth,corpus}
    machine             validate and run machine files
    rev                 reversibility operations
    univ                universal interpreter
    depth               budget-bounded complexity and depth
    corpus              bundled machine corpus

options:
  -h, --help            show this help message and exit
""", ""),
    (["depth", "--help"], EXIT_OK, DEPTH_USAGE + """
positional arguments:
  {k,ld,table}

options:
  -h, --help    show this help message and exit
""", ""),
    (["depth"], EXIT_USAGE, "", DEPTH_USAGE
     + "revlab depth: error: the following arguments are required: cmd\n"),
    (["nosuch"], EXIT_USAGE, "", TOP_USAGE
     + "revlab: error: argument group: invalid choice: 'nosuch' (choose from "
       "'machine', 'rev', 'univ', 'depth', 'corpus')\n"),
], ids=["help", "depth-help", "depth-no-command", "unknown-group"])
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv, want_rc,
                                          want_out, want_err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert main(argv) == want_rc
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want_out, want_err)


def test_validate_corpus_flipper(capsys, corpus_dir):
    rc, lines, _ = run_cli(capsys, ["machine", "validate",
                                    str(corpus_dir / "flipper.tm")])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["conflicts"] == []


def test_validate_nonexistent_file(capsys):
    rc = main(["machine", "validate", "/nonexistent/x.tm"])
    assert rc == EXIT_USAGE


def test_machine_run_and_trace(capsys, corpus_dir):
    rc, lines, _ = run_cli(capsys, [
        "machine", "run", str(corpus_dir / "flipper.tm"),
        "--input", "10", "--budget", "100"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["output"] == "01"
    assert lines[0]["payload"]["steps"] == 4

    rc, lines, _ = run_cli(capsys, [
        "machine", "trace", str(corpus_dir / "flipper.tm"),
        "--input", "10", "--budget", "100"])
    assert rc == EXIT_OK
    assert len(lines) == 5  # initial configuration plus four steps


@pytest.mark.parametrize("cmd", ["run", "trace"])
def test_machine_negative_budget_is_rejected(capsys, corpus_dir, cmd):
    rc = main(["machine", cmd, str(corpus_dir / "flipper.tm"),
               "--input", "10", "--budget", "-1"])
    assert rc == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be >= 0" in captured.err


@pytest.mark.parametrize("cmd", ["run", "trace"])
@pytest.mark.parametrize("body, problems", [
    ("rule s - -> - t\n", "rule 0 (s - -> - t): tuple arity != tape count"),
    ("output-tape 7\nrule s 0 -> 1 t\n", "output tape 7 out of range"),
    ("rule s 0 -> 1 t\nrule s / -> +1 t\n", "rules 0 and 1 overlap in state 's'"),
], ids=["arity", "output-tape", "nondeterministic"])
def test_machine_run_and_trace_validate_first(capsys, tmp_path, cmd, body, problems):
    # Nothing runs and nothing is printed before validation, whose text is
    # the one rev verify reports.
    path = tmp_path / "bad.tm"
    path.write_text("machine bad\ntapes 1\nalphabet 1 blank _ symbols _ 0 1\n"
                    "states s t\nstart s\nhalt t\n" + body)
    assert main(["machine", cmd, str(path), "--input", "0", "--budget", "10"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: machine 'bad' invalid: {problems}\n"
    assert main(["rev", "verify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("tapes", [0, -1])
@pytest.mark.parametrize("cmd", [["validate"], ["run", "--budget", "10"]],
                         ids=["validate", "run"])
def test_machine_without_tapes_is_a_parse_error(capsys, tmp_path, cmd, tapes):
    path = tmp_path / "tapeless.tm"
    path.write_text(f"machine x\ntapes {tapes}\nstates s\nstart s\nhalt s\n")
    assert main(["machine", cmd[0], str(path), *cmd[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 2: tapes must be >= 1")


def test_rev_verify_exit_codes(capsys, corpus_dir):
    rc, _, _ = run_cli(capsys, ["rev", "verify",
                                str(corpus_dir / "nonrev_fixture.tm")])
    assert rc == EXIT_INVALID

    # A Bennett compile is reversible.
    out = corpus_dir / "flipper_rev.tm"
    rc, lines, _ = run_cli(capsys, ["rev", "compile",
                                    str(corpus_dir / "flipper.tm"),
                                    "-o", str(out)])
    assert rc == EXIT_OK
    assert out.exists()
    rc, _, _ = run_cli(capsys, ["rev", "verify", str(out)])
    assert rc == EXIT_OK


def test_rev_reverse_roundtrip(capsys, corpus_dir, tmp_path):
    from revlab.machfmt import serialize_configuration
    from revlab.machines import run
    from revlab.reversal import bennett_transform

    bm = bennett_transform(corpus_entry("flipper").machine)
    machine_file = tmp_path / "rev.tm"
    machine_file.write_text(serialize_machine(bm.machine))
    final = run(bm.machine, "10", 10_000).final
    config_file = tmp_path / "final.cfg"
    config_file.write_text(serialize_configuration(final))

    rc, lines, _ = run_cli(capsys, [
        "rev", "reverse", str(machine_file),
        "--from", str(config_file), "--budget", "10000"])
    assert rc == EXIT_OK
    payload = lines[0]["payload"]
    assert payload["final"]["tapes"][0] == "10"
    assert payload["final"]["heads"] == [0, 0, 0]


@pytest.mark.parametrize("snapshot, want", [
    ("tape 1 head -1 cells 1,0\ntape 2 head 0 cells -\ntape 3 head 0 cells -\n",
     EXIT_USAGE),
    ("tape 1 head -3 cells 1,0\ntape 2 head 0 cells -\ntape 3 head 0 cells -\n",
     EXIT_USAGE),
    ("tape 1 head 0 cells 1,0\n", EXIT_INVALID),
    ("tape 2 head 0 cells -\ntape 1 head 0 cells 1,0\ntape 3 head 0 cells -\n",
     EXIT_USAGE),
    ("state zz\ntape 1 head 0 cells 1,0\ntape 2 head 0 cells -\ntape 3 head 0 cells -\n",
     EXIT_INVALID),
    ("tape 1 head 0 cells 9,0\ntape 2 head 0 cells -\ntape 3 head 0 cells -\n",
     EXIT_INVALID),
], ids=["head-1", "head-3", "one-tape", "swapped-tapes", "unknown-state",
        "foreign-symbol"])
def test_rev_reverse_rejects_impossible_configurations(capsys, tmp_path,
                                                       snapshot, want):
    # A negative head or a misnumbered tape is a parse error; a tape
    # count other than the machine's, a state the machine lacks (a
    # snapshot with a state line replaces the start state's) and a cell
    # outside its tape's alphabet are invalid configurations.  None may
    # read a cell.
    from revlab.reversal import bennett_transform

    bm = bennett_transform(corpus_entry("flipper").machine)
    machine_file = tmp_path / "rev.tm"
    machine_file.write_text(serialize_machine(bm.machine))
    config_file = tmp_path / "bad.cfg"
    state = "" if snapshot.startswith("state ") else f"state {bm.machine.start_state}\n"
    config_file.write_text(state + "steps 0\n" + snapshot)
    rc, lines, err = run_cli(capsys, [
        "rev", "reverse", str(machine_file),
        "--from", str(config_file), "--budget", "5"])
    assert rc == want
    assert lines == []
    assert "Traceback" not in err


def test_univ_run_and_enumerate(capsys):
    rc, lines, _ = run_cli(capsys, [
        "univ", "run", "--bits", "0001", "--budget", "100"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["outcome"] == "halted"
    assert lines[0]["payload"]["program"] == "0001"

    rc, lines, _ = run_cli(capsys, ["univ", "enumerate", "--index", "2"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["name"] == "print"

    rc, lines, _ = run_cli(capsys, ["univ", "enumerate", "--index", "0"])
    assert lines[0]["payload"]["diverger"] is True


def test_univ_enumerate_lists_only_the_states_a_general_machine_names(capsys):
    # Description 11110101: a general header of two states and no rules.
    rc, lines, _ = run_cli(capsys, ["univ", "enumerate", "--index", "500"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["machine"] == "".join(line + "\n" for line in [
        "machine t_11110101",
        "tapes 4",
        "alphabet 1 blank _ symbols 0 1 _",
        "alphabet 2 blank _ symbols 0 1 _",
        "alphabet 3 blank _ symbols 0 1 _",
        "alphabet 4 blank _ symbols 0 1 _",
        "states s0",
        "start s0",
        "halt s0",
        "output-tape 4",
    ])


def test_univ_run_accepts_hex_bits(capsys):
    # 0x1 -> "0001", the halt program.
    rc, lines, _ = run_cli(capsys, [
        "univ", "run", "--bits", "0x1", "--budget", "100"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["program"] == "0001"
    rc = main(["univ", "run", "--bits", "012", "--budget", "10"])
    assert rc == EXIT_INVALID


def test_univ_check_prefix(capsys):
    rc, lines, _ = run_cli(capsys, [
        "univ", "check-prefix", "--max-len", "8", "--budget", "2000"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["prefix_free"] is True


@pytest.mark.parametrize("aux", ["", "1011"])
def test_check_prefix_equals_the_brute_force_oracle(capsys, aux):
    # D below, at and above the 4 steps of the halt program "0001" and the
    # 7 of the printer's shortest program, up to far past every run here.
    for d in (0, 3, 4, 7, 11, 17, 300, 10_000):
        runs = {}

        def memo(bits, aux, budget):  # each string runs once for all L
            if bits not in runs:
                runs[bits] = universal_run(bits, aux, budget)
            return runs[bits]

        for max_len in range(15):
            want = prefix_free_check(max_len, d, aux, runner=memo)
            rc, lines, _ = run_cli(capsys, [
                "univ", "check-prefix", "--max-len", str(max_len),
                "--budget", str(d), "--aux", aux])
            got = lines[0]["payload"]
            assert rc == (EXIT_OK if want.prefix_free else EXIT_INVALID)
            assert (got["halting_programs"], got["violations"], got["prefix_free"]) == (
                len(want.halting_programs), [list(v) for v in want.violations],
                want.prefix_free), (max_len, d)


def test_check_prefix_counts_printer_programs_without_running_them(
        capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a program from scratch")

    monkeypatch.setattr(depth, "universal_run", no_run)
    monkeypatch.setattr(cli, "universal_run", no_run)
    rc, lines, _ = run_cli(capsys, [
        "univ", "check-prefix", "--max-len", "30", "--budget", "100000"])
    assert rc == EXIT_OK
    payload = lines[0]["payload"]
    # 156 sweep halters and the 2^13 - 1 printer programs of every x with
    # |x| <= 12, whose codes have 2|x| + 6 <= 30 bits.
    assert (payload["runs"], payload["halting_programs"]) == (182, 156 + 2 ** 13 - 1)
    assert payload["prefix_free"] is True


def test_check_prefix_counts_closed_halters_in_linear_time(capsys):
    # At L = 100,000 and D = 10 the sweep holds 5 halters and the printer
    # adds its one program of 7 steps, "110101".  A count that builds the
    # printer's program for every length up to L is quadratic in L.
    rc, lines, _ = run_cli(capsys, [
        "univ", "check-prefix", "--max-len", "100000", "--budget", "10"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["halting_programs"] == 6


def test_check_prefix_reports_a_program_that_prefixes_another(capsys, monkeypatch):
    # A sweep whose halters are no prefix code, as a broken interpreter
    # that re-reads its bits would give.
    monkeypatch.setattr(depth.DepthLab, "exact_halters",
                        lambda self, budget, aux="": dict.fromkeys(["01", "0001", "00010"]))
    rc, lines, _ = run_cli(capsys, [
        "univ", "check-prefix", "--max-len", "8", "--budget", "2000"])
    assert rc == EXIT_INVALID
    payload = lines[0]["payload"]
    assert (payload["violations"], payload["prefix_free"]) == ([["0001", "00010"]], False)


@pytest.mark.parametrize("argv", [
    ["univ", "run", "--bits", "1111010", "--aux", "12", "--budget", "100"],
    ["univ", "check-prefix", "--max-len", "4", "--budget", "100", "--aux", "2x"],
])
def test_univ_rejects_non_binary_aux(capsys, argv):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be binary" in captured.err


def test_depth_k_and_ld(capsys):
    rc, lines, _ = run_cli(capsys, [
        "depth", "k", "", "--max-len", "4", "--budget", "1000"])
    assert rc == EXIT_OK
    assert lines[0]["payload"]["k_upper"] == 4

    rc, lines, _ = run_cli(capsys, [
        "depth", "ld", "101", "--b", "0", "--variant", "rev",
        "--max-len", "10", "--budget", "5000"])
    assert rc == EXIT_OK
    payload = lines[0]["payload"]
    assert payload["variant"] == "reversible"
    assert payload["witness"]
    assert payload["ld"] > 0


def test_depth_no_witness_exit_code(capsys):
    rc, lines, _ = run_cli(capsys, [
        "depth", "k", "1", "--max-len", "0", "--budget", "0"])
    assert rc == EXIT_NO_WITNESS


def test_depth_requires_budgets(capsys):
    assert main(["depth", "k", "1"]) == EXIT_USAGE
    assert main(["depth", "ld", "1", "--b", "0", "--variant", "rev"]) == EXIT_USAGE


def test_depth_table_rows(capsys):
    rc, lines, _ = run_cli(capsys, [
        "depth", "table", "psi", "--n-max", "1",
        "--max-len", "10", "--budget", "3000"])
    assert rc == EXIT_OK
    assert len(lines) == 2
    assert lines[0]["payload"]["row"]["n"] == 0


def test_depth_table_phi_inconclusive_exit_code(capsys):
    # With D=3 no program halts (the shortest, "0001", takes 4 steps).
    rc, lines, _ = run_cli(capsys, [
        "depth", "table", "phi", "--n-max", "1",
        "--max-len", "4", "--budget", "3"])
    assert rc == EXIT_NO_WITNESS
    assert [env["payload"]["kind"] for env in lines] == ["phi", "phi"]
    assert [env["payload"]["row"]["n"] for env in lines] == [0, 1]
    assert all(env["payload"]["row"]["inconclusive"] for env in lines)


def test_depth_table_psi_is_inconclusive_where_ld_0_rev_is(capsys):
    # At D=300 the only shortest program for "000", the 8-bit "00110101",
    # has a 425-step reversible run: psi row 3 has no value, although the
    # 9-bit "000001000" runs reversibly in 189 steps.
    rc, lines, _ = run_cli(capsys, [
        "depth", "table", "psi", "--n-max", "3", "--max-len", "14", "--budget", "300"])
    assert rc == EXIT_NO_WITNESS
    assert [env["payload"]["row"]["value"] for env in lines] == [73, 161, 237, None]
    assert lines[3]["payload"]["row"]["witness_x"] == "000"
    assert lines[3]["payload"]["row"]["inconclusive"]


def test_cli_payloads_reproducible(capsys):
    argv = ["depth", "k", "00", "--max-len", "10", "--budget", "2000"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)

    def strip(env):
        return {k: v for k, v in env.items() if k != "wall_ms"}

    assert [strip(e) for e in first] == [strip(e) for e in second]


@pytest.mark.parametrize("argv", [
    ["depth", "ld", "2x", "--b", "0", "--variant", "gen"],
    ["depth", "ld", "01", "--b", "0", "--variant", "gen", "--aux", "2"],
    ["depth", "table", "psi", "--n-max", "1", "--aux", "2"],
    ["depth", "table", "f", "--n-max", "1", "--variant", "general",
     "--aux", "2"],
])
def test_non_binary_depth_input_fails_before_any_run(capsys, tmp_path, argv):
    rc = main(argv + ["--max-len", "4", "--budget", "1000",
                      "--cache-dir", str(tmp_path)])
    assert rc == EXIT_INVALID
    assert "must be binary" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["depth", "table", "f", "--n-max", "-1", "--max-len", "4", "--budget", "100"],
    ["univ", "check-prefix", "--max-len", "-3", "--budget", "10"],
])
def test_negative_lengths_are_rejected(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("REVLAB_CACHE", str(tmp_path))
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["univ", "run", "--bits", "0xZZ", "--budget", "5"], "bad hex bit string '0xZZ'"),
    (["univ", "run", "--bits", "01", "--budget", "-1"], "budget must be >= 0"),
    (["depth", "ld", "0", "--b", "-1", "--variant", "gen", "--max-len", "4",
      "--budget", "10"], "significance level must be >= 0"),
], ids=["hex-bits", "budget", "significance"])
def test_bad_values_exit_invalid_without_traceback(capsys, tmp_path, monkeypatch,
                                                   argv, message):
    monkeypatch.setenv("REVLAB_CACHE", str(tmp_path))
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_validate_reports_parse_error_as_usage(capsys, tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("machine x\ntapes one\n")
    assert main(["machine", "validate", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: tapes takes one integer" in captured.err


def test_cache_dir_roundtrip(capsys, tmp_path):
    argv = ["depth", "k", "0", "--max-len", "8", "--budget", "1000",
            "--cache-dir", str(tmp_path)]
    rc, first, _ = run_cli(capsys, argv)
    assert rc == EXIT_OK
    assert list(tmp_path.iterdir())
    rc, second, _ = run_cli(capsys, argv)
    assert first[0]["payload"] == second[0]["payload"]


def test_truncated_ledger_tail_is_skipped_then_cut(capsys, tmp_path):
    argv = ["depth", "k", "0", "--max-len", "8", "--budget", "1000",
            "--cache-dir", str(tmp_path)]
    rc, first, _ = run_cli(capsys, argv)
    assert rc == EXIT_OK
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    entries = data.count(b"\n")
    path.write_bytes(data[:-20])  # a save cut off mid-line

    assert len(RunLedger(tmp_path)) == entries - 1
    assert "truncated last line" in capsys.readouterr().err

    # The query runs the lost program again; its save cuts the torn tail.
    rc, second, err = run_cli(capsys, argv)
    assert rc == EXIT_OK
    assert "truncated last line" in err
    assert second[0]["payload"] == first[0]["payload"]

    assert len(RunLedger(tmp_path)) == entries
    assert capsys.readouterr().err == ""
    lines = path.read_bytes().splitlines()
    assert len(lines) == entries
    assert all(json.loads(line) for line in lines)


def test_corrupt_ledger_line_fails_and_leaves_the_file(capsys, tmp_path):
    argv = ["depth", "k", "0", "--max-len", "8", "--budget", "1000",
            "--cache-dir", str(tmp_path)]
    rc, _, _ = run_cli(capsys, argv)
    assert rc == EXIT_OK
    (path,) = tmp_path.iterdir()
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 2
    lines[1] = lines[1][:20] + b"\n"
    data = b"".join(lines)
    path.write_bytes(data)

    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:2: corrupt ledger line" in captured.err
    assert path.read_bytes() == data


@pytest.mark.parametrize("line", [
    b'{"a": 1}',
    b"[1, 2]",
    b'{"aux": "", "bits": "0001", "budget": true, "outcome": "halted", '
    b'"output": "", "program": "0001", "steps": 4}',
    b'{"aux": "", "bits": "0001", "budget": 1000, "outcome": "halted", '
    b'"output": "", "program": "0001", "steps": "x"}',
], ids=["object", "list", "bool-budget", "str-steps"])
def test_ledger_line_that_is_no_run_record_fails_and_leaves_the_file(
        capsys, tmp_path, line):
    argv = ["depth", "k", "01", "--max-len", "8", "--budget", "1000",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    (path,) = tmp_path.iterdir()
    data = path.read_bytes() + line + b"\n"
    path.write_bytes(data)
    capsys.readouterr()

    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    n = data.count(b"\n")
    assert f"{path}:{n}: corrupt ledger line: not a run record" in captured.err
    assert path.read_bytes() == data


def test_cold_cli_runs_write_a_pinned_ledger(capsys, tmp_path):
    # Any change to the bytes of a ledger line, or to which runs are
    # saved in which order, changes the file.  Only the sweeps' executed
    # runs are saved: queries take the printer's run from its closed
    # form, and sweeps the slow repeaters' records from theirs.
    common = ["--max-len", "12", "--budget", "100000", "--cache-dir", str(tmp_path)]
    for argv in (["depth", "table", "f", "--n-max", "4", "--variant", "reversible"],
                 ["depth", "table", "f", "--n-max", "4", "--variant", "general"],
                 ["depth", "k", "0", "--aux", "1011"]):
        assert main(argv + common) == EXIT_OK
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    assert data.count(b"\n") == 38
    assert hashlib.sha256(data).hexdigest() == (
        "1377e26a3990fd8288d4853bcb174ad95a071d406e9dceec7d34a7ad6160601f")


@pytest.mark.parametrize("argv", [
    ["depth", "k", "0", "--max-len", "4", "--budget", "100", "--cache-dir"],
    ["corpus", "export"],
], ids=["cache-dir", "export"])
def test_unusable_path_is_a_file_error(capsys, tmp_path, argv):
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    assert main(argv + [str(plain)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(plain) in captured.err
    assert plain.read_text() == "not a directory\n"


def test_parser_is_built_once_and_calls_stay_independent(capsys, monkeypatch):
    sequence = [
        ["depth", "k", "0", "--aux", "1011", "--max-len", "8", "--budget", "1000"],
        ["depth", "k", "0", "--max-len", "8", "--budget", "1000"],
        ["depth", "ld", "101", "--b", "0", "--variant", "gen",
         "--max-len", "10", "--budget", "5000"],
        ["depth", "k", "1"],
        ["univ", "run", "--bits", "0001", "--budget", "100"],
    ]

    def call(argv):
        rc = main(argv)
        captured = capsys.readouterr()
        envs = [json.loads(line) for line in captured.out.splitlines()]
        for env in envs:
            del env["wall_ms"]
        return rc, envs, captured.err

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    shared = [call(argv) for argv in sequence]
    assert built == [1]
    assert [rc for rc, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_OK,
                                           EXIT_USAGE, EXIT_OK]
    assert [env["payload"]["aux"] for env in shared[0][1] + shared[1][1]] == ["1011", ""]

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert fresh == shared
    assert len(built) == 1 + len(sequence)


def test_corpus_list(capsys):
    rc, lines, _ = run_cli(capsys, ["corpus", "list"])
    assert rc == EXIT_OK
    assert len(lines) >= 20


def test_witness_replays_through_cli(capsys):
    # A depth record's witness, replayed via `univ run`, reproduces the
    # recorded step count and output.
    rc, lines, _ = run_cli(capsys, [
        "depth", "ld", "000", "--b", "0", "--variant", "rev",
        "--max-len", "10", "--budget", "5000"])
    assert rc == EXIT_OK
    record = lines[0]["payload"]
    rc, lines, _ = run_cli(capsys, [
        "univ", "run", "--bits", record["witness"], "--budget", "5000",
        "--reversible"])
    assert rc == EXIT_OK
    replay = lines[0]["payload"]
    assert replay["outcome"] == "halted"
    assert replay["steps"] == record["ld"]
    assert replay["output"] == record["x"]
    assert replay["pair"] == [record["witness"], record["x"]]


# One fixed command per subcommand, measured before the CLI's parser and
# payload encoding were rewritten: its exit code and the sha256 of its
# stdout lines with ``wall_ms`` dropped.  ``{name}`` is a file the test
# writes: a corpus machine, flipper's emulator, or that emulator's final
# configuration on input 10.
PINNED_COMMANDS = [
    ("machine validate {parity}", EXIT_OK,
     "b30d663c01a3a9e6a04d4ca7fea4d6082bc5e3b95bf7bbbc02c2eb204f974158"),
    ("machine run {parity} --input 1011 --budget 1000", EXIT_OK,
     "918bacfdc3043cc8dfd7c925e97350c510da2b98174145c8a18a1d7cf1bec51b"),
    ("machine trace {flipper} --input 10 --budget 100", EXIT_OK,
     "88efbbeb2bc5f8e43cc6fe1da976167dfa5d14fe3b5c731aaa89937dcdaed72a"),
    ("rev verify {flipper}", EXIT_INVALID,
     "7995e1316dbb4fc73af6cd042aad9538b8c277f24880a87dbc447df6fa585eaa"),
    ("rev compile {parity5}", EXIT_OK,
     "bf02fdca9812af79cf106f19f94330c65a0be18143d51b8ce5c8749f6e0e767f"),
    ("rev reverse {flipper_rev} --from {final} --budget 10000", EXIT_OK,
     "c3163a0fab8fab401d05f7a35f4d610b8ac391edc98ef1f7b697538d4f3c992f"),
    ("univ run --bits 0001 --budget 100", EXIT_OK,
     "bb1eadff475c295f54e12c6b890ddf633404edaf620648ecaa7b47f74a5112a8"),
    ("univ run --bits 00110101 --budget 100000 --reversible", EXIT_OK,
     "ade1f7a50f8ddff674b381e9b848d774c2fb0b6c9214fe699bd0e2bcca38a3c3"),
    ("univ run --bits 0x35 --aux 1011 --budget 1000", EXIT_OK,
     "6eef42381ccb33f843e12f2a03af08c85fc1f69fdb06aee45012478af3340684"),
    ("univ enumerate --index 2", EXIT_OK,
     "70128883185b003629aafdd90273e2375fabc174fb36c2921925f87bf6804fd0"),
    ("univ check-prefix --max-len 8 --budget 2000", EXIT_OK,
     "d1b2d0f8dd8834c1c38ba972e4e13a304c4a75cade10f0f3f7a29474c70af14f"),
    ("depth k 000 --max-len 10 --budget 5000", EXIT_OK,
     "2a781e7b305aba3aa7e3137e9fd48cfd0fddf17c3283b11ba659b5ec6ceda503"),
    ("depth ld 000 --b 0 --variant rev --max-len 10 --budget 5000", EXIT_OK,
     "2cae00409ff6964e44905df029e86a826a7d99cae260a13bab5d788bcbfba65b"),
    ("depth ld 101 --b 1 --variant gen --aux 1011 --max-len 10 --budget 5000", EXIT_OK,
     "b64ac2946b79097e419f322b82639fa2bf7b0d910cde50a1eb476eeabeedd897"),
    ("depth ld 1 --b 0 --variant gen --max-len 4 --budget 3", EXIT_NO_WITNESS,
     "2676c13967d606637ec930f0c693e905ae1a73f67423e6836853b6459855235d"),
    ("depth table psi --n-max 3 --max-len 10 --budget 5000", EXIT_OK,
     "64d9f27f9b8bc1120bedaa2db886b239f7aade7ff8f47c24d14b69eca9cd57a9"),
    ("depth table f --n-max 3 --max-len 12 --budget 5000", EXIT_OK,
     "efbe05f5b6463a6ea70864aba035de8b3c8186c3af8302faa71ac2dbf9ab7441"),
    ("depth table f --n-max 3 --variant general --max-len 12 --budget 5000", EXIT_OK,
     "5b04a4622af240f9da85bfabc1551d1804f4577a858761e51438fb615324f75e"),
    ("corpus list", EXIT_OK,
     "a3b7c12dca7113d4c064988c5268b3cf7836db33c684e23a02e2196073a3385c"),
]


def stdout_digest(text):
    """sha256 of stdout's envelopes with ``wall_ms`` dropped."""
    envs = [json.loads(line) for line in text.splitlines()]
    for env in envs:
        del env["wall_ms"]
    return hashlib.sha256("".join(json.dumps(env, sort_keys=True) + "\n"
                                  for env in envs).encode()).hexdigest()


def pinned_files(directory):
    """The files PINNED_COMMANDS name, written under ``directory``."""
    from revlab.machfmt import serialize_configuration
    from revlab.machines import run
    from revlab.reversal import bennett_transform

    files = {}
    for name in ("flipper", "parity", "parity5"):
        files[name] = directory / f"{name}.tm"
        files[name].write_text(serialize_machine(corpus_entry(name).machine))
    bm = bennett_transform(corpus_entry("flipper").machine)
    files["flipper_rev"] = directory / "flipper_rev.tm"
    files["flipper_rev"].write_text(serialize_machine(bm.machine))
    files["final"] = directory / "final.cfg"
    files["final"].write_text(serialize_configuration(run(bm.machine, "10", 10_000).final))
    return files


@pytest.mark.parametrize("command, want_rc, want_sha", PINNED_COMMANDS,
                         ids=[c for c, _, _ in PINNED_COMMANDS])
def test_cli_payloads_are_pinned(capsys, tmp_path, monkeypatch, command, want_rc,
                                 want_sha):
    # Any change to a payload, its key order or its envelope changes the
    # digest of some command's output.
    monkeypatch.delenv("REVLAB_CACHE", raising=False)
    files = pinned_files(tmp_path)
    rc = main(command.format(**files).split())
    assert (rc, stdout_digest(capsys.readouterr().out)) == (want_rc, want_sha)


@pytest.fixture()
def no_runs(monkeypatch):
    """Fail the test if anything runs a program."""
    from revlab import depth

    def no_run(*args, **kwargs):
        raise AssertionError("ran a program")

    monkeypatch.setattr(depth, "resume_run", no_run)
    monkeypatch.setattr(depth, "universal_run", no_run)


@pytest.mark.parametrize("kind, variant", [
    ("psi", "general"), ("psi", "reversible"),
    ("phi", "reversible"), ("phi", "general"),
])
def test_variant_applies_to_table_f_only(capsys, tmp_path, no_runs, kind, variant):
    # psi is reversible and phi general by definition: a --variant beside
    # them would be ignored, so it is a usage error, raised before any run.
    rc = main(["depth", "table", kind, "--n-max", "2", "--variant", variant,
               "--max-len", "8", "--budget", "1000", "--cache-dir", str(tmp_path)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--variant" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "file-sub"])
def test_unusable_cache_dir_fails_before_any_run(capsys, tmp_path, no_runs, under):
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    rc = main(["depth", "k", "0", "--max-len", "30", "--budget", "100000",
               "--cache-dir", str(plain / under)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("file error: ")
    assert plain.read_text() == "not a directory\n"
