"""The benchmark's hooks into revlab still hold.

``perfbench/tracing.py`` replaces layer functions where their callers
look them up and raises ``KeyError`` on a missing one, so deleting or
renaming a traced name fails here in milliseconds, not only in the
benchmark's own smoke test.  The small and the full sweep-cold
commands must still print the rows ``perfbench/expected.json`` holds for
them, and the small interp-long runs must pass the benchmark's checks
against that file, so a sweep or interpreter regression fails here too.
The ledger-warm queries must give the answers the benchmark expects and
leave the warm ledger as they found it.
"""

import json
from pathlib import Path

import pytest

import revlab
import revlab.cli  # noqa: F401  (loads every layer module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _owners():
    depth = revlab.depth
    return (revlab.cli, depth, revlab.prefixvm, revlab.machines,
            revlab.reversal, depth.DepthLab, depth.RunLedger)


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = [dict(vars(owner)) for owner in _owners()]
    tracer = Tracer()
    try:  # a KeyError part-way leaves earlier wrappers to undo
        tracer.install(revlab)
        assert [dict(vars(owner)) for owner in _owners()] != before
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in _owners()] == before


def _check_sweep_cold(monkeypatch, tmp_path, capsys, name, sweep_len):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    size = workloads.SIZES[name]
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    want = expected["sweep_cold"][str(size.sweep_len)]
    assert size.sweep_len == sweep_len
    rc = revlab.cli.main(workloads.sweep_argv(size, str(tmp_path)))
    envelopes = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == want["rc"]
    assert [e["payload"] for e in envelopes] == want["payloads"]
    assert {e["digest"] for e in envelopes} == {expected["digest"]}


def test_small_sweep_cold_matches_expected(monkeypatch, tmp_path, capsys):
    _check_sweep_cold(monkeypatch, tmp_path, capsys, "smoke", 8)


def test_full_sweep_cold_matches_expected(monkeypatch, tmp_path, capsys):
    # The benchmark's own command and gate (L=16, about 25 ms).
    _check_sweep_cold(monkeypatch, tmp_path, capsys, "full", 16)


@pytest.mark.parametrize("name", ["smoke", "full"])
def test_ledger_warm_answers_without_writing_the_ledger(monkeypatch, tmp_path, name):
    # The benchmark's own gate on every query's answer; queries run
    # nothing, so the warm ledger keeps its size and line count.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    size = workloads.SIZES[name]
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    prep = workloads.prepare("ledger-warm", 7, size, tmp_path)
    rep = workloads.Rep()
    workloads.rep_ledger_warm(rep, size, 7, tmp_path, prep, expected)
    assert rep.failures == []
    assert rep.attempted == size.queries
    assert rep.counts == workloads._ledger_counts(Path(prep["ledger"]).parent)


def test_ledger_warm_builds_the_closed_form_once_and_resumes_nothing(
        monkeypatch, tmp_path):
    # The benchmark's 12 full-size queries in one process, each a fresh
    # lab on the warm ledger: the slow repeaters' records are built once,
    # for the (L, D) of the fill sweep, every query's sweep reuses them,
    # and no query resumes a run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    depth, resumed = revlab.depth, []
    size = workloads.SIZES["full"]
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    depth.closed_subtrees.cache_clear()
    prep = workloads.prepare("ledger-warm", 7, size, tmp_path)
    monkeypatch.setattr(depth, "resume_run", lambda *args: resumed.append(args))
    rep = workloads.Rep()
    workloads.rep_ledger_warm(rep, size, 7, tmp_path, prep, expected)
    assert (rep.failures, rep.attempted) == ([], 12)
    info = depth.closed_subtrees.cache_info()
    assert (info.misses, info.hits) == (1, 12)
    assert resumed == []


def test_small_interp_long_matches_expected(monkeypatch, tmp_path):
    # Slow zeros and ones at k=3 (385 steps each), the 23 emulators, the
    # ones_doubler round trip on 1^8 (3,345 steps) and every other round
    # trip returning to its start, as the benchmark checks them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    size = workloads.SIZES["smoke"]
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert (size.slow_k, size.doubler_n) == (3, 8)
    rep = workloads.Rep()
    workloads.rep_interp_long(rep, size, 7, tmp_path, {}, expected)
    assert rep.failures == []
    assert rep.attempted == 2 + 23 + 2 * len(workloads.roundtrip_inputs(7, size))
