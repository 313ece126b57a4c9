"""Acceptance suite.

Each test exercises one acceptance criterion at its stated budget and
prints one PASS/FAIL line (run with ``pytest -s`` to see them live).
Criteria 5-8 share one laboratory at (L=14, D=100000).
"""

import io
import json
import math
from contextlib import contextmanager, redirect_stdout

import pytest

from oracles import (
    bit_strings,
    inputs_up_to,
    naive_k,
    naive_ld_general,
    naive_ld_reversible,
    prefix_free_check,
    run_table,
)
from revlab.cli import EXIT_OK, main
from revlab.corpus import corpus
from revlab.depth import Budget, DepthLab, NoWitness
from revlab.machines import (
    HALTED,
    QuintupleMachine,
    initial_configuration,
    normalize_to_quadruples,
    run,
    run_from,
)
from revlab.reversal import (
    LINEAR_A,
    LINEAR_B,
    LINEAR_C,
    bennett_transform,
    run_reverse,
    verify_reversible,
)

ACCEPT = Budget(14, 100_000)
SOURCE_BUDGET = 10_000


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def quadruple_corpus():
    out = []
    for entry in corpus():
        m = entry.machine
        if isinstance(m, QuintupleMachine):
            m = normalize_to_quadruples(m)
        out.append((entry, m))
    return out


@pytest.fixture(scope="module")
def transforms():
    return [(entry, m, bennett_transform(m)) for entry, m in quadruple_corpus()]


@pytest.fixture(scope="module")
def lab():
    return DepthLab()


def halting_runs(entry, m, max_input_len):
    for w in inputs_up_to(entry.input_alphabet, max_input_len):
        src = run(m, w, SOURCE_BUDGET)
        if src.outcome == HALTED:
            yield w, src


def test_1_bennett_correctness(transforms):
    with criterion(1, "Bennett correctness on the corpus"):
        assert len(transforms) >= 20
        for entry, m, bm in transforms:
            assert verify_reversible(bm.machine).reversible, entry.name
            for w, src in halting_runs(entry, m, 6):
                rev = run(bm.machine, w, 10 ** 7)
                assert rev.outcome == HALTED, (entry.name, w)
                assert "".join(rev.final.tapes[0]) == w, (entry.name, w)
                assert rev.output == src.output, (entry.name, w)
                assert all(s == "_" for s in rev.final.tapes[1]), (entry.name, w)


def test_2_reversal_roundtrip(transforms):
    with criterion(2, "forward-k/reverse-k roundtrip"):
        for entry, m, bm in transforms:
            for w in inputs_up_to(entry.input_alphabet, 4):
                full = run(bm.machine, w, 50_000)
                total = full.steps
                c0 = initial_configuration(bm.machine, w)
                for k in sorted({0, 1, total // 2, total}):
                    fwd = run_from(bm.machine, c0, k)
                    back = run_reverse(bm, fwd.final, fwd.steps)
                    assert back.steps == fwd.steps, (entry.name, w, k)
                    assert back.final.state == c0.state, (entry.name, w, k)
                    assert back.final.tapes == c0.tapes, (entry.name, w, k)
                    assert back.final.heads == c0.heads, (entry.name, w, k)


def test_3_linear_time_emulation(transforms):
    with criterion(3, f"linear emulation with (a,b,c)=({LINEAR_A},{LINEAR_B},{LINEAR_C})"):
        checked = 0
        for entry, m, bm in transforms:
            for w, src in halting_runs(entry, m, 6):
                rev = run(bm.machine, w, 10 ** 7)
                bound = (LINEAR_A * src.steps
                         + LINEAR_B * (len(w) + len(src.output)) + LINEAR_C)
                assert rev.outcome == HALTED
                assert rev.steps <= bound, (entry.name, w, rev.steps, bound)
                checked += 1
        assert checked > 500


def test_4_prefix_freeness():
    with criterion(4, "prefix-freeness at (L=12, D=10^4)"):
        report = prefix_free_check(12, 10_000)
        assert report.runs == 2 ** 13 - 1
        assert report.violations == ()
        assert len(report.halting_programs) > 20
        out = io.StringIO()  # not capsys, so that the PASS line still shows
        with redirect_stdout(out):
            rc = main(["univ", "check-prefix", "--max-len", "12", "--budget", "10000"])
        assert rc == EXIT_OK
        payload = json.loads(out.getvalue())["payload"]
        assert payload["halting_programs"] == len(report.halting_programs)
        assert payload["violations"] == []
        assert payload["prefix_free"] is True


def test_5_oracle_equivalence(lab):
    with criterion(5, "oracle equivalence at (L=14, D=10^5), |x|<=3, b<=2"):
        run_table(ACCEPT.max_len, ACCEPT.max_steps)  # build the oracle's table
        for x in bit_strings(3):
            rec = lab.k_bounded(x, ACCEPT)
            expect = naive_k(x, ACCEPT.max_len, ACCEPT.max_steps)
            assert (rec.k_upper, rec.witnesses) == expect, x
            for b in (0, 1, 2):
                gen = lab.logical_depth_general(x, b, ACCEPT)
                want = naive_ld_general(x, b, ACCEPT.max_len, ACCEPT.max_steps)
                assert (gen.ld, gen.witness) == want, (x, b, "general")
                rev = lab.logical_depth_reversible(x, b, ACCEPT)
                want = naive_ld_reversible(x, b, ACCEPT.max_len, ACCEPT.max_steps)
                assert (rev.ld, rev.witness) == want, (x, b, "reversible")


def test_6_monotonicity_suites(lab):
    with criterion(6, "monotonicity in significance and budget"):
        doubled = Budget(ACCEPT.max_len, ACCEPT.max_steps * 2)
        for x in bit_strings(3):
            for variant in ("general", "reversible"):
                records = [lab.logical_depth(x, b, ACCEPT, variant)
                           for b in range(4)]
                assert not any(isinstance(r, NoWitness) for r in records)
                for earlier, later in zip(records, records[1:]):
                    assert later.ld <= earlier.ld, (x, variant)
            small_k = lab.k_bounded(x, ACCEPT)
            big_k = lab.k_bounded(x, doubled)
            assert big_k.k_upper <= small_k.k_upper, x
            assert big_k.exhaustive >= small_k.exhaustive, x
            for variant in ("general", "reversible"):
                a = lab.logical_depth(x, 1, ACCEPT, variant)
                b2 = lab.logical_depth(x, 1, doubled, variant)
                assert b2.ld <= a.ld, (x, variant)
                assert b2.exhaustive >= a.exhaustive, (x, variant)


def test_7_theorem_concordance(lab):
    with criterion(7, "reversible witness window and variant comparison"):
        for x in bit_strings(3):
            k_upper = lab.k_bounded(x, ACCEPT).k_upper
            for b in (0, 1, 2):
                rec = lab.logical_depth_reversible(x, b, ACCEPT)
                assert k_upper <= len(rec.witness) <= k_upper + b, (x, b)
        rev = lab.f_table(3, ACCEPT, variant="reversible")
        gen = lab.f_table(3, ACCEPT, variant="general")
        print("\nf(n) variant comparison at (L=14, D=10^5):")
        print(f"{'n':>3} {'rev':>8} {'gen':>8}  rev witness (x, b)")
        for rr, rg in zip(rev.rows, gen.rows):
            assert not rr.inconclusive and not rg.inconclusive
            assert rr.value >= 0 and rg.value >= 0
            print(f"{rr.n:>3} {rr.value:>8} {rg.value:>8}  "
                  f"({rr.witness_x!r}, b={rr.witness_b})")


def test_8_determinism(lab):
    with criterion(8, "bit-identical across invocations"):
        again = DepthLab()
        assert lab.psi_table(3, ACCEPT) == again.psi_table(3, ACCEPT)
        assert lab.phi_table(3, ACCEPT) == again.phi_table(3, ACCEPT)
        assert lab.f_table(3, ACCEPT) == again.f_table(3, ACCEPT)
        for x in ("", "0", "01", "110"):
            assert lab.k_bounded(x, ACCEPT) == again.k_bounded(x, ACCEPT)
        third = DepthLab()
        assert third.psi_table(3, ACCEPT) == lab.psi_table(3, ACCEPT)
        assert lab.sweep(Budget(10, 3000)) == again.sweep(Budget(10, 3000))
