"""Budget-bounded complexity, depth, growth tables, and the ledger."""

import hashlib
import json
import math
import re
import threading
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oracles import (
    bit_strings,
    naive_growth_rows,
    naive_k,
    naive_ld_general,
    naive_ld_reversible,
    prefix_free_check,
)
from revlab import depth
from revlab.depth import (
    _LINE,
    _RECORD,
    Budget,
    ComplexityRecord,
    DepthLab,
    NoWitness,
    RunLedger,
)
from revlab.prefixvm import (
    HALTED,
    PRINT_INDEX,
    SLOW_ONES_INDEX,
    SLOW_ZEROS_INDEX,
    TAPE_EXHAUSTED,
    MalformedIndex,
    PrefixRunResult,
    _described,
    decode_index,
    encode_index,
    enumerate_machine,
    is_diverger,
    machine_starts,
    print_program,
    print_steps,
    resume_run,
    universal_reversible_run,
    universal_run,
)

QUICK = Budget(10, 3000)
MID = Budget(12, 10_000)
# The literal printer's code: the sweep never holds a string it starts.
PRINTER = encode_index(PRINT_INDEX)
SLOW = (encode_index(SLOW_ZEROS_INDEX), encode_index(SLOW_ONES_INDEX))


def _executed(table) -> list[str]:
    """The strings of a sweep table the sweep runs: all but the slow
    repeaters' records, which come from their closed form."""
    return [bits for bits in table if not bits.startswith(SLOW)]


@pytest.fixture(scope="module")
def lab():
    return DepthLab()


# --- k_bounded -----------------------------------------------------------------

def test_k_empty_string_is_four(lab):
    # <1> = "0001" drives the halt machine; nothing shorter halts: "01"
    # names the diverger and no other 2- or 3-bit string completes an index.
    rec = lab.k_bounded("", Budget(4, 1000))
    assert isinstance(rec, ComplexityRecord)
    assert rec.k_upper == 4
    assert rec.witnesses == ("0001",)
    assert rec.exhaustive


def test_k_upper_bounded_by_print_program(lab):
    for x in ("", "0", "01", "110", "0101"):
        rec = lab.k_bounded(x, QUICK)
        assert rec.k_upper <= len(print_program(x)) == 2 * len(x) + 6


def test_k_no_witness_at_zero_budget(lab):
    assert isinstance(lab.k_bounded("1", Budget(0, 0)), NoWitness)


def test_k_witnesses_replay(lab):
    for x in ("", "0", "000", "11"):
        rec = lab.k_bounded(x, QUICK)
        for p in rec.witnesses:
            replay = universal_run(p, "", QUICK.max_steps)
            assert replay.outcome == HALTED
            assert replay.program == p
            assert replay.output == x


def test_k_conditional_aux(lab):
    # The auxiliary copier gives K(x|x) <= 7 for any x.
    rec = lab.k_bounded("1011", QUICK, aux="1011")
    assert rec.k_upper <= 7
    plain = lab.k_bounded("1011", QUICK)
    assert plain.k_upper > rec.k_upper


def test_k_matches_naive_oracle(lab):
    for n in range(4):
        for k in range(2 ** n):
            x = format(k, f"0{n}b") if n else ""
            rec = lab.k_bounded(x, QUICK)
            expect = naive_k(x, QUICK.max_len, QUICK.max_steps)
            assert expect is not None
            assert (rec.k_upper, rec.witnesses) == expect, x


def test_shortest_programs_canonical_and_reproducible(lab):
    first = lab.shortest_programs("000", QUICK)
    second = DepthLab().shortest_programs("000", QUICK)
    assert first == second
    assert list(first) == sorted(first)


# --- incompressible programs ------------------------------------------------------

def test_canonical_star_always_in_incompressible_set(lab):
    for x in ("", "0", "000", "10"):
        star = lab.shortest_programs(x, QUICK)[0]
        for b in (0, 1, 2):
            inc = lab.incompressible_programs(x, b, QUICK)
            assert star in inc.programs, (x, b)


def test_print_program_in_set_at_permissive_threshold(lab):
    x = "01"
    rec = lab.k_bounded(x, QUICK)
    big_b = len(print_program(x)) - rec.k_upper  # enough slack by length
    inc = lab.incompressible_programs(x, big_b, QUICK)
    assert print_program(x) in inc.programs


def test_long_incompressible_producer_exists_report(lab):
    # The phenomenon behind the general/reversible split: some x has a
    # producer p with |p| > |x*| that is itself (budget-)incompressible.
    found = {}
    for n in range(1, 5):
        for k in range(2 ** n):
            x = format(k, f"0{n}b")
            rec = lab.k_bounded(x, MID)
            inc = lab.incompressible_programs(x, 0, MID)
            longer = [p for p in inc.programs if len(p) > rec.k_upper]
            found[x] = bool(longer)
    report = ", ".join(f"{x}:{'found' if v else 'none'}"
                       for x, v in sorted(found.items()))
    print(f"\nlonger-than-minimal incompressible producers: {report}")
    assert any(found.values())


# --- logical depth -----------------------------------------------------------------

def test_depth_monotone_in_significance(lab):
    for x in ("0", "000", "101"):
        for variant in ("general", "reversible"):
            prev = None
            for b in range(4):
                rec = lab.logical_depth(x, b, MID, variant)
                assert not isinstance(rec, NoWitness)
                if prev is not None:
                    assert rec.ld <= prev, (x, variant, b)
                prev = rec.ld


def test_depth_general_matches_naive_oracle(lab):
    for n in range(3):
        for k in range(2 ** n):
            x = format(k, f"0{n}b") if n else ""
            for b in (0, 1, 2):
                rec = lab.logical_depth_general(x, b, QUICK)
                expect = naive_ld_general(x, b, QUICK.max_len, QUICK.max_steps)
                assert not isinstance(rec, NoWitness)
                assert (rec.ld, rec.witness) == expect, (x, b)


def test_depth_reversible_matches_naive_oracle(lab):
    for n in range(3):
        for k in range(2 ** n):
            x = format(k, f"0{n}b") if n else ""
            for b in (0, 1, 2):
                rec = lab.logical_depth_reversible(x, b, QUICK)
                expect = naive_ld_reversible(x, b, QUICK.max_len, QUICK.max_steps)
                assert not isinstance(rec, NoWitness)
                assert (rec.ld, rec.witness) == expect, (x, b)


def _general_listing(lab, budget, aux):
    """One line per x with |x| <= 4 and b <= |x| + 1: ld_b-gen(x) as
    (value, witness, flag) and x's b-incompressible set with its flag."""
    lines = []
    for x in bit_strings(4):
        for b in range(len(x) + 2):
            rec = lab.logical_depth(x, b, budget, "gen", aux)
            inc = lab.incompressible_programs(x, b, budget, aux)
            lines.append(" ".join([
                x or "-", str(b),
                "none" if isinstance(rec, NoWitness)
                else f"{rec.ld} {rec.witness} {rec.exhaustive:d}",
                "none" if isinstance(inc, NoWitness)
                else f"{','.join(inc.programs)} {inc.nested_exhaustive:d}"]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("budget, aux, digest", [
    (Budget(8, 170), "", "a8d3e0d3f33a2428f1792794ebe346f8418207d15be80b4f19d19bd606c21ed6"),
    (Budget(8, 170), "1011", "3ab1d89d1b6ee7203b1df1c74ad1cdaffbfcafc9d5f054f45ff419d9eeeae033"),
    (Budget(14, 300), "", "b052f929663661d91dbcf8dab29a9d984e54470910a246aeb484ad4c67ec1ccf"),
    (Budget(14, 300), "1011", "f0c7e88603c07e33003d1e4ccc3010b8ec55d7e408691d0ecb78dd8ecd1ec12f"),
    (Budget(14, 100_000), "",
     "b052f929663661d91dbcf8dab29a9d984e54470910a246aeb484ad4c67ec1ccf"),
    (Budget(14, 100_000), "1011",
     "f0c7e88603c07e33003d1e4ccc3010b8ec55d7e408691d0ecb78dd8ecd1ec12f"),
    (Budget(26, 100_000), "",
     "762678675dbd129371ed609dfd3b84f34534925c33a58f27c45fc388b742bbd5"),
    (Budget(26, 100_000), "1011",
     "b546366583d7de2ca3e1dc0e211a7fc4895331702a718613dea00fb66ecbaeb9"),
], ids=[f"L{L}-D{D}{aux}" for L, D in ((8, 170), (14, 300), (14, 100_000), (26, 100_000))
        for aux in ("", "-aux")])
def test_general_records_are_pinned(lab, budget, aux, digest):
    # Digests of _general_listing as recorded when every producer's nested
    # k was read off its own staircases, printer seed included.  Reading
    # the empty-aux sweep alone gives the same values, witnesses, sets and
    # flags; at L=26 some flags are set, for x = "0", "1", "00" and "01".
    assert hashlib.sha256(_general_listing(lab, budget, aux).encode()).hexdigest() == digest


def test_reversible_witness_lengths_in_window(lab):
    for x in ("0", "00", "000", "110"):
        kx = lab.k_bounded(x, MID).k_upper
        for b in (0, 1, 2):
            rec = lab.logical_depth_reversible(x, b, MID)
            assert kx <= len(rec.witness) <= kx + b


def test_reversible_witness_run_has_pair_shape(lab):
    rec = lab.logical_depth_reversible("000", 0, MID)
    replay = universal_reversible_run(rec.witness, "", MID.max_steps)
    assert replay.pair == (rec.witness, "000")
    assert replay.steps == rec.ld


def test_depth_large_b_admits_print_run(lab):
    x = "10"
    b = len(x) + 10
    rec = lab.logical_depth_general(x, b, QUICK)
    print_steps = universal_run(print_program(x), "", QUICK.max_steps).steps
    assert rec.ld <= print_steps


def test_slow_short_program_creates_depth_gap(lab):
    # K("000") is met only by the slow doubling machine; one extra bit
    # admits the fast copier, so depth drops strictly.
    ld0 = lab.logical_depth_reversible("000", 0, MID)
    ld1 = lab.logical_depth_reversible("000", 1, MID)
    assert ld0.ld > ld1.ld


# --- growth tables --------------------------------------------------------------------

def test_psi_has_single_row_at_n_zero(lab):
    table = lab.psi_table(0, QUICK)
    assert len(table.rows) == 1
    assert table.rows[0].witness_x == ""
    assert not table.rows[0].inconclusive


def test_psi_values_stable_under_doubled_budget(lab):
    a = lab.psi_table(3, MID)
    b = lab.psi_table(3, Budget(MID.max_len, MID.max_steps * 2))
    for ra, rb in zip(a.rows, b.rows):
        assert ra.value == rb.value
        assert ra.witness_x == rb.witness_x
        assert ra.witness_program == rb.witness_program


def test_psi_row_witnesses_replay(lab):
    table = lab.psi_table(3, MID)
    for row in table.rows:
        assert not row.inconclusive
        replay = universal_reversible_run(row.witness_program, "", MID.max_steps)
        assert replay.pair == (row.witness_program, row.witness_x)
        assert replay.steps == row.value


def test_phi_psi_cross_linearity(lab):
    # Within one budget the reversible table is the forward table pushed
    # through the emulation accounting.
    psi = lab.psi_table(3, MID)
    phi = lab.phi_table(3, MID)
    for rp, rf in zip(psi.rows, phi.rows):
        assert rp.value <= 12 * rf.value + 4 * (
            len(rf.witness_program) + len(rf.witness_x)) + 9


def test_f_table_nonnegative_and_reports_gap(lab):
    table = lab.f_table(3, MID)
    for row in table.rows:
        assert not row.inconclusive
        assert row.value >= 0
    assert table.rows[3].value > 0  # the engineered "000" gap


def test_f_variant_comparison(lab):
    rev = lab.f_table(2, QUICK, variant="reversible")
    gen = lab.f_table(2, QUICK, variant="general")
    assert all(r.value is not None and r.value >= 0 for r in rev.rows)
    assert all(r.value is not None and r.value >= 0 for r in gen.rows)


@pytest.mark.parametrize("variant", ["reversible", "general"])
@pytest.mark.parametrize("aux", ["", "1011"])
def test_f_table_finds_producers_once_per_string(monkeypatch, variant, aux):
    # Every query reads x's staircases, built from one _producers call per
    # (x, budget, aux) and lab: every level of ld_b(x) and the psi and phi
    # rows after the f rows.  The general variant's nested k reads the
    # sweep, so no producer of x has its own producers found.
    calls = Counter()
    producers = DepthLab._producers

    def counting(self, x, budget, aux):
        calls[x, aux] += 1
        return producers(self, x, budget, aux)

    monkeypatch.setattr(DepthLab, "_producers", counting)
    lab, budget = DepthLab(), Budget(14, 100_000)
    lab.f_table(4, budget, aux, variant)
    lab.psi_table(4, budget, aux)
    lab.phi_table(4, budget, aux)
    assert set(calls) == {(x, aux) for x in bit_strings(4)}
    assert set(calls.values()) == {1}


def test_reversible_staircase_is_built_on_its_first_read(monkeypatch):
    # phi, k, incompressible sets and the general variant never read the
    # reversible staircase; psi builds it, and f-rev reads the same one.
    views = []
    view = depth.reversible_view
    monkeypatch.setattr(depth, "reversible_view",
                        lambda r, budget: views.append(r.program) or view(r, budget))
    lab, budget = DepthLab(), Budget(14, 100_000)
    lab.phi_table(4, budget)
    lab.f_table(4, budget, variant="general")
    for x in bit_strings(4):
        lab.k_bounded(x, budget)
        lab.incompressible_programs(x, 0, budget)
    assert views == []
    lab.psi_table(4, budget)
    assert views and len(views) == len(set(views))
    built = len(views)
    lab.f_table(4, budget, variant="reversible")
    assert len(views) == built


def test_queries_run_nothing(monkeypatch):
    # The sweep resumes paused runs and is the only thing that runs: the
    # printer's program comes from its closed form, so no query calls
    # universal_run or RunLedger.run, and the ledger holds exactly the
    # sweeps' executed runs.
    calls = []

    def counting(entry):
        def run(*args):
            calls.append(args)
            return entry(*args)
        return run

    monkeypatch.setattr(depth, "universal_run", counting(depth.universal_run))
    monkeypatch.setattr(RunLedger, "run", counting(RunLedger.run))
    lab, budget = DepthLab(), Budget(26, 100_000)
    for x, aux in product(("", "0", "000", "0110", "1" * 12), ("", "1011")):
        lab.k_bounded(x, budget, aux)
        lab.incompressible_programs(x, 1, budget, aux)
        for variant in ("rev", "gen"):
            lab.logical_depth(x, 1, budget, variant, aux)
    assert len(lab.ledger) == len(_executed(lab.sweep(budget))) + \
        len(_executed(lab.sweep(budget, "1011")))
    lab = DepthLab()
    lab.psi_table(10, budget)
    lab.phi_table(10, budget)
    lab.f_table(10, budget, variant="reversible")
    lab.f_table(10, budget, variant="general")
    assert calls == []
    assert len(lab.ledger) == len(_executed(lab.sweep(budget))) == 68
    assert len(lab.sweep(budget)) == 102


def test_values_keep_their_identities_where_budgets_bite():
    # Over budgets where reversible runs exceed D, for every x with
    # |x| <= (L - 6) / 2: psi rows are the rows of ld_0-rev, phi <= psi,
    # ld_b falls with b in both variants, the printer bounds k whenever
    # its run fits, and each f row is its witness's largest ld_b drop.
    lab = DepthLab()
    for L, D, aux in product((8, 12, 14), (170, 300, 500, 100_000), ("", "1011")):
        budget, n_max = Budget(L, D), (L - 6) // 2
        psi = lab.psi_table(n_max, budget, aux)
        lds = {(x, v): [lab.logical_depth(x, b, budget, v, aux) for b in range(len(x) + 2)]
               for x in bit_strings(n_max) for v in ("reversible", "general")}
        for n in range(n_max + 1):
            want = None
            for x in (x for x in bit_strings(n) if len(x) == n):
                ld0 = lds[x, "reversible"][0]
                if isinstance(ld0, NoWitness):
                    want = (None, x, "", True)
                    break
                if want is None or ld0.ld > want[0]:
                    want = (ld0.ld, x, ld0.witness, False)
            row = psi.rows[n]
            assert (row.value, row.witness_x, row.witness_program, row.inconclusive) == want
        for x in bit_strings(n_max):
            k = lab.k_bounded(x, budget, aux)
            if D >= print_steps(x):
                assert k.k_upper <= 2 * len(x) + 6, (x, budget, aux)
            ld0 = lds[x, "reversible"][0]
            if not isinstance(ld0, NoWitness):
                phi = min(universal_run(w, aux, D).steps for w in k.witnesses)
                assert phi <= ld0.ld, (x, budget, aux)
            for v in ("reversible", "general"):
                defined = [not isinstance(rec, NoWitness) for rec in lds[x, v]]
                found = [rec.ld for rec in lds[x, v] if not isinstance(rec, NoWitness)]
                assert defined == sorted(defined), (x, v, budget, aux)
                assert found == sorted(found, reverse=True), (x, v, budget, aux)
        for v in ("reversible", "general"):
            for row in lab.f_table(n_max, budget, aux, v).rows:
                recs = lds[row.witness_x, v]
                if row.inconclusive:
                    assert any(isinstance(rec, NoWitness) for rec in recs)
                    continue
                drops = [recs[b].ld - recs[b + 1].ld for b in range(row.n + 1)]
                b = drops.index(max(drops))
                assert (row.value, row.witness_program, row.witness_b) == \
                    (drops[b], recs[b].witness, b), (row, budget, aux)


def test_growth_rows_pinned_at_tight_budget(lab):
    # At D=170 the reversible run of every producer of "00" and "000"
    # exceeds the budget, so psi and f-rev turn inconclusive at the first
    # x of those lengths, while phi and f-gen stay conclusive.
    budget = Budget(8, 170)
    rows = {
        ("psi", "reversible"): [(0, 73, "", "0001", None, False),
                                (1, 161, "0", "0011011", None, False),
                                (2, None, "00", "", None, True),
                                (3, None, "000", "", None, True)],
        ("phi", "general"): [(0, 4, "", "0001", None, False),
                             (1, 10, "0", "0011011", None, False),
                             (2, 15, "00", "1101000001", None, False),
                             (3, 31, "000", "00110101", None, False)],
        ("f", "reversible"): [(0, 0, "", "0001", 0, False),
                              (1, 0, "0", "0011011", 0, False),
                              (2, None, "00", "", None, True),
                              (3, None, "000", "", None, True)],
        ("f", "general"): [(0, 0, "", "0001", 0, False),
                           (1, 0, "0", "0011011", 0, False),
                           (2, 0, "00", "1101000001", 0, False),
                           (3, 0, "000", "110100000001", 0, False)],
    }
    tables = [lab.psi_table(3, budget), lab.phi_table(3, budget),
              lab.f_table(3, budget, variant="reversible"),
              lab.f_table(3, budget, variant="general")]
    for table in tables:
        assert table.budget == budget
        assert [astuple(r) for r in table.rows] == rows[table.kind, table.variant]


def test_growth_rows_pinned_where_every_printer_lies_inside_l(lab):
    # At L=26 the printer program of every x with |x| <= 10 is within L.
    # The sweep holds none of them; the seed alone must give these rows,
    # which are the ones a sweep that held the printer gave.
    budget = Budget(26, 100_000)
    rows = {
        ("psi", "reversible"): [
            (0, 73, "", "0001", None, False),
            (1, 161, "0", "0011011", None, False),
            (2, 237, "00", "1101000001", None, False),
            (3, 425, "000", "00110101", None, False),
            (4, 357, "0000", "11010000000001", None, False),
            (5, 417, "00000", "1101000000000001", None, False),
            (6, 477, "000000", "110100000000000001", None, False),
            (7, 1345, "0000000", "001101001", None, False),
            (8, 597, "00000000", "1101000000000000000001", None, False),
            (9, 657, "000000000", "110100000000000000000001", None, False),
            (10, 717, "0000000000", "11010000000000000000000001", None, False),
        ],
        ("phi", "general"): [
            (0, 4, "", "0001", None, False),
            (1, 10, "0", "0011011", None, False),
            (2, 15, "00", "1101000001", None, False),
            (3, 31, "000", "00110101", None, False),
            (4, 23, "0000", "11010000000001", None, False),
            (5, 27, "00000", "1101000000000001", None, False),
            (6, 31, "000000", "110100000000000001", None, False),
            (7, 106, "0000000", "001101001", None, False),
            (8, 39, "00000000", "1101000000000000000001", None, False),
            (9, 43, "000000000", "110100000000000000000001", None, False),
            (10, 47, "0000000000", "11010000000000000000000001", None, False),
        ],
        ("f", "reversible"): [
            (0, 0, "", "0001", 0, False),
            (1, 0, "0", "0011011", 0, False),
            (2, 0, "00", "1101000001", 0, False),
            (3, 236, "000", "00110101", 0, False),
            (4, 0, "0000", "11010000000001", 0, False),
            (5, 0, "00000", "1101000000000001", 0, False),
            (6, 0, "000000", "110100000000000001", 0, False),
            (7, 0, "0000000", "001101001", 0, False),
            (8, 0, "00000000", "1101000000000000000001", 0, False),
            (9, 0, "000000000", "110100000000000000000001", 0, False),
            (10, 0, "0000000000", "11010000000000000000000001", 0, False),
        ],
        ("f", "general"): [
            (0, 0, "", "0001", 0, False),
            (1, 0, "0", "0011011", 0, False),
            (2, 0, "00", "1101000001", 0, False),
            (3, 0, "000", "000001000", 0, False),
            (4, 0, "0000", "11010000000001", 0, False),
            (5, 0, "00000", "1101000000000001", 0, False),
            (6, 0, "000000", "110100000000000001", 0, False),
            (7, 0, "0000000", "11010000000000000001", 0, False),
            (8, 0, "00000000", "1101000000000000000001", 0, False),
            (9, 0, "000000000", "110100000000000000000001", 0, False),
            (10, 0, "0000000000", "11010000000000000000000001", 0, False),
        ],
    }
    tables = [lab.psi_table(10, budget), lab.phi_table(10, budget),
              lab.f_table(10, budget, variant="reversible"),
              lab.f_table(10, budget, variant="general")]
    for table in tables:
        assert table.budget == budget
        assert [astuple(r) for r in table.rows] == rows[table.kind, table.variant]


@pytest.mark.parametrize("aux", ["", "1011"])
@pytest.mark.parametrize("budget", [Budget(14, 100_000), Budget(8, 170)],
                         ids=["L14", "L8-D170"])
def test_growth_rows_match_oracle(lab, budget, aux):
    # Every field of every psi, phi, f-rev and f-gen row, against loops
    # over the oracle's producers; at D=170 psi and f-rev turn inconclusive.
    tables = [lab.psi_table(3, budget, aux), lab.phi_table(3, budget, aux),
              lab.f_table(3, budget, aux, "reversible"),
              lab.f_table(3, budget, aux, "general")]
    for table in tables:
        want = naive_growth_rows(table.kind, table.variant, 3, budget.max_len,
                                 budget.max_steps, aux)
        assert [astuple(r) for r in table.rows] == want, (table.kind, table.variant)


@pytest.mark.parametrize("fast", ["0000", "0001"])
def test_ties_between_shortest_programs_go_to_fewer_steps(monkeypatch, fast):
    # x = "" has two shortest programs whose running times differ, the
    # faster one first or last in lexicographic order, and a longer one
    # faster than both.  k lists both shortest programs; phi, psi and
    # ld_0-rev report the faster of them, and ld_2-rev the longer one.
    slow = "0001" if fast == "0000" else "0000"
    runs = {slow: PrefixRunResult(HALTED, slow, "", 9),
            fast: PrefixRunResult(HALTED, fast, "", 5),
            "000001": PrefixRunResult(HALTED, "000001", "", 2)}
    monkeypatch.setattr(DepthLab, "_producers",
                        lambda self, x, budget, aux: dict(runs) if x == "" else {})
    lab, budget = DepthLab(), Budget(0, 1000)
    assert lab.k_bounded("", budget).witnesses == ("0000", "0001")
    phi, = lab.phi_table(0, budget).rows
    psi, = lab.psi_table(0, budget).rows
    ld0 = lab.logical_depth("", 0, budget, "rev")
    assert (phi.value, phi.witness_program) == (5, fast)
    assert (psi.value, psi.witness_program) == (ld0.ld, fast) == (85, fast)
    assert lab.logical_depth("", 2, budget, "rev").witness == "000001"


def test_general_depth_admits_a_producer_from_its_excess(monkeypatch):
    # "000001" makes "" in 2 steps, faster than the shortest program
    # "0000" (5 steps), and the empty-aux sweep holds the 4-bit "0011"
    # making it: its excess |p| - k(p) is 2, so the general ld_b("") takes
    # it from b = 2 on.  The sweep holds no program for "0000", which
    # admits it at every b.
    runs = {"0000": PrefixRunResult(HALTED, "0000", "", 5),
            "000001": PrefixRunResult(HALTED, "000001", "", 2)}
    monkeypatch.setattr(DepthLab, "_producers",
                        lambda self, x, budget, aux: dict(runs) if x == "" else {})
    lab, budget = DepthLab(), Budget(0, 1000)
    lab.sweep(budget)
    lab._sweeps[budget, ""][1]["000001"] = {
        "0011": PrefixRunResult(HALTED, "0011", "000001", 7)}
    assert [lab.logical_depth("", b, budget, "gen").witness for b in range(4)] == \
        ["0000", "0000", "000001", "000001"]
    assert lab.incompressible_programs("", 1, budget).programs == ("0000",)
    assert lab.incompressible_programs("", 2, budget).programs == ("0000", "000001")


@pytest.mark.parametrize("name, short", [("reversible", "rev"), ("general", "gen")])
def test_variant_named_once_in_tables_and_records(lab, name, short):
    for spelling in (name, short):
        assert lab.f_table(1, QUICK, variant=spelling).variant == name
        assert lab.logical_depth("0", 0, QUICK, spelling).variant == name
    with pytest.raises(ValueError, match="unknown variant"):
        lab.f_table(1, QUICK, variant=name[:1])


# --- budget monotonicity -----------------------------------------------------------

def test_budget_monotonicity_in_steps(lab):
    small = Budget(10, 1500)
    double = Budget(10, 3000)
    for x in ("", "0", "00", "000"):
        a = lab.k_bounded(x, small)
        b = lab.k_bounded(x, double)
        assert b.k_upper <= a.k_upper
        assert b.exhaustive >= a.exhaustive
        for variant in ("general", "reversible"):
            da = lab.logical_depth(x, 1, small, variant)
            db = lab.logical_depth(x, 1, double, variant)
            if not isinstance(da, NoWitness):
                assert not isinstance(db, NoWitness)
                assert db.ld <= da.ld


def test_budget_monotonicity_in_length(lab):
    a = lab.k_bounded("000", Budget(7, 3000))
    b = lab.k_bounded("000", Budget(10, 3000))
    assert b.k_upper <= a.k_upper


# --- the sweep ----------------------------------------------------------------------

def _tree_from_scratch(budget, aux):
    table, layer = {}, [""]
    while layer:
        grown = []
        for bits in layer:
            r = table[bits] = universal_run(bits, aux, budget.max_steps)
            if r.outcome == TAPE_EXHAUSTED and len(bits) < budget.max_len:
                grown += [bits + "0", bits + "1"]
        layer = grown
    return table


def _machine_runs(budget, aux):
    """The from-scratch tree over all strings, kept to the strings whose
    <i> decodes within D to a machine other than the diverger and the
    literal printer."""
    kept = {}
    for bits, r in _tree_from_scratch(budget, aux).items():
        if bits.startswith(PRINTER):
            continue
        try:
            decoded = decode_index(bits[:budget.max_steps])
        except MalformedIndex:
            continue
        if decoded is not None and not is_diverger(enumerate_machine(decoded[0])):
            kept[bits] = r
    return kept


@pytest.mark.parametrize("budget", [Budget(8, 800), Budget(8, 17)])
@pytest.mark.parametrize("aux", ["", "1011"])
def test_sweep_is_the_tree_of_executed_runs(budget, aux):
    lab = DepthLab()
    table = lab.sweep(budget, aux)
    assert list(table.items()) == list(_machine_runs(budget, aux).items())
    for bits, r in table.items():
        assert r == universal_run(bits, aux, budget.max_steps)

    direct = {}
    for bits in bit_strings(budget.max_len):
        r = universal_run(bits, aux, budget.max_steps)
        if r.outcome == HALTED and r.program == bits and not bits.startswith(PRINTER):
            direct[bits] = r
    assert lab.exact_halters(budget, aux) == direct


# Every D up to 40, then pairs (D, D + 1) every six, so that a parent's
# exhaustion step count, or one more, is often the child's whole budget.
RESUME_BUDGETS = [*range(41), *(d + e for d in range(41, 120, 6) for e in (0, 1)),
                  800, 3000, 100_000]


@pytest.mark.parametrize("aux", ["", "1", "1011"])
def test_resumed_sweep_equals_runs_from_scratch(aux):
    lab = DepthLab()
    for d in RESUME_BUDGETS:
        budget = Budget(11, d)
        want = _machine_runs(budget, aux)
        assert list(lab.sweep(budget, aux).items()) == list(want.items()), d


@pytest.mark.parametrize("aux", ["", "1011"])
def test_sweep_finds_every_program_of_every_string(aux):
    # The sweep never runs the index layer or the literal printer; its
    # exact halters plus the printer's one program per x within L must be
    # what running every string up to L=12 finds per output, with D
    # below, at and above the 4 steps of the halt program "0001".
    max_len = 12
    for d in (0, 3, 4, 5, 17, 800, 100_000):
        every: dict = {}

        def runner(bits, aux, budget):
            r = universal_run(bits, aux, budget)
            if r.outcome == HALTED and r.program == bits:
                every.setdefault(r.output, {})[bits] = r
            return r

        report = prefix_free_check(max_len, d, aux, runner=runner)
        assert report.runs == 2 ** (max_len + 1) - 1
        assert report.prefix_free
        found: dict = {}
        for bits, r in DepthLab().exact_halters(Budget(max_len, d), aux).items():
            assert not bits.startswith(PRINTER), bits
            found.setdefault(r.output, {})[bits] = r
        for x in bit_strings((max_len - len(PRINTER) - 2) // 2):
            seed = print_program(x)
            r = universal_run(seed, aux, d)
            if r.outcome == HALTED and r.program == seed:
                found.setdefault(r.output, {})[seed] = r
        assert found == every, d
        assert bool(every) == (d >= 4), d


def test_cold_sweep_never_resumes_a_closed_form(monkeypatch):
    # The printer's programs are never in the table; the slow repeaters'
    # 34 records are, but come from their closed form, so the sweep
    # resumes only the other 20 strings.
    resumed = []

    def recording(paused, bits, budget):
        resumed.append(bits)
        return resume_run(paused, bits, budget)

    monkeypatch.setattr("revlab.depth.resume_run", recording)
    table = DepthLab().sweep(Budget(16, 100_000))
    assert resumed == _executed(table)
    assert (len(table), len(resumed)) == (54, 20)
    assert not [bits for bits in resumed if bits.startswith((PRINTER, *SLOW))]
    assert not [bits for bits in table if bits.startswith(PRINTER)]
    assert len(DepthLab().sweep(Budget(26, 100_000))) == 102


@pytest.mark.parametrize("aux", ["", "1011"])
def test_every_root_of_the_sweep_keeps_its_mass(aux):
    # Kraft mass, in exact fractions: the leaves under each root (runs
    # that halted or exceeded D, and runs tape-exhausted at length L)
    # weigh what the root weighs, 2^-|root|, closed-form roots included.
    # The roots are every code of _described but the printer's, so they
    # weigh what those codes weigh.  A lost child or a missing root
    # changes a sum.
    lab = DepthLab()
    for max_len, steps in product(range(27), (0, 6, 7, 40, 300, 100_000, 10 ** 9)):
        table = lab.sweep(Budget(max_len, steps), aux)
        codes = [code for code, _ in _described(min(max_len, steps)) if code != PRINTER]
        mass = dict.fromkeys(codes, Fraction(0))
        for bits, r in table.items():
            if r.outcome != TAPE_EXHAUSTED or len(bits) == max_len:
                (root,) = [code for code in codes if bits.startswith(code)]
                mass[root] += Fraction(1, 2 ** len(bits))
        assert mass == {code: Fraction(1, 2 ** len(code)) for code in codes}, \
            (max_len, steps)
        assert sum(mass.values()) == sum(Fraction(1, 2 ** len(c)) for c in codes)
        assert set(codes) <= set(table), (max_len, steps)


def test_a_large_budget_runs_no_slow_repeater(monkeypatch):
    # At D = 10^9 the slow repeaters' programs would run for up to T(13),
    # about 3.6 * 10^8 steps.  Their records come from the closed form, so
    # the sweep resumes no string under their codes, and the psi, phi and
    # f-rev rows are those at D = 10^5: no row there rests on a budget
    # between the two.  The table grows by the records of k = 8 to 13.
    resumed = []

    def recording(paused, bits, budget):
        resumed.append(bits)
        return resume_run(paused, bits, budget)

    monkeypatch.setattr("revlab.depth.resume_run", recording)
    lab, small, large = DepthLab(), Budget(26, 100_000), Budget(26, 10 ** 9)
    for table in (lab.psi_table, lab.phi_table, lab.f_table):
        assert table(10, large).rows == table(10, small).rows, table.__name__
    assert (len(lab.sweep(small)), len(lab.sweep(large))) == (102, 126)
    assert not [bits for bits in resumed if bits.startswith(SLOW)]


@pytest.mark.parametrize("method", ["sweep", "exact_halters"])
def test_sweep_of_a_non_binary_aux_raises_before_running(tmp_path, monkeypatch, method):
    def no_run(*args):
        raise AssertionError(f"unexpected run {args}")

    monkeypatch.setattr("revlab.depth.resume_run", no_run)
    monkeypatch.setattr("revlab.depth.universal_run", no_run)
    lab = DepthLab(ledger=RunLedger(tmp_path))
    with pytest.raises(ValueError, match="aux must be binary"):
        getattr(lab, method)(Budget(10, 1000), "2")
    lab.ledger.save()
    assert len(lab.ledger) == 0
    assert list(tmp_path.iterdir()) == []


def test_children_of_ledger_hits_resume_without_decoding(tmp_path, monkeypatch):
    budget = Budget(12, 100_000)
    cold = DepthLab(ledger=RunLedger(tmp_path / "cold"))
    cold_table = cold.sweep(budget)
    cold.ledger.save()
    cold_lines = (tmp_path / "cold" / f"{cold.digest}.jsonl").read_text().splitlines()

    part = DepthLab(ledger=RunLedger(tmp_path / "part"))
    part.sweep(Budget(9, budget.max_steps))
    part.ledger.save()
    path = tmp_path / "part" / f"{part.digest}.jsonl"
    kept = path.read_text().splitlines()[::2]
    path.write_text("".join(line + "\n" for line in kept))

    def no_decoding(bits):
        raise AssertionError(f"unexpected decoding of {bits!r}")

    warm = DepthLab(ledger=RunLedger(tmp_path / "part"))
    monkeypatch.setattr("revlab.prefixvm.decode_index", no_decoding)
    assert list(warm.sweep(budget).items()) == list(cold_table.items())
    warm.ledger.save()
    appended = path.read_text().splitlines()[len(kept):]
    have = set(kept)
    assert appended == [line for line in cold_lines if line not in have]


# --- ledger -------------------------------------------------------------------------

def test_ledger_roundtrip(tmp_path):
    lab = DepthLab(ledger=RunLedger(tmp_path))
    rec = lab.k_bounded("01", QUICK)
    lab.ledger.save()
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].name == f"{lab.digest}.jsonl"

    warm = DepthLab(ledger=RunLedger(tmp_path))
    assert len(warm.ledger) == len(lab.ledger)
    assert warm.k_bounded("01", QUICK) == rec


@pytest.mark.parametrize("aux", ["", "1011"])
def test_ledger_lines_are_sorted_json(tmp_path, aux):
    # Lines are formatted directly; they must be the bytes json.dumps
    # with sorted keys writes, so that JSON readers still parse the file.
    # A string it would have to escape is never run, so never saved.
    lab = DepthLab(ledger=RunLedger(tmp_path))
    table = lab.sweep(Budget(10, 100_000), aux)
    with pytest.raises(ValueError, match="aux must be binary"):
        lab.ledger.run("0001", "\u00e9\"", 10)
    lab.ledger.save()
    lines = lab.ledger.path.read_text().splitlines()
    assert len(lines) == len(_executed(table))
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)
    assert RunLedger(tmp_path)._mem == lab.ledger._mem


@pytest.mark.parametrize("bits, aux", [
    ("0002", ""), ("0001", "\u00e9\""), ("1\n", "0"), ("", " 1"),
], ids=["bits-2", "aux-escaped", "bits-newline", "aux-space"])
@pytest.mark.parametrize("method", ["run", "extend"])
def test_ledger_runs_only_binary_strings(tmp_path, monkeypatch, method, bits, aux):
    (root, parent), *_ = machine_starts(8, "")

    def no_run(*args):
        raise AssertionError(f"unexpected run {args}")

    monkeypatch.setattr("revlab.depth.universal_run", no_run)
    monkeypatch.setattr("revlab.depth.resume_run", no_run)
    ledger = RunLedger(tmp_path)
    args = (bits, aux, 100) if method == "run" else (root + bits, aux, 100, parent)
    with pytest.raises(ValueError, match="must be binary"):
        getattr(ledger, method)(*args)
    ledger.save()
    assert len(ledger) == 0
    assert list(tmp_path.iterdir()) == []


def test_corrupt_ledger_line_before_the_last_raises(tmp_path):
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(8, 500))
    lab.ledger.save()
    path = lab.ledger.path
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 3
    lines[2] = lines[2][:-9] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: corrupt ledger line"):
        RunLedger(tmp_path)


def test_ledger_without_final_newline_loads_every_entry(tmp_path, capsys):
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(8, 500))
    lab.ledger.save()
    path = lab.ledger.path
    data = path.read_bytes()
    path.write_bytes(data[:-1])

    ledger = RunLedger(tmp_path)
    assert ledger._mem == lab.ledger._mem
    ledger.run(print_program("0101"), "", 3000)
    ledger.save()
    assert capsys.readouterr().err == ""
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == data.count(b"\n") + 1
    assert all(json.loads(line) for line in lines)
    assert RunLedger(tmp_path)._mem == ledger._mem


_RECORD_FIELDS = {"aux": "", "bits": "0001", "budget": 10, "outcome": HALTED,
                  "output": "", "program": "0001", "steps": 4}


@pytest.mark.parametrize("line", [
    '{"a": 1}',
    "[1, 2]",
    '"0001"',
    "null",
    json.dumps({**_RECORD_FIELDS, "steps": "x"}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "budget": True}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "aux": None}, sort_keys=True),
    json.dumps({k: v for k, v in _RECORD_FIELDS.items() if k != "steps"}),
    json.dumps({**_RECORD_FIELDS, "pair": None}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "outcome": "spun"}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "steps": -3, "bits": "1"}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "budget": -1}, sort_keys=True),
    # run records by hand, not in the saver's template
    json.dumps({**_RECORD_FIELDS, "aux": "\u00e9\"\\"}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "output": "2"}, sort_keys=True),
    json.dumps({**_RECORD_FIELDS, "bits": "0"}, sort_keys=True).replace('"0"', '"\\u0030"'),
    json.dumps(dict(reversed(list(_RECORD_FIELDS.items())))),
    json.dumps(_RECORD_FIELDS, sort_keys=True, indent=1).replace("\n", ""),
    " " + json.dumps(_RECORD_FIELDS, sort_keys=True) + "\t",
    json.dumps(_RECORD_FIELDS, sort_keys=True, separators=(",", ":")),
], ids=["object", "list", "string", "null", "str-steps", "bool-budget",
        "null-aux", "missing-key", "extra-key", "unknown-outcome",
        "negative-steps", "negative-budget", "escaped-aux", "non-binary-output",
        "unicode-escape", "reordered-keys", "indented", "padded", "compact"])
@pytest.mark.parametrize("last", [False, True])
def test_ledger_line_that_is_no_run_record_raises(tmp_path, line, last):
    # A line that ends in a newline is never a torn save, so it is
    # corrupt even as the last line.
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(8, 500))
    lab.ledger.save()
    path = lab.ledger.path
    lines = path.read_text().splitlines(keepends=True)
    n = len(lines) + 1 if last else 2
    lines.insert(n - 1, line + "\n")
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{n}: corrupt ledger line"):
        RunLedger(tmp_path)


def test_template_decode_equals_json_decode(tmp_path, capsys):
    lab = DepthLab(ledger=RunLedger(tmp_path))
    for aux in ("", "1011"):
        lab.sweep(Budget(12, 100_000), aux)
    lab.ledger.save()
    path = lab.ledger.path
    saved = path.read_bytes().splitlines()
    assert all(_RECORD.fullmatch(line) for line in saved)

    # a blank line, a saved key twice more with the last line winning,
    # then a torn save
    bits, aux, budget = next(iter(lab.ledger._mem))
    again = [_LINE.format(aux, bits, budget, HALTED, "01", bits, steps)[:-1].encode()
             for steps in (7, 8)]
    torn = _LINE.format(aux, "1111", budget, HALTED, "01", "1111", 7)[:-9]
    path.write_bytes(b"\n".join(saved + [b" "] + again + [torn.encode()]))

    ledger = RunLedger(tmp_path)
    assert "truncated last line" in capsys.readouterr().err
    by_json = {}
    for line in saved + again:
        e = json.loads(line)
        by_json[e["bits"], e["aux"], e["budget"]] = PrefixRunResult(
            e["outcome"], e["program"], e["output"], e["steps"])
    assert list(ledger._mem.items()) == list(by_json.items())
    assert all(type(r.steps) is int for r in ledger._mem.values())
    assert len(ledger) == len(lab.ledger)
    assert ledger._mem[bits, aux, budget].steps == 8
    assert ("1111", aux, budget) not in ledger._mem


@pytest.mark.parametrize("whole", [False, True])
def test_tail_left_under_a_loaded_ledger_is_settled_by_its_save(tmp_path, capsys, whole):
    # A third writer leaves a line without its newline after the second
    # ledger has loaded: a torn save is cut, a whole record keeps its line.
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(8, 500))
    lab.ledger.save()
    path = lab.ledger.path
    second = RunLedger(tmp_path)
    third = RunLedger()
    r = third.run(print_program("1110"), "", 3000)
    tail = _LINE.format("", print_program("1110"), 3000, r.outcome, r.output,
                        r.program, r.steps)[:-1]
    with path.open("a") as fh:
        fh.write(tail if whole else tail[:30])
    second.run(print_program("0101"), "", 3000)
    second.save()

    fresh = RunLedger(tmp_path)
    assert capsys.readouterr().err == ""
    assert path.read_bytes().endswith(b"\n")
    assert fresh._mem == ({**second._mem, **third._mem} if whole else second._mem)
    assert len(fresh) == len(lab.ledger) + 1 + whole == 12 + whole


def test_savers_racing_over_a_torn_tail_keep_a_loadable_file(tmp_path, monkeypatch):
    # Two ledgers save while a crashed writer's torn line ends the file.
    # The second save starts while the first holds the file open, and
    # waits for the first to finish its check, cut and append.
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(8, 500))
    lab.ledger.save()
    path = lab.ledger.path
    first, second = RunLedger(tmp_path), RunLedger(tmp_path)
    first.run(print_program("0101"), "", 3000)
    for x in ("1110", "0011", "110011", "1011100"):
        second.run(print_program(x), "", 3000)
    r = RunLedger().run(print_program("10"), "", 3000)
    with path.open("a") as fh:
        fh.write(_LINE.format("", print_program("10"), 3000, r.outcome, r.output,
                              r.program, r.steps)[:30])

    errors, waited = [], []

    def save_second():
        try:
            second.save()
        except BaseException as e:  # surfaced by the assert below
            errors.append(e)

    racer = threading.Thread(target=save_second)

    class Interleaved:
        """The first saver's file: its first read lets the second saver go."""

        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

        def read(self, *args):
            if racer.ident is None:
                racer.start()
                racer.join(timeout=0.5)
                waited.append(racer.is_alive())
            return self._fh.read(*args)

    real_open = Path.open

    def open_once(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        return Interleaved(fh) if racer.ident is None else fh

    monkeypatch.setattr(Path, "open", open_once)
    first.save()
    monkeypatch.undo()
    racer.join(timeout=10)

    assert not racer.is_alive() and errors == []
    assert waited == [True]
    fresh = RunLedger(tmp_path)
    assert path.read_bytes().endswith(b"\n")
    assert fresh._mem == {**first._mem, **second._mem}
    assert len(fresh) == len(lab.ledger) + 5


def test_ledger_hits_identical_to_recomputation(tmp_path):
    lab = DepthLab(ledger=RunLedger(tmp_path))
    lab.sweep(Budget(6, 500))
    for bits, r in lab.sweep(Budget(6, 500)).items():
        assert r == universal_run(bits, "", 500)


def test_ledgers_sharing_a_cache_keep_each_others_runs(tmp_path, monkeypatch):
    a, b = RunLedger(tmp_path), RunLedger(tmp_path)
    ra = a.run(print_program("0101"), "", 3000)
    a.save()
    rb = b.run(print_program("1110"), "", 3000)
    b.save()

    fresh = RunLedger(tmp_path)
    assert len(fresh) == 2

    def no_runs(*args):
        raise AssertionError(f"unexpected run {args}")

    monkeypatch.setattr("revlab.depth.universal_run", no_runs)
    assert fresh.run(print_program("0101"), "", 3000) == ra
    assert fresh.run(print_program("1110"), "", 3000) == rb


def test_warm_sweep_executes_nothing(tmp_path, monkeypatch):
    calls = []

    def counting(entry):
        def run(*args):
            calls.append(entry.__name__)
            return entry(*args)
        return run

    monkeypatch.setattr("revlab.depth.resume_run", counting(resume_run))
    cold = DepthLab(ledger=RunLedger(tmp_path))
    table = cold.sweep(QUICK)
    cold.ledger.save()
    (path,) = tmp_path.iterdir()
    assert calls
    assert len(_executed(table)) == len(calls)
    assert path.read_text().count("\n") == len(calls)

    calls.clear()
    warm = DepthLab(ledger=RunLedger(tmp_path))
    assert warm.sweep(QUICK) == table
    assert calls == []

    DepthLab().sweep(Budget(12, 3000))
    assert "resume_run" in calls


def test_ledger_with_index_layer_runs_still_serves_the_sweep(tmp_path, monkeypatch):
    # Ledgers written before the sweep was rooted at machine codes hold
    # every run of the tree grown from "", index layer included, and
    # those written before queries took the printer's run from its closed
    # form hold printer programs of any length.
    budget, printed = Budget(12, 3000), ("0", "0110", "1011001")
    old = RunLedger(tmp_path)
    for bits in _tree_from_scratch(budget, ""):
        old.run(bits, "", budget.max_steps)
    for x in printed:
        old.run(print_program(x), "", budget.max_steps)
    old.save()
    (path,) = tmp_path.iterdir()
    size = path.stat().st_size
    lab = DepthLab()
    cold = lab.sweep(budget)
    records = [lab.k_bounded(x, budget) for x in printed]

    def no_run(*args):
        raise AssertionError(f"unexpected run {args}")

    monkeypatch.setattr("revlab.depth.resume_run", no_run)
    monkeypatch.setattr("revlab.depth.universal_run", no_run)
    warm = DepthLab(ledger=RunLedger(tmp_path))
    assert len(warm.ledger) > len(cold)
    assert list(warm.sweep(budget).items()) == list(cold.items())
    assert [warm.k_bounded(x, budget) for x in printed] == records
    warm.ledger.save()
    assert path.stat().st_size == size


# --- upper-bound sanity ------------------------------------------------------------

def test_k_upper_within_log_bound_up_to_len_eight(lab):
    # Measured constant for this interpreter: the literal printer costs
    # 2n + 6 bits, so c = 7 covers n + 2*ceil(log2(n+1)) + c for n <= 8.
    c_u = 7
    budget = Budget(8, 3000)
    for n in range(9):
        for k in range(2 ** n):
            x = format(k, f"0{n}b") if n else ""
            rec = lab.k_bounded(x, budget)
            bound = n + 2 * math.ceil(math.log2(n + 1)) + c_u
            assert rec.k_upper <= bound, (x, rec.k_upper, bound)


@pytest.mark.parametrize("aux", ["", "1011"])
def test_producers_index_matches_scan(aux):
    # _producers reads the exact halters grouped by output and takes the
    # printer's run from its closed form; a scan over all exact halters
    # plus the printer's real run must give the same programs, results
    # and order, at D one step short of that run, at its length, and far
    # beyond it.
    lab = DepthLab()
    for max_len, x in product((8, 14), bit_strings(8)):
        for steps in (print_steps(x) - 1, print_steps(x), 100_000):
            budget = Budget(max_len, steps)
            scan = {p: r for p, r in lab.exact_halters(budget, aux).items()
                    if r.output == x}
            seed = print_program(x)
            r = universal_run(seed, aux, steps)
            if r.outcome == HALTED and r.program == seed and r.output == x:
                scan[seed] = r
            assert list(lab._producers(x, budget, aux).items()) == \
                list(scan.items()), (x, budget)
