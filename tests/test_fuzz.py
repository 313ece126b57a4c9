"""Differential fuzzing of the stepping loop against honest stepping.

Random machines of 1-4 tapes, with planted scan loops (identity and
rewriting, both directions), shift cycles that spin, left shifts that
clamp at cell 0 and writes that lead into a shift (the fused pairs of
``machines.execute``), run on random tapes with long runs of one symbol.
``run_from`` is compared with ``oracles.honest_trace``; bounded prefix
runs and pause-and-resume chains with ``oracles.honest_prefix_results``
and with ``run_prefix`` from scratch.

The seeds are fixed and each test runs a fixed number of cases, so every
machine runs the same cases, whatever its speed.
"""

import random
from itertools import product

import pytest

from oracles import honest_prefix_results, honest_trace
from revlab import machines
from revlab.machines import (
    BUDGET_EXCEEDED,
    HALTED,
    TAPE_EXHAUSTED,
    Alphabet,
    Configuration,
    Machine,
    ReadWriteRule,
    ShiftRule,
    output_of,
    rule_states,
    run_from,
    step,
)
from revlab.prefixvm import _fresh, resume_run, run_prefix

BLANK = "_"
CAP = 400  # honest steps per trace
MACHINES = 45  # per seed and test
SEEDS = (5081, 7213, 9907)


def symbols(rng, program_tape):
    if program_tape or rng.random() < 0.6:
        return ("0", "1", BLANK)
    return ("0", "1", "a", BLANK)


def random_machine(rng, tapes, prefix=False):
    """A deterministic machine on ``tapes`` tapes.  With ``prefix`` it has
    4 tapes and the first is a program tape: read-only, never shifted
    left, over 0, 1 and the blank."""
    alphabets = [symbols(rng, prefix and t == 0) for t in range(tapes)]
    names = [f"q{i}" for i in range(rng.randint(2, 5))]
    spin = [f"z{i}" for i in range(rng.randint(1, 2))]
    rules = []

    def target():
        return spin[0] if rng.random() < 0.05 else rng.choice(names)

    def moves(keep=None):
        out = []
        for t in range(tapes):
            if keep is None:
                d = rng.choice((-1, 0, 1))
            else:
                d = keep[1] if t == keep[0] else 0
            out.append(max(d, 0) if prefix and t == 0 else d)
        return tuple(out)

    def writes(reads):
        return tuple(r if prefix and t == 0 or rng.random() < 0.5
                     else rng.choice(alphabets[t]) for t, r in enumerate(reads))

    # A cycle of shift states: a run entering it spins.
    for a, b in zip(spin, spin[1:] + spin[:1]):
        rules.append(ShiftRule(a, moves(), b))
    for s in names:
        kind = rng.random()
        if kind < 0.25:
            rules.append(ShiftRule(s, moves(), target()))
            continue
        reads_all = list(product(*alphabets))
        rng.shuffle(reads_all)
        taken = set()
        if kind < 0.65:  # a scan loop on tape i, through the shift state s + "m"
            i = 0 if prefix and rng.random() < 0.4 else rng.randrange(tapes)
            d = 1 if prefix and i == 0 else rng.choice((-1, 1))
            rules.append(ShiftRule(s + "m", moves((i, d)), s))
            cells = [c for c in alphabets[i] if rng.random() < 0.6] or [alphabets[i][0]]
            identity = (prefix and i == 0) or rng.random() < 0.4
            cell_map = {c: c if identity else rng.choice(alphabets[i]) for c in cells}
            # The loop reads the other tapes too: any of their symbols, or
            # one to three combinations of them.
            some = rng.sample(reads_all, rng.randint(1, 3))
            for reads in reads_all if rng.random() < 0.5 else some:
                for c in cells:
                    scan_reads = reads[:i] + (c,) + reads[i + 1:]
                    if scan_reads not in taken:
                        taken.add(scan_reads)
                        w = scan_reads[:i] + (cell_map[c],) + scan_reads[i + 1:]
                        rules.append(ReadWriteRule(s, scan_reads, w, s + "m"))
        for reads in reads_all:
            if reads not in taken and rng.random() < 0.6:
                rules.append(ReadWriteRule(s, reads, writes(reads), target()))
    states, halt = rule_states(rules, names)
    return Machine("fuzz", tuple(Alphabet.of(*a, blank=BLANK) for a in alphabets),
                   states, names[0], halt, tuple(rules), output_tape=4 if prefix else 0)


def random_cells(rng, alphabet, longest):
    """Runs of one symbol, some of them long."""
    cells = []
    end = rng.randint(0, longest)
    while len(cells) < end:
        run = rng.randint(1, 4) if rng.random() < 0.6 else rng.randint(10, 120)
        cells += [rng.choice(alphabet)] * run
    return tuple(cells[:end])


def random_configuration(rng, m):
    tapes, heads = [], []
    for a in m.alphabets:
        cells = random_cells(rng, sorted(a.symbols), rng.choice((6, 40, 250)))
        tapes.append(cells)
        heads.append(rng.choice((0, len(cells), rng.randint(0, len(cells) + 3))))
    return Configuration.make(rng.choice(sorted(m.states)), tuple(tapes), tuple(heads),
                              0, m.blanks())


def budgets(rng, last):
    """Budgets around the edges of a run of ``last`` steps, and inside."""
    picks = {0, 1, 2, last - 1, last, last + 1}
    picks.update(rng.randint(0, last + 1) for _ in range(2))
    return sorted(b for b in picks if b >= 0)


def features(m, configs):
    """Which of a clamp at cell 0, a spin and a write fused with its shift
    an honest trace steps through."""
    tables = m._compiled
    moves = {r.from_state: r.moves for r in m.rules if isinstance(r, ShiftRule)}
    found = set()
    for a in configs[:-1]:
        if a.state in moves:
            if any(d < 0 and h == 0 for d, h in zip(moves[a.state], a.heads)):
                found.add("clamp")
            if a.state in tables.spins:
                found.add("spin")
        else:
            reads = tuple(t[h] if h < len(t) else blank
                          for t, h, blank in zip(a.tapes, a.heads, tables.blanks))
            if tables.rw[a.state][reads][3] is not None:
                found.add("fused")
    return found


@pytest.fixture()
def counted_scans(monkeypatch):
    """Counts the calls of ``machines._scan_ahead``, the fast-forward."""
    calls = []
    scan_ahead = machines._scan_ahead

    def counted(tape, h, d, left, cells):
        covered = scan_ahead(tape, h, d, left, cells)
        calls.append((d, covered, h + d * covered in (0, len(tape) - 1)))
        return covered
    monkeypatch.setattr(machines, "_scan_ahead", counted)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_run_from_matches_honest_stepping(seed, counted_scans):
    rng = random.Random(seed)
    cases = 0
    outcomes = set()
    seen = set()
    for _ in range(MACHINES):
        m = random_machine(rng, rng.randint(1, 4))
        for _ in range(2):
            configs = honest_trace(m, random_configuration(rng, m), CAP)
            seen |= features(m, configs)
            halted = step(m, configs[-1]) is None
            last = len(configs) - 1
            for j in {0, rng.randint(0, last)}:
                for k in budgets(rng, last - j):
                    end = min(j + k, last)
                    if j + k > last and not halted:
                        continue  # past the traced steps
                    r = run_from(m, configs[j], k)
                    want = HALTED if halted and end == last else BUDGET_EXCEEDED
                    assert (r.outcome, r.final, r.steps, r.output) == \
                        (want, configs[end], end - j, output_of(m, configs[end])), \
                        (seed, m.rules, configs[j], k)
                    outcomes.add(r.outcome)
                    cases += 1
    assert cases > 850
    assert outcomes == {HALTED, BUDGET_EXCEEDED}
    assert seen == {"clamp", "spin", "fused"}
    # Fast-forwards both ways, to cell 0 or the last cell and to a stop
    # far in.
    assert {d for d, _, _ in counted_scans} == {-1, 1}
    assert any(edge for _, _, edge in counted_scans)
    assert any(covered >= 10 and not edge for _, covered, edge in counted_scans)


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_runs_and_resumed_chains_match_honest_stepping(seed, counted_scans):
    rng = random.Random(seed)
    cases = 0
    outcomes = set()
    for _ in range(MACHINES):
        m = random_machine(rng, 4, prefix=True)
        for _ in range(2):
            bits = "".join(random_cells(rng, "01", rng.choice((4, 12, 60))))
            aux = rng.choice(("", "1011", "".join(random_cells(rng, "01", 30))))
            honest = honest_prefix_results(m, bits, aux, CAP)
            last = len(honest) - 1
            for b in budgets(rng, last):
                if b > CAP:
                    continue
                r = run_prefix(m, bits, aux, b)
                assert (r.outcome, r.program, r.output, r.steps) == \
                    honest[min(b, last)], (seed, m.rules, bits, aux, b)
                outcomes.add(r.outcome)
                cases += 1
            # Resume one paused run on longer and longer prefixes of bits,
            # and on a sibling of each, at a budget that grows from the
            # steps already taken.
            paused, paused_on = _fresh(m, aux, 0), 0
            cuts = {rng.randint(0, len(bits)) for _ in range(3)} | {len(bits)}
            for cut in sorted(cuts):
                prefix = bits[:cut]
                b = rng.randint(paused.steps, CAP)
                if cut > paused_on:  # a sibling: the last bit flipped
                    sibling = prefix[:-1] + "01"[prefix[-1] == "0"]
                    r, _ = resume_run(paused, sibling, b)
                    assert r == run_prefix(m, sibling, aux, b), \
                        (seed, m.rules, sibling, aux, b)
                r, paused = resume_run(paused, prefix, b)
                paused_on = cut
                assert r == run_prefix(m, prefix, aux, b), (seed, m.rules, prefix, aux, b)
                cases += 1
                if r.outcome != TAPE_EXHAUSTED or cut == len(bits):
                    # A run that stopped inside its prefix is the run of bits.
                    assert (r.outcome, r.program, r.output, r.steps) == \
                        honest[min(b, last)], (seed, m.rules, prefix, aux, b)
                    break
    assert cases > 500
    assert outcomes == {HALTED, TAPE_EXHAUSTED, BUDGET_EXCEEDED}
    assert any(covered for _, covered, _ in counted_scans)
