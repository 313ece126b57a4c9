"""Definitional references for the tests: brute-force oracles for
complexity, depth and prefix-freeness, a direct quintuple-machine
interpreter, the general grammar's encoder, the naive rule-overlap
predicates, and honest stepping.

The depth oracles are deliberately independent of revlab.depth:
straight loops over direct interpreter calls, no ledger, no sweep
sharing, their own enumeration and seed construction, their own
tie-breaking written from the definitions.  The only reused code is the
interpreter itself, which is what these oracles check the depth lab
against.  ``prefix_free_check`` runs every bit string up to L, the
oracle for ``revlab univ check-prefix``, which reads the sweep.
``run_quintuple`` is the oracle for ``machines.normalize_to_quadruples``.
``serialize_index`` inverts the decoder ``prefixvm._parse_general``;
``domains_overlap`` and ``ranges_overlap`` define the conflicts that
``machines._overlap_conflicts`` finds by grouping.  Honest stepping
iterates ``machines.step``, the reference for ``machines.execute``:
``honest_trace`` collects a run's configurations, and
``honest_prefix_results`` reads ``run_prefix``'s result at every budget
from one run, and ``assert_run_from_matches_stepping`` checks
``run_from`` from every configuration of a trace.
"""

from dataclasses import dataclass
from itertools import product

from revlab.machines import (
    BUDGET_EXCEEDED,
    HALTED,
    TAPE_EXHAUSTED,
    Configuration,
    Machine,
    MachineError,
    QuintupleMachine,
    QuintupleRule,
    ReadWriteRule,
    Rule,
    RunResult,
    ShiftRule,
    output_of,
    run_from,
    step,
)
from revlab.prefixvm import (
    BIT_BLANK,
    _AUX_CODE,
    _GENERAL_PREFIX,
    _MOVE_CODE,
    _width,
    _work_symbols,
    index_of_string,
    universal_reversible_run,
    universal_run,
)

_tables: dict = {}
_exact_by_output: dict = {}


def inputs_up_to(alphabet, max_len: int):
    """Every string over ``alphabet`` of length <= max_len, in (length,
    alphabet) order."""
    for n in range(max_len + 1):
        for combo in product(alphabet, repeat=n):
            yield "".join(combo)


def bit_strings(max_len: int):
    return inputs_up_to("01", max_len)


def literal_print(x: str) -> str:
    # <2> is "1101"; payload bits doubled, closed by "01".
    return "1101" + "".join(c + c for c in x) + "01"


def run_table(max_len: int, max_steps: int, aux: str = "") -> dict:
    """Every bit string up to max_len run directly (memoized per budget,
    but every stored entry came from a fresh universal_run call)."""
    key = (max_len, max_steps, aux)
    if key not in _tables:
        _tables[key] = {
            bits: universal_run(bits, aux, max_steps)
            for bits in bit_strings(max_len)
        }
    return _tables[key]


def producers(x: str, max_len: int, max_steps: int, aux: str = "") -> dict:
    key = (max_len, max_steps, aux)
    if key not in _exact_by_output:  # the table's exact halters by output
        index: dict = {}
        for bits, r in run_table(max_len, max_steps, aux).items():
            if r.outcome == "halted" and r.program == bits:
                index.setdefault(r.output, {})[bits] = r
        _exact_by_output[key] = index
    out = dict(_exact_by_output[key].get(x, {}))
    seed = literal_print(x)
    if seed not in out:
        r = universal_run(seed, aux, max_steps)
        if r.outcome == "halted" and r.program == seed and r.output == x:
            out[seed] = r
    return out


def naive_k(x: str, max_len: int, max_steps: int, aux: str = ""):
    """(k, sorted minimal witnesses) or None."""
    found = producers(x, max_len, max_steps, aux)
    if not found:
        return None
    k = min(len(p) for p in found)
    return k, tuple(sorted(p for p in found if len(p) == k))


def naive_ld_general(x: str, b: int, max_len: int, max_steps: int,
                     aux: str = ""):
    """(steps, witness) minimizing over b-incompressible producers."""
    best = None
    for p, r in producers(x, max_len, max_steps, aux).items():
        nested = naive_k(p, max_len, max_steps)
        if nested is not None and len(p) > nested[0] + b:
            continue
        key = (r.steps, len(p), p)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[0], best[2]


def naive_ld_reversible(x: str, b: int, max_len: int, max_steps: int,
                        aux: str = ""):
    got = naive_k(x, max_len, max_steps, aux)
    if got is None:
        return None
    threshold = got[0] + b
    best = None
    for p in producers(x, max_len, max_steps, aux):
        if len(p) > threshold:
            continue
        r = universal_reversible_run(p, aux, max_steps)
        if r.outcome != "halted" or r.pair != (p, x):
            continue
        key = (r.steps, len(p), p)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[0], best[2]


def naive_psi(x: str, max_len: int, max_steps: int, aux: str = ""):
    """(steps, witness): ld_0-rev, the shortest running time of a shortest
    program, or None when no shortest program's reversible run halts
    within max_steps."""
    return naive_ld_reversible(x, 0, max_len, max_steps, aux)


def naive_phi(x: str, max_len: int, max_steps: int, aux: str = ""):
    """(steps, witness): the shortest producer, then the fewest forward
    steps, then the lexicographically first."""
    found = [(len(p), r.steps, p)
             for p, r in producers(x, max_len, max_steps, aux).items()]
    return min(found)[1:] if found else None


def naive_growth_rows(kind: str, variant: str, n_max: int, max_len: int,
                      max_steps: int, aux: str = "") -> list:
    """Rows (n, value, witness x, witness program, witness b,
    inconclusive) of psi, phi or f.  psi and phi take their value from
    naive_psi and naive_phi.  f takes the largest ld_b(x) - ld_(b+1)(x)
    over 0 <= b <= |x|, the first b winning a tie.  Row n is the largest
    value over |x| = n, the first x winning a tie; the first x without a
    value makes the row inconclusive."""
    naive_ld = naive_ld_reversible if variant == "reversible" else naive_ld_general

    def value(x):
        if kind != "f":
            got = (naive_psi if kind == "psi" else naive_phi)(x, max_len, max_steps, aux)
            return None if got is None else (got[0], got[1], None)
        lds = [naive_ld(x, b, max_len, max_steps, aux) for b in range(len(x) + 2)]
        if None in lds:
            return None
        best = None
        for b in range(len(x) + 1):
            drop = lds[b][0] - lds[b + 1][0]
            if best is None or drop > best[0]:
                best = (drop, lds[b][1], b)
        return best

    rows = []
    for n in range(n_max + 1):
        best = None
        for x in ("".join(bits) for bits in product("01", repeat=n)):
            got = value(x)
            if got is None:
                rows.append((n, None, x, "", None, True))
                break
            if best is None or got[0] > best[1][0]:
                best = (x, got)
        else:
            x, (val, program, b) = best
            rows.append((n, val, x, program, b, False))
    return rows


@dataclass(frozen=True)
class CheckReport:
    max_len: int
    budget: int
    aux: str
    runs: int
    halting_programs: tuple[str, ...]
    violations: tuple[tuple[str, str], ...]

    @property
    def prefix_free(self) -> bool:
        return not self.violations


def prefix_free_check(max_len: int, budget: int, aux: str = "",
                      runner=universal_run) -> CheckReport:
    """Run every bit string up to max_len through ``runner`` and check
    that the set of halting programs is an antichain under the prefix
    order.  A test passes its own ``runner`` to break or record runs."""
    programs = set()
    runs = 0
    for bits in bit_strings(max_len):
        runs += 1
        result = runner(bits, aux, budget)
        if result.outcome == HALTED:
            programs.add(result.program)
    ordered = sorted(programs)
    violations = [(a, b) for a, b in zip(ordered, ordered[1:]) if b.startswith(a)]
    return CheckReport(max_len, budget, aux, runs, tuple(ordered),
                       tuple(violations))


def run_quintuple(m5: QuintupleMachine, input_symbols: str | tuple[str, ...],
                  budget: int) -> RunResult:
    """Direct interpreter for quintuple machines (write then shift in one
    step); used to compare step counts against the normalized form."""
    if budget < 0:
        raise MachineError("budget must be >= 0")
    table: dict[tuple[str, tuple[str, ...]], QuintupleRule] = {}
    for r in m5.rules:
        key = (r.from_state, r.reads)
        if key in table:
            raise MachineError(
                f"machine {m5.name!r} not forward deterministic at {key[0]!r}")
        table[key] = r
    blanks = tuple(a.blank for a in m5.alphabets)
    symbols = tuple(input_symbols)
    for s in symbols:
        if s not in m5.alphabets[0].symbols:
            raise MachineError(f"input symbol {s!r} not in tape 1 alphabet")
    tapes = [list(symbols)] + [[] for _ in range(m5.tape_count - 1)]
    heads = [0] * m5.tape_count
    state = m5.start_state
    taken = 0
    while True:
        reads = tuple(
            tapes[i][heads[i]] if heads[i] < len(tapes[i]) else blanks[i]
            for i in range(m5.tape_count))
        rule = table.get((state, reads))
        if rule is None:
            outcome = HALTED
            break
        if taken >= budget:
            outcome = BUDGET_EXCEEDED
            break
        for i, w in enumerate(rule.writes):
            h, t = heads[i], tapes[i]
            if h < len(t):
                t[h] = w
            elif w != blanks[i]:
                t.extend([blanks[i]] * (h - len(t)))
                t.append(w)
        for i, d in enumerate(rule.moves):
            if d:
                h = heads[i] + d
                heads[i] = h if h > 0 else 0
        state = rule.to_state
        taken += 1
    final = Configuration.make(
        state, tuple(tuple(t) for t in tapes), tuple(heads), taken, blanks)
    out_index = (m5.output_tape or m5.tape_count) - 1
    out = []
    for s in final.tapes[out_index] if out_index < len(final.tapes) else ():
        if s == blanks[out_index]:
            break
        out.append(s)
    return RunResult(outcome, final, taken, "".join(out))


# --- the general grammar's encoder --------------------------------------------

# The decoder's field codes, inverted, so the two cannot drift.
_AUX_ENC = {v: k for k, v in _AUX_CODE.items()}
_MOVE_ENC = {v: k for k, v in _MOVE_CODE.items()}


def gamma(n: int) -> str:
    """Elias gamma code of n >= 1."""
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def serialize_index(m: Machine) -> int:
    """Index of a prefix-convention machine under the general grammar.

    The machine must have four tapes with the standard alphabets (work
    extras are renamed canonically), a read-only program tape, and no
    left shifts on the program tape.  Behaviour is preserved; state and
    symbol names are not.
    """
    if m.tape_count != 4:
        raise MachineError("prefix machines have exactly 4 tapes")
    base = {BIT_BLANK, "0", "1"}
    for t in (0, 1, 3):
        if m.alphabets[t].symbols != frozenset(base) or m.alphabets[t].blank != BIT_BLANK:
            raise MachineError(f"tape {t + 1} must use the binary alphabet")
    extras = sorted(m.alphabets[2].symbols - base)
    if m.alphabets[2].blank != BIT_BLANK:
        raise MachineError("work tape blank must be '_'")
    work = _work_symbols(len(extras))
    rename = {BIT_BLANK: BIT_BLANK, "0": "0", "1": "1"}
    rename.update({s: f"w{n}" for n, s in enumerate(extras)})
    states = sorted(m.states)
    states.remove(m.start_state)
    states.insert(0, m.start_state)
    state_ix = {s: n for n, s in enumerate(states)}
    swidth = _width(len(states))
    wwidth = _width(len(work))
    work_ix = {s: n for n, s in enumerate(work)}

    def fixed(ix: int, width: int) -> str:
        return format(ix, f"0{width}b") if width else ""

    bits = [gamma(len(extras) + 1), gamma(len(states)), gamma(len(m.rules) + 1)]
    for rule in m.rules:
        if isinstance(rule, ReadWriteRule):
            if rule.reads[0] != rule.writes[0]:
                raise MachineError("program tape is read-only")
            if rule.reads[0] not in ("0", "1"):
                raise MachineError("program tape reads must be bits")
            bits.append("0")
            bits.append(fixed(state_ix[rule.from_state], swidth))
            bits.append(rule.reads[0])
            bits.append(_AUX_ENC[rule.reads[1]] + _AUX_ENC[rule.writes[1]])
            bits.append(fixed(work_ix[rename[rule.reads[2]]], wwidth)
                        + fixed(work_ix[rename[rule.writes[2]]], wwidth))
            bits.append(_AUX_ENC[rule.reads[3]] + _AUX_ENC[rule.writes[3]])
            bits.append(fixed(state_ix[rule.to_state], swidth))
        else:
            if rule.moves[0] == -1:
                raise MachineError("program tape is one-way")
            bits.append("1")
            bits.append(fixed(state_ix[rule.from_state], swidth))
            bits.append("1" if rule.moves[0] == 1 else "0")
            bits.append(_MOVE_ENC[rule.moves[1]] + _MOVE_ENC[rule.moves[2]]
                        + _MOVE_ENC[rule.moves[3]])
            bits.append(fixed(state_ix[rule.to_state], swidth))
    return index_of_string(_GENERAL_PREFIX + "".join(bits))


# --- rule overlap ---------------------------------------------------------------

def domains_overlap(a: Rule, b: Rule) -> bool:
    """True when the two rules could both apply in some configuration."""
    if a.from_state != b.from_state:
        return False
    if isinstance(a, ShiftRule) or isinstance(b, ShiftRule):
        return True
    return a.reads == b.reads


def ranges_overlap(a: Rule, b: Rule) -> bool:
    """True when the two rules could both have produced some configuration."""
    if a.to_state != b.to_state:
        return False
    if isinstance(a, ShiftRule) or isinstance(b, ShiftRule):
        return True
    return a.writes == b.writes


# --- honest stepping ------------------------------------------------------------

def honest_trace(m: Machine, c: Configuration, cap: int) -> list[Configuration]:
    """``c`` and each successor under machines.step, until the halt or
    ``cap`` steps."""
    configs = [c]
    while len(configs) <= cap and (nxt := step(m, configs[-1])) is not None:
        configs.append(nxt)
    return configs


def prefix_start(m: Machine, bits: str, aux: str) -> Configuration:
    """The four-tape configuration a prefix run of ``m`` starts from."""
    return Configuration.make(m.start_state, (tuple(bits), tuple(aux), (), ()),
                              (0, 0, 0, 0), 0, m.blanks())


def honest_prefix_results(m: Machine, bits: str, aux: str, cap: int) -> list:
    """run_prefix's (outcome, program, output, steps) at every budget up
    to ``cap``, from one run iterating machines.step: entry
    ``min(b, len - 1)`` is the result at budget b <= cap.

    A ReadWrite state whose program head is at or past len(bits) ends the
    run TapeExhausted; the program is the bits up to one past the last
    program cell read.
    """
    rw_states = {r.from_state for r in m.rules if isinstance(r, ReadWriteRule)}
    c = prefix_start(m, bits, aux)
    scanned = 0
    results = []
    while True:
        if c.state in rw_states:
            if c.heads[0] >= len(bits):
                outcome = TAPE_EXHAUSTED
                break
            scanned = c.heads[0] + 1
        nxt = step(m, c)
        if nxt is None:
            outcome = HALTED
            break
        results.append((BUDGET_EXCEEDED, bits[:scanned], output_of(m, c), c.steps))
        if c.steps >= cap:
            return results
        c = nxt
    results.append((outcome, bits[:scanned], output_of(m, c), c.steps))
    return results


def assert_run_from_matches_stepping(m: Machine, configs: list, ks) -> None:
    """run_from(m, c, k) from every configuration c of an honest trace,
    for each budget k in ``ks`` that the trace decides."""
    last = len(configs) - 1
    halted = step(m, configs[-1]) is None
    for j, c in enumerate(configs):
        for k in ks:
            end = min(j + k, last)
            if j + k > last and not halted:
                continue  # past the traced budget
            r = run_from(m, c, k)
            want = HALTED if halted and end == last else BUDGET_EXCEEDED
            assert (r.outcome, r.final, r.steps, r.output) == \
                (want, configs[end], end - j, output_of(m, configs[end])), \
                (m.name, c, k)
