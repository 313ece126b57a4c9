"""Backward determinism, machine inversion, and the three-tape reversible
emulation of one-tape machines.

The transform compiles a forward-deterministic one-tape machine into a
three-tape machine (tape 1 work, tape 2 history, tape 3 output) that

  * emulates the source, logging the applied rule index on the history
    tape each step;
  * detects the source halting (no applicable rule, checked uniformly
    per state and scanned symbol);
  * walks the history backwards, replaying head movements in reverse so
    the work head lands exactly on cell 0 without ever clamping, while
    shadowing each history cell;
  * copies the blank-free prefix of the work tape to the output tape,
    marking work cells on the way out and unmarking on the way back;
  * retraces: runs the inverted compute/detect/walk rules, restoring the
    work tape to the original input and blanking the history tape.

The final configuration therefore holds (input, output) on tapes 1 and 3
with a clean history tape.

Rule-range bookkeeping is the delicate part.  Under this rule formalism
a shift rule's range collides with anything entering the same state, so
every state entered by more than one rule is entered only by ReadWrite
rules whose write tuples differ.  Three devices make that true here:

  * the history symbol written on entry to a compute state names the
    rule that was applied;
  * a walked-over history cell is shadowed with a pair symbol recording
    both the cell's own rule index and the index carried in from the
    previous walk step, which is exactly the evidence the retrace needs
    to climb back up;
  * the copy stage marks the first work cell differently from the rest,
    so the rewind knows where to stop without consulting head positions.

Step-count accounting (t_rw/t_sh applied source rules, k output cells):

    compute      2*t_rw + 4*t_sh
    halt detect  3
    walk         2*(t_rw + t_sh) + 1     (1 when no step was taken)
    copy         4*k + 1                 (1 when the output is empty)
    retrace      walk + detect + compute again

which is bounded by LINEAR_A * steps + LINEAR_B * (|input| + |output|)
+ LINEAR_C.

Sources that ever shift left at cell 0 void the construction: clamping
is not injective, so neither the walk nor reverse runs can retrace it.
No corpus machine clamps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .machfmt import serialize_machine
from .machines import (
    Alphabet,
    Configuration,
    Machine,
    MachineError,
    QuintupleMachine,
    ReadWriteRule,
    Rule,
    RuleConflict,
    RunResult,
    ShiftRule,
    range_conflicts,
    rule_states,
    run_from,
    validate_machine,
)

# Linear emulation constants, fixed once from the construction above.
LINEAR_A = 12
LINEAR_B = 4
LINEAR_C = 9

HIST_BLANK = "_"


class ReversibilityError(MachineError):
    """Operation requires a reversible machine and this one is not."""

    def __init__(self, message: str, conflicts: tuple[RuleConflict, ...] = ()):
        super().__init__(message)
        self.conflicts = conflicts


class TransformRefusal(MachineError):
    """Input machine not in the form bennett_transform accepts."""


@dataclass(frozen=True)
class ReversibilityReport:
    machine: str
    conflicts: tuple[RuleConflict, ...]

    @property
    def reversible(self) -> bool:
        return not self.conflicts


@lru_cache(maxsize=256)
def verify_reversible(m: Machine) -> ReversibilityReport:
    """Range-overlap scan over all rule pairs (grouped by target state,
    equivalent to the naive quadratic check); the conflict list is empty
    iff the machine is backward deterministic.  Cached per machine, so
    that :func:`invert` of a transform's output does not check it again;
    an invalid machine raises on every call."""
    report = validate_machine(m)
    if not report.ok:
        raise MachineError(f"machine {m.name!r} invalid: {report.problems}")
    return ReversibilityReport(m.name, tuple(range_conflicts(m.rules)))


def _same(state: str) -> str:
    return state


def invert_rule(rule: Rule, rename: Callable[[str], str] = _same) -> Rule:
    """The rule undoing ``rule``, between its states renamed by ``rename``."""
    if isinstance(rule, ShiftRule):
        return ShiftRule(rename(rule.to_state),
                         tuple(-d for d in rule.moves),
                         rename(rule.from_state))
    return ReadWriteRule(rename(rule.to_state), rule.writes, rule.reads,
                         rename(rule.from_state))


@lru_cache(maxsize=256)
def invert(m: Machine) -> Machine:
    """Rule-by-rule inverse of a reversible machine (cached per machine,
    like the :func:`verify_reversible` report it rests on; a machine that
    is not reversible raises on every call)."""
    report = verify_reversible(m)
    if not report.reversible:
        raise ReversibilityError(
            f"machine {m.name!r} is not reversible: "
            + "; ".join(c.reason for c in report.conflicts),
            report.conflicts)
    name = m.name[:-4] if m.name.endswith("_inv") else m.name + "_inv"
    return Machine(
        name=name,
        alphabets=m.alphabets,
        states=m.states,
        start_state=m.start_state,
        halt_states=frozenset(),
        rules=tuple(invert_rule(r) for r in m.rules),
        output_tape=m.output_tape,
    )


@dataclass(frozen=True)
class StagePartition:
    compute: frozenset[str]
    copy: frozenset[str]
    retrace: frozenset[str]


@dataclass(frozen=True)
class BennettMachine:
    machine: Machine
    source_digest: str
    stage_states: StagePartition


def source_digest(m: Machine | QuintupleMachine) -> str:
    return hashlib.sha256(serialize_machine(m).encode()).hexdigest()


def _work_mark(s: str) -> str:
    return s + "~"


def _zero_mark(s: str) -> str:
    return s + "^"


def bennett_transform(m: Machine) -> BennettMachine:
    """Compile a one-tape quadruple machine into its reversible emulator."""
    if isinstance(m, QuintupleMachine):
        raise TransformRefusal("quintuple machine: normalize_to_quadruples first")
    if m.tape_count != 1:
        raise TransformRefusal(f"need a 1-tape machine, got {m.tape_count} tapes")
    report = validate_machine(m)
    if not report.ok:
        raise TransformRefusal(f"source machine invalid: {report.problems}")

    alphabet = m.alphabets[0]
    blank = alphabet.blank
    symbols = sorted(alphabet.symbols)
    plain = [s for s in symbols if s != blank]
    for s in plain:
        if _work_mark(s) in alphabet.symbols or _zero_mark(s) in alphabet.symbols:
            raise TransformRefusal(
                f"symbol {s!r} collides with the transform's mark namespace")

    state_ix = {s: i for i, s in enumerate(sorted(m.states))}
    rules = m.rules
    m_count = len(rules)

    # Source-rule metadata: read symbol(s) the rule matches, work delta.
    rw_by_state: dict[str, dict[str, int]] = {}
    shift_by_state: dict[str, int] = {}
    for j, r in enumerate(rules):
        if isinstance(r, ReadWriteRule):
            rw_by_state.setdefault(r.from_state, {})[r.reads[0]] = j
        else:
            shift_by_state[r.from_state] = j

    def delta(j: int) -> int:
        r = rules[j]
        return r.moves[0] if isinstance(r, ShiftRule) else 0

    # State names (source states referenced by index for digest stability).
    def C(q: str) -> str:
        return f"c{state_ix[q]}"

    def Cp(q: str) -> str:
        return f"cp{state_ix[q]}"

    def M1(j: int) -> str:
        return f"cm{j}"

    def N1(j: int) -> str:
        return f"cn{j}"

    def W0(q: str) -> str:
        return f"w0.{state_ix[q]}"

    def W1(q: str) -> str:
        return f"w1.{state_ix[q]}"

    def V(j: int, q: str) -> str:
        return f"v{j}.{state_ix[q]}"

    def V2(j: int, q: str) -> str:
        return f"u{j}.{state_ix[q]}"

    def ptag(q: str, jj: int | None) -> str:
        return f"{'e' if jj is None else jj}.{state_ix[q]}"

    def P0(q: str, jj: int | None) -> str:
        return f"p0.{ptag(q, jj)}"

    def PS(q: str, jj: int | None) -> str:
        return f"ps.{ptag(q, jj)}"

    def PL(q: str, jj: int | None) -> str:
        return f"pl.{ptag(q, jj)}"

    def Pm(q: str, jj: int | None) -> str:
        return f"pm.{ptag(q, jj)}"

    def PR(q: str, jj: int | None) -> str:
        return f"pr.{ptag(q, jj)}"

    def prime(state: str) -> str:
        return "r." + state

    def hsym(j: int) -> str:
        return f"h{j}"

    def htop(j: int) -> str:
        return f"H{j}"

    def hpair(k: int, j: int) -> str:
        return f"h{k}.{j}"

    # History sequences are rule paths from the start state, which prunes
    # the walk machinery: cell i-1 can only hold a rule whose target is
    # rule i's source.
    preds: dict[int, list[int]] = {
        j: [k for k in range(m_count)
            if rules[k].to_state == rules[j].from_state]
        for j in range(m_count)
    }

    def walk_reach(tops: list[int]) -> list[int]:
        seen = set(tops)
        frontier = list(tops)
        while frontier:
            for k in preds[frontier.pop()]:
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        return sorted(seen)

    # --- alphabets -------------------------------------------------------
    work_symbols = set(symbols)
    for s in plain:
        work_symbols.add(_work_mark(s))
        work_symbols.add(_zero_mark(s))
    hist_symbols = {HIST_BLANK}
    for j in range(m_count):
        hist_symbols.add(hsym(j))
        hist_symbols.add(htop(j))
        for k in preds[j]:
            hist_symbols.add(hpair(k, j))
    work_alpha = Alphabet(frozenset(work_symbols), blank)
    hist_alpha = Alphabet(frozenset(hist_symbols), HIST_BLANK)
    out_alpha = Alphabet(frozenset(symbols), blank)
    HB = HIST_BLANK

    def rw(frm: str, reads: tuple[str, str, str],
           writes: tuple[str, str, str], to: str) -> Rule:
        return ReadWriteRule(frm, reads, writes, to)

    def sh(frm: str, moves: tuple[int, int, int], to: str) -> Rule:
        return ShiftRule(frm, moves, to)

    forward: list[Rule] = []   # compute + halt-detect + walk (gets inverted)
    copy_rules: list[Rule] = []

    # --- stage 1: compute ------------------------------------------------
    for q in sorted(m.states, key=lambda s: state_ix[s]):
        forward.append(sh(C(q), (0, 1, 0), Cp(q)))
    for j, r in enumerate(rules):
        q, q2 = r.from_state, r.to_state
        if isinstance(r, ReadWriteRule):
            a, b = r.reads[0], r.writes[0]
            forward.append(rw(Cp(q), (a, HB, blank), (b, hsym(j), blank), C(q2)))
        else:
            for s in symbols:
                forward.append(rw(Cp(q), (s, HB, blank), (s, hsym(j), blank), M1(j)))
            forward.append(sh(M1(j), (delta(j), 0, 0), N1(j)))
            for s in symbols:
                forward.append(rw(N1(j), (s, hsym(j), blank), (s, hsym(j), blank), C(q2)))

    # --- halt detection ---------------------------------------------------
    # From Cp(q), any read the source has no rule for diverts into the walk.
    halting_states: list[str] = []
    for q in sorted(m.states, key=lambda s: state_ix[s]):
        if q in shift_by_state:
            continue  # a shift rule matches every symbol: q never halts
        matched = rw_by_state.get(q, {})
        unmatched = [s for s in symbols if s not in matched]
        if not unmatched:
            continue
        halting_states.append(q)
        for s in unmatched:
            forward.append(rw(Cp(q), (s, HB, blank), (s, HB, blank), W0(q)))
        forward.append(sh(W0(q), (0, -1, 0), W1(q)))

    # --- stage 2a: walk (ghost retrace of head movement) ------------------
    copy_tags: dict[str, list[int | None]] = {}
    for q in halting_states:
        tags: list[int | None] = []
        tops = [j for j in range(m_count) if rules[j].to_state == q]
        reach = walk_reach(tops)
        for j in tops:
            for s in symbols:
                forward.append(rw(W1(q), (s, hsym(j), blank),
                                  (s, htop(j), blank), V(j, q)))
        for j in reach:
            forward.append(sh(V(j, q), (-delta(j), -1, 0), V2(j, q)))
            for k in preds[j]:
                for s in symbols:
                    forward.append(rw(V2(j, q), (s, hsym(k), blank),
                                      (s, hpair(k, j), blank), V(k, q)))
            if rules[j].from_state == m.start_state:
                for s in symbols:
                    forward.append(rw(V2(j, q), (s, HB, blank),
                                      (s, HB, blank), P0(q, j)))
                tags.append(j)
        if q == m.start_state:
            for s in symbols:
                forward.append(rw(W1(q), (s, HB, blank),
                                  (s, HB, blank), P0(q, None)))
            tags.append(None)
        copy_tags[q] = tags

    # --- stage 2b: copy ----------------------------------------------------
    for q in halting_states:
        for jj in copy_tags[q]:
            p0, ps, pl, pm, pr = (P0(q, jj), PS(q, jj), PL(q, jj),
                                  Pm(q, jj), PR(q, jj))
            copy_rules.append(rw(p0, (blank, HB, blank),
                                 (blank, HB, blank), prime(p0)))
            for s in plain:
                copy_rules.append(rw(p0, (s, HB, blank),
                                     (_zero_mark(s), HB, s), ps))
                copy_rules.append(rw(pl, (s, HB, blank),
                                     (_work_mark(s), HB, s), ps))
            copy_rules.append(sh(ps, (1, 0, 1), pl))
            copy_rules.append(rw(pl, (blank, HB, blank), (blank, HB, blank), pm))
            copy_rules.append(sh(pm, (-1, 0, 0), pr))
            for s in plain:
                copy_rules.append(rw(pr, (_work_mark(s), HB, blank),
                                     (s, HB, blank), pm))
                copy_rules.append(rw(pr, (_zero_mark(s), HB, blank),
                                     (s, HB, blank), prime(p0)))

    # --- stage 3: retrace (inverted forward rules on primed states) -------
    retrace = [invert_rule(r, prime) for r in forward]

    all_rules = tuple(forward + copy_rules + retrace)
    start = C(m.start_state)
    states, _ = rule_states(all_rules, (start,))

    compute_states = frozenset(
        s for s in states
        if s.startswith(("c", "w0.", "w1.")) and not s.startswith("r."))
    copy_states = frozenset(
        s for s in states
        if s.startswith(("v", "u", "p")) and not s.startswith("r."))
    retrace_states = frozenset(s for s in states if s.startswith("r."))

    machine = Machine(
        name=f"{m.name}_rev",
        alphabets=(work_alpha, hist_alpha, out_alpha),
        states=states,
        start_state=start,
        halt_states=frozenset(),
        rules=all_rules,
        output_tape=3,
    )
    bm = BennettMachine(
        machine=machine,
        source_digest=source_digest(m),
        stage_states=StagePartition(compute_states, copy_states, retrace_states),
    )
    rep = verify_reversible(machine)
    if not rep.reversible:
        raise ReversibilityError(
            f"internal error: transform of {m.name!r} is not reversible",
            rep.conflicts)
    return bm


def run_reverse(machine: BennettMachine | Machine, final: Configuration,
                budget: int) -> RunResult:
    """Execute the inverse machine from ``final``.

    The step counter of the returned configuration counts reverse steps
    from zero.  Unreachable configurations are not detected.
    """
    m = machine.machine if isinstance(machine, BennettMachine) else machine
    inv = invert(m)
    start = Configuration(final.state, final.tapes, final.heads, 0)
    return run_from(inv, start, budget)


def linear_bound(steps_src: int, input_len: int, output_len: int) -> int:
    """Step allowance for the reversible emulation of a source run."""
    return LINEAR_A * steps_src + LINEAR_B * (input_len + output_len) + LINEAR_C
