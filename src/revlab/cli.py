"""Command-line entry point.

Every result goes to stdout as one JSON envelope per line with stable
key order; diagnostics go to stderr.  Envelope fields: ``tool``,
``digest`` (the reference interpreter), ``budget`` (when one applies),
``payload``, and ``wall_ms`` (excluded from reproducibility comparisons).

Exit codes: 0 success; 2 usage error, file parse error or unusable file
or directory; 3 validation or property-check failure; 4 NoWitness /
inconclusive outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from pathlib import Path

from . import __version__
from .corpus import corpus
from .depth import Budget, DepthLab, NoWitness, RunLedger, check_binary
from .machfmt import (
    MachineFormatError,
    parse_configuration,
    parse_machine,
    serialize_configuration,
    serialize_machine,
)
from .machines import (
    Machine,
    MachineError,
    QuintupleMachine,
    normalize_to_quadruples,
    run,
    trace_run,
    validate_machine,
)
from .prefixvm import (
    enumerate_machine,
    is_diverger,
    print_program,
    print_steps,
    universal_machine,
    universal_reversible_run,
    universal_run,
)
from .reversal import bennett_transform, run_reverse, verify_reversible

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_NO_WITNESS = 4


class Emitter:
    def __init__(self):
        self.started = time.monotonic()

    def emit(self, payload, budget: Budget | None = None) -> None:
        envelope = {
            "tool": f"revlab {__version__}",
            "digest": universal_machine().digest,
            "payload": asdict(payload) if is_dataclass(payload) else payload,
            "wall_ms": round(1000 * (time.monotonic() - self.started), 3),
        }
        if budget is not None:
            envelope["budget"] = asdict(budget)
        sys.stdout.write(json.dumps(envelope, sort_keys=True) + "\n")


def _load_machine(path: str) -> Machine | QuintupleMachine:
    return parse_machine(Path(path).read_text())


def _as_quadruple(m: Machine | QuintupleMachine) -> Machine:
    return normalize_to_quadruples(m) if isinstance(m, QuintupleMachine) else m


def _config_payload(c) -> dict:
    return {
        "state": c.state,
        "heads": list(c.heads),
        "steps": c.steps,
        "tapes": ["".join(t) for t in c.tapes],
    }


# --- machine ----------------------------------------------------------------


def cmd_machine_validate(args, out: Emitter) -> int:
    report = validate_machine(_as_quadruple(_load_machine(args.file)))
    out.emit(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_machine_run(args, out: Emitter) -> int:
    m = _as_quadruple(_load_machine(args.file))
    result = run(m, args.input, args.budget)
    out.emit({
        "outcome": result.outcome,
        "steps": result.steps,
        "output": result.output,
        "final": _config_payload(result.final),
    })
    return EXIT_OK


def cmd_machine_trace(args, out: Emitter) -> int:
    m = _as_quadruple(_load_machine(args.file))
    for c in trace_run(m, args.input, args.budget):
        out.emit(_config_payload(c))
    return EXIT_OK


# --- rev ---------------------------------------------------------------------


def cmd_rev_verify(args, out: Emitter) -> int:
    report = verify_reversible(_as_quadruple(_load_machine(args.file)))
    out.emit(report)
    return EXIT_OK if report.reversible else EXIT_INVALID


def cmd_rev_compile(args, out: Emitter) -> int:
    m = _as_quadruple(_load_machine(args.file))
    bm = bennett_transform(m)
    text = serialize_machine(bm.machine)
    if args.output:
        Path(args.output).write_text(text)
    out.emit({
        "source_digest": bm.source_digest,
        "name": bm.machine.name,
        "states": len(bm.machine.states),
        "rules": len(bm.machine.rules),
        "written_to": args.output or "",
    })
    return EXIT_OK


def cmd_rev_reverse(args, out: Emitter) -> int:
    m = _as_quadruple(_load_machine(args.file))
    config = parse_configuration(Path(args.from_config).read_text())
    result = run_reverse(m, config, args.budget)
    out.emit({
        "outcome": result.outcome,
        "steps": result.steps,
        "final": _config_payload(result.final),
        "snapshot": serialize_configuration(result.final),
    })
    return EXIT_OK


# --- univ ---------------------------------------------------------------------


def _parse_bits(text: str) -> str:
    if text.startswith(("0x", "0X")):
        digits = text[2:]
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise ValueError(f"bad hex bit string {text!r}")
        return "".join(format(int(c, 16), "04b") for c in digits)
    if any(c not in "01" for c in text):
        raise ValueError(f"bits must be binary or 0x-prefixed hex, got {text!r}")
    return text


def cmd_univ_run(args, out: Emitter) -> int:
    check_binary(args.aux, "aux")
    runner = universal_reversible_run if args.reversible else universal_run
    result = runner(_parse_bits(args.bits), args.aux, args.budget)
    out.emit(result)
    return EXIT_OK


def cmd_univ_enumerate(args, out: Emitter) -> int:
    m = enumerate_machine(args.index)
    out.emit({
        "index": args.index,
        "name": m.name,
        "diverger": is_diverger(m),
        "machine": serialize_machine(m),
    })
    return EXIT_OK


def cmd_univ_check_prefix(args, out: Emitter) -> int:
    """Check that the halting programs of at most L bits form a prefix
    code.  They are the (L, D) sweep's exact halters, scanned in sorted
    order for a program that prefixes the next, and the literal
    printer's programs <2>(bb)*01 that fit L and halt within D, counted
    and not run: that family is prefix-free by its code and shares no
    prefix with the sweep, which never holds <2>."""
    check_binary(args.aux, "aux")
    budget = _budget(args)
    lab = DepthLab()
    halters = sorted(lab.exact_halters(budget, args.aux))
    violations = [[a, b] for a, b in zip(halters, halters[1:]) if b.startswith(a)]
    printers = sum(2 ** n for n in range(budget.max_len + 1)
                   if len(print_program("0" * n)) <= budget.max_len
                   and print_steps("0" * n) <= budget.max_steps)
    out.emit({
        "max_len": budget.max_len,
        "budget": budget.max_steps,
        "runs": len(lab.sweep(budget, args.aux)),
        "halting_programs": len(halters) + printers,
        "violations": violations,
        "prefix_free": not violations,
    })
    return EXIT_INVALID if violations else EXIT_OK


# --- depth -------------------------------------------------------------------


def _make_lab(args) -> DepthLab:
    cache = args.cache_dir or os.environ.get("REVLAB_CACHE")
    ledger = RunLedger(cache) if cache else RunLedger()
    return DepthLab(ledger=ledger)


def _budget(args) -> Budget:
    return Budget(args.max_len, args.budget)


def _depth_query(args, out: Emitter, query) -> int:
    """Make the lab, answer ``query(lab, budget)``, save the ledger and
    emit the record; NoWitness exits 4."""
    lab = _make_lab(args)
    budget = _budget(args)
    rec = query(lab, budget)
    lab.ledger.save()
    out.emit(rec, budget)
    return EXIT_NO_WITNESS if isinstance(rec, NoWitness) else EXIT_OK


def cmd_depth_k(args, out: Emitter) -> int:
    return _depth_query(args, out, lambda lab, budget:
                        lab.k_bounded(args.x, budget, args.aux))


def cmd_depth_ld(args, out: Emitter) -> int:
    return _depth_query(args, out, lambda lab, budget: lab.logical_depth(
        args.x, args.b, budget, args.variant, args.aux))


def cmd_depth_table(args, out: Emitter) -> int:
    if args.kind != "f" and args.variant is not None:
        print(f"usage error: --variant applies to table f only, not {args.kind}",
              file=sys.stderr)
        return EXIT_USAGE
    lab = _make_lab(args)
    budget = _budget(args)
    if args.kind == "psi":
        table = lab.psi_table(args.n_max, budget, args.aux)
    elif args.kind == "phi":
        table = lab.phi_table(args.n_max, budget, args.aux)
    else:
        table = lab.f_table(args.n_max, budget, args.aux,
                            args.variant or "reversible")
    lab.ledger.save()
    status = EXIT_OK
    for row in table.rows:
        out.emit({
            "kind": table.kind,
            "variant": table.variant,
            "row": asdict(row),
        }, budget)
        if row.inconclusive:
            status = EXIT_NO_WITNESS
    return status


# --- corpus -------------------------------------------------------------------


def cmd_corpus_list(args, out: Emitter) -> int:
    for entry in corpus():
        out.emit({
            "name": entry.name,
            "kind": entry.kind,
            "halts": entry.halts,
            "note": entry.note,
        })
    return EXIT_OK


def cmd_corpus_export(args, out: Emitter) -> int:
    target = Path(args.directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in corpus():
        path = target / f"{entry.name}.tm"
        path.write_text(serialize_machine(entry.machine))
        written.append(str(path))
    out.emit({"written": written})
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revlab",
        description="Reversible machine toolkit and logical-depth laboratory")
    sub = parser.add_subparsers(dest="group", required=True)

    running = argparse.ArgumentParser(add_help=False)  # machine run|trace
    running.add_argument("file")
    running.add_argument("--input", default="")
    running.add_argument("--budget", type=int, required=True)
    machine = sub.add_parser("machine", help="validate and run machine files")
    msub = machine.add_subparsers(dest="cmd", required=True)
    v = msub.add_parser("validate")
    v.add_argument("file")
    v.set_defaults(fn=cmd_machine_validate)
    msub.add_parser("run", parents=[running]).set_defaults(fn=cmd_machine_run)
    msub.add_parser("trace", parents=[running]).set_defaults(fn=cmd_machine_trace)

    rev = sub.add_parser("rev", help="reversibility operations")
    rsub = rev.add_subparsers(dest="cmd", required=True)
    rv = rsub.add_parser("verify")
    rv.add_argument("file")
    rv.set_defaults(fn=cmd_rev_verify)
    rc = rsub.add_parser("compile")
    rc.add_argument("file")
    rc.add_argument("-o", "--output", default=None)
    rc.set_defaults(fn=cmd_rev_compile)
    rr = rsub.add_parser("reverse")
    rr.add_argument("file")
    rr.add_argument("--from", dest="from_config", required=True)
    rr.add_argument("--budget", type=int, required=True)
    rr.set_defaults(fn=cmd_rev_reverse)

    univ = sub.add_parser("univ", help="universal interpreter")
    usub = univ.add_subparsers(dest="cmd", required=True)
    ur = usub.add_parser("run")
    ur.add_argument("--bits", required=True)
    ur.add_argument("--aux", default="")
    ur.add_argument("--budget", type=int, required=True)
    ur.add_argument("--reversible", action="store_true")
    ur.set_defaults(fn=cmd_univ_run)
    ue = usub.add_parser("enumerate")
    ue.add_argument("--index", type=int, required=True)
    ue.set_defaults(fn=cmd_univ_enumerate)
    uc = usub.add_parser("check-prefix")
    uc.add_argument("--max-len", type=int, required=True)
    uc.add_argument("--budget", type=int, required=True)
    uc.add_argument("--aux", default="")
    uc.set_defaults(fn=cmd_univ_check_prefix)

    bounded = argparse.ArgumentParser(add_help=False)  # depth k|ld|table
    bounded.add_argument("--aux", default="")
    bounded.add_argument("--max-len", type=int, required=True)
    bounded.add_argument("--budget", type=int, required=True)
    bounded.add_argument("--cache-dir", default=None,
                         help="run-ledger directory (or set REVLAB_CACHE)")
    depth = sub.add_parser("depth", help="budget-bounded complexity and depth")
    dsub = depth.add_subparsers(dest="cmd", required=True)
    dk = dsub.add_parser("k", parents=[bounded])
    dk.add_argument("x")
    dk.set_defaults(fn=cmd_depth_k)
    dl = dsub.add_parser("ld", parents=[bounded])
    dl.add_argument("x")
    dl.add_argument("--b", type=int, required=True)
    dl.add_argument("--variant", choices=("rev", "gen"), required=True)
    dl.set_defaults(fn=cmd_depth_ld)
    dt = dsub.add_parser("table", parents=[bounded])
    dt.add_argument("kind", choices=("psi", "phi", "f"))
    dt.add_argument("--n-max", type=int, required=True)
    dt.add_argument("--variant", choices=("reversible", "general"), default=None,
                    help="f only (default reversible)")
    dt.set_defaults(fn=cmd_depth_table)

    corp = sub.add_parser("corpus", help="bundled machine corpus")
    csub = corp.add_subparsers(dest="cmd", required=True)
    cl = csub.add_parser("list")
    cl.set_defaults(fn=cmd_corpus_list)
    ce = csub.add_parser("export")
    ce.add_argument("directory")
    ce.set_defaults(fn=cmd_corpus_export)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process, on the first call, and reused:
    parsing keeps no state between calls, so in-process callers pay only
    for their own command.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    out = Emitter()
    try:
        return args.fn(args, out)
    except MachineFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MachineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
