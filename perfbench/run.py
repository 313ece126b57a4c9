"""revlab benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

The parent process builds the seeded inputs and any set-up, then runs
each repetition in a fresh single-threaded child process, one at a time,
so that every repetition pays and reports its own import (``setup_s``)
and its own ``ru_maxrss``.  See README.md for the workloads, metrics and
limits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 4
# A full-size repetition of any workload takes 5-8 s on a 2-core box; a
# fixed count (not a deadline) keeps the pooled samples the same per run.
NOMINAL_REP_S = 7.5
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
HASHSEED = "0"  # fixed string hashing, for repeatable set and dict layouts
COUNT_UNITS = ("count", "bytes")  # per-layer metrics that must repeat exactly

import workloads  # noqa: E402  (HERE is on sys.path as the script's directory)
from tracing import Tracer  # noqa: E402


def import_revlab():
    """Import revlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "revlab" / "__init__.py").is_file():
        raise SystemExit(f"revlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import revlab.cli  # noqa: F401  (loads every layer module)
    if Path(revlab.__file__).resolve().parent != SRC / "revlab":
        raise SystemExit(f"imported revlab from {revlab.__file__}, not {SRC}")
    return revlab


# -- child side ------------------------------------------------------------------


def child(spec: dict) -> dict:
    t0 = perf_counter()
    revlab = import_revlab()
    digest = revlab.prefixvm.universal_machine().digest
    setup_s = perf_counter() - t0
    if spec.get("probe"):
        return {"setup_s": setup_s}
    size = workloads.SIZES[spec["size"]]
    expected = json.loads(Path(spec["expected"]).read_text())
    prep = json.loads(Path(spec["prep"]).read_text())
    tracer = Tracer() if spec["traced"] else None
    if tracer:
        tracer.install(revlab)
    rep = workloads.Rep(tracer)
    workloads.REPS[spec["workload"]](rep, size, spec["seed"], Path(spec["workdir"]),
                                     prep, expected)
    if tracer:
        tracer.uninstall()
    result = rep.as_dict()
    result.update(setup_s=setup_s, digest=digest)
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["trace_file"], {"workload": spec["workload"],
                                          "seed": spec["seed"], "rep": spec["rep"]})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def spawn(spec: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = HASHSEED
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition process exited {proc.returncode}")
    return json.loads(lines[-1])


# -- statistics ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  Fewer than 21 samples cannot resolve that; the
    tail then falls back to the upper median, because a maximum or a
    quartile of a few repetitions is too noisy on a shared 2-core VM."""
    s = sorted(samples)
    i = len(s) - 1 - min(10, (len(s) - 1) // 2)
    return s[i], 100.0 * (i + 1) / len(s)


def drift(dicts: list[dict]) -> list[str]:
    keys = sorted({k for d in dicts for k in d})
    return [k for k in keys if len({repr(d.get(k)) for d in dicts}) > 1]


def run_workload(workload: str, args, spec_file: dict) -> dict:
    size = workloads.SIZES[args.size]
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = workloads.prepare(workload, args.seed, size, work)
        (work / "prep.json").write_text(json.dumps(prep))
        reps = max(MIN_REPS, int(args.seconds // NOMINAL_REP_S))
        trace_file = OUT / f"trace-{workload}-seed{args.seed}.json"
        results = []
        for i in range(reps):
            rep_dir = work / f"rep{i}"
            rep_dir.mkdir()
            spec = {"workload": workload, "seed": args.seed, "size": args.size,
                    "rep": i, "traced": bool(args.trace) and i % 2 == 1,
                    "workdir": str(rep_dir), "prep": str(work / "prep.json"),
                    "expected": str(Path(args.expected).resolve()),
                    "trace_file": str(trace_file)}
            results.append(spawn(spec))
            shutil.rmtree(rep_dir, ignore_errors=True)
        probes = [spawn({"probe": True})["setup_s"] for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    latencies = [x for r in plain for x in r["latencies"]]
    tail_s, tail_pct = tail(latencies)
    failures = [f for r in results for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    for group in (plain, traced):
        failures += [f"count drift across repetitions: {k}"
                     for k in drift([r["counts"] for r in group])]
    failures += [f"digest drift: {r['digest']}" for r in results
                 if r["digest"] != results[0]["digest"]]
    end_to_end = {
        "setup_s": statistics.median([r["setup_s"] for r in results] + probes),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail_s,
    }
    per_layer = {}
    if traced:
        units = {m["name"]: m["unit"] for m in spec_file["per_layer"]}
        counts = [{k: v for k, v in r["layers"].items() if units.get(k) in COUNT_UNITS}
                  for r in traced]
        failures += [f"count drift across traced repetitions: {k}" for k in drift(counts)]
        for k in traced[0]["layers"]:
            per_layer[k] = statistics.median(r["layers"][k] for r in traced)
        # Repetitions alternate untraced, traced: pairing neighbours keeps
        # the machine's drift out of the difference.
        per_layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(results[0::2], results[1::2]))
    attempted = sum(r["attempted"] for r in results)
    return {
        "workload": workload, "seed": args.seed, "size": args.size,
        "digest": results[0]["digest"], "python": platform.python_version(),
        "pythonhashseed": HASHSEED, "reps": len(results), "traced_reps": len(traced),
        "setup_probes": len(probes), "query_samples": len(latencies),
        "query_tail_percentile": tail_pct,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:20], "correct": not failures,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "repetitions": [{k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
                        | {"traced": "layers" in r} for r in results],
        "setup_probe_s": probes,
    }


def metric_block(names_units: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names_units}


def report(res: dict, spec_file: dict) -> None:
    print(f"# {res['workload']}: seed={res['seed']} size={res['size']} "
          f"digest={res['digest']} python={res['python']} "
          f"reps={res['reps']} (traced {res['traced_reps']}) "
          f"setup probes={res['setup_probes']}")
    print(f"# {res['workload']}: query_tail_s is p{res['query_tail_percentile']:.1f} "
          f"of {res['query_samples']} samples; failed_ratio = "
          f"{res['failed']}/{res['attempted']} = {res['failed_ratio']:.6g}")
    units = {m["name"]: m["unit"]
             for m in spec_file["end_to_end"] + spec_file["per_layer"]}
    for group in ("end_to_end", "per_layer"):
        for name, value in res[group].items():
            print(f"{res['workload']} {name} {value:.6g} {units[name]}")
    for f in res["failures"]:
        print(f"# FAILED {res['workload']}: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="recorded answers the correctness gate compares to")
    args = ap.parse_args(argv)

    import_revlab()  # fail early, without a result, if the sources are missing
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec_file["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args, spec_file) for w in names]
    metrics = {}
    for res in results:
        report(res, spec_file)
        path = OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        block = metric_block(spec_file["per_layer" if args.trace else "end_to_end"],
                             res["per_layer" if args.trace else "end_to_end"])
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in block.items()})
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(json.loads(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
