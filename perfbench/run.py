"""Benchmark of the wittlink CLI: three workloads, checked outputs,
reference-normalised timings and an optional per-layer trace.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 12 --trace 0

Run from the root of a checkout that holds the program under ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Details of the run (per-op times,
failures, property counts, the full per-layer table) go to
``perfbench/out/``.  See README.md for the method.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from timing import mean_ref, normalise
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Normalised seconds of work in one round, measured on the reference
# machine; --seconds is turned into a whole number of rounds with them.
ROUND_SECONDS = {"decide": 4.4, "structure": 7.6, "dioph": 7.3}
IMPORT_PROBES = 15
# A run must end within 180 s; children get what is left of this.
BUDGET_S = 170

PER_LAYER = (
    ("forms.diagonalize.calls", "count"),
    ("forms.diagonalize.self_share", "ratio"),
    ("forms.determinant.calls", "count"),
    ("forms.form_from_rows.self_share", "ratio"),
    ("witt.square_free_part.calls", "count"),
    ("witt.square_free_part.self_share", "ratio"),
    ("witt.is_prime.calls", "count"),
    ("witt.factorize.self_share", "ratio"),
    ("witt.boundary_at_prime.self_share", "ratio"),
    ("witt.factored_bits", "bits"),
    ("witt.factor_cache.entries", "count"),
    ("mat.invert_rational.calls", "count"),
    ("mat.invert_rational.self_share", "ratio"),
    ("discriminant.smith_normal_form.self_share", "ratio"),
    ("discriminant.discriminant_form.calls", "count"),
    ("discriminant.discriminant_form.self_share", "ratio"),
    ("discriminant.find_metabolizer.calls", "count"),
    ("discriminant.find_metabolizer.self_share", "ratio"),
    ("discriminant.linking_value.calls", "count"),
    ("discriminant.gauss_sum.calls", "count"),
    ("discriminant.gauss_sum.self_share", "ratio"),
    ("discriminant.gauss_sum.elements", "count"),
    ("discriminant.gauss_sum_check.self_share", "ratio"),
    ("knots.analyze_knot.self_share", "ratio"),
    ("diophantine.search.calls", "count"),
    ("diophantine.search.self_share", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unaccounted", "ratio"),
)


STARTED = time.monotonic()


def remaining():
    """Seconds left of the run's budget, for a child's timeout."""
    left = STARTED + BUDGET_S - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"the run took more than {BUDGET_S} s")
    return left


def python(*args):
    """A fresh interpreter running the worker, blind to PYTHONPATH."""
    return [sys.executable, "-E", "-s", str(HERE / "worker.py"), *args]


def measure_setup():
    """Median normalised import time over fresh interpreters.  A first,
    untimed import writes the bytecode caches, as an installed program
    would have them."""
    subprocess.run(python("probe", str(SRC)), check=True, timeout=remaining(),
                   capture_output=True)
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(python("probe", str(SRC)), check=True,
                              timeout=remaining(), capture_output=True,
                              text=True)
        wall, before, after, module = done.stdout.split()
        _check_module(module)
        times.append(normalise(float(wall), mean_ref(float(before),
                                                     float(after))))
    return statistics.median(times)


def _check_module(module):
    if not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {module}, not the program under {SRC}")


def run_worker(argvs, out, trace):
    out.mkdir(parents=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps({"src": str(SRC), "ops": argvs, "out": str(out),
                                "trace": trace}), encoding="utf-8")
    subprocess.run(python("ops", str(spec)), check=True, timeout=remaining())
    result = json.loads((out / "results.json").read_text(encoding="utf-8"))
    _check_module(result["module"])
    result["times"] = [normalise(w, r)
                       for w, r in zip(result["walls"], result["refs"])]
    return result


def judge(ops, out, codes, checks):
    """Per op, None when it passed, else why it failed."""
    reasons = []
    for i, (op, code) in enumerate(zip(ops, codes)):
        text = (out / f"op{i}.txt").read_text(encoding="utf-8")
        if code != 0:
            reasons.append(f"exit {code}: {text[:300]}")
            continue
        try:
            oracle.CHECKS[op.command](op.known, text, checks)
            reasons.append(None)
        except oracle.Mismatch as exc:
            reasons.append(f"rejected: {exc}")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reasons.append(f"malformed output: {exc!r}")
    return reasons


def per_layer(plain, traced):
    labels = traced["labels"]
    spans = traced["spans"]
    scale = [normalise(1.0, r) for r in traced["refs"]]
    calls = dict.fromkeys(labels, 0)
    own_ms = dict.fromkeys(labels, 0.0)
    for span, own in zip(spans, self_times(spans, traced["ticks"])):
        label = labels[span[0]]
        calls[label] += 1
        own_ms[label] += own * scale[span[4]] * 1000
    traced_s = sum(traced["times"])
    table = {}
    for label in labels:
        table[f"{label}.calls"] = calls[label]
        table[f"{label}.self_ms"] = own_ms[label]
        table[f"{label}.self_share"] = own_ms[label] / 1000 / traced_s
    table.update(traced["counters"])
    table["witt.factor_cache.entries"] = traced["factor_cache"]
    table["trace.overhead"] = traced_s / sum(plain["times"])
    table["trace.unaccounted"] = 1 - sum(own_ms.values()) / 1000 / traced_s
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wittlink" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")

    rounds = max(1, min(workloads.MAX_ROUNDS,
                        round(args.seconds / ROUND_SECONDS[args.workload])))
    ops = workloads.build(args.workload, args.seed, rounds)
    work = OUT / f"work-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        argvs = []
        for i, op in enumerate(ops):
            path = work / f"in{i}{op.suffix}"
            if op.payload is not None:
                path.write_text(op.payload, encoding="utf-8")
            argvs.append([str(path) if a == "{input}" else a for a in op.argv])
        setup_s = measure_setup()
        plain = run_worker(argvs, work / "plain", False)
        checks = oracle.Checks()
        reasons = judge(ops, work / "plain", plain["codes"], checks)
        traced = None
        if args.trace:
            traced = run_worker(argvs, work / "traced", True)
            same = all((work / "plain" / f"op{i}.txt").read_bytes()
                       == (work / "traced" / f"op{i}.txt").read_bytes()
                       for i in range(len(ops)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r is not None for r in reasons)
    correct = all(r is None or (op.fault is not None
                                and workloads.FAULT_MARKERS[op.fault] in r)
                  for op, r in zip(ops, reasons))
    times = plain["times"]
    end_to_end = {
        "ops_per_s": (len(ops) - failed) / sum(times),
        "op_ms.p50": statistics.median(times) * 1000,
        "op_ms.p90": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": plain["peak_rss_kb"] / 1024,
    }
    units = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    detail = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "end_to_end": end_to_end, "properties": checks.sampled,
              "ops": [{"argv": op.argv, "fault": op.fault, "ms": t * 1000,
                       "failure": r}
                      for op, t, r in zip(ops, times, reasons)]}
    if traced:
        table = per_layer(plain, traced)
        correct = correct and same
        detail["per_layer"] = table
        metrics = {name: {"value": table.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1),
                                             encoding="utf-8")
    if traced:
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({key: traced[key] for key in
                        ("labels", "spans", "ticks", "refs", "walls")}),
            encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
