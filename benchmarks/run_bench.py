"""manetsim benchmark: one workload, one seed, one process.

    python3 benchmarks/run_bench.py --workload churn --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `manetsim` from its
`src/` directory. A fully checked pass comes first, then more passes until
`--seconds` are spent; every pass is timed. With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it alternates traced and untraced passes and reports the
per-layer metrics and the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object. The full
record goes to `benchmarks/results/`.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7


def bootstrap():
    """Pin BLAS threads and the CPU, and import manetsim from this checkout
    only."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # stay on one CPU, so that the host-speed reference and the code it
    # rescales run on the same one
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    if not (SRC / "manetsim" / "__init__.py").is_file():
        raise SystemExit(f"run_bench: no manetsim source under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import manetsim
    if Path(manetsim.__file__).resolve().parent != SRC / "manetsim":
        raise SystemExit(f"run_bench: imported manetsim from "
                         f"{manetsim.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seed, seconds, trace, scale=1.0,
            setup_samples=SETUP_SAMPLES, results=RESULTS):
    """Run the benchmark, write its full record under `results` and return
    it."""
    import harness

    results.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "scale": scale,
              "parameters": {"preset": workload.preset,
                             "scenarios": workload.scenarios,
                             **workload.overrides},
              "load_before": os.getloadavg(),
              "machine": harness.machine_notes(str(ROOT))}
    work_dir = results / f"{tag}.work"
    work_dir.mkdir(exist_ok=True)
    bench = harness.Bench(workload, seed, str(work_dir), scale)
    try:
        setup = ([] if trace else
                 harness.measure_setup(workload, seed, str(SRC), setup_samples))
        plain, with_trace, summaries, spans, missing = harness.timed_passes(
            bench, seconds, traced=bool(trace))
    finally:
        work_dir.rmdir()
    if trace and bench.digests.get("traced1") != bench.digests["check"]:
        bench.failures.append(("traced1", "*", "traced run digests differ "
                               "from the untraced check pass"))
    failed = bench.failed_runs()
    record.update({
        "attempted": bench.attempted,
        "failed": failed,
        "error_rate": failed / bench.attempted,
        "failures": bench.failures,
        "digests": bench.digests,
        "unit_host_s": {label: bench.times[label] for label in plain + with_trace},
        "unit_scaled_s": {label: bench.scaled[label]
                          for label in plain + with_trace},
        "untraced_tracer_targets": missing,
    })
    if trace:
        metrics, n = harness.per_layer(bench, plain, with_trace, summaries)
        record["per_layer"] = {name: {"value": v, "unit": harness.unit_of(name),
                                      "n": n} for name, v in metrics.items()}
        harness.write_spans(results / f"{tag}-spans.csv", spans)
    else:
        record["end_to_end"] = harness.end_to_end(bench, plain, setup)
    record["load_after"] = os.getloadavg()
    with open(results / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"run_bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(harness.WORKLOADS)}")
    started = time.perf_counter()
    record = measure(workload, args.seed, args.seconds, args.trace)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    for name, m in metrics.items():
        print(f"{workload.name:9s} {name:28s} {m['value']:14.6g} {m['unit']:5s}"
              f" (n={m['n']})")
    for name, m in metrics.items():
        if "host_s" in m:
            print(f"{workload.name:9s} {name + ' (host)':28s} {m['host_s']:14.6g} s")
    print(f"{workload.name:9s} {'error_rate':28s} {record['error_rate']:14.6g} "
          f"ratio ({record['failed']} of {record['attempted']} runs)")
    for pass_label, unit, message in record["failures"]:
        print(f"FAILED {pass_label} {unit}: {message}", file=sys.stderr)
    print(f"# {time.perf_counter() - started:.1f} s; results in "
          f"{RESULTS.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()
