"""Workloads, timed passes, output checks and metrics of the benchmark.

A workload is a list of scenarios drawn from the benchmark seed; each
scenario is run once per protocol (FORP, LBR, MMBCR) on the same scenario
seed, which is the paper's paired comparison. One such run is a *unit*. A
pass runs every unit of the workload once, in sequence; a unit's time covers
`run` and `compute_report` and nothing else.
"""

import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from manetsim import compute_report, run, set1_config, set2_config
from manetsim.engine import write_packets_csv, write_routes_csv
from manetsim.metrics import recompute_from_csv, relative_close

from hostspeed import at_reference_speed, reference
from tracing import Tracer

PROTOCOLS = ("FORP", "LBR", "MMBCR")
PRESETS = {"set1": set1_config, "set2": set2_config}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str        # "set1" (fixed horizon) or "set2" (until first death)
    overrides: dict    # ScenarioConfig fields shared by every run
    scenarios: int     # scenario seeds per pass
    why: str

    def configs(self, seed, scale=1.0):
        """Per scenario, the three paired protocol configs. `scale` shortens
        the run (duration for set1, battery for set2) for smoke tests."""
        fields = dict(self.overrides)
        key = "duration" if self.preset == "set1" else "initial_battery"
        fields[key] = fields[key] * scale
        make = PRESETS[self.preset]
        return [[make(protocol=p, seed=1000 * seed + i, **fields)
                 for p in PROTOCOLS]
                for i in range(self.scenarios)]


# Every session starts within the first 2 s, so each short run is busy for
# most of its length, and a pass holds many independent scenarios: a pass's
# cost then varies little from one benchmark seed to the next.
WORKLOADS = {w.name: w for w in (
    Workload("churn", "set1",
             dict(node_count=50, session_count=15, v_max=50.0, tpc=False,
                  duration=10.0, start_window=(0.0, 2.0)),
             scenarios=14,
             why="links break constantly, so route selection and discovery "
                 "flooding do most of the work"),
    # 800 m square: in 1000 m, an isolated session endpoint makes a run
    # retry discovery every 0.5 s, so a few scenarios cost several times
    # the rest and the pass cost would hinge on whether one was drawn
    Workload("endurance", "set2",
             dict(node_count=50, session_count=30, v_max=5.0, tpc=True,
                  initial_battery=3.0, area=(800.0, 800.0),
                  start_window=(0.0, 2.0)),
             scenarios=12,
             why="runs until the first node dies, with many packets per "
                 "discovery: send tables, ledger debits and TPC dominate"),
    Workload("dense", "set1",
             dict(node_count=200, session_count=4, v_max=5.0, tpc=False,
                  duration=10.0, start_window=(0.0, 2.0)),
             scenarios=5,
             why="a large graph with sparse traffic, so snapshot, mobility "
                 "and battery sync dominate"),
)}


# --- output checks ------------------------------------------------------------

def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fingerprint(result):
    """Cheap signature of a run's outputs, compared across passes."""
    ledger = result.ledger
    return (result.end_time, len(result.packets),
            sum(p.delivered for p in result.packets), len(result.routes),
            tuple(ledger.residual(i) for i in range(ledger.node_count)))


def check_run(result, report, work_dir):
    """Output checks that hold for any energy model. Returns (problems,
    sha256 digests of the run's ledger, route and packet CSVs)."""
    problems = []
    ledger = result.ledger
    for node in range(ledger.node_count):
        if ledger.initial_battery - ledger.residual(node) != ledger.total(node):
            problems.append(f"node {node}: initial - residual != total")
            break
    paths = {name: os.path.join(work_dir, f"{name}.csv")
             for name in ("ledger", "routes", "packets")}
    ledger.write_csv(paths["ledger"])
    write_routes_csv(result, paths["routes"])
    write_packets_csv(result, paths["packets"])
    with open(paths["ledger"], newline="") as f:
        for row in csv.DictReader(f):
            if (ledger.initial_battery - float(row["residual_J"])
                    != float(row["total_J"])):
                problems.append(f"ledger.csv node {row['node_id']}: "
                                "initial - residual != total")
                break
    again = recompute_from_csv(paths["packets"], paths["routes"],
                               paths["ledger"], result.end_time)
    # route_transitions is left out: the CSVs only name the sessions that
    # sent a packet, so recompute_from_csv cannot count the others
    for name in ("hop_count", "delay_per_packet", "energy_per_packet",
                 "fairness_stddev"):
        if not relative_close(getattr(again, name), getattr(report, name)):
            problems.append(f"recomputed {name} {getattr(again, name)!r} != "
                            f"reported {getattr(report, name)!r}")
    failed_again = again.first_failure_time
    if isinstance(failed_again, bool):   # recomputation gives only presence
        same = failed_again == (report.first_failure_time is not None)
    else:
        same = relative_close(failed_again, report.first_failure_time)
    if not same:
        problems.append("recomputed first failure disagrees with the report")
    return problems, {name: _sha256(path) for name, path in paths.items()}


def session_key(result):
    return [(s.id, s.source, s.destination, s.start) for s in result.sessions]


# --- passes -------------------------------------------------------------------

class Bench:
    """Runs passes of one workload and keeps every check outcome.

    `times[label]` is the pass's list of unit host seconds (None where the
    unit failed), `scaled[label]` the same at reference speed;
    `figures[label]` holds what the pass simulated; `digests[label]`
    the CSV digests of a fully checked pass.
    """

    def __init__(self, workload, seed, work_dir, scale=1.0):
        self.units = [cfg for scenario in workload.configs(seed, scale)
                      for cfg in scenario]
        self.nodes = workload.overrides["node_count"]
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []            # (pass label, unit label, message)
        self.expected = {}            # unit label -> fingerprint
        self.times, self.scaled, self.figures, self.digests = {}, {}, {}, {}

    @staticmethod
    def label(cfg):
        return f"s{cfg.seed}-{cfg.protocol}"

    def run_pass(self, label, tracer=None, full_checks=False):
        """One pass over the workload; checks happen outside the timed
        region."""
        times = self.times[label] = []
        scaled = self.scaled[label] = []
        figures = self.figures[label] = dict(
            sim_s=0.0, created=0, delivered=0, teardowns=0, dead=0)
        if full_checks:
            self.digests[label] = {}
        sessions = {}
        span = tracer.span if tracer else nullcontext
        ref_after = reference(self.nodes)
        for cfg in self.units:
            unit = self.label(cfg)
            self.attempted += 1
            times.append(None)
            scaled.append(None)
            ref_before = ref_after
            if tracer:
                tracer.run_id = f"{label}/{unit}"
            try:
                t0 = time.perf_counter()
                with span("engine.run"):
                    result = run(cfg)
                with span("metrics.report"):
                    report = compute_report(result)
                elapsed = time.perf_counter() - t0
            except Exception:
                self.failures.append((label, unit, traceback.format_exc(limit=3)))
                ref_after = reference(self.nodes)
                continue
            ref_after = reference(self.nodes)
            problems = self._check(label, unit, result, report, full_checks)
            key = session_key(result)
            if sessions.setdefault(cfg.seed, key) != key:
                problems.append("paired runs drew different sessions")
            if problems:
                self.failures.append((label, unit, "; ".join(problems)))
                continue
            times[-1] = elapsed
            scaled[-1] = at_reference_speed(elapsed, self.nodes, ref_before,
                                            ref_after)
            figures["sim_s"] += result.end_time
            figures["created"] += len(result.packets)
            figures["delivered"] += sum(p.delivered for p in result.packets)
            figures["teardowns"] += sum(r.torn_down_at is not None
                                        for r in result.routes)
            figures["dead"] += sum(not result.ledger.alive(n)
                                   for n in range(result.ledger.node_count))
            del result, report

    def _check(self, label, unit, result, report, full_checks):
        problems = []
        if full_checks:
            run_dir = os.path.join(self.work_dir, unit)
            os.makedirs(run_dir, exist_ok=True)
            try:
                problems, digests = check_run(result, report, run_dir)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            self.digests[label][unit] = digests
        signature = fingerprint(result)
        if self.expected.setdefault(unit, signature) != signature:
            problems.append("outputs differ from the first pass")
        return problems

    def failed_runs(self):
        return len({(p, u) for p, u, _ in self.failures})


def timed_passes(bench, seconds, traced):
    """A fully checked pass, then more rounds until `seconds` of measurement
    are spent, starting one only if it should end in time, judged by the
    last. A round is an untraced pass; with `traced`, a traced pass and an
    untraced one, and the first traced pass repeats the full checks.
    Returns (untraced labels, traced labels, per traced pass the tracer
    summary, the first traced pass's spans, the tracer targets this version
    of manetsim lacks)."""
    plain, with_trace, summaries = [], [], []
    tracer = Tracer() if traced else None
    spans = []
    start = time.perf_counter()
    bench.run_pass("check", full_checks=True)
    plain.append("check")
    round_s = 0.0                      # how long the last round took
    while True:
        began = time.perf_counter()
        if (with_trace or not traced) and began - start + round_s > seconds:
            break
        if traced:
            label = f"traced{len(with_trace) + 1}"
            tracer.reset()
            with tracer.installed():
                bench.run_pass(label, tracer, full_checks=not with_trace)
            summaries.append(tracer.summary())
            if not with_trace:
                spans = tracer.spans
            with_trace.append(label)
        label = f"pass{len(plain) + 1}"
        bench.run_pass(label)
        plain.append(label)
        round_s = time.perf_counter() - began
    return plain, with_trace, summaries, spans, tracer.missing if traced else []


def pass_wall(bench, label):
    return sum(t for t in bench.times[label] if t is not None)


def unit_best(bench, labels, times="scaled"):
    """Per unit, the mean of the faster half of its times over the passes
    `labels` (0.0 if it never completed). Interference on a shared host only
    adds time, so the faster passes are the steadier estimate from one run
    to the next; unlike the single fastest pass, the mean of the faster half
    hardly depends on how many passes a run fitted in."""
    columns = zip(*(getattr(bench, times)[label] for label in labels))
    best = []
    for ts in columns:
        done = sorted(t for t in ts if t is not None)
        half = done[:max(1, len(done) // 2)]
        best.append(sum(half) / len(half) if half else 0.0)
    return best


# --- metrics ------------------------------------------------------------------

END_TO_END_UNITS = {"sim_s_per_wall_s": "s/s", "wall_s": "s",
                    "delivered_pkts_per_wall_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def end_to_end(bench, labels, setup_times):
    """The end-to-end metrics, tracing off. A pass's wall time is the sum
    over units of each unit's mean time at reference speed over the faster
    half of the passes; the simulated figures are those of the checked pass (every pass
    reproduces them). The host seconds are kept alongside."""
    wall = sum(unit_best(bench, labels))
    figures = bench.figures["check"]
    n = len(labels)
    values = {
        "sim_s_per_wall_s": (figures["sim_s"] / wall if wall else 0.0, n),
        "wall_s": (wall, n),
        "delivered_pkts_per_wall_s":
            (figures["delivered"] / wall if wall else 0.0, n),
        "setup_s": (statistics.median(t for t, _ in setup_times),
                    len(setup_times)),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    out = {name: {"value": v, "unit": END_TO_END_UNITS[name], "n": k}
           for name, (v, k) in values.items()}
    out["wall_s"]["host_s"] = sum(unit_best(bench, labels, "times"))
    out["setup_s"]["host_s"] = statistics.median(h for _, h in setup_times)
    return out


SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import manetsim
from manetsim.engine import Simulation
make = {"set1": manetsim.set1_config, "set2": manetsim.set2_config}[sys.argv[1]]
for protocol, seed in json.loads(sys.argv[3]):
    cfg = make(protocol=protocol, seed=seed, **json.loads(sys.argv[2]))
    cfg.validate()
    Simulation(cfg)
host_s = time.perf_counter() - t0
from hostspeed import at_reference_speed, reference
nodes = json.loads(sys.argv[2])["node_count"]
print(repr(host_s), repr(at_reference_speed(host_s, nodes, reference(nodes),
                                            reference(nodes))))
"""


def measure_setup(workload, seed, src_dir, samples):
    """Seconds to import manetsim, build and validate the workload's configs
    and construct each Simulation, each sample in a fresh interpreter that
    then times the reference. Returns per sample (seconds at reference
    speed, host seconds)."""
    units = [(cfg.protocol, cfg.seed)
             for scenario in workload.configs(seed) for cfg in scenario]
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src_dir, here)))
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, workload.preset,
             json.dumps(workload.overrides), json.dumps(units)],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        host_s, scaled = map(float, out.stdout.split())
        times.append((scaled, host_s))
    return times


LAYER_SPANS = {
    "mobility.advance_s": ["mobility.advance"],
    "topology.snapshot_s": ["topology.snapshot"],
    "topology.let_s": ["topology.let"],
    "protocols.select_s": [f"protocols.select.{p}" for p in PROTOCOLS],
    **{f"protocols.select_s.{p}": [f"protocols.select.{p}"]
       for p in PROTOCOLS},
    "energy.discovery_charge_s": ["energy.discovery_charge"],
    "energy.beacon_round_s": ["energy.beacon_round"],
    "engine.send_tables_s": ["engine.send_tables"],
    "engine.deliver_s": ["engine.deliver"],
    "engine.maintain_s": ["engine.maintain"],
    "engine.sync_s": ["engine.sync"],
    "metrics.report_s": ["metrics.report"],
}
LAYERS = ("mobility", "topology", "protocols", "energy", "engine", "metrics")


def layer_figures(summary, figures):
    """Per-layer metrics of one traced pass."""
    busy, own, calls, counts = summary
    out = {name: sum(busy[s] for s in spans)
           for name, spans in LAYER_SPANS.items()}
    selects = sum(calls[f"protocols.select.{p}"] for p in PROTOCOLS)
    snapshots = calls["topology.snapshot"]
    out.update({
        "mobility.advance_calls": calls["mobility.advance"],
        "topology.snapshot_calls": snapshots,
        "topology.let_builds": calls["topology.let"],
        "topology.let_per_snapshot":
            calls["topology.let"] / snapshots if snapshots else 0.0,
        "protocols.select_calls": selects,
        "protocols.found_ratio":
            counts["protocols.found"] / selects if selects else 0.0,
        "energy.discovery_charges": calls["energy.discovery_charge"],
        "energy.debit_calls": counts["energy.debit"],
        "energy.dead_nodes": figures["dead"],
        "engine.self_s": own["engine.run"],
        "engine.ticks": snapshots,
        "engine.packets_created": figures["created"],
        "engine.packets_delivered": figures["delivered"],
        "engine.delivery_ratio":
            figures["delivered"] / figures["created"] if figures["created"]
            else 0.0,
        "engine.teardowns": figures["teardowns"],
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            t for name, t in own.items() if name.split(".")[0] == layer)
    return out


def per_layer(bench, plain, with_trace, summaries):
    """Median over traced passes of each per-layer metric, plus the tracing
    overhead (at reference speed) and the share of the traced wall time the
    layer self times account for."""
    rows = [layer_figures(s, bench.figures[label])
            for s, label in zip(summaries, with_trace)]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    traced_wall = sum(unit_best(bench, with_trace))
    plain_wall = sum(unit_best(bench, plain))
    covered = statistics.median(
        sum(r[f"layer.{layer}.self_s"] for layer in LAYERS)
        / pass_wall(bench, label)
        for r, label in zip(rows, with_trace))
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace.coverage": covered,
    })
    return out, len(rows)


def unit_of(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share", "_per_snapshot", "coverage")):
        return "ratio"
    return "count"


def write_spans(path, spans):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("index", "name", "start_s", "end_s", "parent", "run_id"))
        for i, (name, start, end, parent, run_id) in enumerate(spans):
            w.writerow((i, name, repr(start), repr(end), parent, run_id))


# --- machine notes ------------------------------------------------------------

def machine_notes(root):
    # stop at the checkout root, so a checkout without .git gives no SHA
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    import numpy
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(os.path.join(root, "src", "manetsim")),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def source_digest(src):
    """sha256 over the package's .py files, for checkouts without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(_sha256(os.path.join(src, name)).encode())
    return h.hexdigest()
