"""Command line front end: single runs and the experiment matrix."""

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from . import engine, metrics
from .config import (ConfigError, PROTOCOLS, ScenarioConfig, load_config,
                     set1_config, set2_config)
from .mobility import Trace

MATRIX_NODES = (50, 100)
MATRIX_VMAX = (5.0, 10.0, 20.0, 30.0, 40.0, 50.0)
MATRIX_SESSIONS = (15, 30)
PRESETS = {"set1": set1_config, "set2": set2_config}


@dataclass(frozen=True)
class Cell:
    protocol: str
    node_count: int
    v_max: float
    session_count: int
    tpc: bool


def matrix_cells(protocols=PROTOCOLS, nodes=MATRIX_NODES, vmax=MATRIX_VMAX,
                 sessions=MATRIX_SESSIONS, tpc=(False, True)):
    return [Cell(p, n, v, s, t)
            for p in protocols for n in nodes for v in vmax
            for s in sessions for t in tpc]


def cell_config(cell: Cell, base, seed):
    return base.replace(protocol=cell.protocol, node_count=cell.node_count,
                        v_max=cell.v_max, session_count=cell.session_count,
                        tpc=cell.tpc, seed=seed)


def _run_cell(args):
    cell, cfg = args
    return cell, cfg.seed, metrics.compute_report(engine.run(cfg))


def run_jobs(fn, jobs, workers=1):
    """fn applied to each job, on a pool of `workers` processes when that is
    more than one; the results come back in job order."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers!r}")
    if workers == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def run_matrix(base, replications, out_dir, cells, base_seed=1, workers=1):
    """Run every cell of the matrix over the base config with paired seeds
    and write CSV tables.

    Replication k uses seed base_seed + k for every cell, so all protocol and
    TPC variants of a cell replay the same mobility and the same sessions.
    Returns the list of (cell, seed, report) rows in deterministic order.
    """
    if replications < 1:
        raise ConfigError(f"replications must be at least 1, "
                          f"got {replications!r}")
    jobs = [(cell, cell_config(cell, base, base_seed + rep).validate())
            for cell in cells for rep in range(replications)]
    rows = run_jobs(_run_cell, jobs, workers)
    os.makedirs(out_dir, exist_ok=True)
    write_run_rows(rows, os.path.join(out_dir, "runs.csv"))
    write_comparison_table(rows, os.path.join(out_dir, "comparison.csv"))
    return rows


_METRIC_FIELDS = [f.name for f in fields(metrics.MetricsReport)]


def write_run_rows(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("protocol", "nodes", "sessions", "v_max", "tpc", "seed",
                    "metric", "value"))
        for cell, seed, report in rows:
            for name in _METRIC_FIELDS:
                value = getattr(report, name)
                w.writerow((cell.protocol, cell.node_count, cell.session_count,
                            repr(cell.v_max), int(cell.tpc), seed, name,
                            "" if value is None else repr(value)))


def write_comparison_table(rows, path):
    """Tidy aggregated table: one row per cell-metric. A metric present in
    only one run of a cell has no sample stddev, so its stddev cell is
    empty."""
    by_cell = {}
    for cell, _, report in rows:
        by_cell.setdefault(cell, []).append(report)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("protocol", "nodes", "sessions", "v_max", "tpc", "metric",
                    "mean", "stddev", "n_reps"))
        for cell, reports in by_cell.items():
            mean, std = metrics.aggregate(reports)
            for name in _METRIC_FIELDS:
                m, s = getattr(mean, name), getattr(std, name)
                w.writerow((cell.protocol, cell.node_count, cell.session_count,
                            repr(cell.v_max), int(cell.tpc), name,
                            "" if m is None else repr(m),
                            "" if s is None else repr(s), len(reports)))


# --- argument parsing ---------------------------------------------------------

_CONFIG_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _add_scenario_flags(p):
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--nodes", type=int, dest="node_count")
    p.add_argument("--vmax", type=float, dest="v_max")
    p.add_argument("--sessions", type=int, dest="session_count")
    p.add_argument("--tpc", choices=("on", "off"))
    p.add_argument("--battery", type=float, dest="initial_battery")
    p.add_argument("--duration", type=float)
    p.add_argument("--kappa", type=float)


def _apply_flags(cfg, args):
    """The scenario flags given (each a `dest` named after its config field)
    and the seed, laid over cfg."""
    overrides = {name: value for name, value in vars(args).items()
                 if name in _CONFIG_FIELDS and value is not None}
    if args.tpc is not None:
        overrides["tpc"] = args.tpc == "on"
    if args.duration is not None:
        overrides["until_first_failure"] = False
    return cfg.replace(**overrides).validate()


def build_parser():
    parser = argparse.ArgumentParser(prog="manetsim",
                                     description="MANET routing comparison simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a single scenario")
    base = runp.add_mutually_exclusive_group()
    base.add_argument("--preset", choices=tuple(PRESETS))
    base.add_argument("--config",
                      help="key = value scenario file; flags override")
    _add_scenario_flags(runp)
    runp.add_argument("--seed", type=int, required=True)
    runp.add_argument("--out-dir", required=True)
    runp.add_argument("--trace-in", help="replay a mobility trace CSV")
    runp.add_argument("--trace-out", help="record the mobility trace CSV")
    runp.add_argument("--emit-packets", action="store_true")
    runp.add_argument("--emit-routes", action="store_true")

    matp = sub.add_parser("matrix", help="run the experiment matrix")
    matp.add_argument("--preset", choices=tuple(PRESETS), required=True)
    matp.add_argument("--reps", type=int, default=1)
    matp.add_argument("--seed", type=int, required=True)
    matp.add_argument("--out-dir", required=True)
    matp.add_argument("--workers", type=int, default=1)
    matp.add_argument("--protocol", choices=PROTOCOLS, action="append")
    matp.add_argument("--nodes", type=int, action="append")
    matp.add_argument("--vmax", type=float, action="append")
    matp.add_argument("--sessions", type=int, action="append")
    matp.add_argument("--tpc", choices=("on", "off", "both"), default="both")
    return parser


def _cmd_run(args):
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = PRESETS[args.preset]()
    else:
        cfg = ScenarioConfig()
    cfg = _apply_flags(cfg, args)
    trace = Trace.load(args.trace_in) if args.trace_in else None
    sim = engine.Simulation(cfg, trace=trace, trace_out=args.trace_out)
    os.makedirs(args.out_dir, exist_ok=True)
    result = sim.run()
    report = metrics.compute_report(result)
    with open(os.path.join(args.out_dir, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("metric", "value"))
        for name in _METRIC_FIELDS:
            value = getattr(report, name)
            w.writerow((name, "" if value is None else repr(value)))
    result.ledger.write_csv(os.path.join(args.out_dir, "ledger.csv"))
    if args.emit_packets:
        engine.write_packets_csv(result, os.path.join(args.out_dir, "packets.csv"))
    if args.emit_routes:
        engine.write_routes_csv(result, os.path.join(args.out_dir, "routes.csv"))
    return 0


def _cmd_matrix(args):
    for flag, values in (("--protocol", args.protocol),
                         ("--nodes", args.nodes), ("--vmax", args.vmax),
                         ("--sessions", args.sessions)):
        if values and len(set(values)) < len(values):
            raise ConfigError(f"{flag} repeats a value: {values}")
    tpc = {"on": (True,), "off": (False,), "both": (False, True)}[args.tpc]
    cells = matrix_cells(protocols=tuple(args.protocol or PROTOCOLS),
                         nodes=tuple(args.nodes or MATRIX_NODES),
                         vmax=tuple(args.vmax or MATRIX_VMAX),
                         sessions=tuple(args.sessions or MATRIX_SESSIONS),
                         tpc=tpc)
    run_matrix(PRESETS[args.preset](), args.reps, args.out_dir, cells,
               base_seed=args.seed, workers=args.workers)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_matrix(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
