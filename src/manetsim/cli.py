"""Command line front end: single runs and the experiment matrix."""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from . import engine, metrics
from .config import (ConfigError, PROTOCOLS, ScenarioConfig, load_config,
                     set1_config, set2_config, write_csv)
from .mobility import Trace

MATRIX_NODES = (50, 100)
MATRIX_VMAX = (5.0, 10.0, 20.0, 30.0, 40.0, 50.0)
MATRIX_SESSIONS = (15, 30)
PRESETS = {"set1": set1_config, "set2": set2_config}


def matrix_configs(base, seeds, protocols=PROTOCOLS, nodes=MATRIX_NODES,
                   vmax=MATRIX_VMAX, sessions=MATRIX_SESSIONS,
                   tpc=(False, True)):
    """The matrix's runs over base, cell by cell, each cell once per seed.

    Every cell uses the same seeds, so all protocol and TPC variants of a
    cell replay the same mobility and the same sessions.
    """
    return [base.replace(protocol=p, node_count=n, v_max=v, session_count=s,
                         tpc=t, seed=seed)
            for p in protocols for n in nodes for v in vmax
            for s in sessions for t in tpc for seed in seeds]


def run_jobs(fn, jobs, workers=1):
    """fn applied to each job, on a pool of `workers` processes when that is
    more than one; the results come back in job order."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers!r}")
    if workers == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _report(cfg):
    return metrics.compute_report(engine.run(cfg))


def run_matrix(configs, out_dir, workers=1):
    """Run every config, each validated before any runs, and write the CSV
    tables. Returns the (config, report) rows in config order."""
    configs = [cfg.validate() for cfg in configs]
    rows = list(zip(configs, run_jobs(_report, configs, workers)))
    os.makedirs(out_dir, exist_ok=True)
    write_run_rows(rows, os.path.join(out_dir, "runs.csv"))
    write_comparison_table(rows, os.path.join(out_dir, "comparison.csv"))
    return rows


_METRIC_FIELDS = [f.name for f in fields(metrics.MetricsReport)]


def _cell(cfg):
    """The table columns that name cfg's matrix cell."""
    return (cfg.protocol, cfg.node_count, cfg.session_count, cfg.v_max,
            int(cfg.tpc))


def write_run_rows(rows, path):
    write_csv(path, ("protocol", "nodes", "sessions", "v_max", "tpc", "seed",
                     "metric", "value"),
              ((*_cell(cfg), cfg.seed, name, getattr(report, name))
               for cfg, report in rows for name in _METRIC_FIELDS))


def write_comparison_table(rows, path):
    """Tidy aggregated table: one row per cell-metric. A metric present in
    only one run of a cell has no sample stddev, so its stddev cell is
    empty."""
    by_cell = {}
    for cfg, report in rows:
        by_cell.setdefault(_cell(cfg), []).append(report)
    write_csv(path, ("protocol", "nodes", "sessions", "v_max", "tpc",
                     "metric", "mean", "stddev", "n_reps"),
              ((*cell, name, getattr(mean, name), getattr(std, name),
                len(reports))
               for cell, reports in by_cell.items()
               for mean, std in [metrics.aggregate(reports)]
               for name in _METRIC_FIELDS))


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
    else:
        cfg = PRESETS[args.preset or "set1"]()
    cfg = _apply_flags(cfg, args)
    trace = Trace.load(args.trace_in) if args.trace_in else None
    sim = engine.Simulation(cfg, trace=trace, trace_out=args.trace_out)
    os.makedirs(args.out_dir, exist_ok=True)
    result = sim.run()
    report = metrics.compute_report(result)
    write_csv(os.path.join(args.out_dir, "metrics.csv"), ("metric", "value"),
              ((name, getattr(report, name)) for name in _METRIC_FIELDS))
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
    if args.reps < 1:
        raise ConfigError(f"replications must be at least 1, "
                          f"got {args.reps!r}")
    tpc = {"on": (True,), "off": (False,), "both": (False, True)}[args.tpc]
    configs = matrix_configs(PRESETS[args.preset](),
                             range(args.seed, args.seed + args.reps),
                             protocols=args.protocol or PROTOCOLS,
                             nodes=args.nodes or MATRIX_NODES,
                             vmax=args.vmax or MATRIX_VMAX,
                             sessions=args.sessions or MATRIX_SESSIONS,
                             tpc=tpc)
    run_matrix(configs, args.out_dir, workers=args.workers)
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
