"""Acceptance gate: hard property suites plus desk-scale ordering checks.

The desk matrix is 50 nodes, 15 sessions, v_max in {5, 50} m/s, TPC on/off,
all three protocols, seeds 1-5, for both experiment presets (1500 J / 1000 s
and 100 J / run-to-first-failure), built from the matrix runner's cells and
run on its process pool. Soft ordering criteria must hold in at least 4 of
the 5 seeds per cell. Only the delay depends on the contention coefficient
kappa, and its ordering must hold at each kappa in {0.1, 0.5, 1.0}.

Only the criteria that read the desk matrix (03, 04, 08-14) are marked
slow; the hard property suites (01, 02, 05-07) run in the fast suite.
"""

import os
import random
from dataclasses import dataclass

import pytest

from manetsim import (MetricsReport, ScenarioConfig, compute_report, run,
                      set1_config, set2_config)
from manetsim.cli import matrix_configs, run_jobs
from manetsim.energy import tx_power
from manetsim.engine import write_packets_csv, write_routes_csv
from manetsim.metrics import (delay_per_packet, recompute_from_csv,
                              relative_close)
from manetsim.protocols import select_route

from test_energy import ledger_balances
from test_mobility import _random_in_range_pair, stepping_let_oracle
from test_mobility import link_expiration_time
from test_protocols import oracle_route, random_instance

PROTOCOLS = ("FORP", "LBR", "MMBCR")
SEEDS = (1, 2, 3, 4, 5)
VMAXES = (5.0, 50.0)
TPC_MODES = (False, True)
KAPPAS = (0.1, 0.5, 1.0)
SET2_VMAX = 5.0


@dataclass
class RunSummary:
    report: MetricsReport  # at the run's own kappa
    delays: dict           # kappa -> mean delay per delivered packet
    total_energy: float
    conservation_ok: bool


def summarize(cfg):
    """Run cfg and keep what the criteria read."""
    result = run(cfg)
    return RunSummary(report=compute_report(result),
                      delays={k: delay_per_packet(result.packets, k)
                              for k in KAPPAS},
                      total_energy=sum(result.ledger.node_totals()),
                      conservation_ok=ledger_balances(result.ledger))


def desk_configs():
    """The 90 desk runs: each preset's matrix cells, under paired seeds."""
    return (matrix_configs(set1_config(), SEEDS, nodes=(50,), vmax=VMAXES,
                           sessions=(15,))
            + matrix_configs(set2_config(), SEEDS, nodes=(50,),
                             vmax=(SET2_VMAX,), sessions=(15,)))


@pytest.fixture(scope="session")
def desk():
    """All desk-scale runs, summarized, on up to two processes. Takes a few
    minutes."""
    configs = desk_configs()
    summaries = run_jobs(summarize, configs, min(2, os.cpu_count() or 1))
    set1, set2 = {}, {}
    for cfg, summary in zip(configs, summaries):
        if cfg.until_first_failure:
            set2[cfg.protocol, cfg.tpc, cfg.seed] = summary
        else:
            set1[cfg.protocol, cfg.v_max, cfg.tpc, cfg.seed] = summary
    return set1, set2


def test_pooled_summaries_equal_serial_ones():
    configs = [set1_config(protocol="FORP", seed=1, duration=20.0),
               set1_config(protocol="LBR", v_max=50.0, tpc=True, seed=3,
                           duration=20.0),
               set2_config(protocol="MMBCR", v_max=SET2_VMAX, tpc=True,
                           initial_battery=3.0, seed=2)]
    serial = run_jobs(summarize, configs, 1)
    assert serial[2].report.first_failure_time is not None
    assert run_jobs(summarize, configs, 2) == serial


def verdict(name, ok, detail=""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def holds_in_enough_seeds(per_seed_ok, cell, failures, needed=4):
    passed = sum(per_seed_ok)
    if passed < needed:
        failures.append(f"{cell}: {passed}/5 seeds")
    return passed


# --- hard criteria ------------------------------------------------------------

def test_criterion_01_let_stepping_oracle():
    rng = random.Random(20240811)
    horizon = 4000.0
    worst = 0.0
    for _ in range(1000):
        pair = _random_in_range_pair(rng, r=250.0)
        predicted = link_expiration_time(pair, 0, 1, 250.0)
        observed = stepping_let_oracle(pair, 0, 1, 250.0, horizon=horizon)
        if predicted >= horizon:
            assert observed == horizon
        else:
            worst = max(worst, abs(predicted - observed))
    verdict("criterion-01 LET oracle", worst <= 0.01,
            f"max deviation {worst:.4f} s over 1000 pairs")


def test_criterion_02_path_selection_oracles():
    rng = random.Random(20240812)
    mismatches = []
    for trial in range(500):
        snap, activity, s, d = random_instance(rng)
        for proto in ("FORP", "MMBCR", "LBR"):
            route = select_route(proto, snap, activity, s, d)
            expected = oracle_route(proto, snap, activity, s, d)
            got = None if route is None else (route.nodes, route.metric_value)
            want = None if expected is None else (expected[0], expected[1])
            if got != want:
                mismatches.append((trial, proto, got, want))
    verdict("criterion-02 path oracles", not mismatches,
            f"{len(mismatches)} mismatches in 1500 selections"
            + (f"; first: {mismatches[0]}" if mismatches else ""))


@pytest.mark.slow
def test_criterion_03_energy_conservation(desk):
    set1, set2 = desk
    bad = [key for key, s in {**set1, **set2}.items()
           if not s.conservation_ok]
    verdict("criterion-03 conservation", not bad,
            f"violations in {bad or 'no'} runs "
            f"({len(set1) + len(set2)} runs checked)")


@pytest.mark.slow
def test_criterion_04_tpc_dominance(desk):
    set1, _ = desk
    bad = []
    for proto in PROTOCOLS:
        for vmax in VMAXES:
            for seed in SEEDS:
                with_tpc = set1[proto, vmax, True, seed].total_energy
                without = set1[proto, vmax, False, seed].total_energy
                if with_tpc > without:
                    bad.append((proto, vmax, seed))
    verdict("criterion-04 TPC dominance", not bad,
            f"{len(bad)} paired fixed-horizon runs with TPC > fixed: {bad}")


def test_criterion_05_determinism(tmp_path):
    outputs = []
    for _ in range(2):
        result = run(set1_config(protocol="FORP", v_max=50.0, seed=1,
                                 duration=200.0))
        pk = tmp_path / f"p{len(outputs)}.csv"
        rt = tmp_path / f"r{len(outputs)}.csv"
        lg = tmp_path / f"l{len(outputs)}.csv"
        write_packets_csv(result, pk)
        write_routes_csv(result, rt)
        result.ledger.write_csv(lg)
        outputs.append((pk.read_bytes(), rt.read_bytes(), lg.read_bytes()))
    verdict("criterion-05 determinism", outputs[0] == outputs[1],
            "byte-identical packet, route and ledger CSVs")


def test_criterion_06_power_constants():
    at_250 = tx_power(250.0, ScenarioConfig(tpc=True))
    fixed = tx_power(100.0, ScenarioConfig(tpc=False))
    ok = abs(at_250 - 1.39945) <= 1e-6 and fixed == 1.4
    verdict("criterion-06 power constants", ok,
            f"tx_power(250)={at_250!r}, fixed={fixed!r}")


def test_criterion_07_metric_recomputation(tmp_path):
    # a fixed-horizon run, and a run until its first death
    configs = (set1_config(protocol="LBR", v_max=50.0, seed=2, duration=300.0),
               set2_config(protocol="MMBCR", v_max=SET2_VMAX, tpc=True,
                           initial_battery=3.0, seed=2))
    mismatches = []
    for k, cfg in enumerate(configs):
        result = run(cfg)
        pk, rt, lg = (tmp_path / f"{k}-{n}"
                      for n in ("packets.csv", "routes.csv", "ledger.csv"))
        write_packets_csv(result, pk)
        write_routes_csv(result, rt)
        result.ledger.write_csv(lg)
        reference = compute_report(result)
        recomputed = recompute_from_csv(pk, rt, lg, result.end_time)
        mismatches += [
            (k, name, getattr(recomputed, name), getattr(reference, name))
            for name in ("hop_count", "fairness_stddev", "delay_per_packet",
                         "energy_per_packet", "first_failure_time")
            if not relative_close(getattr(recomputed, name),
                                  getattr(reference, name))]
        if k == 1 and reference.first_failure_time is None:
            mismatches.append((k, "no node died", None, None))
    verdict("criterion-07 metric recomputation", not mismatches,
            f"{len(mismatches)} mismatches in 2 runs"
            + (f"; first: {mismatches[0]}" if mismatches else ""))


# --- soft criteria ------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_route_transitions(desk):
    set1, _ = desk
    failures = []
    for vmax in VMAXES:
        for tpc in TPC_MODES:
            oks = []
            for seed in SEEDS:
                t = {p: set1[p, vmax, tpc, seed].report.route_transitions
                     for p in PROTOCOLS}
                oks.append(t["FORP"] < t["LBR"] <= t["MMBCR"]
                           and t["MMBCR"] <= 1.5 * t["LBR"])
            holds_in_enough_seeds(oks, (vmax, tpc), failures)
    verdict("criterion-08 route transitions", not failures, str(failures))


@pytest.mark.slow
def test_criterion_09_hop_count(desk):
    set1, _ = desk
    failures = []
    for vmax in VMAXES:
        for tpc in TPC_MODES:
            oks = []
            for seed in SEEDS:
                h = {p: set1[p, vmax, tpc, seed].report.hop_count
                     for p in PROTOCOLS}
                oks.append(h["LBR"] <= h["MMBCR"] < h["FORP"])
            holds_in_enough_seeds(oks, (vmax, tpc), failures)
    verdict("criterion-09 hop count", not failures, str(failures))


@pytest.mark.slow
def test_criterion_10_delay(desk):
    set1, _ = desk
    failures = []
    for vmax in VMAXES:
        for tpc in TPC_MODES:
            oks = []
            for seed in SEEDS:
                per_kappa = []
                for kappa in KAPPAS:
                    d = {p: set1[p, vmax, tpc, seed].delays[kappa]
                         for p in PROTOCOLS}
                    per_kappa.append(d["LBR"] < d["FORP"]
                                     and d["LBR"] < d["MMBCR"])
                oks.append(all(per_kappa))
            holds_in_enough_seeds(oks, (vmax, tpc), failures)
    verdict("criterion-10 delay", not failures, str(failures))


@pytest.mark.slow
def test_criterion_11_energy_per_packet(desk):
    set1, _ = desk
    failures = []
    for vmax in VMAXES:
        oks = []
        for seed in SEEDS:
            e = {p: set1[p, vmax, False, seed].report.energy_per_packet
                 for p in PROTOCOLS}
            oks.append(e["LBR"] < e["MMBCR"] < e["FORP"])
        holds_in_enough_seeds(oks, vmax, failures)
    verdict("criterion-11 energy per packet", not failures, str(failures))


@pytest.mark.slow
def test_criterion_12_tpc_energy_ratios(desk):
    set1, _ = desk
    failures = []
    observed = {}
    for vmax in VMAXES:
        oks = []
        for seed in SEEDS:
            ratio = {}
            for p in PROTOCOLS:
                on = set1[p, vmax, True, seed].report.energy_per_packet
                off = set1[p, vmax, False, seed].report.energy_per_packet
                ratio[p] = on / off
            observed[vmax, seed] = {p: round(ratio[p], 3) for p in PROTOCOLS}
            oks.append(ratio["FORP"] < ratio["MMBCR"] < ratio["LBR"]
                       and 0.40 <= ratio["FORP"] <= 0.65
                       and 0.70 <= ratio["LBR"] <= 0.95)
        holds_in_enough_seeds(oks, vmax, failures)
    verdict("criterion-12 TPC energy ratios", not failures,
            f"{failures} observed={observed}")


@pytest.mark.slow
def test_criterion_13_fairness(desk):
    set1, _ = desk
    failures = []
    for vmax in VMAXES:
        for tpc in TPC_MODES:
            oks = []
            for seed in SEEDS:
                f = {p: set1[p, vmax, tpc, seed].report.fairness_stddev
                     for p in PROTOCOLS}
                oks.append(f["MMBCR"] < f["LBR"] < f["FORP"])
            holds_in_enough_seeds(oks, (vmax, tpc), failures)
    verdict("criterion-13 fairness", not failures, str(failures))


@pytest.mark.slow
def test_criterion_14_first_node_failure(desk):
    _, set2 = desk
    failures = []
    observed = {}
    # FORP fails earliest and within the FORP/MMBCR ratio band
    for tpc in TPC_MODES:
        oks = []
        for seed in SEEDS:
            fft = {p: set2[p, tpc, seed].report.first_failure_time
                   for p in PROTOCOLS}
            ratio = fft["FORP"] / fft["MMBCR"]
            observed["ratio", tpc, seed] = round(ratio, 3)
            oks.append(fft["FORP"] < fft["LBR"]
                       and fft["FORP"] < fft["MMBCR"]
                       and 0.35 <= ratio <= 0.75)
        holds_in_enough_seeds(oks, ("earliest+ratio", tpc), failures)
    # TPC stretches each protocol's lifetime by a factor in [1.1, 1.8]
    for proto in PROTOCOLS:
        oks = []
        for seed in SEEDS:
            factor = (set2[proto, True, seed].report.first_failure_time
                      / set2[proto, False, seed].report.first_failure_time)
            observed["factor", proto, seed] = round(factor, 3)
            oks.append(1.1 <= factor <= 1.8)
        holds_in_enough_seeds(oks, ("tpc-factor", proto), failures)
    verdict("criterion-14 first node failure", not failures,
            f"{failures} observed={observed}")
