"""Acceptance gate: hard property suites plus desk-scale ordering checks.

The desk matrix is 50 nodes, 15 sessions, v_max in {5, 50} m/s, TPC on/off,
all three protocols, seeds 1-5, for both experiment presets (1500 J / 1000 s
and 100 J / run-to-first-failure), built by cli.matrix_configs and run on
the matrix runner's process pool. Soft ordering criteria must hold in at
least 4 of the 5 seeds per cell, a rule that `vote` alone applies. Only the
delay depends on the contention coefficient kappa, and its ordering must
hold at each kappa in {0.1, 0.5, 1.0}.

Each criterion that reads the desk (03, 04, 08-14) is a function
criterion_NN(set1, set2) -> (ok, detail) of the desk's two tables. Only its
test on the real desk is marked slow; the fast suite runs the same
functions on hand-built desks, beside the hard property suites (01, 02,
05-07).
"""

import inspect
import math
import os
import random
from dataclasses import dataclass

import pytest

from manetsim import (MetricsReport, ScenarioConfig, compute_report, run,
                      set1_config, set2_config)
from manetsim.cli import matrix_configs, run_jobs
from manetsim.energy import tx_power
from manetsim.metrics import (delay_per_packet, recompute_from_csv,
                              relative_close)
from manetsim.protocols import select_route

from oracles import (ledger_balances, link_expiration_time, oracle_route,
                     random_in_range_pair, random_instance,
                     stepping_let_oracle, write_run_csvs)

PROTOCOLS = ("FORP", "LBR", "MMBCR")
SEEDS = (1, 2, 3, 4, 5)
VMAXES = (5.0, 50.0)
TPC_MODES = (False, True)
KAPPAS = (0.1, 0.5, 1.0)
SET2_VMAX = 5.0
SET1_CELLS = [(vmax, tpc) for vmax in VMAXES for tpc in TPC_MODES]


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
                      total_energy=math.fsum(result.ledger.node_totals()),
                      conservation_ok=ledger_balances(result.ledger))


def desk_configs():
    """The 90 desk runs: each preset's matrix cells, under paired seeds."""
    return (matrix_configs(set1_config(), SEEDS, nodes=(50,), vmax=VMAXES,
                           sessions=(15,))
            + matrix_configs(set2_config(), SEEDS, nodes=(50,),
                             vmax=(SET2_VMAX,), sessions=(15,)))


def desk_table(configs, summaries):
    """The desk's two tables: set1 keyed (protocol, v_max, tpc, seed) and
    set2 keyed (protocol, tpc, seed), in config order."""
    set1, set2 = {}, {}
    for cfg, summary in zip(configs, summaries, strict=True):
        if cfg.until_first_failure:
            set2[cfg.protocol, cfg.tpc, cfg.seed] = summary
        else:
            set1[cfg.protocol, cfg.v_max, cfg.tpc, cfg.seed] = summary
    return set1, set2


@pytest.fixture(scope="session")
def desk():
    """All desk-scale runs, summarized, on up to two processes. Takes a few
    minutes."""
    configs = desk_configs()
    return desk_table(configs, run_jobs(summarize, configs,
                                        min(2, os.cpu_count() or 1)))


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


def vote(cells, holds):
    """The cells where holds(cell, seed) is true in fewer than 4 of the 5
    seeds, as "cell: passed/5 seeds" entries in cell order. holds is called
    for every seed of every cell, in that order."""
    failures = []
    for cell in cells:
        passed = sum(holds(cell, seed) for seed in SEEDS)
        if passed < 4:
            failures.append(f"{cell}: {passed}/5 seeds")
    return failures


def per_protocol(runs, key, field):
    """Each protocol's report field in its run at key, the run's key
    without the protocol."""
    return {p: getattr(runs[(p, *key)].report, field) for p in PROTOCOLS}


# --- hard criteria ------------------------------------------------------------

def test_criterion_01_let_stepping_oracle():
    rng = random.Random(20240811)
    horizon = 4000.0
    worst = 0.0
    for _ in range(1000):
        pair = random_in_range_pair(rng, r=250.0)
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


def criterion_03(set1, set2):
    bad = [key for key, s in {**set1, **set2}.items()
           if not s.conservation_ok]
    return not bad, (f"violations in {bad or 'no'} runs "
                     f"({len(set1) + len(set2)} runs checked)")


@pytest.mark.slow
def test_criterion_03_energy_conservation(desk):
    verdict("criterion-03 conservation", *criterion_03(*desk))


def criterion_04(set1, set2):
    bad = [(proto, vmax, seed)
           for proto in PROTOCOLS for vmax in VMAXES for seed in SEEDS
           if set1[proto, vmax, True, seed].total_energy
           > set1[proto, vmax, False, seed].total_energy]
    return not bad, (f"{len(bad)} paired fixed-horizon runs with TPC > "
                     f"fixed: {bad}")


@pytest.mark.slow
def test_criterion_04_tpc_dominance(desk):
    verdict("criterion-04 TPC dominance", *criterion_04(*desk))


def test_criterion_05_determinism(tmp_path):
    outputs = []
    for _ in range(2):
        result = run(set1_config(protocol="FORP", v_max=50.0, seed=1,
                                 duration=200.0))
        pk, rt, lg = write_run_csvs(result, tmp_path / str(len(outputs)))
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
        pk, rt, lg = write_run_csvs(result, tmp_path / str(k))
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

def criterion_08(set1, set2):
    def holds(cell, seed):
        t = per_protocol(set1, (*cell, seed), "route_transitions")
        return t["FORP"] < t["LBR"] <= t["MMBCR"] <= 1.5 * t["LBR"]
    failures = vote(SET1_CELLS, holds)
    return not failures, str(failures)


@pytest.mark.slow
def test_criterion_08_route_transitions(desk):
    verdict("criterion-08 route transitions", *criterion_08(*desk))


def criterion_09(set1, set2):
    def holds(cell, seed):
        h = per_protocol(set1, (*cell, seed), "hop_count")
        return h["LBR"] <= h["MMBCR"] < h["FORP"]
    failures = vote(SET1_CELLS, holds)
    return not failures, str(failures)


@pytest.mark.slow
def test_criterion_09_hop_count(desk):
    verdict("criterion-09 hop count", *criterion_09(*desk))


def criterion_10(set1, set2):
    def holds(cell, seed):
        d = {p: set1[(p, *cell, seed)].delays for p in PROTOCOLS}
        return all(d["LBR"][k] < d["FORP"][k] and d["LBR"][k] < d["MMBCR"][k]
                   for k in KAPPAS)
    failures = vote(SET1_CELLS, holds)
    return not failures, str(failures)


@pytest.mark.slow
def test_criterion_10_delay(desk):
    verdict("criterion-10 delay", *criterion_10(*desk))


def criterion_11(set1, set2):
    def holds(vmax, seed):
        e = per_protocol(set1, (vmax, False, seed), "energy_per_packet")
        return e["LBR"] < e["MMBCR"] < e["FORP"]
    failures = vote(VMAXES, holds)
    return not failures, str(failures)


@pytest.mark.slow
def test_criterion_11_energy_per_packet(desk):
    verdict("criterion-11 energy per packet", *criterion_11(*desk))


def criterion_12(set1, set2):
    observed = {}

    def holds(vmax, seed):
        on = per_protocol(set1, (vmax, True, seed), "energy_per_packet")
        off = per_protocol(set1, (vmax, False, seed), "energy_per_packet")
        ratio = {p: on[p] / off[p] for p in PROTOCOLS}
        observed[vmax, seed] = {p: round(ratio[p], 3) for p in PROTOCOLS}
        return (ratio["FORP"] < ratio["MMBCR"] < ratio["LBR"]
                and 0.40 <= ratio["FORP"] <= 0.65
                and 0.70 <= ratio["LBR"] <= 0.95)
    failures = vote(VMAXES, holds)
    return not failures, f"{failures} observed={observed}"


@pytest.mark.slow
def test_criterion_12_tpc_energy_ratios(desk):
    verdict("criterion-12 TPC energy ratios", *criterion_12(*desk))


def criterion_13(set1, set2):
    def holds(cell, seed):
        f = per_protocol(set1, (*cell, seed), "fairness_stddev")
        return f["MMBCR"] < f["LBR"] < f["FORP"]
    failures = vote(SET1_CELLS, holds)
    return not failures, str(failures)


@pytest.mark.slow
def test_criterion_13_fairness(desk):
    verdict("criterion-13 fairness", *criterion_13(*desk))


def criterion_14(set1, set2):
    observed = {}

    # FORP fails earliest and within the FORP/MMBCR ratio band
    def earliest(cell, seed):
        fft = per_protocol(set2, (cell[1], seed), "first_failure_time")
        ratio = fft["FORP"] / fft["MMBCR"]
        observed["ratio", cell[1], seed] = round(ratio, 3)
        return (fft["FORP"] < fft["LBR"] and fft["FORP"] < fft["MMBCR"]
                and 0.35 <= ratio <= 0.75)

    # TPC stretches each protocol's lifetime by a factor in [1.1, 1.8]
    def stretched(cell, seed):
        proto = cell[1]
        factor = (set2[proto, True, seed].report.first_failure_time
                  / set2[proto, False, seed].report.first_failure_time)
        observed["factor", proto, seed] = round(factor, 3)
        return 1.1 <= factor <= 1.8
    failures = (vote([("earliest+ratio", tpc) for tpc in TPC_MODES], earliest)
                + vote([("tpc-factor", p) for p in PROTOCOLS], stretched))
    return not failures, f"{failures} observed={observed}"


@pytest.mark.slow
def test_criterion_14_first_node_failure(desk):
    verdict("criterion-14 first node failure", *criterion_14(*desk))


# --- the desk criteria on hand-built desks ------------------------------------

# per protocol: route transitions, hop count, delay at every kappa, TPC-off
# energy per packet and its on/off ratio, fairness, TPC-off first failure (s)
PASSING = {"FORP": (1, 4, 0.03, 3, 0.5, 3, 50),
           "LBR": (2, 2, 0.01, 1, 0.8, 2, 90),
           "MMBCR": (2.5, 3, 0.02, 2, 0.6, 1, 100)}


def passing_summary(cfg):
    transitions, hops, delay, energy, ratio, fairness, failure = \
        PASSING[cfg.protocol]
    if cfg.tpc:
        energy, failure = energy * ratio, failure * 1.5
    report = MetricsReport(route_transitions=transitions, hop_count=hops,
                           energy_per_packet=energy,
                           fairness_stddev=fairness,
                           first_failure_time=failure)
    return RunSummary(report=report, delays=dict.fromkeys(KAPPAS, delay),
                      total_energy=100.0 if cfg.tpc else 150.0,
                      conservation_ok=True)


def passing_desk():
    """A desk with the real desk's keys on which every desk criterion holds
    in every seed of every cell."""
    configs = desk_configs()
    return desk_table(configs, [passing_summary(cfg) for cfg in configs])


def break_runs(desk, key, field, value, seeds):
    """Set field (a RunSummary field or a report field) to value in the run
    at (*key, seed) for each of seeds; a set1 key has three parts here, a
    set2 key two."""
    set1, set2 = desk
    for s in seeds:
        run = (set1 if len(key) == 3 else set2)[(*key, s)]
        setattr(run if hasattr(run, field) else run.report, field, value)
    return desk


DESK_CRITERIA = (criterion_03, criterion_04, criterion_08, criterion_09,
                 criterion_10, criterion_11, criterion_12, criterion_13,
                 criterion_14)

# per vote criterion: a break of its ordering in one run, as (run key
# without the seed, field, value), and the failures it gives in two seeds
BREAKS = [
    (criterion_08, ("LBR", 5.0, True), "route_transitions", 4,
     "['(5.0, True): 3/5 seeds']"),
    (criterion_09, ("FORP", 5.0, False), "hop_count", 1,
     "['(5.0, False): 3/5 seeds']"),
    (criterion_10, ("LBR", 50.0, True), "delays",
     {0.1: 0.01, 0.5: 0.05, 1.0: 0.01}, "['(50.0, True): 3/5 seeds']"),
    (criterion_11, ("MMBCR", 5.0, False), "energy_per_packet", 4,
     "['5.0: 3/5 seeds']"),
    (criterion_12, ("FORP", 5.0, True), "energy_per_packet", 2.4,
     "['5.0: 3/5 seeds']"),
    (criterion_13, ("MMBCR", 50.0, False), "fairness_stddev", 5,
     "['(50.0, False): 3/5 seeds']"),
    (criterion_14, ("FORP", True), "first_failure_time", 100,
     "[\"('tpc-factor', 'FORP'): 3/5 seeds\"]"),
]
BREAK_IDS = [case[0].__name__ for case in BREAKS]


@pytest.mark.parametrize("criterion", DESK_CRITERIA,
                         ids=lambda c: c.__name__)
def test_passing_desk_passes(criterion):
    assert criterion(*passing_desk())[0] is True


@pytest.mark.parametrize("criterion, key, field, value, failures", BREAKS,
                         ids=BREAK_IDS)
def test_one_broken_seed_is_outvoted(criterion, key, field, value, failures):
    desk = break_runs(passing_desk(), key, field, value, seeds=(3,))
    assert criterion(*desk)[0] is True


@pytest.mark.parametrize("criterion, key, field, value, failures", BREAKS,
                         ids=BREAK_IDS)
def test_two_broken_seeds_fail_the_cell(criterion, key, field, value,
                                        failures):
    desk = break_runs(passing_desk(), key, field, value, seeds=(2, 4))
    ok, detail = criterion(*desk)
    assert ok is False
    assert detail.partition(" observed=")[0] == failures


def test_criterion_12_observes_every_ratio():
    desk = break_runs(passing_desk(), ("FORP", 5.0, True),
                      "energy_per_packet", 2.4, seeds=(2, 4))
    observed = {(vmax, s): {"FORP": 0.5, "LBR": 0.8, "MMBCR": 0.6}
                for vmax in VMAXES for s in SEEDS}
    for s in (2, 4):
        observed[5.0, s]["FORP"] = 0.8
    assert criterion_12(*desk) == (
        False, f"['5.0: 3/5 seeds'] observed={observed}")


def test_criterion_14_observes_every_ratio_and_factor():
    desk = break_runs(passing_desk(), ("FORP", True), "first_failure_time",
                      100, seeds=(2, 4))
    observed = {("ratio", tpc, s): 0.5 for tpc in TPC_MODES for s in SEEDS}
    observed |= {("factor", p, s): 1.5 for p in PROTOCOLS for s in SEEDS}
    for s in (2, 4):
        observed["ratio", True, s] = round(100 / 150, 3)
        observed["factor", "FORP", s] = 2.0
    assert criterion_14(*desk) == (
        False,
        f"[\"('tpc-factor', 'FORP'): 3/5 seeds\"] observed={observed}")


def test_criterion_03_names_the_unbalanced_run():
    desk = break_runs(passing_desk(), ("MMBCR", True), "conservation_ok",
                      False, seeds=(3,))
    assert criterion_03(*desk) == (
        False, "violations in [('MMBCR', True, 3)] runs (90 runs checked)")


def test_criterion_04_names_the_costlier_tpc_run():
    desk = break_runs(passing_desk(), ("LBR", 50.0, True), "total_energy",
                      150.5, seeds=(2,))
    assert criterion_04(*desk) == (
        False, "1 paired fixed-horizon runs with TPC > fixed: "
               "[('LBR', 50.0, 2)]")


def test_slow_mark_is_on_exactly_the_desk_tests():
    tests = {name: f for name, f in globals().items()
             if name.startswith("test_") and inspect.isfunction(f)}
    slow = sorted(name for name, f in tests.items()
                  if any(m.name == "slow"
                         for m in getattr(f, "pytestmark", [])))
    desk_readers = sorted(name for name, f in tests.items()
                          if "desk" in inspect.signature(f).parameters)
    assert slow == desk_readers
    assert [name.split("_")[2] for name in slow] == [
        "03", "04", "08", "09", "10", "11", "12", "13", "14"]
