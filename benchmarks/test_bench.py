"""Smoke tests of the benchmark: every workload at a small fraction of its
run length, untraced and traced.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run_bench

run_bench.bootstrap()

import harness  # noqa: E402  (importable only after bootstrap)
from manetsim import energy, engine, mobility, topology  # noqa: E402

SPEC = json.loads((Path(run_bench.ROOT) / "BENCHMARK.json").read_text())
SCALE = 0.05


def wrapped_targets():
    return [engine.select_route, engine.snapshot, mobility.advance,
            engine.charge_route_discovery, engine.charge_beacon_round,
            energy.EnergyLedger.debit, engine.Simulation._deliver,
            engine.Simulation._tick_send_tables,
            engine.Simulation._maintain_routes,
            engine.Simulation._sync_batteries,
            vars(topology.TopologySnapshot)["let"]]


def test_spec_names_the_workloads_and_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run_bench.py"]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke(name, tmp_path):
    workload = harness.WORKLOADS[name]
    originals = wrapped_targets()

    plain = run_bench.measure(workload, 1, 0.0, 0, scale=SCALE,
                              setup_samples=1, results=tmp_path)
    traced = run_bench.measure(workload, 1, 0.0, 1, scale=SCALE,
                               results=tmp_path)

    assert wrapped_targets() == originals
    for record in (plain, traced):
        assert record["error_rate"] == 0, record["failures"]
        assert record["untraced_tracer_targets"] == []
    assert set(plain["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in plain["end_to_end"].values())

    # the traced pass wrote the same bytes as the untraced passes
    digests = plain["digests"]["check"]
    assert len(digests) == 3 * workload.scenarios
    assert traced["digests"]["check"] == digests
    assert traced["digests"]["traced1"] == digests

    layer = traced["per_layer"]
    assert layer["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.02)
    assert layer["protocols.select_calls"]["value"] > 0
    assert (layer["engine.ticks"]["value"]
            == layer["topology.snapshot_calls"]["value"])
    assert (tmp_path / f"{name}-seed1-trace1-spans.csv").is_file()


def test_output_checks_catch_a_broken_ledger(tmp_path):
    cfg = harness.WORKLOADS["churn"].configs(1, SCALE)[0][0]
    result = engine.run(cfg)
    report = harness.compute_report(result)
    assert harness.check_run(result, report, tmp_path)[0] == []

    ledger = result.ledger
    ledger.entries["mac"][0] += 1.0          # breaks recomputed energy
    problems, _ = harness.check_run(result, report, tmp_path)
    assert any("energy_per_packet" in p for p in problems)

    true_total = ledger.total
    ledger.total = lambda node: true_total(node) + (node == 0)
    problems, _ = harness.check_run(result, report, tmp_path)
    assert any("initial - residual != total" in p for p in problems)


def test_paired_runs_must_draw_the_same_sessions(tmp_path):
    bench = harness.Bench(harness.WORKLOADS["churn"], 1, str(tmp_path), SCALE)
    bench.units = bench.units[:2]
    bench.units[1] = bench.units[1].replace(session_count=3)
    bench.run_pass("check")
    assert [u for _, u, m in bench.failures
            if "different sessions" in m] == [bench.label(bench.units[1])]
