"""Command line interface, config files, and the experiment matrix runner."""

import csv
import dataclasses
import math
import re

import pytest

from manetsim.cli import (Cell, build_parser, cell_config, main, matrix_cells,
                          run_matrix)
from manetsim.config import (ConfigError, ScenarioConfig, load_config,
                             save_config, set1_config)


class TestConfigFiles:
    def test_round_trip_preserves_every_field(self, tmp_path):
        cfg = ScenarioConfig(node_count=23, v_max=17.5, tpc=True,
                             protocol="MMBCR", seed=99, area=(800.0, 1200.0),
                             start_window=(2.0, 8.0), until_first_failure=True)
        path = tmp_path / "scenario.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# comment\n\nnode_count = 10  # inline\nseed = 4\n")
        cfg = load_config(path)
        assert cfg.node_count == 10
        assert cfg.seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("node_count 10\n")
        with pytest.raises(ConfigError):
            load_config(path)
        # unparsable values name the file and line
        for line in ("area = 1000", "node_count = fifty"):
            path.write_text(f"# scenario\n{line}\n")
            with pytest.raises(ConfigError, match=re.escape(f"{path}:2: ")):
                load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        # a repeated key is an error, not a silent override of the first
        path = tmp_path / "scenario.cfg"
        path.write_text("tpc = on\nseed = 4\n# later\ntpc = off\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:4: tpc repeated; first set at {path}:1")):
            load_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("tpc = maybe\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        for line in ("node_count = 1", "buffer_cap = -1", "v_max = inf",
                     "duration = nan", "area = 1000, inf"):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError):
                load_config(path)


_REAL_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if isinstance(f.default, (float, tuple))]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", _REAL_FIELDS)
def test_non_finite_values_rejected(name, bad):
    default = getattr(ScenarioConfig(), name)
    value = (default[0], bad) if isinstance(default, tuple) else bad
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: value}).validate()
    if isinstance(default, tuple):  # a list works wherever a tuple does
        ScenarioConfig(**{name: list(default)}).validate()
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**{name: list(value)}).validate()


@pytest.mark.parametrize("bad", [2.5, 50.0, math.nan, True, "50"])
@pytest.mark.parametrize("name", ["node_count", "session_count", "packet_size",
                                  "buffer_cap", "seed"])
def test_non_integer_values_rejected(name, bad):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", ["off", "False", 1, 0, None])
@pytest.mark.parametrize("name", ["tpc", "until_first_failure"])
def test_non_boolean_values_rejected(name, bad):
    # a truthy string must not switch TPC on
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", [(1000.0,), (1.0, 2.0, 3.0), (), 5.0, "ab",
                                 (0.0, "1"), (True, 5.0)])
@pytest.mark.parametrize("name", ["area", "start_window"])
def test_pair_values_need_exactly_two_numbers(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be two numbers"):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", ["10", True, None])
@pytest.mark.parametrize("name", ["v_max", "tick", "kappa"])
def test_non_numeric_real_values_rejected(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be a number"):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("interval, whole", [(0.25, False), (0.05, False),
                                             (1.0, True), (0.3, True)])
def test_beacon_interval_is_a_whole_number_of_ticks(interval, whole):
    cfg = ScenarioConfig(beacon_interval=interval, tick=0.1)
    if whole:  # 0.3 / 0.1 == 2.9999999999999996 is three ticks
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="beacon_interval"):
            cfg.validate()


class TestMatrixCells:
    def test_full_matrix_size(self):
        # 3 protocols x 2 densities x 6 speeds x 2 loads x 2 tpc modes
        assert len(matrix_cells()) == 144

    def test_cell_config_applies_cell_and_seed(self):
        cell = Cell("MMBCR", 100, 30.0, 30, True)
        cfg = cell_config(cell, "set1", seed=12)
        assert (cfg.protocol, cfg.node_count, cfg.v_max,
                cfg.session_count, cfg.tpc, cfg.seed) == \
            ("MMBCR", 100, 30.0, 30, True, 12)
        assert cfg.initial_battery == 1500.0

    def test_unknown_preset_needs_base(self):
        cell = Cell("FORP", 50, 5.0, 15, False)
        with pytest.raises(ConfigError):
            cell_config(cell, "bogus", seed=1)
        base = set1_config(duration=5.0)
        assert cell_config(cell, "bogus", seed=1, base=base).duration == 5.0


def _small_base():
    return ScenarioConfig(node_count=15, session_count=3, duration=8.0)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    cells = [Cell(p, 15, 10.0, 3, False) for p in ("FORP", "LBR")]
    rows = run_matrix("custom", 2, out, cells=cells, base_seed=5,
                      base=_small_base())
    return out, cells, rows


class TestRunMatrix:
    def test_row_count_and_order(self, outputs):
        _, cells, rows = outputs
        assert [(cell, seed) for cell, seed, _ in rows] == \
            [(c, s) for c in cells for s in (5, 6)]

    def test_runs_csv_schema(self, outputs):
        out, _, rows = outputs
        with open(out / "runs.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["protocol", "nodes", "sessions",
                                         "v_max", "tpc", "seed", "metric",
                                         "value"]
            records = list(reader)
        assert len(records) == len(rows) * 6  # six metrics per run

    def test_comparison_csv_aggregates(self, outputs):
        out, cells, _ = outputs
        with open(out / "comparison.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["protocol", "nodes", "sessions",
                                         "v_max", "tpc", "metric", "mean",
                                         "stddev", "n_reps"]
            records = list(reader)
        assert len(records) == len(cells) * 6
        assert all(r["n_reps"] == "2" for r in records)
        transitions = [r for r in records
                       if r["metric"] == "route_transitions"]
        assert all(float(r["mean"]) >= 0.0 for r in transitions)

    def test_matrix_is_deterministic(self, outputs, tmp_path):
        out, cells, _ = outputs
        run_matrix("custom", 2, tmp_path, cells=cells, base_seed=5,
                   base=_small_base())
        assert (out / "runs.csv").read_bytes() == \
            (tmp_path / "runs.csv").read_bytes()

    def test_worker_pool_matches_serial(self, outputs, tmp_path):
        out, cells, _ = outputs
        run_matrix("custom", 2, tmp_path, cells=cells, base_seed=5,
                   base=_small_base(), workers=2)
        assert (out / "runs.csv").read_bytes() == \
            (tmp_path / "runs.csv").read_bytes()


class TestCommandLine:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_emits_metrics_and_ledger(self, tmp_path):
        out = tmp_path / "out"
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(out))
        assert code == 0
        with open(out / "metrics.csv", newline="") as f:
            metrics = dict((row["metric"], row["value"])
                           for row in csv.DictReader(f))
        assert set(metrics) == {"route_transitions", "hop_count",
                                "delay_per_packet", "energy_per_packet",
                                "fairness_stddev", "first_failure_time"}
        assert (out / "ledger.csv").exists()
        assert not (out / "packets.csv").exists()

    def test_run_optional_emissions(self, tmp_path):
        out = tmp_path / "out"
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(out),
                            "--emit-packets", "--emit-routes")
        assert code == 0
        assert (out / "packets.csv").exists()
        assert (out / "routes.csv").exists()

    def test_config_file_round_trip_runs_identically(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base().replace(seed=3), cfg_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert self.run_cli("run", "--config", str(cfg_path),
                                "--seed", "3", "--out-dir", str(out),
                                "--emit-packets") == 0
            outs.append(out)
        for name in ("metrics.csv", "ledger.csv", "packets.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base(), cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self.run_cli("run", "--config", str(cfg_path), "--seed", "1",
                     "--out-dir", str(out_a))
        self.run_cli("run", "--config", str(cfg_path), "--seed", "1",
                     "--protocol", "MMBCR", "--tpc", "on",
                     "--out-dir", str(out_b))
        assert (out_a / "metrics.csv").read_bytes() != \
            (out_b / "metrics.csv").read_bytes()

    def test_trace_round_trip_via_cli(self, tmp_path):
        cfg = ["--nodes", "15", "--sessions", "3", "--duration", "8",
               "--seed", "2"]
        trace = tmp_path / "trace.csv"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_cli("run", *cfg, "--out-dir", str(out_a),
                            "--trace-out", str(trace)) == 0
        assert self.run_cli("run", *cfg, "--out-dir", str(out_b),
                            "--trace-in", str(trace)) == 0
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()

    def test_trace_with_another_tick_rejected(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "2",
                            "--out-dir", str(tmp_path / "a"),
                            "--trace-out", str(trace)) == 0
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base().replace(tick=0.2), cfg_path)
        code = self.run_cli("run", "--config", str(cfg_path), "--seed", "2",
                            "--out-dir", str(tmp_path / "b"),
                            "--trace-in", str(trace))
        assert code == 2

    def test_paired_traces_across_protocols(self, tmp_path):
        traces = []
        for proto in ("FORP", "LBR", "MMBCR"):
            trace = tmp_path / f"{proto}.csv"
            assert self.run_cli("run", "--nodes", "15", "--sessions", "3",
                                "--duration", "8", "--seed", "2",
                                "--protocol", proto,
                                "--out-dir", str(tmp_path / proto),
                                "--trace-out", str(trace)) == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1] == traces[2]

    # each bad trace fails with exit code 2 at set-up, naming the file and,
    # for a bad row, its line; the line numbers below count the header as 1
    TRACE_RUN = ("--nodes", "15", "--sessions", "3", "--duration", "8",
                 "--seed", "2")

    def replay_edited_trace(self, tmp_path, capsys, edit, *flags):
        trace = tmp_path / "trace.csv"
        assert self.run_cli("run", *self.TRACE_RUN,
                            "--out-dir", str(tmp_path / "a"),
                            "--trace-out", str(trace)) == 0
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(edit(lines)))
        capsys.readouterr()
        rerecorded = tmp_path / "again.csv"
        code = self.run_cli("run", *self.TRACE_RUN, *flags,
                            "--out-dir", str(tmp_path / "b"),
                            "--trace-in", str(trace),
                            "--trace-out", str(rerecorded))
        assert code == 2
        assert not rerecorded.exists()   # rejected before the first tick
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {trace}")
        return err

    @staticmethod
    def edit_field(line_no, field, value):
        def edit(lines):
            fields = lines[line_no - 1].rstrip("\r\n").split(",")
            if value is None:
                del fields[field]
            else:
                fields[field] = value
            lines[line_no - 1] = ",".join(fields) + "\r\n"
            return lines
        return edit

    def test_trace_row_with_five_fields(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(5, 5, None))
        assert ":5: expected 6 fields, got 5" in err

    def test_trace_non_numeric_field(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(7, 3, "north"))
        assert ":7: not a number" in err

    def test_trace_nan_position(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(9, 2, "nan"))
        assert ":9: non-finite value" in err

    def test_trace_node_count_mismatch(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys, lambda lines: lines,
                                       "--nodes", "16")
        assert "15 nodes, but the run has 16" in err

    def test_trace_shorter_than_run(self, tmp_path, capsys):
        # the header and the first 40 of the run's 80 ticks
        err = self.replay_edited_trace(tmp_path, capsys,
                                       lambda lines: lines[:1 + 40 * 15])
        assert "40 ticks, but the run needs 80" in err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        for line in ("node_count = 1", "node_count = fifty",
                     "beacon_interval = 0.25", "tpc = on\ntpc = off"):
            bad.write_text(line + "\n")
            code = self.run_cli("run", "--config", str(bad), "--seed", "1",
                                "--out-dir", str(tmp_path / "out"))
            assert code == 2

    def test_non_finite_flag_exit_code(self, tmp_path):
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--vmax", "inf", "--seed", "1",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_preset_and_config_are_exclusive(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base(), cfg_path)
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--preset", "set1", "--config", str(cfg_path),
                         "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert exc.value.code == 2

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(blocker / "out"))
        assert code == 3

    def test_matrix_subcommand(self, tmp_path):
        out = tmp_path / "matrix"
        code = self.run_cli("matrix", "--preset", "set2", "--reps", "1",
                            "--seed", "1", "--out-dir", str(out),
                            "--protocol", "FORP", "--nodes", "15",
                            "--vmax", "10", "--sessions", "2", "--tpc", "off")
        assert code == 0
        assert (out / "runs.csv").exists()
        assert (out / "comparison.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--reps", "-1"),
                                             ("--workers", "0"),
                                             ("--workers", "-2")])
    def test_matrix_rejects_fewer_than_one_rep_or_worker(self, tmp_path, flag,
                                                          value):
        # before, --reps 0 wrote header-only tables and exited 0, and
        # --workers 0 ran serially
        out = tmp_path / "matrix"
        code = self.run_cli("matrix", "--preset", "set1", "--seed", "1",
                            "--out-dir", str(out), "--protocol", "FORP",
                            "--nodes", "15", "--vmax", "10", "--sessions", "2",
                            "--tpc", "off", flag, value)
        assert code == 2
        assert not out.exists()
