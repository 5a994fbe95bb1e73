"""Golden sha256 digests of the per-run CSV outputs.

Determinism tests compare a run with itself; these digests pin the bytes of
ledger.csv, routes.csv and packets.csv of each scenario, and of the CLI's
metrics.csv, mobility trace CSV, runs.csv and comparison.csv, across
commits, so a refactor that changes any output byte fails here. A
deliberate model change re-blesses them in the same commit, and says so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

prints a fresh GOLDEN table in this file's format to paste over the one
below, and on stderr, per scenario, which CSVs differ from that table.
"""

import hashlib
import os
import sys
import tempfile

import pytest

from manetsim import cli, run, set1_config, set2_config

from oracles import write_run_csvs

PROTOCOLS = ("FORP", "LBR", "MMBCR")


def scenarios():
    """set1 covers every protocol with TPC off and on, at 50 nodes and on a
    200-node graph with sparse traffic, and at v_max 50, where nodes reach
    their waypoints often and mobility redraws legs every few seconds; set2
    (3 J, until the first death) covers the death path under TPC."""
    out = {}
    for proto in PROTOCOLS:
        for tpc in (False, True):
            out[f"set1-{proto}-tpc{int(tpc)}"] = set1_config(
                protocol=proto, tpc=tpc, node_count=50, v_max=20.0,
                duration=200.0, start_window=(0.0, 5.0), seed=3)
    for proto in PROTOCOLS:
        out[f"set1v50-{proto}-tpc0"] = set1_config(
            protocol=proto, tpc=False, node_count=50, v_max=50.0,
            duration=60.0, start_window=(0.0, 2.0), seed=3)
    for proto in PROTOCOLS:
        for tpc in (False, True):
            out[f"set1n200-{proto}-tpc{int(tpc)}"] = set1_config(
                protocol=proto, tpc=tpc, node_count=200, session_count=4,
                v_max=20.0, duration=40.0, start_window=(0.0, 2.0), seed=3)
    for proto in PROTOCOLS:
        out[f"set2-{proto}"] = set2_config(
            protocol=proto, tpc=True, initial_battery=3.0,
            area=(800.0, 800.0), session_count=30, v_max=5.0,
            start_window=(0.0, 2.0), seed=3)
    return out


SCENARIOS = scenarios()


def output_digests(cfg, out_dir):
    """Run one scenario; returns ({csv name: sha256}, run result)."""
    result = run(cfg)
    write_run_csvs(result, out_dir)
    return (file_digests(out_dir, ("ledger.csv", "routes.csv", "packets.csv")),
            result)


def file_digests(out_dir, names):
    """{name: sha256 of the bytes of file `name` in out_dir}."""
    digests = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def cli_run_digests(out_dir):
    """One small `manetsim run` until its first death, recording its
    mobility trace: the digests of metrics.csv and of the trace CSV."""
    assert cli.main(["run", "--preset", "set2", "--protocol", "LBR",
                     "--nodes", "20", "--sessions", "5", "--battery", "2",
                     "--vmax", "5", "--tpc", "on", "--seed", "3",
                     "--out-dir", out_dir,
                     "--trace-out", os.path.join(out_dir, "trace.csv")]) == 0
    return file_digests(out_dir, ("metrics.csv", "trace.csv"))


def cli_matrix_digests(out_dir):
    """A matrix grid of 2 protocols x TPC off and on x 2 seeds, in which no
    node dies, so some cells are empty: the digests of runs.csv and
    comparison.csv."""
    configs = cli.matrix_configs(
        set1_config(duration=30.0, start_window=(0.0, 2.0)), seeds=(3, 4),
        protocols=("FORP", "MMBCR"), nodes=(20,), vmax=(10.0,),
        sessions=(4,))
    cli.run_matrix(configs, out_dir)
    return file_digests(out_dir, ("runs.csv", "comparison.csv"))


CLI_OUTPUTS = {"cli-run": cli_run_digests, "cli-matrix": cli_matrix_digests}


GOLDEN = {
    "set1-FORP-tpc0": {
        "ledger.csv":
            "e93a9559b28810f53c9577f5489b7a9329a99be26aa2b8992e373b7947fd411e",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "398558e7884777da36d92d5482b578ac7223bf7b6e7234b1388ed73d2ee0a82b",
    },
    "set1-FORP-tpc1": {
        "ledger.csv":
            "9a96b9ed6099b251a289b0c9c15379ea5f7131306055df228e341cdc91a59589",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "1ef863d5074cdabb486471bbc2ae948a815cba2300e9f903a2ab45c0350f598f",
    },
    "set1-LBR-tpc0": {
        "ledger.csv":
            "cd031a5bbabf8ca7ae507b298f00ec6c8397c8dc2ea552a0df995d22fa6981bf",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "b279aa4530fef1e5888bf06bac0ea1a54086b13cbbc51e021d2ed410b5bd8da6",
    },
    "set1-LBR-tpc1": {
        "ledger.csv":
            "bd4fa9148296ef2128aad9d0a25d9324579ba81dccea5527085fa1c9403f6825",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "0b1f993237df7ff7c05f2625d33dd3e97cf4dd110b6b834d097c45508e3e4aa7",
    },
    "set1-MMBCR-tpc0": {
        "ledger.csv":
            "52d2cab47d4126efb5e8fdf028dc631cf6e7f89ab459501a59d988f65c197b3b",
        "routes.csv":
            "d9981f012f651b3f6ec07e1591e4883592f2ec0e6b6c22077c56f1f8255c0f0a",
        "packets.csv":
            "efc63023e1e498e48b65d8224473b44d29ecb48ae994a01d934e510901e8f232",
    },
    "set1-MMBCR-tpc1": {
        "ledger.csv":
            "d7e428bcc2ae074ba612d31059374e2c052146de7c0ec21667f05a7df6eb123a",
        "routes.csv":
            "c7305ff9cc554e6d5c837f4494f10a739bde9ca29b5c347a13dda78353ddd750",
        "packets.csv":
            "a0877ed8b6d7b2eaa80e0ef4913a6372f0844cfe5395268e4ceb6c7b6ce90f6b",
    },
    "set1v50-FORP-tpc0": {
        "ledger.csv":
            "18c560dc95fccdcec4dd7e6ab983bb5b05930ba490fc9388726aba77e6797689",
        "routes.csv":
            "371e5d38a7f18aaa5f1661c2169e7ec3180bc716a9b07301dec37be084b516c9",
        "packets.csv":
            "2159f87a6235018dcd90e161a1e911653b60b45125152801210282af507365b4",
    },
    "set1v50-LBR-tpc0": {
        "ledger.csv":
            "03c06d3c8e43e9980beefbcfceab2318288b7487a8035f49653831f359f7af4d",
        "routes.csv":
            "035696b9649acd2e0f51cd40207871583c796e93c2394b19816acb6e780dfd8d",
        "packets.csv":
            "7f3a0f05d004977164ac6e64d00004d35f7e3e33c105d7794a9a136913dbcc9c",
    },
    "set1v50-MMBCR-tpc0": {
        "ledger.csv":
            "d7ff90aef8d33c9ebbdbd04773cb622e4294f7e03184698df19e112300e9dfb2",
        "routes.csv":
            "49fb8e04d1f82efbfae4813ba13ef228f765bd03a8dcde6b4ac9e35c0daa8bf6",
        "packets.csv":
            "50d2cdf1c3fbef88b1e84b1be6da11d618e4504183ac57286feb84f6c3aff65a",
    },
    "set1n200-FORP-tpc0": {
        "ledger.csv":
            "600b6be7b0d2159c64b834b480fc94e9355f8ab9885aad6e1ecde41c66a2a99a",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "c1f3dc46e057f0e25996dfd37e24687e528ee588e7edf99a2692a9d7dbff5abf",
    },
    "set1n200-FORP-tpc1": {
        "ledger.csv":
            "7f796c359beb66436ce50235e7bfc9fcde8676b2c300042d5893e7506b8cb53b",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "8474d7051d6e5eaedc6020c8c5b56d3dd39f968a1a5a62c2587dfb4190d5dbf0",
    },
    "set1n200-LBR-tpc0": {
        "ledger.csv":
            "fa03508535f918614b5564d7ca63d0e065d238e2960a4242af1c300cc04eab52",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "eaf42ad6838957fec0ee85632b91ff0472fc7d28eec33437656b43b999d51dd2",
    },
    "set1n200-LBR-tpc1": {
        "ledger.csv":
            "fcee2fcb0cb4fedbe3b96be9814206550824142c346e94b364cc62b1810d9299",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "4014d2d41886b954de3f39775edf5370a678e37df535b0f945748a2dc7af0594",
    },
    "set1n200-MMBCR-tpc0": {
        "ledger.csv":
            "2bc14bcd40db663a1343242a201dc17e71bb2bf2a70b66e1f127f67036aaae9e",
        "routes.csv":
            "bea8c68a97463d7d8dc84dac1fef0b45c8224698c15c9fbe6cc3750b3c09e1a8",
        "packets.csv":
            "29e30c7bce10f9590ce4e50623c5599970e153f8f1d48ceb6029f051fc0d9560",
    },
    "set1n200-MMBCR-tpc1": {
        "ledger.csv":
            "b68251a76d228f73d9254bf8ac2d3c47ff486173c8964f8bb2cce1fcc2405a54",
        "routes.csv":
            "08656cd4bcf9b29802c0883236586e2d9801c6fbcb443fbdef932d77d35ff37d",
        "packets.csv":
            "5360e25fa0c611bb9b6b71d7b58da06a07157cbde6611f21c4b332805ba2d39c",
    },
    "set2-FORP": {
        "ledger.csv":
            "f17bba9b9610edd6b439fac8f5614c507a1af8a248b8ef31fd30466259fad6a2",
        "routes.csv":
            "8ac82de66e2281c4132d8c9ca7a3e22bf141b38ac1a8b072b857293afea7e879",
        "packets.csv":
            "b135c8c90f650c09ce0b7d53a9d5c277310a9ab80016a5e1d5eb2dd42c78201b",
    },
    "set2-LBR": {
        "ledger.csv":
            "d7644f80732a33a1fb286cbc2d79205943e08056d04478a33e7516e657470acb",
        "routes.csv":
            "2a8beafc5604b900ab5e3bd27abd2ab538b171c81b2b326890e4921f37c6a4b1",
        "packets.csv":
            "6503286ec54f5e7bcb9e4f7b3bf18f869306975622b497c3b8a1991eb47ef155",
    },
    "set2-MMBCR": {
        "ledger.csv":
            "7e71222dfaa4a09516a4f6f0cb05ac1b1f38d96ee761530257ed97b31ac32532",
        "routes.csv":
            "0803c92885e10c2297290aa60b4b91658d91736dd35904f6eb398202e495db06",
        "packets.csv":
            "044b76dcab271bbf6044eb198cdd79d7e4f378c73b0c7e8554dde92a5bfcbd96",
    },
    "cli-run": {
        "metrics.csv":
            "16202f0d688cd7db9d27fc2bffe1d12cad39bbae75fbfb11e53c127aed119682",
        "trace.csv":
            "72cf817f23768aeceb0a2631725440b8bada804602c23c9eb6e91a6c54a1965b",
    },
    "cli-matrix": {
        "runs.csv":
            "5c4abc3c43e8cf20b2ff0cc0eada963d6995e673010f3aadce3c411e6e808d36",
        "comparison.csv":
            "64b2bf3c439d598a1971b5fa703e42af5a2009bb94a85b680dc19a2cdfde8e1a",
    },
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_outputs_match_golden_digests(name, tmp_path):
    digests, result = output_digests(SCENARIOS[name], str(tmp_path))
    if name.startswith("set2"):
        assert result.first_failure_time is not None
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", list(CLI_OUTPUTS))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    assert CLI_OUTPUTS[name](str(tmp_path)) == GOLDEN[name]


def test_moved_csvs_names_each_digest_that_differs():
    digests = dict(GOLDEN["set2-LBR"])
    assert moved_csvs("set2-LBR", digests) == []
    digests["packets.csv"] = "0" * 64
    assert moved_csvs("set2-LBR", digests) == ["packets.csv"]
    assert moved_csvs("new-scenario", digests) == list(digests)


def moved_csvs(name, digests):
    """The CSVs of scenario `name` whose digests differ from GOLDEN's."""
    golden = GOLDEN.get(name, {})
    return [csv_name for csv_name, digest in digests.items()
            if golden.get(csv_name) != digest]


def golden_table(digests):
    """The GOLDEN block of this file for {scenario: {csv name: digest}}."""
    lines = ["GOLDEN = {"]
    for name, csvs in digests.items():
        lines.append(f'    "{name}": {{')
        for csv_name, digest in csvs.items():
            lines += [f'        "{csv_name}":', f'            "{digest}",']
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_golden_table_reprints_the_golden_block():
    with open(__file__) as f:
        source = f.read()
    start = source.index("\nGOLDEN = {\n") + 1
    end = source.index("\n}\n", start) + 3
    assert golden_table(GOLDEN) == source[start:end]


def test_rebless_tool_prints_the_table_and_what_moved(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "SCENARIOS",
                        {"set2-LBR": SCENARIOS["set2-LBR"]})
    monkeypatch.setattr(sys.modules[__name__], "CLI_OUTPUTS",
                        {"cli-run": CLI_OUTPUTS["cli-run"]})
    main()
    out, err = capsys.readouterr()
    assert out == golden_table({name: GOLDEN[name]
                                for name in ("set2-LBR", "cli-run")})
    assert err == "set2-LBR: unchanged\ncli-run: unchanged\n"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digests(cfg, tmp)[0]
                   for name, cfg in SCENARIOS.items()}
        digests.update((name, outputs(tmp))
                       for name, outputs in CLI_OUTPUTS.items())
    print(golden_table(digests), end="")
    for name, csvs in digests.items():
        moved = moved_csvs(name, csvs)
        print(f"{name}: {' '.join(moved) if moved else 'unchanged'}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
