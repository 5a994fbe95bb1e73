"""Golden sha256 digests of the per-run CSV outputs.

Determinism tests compare a run with itself; these digests pin the bytes of
ledger.csv, routes.csv and packets.csv across commits, so a refactor that
changes any output byte fails here. A deliberate model change re-blesses
them in the same commit, and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

prints a fresh GOLDEN table in this file's format to paste over the one
below.
"""

import hashlib
import os
import tempfile

import pytest

from manetsim import run, set1_config, set2_config
from manetsim.engine import write_packets_csv, write_routes_csv

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
    writers = {
        "ledger.csv": result.ledger.write_csv,
        "routes.csv": lambda path: write_routes_csv(result, path),
        "packets.csv": lambda path: write_packets_csv(result, path),
    }
    digests = {}
    for name, write in writers.items():
        path = os.path.join(out_dir, name)
        write(path)
        with open(path, "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests, result


GOLDEN = {
    "set1-FORP-tpc0": {
        "ledger.csv":
            "e93a9559b28810f53c9577f5489b7a9329a99be26aa2b8992e373b7947fd411e",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "40612aba65b9f5dabf6c685ba2fd500271d5f56577c8d575e0c75a6e906bed0b",
    },
    "set1-FORP-tpc1": {
        "ledger.csv":
            "9a96b9ed6099b251a289b0c9c15379ea5f7131306055df228e341cdc91a59589",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "141463a371a3dff7b2f00a3339ccc55d170e71b3a85917c89254d91a80d71888",
    },
    "set1-LBR-tpc0": {
        "ledger.csv":
            "cd031a5bbabf8ca7ae507b298f00ec6c8397c8dc2ea552a0df995d22fa6981bf",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "9ddd38e028c65e25042edf198fb945c7685a85e4604ff9684375229e99c18a32",
    },
    "set1-LBR-tpc1": {
        "ledger.csv":
            "bd4fa9148296ef2128aad9d0a25d9324579ba81dccea5527085fa1c9403f6825",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "69959560f431f3bede6e8d3785df84be03c0170773a766190bb233e9b9c7e0cb",
    },
    "set1-MMBCR-tpc0": {
        "ledger.csv":
            "52d2cab47d4126efb5e8fdf028dc631cf6e7f89ab459501a59d988f65c197b3b",
        "routes.csv":
            "d9981f012f651b3f6ec07e1591e4883592f2ec0e6b6c22077c56f1f8255c0f0a",
        "packets.csv":
            "99ad256e8d9c3d5c6200d44a557b10e51154884b15fea1d194b361ff4dbecda8",
    },
    "set1-MMBCR-tpc1": {
        "ledger.csv":
            "d7e428bcc2ae074ba612d31059374e2c052146de7c0ec21667f05a7df6eb123a",
        "routes.csv":
            "c7305ff9cc554e6d5c837f4494f10a739bde9ca29b5c347a13dda78353ddd750",
        "packets.csv":
            "275caba83b0c58b1612942b75b91e31d04bcf2063e3e1f7ae26622b0a704b88d",
    },
    "set1v50-FORP-tpc0": {
        "ledger.csv":
            "18c560dc95fccdcec4dd7e6ab983bb5b05930ba490fc9388726aba77e6797689",
        "routes.csv":
            "371e5d38a7f18aaa5f1661c2169e7ec3180bc716a9b07301dec37be084b516c9",
        "packets.csv":
            "a549a38329a0fb9478175715e1f7a0e259cc6a83e9d6bd3c900a3a540458485c",
    },
    "set1v50-LBR-tpc0": {
        "ledger.csv":
            "03c06d3c8e43e9980beefbcfceab2318288b7487a8035f49653831f359f7af4d",
        "routes.csv":
            "035696b9649acd2e0f51cd40207871583c796e93c2394b19816acb6e780dfd8d",
        "packets.csv":
            "7a1f6b06011fdd99405ea2c5c81b8e1373bbef0155d97e3cb1a76213c1410645",
    },
    "set1v50-MMBCR-tpc0": {
        "ledger.csv":
            "d7ff90aef8d33c9ebbdbd04773cb622e4294f7e03184698df19e112300e9dfb2",
        "routes.csv":
            "49fb8e04d1f82efbfae4813ba13ef228f765bd03a8dcde6b4ac9e35c0daa8bf6",
        "packets.csv":
            "9cef50fd00c5fd1de6ef1ecdd4e458d8693e92b35703d41e432fe4ab2a23a756",
    },
    "set1n200-FORP-tpc0": {
        "ledger.csv":
            "600b6be7b0d2159c64b834b480fc94e9355f8ab9885aad6e1ecde41c66a2a99a",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "77b2eac139e3147248bf3cef61852e160149f032aab35b83a362177aa4525536",
    },
    "set1n200-FORP-tpc1": {
        "ledger.csv":
            "7f796c359beb66436ce50235e7bfc9fcde8676b2c300042d5893e7506b8cb53b",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "e31d7e0c9c437fd8bcc36b131f4e6fb16fc65d410f26cb4011a1a0bf0f0e517b",
    },
    "set1n200-LBR-tpc0": {
        "ledger.csv":
            "fa03508535f918614b5564d7ca63d0e065d238e2960a4242af1c300cc04eab52",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "e9e34e088cf0f3baea541870c7a59396a4d032ab9cf5a849c531b19bec15f77a",
    },
    "set1n200-LBR-tpc1": {
        "ledger.csv":
            "fcee2fcb0cb4fedbe3b96be9814206550824142c346e94b364cc62b1810d9299",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "12fa3a471143c40c873d352441b15d3931b61cefb1497616514fb7c90e042d32",
    },
    "set1n200-MMBCR-tpc0": {
        "ledger.csv":
            "2bc14bcd40db663a1343242a201dc17e71bb2bf2a70b66e1f127f67036aaae9e",
        "routes.csv":
            "bea8c68a97463d7d8dc84dac1fef0b45c8224698c15c9fbe6cc3750b3c09e1a8",
        "packets.csv":
            "fe28ba40df2c11b58b976364c071a2d48deb5734fb15e35754f4076ab03fe0b2",
    },
    "set1n200-MMBCR-tpc1": {
        "ledger.csv":
            "b68251a76d228f73d9254bf8ac2d3c47ff486173c8964f8bb2cce1fcc2405a54",
        "routes.csv":
            "08656cd4bcf9b29802c0883236586e2d9801c6fbcb443fbdef932d77d35ff37d",
        "packets.csv":
            "1dab81e7e60d2ce45bc89b2593a04b3ffcc9605a486e4c1b8e1c35462b91eee9",
    },
    "set2-FORP": {
        "ledger.csv":
            "f17bba9b9610edd6b439fac8f5614c507a1af8a248b8ef31fd30466259fad6a2",
        "routes.csv":
            "8ac82de66e2281c4132d8c9ca7a3e22bf141b38ac1a8b072b857293afea7e879",
        "packets.csv":
            "de182bd0e489c90d6a116af93c3fb740d2c958059297316475efa6ee8806a18c",
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
            "0b8da47d127772a35ade63e75d7ab6b99d53c9da5f552296e283a776e7c19ea5",
    },
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_outputs_match_golden_digests(name, tmp_path):
    digests, result = output_digests(SCENARIOS[name], str(tmp_path))
    if name.startswith("set2"):
        assert result.first_failure_time is not None
    assert digests == GOLDEN[name]


def main():
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in SCENARIOS.items():
            digests, _ = output_digests(cfg, tmp)
            print(f'    "{name}": {{')
            for csv_name, digest in digests.items():
                print(f'        "{csv_name}":')
                print(f'            "{digest}",')
            print("    },")
    print("}")


if __name__ == "__main__":
    main()
