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
            "7267affe2dfeb555b971fcf86454065afb24a7bc9165cea7cf5e0faf863657b4",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "40612aba65b9f5dabf6c685ba2fd500271d5f56577c8d575e0c75a6e906bed0b",
    },
    "set1-FORP-tpc1": {
        "ledger.csv":
            "6da2050d56095e837ae3205364ce07dc98c7194dc1fdc4fc46bd44b874c35b19",
        "routes.csv":
            "f6e70e0a7c69a4c12c8e9be081558f6bfaf70cc6ac0a3f3e5c448c998f146a56",
        "packets.csv":
            "141463a371a3dff7b2f00a3339ccc55d170e71b3a85917c89254d91a80d71888",
    },
    "set1-LBR-tpc0": {
        "ledger.csv":
            "2640a9a9209c592269a8ce7e9e5cfe81a1850dba80219e2e5dad8c7f60530a94",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "9ddd38e028c65e25042edf198fb945c7685a85e4604ff9684375229e99c18a32",
    },
    "set1-LBR-tpc1": {
        "ledger.csv":
            "7b7307da14777f2b4e17a871817b80535c295c5cc79ad04896876abd06dfab41",
        "routes.csv":
            "d426eee69d343d09bf6a20a38b112595a5efcb0205c2f4223dcdebfdb6179f61",
        "packets.csv":
            "69959560f431f3bede6e8d3785df84be03c0170773a766190bb233e9b9c7e0cb",
    },
    "set1-MMBCR-tpc0": {
        "ledger.csv":
            "400a62abf8d3434f0de318b16e2916cf23ead1c21430ac7dd9b6a654ca5c99cc",
        "routes.csv":
            "d9981f012f651b3f6ec07e1591e4883592f2ec0e6b6c22077c56f1f8255c0f0a",
        "packets.csv":
            "99ad256e8d9c3d5c6200d44a557b10e51154884b15fea1d194b361ff4dbecda8",
    },
    "set1-MMBCR-tpc1": {
        "ledger.csv":
            "7f0f1badf1c670715d6d877004ce4e1a7c5dabeb6290fdac965a6b62d3858e62",
        "routes.csv":
            "c7305ff9cc554e6d5c837f4494f10a739bde9ca29b5c347a13dda78353ddd750",
        "packets.csv":
            "275caba83b0c58b1612942b75b91e31d04bcf2063e3e1f7ae26622b0a704b88d",
    },
    "set1v50-FORP-tpc0": {
        "ledger.csv":
            "5e0a27c3ca5e92676900cd9a36ca4af731f3176e1ce2bd8926e9b7e5edaa2631",
        "routes.csv":
            "371e5d38a7f18aaa5f1661c2169e7ec3180bc716a9b07301dec37be084b516c9",
        "packets.csv":
            "a549a38329a0fb9478175715e1f7a0e259cc6a83e9d6bd3c900a3a540458485c",
    },
    "set1v50-LBR-tpc0": {
        "ledger.csv":
            "e5680d23c9d1c5997b781c3300c297833d415c96481474b7cadd108ce2e3e0c8",
        "routes.csv":
            "035696b9649acd2e0f51cd40207871583c796e93c2394b19816acb6e780dfd8d",
        "packets.csv":
            "7a1f6b06011fdd99405ea2c5c81b8e1373bbef0155d97e3cb1a76213c1410645",
    },
    "set1v50-MMBCR-tpc0": {
        "ledger.csv":
            "a74da3e0a14160615daec55324814cce2eb6f1b23eec8f1dd2129435e0033fd5",
        "routes.csv":
            "49fb8e04d1f82efbfae4813ba13ef228f765bd03a8dcde6b4ac9e35c0daa8bf6",
        "packets.csv":
            "9cef50fd00c5fd1de6ef1ecdd4e458d8693e92b35703d41e432fe4ab2a23a756",
    },
    "set1n200-FORP-tpc0": {
        "ledger.csv":
            "5743cca74ffc4d005c2f950bd0fd9090d17a3ab63e1c62b2bdd3ea65d42f2ec4",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "77b2eac139e3147248bf3cef61852e160149f032aab35b83a362177aa4525536",
    },
    "set1n200-FORP-tpc1": {
        "ledger.csv":
            "a9fc8e24dcd833adfdde176560a0c0cea4e82bf566a2cea707fc2cb4e694e5ee",
        "routes.csv":
            "516dd9fa36fe9d3fac7c6ca7f5de68a58d7da20d91dc0b7d19f7a343f0c95c57",
        "packets.csv":
            "e31d7e0c9c437fd8bcc36b131f4e6fb16fc65d410f26cb4011a1a0bf0f0e517b",
    },
    "set1n200-LBR-tpc0": {
        "ledger.csv":
            "8b79ed4342391238a634b45ac2d7f7677918f7ad135ad009054687b0746b124b",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "e9e34e088cf0f3baea541870c7a59396a4d032ab9cf5a849c531b19bec15f77a",
    },
    "set1n200-LBR-tpc1": {
        "ledger.csv":
            "e21d9536496e20e52f042b929068c2ab4f39b7178f856597b89e40afc7a51280",
        "routes.csv":
            "cd8f7b5968e89646d5e31beb787d9aa610301082ba65dd16a81eefa2b313de15",
        "packets.csv":
            "12fa3a471143c40c873d352441b15d3931b61cefb1497616514fb7c90e042d32",
    },
    "set1n200-MMBCR-tpc0": {
        "ledger.csv":
            "ef48ece31b87d592aeb392291711e770de41fd78ef0f1e5b5d3e649d27eae12f",
        "routes.csv":
            "bea8c68a97463d7d8dc84dac1fef0b45c8224698c15c9fbe6cc3750b3c09e1a8",
        "packets.csv":
            "fe28ba40df2c11b58b976364c071a2d48deb5734fb15e35754f4076ab03fe0b2",
    },
    "set1n200-MMBCR-tpc1": {
        "ledger.csv":
            "80474664cfad68da1baffee810d3c1ebee9c2a0d35a6e685c607b1ff5c757367",
        "routes.csv":
            "08656cd4bcf9b29802c0883236586e2d9801c6fbcb443fbdef932d77d35ff37d",
        "packets.csv":
            "1dab81e7e60d2ce45bc89b2593a04b3ffcc9605a486e4c1b8e1c35462b91eee9",
    },
    "set2-FORP": {
        "ledger.csv":
            "aeda631fd7d90cd73a4d489ce0f0248bbf1bf2b0f522bb22d1bcef07295f296c",
        "routes.csv":
            "8ac82de66e2281c4132d8c9ca7a3e22bf141b38ac1a8b072b857293afea7e879",
        "packets.csv":
            "de182bd0e489c90d6a116af93c3fb740d2c958059297316475efa6ee8806a18c",
    },
    "set2-LBR": {
        "ledger.csv":
            "a6ce9f86f3ea45bfe91d956772df9f49794604b472932f420e26747b93b81351",
        "routes.csv":
            "2a8beafc5604b900ab5e3bd27abd2ab538b171c81b2b326890e4921f37c6a4b1",
        "packets.csv":
            "6503286ec54f5e7bcb9e4f7b3bf18f869306975622b497c3b8a1991eb47ef155",
    },
    "set2-MMBCR": {
        "ledger.csv":
            "ba44ac35601a19364424db01e2814460c6e6720cab000b12705e6116a0e949a9",
        "routes.csv":
            "a881c889db46b1bc2e4cba9c30bf775262e152cb99ab03142605905acb7151e9",
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
