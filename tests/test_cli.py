import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ruwitness
from ruwitness import selftest
from ruwitness.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWitnessCommand:
    def test_prints_beta_terms_settings(self, capsys):
        code, out, _ = run(capsys, "witness", "--gate", "cnot")
        assert code == 0
        assert "beta = 0.500000000000" in out
        assert "decomposition (16 terms):" in out
        assert "28/64  IIII" in out
        assert "-4/64  IXIX" in out
        assert "settings (9):" in out

    def test_writes_export_files(self, capsys, tmp_path):
        dec = tmp_path / "dec.json"
        st = tmp_path / "settings.json"
        code, _, _ = run(
            capsys, "witness", "--gate", "cz",
            "--decomposition-out", str(dec), "--settings-out", str(st),
        )
        assert code == 0
        terms = json.loads(dec.read_text())
        assert {"coeff": "28/64", "string": "IIII"} in terms
        assert {"coeff": "-4/64", "string": "ZZZZ"} in terms
        settings = json.loads(st.read_text())
        assert len(settings) == 9
        assert all(len(s) == 4 and set(s) <= set("XYZ") for s in settings)


# SHA-256 of each output, keyed by the command, its --gate and the values of its KEY_FLAGS: any
# change to these bytes is a change of format.  simulate and sweep run with PINNED_ARGS; an output
# file "name" is written through --name-out ("out" through --out).  sweep's stdout names its file.
OUTPUT_DIGESTS = {
    ("witness", "cnot"): {
        "stdout": "909cf49037e33d563db04007b0d4f7d5e95d8bfc2eafc169dc261c0e9320eb10",
        "decomposition": "48a27761c406ae4725437bfa870e8328404bb15beacc3cb5818626cacbbf46c9",
        "settings": "c1aa24886a30813da27f171c2d9f882801aff6f13be4431e326d964356049320",
    },
    ("witness", "cz"): {
        "stdout": "266539e57f26ccbdd892021d7b6376d151ca0fbd93a1ba46f0661a7ca0e7ff94",
        "decomposition": "a6a81401917a9ba636bdd60fb1b93f14918de1bafaa03f3889feac8b423315b6",
        "settings": "a6e80a444c9579c35068403b8295aa3a99265e785874cb9e50462156a9d6e00b",
    },
    ("beta", "cnot"): {"stdout": "45e4ce30b9650697dc7e178f04f984d079c0e4f797d28e6f88cb55c48d74f77f"},
    ("beta", "cz"): {"stdout": "45e4ce30b9650697dc7e178f04f984d079c0e4f797d28e6f88cb55c48d74f77f"},
    ("simulate", "cnot", "depolarising"): {
        "stdout": "f625f8b084b4df97ea2a19e76c8f1548ce13ebc44f66883ccdf96c43df0713fe",
        "out": "1b9573a89ea3830231adfc79a9ac743e8c276babb109cf840f2c952311099c90",
    },
    ("simulate", "cnot", "dephasing"): {
        "stdout": "9fbc31c4ef827ff22d1d65f60afbf7a05556ba366a57c2ee19a02a9836078a4c",
        "out": "074ac520e998e9c41fd515d28f5061383509733eee6f1681dd1a5fb104ae1c7f",
    },
    ("simulate", "cnot", "bitflip"): {
        "stdout": "50854c6fdf575b62dbffce73bac6c083f7b03bc7cce2f6f179f562fb6371eba4",
        "out": "fa110e5f8d412fbd39d2ce0a2e92e7c773b0818d2a4218d7b4e5ba7bc47d4353",
    },
    ("simulate", "cnot", "amplitude_damping"): {
        "stdout": "99bd32c7a715c5bc04165e0426f3d272093cab31f1cf013dda0295b1622b6576",
        "out": "6f1f3efa188696e08911a675df3e83bebfcb433a765bfeec8d1127744779385d",
    },
    ("simulate", "cz", "depolarising"): {
        "stdout": "1fee4abc530bc06bd41af39eb120bb1b38a9b216d9b4bbca3bda7e9e04737e9e",
        "out": "41c0de550a3f1fde396c2e016b983b1ed1c6cc445a154807d6840ee68a0f2b4b",
    },
    ("simulate", "cz", "dephasing"): {
        "stdout": "11d9de895d2f0485b7fd3aa9e4c9c12fdd481ecbf7139ff1af4c21ae71dc3be6",
        "out": "97fcb4143d9ae91fd35dd161012b037effbd06f7a56db1dbf146447ee6024ea3",
    },
    ("simulate", "cz", "bitflip"): {
        "stdout": "17e41c24f360a37099a35e147984056f5a86153180595d534a4cbb0644426f25",
        "out": "3b42903c095262006bf13ad61f3094bbbd1b142317e96f978b80e402e11306bc",
    },
    ("simulate", "cz", "amplitude_damping"): {
        "stdout": "c42d31a473b93f9d70b18a5ae17021f710588f4178afc81aaf049490e3ae58ce",
        "out": "6ad3cdfda9580830fb7f0baed7aaaee3dd7001944af638f9ea8fce504f32bbb5",
    },
    ("threshold", "cnot", "depolarising", "after"): {
        "stdout": "d96f6520a960d8badcd9f816a9eb59400fecac472217f7fdc78eb4a5a7f6d5c7",
        "out": "e0cda04ac163e4e610176cd57e59675f0f85c7d54e0665288c6da485c8e68254",
    },
    ("threshold", "cnot", "depolarising", "before"): {
        "stdout": "d96f6520a960d8badcd9f816a9eb59400fecac472217f7fdc78eb4a5a7f6d5c7",
        "out": "24eb2dcd8548d4d69735bb074f231810fedabb612376561b9dbd9e2a9e3885d8",
    },
    ("threshold", "cnot", "depolarising", "equal"): {
        "stdout": "0cf9ac4ce0e67bb17d0a6f7b9a1ac4f8c81fc16ee49d072245dd6e0aba1a9cb0",
        "out": "2a66f9dc3c029868ce79a5598834fbd8d20a8802cdfe8fa9371994356b0768a2",
    },
    ("threshold", "cnot", "dephasing", "after"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "8f66fa61212f35bb2f214256e9e165638874920412ebd556158bbd553ed482fa",
    },
    ("threshold", "cnot", "dephasing", "before"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "cb5f4a32e73a101bc17d156fc98994fcd949d68c1802761548127d8533a79923",
    },
    ("threshold", "cnot", "dephasing", "equal"): {
        "stdout": "8bb6896b5076eabddb088690bf28349e8fee5aea6a0cd22b51e7061a62843db9",
        "out": "6a2a19d2e7a4272657eb27ab85ed9324a668be55cfaff05e94aa8d27d6cf45ef",
    },
    ("threshold", "cnot", "bitflip", "after"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "aa1b6cac8a38bd113c5cc85cad47c36c3c7d07ae3960618e9e064c25b014465c",
    },
    ("threshold", "cnot", "bitflip", "before"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "19de365e050db8b945495e4ef6fbc69f2d356b9df169e1d10bf2341942bf5465",
    },
    ("threshold", "cnot", "bitflip", "equal"): {
        "stdout": "8bb6896b5076eabddb088690bf28349e8fee5aea6a0cd22b51e7061a62843db9",
        "out": "d3c9d3413085487f25ea1a8faf27cbe660e41672322066801e2c1f2483907652",
    },
    ("threshold", "cnot", "amplitude_damping", "after"): {
        "stdout": "120391fce7e72d84efdc6e49205a5248fea35ee5c6f3b9f898a87d801954fbb8",
        "out": "4e540d05aba9da5effc891cf958b77141e81b42994ff6bf25ccb10b49dd80002",
    },
    ("threshold", "cnot", "amplitude_damping", "before"): {
        "stdout": "120391fce7e72d84efdc6e49205a5248fea35ee5c6f3b9f898a87d801954fbb8",
        "out": "53b4dbadaa003de1850e9b5106f721f97180fb11fbb58aaf99b4d953c65b533b",
    },
    ("threshold", "cnot", "amplitude_damping", "equal"): {
        "stdout": "429ba4c86634d157c8ee7c100622649b6fb3d38ba1e46e3d171b0932afc724a7",
        "out": "25534ae33edfa3eec06326135a2aab8a386d3a744ff46c99dbf65c34708dc917",
    },
    ("threshold", "cz", "depolarising", "after"): {
        "stdout": "d96f6520a960d8badcd9f816a9eb59400fecac472217f7fdc78eb4a5a7f6d5c7",
        "out": "4e7cc1bf9348db257c34258da9eb07ce90a40bd8703b7660dbd67bc18d5bfc12",
    },
    ("threshold", "cz", "depolarising", "before"): {
        "stdout": "d96f6520a960d8badcd9f816a9eb59400fecac472217f7fdc78eb4a5a7f6d5c7",
        "out": "9f36993d3f2a4433a7f7878df72512296cd2d6456ca8cfc9c184ef4fab4bc0ce",
    },
    ("threshold", "cz", "depolarising", "equal"): {
        "stdout": "0cf9ac4ce0e67bb17d0a6f7b9a1ac4f8c81fc16ee49d072245dd6e0aba1a9cb0",
        "out": "8af4d340c1b8d5dd74121d2a6243729b303a94d06b0a6be8439e08828d7fd218",
    },
    ("threshold", "cz", "dephasing", "after"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "4ba981b4d4eb351a64aa7a4fc11c25e36dd9e4f283afdb01fab62b546b6b1fb9",
    },
    ("threshold", "cz", "dephasing", "before"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "4ae53a67267b39e44db21d0b32ce2fff322e2bbf0235da1174095b62604124c2",
    },
    ("threshold", "cz", "dephasing", "equal"): {
        "stdout": "6e339a67f7db4d1b5bb222eac801c1beca37b152e3ec0ddec1095a8dbbdec28d",
        "out": "610260bfc78bd04008d37a05f8c0ad2f107e00686e612ccc4a23a784c9287075",
    },
    ("threshold", "cz", "bitflip", "after"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "8cfb73eb4f5f32c6694727021b4b5c1b8a7e992aaed45089a82b007ee1ac57da",
    },
    ("threshold", "cz", "bitflip", "before"): {
        "stdout": "7437de327a50fede117dfe2b7b19e8aae7c125b772485d7f60218eaa551ca913",
        "out": "438d473ef0289739053276d8b25397adf5cd62f592e823a48328d8001b021492",
    },
    ("threshold", "cz", "bitflip", "equal"): {
        "stdout": "e80a0adc3cd9a5feabdefc26c3323f228c0c829963b666594c2391140f473680",
        "out": "17e5275fe5d038ef483f34d16afbf9a4d7695b6ba9a87851e8229109306af98b",
    },
    ("threshold", "cz", "amplitude_damping", "after"): {
        "stdout": "120391fce7e72d84efdc6e49205a5248fea35ee5c6f3b9f898a87d801954fbb8",
        "out": "fc1eac0d5b67845e8b12b67a840e1321f97eb0eb8fada88075ccba4ca453ebe8",
    },
    ("threshold", "cz", "amplitude_damping", "before"): {
        "stdout": "120391fce7e72d84efdc6e49205a5248fea35ee5c6f3b9f898a87d801954fbb8",
        "out": "06882a66c6fba7eaf923db4aeb0b81e61a61827613cb7f99248c7b440b5039ee",
    },
    ("threshold", "cz", "amplitude_damping", "equal"): {
        "stdout": "11df2486c98d8d9f853a3d3cd09265d306d69534c2adc73aa32c26a6ba8e9e64",
        "out": "85eb3a3bc28e0ab582aa4b85df0e4aa355a21c87fa3eab4a211724f7a963070c",
    },
    ("sweep", "cnot", "depolarising", "csv"): {"out": "1e5f42e72d67c93af115f22099bd19f7ce179f5d0a42df91a9d587aa6615071c"},
    ("sweep", "cnot", "depolarising", "json"): {"out": "b89054301bc19c32009bdce415685c498b4b5829672eb77a7e814e4bcdd0ffdb"},
    ("sweep", "cnot", "dephasing", "csv"): {"out": "6243e9fa5bc5ee42887100ec2e3a26e09d11f777cad1826efc64acf45de5a093"},
    ("sweep", "cnot", "dephasing", "json"): {"out": "1d44a1dd622370af71a3e5d54898431958e0ab65ffeed892d0e3200f26973144"},
    ("sweep", "cnot", "bitflip", "csv"): {"out": "6243e9fa5bc5ee42887100ec2e3a26e09d11f777cad1826efc64acf45de5a093"},
    ("sweep", "cnot", "bitflip", "json"): {"out": "51ed67330884853146ceaabbed0193ec7b9fbbdf684f826e29ba57c2e75b3138"},
    ("sweep", "cnot", "amplitude_damping", "csv"): {"out": "7b2a11e098b32436cf1ed4d13cfb3f5c37159f3f4ad338867ea92c016e627d68"},
    ("sweep", "cnot", "amplitude_damping", "json"): {"out": "98d1108b982a434ba5d5705cbccc4f8726df6b6f68db25c2a7e79f3eed1a311f"},
    ("sweep", "cz", "depolarising", "csv"): {"out": "1e5f42e72d67c93af115f22099bd19f7ce179f5d0a42df91a9d587aa6615071c"},
    ("sweep", "cz", "depolarising", "json"): {"out": "b7cf84e5fcc6b67cd5bc464c702f0e6d96fdabbf6e27243ce705ec05bad36ea4"},
    ("sweep", "cz", "dephasing", "csv"): {"out": "ddf2b42772c3aee79fbba7ed4bfe947bdfeaba5215f91c198547f3fbf14546d4"},
    ("sweep", "cz", "dephasing", "json"): {"out": "f68bdfafd609cf2cf8038b44f36c6f7d559919d3beb1246c12c13bbcca2003a8"},
    ("sweep", "cz", "bitflip", "csv"): {"out": "8641d30dc43950ef916ff4978e545670a32db634cc8ca8f7a55ef3ed8c84a4c1"},
    ("sweep", "cz", "bitflip", "json"): {"out": "5a31fe53876ad9f8f1a7303f0a23dad8ab6e9257cfb690c211bed5240623daec"},
    ("sweep", "cz", "amplitude_damping", "csv"): {"out": "dd47b313d645ac2dd5eb5a08475a4c1878ca7ac0fffebca4e832da164b541faf"},
    ("sweep", "cz", "amplitude_damping", "json"): {"out": "5a64baa9f16b5be89b461327c9c26e67544a26f11449ca078306d6f9461c4412"},
}
# SHA-256 of selftest's stdout: one PASS line per check and the verdict, in registry order.
SELFTEST_STDOUT = "ed874e3f4ca6a0c41004b1f86815d081b3c13d8937bef0a29c9ef6dfa3c32ae6"
KEY_FLAGS = {"simulate": ("--noise",), "threshold": ("--noise", "--mode"), "sweep": ("--noise", "--format")}
PINNED_ARGS = {"simulate": ("--q1", "0.3", "--q2", "0.15", "--shots", "5000", "--seed", "11"),
               "sweep": ("--grid", "7")}

# expect at q1 = 0.3, q2 = 0.15: closed form, numeric route, difference and the detected flag.
# Its digits carry LAPACK round-off, so it is pinned by value.
EXPECT_VALUES = {
    ("cnot", "depolarising"): (0.0219296875, 0.0219296875, -3.88578058619e-16, "false"),
    ("cnot", "dephasing"): (0.103, 0.103, 3.33066907388e-16, "false"),
    ("cnot", "bitflip"): (0.103, 0.103, -1.11022302463e-16, "false"),
    ("cnot", "amplitude_damping"): (-0.113155040381, -0.113155040381, 0.0, "true"),
    ("cz", "depolarising"): (0.0219296875, 0.0219296875, -2.22044604925e-16, "false"),
    ("cz", "dephasing"): (0.0904, 0.0904, 5.55111512313e-17, "false"),
    ("cz", "bitflip"): (0.145975, 0.145975, 1.11022302463e-16, "false"),
    ("cz", "amplitude_damping"): (-0.115332331872, -0.115332331872, -4.4408920985e-16, "true"),
}


@pytest.mark.parametrize("key", sorted(OUTPUT_DIGESTS), ids="-".join)
def test_output_digests_are_pinned(capsys, tmp_path, key):
    command, gate, *values = key
    files = {name: tmp_path / f"{name}.json" for name in OUTPUT_DIGESTS[key] if name != "stdout"}
    flags = [arg for name, path in files.items()
             for arg in ("--out" if name == "out" else f"--{name}-out", str(path))]
    key_flags = [arg for pair in zip(KEY_FLAGS.get(command, ()), values) for arg in pair]
    code, out, _ = run(capsys, command, "--gate", gate, *key_flags, *PINNED_ARGS.get(command, ()), *flags)
    assert code == 0
    outputs = {"stdout": out.encode(), **{name: path.read_bytes() for name, path in files.items()}}
    digests = {name: hashlib.sha256(outputs[name]).hexdigest() for name in OUTPUT_DIGESTS[key]}
    assert digests == OUTPUT_DIGESTS[key]


def test_selftest_output_is_pinned(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_STDOUT


@pytest.mark.parametrize("gate,noise", sorted(EXPECT_VALUES))
def test_expect_values_are_pinned(capsys, gate, noise):
    code, out, _ = run(capsys, "expect", "--gate", gate, "--noise", noise, "--q1", "0.3", "--q2", "0.15")
    assert code == 0
    lines = [line.split(" = ") for line in out.splitlines()]
    assert [name.strip() for name, _ in lines] == ["closed_form", "numeric", "difference", "detected"]
    *values, detected = EXPECT_VALUES[gate, noise]
    assert np.max(np.abs([float(v) for _, v in lines[:3]] - np.array(values))) <= 1e-12
    assert lines[3][1] == detected


class TestBetaCommand:
    def test_prints_optimised_value(self, capsys):
        code, out, _ = run(capsys, "beta", "--gate", "cnot", "--restarts", "20", "--seed", "5")
        assert code == 0
        assert out == "beta = 0.500000000000\n"

    def test_rejects_bad_restarts(self, capsys):
        code, _, err = run(capsys, "beta", "--gate", "cnot", "--restarts", "0")
        assert code == 1
        assert "--restarts" in err

    def test_restarts_and_seed_do_not_change_value(self, capsys):
        outs = {run(capsys, "beta", "--gate", "cz", "--restarts", r, "--seed", s)[1]
                for r in ("1", "200") for s in ("0", "9")}
        assert outs == {"beta = 0.500000000000\n"}

    def test_rejects_negative_seed(self, capsys):
        code, _, err = run(capsys, "beta", "--gate", "cz", "--seed", "-1")
        assert code == 1
        assert "--seed" in err


class TestExpectCommand:
    def test_routes_agree(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--gate", "cnot", "--noise", "depolarising",
            "--q1", "0.2", "--q2", "0.1",
        )
        assert code == 0
        lines = out.splitlines()
        closed = float(lines[0].split("=")[1])
        numeric = float(lines[1].split("=")[1])
        assert abs(closed - numeric) < 1e-10

    def test_high_noise_cz_dephasing_detected(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--gate", "cz", "--noise", "dephasing",
            "--q1", "0.9", "--q2", "0.9",
        )
        assert code == 0
        assert "detected    = true" in out
        assert float(out.splitlines()[1].split("=")[1]) < 0

    def test_rejects_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "expect", "--gate", "cnot", "--noise", "dephasing",
            "--q1", "1.5", "--q2", "0.0",
        )
        assert code == 1
        assert "--q1" in err

    def test_route_disagreement_exits_two(self, capsys, monkeypatch):
        import ruwitness.robustness

        monkeypatch.setattr(ruwitness.robustness, "closed_form", lambda *a: 123.0)
        code, _, err = run(
            capsys, "expect", "--gate", "cnot", "--noise", "dephasing",
            "--q1", "0.1", "--q2", "0.1",
        )
        assert code == 2
        assert "disagree" in err


class TestThresholdCommand:
    def test_single_root(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--gate", "cnot", "--noise", "depolarising",
            "--mode", "before",
        )
        assert code == 0
        assert out == "0.390524291751\n"

    def test_two_roots_with_json(self, capsys, tmp_path):
        path = tmp_path / "roots.json"
        code, out, _ = run(
            capsys, "threshold", "--gate", "cz", "--noise", "dephasing",
            "--mode", "equal", "--out", str(path),
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        obj = json.loads(path.read_text())
        assert obj["mode"] == "equal"
        assert len(obj["roots"]) == 2

    def test_unknown_mode(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--gate", "cz", "--noise", "dephasing",
            "--mode", "diagonal",
        )
        assert code == 1
        assert "invalid choice" in err


class TestSweepCommand:
    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--gate", "cnot", "--noise", "dephasing",
            "--grid", "3", "--out", str(path),
        )
        assert code == 0
        assert "wrote 9 rows" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "q1,q2,value,detected"
        assert len(lines) == 10
        assert lines[1].endswith(",true")

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--gate", "cz", "--noise", "bitflip",
            "--grid", "2", "--out", str(path), "--format", "json",
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["gate"] == "cz"
        assert len(obj["rows"]) == 4

    def test_grid_too_small(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--gate", "cz", "--noise", "bitflip",
            "--grid", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "--grid" in err

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 5.96 GiB for an array", "Unable to allocate 5.96 GiB for an array"),
        ("", "out of memory"),
    ])
    def test_grid_too_large_to_hold(self, capsys, monkeypatch, tmp_path, message, shown):
        def sweep(*_):
            raise MemoryError(message)

        monkeypatch.setattr("ruwitness.robustness.sweep", sweep)
        path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sweep", "--gate", "cz", "--noise", "dephasing",
            "--grid", "20000", "--out", str(path),
        )
        assert (code, out, err) == (1, "", f"ruwitness: error: {shown}\n")
        assert not path.exists()


class TestSimulateCommand:
    def test_noiseless_detection(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        code, out, _ = run(
            capsys, "simulate", "--gate", "cnot", "--noise", "depolarising",
            "--q1", "0", "--q2", "0", "--shots", "20000", "--seed", "9",
            "--out", str(path),
        )
        assert code == 0
        assert "estimate  = -0.500000000000" in out
        obj = json.loads(path.read_text())
        assert set(obj) == {"estimate", "std_error", "detected", "shots_per_setting",
                            "seed", "settings"}
        assert obj["detected"] is True
        assert obj["shots_per_setting"] == 20000
        assert obj["seed"] == 9
        assert len(obj["settings"]) == 9

    def test_rejects_bad_shots(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--gate", "cnot", "--noise", "depolarising",
            "--q1", "0", "--q2", "0", "--shots", "0", "--seed", "1",
        )
        assert code == 1
        assert "--shots" in err

    def test_huge_shot_count_is_invalid_input(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--gate", "cz", "--noise", "dephasing",
            "--q1", "0.1", "--q2", "0.1", "--shots", "100000000000000000000", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("ruwitness: error: --shots must be in [1, ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestSelftestCommand:
    REPORT = ["[PASS] passes", "[FAIL] fails: AssertionError('deliberate')"]

    @pytest.fixture
    def one_failing_check(self, monkeypatch):
        def broken():
            raise AssertionError("deliberate")

        monkeypatch.setattr(selftest, "CHECKS", (("passes", lambda: None), ("fails", broken)))

    def test_run_all_reports_each_check(self, one_failing_check):
        lines = []
        assert selftest.run_all(lines.append) == 1
        assert lines == self.REPORT

    def test_failure_exits_two(self, capsys, one_failing_check):
        code, out, err = run(capsys, "selftest")
        assert code == 2
        assert out.splitlines() == self.REPORT
        assert "1 check(s) failed" in err

    def test_failures_survive_optimised_mode(self):
        """Under ``python -O`` a wrong beta still fails its check and the run."""
        script = textwrap.dedent("""
            import sys
            from ruwitness import selftest, witness
            assert False, "assert statements are stripped"
            print("optimize", sys.flags.optimize)
            witness.beta_sru = lambda u, *args, **kwargs: 0.4
            try:
                selftest.check_beta_invariants()
            except AssertionError:
                print("check raised")
            selftest.CHECKS = tuple(c for c in selftest.CHECKS if c[1] is selftest.check_beta_invariants)
            print("failures", selftest.run_all())
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout.splitlines()
        assert out[:2] == ["optimize 1", "check raised"]
        assert out[2].startswith("[FAIL] exact beta invariants: AssertionError(")
        assert out[3] == "failures 1"


class TestUnwritableOutput:
    """An output path in a missing directory is invalid input: exit 1, no traceback."""

    @pytest.mark.parametrize("argv,flag", [
        (("sweep", "--gate", "cz", "--noise", "bitflip", "--grid", "2"), "--out"),
        (("sweep", "--gate", "cz", "--noise", "bitflip", "--grid", "2", "--format", "json"), "--out"),
        (("threshold", "--gate", "cnot", "--noise", "dephasing", "--mode", "before"), "--out"),
        (("simulate", "--gate", "cnot", "--noise", "depolarising", "--q1", "0", "--q2", "0",
          "--shots", "10", "--seed", "1"), "--out"),
        (("witness", "--gate", "cnot"), "--decomposition-out"),
    ], ids=["sweep-csv", "sweep-json", "threshold", "simulate", "witness"])
    def test_exits_one_with_message(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "missing_dir" / "out.txt"
        code, _, err = run(capsys, *argv, flag, str(path))
        assert code == 1
        assert err.startswith("ruwitness: error: ") and str(path) in err
        assert "Traceback" not in err
        assert not path.parent.exists()


class TestParsing:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "witness", "--gate", "cnot", "--frobnicate")
        assert code == 1
        assert "error" in err

    def test_unknown_gate_choice(self, capsys):
        code, _, err = run(capsys, "witness", "--gate", "swap")
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--gate", "cnot", "--noise", "amplitude_damping", "--grid", "4"),
        ("threshold", "--gate", "cz", "--noise", "bitflip", "--mode", "equal"),
        ("sweep", "--gate", "cnot", "--noise", "dephasing", "--grid", "21"),
        ("sweep", "--gate", "cz", "--noise", "amplitude_damping", "--grid", "11",
         "--format", "json"),
        ("threshold", "--gate", "cz", "--noise", "dephasing", "--mode", "equal"),
        ("simulate", "--gate", "cnot", "--noise", "depolarising", "--q1", "0.1",
         "--q2", "0.05", "--shots", "20000", "--seed", "77"),
    ],
)
def test_output_files_are_byte_identical_across_runs(capsys, tmp_path, argv):
    paths = []
    for run_index in (1, 2):
        path = tmp_path / f"out{run_index}"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize(
    "argv,flags",
    [
        (("witness", "--gate", "cnot"), ("--decomposition-out", "--settings-out")),
        (("threshold", "--gate", "cz", "--noise", "dephasing", "--mode", "equal"), ("--out",)),
        (("sweep", "--gate", "cz", "--noise", "amplitude_damping", "--grid", "5",
          "--format", "json"), ("--out",)),
        (("simulate", "--gate", "cnot", "--noise", "depolarising", "--q1", "0.1",
          "--q2", "0.05", "--shots", "2000", "--seed", "3"), ("--out",)),
    ],
)
def test_json_files_have_the_stdlib_layout(capsys, tmp_path, argv, flags):
    """Sorted keys, two-space indent, trailing newline: stdlib json.dumps exactly."""
    paths = [tmp_path / f"out{i}.json" for i in range(len(flags))]
    outs = [arg for flag, path in zip(flags, paths) for arg in (flag, str(path))]
    code, _, _ = run(capsys, *argv, *outs)
    assert code == 0
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_pipeline_builds_no_four_qubit_pauli_basis():
    """The Pauli split and the shot estimator read components, never the 256-string stack."""
    script = textwrap.dedent("""
        from ruwitness import cli
        from ruwitness.linalg import pauli_basis
        codes = [cli.main(["witness", "--gate", "cz"]),
                 cli.main(["simulate", "--gate", "cnot", "--noise", "amplitude_damping",
                           "--q1", "0.3", "--q2", "0.15", "--shots", "5000", "--seed", "11"])]
        misses = pauli_basis.cache_info().misses
        pauli_basis(4)
        print("codes", codes, "new misses", pauli_basis.cache_info().misses - misses)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-1] == "codes [0, 0] new misses 1"
