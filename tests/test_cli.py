import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


# SHA-256 of each output of witness and beta: any change to these bytes is a change of format.
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
}


@pytest.mark.parametrize("command,gate", sorted(OUTPUT_DIGESTS))
def test_output_digests_are_pinned(capsys, tmp_path, command, gate):
    files = {name: tmp_path / f"{name}.json" for name in OUTPUT_DIGESTS[command, gate] if name != "stdout"}
    flags = [arg for name, path in files.items() for arg in (f"--{name}-out", str(path))]
    code, out, _ = run(capsys, command, "--gate", gate, *flags)
    assert code == 0
    outputs = {"stdout": out.encode(), **{name: path.read_bytes() for name, path in files.items()}}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == OUTPUT_DIGESTS[command, gate]


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
