"""Smoke tests for the experiment scripts in ``scripts/``."""

import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import ruwitness
from ruwitness.cli import main as cli_main
from ruwitness.robustness import (
    GATE_NAMES,
    NOISE_KINDS,
    THRESHOLD_MODES,
    sweep,
    threshold,
    threshold_json_obj,
    write_sweep_csv,
)
from ruwitness.serialize import dumps

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def run_script(monkeypatch, capsys):
    def run(name, *args):
        main = runpy.run_path(str(SCRIPTS / name))["main"]
        monkeypatch.setattr(sys, "argv", [name, *args])
        code = main()
        capsys.readouterr()
        return code

    return run


def test_threshold_table_json_matches_library(run_script, tmp_path):
    path = tmp_path / "roots.json"
    assert run_script("threshold_table.py", "--json", str(path)) == 0
    slices = [(g, k, m) for g in GATE_NAMES for k in NOISE_KINDS for m in THRESHOLD_MODES]
    records = [threshold_json_obj(g, k, m, threshold(g, k, m)) for g, k, m in slices]  # all 24
    assert path.read_text() == dumps(records)


@pytest.mark.parametrize("gate,kind,mode", [
    ("CNOT", "depolarising", "before_only"),
    ("CZ", "dephasing", "equal"),
    ("CNOT", "amplitude_damping", "after_only"),
])
def test_threshold_table_json_records_are_cli_outputs(run_script, capsys, tmp_path, gate, kind, mode):
    """Each record is the object ``ruwitness threshold --out`` writes for its slice."""
    path = tmp_path / "roots.json"
    assert run_script("threshold_table.py", "--json", str(path)) == 0
    (record,) = [r for r in json.loads(path.read_text())
                 if (r["gate"], r["noise"], r["mode"]) == (gate.lower(), kind, mode)]
    out = tmp_path / "cli.json"
    cli_mode = mode.removesuffix("_only")
    assert cli_main(["threshold", "--gate", gate.lower(), "--noise", kind, "--mode", cli_mode,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert dumps(record) == out.read_text()


def test_threshold_table_runs_without_numpy(tmp_path):
    """With numpy unimportable the script prints and writes the bytes of an ordinary run."""
    outputs = []
    for blocked in (True, False):
        path = tmp_path / f"roots-{blocked}.json"
        code = (
            "import runpy, sys\n"
            + ("sys.modules['numpy'] = None\n" if blocked else "")
            + f"sys.argv = ['threshold_table.py', '--json', {str(path)!r}]\n"
            f"runpy.run_path({str(SCRIPTS / 'threshold_table.py')!r}, run_name='__main__')"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outputs.append((done.stdout.replace(str(path), "OUT"), path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_detection_regions_writes_library_csvs(run_script, tmp_path):
    assert run_script("detection_regions.py", "--grid", "3", "--out-dir", str(tmp_path)) == 0
    assert len(list(tmp_path.iterdir())) == 8
    for gate in GATE_NAMES:
        for kind in NOISE_KINDS:
            buf = io.StringIO()
            write_sweep_csv(sweep(gate, kind, 3), buf)
            written = (tmp_path / f"{gate.lower()}_{kind}.csv").read_bytes()
            assert written == buf.getvalue().encode()


def test_shot_convergence_runs(run_script):
    assert run_script("shot_convergence.py") == 0


def _results_file(path, seed, p50, machine="vm"):
    """A minimal ``perfbench/results`` file of one ``--trace 0`` shot_experiment run."""
    path.write_text(json.dumps({
        "workload": "shot_experiment", "seed": seed, "trace": 0, "seconds": 8.0, "machine": {"host": machine},
        "digest": f"digest-{seed}", "result": {"correct": True, "attempted": 100, "failed": 0, "metrics": {
            "item_ms_p50": {"value": p50, "unit": "ms"}, "peak_rss_mb": {"value": 45.0, "unit": "MB"}}}}))
    return str(path)


def test_bench_record_merges_results_files(run_script, tmp_path):
    files = [_results_file(tmp_path / "a.json", 2, 3.0), _results_file(tmp_path / "b.json", 1, 1.0)]
    out = tmp_path / "bench.json"
    assert run_script("bench_record.py", "--out", str(out), *files) == 0
    bench = json.loads(out.read_text())
    assert bench["machine"] == {"host": "vm"} and len(bench["commit"]["src_sha256"]) == 64
    (entry,) = bench["workloads"].values()
    assert entry["end_to_end"] == {
        "item_ms_p50": {"unit": "ms", "n": 2, "median": 2.0, "q1": 1.5, "q3": 2.5, "values": [1.0, 3.0]},
        "peak_rss_mb": {"unit": "MB", "n": 2, "median": 45.0, "q1": 45.0, "q3": 45.0, "values": [45.0, 45.0]}}
    assert [run["seed"] for run in entry["runs"]] == [1, 2] and entry["runs"][0]["digest"] == "digest-1"
    assert out.read_text() == dumps(bench)


def test_bench_record_refuses_results_of_two_machines(monkeypatch, capsys, tmp_path):
    files = [_results_file(tmp_path / "a.json", 1, 1.0), _results_file(tmp_path / "b.json", 2, 1.0, "other")]
    main = runpy.run_path(str(SCRIPTS / "bench_record.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--out", str(tmp_path / "bench.json"), *files])
    assert main() == 1
    assert capsys.readouterr().err == "bench_record.py: error: the results files come from different machines\n"
    assert not (tmp_path / "bench.json").exists()


def test_pin_table_reproduces_the_committed_pins(capsys):
    import test_cli

    script = runpy.run_path(str(SCRIPTS / "pin_table.py"))
    assert (script["KEY_FLAGS"], script["PINNED_ARGS"]) == (test_cli.KEY_FLAGS, test_cli.PINNED_ARGS)
    assert script["main"]() == 0
    pins = {}
    exec(capsys.readouterr().out, pins)
    assert pins["OUTPUT_DIGESTS"] == test_cli.OUTPUT_DIGESTS
    assert list(pins["OUTPUT_DIGESTS"]) == list(test_cli.OUTPUT_DIGESTS)
    assert pins["SELFTEST_STDOUT"] == test_cli.SELFTEST_STDOUT
    # expect's digits carry round-off, so they are compared as its pin test compares them
    assert list(pins["EXPECT_VALUES"]) == list(test_cli.EXPECT_VALUES)
    for key, (*values, detected) in pins["EXPECT_VALUES"].items():
        *pinned, pinned_detected = test_cli.EXPECT_VALUES[key]
        assert max(abs(a - b) for a, b in zip(values, pinned)) <= 1e-12 and detected == pinned_detected, key


@pytest.mark.parametrize("name,args", [
    ("shot_convergence.py", ["--noise", "bogus"]),
    ("shot_convergence.py", ["--q1", "2"]),
    ("shot_convergence.py", ["--q2", "nan"]),
    ("shot_convergence.py", ["--seed", "-1"]),
    ("detection_regions.py", ["--grid", "1", "--out-dir", "{tmp}"]),
])
def test_bad_input_is_a_usage_error(monkeypatch, capsys, tmp_path, name, args):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *(arg.format(tmp=tmp_path) for arg in args)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{name}: error: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,args", [
    ("detection_regions.py", ["--grid", "2", "--out-dir", "{blocker}/sweeps"]),
    ("threshold_table.py", ["--json", "{blocker}/roots.json"]),
])
def test_unwritable_output_is_one_error_line(monkeypatch, capsys, tmp_path, name, args):
    """An output path under a regular file ends in one error line on stderr and exit 1."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *(arg.format(blocker=blocker) for arg in args)])
    assert main() == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: error: ") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [blocker]


_PIPED = {
    "selftest": ["-m", "ruwitness", "selftest"],
    "threshold_table": [str(SCRIPTS / "threshold_table.py")],
    "shot_convergence": [str(SCRIPTS / "shot_convergence.py")],
}


def _piped_env(unbuffered: str) -> dict:
    # an empty PYTHONUNBUFFERED counts as unset: stdout is block-buffered
    return dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]), PYTHONUNBUFFERED=unbuffered)


@pytest.mark.parametrize("command", sorted(_PIPED))
def test_reader_closing_after_one_line_is_not_an_error(command):
    """``command | head -1``: no traceback and no error line once the reader has gone."""
    proc = subprocess.Popen([sys.executable, *_PIPED[command]], env=_piped_env("1"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=120)
        proc.stderr.close()
    assert first.strip()
    assert "Traceback" not in err and "error:" not in err
    assert proc.returncode in (0, 1)


@pytest.mark.parametrize("command", sorted(_PIPED))
def test_reader_gone_before_the_first_write_exits_1_quietly(command):
    """With the pipe's reader closed before any output, every write fails: exit 1, nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, *_PIPED[command]], env=_piped_env(""),
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
