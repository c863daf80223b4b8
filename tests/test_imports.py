import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruwitness
from ruwitness.cli import main as cli_main
from ruwitness.thresholds import GATE_NAMES, NOISE_KINDS


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


# The public API.  A name added here or removed from here is a deliberate API change.
PUBLIC_NAMES = [
    "DEFAULT_TOL", "GATE_NAMES", "NOISE_KINDS", "PAULIS",
    "EstimateResult", "KrausChannel", "NoiseSpec", "PauliDecomposition",
    "ShotPlan", "SweepRow", "Witness",
    "all_pauli_strings", "amplitude_damping", "beta_sru", "bit_flip",
    "build_witness", "closed_form", "cover_exists", "dephasing",
    "depolarising", "estimate_expectation", "estimate_expectation_exact", "expectation",
    "gate_matrix", "haar_unitary",
    "minimal_settings", "noisy_gate", "numeric_expectation", "gate_witness",
    "pauli_channel", "pauli_decompose", "sample_sru", "sweep",
    "threshold", "unitary_channel", "validate_cpt",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 36
    assert ruwitness.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(ruwitness, name)] == []


def test_import_loads_no_scipy():
    """The library runs on numpy alone; scipy serves only the test oracles."""
    code = (
        "import importlib, pkgutil, sys, ruwitness\n"
        "from ruwitness import *\n"
        "for info in pkgutil.iter_modules(ruwitness.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module(f'ruwitness.{info.name}')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'ruwitness.selftest' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "[] True"


@pytest.mark.parametrize("module,unloaded", [
    ("ruwitness.thresholds", "m.split('.')[0] in ('scipy', 'sympy', 'numpy')"),
    ("ruwitness.robustness", "m.split('.')[0] in ('scipy', 'sympy') or m.startswith('numpy.polynomial')"),
])
def test_thresholds_load_no_scipy_or_sympy(module, unloaded):
    """Exact thresholds need only Python integers: no scipy, sympy or numpy.polynomial,
    and no numpy at all from the threshold module itself."""
    code = (
        "import sys, ruwitness\n"
        f"from {module} import GATE_NAMES, NOISE_KINDS, THRESHOLD_MODES, threshold\n"
        "for gate in GATE_NAMES:\n"
        "    for kind in NOISE_KINDS:\n"
        "        for mode in THRESHOLD_MODES:\n"
        "            threshold(gate, kind, mode)\n"
        f"print(sorted(m for m in sys.modules if {unloaded}))"
    )
    assert _fresh_interpreter(code) == "[]"


def test_import_loads_no_submodule_and_no_numpy():
    code = "import sys, ruwitness; print(sorted(m for m in sys.modules if m.split('.')[0] in ('ruwitness', 'numpy')))"
    assert _fresh_interpreter(code) == "['ruwitness']"


def test_cover_names_load_no_numpy():
    """The decomposition type and the set cover resolve from the numpy-free cover module."""
    code = (
        "import sys\n"
        "from ruwitness import PauliDecomposition, cover_exists, minimal_settings\n"
        "from ruwitness.cover import GATE_DECOMPOSITIONS\n"
        "d = GATE_DECOMPOSITIONS['CZ']\n"
        "print(isinstance(d, PauliDecomposition), len(minimal_settings(d)), cover_exists(d, 8),\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _fresh_interpreter(code) == "True 9 False []"


def test_dir_lists_every_public_name_and_resolved_names_stay_bound():
    code = (
        "import sys, ruwitness\n"
        "print(sorted(set(ruwitness.__all__) - set(dir(ruwitness))), 'numpy' in sys.modules)\n"
        "print('closed_form' in vars(ruwitness), ruwitness.closed_form is ruwitness.robustness.closed_form,\n"
        "      'closed_form' in vars(ruwitness))"
    )
    assert _fresh_interpreter(code).splitlines() == ["[] False", "False True True"]


def test_star_import_binds_exactly_all():
    code = (
        "import ruwitness\n"
        "names = {}\n"
        "exec('from ruwitness import *', names)\n"
        "del names['__builtins__']\n"
        "print(sorted(names) == sorted(ruwitness.__all__), len(names),\n"
        "      all(value is getattr(ruwitness, name) for name, value in names.items()))"
    )
    assert _fresh_interpreter(code) == "True 36 True"


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import sys, ruwitness\n"
        "try:\n"
        "    ruwitness.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(sorted(m for m in sys.modules if m.startswith('ruwitness')))"
    )
    assert _fresh_interpreter(code).splitlines() == [
        "module 'ruwitness' has no attribute 'no_such_name'", "['ruwitness']"]


def test_submodules_resolve_as_attributes():
    """``import ruwitness`` still reaches the submodules it bound when it imported them eagerly."""
    code = (
        "import ruwitness\n"
        "print(ruwitness.robustness.sweep_json_obj is not None, ruwitness.serialize.dumps is not None,\n"
        "      ruwitness.thresholds.threshold is ruwitness.threshold)"
    )
    assert _fresh_interpreter(code) == "True True True"


@pytest.mark.parametrize("argv,unloaded", [
    (["witness", "--gate", "cz"], ["ruwitness.protocol", "ruwitness.robustness", "numpy"]),
    (["beta", "--gate", "cnot"], ["ruwitness.protocol", "ruwitness.robustness", "numpy"]),
    (["sweep", "--gate", "cz", "--noise", "bitflip", "--grid", "3", "--out", "{tmp}/sweep.csv"],
     ["ruwitness.protocol"]),
], ids=["witness", "beta", "sweep"])
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, unloaded):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        "import sys\n"
        "from ruwitness.cli import main\n"
        f"status = main({argv!r})\n"
        f"print(status, [m for m in {unloaded!r} if m in sys.modules])"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "0 []"


def test_threshold_output_without_numpy(tmp_path, capsys):
    """All 24 slices with numpy unimportable print and write the bytes of an ordinary run."""
    slices = [(g.lower(), k, m) for g in GATE_NAMES for k in NOISE_KINDS for m in ("before", "after", "equal")]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ruwitness.cli import main\n"
        "outs = []\n"
        f"for i, (gate, kind, mode) in enumerate({slices!r}):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        status = main(['threshold', '--gate', gate, '--noise', kind, '--mode', mode,\n"
        f"                       '--out', f'{tmp_path}/blocked-{{i}}.json'])\n"
        "    outs.append([status, buf.getvalue()])\n"
        "print(json.dumps(outs))"
    )
    blocked = json.loads(_fresh_interpreter(code))
    assert len(blocked) == 24
    for i, ((gate, kind, mode), (status, stdout)) in enumerate(zip(slices, blocked)):
        path = tmp_path / f"ordinary-{i}.json"
        assert cli_main(["threshold", "--gate", gate, "--noise", kind, "--mode", mode, "--out", str(path)]) == 0
        assert (status, stdout) == (0, capsys.readouterr().out), (gate, kind, mode)
        assert (tmp_path / f"blocked-{i}.json").read_bytes() == path.read_bytes(), (gate, kind, mode)


def test_witness_and_beta_output_without_numpy(tmp_path, capsys):
    """With numpy unimportable, witness and beta print and write the bytes of an ordinary run."""
    runs = [[command, "--gate", gate, *extra] for gate in ("cnot", "cz") for command, extra in (
        ("witness", ["--decomposition-out", "{tmp}/{kind}-{i}.decomposition.json",
                     "--settings-out", "{tmp}/{kind}-{i}.settings.json"]),
        ("beta", []),
        ("beta", ["--restarts", "20", "--seed", "5"]),
    )]

    def argv(i, kind):
        return [arg.format(tmp=tmp_path, kind=kind, i=i) for arg in runs[i]]

    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ruwitness.cli import main\n"
        "outs = []\n"
        f"for argv in {[argv(i, 'blocked') for i in range(len(runs))]!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        status = main(argv)\n"
        "    outs.append([status, buf.getvalue()])\n"
        "print(json.dumps(outs))"
    )
    blocked = json.loads(_fresh_interpreter(code))
    assert len(blocked) == 6
    for i, (status, stdout) in enumerate(blocked):
        assert cli_main(argv(i, "ordinary")) == 0
        assert (status, stdout) == (0, capsys.readouterr().out), runs[i]
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 8
    for name in files:
        if name.startswith("blocked"):
            ordinary = tmp_path / name.replace("blocked", "ordinary")
            assert (tmp_path / name).read_bytes() == ordinary.read_bytes(), name


def test_closed_forms_build_no_channel():
    """Thresholds and sweeps read the gate PTM from its formula, never a KrausChannel."""
    code = (
        "from ruwitness.channels import KrausChannel\n"
        "def refuse(self):\n"
        "    raise AssertionError('a KrausChannel was built')\n"
        "KrausChannel.__post_init__ = refuse\n"
        "from ruwitness.robustness import GATE_NAMES, NOISE_KINDS, THRESHOLD_MODES, sweep, threshold\n"
        "for gate in GATE_NAMES:\n"
        "    for kind in NOISE_KINDS:\n"
        "        for mode in THRESHOLD_MODES:\n"
        "            threshold(gate, kind, mode)\n"
        "        sweep(gate, kind, 3)\n"
        "print('no channel')"
    )
    assert _fresh_interpreter(code) == "no channel"
