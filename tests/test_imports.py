import os
import subprocess
import sys
from pathlib import Path

import ruwitness


def test_import_loads_no_scipy():
    """The library runs on numpy alone; scipy serves only the test oracles."""
    env = dict(os.environ, PYTHONPATH=str(Path(ruwitness.__file__).parents[1]))
    code = "import sys, ruwitness; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
