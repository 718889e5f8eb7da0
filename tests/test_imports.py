"""Import-time tests: the package and its exact modules stay numpy-free."""

import os
import subprocess
import sys
from pathlib import Path

import crnmss


def test_exact_modules_do_not_load_numpy():
    src = str(Path(crnmss.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\n"
        "import crnmss, crnmss.decide\n"
        "from crnmss import network, embedding, structure, lp, families, linalg, massaction\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
