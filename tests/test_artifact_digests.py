"""Byte identity across commits: a small seeded pipeline must write the
artifacts whose sha256 ``artifact_digests.json`` records.

The pipeline (``digest_pipeline.py``) runs in a subprocess with one BLAS
thread, as the benchmark does.  A change that alters outputs on purpose
regenerates the list with the command in that script's docstring.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "digest_pipeline.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_pipeline_artifacts_match_committed_digests():
    want = json.loads((HERE / "artifact_digests.json").read_text())
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["digests"]
    changed = sorted(name for name in want["digests"].keys() | got.keys()
                     if want["digests"].get(name) != got.get(name))
    assert not changed, (
        f"{len(changed)} artifacts differ from the committed digests: "
        f"{changed}. The list was made with numpy {want['numpy']} on "
        f"{want['machine']}; this run has numpy {np.__version__} on "
        f"{platform.machine()}. If the change is meant, regenerate the "
        f"list as {SCRIPT.name}'s docstring says.")
