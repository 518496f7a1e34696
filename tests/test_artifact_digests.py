"""Byte identity across commits: a small seeded pipeline must write the
artifacts whose sha256 ``artifact_digests.json`` records.

The pipeline (``digest_pipeline.py``) runs in a subprocess with the BLAS
thread variables removed, so it checks the package's own one-thread
default.  A change that alters outputs on purpose regenerates the list
with the command in that script's docstring.  The list also records the
build that made it (numpy, the BLAS name and version, the BLAS thread
variables and the machine), and a failure names that build and this
run's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from squadlab import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "digest_pipeline.py"


def test_pipeline_artifacts_match_committed_digests():
    want = json.loads((HERE / "artifact_digests.json").read_text())
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    got = run["digests"]
    changed = sorted(name for name in want["digests"].keys() | got.keys()
                     if want["digests"].get(name) != got.get(name))
    assert not changed, (
        f"{len(changed)} artifacts differ from the committed digests: "
        f"{changed}. The list was made with {_build(want)}; this run has "
        f"{_build(run)}. If the change is meant, regenerate the list as "
        f"{SCRIPT.name}'s docstring says.")


def _build(snapshot) -> str:
    """What a digest list records of the build that made it."""
    blas = snapshot["blas"]
    return (f"numpy {snapshot['numpy']}, BLAS {blas['name']} "
            f"{blas['version']} and thread variables "
            f"{snapshot['blas_threads']} on {snapshot['machine']}")
