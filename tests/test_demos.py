"""Every demo script, and the README's Python quick start, runs to completion
(exit 0) from a fresh directory, so the CSVs some of them write land in a
temporary directory.

Each demo's output is also pinned: ``demo_hashes.json`` holds, per demo, the
sha256 of its stdout and of every file it writes.  The hashes were computed
by the code of the commit before the dyadic histogram became one integer
table, not by the code under test; never regenerate them from the code under
test.  ``python tests/test_demos.py`` prints the hashes of the ``src/`` next
to it as JSON.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))
HASHES_PATH = Path(__file__).with_name("demo_hashes.json")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def demo_hashes(demo: Path, cwd: Path) -> dict:
    """Run a demo in the empty directory cwd; the sha256 of its stdout and
    of every file it writes there, by file name."""
    proc = _run([str(demo)], cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {"stdout": _sha256(proc.stdout.encode()),
            "files": {path.name: _sha256(path.read_bytes())
                      for path in sorted(cwd.iterdir())}}


def test_frozen_ids_match_the_demos():
    hashes = json.loads(HASHES_PATH.read_text())
    assert sorted(hashes) == [p.name for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    hashes = json.loads(HASHES_PATH.read_text())
    assert demo_hashes(demo, tmp_path) == hashes[demo.name]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


if __name__ == "__main__":
    out = {}
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            out[demo.name] = demo_hashes(demo, Path(tmp))
    print(json.dumps(out, indent=2, sort_keys=True))
