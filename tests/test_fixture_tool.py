"""The replay fixture generator reproduces the committed fixture exactly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "replay"


def test_make_replay_fixture_regenerates_the_committed_files(tmp_path):
    out = tmp_path / "replay"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_replay_fixture.py"), str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    committed = sorted(path.name for path in FIXTURE.iterdir())
    assert sorted(path.name for path in out.iterdir()) == committed
    for name in committed:
        assert (out / name).read_bytes() == (FIXTURE / name).read_bytes(), name
