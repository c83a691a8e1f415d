"""Every demo script runs to completion against the package's public API.

The demos are copied first, without their out/ directory, because
plot_gallery.py writes its SVG files next to itself; those files must
match the checked-in ones.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demos / script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if script == "plot_gallery.py":
        # the gallery writes the checked-in SVG files again, byte for byte
        checked_in = sorted((ROOT / "demos" / "out").glob("*.svg"))
        assert [p.name for p in checked_in] == ["phi.svg", "root2.svg", "root7.svg"]
        for svg in checked_in:
            assert (demos / "out" / svg.name).read_bytes() == svg.read_bytes()
