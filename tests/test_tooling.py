"""End-to-end runs of the project's tooling: the pytest configuration under a
failing property test, and the example scripts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # reporting a failing example makes hypothesis import libcst, whose import
    # warns; under the project's warning filters that must not end the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_rate_study_script_reproduces_the_three_rates(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_rate_study.py"), "--n", "401",
         "--out", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=300,
    )
    with (tmp_path / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case"] for r in rows] == ["interaction", "weak_source", "strong_source"]
    for r in rows:
        assert float(r["relative_error"]) < 0.05, r
