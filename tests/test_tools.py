import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ab_inprocess_runs_one_checkout_against_itself():
    # a few requests and one pass: the probe loads the tree twice under two
    # names, times both and finds the same output digests
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT),
         "--passes", "1", "--requests", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "passes 1, requests 4, change over base"
    for line, name in zip(lines[1:4], ("corpus pass", "median request", "gf2 d3 census")):
        assert line.startswith(name)
        ratio = float(line[len(name):].split()[0])
        assert ratio > 0
    assert lines[4] == "outputs identical"
