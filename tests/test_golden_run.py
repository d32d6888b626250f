"""The hermetic golden run's output, byte for byte.

``tests/data/golden-run/`` holds what ``penheal run --mode hermetic --target
10.0.2.4`` writes: ``run-artifact.json`` (its ``created_at`` and
``transcript_ref`` blanked, since they name the time and the install path),
``history.jsonl``, ``report.txt`` and the command's stdout. After a change that
is meant to alter them, regenerate the files with

    python tests/test_golden_run.py

To check them under other interpreters, such as the oldest one ``pyproject.toml``
allows, without pytest and without rewriting anything, run

    python tests/test_golden_run.py --under PYTHON [PYTHON ...]

which prints one line per interpreter and exits 1 if any of them writes other bytes.
"""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden-run"
SRC = Path(__file__).resolve().parent.parent / "src"
ARGS = ["run", "--mode", "hermetic", "--target", "10.0.2.4", "--out"]
_UNSTABLE = re.compile(rb'"(created_at|transcript_ref)": "[^"]*"')


def golden_outputs(out_dir: Path) -> dict[str, bytes]:
    """Run the golden command into ``out_dir``; its output files by golden file name."""
    from penheal.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(ARGS + [str(out_dir)])
    assert code == 0
    return written_outputs(out_dir, stdout.getvalue().encode("utf-8"))


def written_outputs(out_dir: Path, stdout: bytes) -> dict[str, bytes]:
    """The golden command's files in ``out_dir``, and its ``stdout``, by golden file name."""
    return {
        "run-artifact.json": _UNSTABLE.sub(rb'"\1": ""',
                                           (out_dir / "run-artifact.json").read_bytes()),
        "history.jsonl": (out_dir / "history.jsonl").read_bytes(),
        "report.txt": (out_dir / "report.txt").read_bytes(),
        "stdout.txt": stdout,
    }


def check_under(pythons: list[str]) -> int:
    """Run the golden command under each interpreter in a new directory and compare what it
    writes with the golden files; one line per interpreter, and 1 if any differs."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    failed = 0
    for python in pythons:
        same = False
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            try:
                result = subprocess.run([python, "-m", "penheal.cli", *ARGS, str(out_dir)],
                                        capture_output=True, env=env, cwd=tmp, timeout=300)
            except (OSError, subprocess.TimeoutExpired) as exc:
                verdict = f"cannot run: {exc}"
            else:
                if result.returncode != 0:
                    last = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
                    verdict = f"exit {result.returncode}: {''.join(last)}"
                else:
                    outputs = written_outputs(out_dir, result.stdout)
                    differ = [name for name, data in outputs.items()
                              if data != (GOLDEN_DIR / name).read_bytes()]
                    same = not differ
                    verdict = (f"differs in {', '.join(differ)}" if differ
                               else f"{len(outputs)} files byte-identical")
        failed += not same
        print(f"{python}: {verdict}")
    return 1 if failed else 0


def test_golden_run_bytes(tmp_path, no_network):
    outputs = golden_outputs(tmp_path / "out")
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden run's files, or check "
                                                 "them under other interpreters.")
    parser.add_argument("--under", nargs="+", metavar="PYTHON",
                        help="run the golden command under each interpreter and compare")
    under = parser.parse_args().under
    if under:
        sys.exit(check_under(under))
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, data in golden_outputs(Path(tmp) / "out").items():
            (GOLDEN_DIR / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")
