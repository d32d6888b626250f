"""The hermetic golden run's output, byte for byte.

``tests/data/golden-run/`` holds what ``penheal run --mode hermetic --target
10.0.2.4`` writes: ``run-artifact.json`` (its ``created_at`` and
``transcript_ref`` blanked, since they name the time and the install path),
``history.jsonl``, ``report.txt`` and the command's stdout. After a change that
is meant to alter them, regenerate the files with

    python tests/test_golden_run.py
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden-run"
ARGS = ["run", "--mode", "hermetic", "--target", "10.0.2.4", "--out"]
_UNSTABLE = re.compile(rb'"(created_at|transcript_ref)": "[^"]*"')


def golden_outputs(out_dir: Path) -> dict[str, bytes]:
    """Run the golden command into ``out_dir``; its output files by golden file name."""
    from penheal.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(ARGS + [str(out_dir)])
    assert code == 0
    return {
        "run-artifact.json": _UNSTABLE.sub(rb'"\1": ""',
                                           (out_dir / "run-artifact.json").read_bytes()),
        "history.jsonl": (out_dir / "history.jsonl").read_bytes(),
        "report.txt": (out_dir / "report.txt").read_bytes(),
        "stdout.txt": stdout.getvalue().encode("utf-8"),
    }


def test_golden_run_bytes(tmp_path, no_network):
    outputs = golden_outputs(tmp_path / "out")
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, data in golden_outputs(Path(tmp) / "out").items():
            (GOLDEN_DIR / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")
