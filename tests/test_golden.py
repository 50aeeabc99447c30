"""Golden-stdout corpus: every CLI command on fixed inputs, byte for byte.

Each case runs `detnum` in-process on the inputs in `tests/golden/inputs`
and writes any output files under a scratch directory. Its exit code,
stdout and every written file must equal what `tests/golden/expected/<case>`
holds. The expected files are committed data; this module never rewrites
them, so a change to any printed or written byte fails here until the
corpus is deliberately regenerated and reviewed as part of the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from detnum.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

# "{in}" is the inputs directory, "{out}" the per-case scratch directory
CASES = {
    "loss-compare": ["loss-compare", "--pairs", "{in}/pairs.txt"],
    "match-csv": ["match", "--preds", "{in}/preds.txt", "--gts", "{in}/gts.txt"],
    "match-json": ["match", "--preds", "{in}/preds.txt", "--gts", "{in}/gts.txt",
                   "--format", "json"],
    "match-siou": ["match", "--preds", "{in}/preds.txt", "--gts", "{in}/gts.txt",
                   "--cost", "siou"],
    "match-eps-0.005": ["match", "--preds", "{in}/preds.txt", "--gts", "{in}/gts.txt",
                        "--epsilon", "0.005"],
    "match-eps-1e-12": ["match", "--preds", "{in}/preds.txt", "--gts", "{in}/gts.txt",
                        "--epsilon", "1e-12"],
    "match-verify-5": ["match-verify", "--random", "5"],
    "match-verify-3x2": ["match-verify", "--random", "3:2"],
    "match-verify-9x8": ["match-verify", "--random", "9:8"],
    "match-verify-2x4": ["match-verify", "--random", "2:4"],
    "match-verify-12x3": ["match-verify", "--random", "12:3"],
    "eval-csv": ["eval", "--dets", "{in}/dets.txt", "--gts", "{in}/gt.txt"],
    "eval-json": ["eval", "--dets", "{in}/dets.txt", "--gts", "{in}/gt.txt",
                  "--format", "json"],
    "eval-11point": ["eval", "--dets", "{in}/dets.txt", "--gts", "{in}/gt.txt",
                     "--method", "11point"],
    "sweep-brightness": ["sweep", "--range", "40:200:40", "--fine-step", "20",
                         "--profile", "60:100:160", "--out-dir", "{out}/frames"],
    "sweep-noise": ["sweep", "--mode", "noise", "--image", "{in}/frame.pgm",
                    "--range", "0:0.04:0.01", "--fine-step", "0.005",
                    "--outcomes", "{in}/outcomes.txt"],
    "sweep-noise-mean": ["sweep", "--mode", "noise", "--noise-axis", "mean",
                         "--image", "{in}/frame.pgm", "--range", "0:0.2:0.05",
                         "--fine-step", "0.025", "--profile=-1:0.05:0.1",
                         "--out-dir", "{out}/frames"],
    "sweep-noise-var": ["sweep", "--mode", "noise", "--noise-axis", "var",
                        "--image", "{in}/frame.pgm", "--range", "0:0.02:0.005",
                        "--fine-step", "0.0025", "--profile=-1:0:0.005",
                        "--format", "json"],
    "sweep-json": ["sweep", "--image", "{in}/frame.pgm", "--range", "20:120:50",
                   "--profile", "30:60:100", "--format", "json"],
    "fuse-check": ["fuse-check", "--trials", "20"],
    "fuse-check-block": ["fuse-check", "--block", "--trials", "5"],
    "gradcheck": ["gradcheck", "--trials", "40"],
    "attn-demo": ["attn-demo", "--out", "{out}/attn.ntb"],
}


def run_case(name: str, out_dir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stdout bytes and {relative path: bytes} of written files."""
    argv = [a.replace("{in}", str(INPUTS)).replace("{out}", str(out_dir))
            for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    written = {p.relative_to(out_dir).as_posix(): p.read_bytes()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return code, buf.getvalue().encode("utf-8"), written


def expected_case(name: str) -> tuple[int, bytes, dict[str, bytes]]:
    root = EXPECTED / name
    files_root = root / "files"
    files = {p.relative_to(files_root).as_posix(): p.read_bytes()
             for p in sorted(files_root.rglob("*")) if p.is_file()}
    code = int((root / "exit_code").read_text(encoding="ascii"))
    return code, (root / "stdout").read_bytes(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    want_code, want_out, want_files = expected_case(name)
    code, out, files = run_case(name, tmp_path)
    assert code == want_code
    assert out.decode("utf-8").splitlines() == want_out.decode("utf-8").splitlines()
    assert out == want_out
    assert sorted(files) == sorted(want_files)
    for rel, data in files.items():
        assert data == want_files[rel], f"{name}: written file {rel} differs"


def test_corpus_has_no_stray_cases():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)
