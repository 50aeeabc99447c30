import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import detnum
from detnum.cli import main
from detnum.tensor import read_blob, write_blob


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(out: str) -> dict:
    line = [l for l in out.splitlines() if l.startswith("# summary ")][-1]
    return json.loads(line[len("# summary "):])


def config_of(out: str) -> dict:
    line = [l for l in out.splitlines() if l.startswith("# config ")][0]
    return json.loads(line[len("# config "):])


@pytest.fixture
def pairs_file(tmp_path):
    p = tmp_path / "pairs.txt"
    p.write_text("# p_cx p_cy p_w p_h g_cx g_cy g_w g_h\n"
                 "1 1 2 2 2 2 2 2\n"
                 "3 3 2 2 3 3 2 2\n")
    return str(p)


@pytest.fixture
def match_files(tmp_path):
    preds = tmp_path / "preds.txt"
    gts = tmp_path / "gts.txt"
    preds.write_text("im0 0 0.0 0.0 2 2 0.9\n"
                     "im0 0 5.0 5.0 1 1 0.4\n"
                     "im0 0 10.0 0.0 2 2 0.8\n")
    gts.write_text("im0 0 0.2 0.0 2 2\n"
                   "im0 0 10.3 0.0 2 2\n")
    return str(preds), str(gts)


@pytest.fixture
def eval_files(tmp_path):
    dets = tmp_path / "dets.txt"
    gts = tmp_path / "gt.txt"
    dets.write_text("a 0 2 2 2 2 0.9\n"
                    "a 0 2 10 2 2 0.8\n"
                    "a 0 10 2 2 2 0.7\n")
    gts.write_text("a 0 2 2 2 2\n"
                   "a 0 10 2 2 2\n")
    return str(dets), str(gts)


# ---------------------------------------------------------------------------
# loss-compare
# ---------------------------------------------------------------------------

def test_loss_compare_basic(capsys, pairs_file):
    code, out, _ = run(capsys, "loss-compare", "--pairs", pairs_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "pair,kind,value,grad_cx,grad_cy,grad_w,grad_h,singular"
    s = summary_of(out)
    assert s["n_pairs"] == 2
    assert s["passed"] is True
    # identical pair: every kind evaluates to zero with a flagged zero grad
    assert "1,mks,0.0,0.0,0.0,0.0,0.0,true" in lines
    assert "1,giou,0.0,0.0,0.0,0.0,0.0,true" in lines
    # worked pair, mks value
    mks_row = next(l for l in lines if l.startswith("0,mks,"))
    assert float(mks_row.split(",")[2]) == pytest.approx(0.8398545607366507, abs=1e-12)


def test_loss_compare_config_echoes_basename_only(capsys, pairs_file):
    code, out, _ = run(capsys, "loss-compare", "--pairs", pairs_file)
    assert code == 0
    cfg = config_of(out)
    assert cfg["pairs"] == "pairs.txt"
    assert "/" not in cfg["pairs"]
    assert cfg["seed"] == 42
    assert cfg["theta"] == 4.0


def test_loss_compare_unknown_kind_fails(capsys, pairs_file):
    code, _, err = run(capsys, "loss-compare", "--pairs", pairs_file,
                       "--kinds", "mks,bogus")
    assert code == 1
    assert "error:" in err


def test_loss_compare_malformed_pairs_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    code, _, err = run(capsys, "loss-compare", "--pairs", str(bad))
    assert code == 1
    assert "bad.txt:1:" in err


# ---------------------------------------------------------------------------
# match / match-verify
# ---------------------------------------------------------------------------

def test_match_fixture(capsys, match_files):
    preds, gts = match_files
    code, out, _ = run(capsys, "match", "--preds", preds, "--gts", gts)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "pred,gt,angle_cost,distance_cost,shape_cost,iou_cost,total"
    pairs = [tuple(map(int, l.split(",")[:2])) for l in lines[2:-1]]
    assert pairs == [(0, 0), (2, 1)]
    s = summary_of(out)
    assert s["unmatched_predictions"] == [1]
    assert s["converged"] is True
    assert s["n_preds"] == 3 and s["n_gts"] == 2


def test_match_json_format(capsys, match_files):
    preds, gts = match_files
    code, out, _ = run(capsys, "match", "--preds", preds, "--gts", gts,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out.splitlines()[1])
    assert [d["pred"] for d in doc["pairs"]] == [0, 2]
    assert doc["unmatched_predictions"] == [1]


def test_match_verify_square_random(capsys):
    code, out, _ = run(capsys, "match-verify", "--random", "4")
    assert code == 0
    s = summary_of(out)
    assert s["passed"] is True
    assert s["gap"] <= s["bound"]
    assert s["mp"] >= s["kp"] - 1e-9


@pytest.mark.parametrize("value", ["abc", "0", "3:0", "2:x", "2:3:4"])
def test_match_verify_random_size_errors_name_the_flag(capsys, value):
    code, out, err = run(capsys, "match-verify", "--random", value)
    assert code == 1
    assert out == ""
    assert "--random expects N or N:M" in err
    assert repr(value) in err


def test_match_verify_rectangular_random(capsys):
    code, out, _ = run(capsys, "match-verify", "--random", "3:2")
    assert code == 0
    s = summary_of(out)
    assert s["ratio"] == 1.0
    assert s["unmatched_predictions"] == 1
    assert s["passed"] is True


def test_match_verify_needs_input(capsys):
    code, _, err = run(capsys, "match-verify")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_five_sixths_fixture(capsys, eval_files):
    dets, gts = eval_files
    code, out, _ = run(capsys, "eval", "--dets", dets, "--gts", gts)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "class_id,n_gt,tp,fp,fn,precision,recall,ap"
    s = summary_of(out)
    assert s["map"] == float(Fraction(5, 6))
    assert s["n_classes"] == 1
    assert s["iou_threshold"] == 0.5


def test_eval_json_format(capsys, eval_files):
    dets, gts = eval_files
    code, out, _ = run(capsys, "eval", "--dets", dets, "--gts", gts,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out.splitlines()[1])
    assert doc["per_class"][0]["tp"] == 2


def test_eval_parse_error_is_line_numbered(capsys, tmp_path, eval_files):
    _, gts = eval_files
    bad = tmp_path / "broken.txt"
    bad.write_text("a 0 1 1 2 2 0.9\na zero 1 1 2 2\n")
    code, _, err = run(capsys, "eval", "--dets", str(bad), "--gts", gts)
    assert code == 1
    assert "broken.txt:2:" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_brightness_grid_writes_15_images(capsys, tmp_path):
    out_dir = tmp_path / "frames"
    code, out, _ = run(capsys, "sweep", "--range", "18:160:10",
                       "--out-dir", str(out_dir))
    assert code == 0
    s = summary_of(out)
    assert s["n_levels"] == 15
    assert s["images_written"] == 15
    files = sorted(out_dir.glob("*.pgm"))
    assert len(files) == 15
    assert (out_dir / "level_18.pgm").exists()
    assert (out_dir / "level_158.pgm").exists()


def test_sweep_profile_bands(capsys):
    code, out, _ = run(capsys, "sweep", "--range", "0:164:4",
                       "--fine-step", "1", "--profile", "12:29:148")
    assert code == 0
    s = summary_of(out)
    assert s["bands"] == [
        {"band": "fail", "lo": 0.0, "hi": 12.0},
        {"band": "miss", "lo": 13.0, "hi": 28.0},
        {"band": "clean", "lo": 29.0, "hi": 148.0},
        {"band": "miss", "lo": 149.0, "hi": 164.0},
    ]


def test_sweep_reads_pgm_input(capsys, tmp_path):
    from detnum.robustness import synthetic_gray, write_pgm
    img_path = tmp_path / "in.pgm"
    write_pgm(synthetic_gray(7), img_path)
    code, out, _ = run(capsys, "sweep", "--image", str(img_path),
                       "--range", "40:60:10")
    assert code == 0
    assert config_of(out)["image"] == "in.pgm"


def test_sweep_noise_mode_json(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "noise",
                       "--range", "0:0.02:0.01", "--noise-axis", "var",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out.splitlines()[1])
    assert doc["entries"][0]["psnr_db"] == "inf"
    assert len(doc["entries"]) == 3


def test_sweep_outcomes_file(capsys, tmp_path):
    oc = tmp_path / "oc.txt"
    oc.write_text("0 fail\n10 miss\n20 clean\n")
    code, out, _ = run(capsys, "sweep", "--range", "0:20:10",
                       "--fine-step", "5", "--outcomes", str(oc))
    # fine refinement probes 5 and 15, which the table does not cover
    assert code == 1
    oc.write_text("0 fail\n5 fail\n10 miss\n15 clean\n20 clean\n")
    code, out, _ = run(capsys, "sweep", "--range", "0:20:10",
                       "--fine-step", "5", "--outcomes", str(oc))
    assert code == 0
    s = summary_of(out)
    assert [b["band"] for b in s["bands"]] == ["fail", "miss", "clean"]


def test_sweep_outcomes_file_bad_level_has_position(capsys, tmp_path):
    oc = tmp_path / "outcomes.txt"
    oc.write_text("abc clean\n")
    code, _, err = run(capsys, "sweep", "--mode", "noise", "--range", "0:1:0.5",
                       "--outcomes", str(oc))
    assert code == 1
    assert "outcomes.txt:1:" in err
    assert "'abc'" in err


def test_sweep_outcomes_file_repeated_level_rejected(capsys, tmp_path):
    oc = tmp_path / "outcomes.txt"
    oc.write_text("0 clean\n# rerun\n0.0 fail\n")
    code, out, err = run(capsys, "sweep", "--mode", "noise", "--range", "0:1:0.5",
                         "--outcomes", str(oc))
    assert code == 1
    assert out == ""
    assert "outcomes.txt:3: level 0.0 already given on line 1" in err


@pytest.mark.parametrize("value", ["a:b:c", "1:2", "1:2:3:4"])
def test_sweep_profile_errors_name_the_flag(capsys, value):
    code, out, err = run(capsys, "sweep", "--range", "0:20:10", "--profile", value)
    assert code == 1
    assert out == ""
    assert f"--profile expects three numbers FAIL_HI:CLEAN_LO:CLEAN_HI, got {value!r}" in err


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "--range", "10:20")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# fuse-check / gradcheck / attn-demo
# ---------------------------------------------------------------------------

def test_fuse_check_passes(capsys):
    code, out, _ = run(capsys, "fuse-check", "--trials", "20")
    assert code == 0
    s = summary_of(out)
    assert s["passed"] == 20
    assert s["all_passed"] is True
    assert s["max_diff"] < 1e-5


def test_fuse_check_block_mode(capsys):
    code, out, _ = run(capsys, "fuse-check", "--trials", "10", "--block")
    assert code == 0
    assert summary_of(out)["all_passed"] is True
    assert ",block," in out


def test_gradcheck_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--trials", "60")
    assert code == 0
    s = summary_of(out)
    assert s["all_passed"] is True
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "kind,pairs_checked,excluded,max_rel_err,ok"
    assert len(lines) == 6   # five kinds


def test_gradcheck_unknown_kind(capsys):
    code, _, err = run(capsys, "gradcheck", "--kinds", "mks,什么")
    assert code == 1
    assert "error:" in err


def test_attn_demo_writes_blob(capsys, tmp_path):
    blob = tmp_path / "attn.ntb"
    code, out, _ = run(capsys, "attn-demo", "--shape", "1,4,6,6",
                       "--reduction", "2", "--out", str(blob))
    assert code == 0
    s = summary_of(out)
    assert s["shape_preserved"] is True
    assert s["weights_in_open_unit"] is True
    arrays = read_blob(blob)
    assert arrays["output"].shape == (1, 4, 6, 6)
    assert arrays["channel_weights"].shape == (1, 4, 1, 1)
    assert arrays["spatial_map"].shape == (1, 1, 6, 6)


def test_attn_demo_reads_blob_input(capsys, tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.ntb"
    write_blob(path, {"tensor": rng.normal(size=(2, 8, 5, 5))})
    code, out, _ = run(capsys, "attn-demo", "--input", str(path))
    assert code == 0
    assert config_of(out)["input"] == "x.ntb"
    assert config_of(out)["shape"] == [2, 8, 5, 5]


def test_attn_demo_bad_shape(capsys):
    code, _, err = run(capsys, "attn-demo", "--shape", "3,4")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# determinism: identical invocations produce identical bytes
# ---------------------------------------------------------------------------

def test_every_command_is_rerun_stable(capsys, tmp_path, pairs_file,
                                       match_files, eval_files):
    preds, gts = match_files
    dets, egts = eval_files
    out_dir = tmp_path / "sw"
    blob = tmp_path / "a.ntb"
    commands = [
        ("loss-compare", "--pairs", pairs_file),
        ("match", "--preds", preds, "--gts", gts),
        ("match-verify", "--random", "5"),
        ("eval", "--dets", dets, "--gts", egts),
        ("sweep", "--range", "18:160:10", "--out-dir", str(out_dir)),
        ("fuse-check", "--trials", "10"),
        ("gradcheck", "--trials", "40"),
        ("attn-demo", "--shape", "1,4,6,6", "--reduction", "2",
         "--out", str(blob)),
    ]
    for argv in commands:
        code1, out1, _ = run(capsys, *argv)
        files1 = {p.name: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file() and p.suffix in (".pgm", ".ntb")}
        code2, out2, _ = run(capsys, *argv)
        files2 = {p.name: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file() and p.suffix in (".pgm", ".ntb")}
        assert code1 == code2 == 0, argv[0]
        assert out1 == out2, argv[0]
        assert files1 == files2, argv[0]


def test_output_does_not_depend_on_blas_thread_count(tmp_path):
    # fresh interpreters, because BLAS reads its thread count when NumPy loads
    src = str(Path(detnum.__file__).resolve().parents[1])

    def run_with_threads(threads, *argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "detnum", *argv], env=env,
                              capture_output=True, check=True)
        return proc.stdout

    outputs = {}
    for threads in (1, 2):
        out_dir = tmp_path / f"threads-{threads}"
        out_dir.mkdir()
        attn = run_with_threads(threads, "attn-demo", "--out", str(out_dir / "attn.ntb"))
        block = run_with_threads(threads, "fuse-check", "--block", "--trials", "5")
        outputs[threads] = (attn, block, (out_dir / "attn.ntb").read_bytes())
    assert outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# failing commands print nothing on stdout
# ---------------------------------------------------------------------------

# "{pairs}", "{preds}", "{gts}", "{dets}", "{gt}" and "{outcomes}" are input files
@pytest.mark.parametrize("argv, message", [
    (["loss-compare", "--pairs", "{pairs}", "--kinds", "bogus"], "unknown loss kind 'bogus'"),
    (["match", "--preds", "{preds}", "--gts", "{gts}", "--epsilon", "0"], "epsilon must be > 0"),
    (["match", "--preds", "{preds}", "--gts", "{gts}", "--epsilon", "nan"],
     "epsilon must be > 0 and finite, got nan"),
    (["eval", "--dets", "{dets}", "--gts", "{gt}", "--iou-thresh", "1.5"],
     "iou_threshold must lie in (0, 1)"),
    (["attn-demo", "--reduction", "-1"], "reduction_ratio must be >= 1, got -1"),
    (["sweep", "--range", "0:10:10", "--fine-step", "5", "--outcomes", "{outcomes}"],
     "outcomes.txt: no entry for level 5"),
    (["gradcheck", "--trials", "2", "--step", "0"], "--step must be > 0 and finite, got 0.0"),
    (["gradcheck", "--trials", "2", "--step", "nan"], "--step must be > 0 and finite, got nan"),
    (["gradcheck", "--trials", "2", "--step=-1e-5"], "--step must be > 0 and finite, got -1e-05"),
    (["gradcheck", "--trials", "2", "--tol", "nan"], "--tol must be > 0 and finite, got nan"),
    (["fuse-check", "--trials", "2", "--tol", "nan"], "--tol must be > 0 and finite, got nan"),
    (["fuse-check", "--trials", "2", "--tol", "-1"], "--tol must be > 0 and finite, got -1.0"),
    (["sweep", "--range", "0:10:5", "--fine-step", "nan", "--profile", "1:2:8"],
     "--fine-step must be > 0 and finite, got nan"),
    (["sweep", "--range", "0:10:nan", "--profile", "1:2:8"],
     "--range fields must be finite, got '0:10:nan'"),
    (["sweep", "--range", "0:nan:5", "--profile", "1:2:8"],
     "--range fields must be finite, got '0:nan:5'"),
    (["sweep", "--range", "0:10:inf", "--profile", "1:2:8"],
     "--range fields must be finite, got '0:10:inf'"),
    (["sweep", "--range", "0:10:5", "--profile", "nan:2:8"],
     "--profile fields must be finite, got 'nan:2:8'"),
    (["sweep", "--range", "0:10:5", "--profile", "1:inf:8"],
     "--profile fields must be finite, got '1:inf:8'"),
    (["sweep", "--range", "0:10:5", "--fine-step", "1e-9", "--profile", "1:2:255",
      "--mode", "noise"],
     "--range 0:10:5 with --fine-step 1e-09 can evaluate up to 10000000001 levels, "
     "more than 100000"),
    (["sweep", "--range", "0:10:5", "--fine-step", "1e-13", "--profile", "1:2:255",
      "--mode", "noise"],
     "--range 0:10:5 with --fine-step 1e-13 can evaluate up to 100000000000001 levels, "
     "more than 100000"),
    (["sweep", "--mode", "noise", "--range", "0:1e-9:1e-10", "--fine-step", "1e-13",
      "--profile", "0:5.5e-10:1"],
     "--fine-step 1e-13 is too small to tell levels apart near 1e-09: it must be at least 1e-12"),
], ids=["loss-compare", "match", "match-epsilon-nan", "eval", "attn-demo", "sweep",
        "gradcheck-step-0", "gradcheck-step-nan", "gradcheck-step-negative",
        "gradcheck-tol-nan", "fuse-check-tol-nan", "fuse-check-tol-negative",
        "sweep-fine-step-nan", "sweep-range-step-nan", "sweep-range-hi-nan",
        "sweep-range-step-inf", "sweep-profile-nan", "sweep-profile-inf",
        "sweep-fine-step-1e-9", "sweep-fine-step-1e-13", "sweep-fine-step-below-level-key"])
def test_failing_command_prints_nothing_on_stdout(capsys, tmp_path, pairs_file, match_files,
                                                  eval_files, argv, message):
    outcomes = tmp_path / "outcomes.txt"
    outcomes.write_text("0 fail\n10 clean\n")
    files = {"pairs": pairs_file, "preds": match_files[0], "gts": match_files[1],
             "dets": eval_files[0], "gt": eval_files[1], "outcomes": str(outcomes)}
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["fuse-check", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["fuse-check", "--trials", "-1"], "--trials must be >= 1, got -1"),
    (["gradcheck", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["attn-demo", "--reduction", "0"], "reduction_ratio must be >= 1, got 0"),
], ids=["fuse-check-0", "fuse-check-negative", "gradcheck-0", "attn-demo-reduction-0"])
def test_counts_that_check_nothing_are_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--preds", "x.txt"])
    assert exc.value.code == 2
