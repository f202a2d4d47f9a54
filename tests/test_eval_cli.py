import json

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.cli import UsageError, load_run_config, main
from priorad.data import (StandardizerStats, default_synthetic_spec,
                          load_csv_dataset, split_train_val, standardize)
from priorad.evaluation import (
    AblationSpec, EvalReport, apply_ablation_value, compute_metrics,
    f1_from_pr, format_report_table, run_ablation,
)
from priorad.model import ModelConfig
from priorad.training import TrainConfig, load_checkpoint
from priorad.scoring import ScoringConfig, detect, write_score_csv


def test_f1_published_fixtures():
    # benchmark-style precision/recall pairs reproduce their reported F1
    np.testing.assert_allclose(f1_from_pr(97.37, 98.80), 98.08, atol=0.01)
    np.testing.assert_allclose(f1_from_pr(93.84, 100.0), 96.82, atol=0.01)


def test_f1_degenerate_zero():
    assert f1_from_pr(0.0, 0.0) == 0.0


def test_compute_metrics_counts():
    y_true = np.array([1, 1, 0, 0, 1, 0], bool)
    y_hat = np.array([1, 0, 0, 1, 1, 0], bool)
    rep = compute_metrics(y_hat, y_true, threshold=0.7, fingerprint="cfg")
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 2, 1)
    np.testing.assert_allclose(rep.precision, 100 * 2 / 3)
    np.testing.assert_allclose(rep.recall, 100 * 2 / 3)
    np.testing.assert_allclose(rep.accuracy, 100 * 4 / 6)
    assert rep.threshold == 0.7 and rep.config_fingerprint == "cfg"
    assert not rep.flagged


def test_compute_metrics_flags_no_positives():
    rep = compute_metrics(np.zeros(5, bool), np.ones(5, bool))
    assert rep.flagged and rep.precision == 0.0 and rep.f1 == 0.0


def test_compute_metrics_shape_mismatch():
    with pytest.raises(ad.ContractError):
        compute_metrics(np.zeros(3, bool), np.zeros(4, bool))


def test_ablation_spec_validation():
    with pytest.raises(ValueError, match="axis"):
        AblationSpec("window_color", [1])
    with pytest.raises(ValueError, match="non-empty"):
        AblationSpec("epochs", [])
    with pytest.raises(ValueError, match="phase_sync"):
        AblationSpec("phase_sync", ["half_phase"])


def test_apply_ablation_value_copies_configs():
    mcfg = ModelConfig(window_length=16, channels=2, model_dim=16,
                       num_layers=1, num_heads=2, feedforward_dim=32, seed=0)
    tcfg = TrainConfig(k=3.0)
    m, t = apply_ablation_value("phase_sync", "no_phase", mcfg, tcfg)
    assert m.prior_mode == "no_phase" and t.k == 0.0
    assert mcfg.prior_mode == "full" and tcfg.k == 3.0  # originals untouched
    m2, t2 = apply_ablation_value("epochs", 7, mcfg, tcfg)
    assert t2.max_epochs == 7 and m2.prior_mode == "full"
    with pytest.raises(ValueError, match="divisible"):
        apply_ablation_value("model_dim", 15, mcfg, tcfg)


def test_run_ablation_records_errors_and_continues(tmp_path):
    mcfg = ModelConfig(window_length=16, channels=3, model_dim=16,
                       num_layers=1, num_heads=2, feedforward_dim=32, seed=0)
    tcfg = TrainConfig(k=0.0, max_epochs=1, batch_size=64,
                       learning_rate=1e-3)
    scfg = ScoringConfig(temperature=1.0, anomaly_ratio=1.0,
                         window_length=16, batch_size=64)
    synth = default_synthetic_spec(seed=0, length=600, channels=3,
                                   kinds=("point",))
    spec = AblationSpec("model_dim", [16, 15])  # 15 is invalid (2 heads)
    out = run_ablation(spec, synth, mcfg, tcfg, scfg,
                       csv_path=tmp_path / "ablation.csv")
    assert isinstance(out[16], EvalReport)
    assert isinstance(out[15], str) and out[15].startswith("error")
    text = (tmp_path / "ablation.csv").read_text()
    assert "ok" in text and "error" in text


def test_format_report_table_alignment():
    rep = compute_metrics(np.ones(4, bool), np.ones(4, bool))
    table = format_report_table({"full": rep, "broken": "error: nope"})
    lines = table.splitlines()
    assert "variant" in lines[0] and "f1" in lines[0]
    assert any("full" in ln and "100.00" in ln for ln in lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_load_run_config_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"window_length": 16, "channels": 2, "model_dim": 16,
                  "num_layers": 1, "num_heads": 2, "feedforward_dim": 32},
        "train": {"k": 1.0},
    }))
    m, t, s = load_run_config(cfg, [("train.k", "0.5"),
                                    ("scoring.temperature", "2.0")])
    assert t.k == 0.5
    assert s.temperature == 2.0
    assert s.window_length == m.window_length


def test_load_run_config_rejects_bad_override():
    with pytest.raises(UsageError):
        load_run_config(None, [("nonsense", "1")])
    with pytest.raises(UsageError):
        load_run_config(None, [("train.patience", "0")])


def test_cli_usage_exit_codes(tmp_path, capsys):
    assert main(["synth", "--type", "wiggle", "--out", str(tmp_path)]) == 2
    assert main(["score", "--checkpoint", "missing.npz",
                 "--train-csv", "x", "--test-csv", "y",
                 "--labels-csv", "z"]) == 1
    assert main(["not-a-command"]) == 2


@pytest.mark.parametrize("knob", ["model.dropout=0.5",
                                  "train.kl_average=true",
                                  "train.single_pass_ascent=true"])
def test_cli_rejects_removed_knobs(tmp_path, knob):
    (tmp_path / "train.csv").write_text("1,2\n3,4\n")
    assert main(["train", "--train-csv", str(tmp_path / "train.csv"),
                 "--set", knob, "--out", str(tmp_path)]) == 2


def test_cli_eval_labels_header_optional(tmp_path, capsys):
    (tmp_path / "scores.csv").write_text(
        "t,y_hat\n0,0\n1,1\n2,0\n3,0\n4,1\n")
    reports = []
    for name, text in (("plain.csv", "0\n1\n1\n0\n0\n"),
                       ("header.csv", "label\n0\n1\n1\n0\n0\n")):
        (tmp_path / name).write_text(text)
        out = tmp_path / name.replace(".csv", "")
        assert main(["eval", "--scores-csv", str(tmp_path / "scores.csv"),
                     "--labels-csv", str(tmp_path / name),
                     "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0] == reports[1]
    assert (reports[0]["tp"], reports[0]["fp"]) == (2, 1)


def test_cli_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["synth", "--seed", "7", "--length", "500",
                     "--out", str(d)]) == 0
    for name in ("train.csv", "test.csv", "labels.csv", "spec.json"):
        assert (a / name).read_text() == (b / name).read_text()
    spec = json.loads((a / "spec.json").read_text())
    assert spec["seed"] == 7 and len(spec["segments"]) == 5


def test_cli_full_pipeline_smoke(tmp_path, capsys):
    out = tmp_path
    assert main(["synth", "--seed", "1", "--length", "600", "--channels",
                 "2", "--type", "point", "--out", str(out)]) == 0
    overrides = ["--set", "model.window_length=16",
                 "--set", "model.model_dim=16",
                 "--set", "model.num_layers=1",
                 "--set", "model.num_heads=2",
                 "--set", "model.feedforward_dim=32",
                 "--set", "model.channels=2",
                 "--set", "train.max_epochs=1",
                 "--set", "train.batch_size=64",
                 "--set", "train.k=0.0",
                 "--set", "train.learning_rate=0.001"]
    assert main(["train", "--train-csv", str(out / "train.csv"),
                 "--out", str(out)] + overrides) == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "training_log.csv").exists()

    assert main(["score", "--checkpoint", str(out / "checkpoint.npz"),
                 "--train-csv", str(out / "train.csv"),
                 "--test-csv", str(out / "test.csv"),
                 "--labels-csv", str(out / "labels.csv"),
                 "--out", str(out)]) == 0
    assert (out / "scores.csv").exists()

    assert main(["eval", "--scores-csv", str(out / "scores.csv"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"accuracy", "precision", "recall", "f1",
                           "tp", "fp", "tn", "fn"}
    table = capsys.readouterr().out
    assert "point-adjusted" in table


def test_cli_score_rescored_bitwise(tmp_path):
    """Checkpoint save -> load -> score twice gives identical files."""
    out = tmp_path
    main(["synth", "--seed", "2", "--length", "500", "--channels", "2",
          "--type", "point", "--out", str(out)])
    overrides = ["--set", "model.window_length=16",
                 "--set", "model.model_dim=16",
                 "--set", "model.num_layers=1",
                 "--set", "model.num_heads=2",
                 "--set", "model.feedforward_dim=32",
                 "--set", "model.channels=2",
                 "--set", "train.max_epochs=1",
                 "--set", "train.batch_size=64",
                 "--set", "train.k=0.0",
                 "--set", "train.learning_rate=0.001"]
    main(["train", "--train-csv", str(out / "train.csv"),
          "--out", str(out)] + overrides)
    texts = []
    for sub in ("s1", "s2"):
        d = out / sub
        d.mkdir()
        assert main(["score", "--checkpoint", str(out / "checkpoint.npz"),
                     "--train-csv", str(out / "train.csv"),
                     "--test-csv", str(out / "test.csv"),
                     "--labels-csv", str(out / "labels.csv"),
                     "--out", str(d)]) == 0
        texts.append((d / "scores.csv").read_text())
    assert texts[0] == texts[1]


def test_cli_score_reads_split_from_checkpoint(tmp_path, capsys):
    """`score` calibrates on the checkpoint's split and refuses settings
    that the checkpoint holds."""
    out = tmp_path
    main(["synth", "--seed", "3", "--length", "500", "--channels", "2",
          "--type", "point", "--out", str(out)])
    model = ["--set", "model.window_length=16", "--set", "model.model_dim=16",
             "--set", "model.num_layers=1", "--set", "model.num_heads=2",
             "--set", "model.feedforward_dim=32"]
    assert main(["train", "--train-csv", str(out / "train.csv"),
                 "--set", "train.max_epochs=1", "--set", "train.k=0.0",
                 "--set", "train.val_fraction=0.5",
                 "--out", str(out)] + model) == 0
    score = ["score", "--checkpoint", str(out / "checkpoint.npz"),
             "--train-csv", str(out / "train.csv"),
             "--test-csv", str(out / "test.csv"),
             "--labels-csv", str(out / "labels.csv")]
    for key in ("train.val_fraction=0.2", "model.num_heads=4"):
        capsys.readouterr()
        assert main(score + ["--set", key, "--out", str(out / "x")]) == 2
        err = capsys.readouterr().err
        assert key.split("=")[0] in err and "checkpoint" in err
        assert not (out / "x" / "scores.csv").exists()
    assert main(score + ["--out", str(out / "plain")]) == 0

    # the same scores from the API with the checkpoint's 0.5 split
    ckpt = load_checkpoint(out / "checkpoint.npz")
    assert ckpt.train_cfg.val_fraction == 0.5
    ds = load_csv_dataset(out / "train.csv", out / "test.csv",
                          out / "labels.csv")
    with np.load(out / "standardizer.npz") as z:
        stats = StandardizerStats(z["mean"], z["std"])
    fit, thresh = split_train_val(standardize(ds.train, stats), 0.5,
                                  min_length=16)
    scores = detect(ckpt.model, fit, thresh, standardize(ds.test, stats),
                    ScoringConfig(window_length=16))
    write_score_csv(out / "api.csv", scores, y_true=ds.test_labels)
    assert (out / "plain" / "scores.csv").read_bytes() == \
        (out / "api.csv").read_bytes()


def test_cli_score_rejects_non_finite_test_cell(tmp_path, capsys):
    out = tmp_path
    main(["synth", "--seed", "4", "--length", "300", "--channels", "2",
          "--type", "point", "--out", str(out)])
    assert main(["train", "--train-csv", str(out / "train.csv"),
                 "--set", "model.window_length=16",
                 "--set", "model.model_dim=16", "--set", "model.num_layers=1",
                 "--set", "model.num_heads=2",
                 "--set", "model.feedforward_dim=32",
                 "--set", "train.max_epochs=1", "--set", "train.k=0.0",
                 "--out", str(out)]) == 0
    lines = (out / "test.csv").read_text().splitlines()
    lines[7] = lines[7].split(",")[0] + ",nan"
    (out / "test.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["score", "--checkpoint", str(out / "checkpoint.npz"),
                 "--train-csv", str(out / "train.csv"),
                 "--test-csv", str(out / "test.csv"),
                 "--labels-csv", str(out / "labels.csv"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "test.csv" in err and "non-finite cell at row 7, column 1" in err
