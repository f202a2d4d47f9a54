import csv
import dataclasses
import json

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.cli import UsageError, build_config, load_run_config, main
from priorad.data import (StandardizerStats, _read_matrix,
                          default_synthetic_spec, read_labels,
                          split_train_val, standardize)
from priorad import evaluation
from priorad.evaluation import (
    EvalReport, benchmark_configs, compute_metrics,
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
    rep = compute_metrics(y_hat, y_true)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 2, 1)
    np.testing.assert_allclose(rep.precision, 100 * 2 / 3)
    np.testing.assert_allclose(rep.recall, 100 * 2 / 3)
    np.testing.assert_allclose(rep.accuracy, 100 * 4 / 6)
    assert not rep.flagged


def test_compute_metrics_flags_no_positives():
    rep = compute_metrics(np.zeros(5, bool), np.ones(5, bool))
    assert rep.flagged and rep.precision == 0.0 and rep.f1 == 0.0


def test_compute_metrics_shape_mismatch():
    with pytest.raises(ad.ContractError):
        compute_metrics(np.zeros(3, bool), np.zeros(4, bool))


def test_run_ablation_validates_axis_and_values(tmp_path):
    mcfg = ModelConfig(window_length=16, channels=3)
    synth = default_synthetic_spec(length=600)
    args = (synth, mcfg, TrainConfig(), ScoringConfig(window_length=16),
            tmp_path / "ablation.csv")
    with pytest.raises(ValueError, match="axis"):
        run_ablation("window_color", [1], *args)
    with pytest.raises(ValueError, match="non-empty"):
        run_ablation("epochs", [], *args)
    assert not (tmp_path / "ablation.csv").exists()
    # a bad value is checked where it is applied, as every axis's is: it
    # becomes an error cell, and the other cells still run
    [(value, cell)] = run_ablation("phase_sync", ["half_phase"], *args)
    assert value == "half_phase" and cell.startswith("error: prior_mode")


def _record_pipeline(monkeypatch):
    """Replace the synthetic pipeline with one that records the configs it
    is handed and returns a fixed report; returns (calls, report)."""
    calls = []
    report = compute_metrics(np.ones(4, bool), np.ones(4, bool))

    def record(spec, model_cfg, train_cfg, score_cfg):
        calls.append((model_cfg, train_cfg))
        return None, report
    monkeypatch.setattr(evaluation, "run_synthetic_pipeline", record)
    return calls, report


def test_phase_sync_cells_change_the_prior_mode_only(tmp_path, monkeypatch):
    calls, report = _record_pipeline(monkeypatch)
    mcfg = ModelConfig(window_length=16, channels=3)
    tcfg = TrainConfig(k=3.0)
    modes = ["full", "no_phase", "single_head"]
    out = run_ablation("phase_sync", modes, default_synthetic_spec(length=600),
                       mcfg, tcfg, ScoringConfig(window_length=16),
                       tmp_path / "ablation.csv")
    assert out == [(mode, report) for mode in modes]
    assert [m for m, _ in calls] == [
        dataclasses.replace(mcfg, prior_mode=mode) for mode in modes]
    assert all(t == tcfg for _, t in calls)  # no_phase keeps its k
    assert mcfg.prior_mode == "full"  # the caller's configs are untouched


def test_benchmark_configs_train_every_prior_mode_alike():
    full, no_phase, single = (benchmark_configs(prior_mode=mode)
                              for mode in ("full", "no_phase", "single_head"))
    assert full[1] == no_phase[1] == single[1]
    assert no_phase[0] == dataclasses.replace(full[0], prior_mode="no_phase")


@pytest.mark.parametrize("axis, value, message", [
    ("model_dim", 32.9, "model_dim must be int, got 32.9"),
    ("model_dim", 15, "model_dim 15 not divisible by num_heads 4"),
    ("epochs", True, "max_epochs must be int, got True"),
    ("phase_sync", 1, "prior_mode must be str, got 1"),
], ids=["model_dim_float", "model_dim_indivisible", "epochs_bool",
        "phase_sync_int"])
def test_run_ablation_checks_each_value_as_its_field(tmp_path, monkeypatch,
                                                     axis, value, message):
    """A value passes the field's checks, as a --set of it would: a bad one
    is an error cell with the field's message, and nothing trains."""
    calls, _ = _record_pipeline(monkeypatch)
    [(got, cell)] = run_ablation(axis, [value],
                                 default_synthetic_spec(length=600),
                                 ModelConfig(window_length=16, channels=3),
                                 TrainConfig(), ScoringConfig(window_length=16),
                                 tmp_path / "ablation.csv")
    assert got is value and cell == f"error: {message}"
    assert calls == []


def test_run_ablation_records_errors_and_continues(tmp_path):
    mcfg = ModelConfig(window_length=16, channels=3, model_dim=16,
                       num_layers=1, num_heads=2, feedforward_dim=32, seed=0)
    tcfg = TrainConfig(k=0.0, max_epochs=1, batch_size=64,
                       learning_rate=1e-3)
    scfg = ScoringConfig(temperature=1.0, anomaly_ratio=1.0,
                         window_length=16, batch_size=64)
    synth = default_synthetic_spec(seed=0, length=600, channels=3,
                                   kinds=("point",))
    # 15 is invalid (2 heads)
    out = run_ablation("model_dim", [16, 15], synth, mcfg, tcfg, scfg,
                       tmp_path / "ablation.csv")
    assert [value for value, _ in out] == [16, 15]
    assert isinstance(out[0][1], EvalReport)
    assert isinstance(out[1][1], str) and out[1][1].startswith("error")
    text = (tmp_path / "ablation.csv").read_text()
    assert "ok" in text and "error" in text


def test_format_report_table_alignment():
    rep = compute_metrics(np.ones(4, bool), np.ones(4, bool))
    table = format_report_table([("full", rep), ("broken", "error: nope")])
    lines = table.splitlines()
    assert "variant" in lines[0] and "f1" in lines[0]
    assert any("full" in ln and "100.00" in ln for ln in lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_load_run_config_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"window_length": 16, "model_dim": 16,
                  "num_layers": 1, "num_heads": 2, "feedforward_dim": 32},
        "train": {"k": 1.0},
    }))
    sections = load_run_config(cfg, ["train.k=0.5", "scoring.temperature=2.0"],
                               "ablate")
    m = build_config(ModelConfig, sections["model"], channels=2)
    t = build_config(TrainConfig, sections["train"])
    s = build_config(ScoringConfig, sections["scoring"],
                     window_length=m.window_length)
    assert t.k == 0.5 and m.window_length == 16 and m.channels == 2
    assert s.temperature == 2.0
    assert s.window_length == m.window_length
    # score reads only the scoring section of the same file
    assert load_run_config(cfg, None, "score") == {"scoring": {}}


def test_load_run_config_rejects_bad_override():
    for override in ("nonsense=1", "train.k", "other.k=1"):
        with pytest.raises(UsageError):
            load_run_config(None, [override], "ablate")
    sections = load_run_config(None, ["train.patience=0"], "ablate")
    with pytest.raises(UsageError):
        build_config(TrainConfig, sections["train"])


def test_cli_usage_exit_codes(tmp_path, capsys):
    assert main(["synth", "--type", "wiggle", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["ablate", "--axis", "wiggle", "--values", "1",
                 "--out", str(tmp_path)]) == 2
    assert "phase_sync" in capsys.readouterr().err  # the axes are listed
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
    # only what eval measured: no threshold or config fields
    assert set(report) == {f.name for f in dataclasses.fields(EvalReport)}
    assert set(report) == {"accuracy", "precision", "recall", "f1",
                           "tp", "fp", "tn", "fn", "flagged"}
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
                 "--set", "train.max_epochs=1",
                 "--set", "train.batch_size=64",
                 "--set", "train.k=0.0",
                 "--set", "train.learning_rate=0.001"]
    run = out / "run"
    main(["train", "--train-csv", str(out / "train.csv"),
          "--out", str(run)] + overrides)
    # score standardizes with --train-csv: train writes no standardizer,
    # and one left beside the checkpoint is ignored
    assert sorted(p.name for p in run.iterdir()) == ["checkpoint.npz",
                                                     "training_log.csv"]
    texts = []
    for sub in ("s1", "s2"):
        d = out / sub
        d.mkdir()
        assert main(["score", "--checkpoint", str(run / "checkpoint.npz"),
                     "--train-csv", str(out / "train.csv"),
                     "--test-csv", str(out / "test.csv"),
                     "--labels-csv", str(out / "labels.csv"),
                     "--out", str(d)]) == 0
        texts.append((d / "scores.csv").read_bytes())
        np.savez(run / "standardizer.npz", mean=np.full(2, 100.0),
                 std=np.full(2, 1e-3))
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
    train, test = (_read_matrix(out / f"{name}.csv")
                   for name in ("train", "test"))
    labels = read_labels(out / "labels.csv", len(test), out / "test.csv")
    stats = StandardizerStats.fit(train)
    fit, thresh = split_train_val(standardize(train, stats), 0.5,
                                  min_length=16)
    scores = detect(ckpt.model, fit, thresh, standardize(test, stats),
                    ScoringConfig(window_length=16))
    write_score_csv(out / "api.csv", scores, y_true=labels)
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


def test_cli_score_rejects_csv_narrower_than_the_checkpoint(tmp_path,
                                                           capsys):
    """One-column CSVs against a 3-channel checkpoint fail naming the CSV
    and the checkpoint, instead of broadcasting through the standardizer;
    so does a one-column test CSV beside a 3-column train CSV."""
    out = tmp_path
    main(["synth", "--seed", "4", "--length", "300", "--channels", "3",
          "--type", "point", "--out", str(out)])
    assert main(["train", "--train-csv", str(out / "train.csv"),
                 "--set", "model.window_length=16",
                 "--set", "model.model_dim=16", "--set", "model.num_layers=1",
                 "--set", "model.num_heads=2",
                 "--set", "model.feedforward_dim=32",
                 "--set", "train.max_epochs=1", "--set", "train.k=0.0",
                 "--out", str(out)]) == 0
    for name in ("train", "test"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        (out / f"one_{name}.csv").write_text(
            "".join(line.split(",")[0] + "\n" for line in lines))
    capsys.readouterr()
    assert main(["score", "--checkpoint", str(out / "checkpoint.npz"),
                 "--train-csv", str(out / "one_train.csv"),
                 "--test-csv", str(out / "one_test.csv"),
                 "--out", str(out / "scored")]) == 1
    err = capsys.readouterr().err
    assert (f"{out / 'one_train.csv'} has 1 columns, but checkpoint "
            f"{out / 'checkpoint.npz'} has 3 channels") in err
    assert not (out / "scored" / "scores.csv").exists()
    assert main(["score", "--checkpoint", str(out / "checkpoint.npz"),
                 "--train-csv", str(out / "train.csv"),
                 "--test-csv", str(out / "one_test.csv"),
                 "--out", str(out / "scored")]) == 1
    err = capsys.readouterr().err
    assert (f"{out / 'one_test.csv'} has 1 columns, but checkpoint "
            f"{out / 'checkpoint.npz'} has 3 channels") in err
    assert not (out / "scored" / "scores.csv").exists()


def test_cli_ablate_takes_channels_and_fails_on_error_cells(tmp_path, capsys):
    """`ablate` builds its model for the synthetic series' channels and exits
    1, after writing every cell, when one of them failed."""
    tiny = ["--length", "1000", "--channels", "3",
            "--set", "model.window_length=12", "--set", "model.model_dim=8",
            "--set", "model.num_layers=1", "--set", "model.num_heads=2",
            "--set", "model.feedforward_dim=16", "--set", "train.max_epochs=1",
            "--set", "train.batch_size=64"]
    assert main(["ablate", "--axis", "phase_sync", "--values", "full",
                 "no_phase", "single_head", "--out", str(tmp_path / "ok")]
                + tiny) == 0
    rows = (tmp_path / "ok" / "ablation.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["full", "no_phase",
                                                   "single_head"]
    assert all(r.endswith(",ok") for r in rows[1:])

    capsys.readouterr()
    assert main(["ablate", "--axis", "model_dim", "--values", "8", "7",
                 "--out", str(tmp_path / "bad")] + tiny) == 1
    rows = (tmp_path / "bad" / "ablation.csv").read_text().splitlines()
    assert rows[1].endswith(",ok")
    assert "error: model_dim 7 not divisible by num_heads 2" in rows[2]
    assert "[7]" in capsys.readouterr().err


def test_cli_ablate_writes_one_row_per_given_value(tmp_path, capsys):
    """Values that compare equal keep a cell each: 1 and true (1 == True in
    Python) give an ok row and an error row, and a repeated value trains
    twice. A phase_sync value that is no prior mode is an error cell that
    names prior_mode, beside the cells that ran."""
    tiny = ["--length", "600", "--channels", "3",
            "--set", "model.window_length=12", "--set", "model.model_dim=8",
            "--set", "model.num_layers=1", "--set", "model.num_heads=2",
            "--set", "model.feedforward_dim=16", "--set", "train.batch_size=64"]
    runs = {"equal": ("epochs", ["1", "true"], 1),
            "repeated": ("epochs", ["2", "2"], 0),
            "bad_mode": ("phase_sync", ["half_phase", "full"], 1)}
    rows = {}
    for name, (axis, values, code) in runs.items():
        assert main(["ablate", "--axis", axis, "--values", *values,
                     "--out", str(tmp_path / name)] + tiny) == code
        with open(tmp_path / name / "ablation.csv", newline="") as fh:
            rows[name] = list(csv.reader(fh))[1:]
    assert [r[1] for r in rows["equal"]] == ["1", "True"]
    assert rows["equal"][0][-1] == "ok"
    assert rows["equal"][1][-1] == "error: max_epochs must be int, got True"
    assert [r[1] for r in rows["repeated"]] == ["2", "2"]
    assert rows["repeated"][0] == rows["repeated"][1]
    assert rows["repeated"][0][-1] == "ok"
    assert [r[1] for r in rows["bad_mode"]] == ["half_phase", "full"]
    assert rows["bad_mode"][0][-1].startswith("error: prior_mode must be")
    assert rows["bad_mode"][1][-1] == "ok"
    assert "['half_phase']" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["synth", "--channels", "0"], "--channels must be >= 1, got 0"),
    (["synth", "--channels", "-1"], "--channels must be >= 1, got -1"),
    (["synth", "--length", "5"],
     "--length must be >= 6 for 5 anomaly kinds, got 5"),
    (["synth", "--length", "0", "--type", "point"],
     "--length must be >= 1, got 0"),
    (["ablate", "--axis", "epochs", "--values", "1", "--length", "5"],
     "--length must be >= 6 for 5 anomaly kinds, got 5"),
    (["ablate", "--axis", "epochs", "--values", "1", "--length", "70"],
     "--length must be >= 498 for training with val_fraction 0.2 and "
     "window length 100, got 70"),
    (["ablate", "--axis", "epochs", "--values", "1", "--length", "122",
      "--set", "model.window_length=25"],
     "--length must be >= 123 for training with val_fraction 0.2 and "
     "window length 25, got 122"),
    (["ablate", "--axis", "epochs", "--values", "1", "--channels", "0"],
     "channels must be >= 1, got 0"),
    (["synth", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["ablate", "--axis", "epochs", "--values", "1", "--seed", "-2"],
     "--seed must be >= 0, got -2"),
], ids=["synth_channels_0", "synth_channels_neg", "synth_length_5",
        "synth_point_length_0", "ablate_length_5", "ablate_length_70",
        "ablate_length_122_window_25", "ablate_channels_0",
        "synth_seed_neg", "ablate_seed_neg"])
def test_cli_rejects_unusable_synthetic_sizes(tmp_path, capsys, argv,
                                              message):
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_ablate_values_are_type_checked_like_set(tmp_path):
    """A value that `--set train.max_epochs=...` rejects is an error cell,
    not a cast: 2.5 does not train 2 epochs, nor true 1, and an int too
    long to read is the string given."""
    assert main(["ablate", "--axis", "epochs", "--values", "2.5", "true",
                 OVER_DIGIT_LIMIT, "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "ablation.csv").read_text().splitlines()
    assert "error: max_epochs must be int, got 2.5" in rows[1]
    assert "error: max_epochs must be int, got True" in rows[2]
    assert (f"error: max_epochs must be int, got '{OVER_DIGIT_LIMIT}'"
            in rows[3])


# ---------------------------------------------------------------------------
# Settings: one source and one reader each
# ---------------------------------------------------------------------------

TINY_MODEL = {"window_length": 16, "model_dim": 16, "num_layers": 1,
              "num_heads": 2, "feedforward_dim": 32}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """synth -> train from one config file whose scoring section train
    leaves to score."""
    out = tmp_path_factory.mktemp("run")
    assert main(["synth", "--seed", "5", "--length", "400", "--channels", "2",
                 "--type", "point", "--out", str(out)]) == 0
    (out / "run.json").write_text(json.dumps({
        "model": TINY_MODEL,
        "train": {"max_epochs": 1, "batch_size": 64, "k": 0.0},
        "scoring": {"anomaly_ratio": 2.0}}))
    assert main(["train", "--train-csv", str(out / "train.csv"),
                 "--config", str(out / "run.json"), "--out", str(out)]) == 0
    return out


def _score_argv(run, out, labels=True):
    argv = ["score", "--checkpoint", str(run / "checkpoint.npz"),
            "--train-csv", str(run / "train.csv"),
            "--test-csv", str(run / "test.csv"),
            "--config", str(run / "run.json"), "--out", str(out)]
    return argv + (["--labels-csv", str(run / "labels.csv")] if labels
                   else [])


@pytest.mark.parametrize("argv", [
    ["synth", "--set", "model.num_heads=3"],
    ["synth", "--config", "run.json"],
    ["eval", "--scores-csv", "scores.csv", "--set", "scoring.temperature=2"],
    ["eval", "--scores-csv", "scores.csv", "--config", "run.json"],
], ids=["synth_set", "synth_config", "eval_set", "eval_config"])
def test_cli_rejects_options_the_command_does_not_read(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_cli_out_is_the_only_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRIORAD_OUT", str(tmp_path / "env"))
    assert main(["synth", "--length", "300"]) == 0
    assert (tmp_path / "train.csv").exists()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command, key, source", [
    ("train", "model.channels=2", "--train-csv"),
    ("train", "scoring.window_length=16", "model.window_length"),
    ("ablate", "model.channels=3", "--channels"),
    ("score", "scoring.window_length=16", "checkpoint"),
    ("train", "scoring.temperature=2.0", "train reads no scoring config"),
], ids=["train_channels", "train_window_length", "ablate_channels",
        "score_window_length", "train_scoring"])
def test_cli_rejects_keys_the_command_does_not_take(tiny_run, tmp_path,
                                                    capsys, command, key,
                                                    source):
    """Derived keys name where their value comes from; a section the
    command does not read says so."""
    argv = {"train": ["train", "--train-csv", str(tiny_run / "train.csv")],
            "ablate": ["ablate", "--axis", "epochs", "--values", "1"],
            "score": _score_argv(tiny_run, tmp_path)[:-2]}[command]
    capsys.readouterr()
    assert main(argv + ["--set", key, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key.split("=")[0] in err and source in err
    assert not (tmp_path / "checkpoint.npz").exists()
    assert not (tmp_path / "scores.csv").exists()


def test_cli_derived_key_in_config_file_is_rejected(tiny_run, tmp_path,
                                                    capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {**TINY_MODEL, "channels": 2}}))
    capsys.readouterr()
    assert main(["train", "--train-csv", str(tiny_run / "train.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "model.channels" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"{bad", "Expecting property name enclosed in double quotes: line 1 "
              "column 2 (char 1)"),
    (b"\xff{}", "can't decode byte 0xff in position 0"),
], ids=["malformed_json", "not_utf8"])
def test_cli_names_an_unreadable_config_file(tiny_run, tmp_path, capsys,
                                             content, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    capsys.readouterr()
    assert main(["train", "--train-csv", str(tiny_run / "train.csv"),
                 "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {cfg}: " in err and message in err
    assert not (tmp_path / "checkpoint.npz").exists()


@pytest.mark.parametrize("key", ["train.batch_size=0", "train.max_epochs=0",
                                 "train.learning_rate=-1",
                                 "train.clip_norm=0",
                                 "train.val_fraction=1.0",
                                 "train.k=-1", "train.lambda_reg=-1",
                                 "train.lambda_hurst=-1",
                                 "train.lambda_score=-1",
                                 "model.num_layers=0", "model.num_heads=0",
                                 "model.model_dim=0", "model.seed=-1",
                                 "model.window_length=1",
                                 "model.feedforward_dim=0"])
def test_cli_train_rejects_out_of_range_config(tiny_run, tmp_path, capsys,
                                               key):
    capsys.readouterr()
    assert main(["train", "--train-csv", str(tiny_run / "train.csv"),
                 "--set", key, "--out", str(tmp_path)]) == 2
    dotted, value = key.split("=")
    field = dotted.split(".")[1]
    err = capsys.readouterr().err
    assert f"{field} must be" in err and err.rstrip().endswith(f"got {value}")
    assert not (tmp_path / "checkpoint.npz").exists()


# JSON reads this as an int that no float can hold
HUGE_INT = "1" + "0" * 400
# more digits than Python converts to an int: JSON cannot read it, and it
# stays a string
OVER_DIGIT_LIMIT = "1" + "0" * 5000


@pytest.mark.parametrize("command, key, message", [
    ("score", "scoring.temperature=0", "temperature must be positive, got 0"),
    ("score", "scoring.anomaly_ratio=150",
     "anomaly_ratio must be in (0, 100), got 150"),
    ("train", 'model.prior_mode="half_phase"',
     "prior_mode must be one of ('full', 'no_phase', 'single_head'), "
     "got 'half_phase'"),
    ("train", "train.k=NaN", "k must be finite, got nan"),
    ("train", "train.learning_rate=Infinity",
     "learning_rate must be finite, got inf"),
    ("score", "scoring.temperature=Infinity",
     "temperature must be finite, got inf"),
    ("train", f"train.learning_rate={HUGE_INT}",
     f"learning_rate must be finite, got {HUGE_INT}"),
    ("train", f"model.window_length={HUGE_INT}",
     f"window_length must be finite, got {HUGE_INT}"),
    ("train", f"train.learning_rate={OVER_DIGIT_LIMIT}",
     f"learning_rate must be float, got '{OVER_DIGIT_LIMIT}'"),
], ids=["temperature", "anomaly_ratio", "prior_mode", "k_nan",
        "learning_rate_inf", "temperature_inf", "learning_rate_huge_int",
        "window_length_huge_int", "learning_rate_over_digit_limit"])
def test_cli_range_errors_name_the_value_given(tiny_run, tmp_path, capsys,
                                               command, key, message):
    argv = (["train", "--train-csv", str(tiny_run / "train.csv"),
             "--out", str(tmp_path)] if command == "train"
            else _score_argv(tiny_run, tmp_path))
    capsys.readouterr()
    assert main(argv + ["--set", key]) == 2
    assert f"usage error: {message}\n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_config_file_rejects_a_non_finite_float(tiny_run, tmp_path,
                                                   capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"train": {"lambda_reg": float("nan")}}))
    capsys.readouterr()
    assert main(["train", "--train-csv", str(tiny_run / "train.csv"),
                 "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert ("usage error: lambda_reg must be finite, got nan\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [
    ("train", "train.batch_size=2.5"),
    ("train", "train.max_epochs=true"),
    ("train", "train.learning_rate=null"),
    ("train", "train.k=\"3\""),
    ("train", "train.series_ascent=1"),
    ("train", "model.num_heads=null"),
    ("train", "model.window_length=\"20\""),
    ("train", "model.model_dim=16.0"),
    ("train", "model.prior_mode=1"),
    ("score", "scoring.batch_size=1.5"),
    ("score", "scoring.temperature=false"),
], ids=lambda v: v.split("=")[0] if "=" in v else v)
def test_cli_rejects_config_values_of_the_wrong_type(tiny_run, tmp_path,
                                                     capsys, command, key):
    # each value would pass or break the range checks, or fail only later
    argv = (["train", "--train-csv", str(tiny_run / "train.csv"),
             "--out", str(tmp_path)] if command == "train"
            else _score_argv(tiny_run, tmp_path))
    capsys.readouterr()
    assert main(argv + ["--set", key]) == 2
    field = key.split("=")[0].split(".")[1]
    assert f"{field} must be" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_eval_names_both_files_when_lengths_differ(tmp_path, capsys):
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text("t,y_hat\n0,0\n1,1\n2,0\n")
    labels.write_text("0\n1\n")
    capsys.readouterr()
    assert main(["eval", "--scores-csv", str(scores), "--labels-csv",
                 str(labels), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{labels} has 2 labels, but {scores} has 3 rows" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text, where", [
    ("t,y_hat,y_true\n0,0,0\n1,2,1\n", "column 'y_hat' at row 1 is 2"),
    ("t,y_hat,y_true\n0,0,0\n1,nan,1\n", "non-finite cell at row 1, column 1"),
    ("t,y_true\n0,0\n1,1\n", "including 'y_hat'"),
    ("t,y_hat,y_true\n0,0,0\n1,1\n", "ragged row 1"),
], ids=["y_hat_2", "nan", "no_y_hat", "ragged"])
def test_cli_eval_validates_scores_csv(tmp_path, capsys, text, where):
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    capsys.readouterr()
    assert main(["eval", "--scores-csv", str(scores),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(scores) in err and where in err
    assert not (tmp_path / "report.json").exists()


def test_cli_train_names_a_csv_too_short_to_split(tiny_run, tmp_path,
                                                  capsys):
    """Both sides of the split take a window, and the fit side also takes
    the 64 rows of the Hurst estimate: 80 rows split 64/16 at 0.2."""
    short = tmp_path / "short.csv"
    for rows, val_fraction, need in ((20, 0.2, 80), (78, 0.2, 80),
                                     (79, 0.2, 80), (78, 0.5, 127)):
        short.write_text("".join(
            (tiny_run / "train.csv").read_text().splitlines(True)[:rows]))
        capsys.readouterr()
        assert main(["train", "--train-csv", str(short),
                     "--config", str(tiny_run / "run.json"),
                     "--set", f"train.val_fraction={val_fraction}",
                     "--out", str(tmp_path / "out")]) == 1
        assert (f"{short} has {rows} rows, but training with val_fraction "
                f"{val_fraction} and window length 16 needs at least "
                f"{need}\n") in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.npz").exists()


@pytest.mark.parametrize("name, rows, message", [
    ("train", 20, "{bad} has 20 rows, but calibrating on the checkpoint's "
                  "val_fraction 0.2 split with window length 16 needs at "
                  "least 78"),
    ("test", 10, "{bad} has 10 rows, but scoring with window length 16 "
                 "needs at least 16"),
    ("labels", 399, "{bad} has 399 labels, but {run}/test.csv has 400 rows"),
], ids=["short_train", "short_test", "label_count"])
def test_cli_score_names_the_file_at_fault(tiny_run, tmp_path, capsys, name,
                                           rows, message):
    bad = tmp_path / f"{name}.csv"
    bad.write_text("".join(
        (tiny_run / f"{name}.csv").read_text().splitlines(True)[:rows]))
    argv = _score_argv(tiny_run, tmp_path / "out")
    argv[argv.index(str(tiny_run / f"{name}.csv"))] = str(bad)
    capsys.readouterr()
    assert main(argv) == 1
    assert message.format(bad=bad, run=tiny_run) in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_cli_score_without_labels(tiny_run, tmp_path):
    """Without --labels-csv, scores.csv is the labelled file less its y_true
    column, and eval takes the labels from --labels-csv instead."""
    assert main(_score_argv(tiny_run, tmp_path / "with")) == 0
    assert main(_score_argv(tiny_run, tmp_path / "without",
                            labels=False)) == 0
    with_rows = (tmp_path / "with" / "scores.csv").read_text().splitlines()
    without = (tmp_path / "without" / "scores.csv").read_text().splitlines()
    assert without == [r.rsplit(",", 1)[0] for r in with_rows]
    assert main(["eval", "--scores-csv", str(tmp_path / "without" /
                                             "scores.csv"),
                 "--out", str(tmp_path / "without")]) == 2
    assert main(["eval", "--scores-csv", str(tmp_path / "without" /
                                             "scores.csv"),
                 "--labels-csv", str(tiny_run / "labels.csv"),
                 "--out", str(tmp_path / "without")]) == 0
    assert main(["eval", "--scores-csv", str(tmp_path / "with" /
                                             "scores.csv"),
                 "--out", str(tmp_path / "with")]) == 0
    assert (tmp_path / "with" / "report.json").read_text() == \
        (tmp_path / "without" / "report.json").read_text()
