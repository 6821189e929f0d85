import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from polycascade import cli
from polycascade.cascade import init_multi
from polycascade.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from polycascade.config import ConfigError, load_run_config
from polycascade.linalg import NonFiniteError
from polycascade.snapshot import MAGIC, save_snapshot

EXPERIMENTS = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.ini"))


def shells_config(tmp_path, **overrides):
    base = {
        "format": "synthetic-shells", "train_rows": 600, "test_rows": 200, "max_rows": 800,
        "dim": 6, "data_seed": 1, "normalize": "false",
    }
    model = {"widths": "6,20,1", "alpha": "20", "init": "identity-fragments",
             "precision": "float64", "sigma2": "0", "kernel_b": "5"}
    train = {"epochs": "1", "batch_rows": "200", "seed": "2", "task": "binary-auc"}
    out = {"dir": str(tmp_path / "run")}
    for section in (base, model, train, out):
        section.update({k: str(v) for k, v in overrides.items() if k in section})
    text = "[data]\n" + "\n".join(f"{k} = {v}" for k, v in base.items())
    text += "\n[model]\n" + "\n".join(f"{k} = {v}" for k, v in model.items())
    text += "\n[train]\n" + "\n".join(f"{k} = {v}" for k, v in train.items())
    text += "\n[output]\n" + "\n".join(f"{k} = {v}" for k, v in out.items())
    path = tmp_path / "run.ini"
    path.write_text(text + "\n")
    return path


def test_dry_run_prints_architecture(tmp_path, capsys):
    cfg = shells_config(tmp_path)
    assert main(["train", str(cfg), "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "6-20-1" in out
    assert "constellation points 13" in out  # 2*6 + 1
    assert "trainable parameters" in out


def test_dry_run_tolerates_unstaged_data(tmp_path, capsys):
    path = tmp_path / "future.ini"
    path.write_text(
        "[data]\nformat = idx\ntrain_images = /not/yet/img\ntrain_labels = /not/yet/lbl\n"
        "test_images = /not/yet/ti\ntest_labels = /not/yet/tl\n"
        "[model]\nwidths = 4,1\n[train]\nepochs = 1\n[output]\ndir = out\n")
    assert main(["train", str(path), "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "not staged yet" in out and "trainable parameters" in out


def test_unknown_key_rejected(tmp_path, capsys):
    path = shells_config(tmp_path)
    path.write_text(path.read_text() + "typo_key = 1\n")
    assert main(["train", str(path), "--dry-run"]) == EXIT_CONFIG
    assert "typo_key" in capsys.readouterr().err


INVALID_VALUES = [
    ("init", "bogus", "init mode"), ("precision", "float16", "precision"),
    ("task", "regress", "task"), ("epochs", "-1", "epochs"), ("alpha", "0", "alpha"),
    ("batch_rows", "0", "batch_rows"), ("sigma2", "-1", "sigma2"),
    ("kernel_b", "nan", "kernel coefficients"), ("train_rows", "0", "train_rows"),
    ("test_rows", "-5", "test_rows"), ("max_rows", "0", "max_rows"), ("dim", "0", "dim"),
    ("dim", "7", "input width 6"), ("data_seed", "-1", "data_seed"),
    ("widths", "6,20,3", "binary-auc"),
]


@pytest.mark.parametrize("key,value,message", INVALID_VALUES,
                         ids=[f"{key}={value}" for key, value, _ in INVALID_VALUES])
def test_invalid_values_rejected_before_data_is_read(tmp_path, monkeypatch, capsys, key, value,
                                                       message):
    path = shells_config(tmp_path, **{key: value})
    assert main(["train", str(path), "--dry-run"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    monkeypatch.setattr(cli, "load_datasets", lambda cfg: pytest.fail("data was read"))
    assert main(["train", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_unknown_section_rejected(tmp_path):
    path = shells_config(tmp_path)
    path.write_text(path.read_text() + "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_run_config(path)


def test_missing_dataset_path_exit_2(tmp_path, capsys):
    path = tmp_path / "missing.ini"
    path.write_text(
        "[data]\nformat = idx\ntrain_images = /nope/img\ntrain_labels = /nope/lbl\n"
        "test_images = /nope/ti\ntest_labels = /nope/tl\n"
        "[model]\nwidths = 4,1\n[train]\nepochs = 1\n[output]\ndir = out\n")
    assert main(["train", str(path)]) == EXIT_CONFIG
    assert "/nope/img" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["train", str(tmp_path / "absent.ini")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = shells_config(tmp_path)
    assert main(["train", str(cfg)]) == EXIT_OK
    run_dir = tmp_path / "run"
    metrics = (run_dir / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "epoch,train_metric,test_metric,residual,seconds"
    assert len(metrics) == 2  # one epoch
    assert (run_dir / "model.phc1").exists()
    assert (run_dir / "effective.ini").exists()
    assert "widths=6,20,1" in (run_dir / "effective.ini").read_text()
    assert load_run_config(run_dir / "effective.ini") == load_run_config(cfg)


def test_eval_roundtrip(tmp_path, capsys):
    cfg = shells_config(tmp_path)
    assert main(["train", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    # dump the same synthetic test split as a delimited file
    from polycascade.synthetic import make_shell_task
    _, test = make_shell_task(n_train=600, n_test=200, dim=6, seed=1)
    data_path = tmp_path / "test.csv"
    np.savetxt(data_path, np.hstack([test.labels.reshape(-1, 1), test.features]),
               delimiter=",")
    snapshot = tmp_path / "run" / "model.phc1"
    assert main(["eval", str(snapshot), str(data_path), "--label-column", "0"]) == EXIT_OK
    assert "roc_auc" in capsys.readouterr().out


def eval_inputs(tmp_path, n_features, preprocessing=None):
    """A 3-input snapshot and a CSV with ``n_features`` feature columns after the label."""
    snapshot = tmp_path / "m.phc1"
    save_snapshot(snapshot, init_multi([3, 4, 1], seed=0, alpha=1.0),
                  preprocessing=preprocessing)
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    np.savetxt(data, np.hstack([rng.integers(0, 2, (20, 1)), rng.uniform(-1, 1, (20, n_features))]),
               delimiter=",")
    return str(snapshot), str(data)


@pytest.mark.parametrize("n_features,preprocessing,extra,message", [
    (5, None, [], "5 features, the model expects 3"),
    (3, {"col_min": [0.0, 0.0], "col_max": [1.0, 1.0]}, [], "fitted spec has 2 columns"),
    (3, {"col_min": 5}, [], "invalid preprocessing spec"),
    (3, None, ["--delimiter", ""], "delimiter is empty"),
], ids=["width-mismatch", "spec-width-mismatch", "mistyped-spec", "empty-delimiter"])
def test_eval_bad_input_exit_2(tmp_path, capsys, n_features, preprocessing, extra, message):
    snapshot, data = eval_inputs(tmp_path, n_features, preprocessing)
    assert main(["eval", snapshot, data, *extra]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def delimited_config(tmp_path, delimiter_line):
    _, data = eval_inputs(tmp_path, 3)
    path = tmp_path / "delimited.ini"
    path.write_text(f"[data]\nformat = delimited\npath = {data}\n{delimiter_line}\n"
                    f"[model]\nwidths = 3,4,1\n[train]\ntask = binary-auc\n"
                    f"[output]\ndir = {tmp_path / 'run'}\n")
    return path


def test_train_empty_delimiter_exit_2(tmp_path, capsys):
    # ";" after whitespace starts an inline comment, so the delimiter parses as ""
    path = delimited_config(tmp_path, "delimiter = ;")
    assert load_run_config(path).delimiter == ""
    assert main(["train", str(path)]) == EXIT_CONFIG
    assert "delimiter is empty" in capsys.readouterr().err


def test_semicolon_delimiter_reloads_from_written_config(tmp_path):
    cfg = load_run_config(delimited_config(tmp_path, "delimiter=;"))
    assert cfg.delimiter == ";"
    cfg.write_ini(tmp_path / "effective.ini")
    assert load_run_config(tmp_path / "effective.ini") == cfg


def test_tab_delimiter_trains_and_reloads_from_written_config(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    rng = np.random.default_rng(0)
    np.savetxt(data, np.hstack([np.arange(40).reshape(-1, 1) % 2, rng.uniform(-1, 1, (40, 2))]),
               delimiter="\t")
    path = tmp_path / "tsv.ini"
    path.write_text(f"[data]\nformat = delimited\npath = {data}\ndelimiter = \\t\n"
                    f"[model]\nwidths = 2,4,1\n[train]\ntask = binary-auc\nbatch_rows = 16\n"
                    f"[output]\ndir = {tmp_path / 'run'}\n")
    cfg = load_run_config(path)
    assert cfg.delimiter == "\t"
    assert main(["train", str(path)]) == EXIT_OK
    assert "delimiter=\\t\n" in (tmp_path / "run" / "effective.ini").read_text()
    assert load_run_config(tmp_path / "run" / "effective.ini") == cfg


def test_eval_bad_snapshot_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.phc1"
    bad.write_bytes(b"JUNKJUNK")
    assert main(["eval", str(bad), str(bad)]) == EXIT_CONFIG


def test_eval_huge_header_length_exit_2(tmp_path, capsys):
    # a package count of 2**40 must be refused before anything is allocated for it
    bad = tmp_path / "huge.phc1"
    bad.write_bytes(MAGIC + struct.pack("<2Q", 1, 2 ** 40))
    assert main(["eval", str(bad), str(bad)]) == EXIT_CONFIG
    assert "truncated snapshot" in capsys.readouterr().err


def test_non_finite_cell_exits_2_before_any_output(tmp_path, capsys):
    path = delimited_config(tmp_path, "delimiter = ,")
    data = tmp_path / "d.csv"
    lines = data.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    data.write_text("\n".join(lines) + "\n")
    assert main(["train", str(path)]) == EXIT_CONFIG
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert main(["eval", str(tmp_path / "m.phc1"), str(data)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error" in err and "non-finite cell at row 2, column 4" in err


def test_train_rows_leaving_no_test_rows_exit_2(tmp_path, capsys):
    path = delimited_config(tmp_path, "train_rows = 20")  # the file holds 20 rows
    assert main(["train", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "train_rows=20 leaves no test rows of 20" in err
    assert not (tmp_path / "run").exists()


def test_out_of_range_log_columns_exit_2(tmp_path, capsys):
    # features are columns 0..2; the range is checked before any column is logged
    path = delimited_config(tmp_path, "log_columns = 3")
    assert main(["train", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and "transform columns [3] out of range for 3 features" in err
    snapshot, data = eval_inputs(tmp_path, 3, {"log1p_columns": [7]})
    assert main(["eval", snapshot, data]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and "transform columns [7] out of range for 3 features" in err


def set_last_cell(data, row, text):
    """Replace the last cell of 0-based line ``row`` of a delimited file."""
    lines = data.read_text().splitlines()
    lines[row] = lines[row].rsplit(",", 1)[0] + "," + text
    data.write_text("\n".join(lines) + "\n")


def test_value_normalising_beyond_float_range_exits_2(tmp_path, capsys):
    # 1e308 is finite, but twice its distance from the column minimum is not
    path = delimited_config(tmp_path, "delimiter = ,")
    data = tmp_path / "d.csv"
    set_last_cell(data, 1, "1e308")
    assert main(["train", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and "feature 2 of data row 2 (blank lines not counted) " \
        "normalises to inf" in err
    assert not (tmp_path / "run").exists()
    snapshot, data = eval_inputs(tmp_path, 3, {"col_min": [-1.0] * 3, "col_max": [1.0] * 3})
    set_last_cell(Path(data), 4, "-1e308")
    Path(data).write_text("\n" + Path(data).read_text())  # the bad row is now file line 6
    assert main(["eval", snapshot, data]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and "feature 2 of data row 5 (blank lines not counted) " \
        "normalises to -inf" in err


@pytest.mark.parametrize("value", ["1e308", "1e150"])
def test_eval_of_values_too_large_for_the_model_exits_2(tmp_path, capsys, value):
    # no preprocessing, as a model trained with normalize = false is saved: 1e308 overflows
    # and 1e150 turns into a NaN score inside scores
    snapshot, data = eval_inputs(tmp_path, 3)
    set_last_cell(Path(data), 6, value)
    Path(data).write_text("\n" + Path(data).read_text())  # the bad row is now file line 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow warnings would reach the user's terminal
        assert main(["eval", snapshot, data]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "data error:" in captured.err and "data row 7 (blank lines not counted) has no " \
        "finite score" in captured.err
    assert captured.out == ""


def test_train_of_test_rows_too_large_for_the_model_exits_1(tmp_path, capsys):
    # with normalize = false a 1e150 test row scores NaN and a 1e308 one overflows inside
    # scores; the epoch's evaluation names the row, and no overflow warning reaches the user
    for value in ("1e308", "1e150"):
        run = tmp_path / value
        run.mkdir()
        _, data = eval_inputs(run, 3)
        set_last_cell(Path(data), 12, value)  # test row 7 of the 14 after 6 train rows
        path = run / "overflow.ini"
        path.write_text(f"[data]\nformat = delimited\npath = {data}\nnormalize = false\n"
                        f"train_rows = 6\n[model]\nwidths = 3,4,1\n[train]\n"
                        f"task = binary-auc\nbatch_rows = 6\n[output]\ndir = {run / 'run'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: test split row 7 has no finite score" in err


def test_train_of_a_training_row_too_large_for_the_model_exits_1(tmp_path, capsys):
    # with normalize = false a 1e308 training row overflows in the batch's system; the
    # failure names where it happened, and no overflow warning reaches the user
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(3)
    table = np.column_stack([np.arange(40) % 2, rng.uniform(-1, 1, (40, 3))])
    table[12, 2] = 1e308
    np.savetxt(data, table, delimiter=",")
    path = tmp_path / "overflow.ini"
    path.write_text(f"[data]\nformat = delimited\npath = {data}\nnormalize = false\n"
                    f"train_rows = 30\n[model]\nwidths = 3,4,1\n[train]\n"
                    f"task = binary-auc\nbatch_rows = 10\n[output]\ndir = {tmp_path / 'run'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", str(path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(r"^numeric failure: epoch 1, batch [1-3]: replica 0: training system or "
                     r"output residual contains NaN or Inf$", err, re.M)


def test_empty_idx_pair_exits_2(tmp_path, capsys):
    images, labels = tmp_path / "empty-images", tmp_path / "empty-labels"
    images.write_bytes(struct.pack(">IIII", 0x803, 0, 2, 3))
    labels.write_bytes(struct.pack(">II", 0x801, 0))
    snapshot = tmp_path / "m.phc1"
    save_snapshot(snapshot, init_multi([6, 4, 3], seed=0, alpha=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", str(snapshot), str(images), "--labels", str(labels)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"data error: {images}: empty dataset\n" and captured.out == ""
    path = tmp_path / "idx.ini"
    path.write_text(f"[data]\nformat = idx\ntrain_images = {images}\ntrain_labels = {labels}\n"
                    f"test_images = {images}\ntest_labels = {labels}\n[model]\nwidths = 6,4,3\n"
                    f"[output]\ndir = {tmp_path / 'run'}\n")
    assert main(["train", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"data error: {images}: empty dataset\n"
    assert not (tmp_path / "run").exists()


def test_non_utf8_bytes_exit_2(tmp_path, capsys):
    path = delimited_config(tmp_path, "delimiter = ,")
    data = tmp_path / "d.csv"
    lines = data.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"e", b"\xff", 1)
    data.write_bytes(b"".join(lines))
    assert main(["train", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and "row 3 is not UTF-8 text" in err
    assert main(["eval", str(tmp_path / "m.phc1"), str(data)]) == EXIT_CONFIG
    assert "row 3 is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("task,widths,labels,message", [
    ("binary-auc", "2,4,1", np.ones(40), "one class"),
    ("classify", "2,4,3", np.arange(40) % 4, "labels must be integers in [0, 3)"),
], ids=["auc-single-class", "classify-label-3"])
def test_unusable_labels_exit_2_before_any_output(tmp_path, monkeypatch, capsys, task, widths,
                                                  labels, message):
    data = tmp_path / "d.csv"
    np.savetxt(data, np.column_stack([labels, np.random.default_rng(0).uniform(-1, 1, (40, 2))]),
               delimiter=",")
    path = tmp_path / "labels.ini"
    path.write_text(f"[data]\nformat = delimited\npath = {data}\n"
                    f"[model]\nwidths = {widths}\n[train]\ntask = {task}\nbatch_rows = 16\n"
                    f"[output]\ndir = {tmp_path / 'run'}\n")
    monkeypatch.setattr(cli, "run_training", lambda *a, **k: pytest.fail("training started"))
    assert main(["train", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data error:" in err and message in err
    assert not (tmp_path / "run").exists()


def test_eval_single_class_labels_exit_2(tmp_path, capsys):
    snapshot, data = eval_inputs(tmp_path, 3)
    table = np.loadtxt(data, delimiter=",")
    table[:, 0] = 1.0
    np.savetxt(data, table, delimiter=",")
    assert main(["eval", snapshot, data]) == EXIT_CONFIG
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("widths,labels,message", [
    ([3, 4, 1], [0.0, 2.0], "labels must be 0 or 1 for task binary-auc"),
    ([3, 4, 3], [0.0, 7.0, 1.5], "labels must be integers in [0, 3) for task classify"),
], ids=["auc-label-2", "classify-labels-7-and-1.5"])
def test_eval_labels_training_rejects_exit_2(tmp_path, capsys, widths, labels, message):
    # the label rule of training: one output scores ROC AUC, several score accuracy
    snapshot = tmp_path / "m.phc1"
    save_snapshot(snapshot, init_multi(widths, seed=0, alpha=1.0))
    data = tmp_path / "d.csv"
    np.savetxt(data, np.column_stack([np.resize(labels, 20),
                                      np.random.default_rng(0).uniform(-1, 1, (20, 3))]),
               delimiter=",")
    assert main(["eval", str(snapshot), str(data)]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert "data error:" in out.err and message in out.err
    assert out.out == ""


def test_train_non_finite_failure_exit_1(tmp_path, monkeypatch, capsys):
    def failing_run_training(*args, **kwargs):
        raise NonFiniteError("training system or output residual contains NaN or Inf")

    monkeypatch.setattr(cli, "run_training", failing_run_training)
    assert main(["train", str(shells_config(tmp_path))]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
def test_shipped_experiment_configs_load(path, tmp_path):
    # unknown keys are rejected, so a key removed from the program must leave these too
    cfg = load_run_config(path, check_paths=False)
    assert cfg.train_config().widths == cfg.widths
    # the written config reruns the same job: every key, defaults included, reloads equal
    cfg.write_ini(tmp_path / "effective.ini")
    assert load_run_config(tmp_path / "effective.ini", check_paths=False) == cfg


def test_verify_command_exit_0(capsys):
    assert main(["verify", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "7/7 invariants passed" in out


def test_verify_negative_seed_exits_2(capsys):
    # it used to end in numpy's "expected non-negative integer" traceback
    assert main(["verify", "--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "argument error: --seed must be at least 0, got -1" in captured.err
    assert captured.out == ""


def test_bench_command_small(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "--max-n", "16", "--batch-rows", "4", "--repeats", "1",
                 "--out", str(out_csv)])
    assert code == EXIT_OK
    assert out_csv.exists()
    printed = capsys.readouterr().out
    assert "crossover width for backward" in printed


@pytest.mark.parametrize("args,message", [
    (["--repeats", "0"], "--repeats must be at least 1, got 0"),
    (["--batch-rows", "4", "0"], "--batch-rows must be at least 1, got 0"),
    (["--batch-rows", "-5"], "--batch-rows must be at least 1, got -5"),
    (["--max-n", "15"], "--max-n must be at least 16, got 15"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
], ids=["repeats-0", "batch-rows-0", "batch-rows-negative", "max-n-below-sweep", "seed-negative"])
def test_bench_arguments_out_of_range_exit_2(tmp_path, capsys, args, message):
    # each used to write NaN timings, end in a traceback (numpy's, for a negative seed) or run
    # an empty sweep
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", *args, "--out", str(out_csv)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"argument error: {message}" in captured.err and captured.out == ""
    assert not out_csv.exists()


def test_idx_config_end_to_end(tmp_path):
    # tiny synthetic IDX pair exercised through the full CLI train path
    rng = np.random.default_rng(0)
    def write_pair(stem, n):
        images = rng.integers(0, 256, (n, 2, 3), dtype=np.uint8)
        labels = rng.integers(0, 3, n, dtype=np.uint8)
        ip = tmp_path / f"{stem}-images"
        lp = tmp_path / f"{stem}-labels"
        ip.write_bytes(struct.pack(">IIII", 0x803, n, 2, 3) + images.tobytes())
        lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
        return ip, lp

    tri, trl = write_pair("train", 120)
    tei, tel = write_pair("test", 40)
    cfg = tmp_path / "idx.ini"
    cfg.write_text(f"""
[data]
format = idx
train_images = {tri}
train_labels = {trl}
test_images = {tei}
test_labels = {tel}
normalize = true

[model]
widths = 6,8,3
alpha = 10

[train]
epochs = 1
batch_rows = 60
seed = 0

[output]
dir = {tmp_path / "idxrun"}
""")
    assert main(["train", str(cfg)]) == EXIT_OK
    assert (tmp_path / "idxrun" / "model.phc1").exists()
