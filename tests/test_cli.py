"""Exit codes, output formats, config-file handling of the command line."""

import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dcbilstm.cli import SWEEP_TABLES, build_train_config, main, parse_config_file
from dcbilstm.errors import ParseError
from dcbilstm.model import Model, ModelConfig, count_params, run_depth, save_checkpoint
from dcbilstm.train import TrainConfig
from tests.conftest import _toy_corpus_lines
from tests.test_model import checkpoint_with_vocab, checkpoint_without_embeddings


def _row_count(m, dl, dh, th, arch="dense"):
    """The recurrent count of the model a sweep row (dl, dh, th) trains at width m."""
    return count_params(ModelConfig(m=m, dl=run_depth(dl, dh), dh=dh, th=th, num_classes=2,
                                    arch=arch))


def test_count_params_output(capsys):
    assert main(["count-params", "--dl", "0", "--dh", "10", "--th", "300"]) == 0
    assert capsys.readouterr().out == "1442400 (1.44M)\n"
    assert main(["count-params", "--dl", "15", "--dh", "13", "--th", "100"]) == 0
    assert capsys.readouterr().out == "1406560 (1.40M)\n"


def test_count_params_rejects_impossible_sizes(capsys):
    for flags in (["--dl", "-2", "--dh", "10", "--th", "100"],
                  ["--dl", "2", "--dh", "-3", "--th", "100"],
                  ["--dl", "0", "--dh", "10", "--th", "-5"],
                  ["--dl", "0", "--dh", "10", "--th", "0"],
                  ["--dl", "1", "--dh", "10", "--th", "100", "--m", "0"]):
        assert main(["count-params", *flags]) == 2, flags
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), flags
    # a zero-width dense stack still counts, as the sweep's t5 row needs
    assert main(["count-params", "--dl", "10", "--dh", "0", "--th", "100"]) == 0
    assert capsys.readouterr().out == "320800 (0.32M)\n"


def test_gradcheck_exit_codes(capsys):
    assert main(["gradcheck", "--dl", "0", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--dl", "0", "--seed", "0", "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "softmax.W" in out


def test_gradcheck_negative_seed_names_the_setting(capsys):
    assert main(["gradcheck", "--dl", "0", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_gradcheck_rejects_tolerances_that_are_not_finite_and_non_negative(capsys, flag, value):
    # an infinite tolerance would pass even an injected fault, so the tolerances
    # are fixed and a flag that sets one is a usage error
    with pytest.raises(SystemExit) as info:
        main(["gradcheck", "--dl", "0", "--inject-fault", flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "", captured
    assert f"unrecognized arguments: {flag} {value}" in captured.err, captured


@pytest.mark.parametrize("key,value", [
    ("num_classes", "2"), ("softmax_l2", "0.1"), ("stop_at_train_acc", "1.0"),
    ("beta1", "0.9"), ("beta2", "0.999"), ("eps", "1e-8"),
])
def test_removed_settings_exit_2(toy_tsv, tmp_path, capsys, key, value):
    out_dir = tmp_path / "run"
    train_flags = ["--train-path", toy_tsv, "--out-dir", str(out_dir)]
    with pytest.raises(SystemExit) as info:
        main(["train", "--" + key.replace("_", "-"), value, *train_flags])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err, captured
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main(["train", "--config", str(conf), *train_flags]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (out_dir / "run.log").exists()


def test_sweep_dry_run_tables(capsys):
    for table, rows in SWEEP_TABLES.items():
        assert main(["sweep", "--table", table, "--dry-run", "--embedding-dim", "300"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"table {table} (m=300)\n")
        for dl, dh, th in rows:
            assert f"dl={dl:<3d} dh={dh:<3d} th={th:<4d}" in out
            assert str(_row_count(300, dl, dh, th)) in out
    # the fixed row sets themselves
    assert SWEEP_TABLES["t4"] == [(0, 10, 100), (5, 10, 100), (10, 10, 100),
                                  (15, 10, 100), (20, 10, 100)]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has exited: writing, or flushing what was
    buffered, raises BrokenPipeError as a pipe does."""

    def __init__(self, on):
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_a_closed_stdout_exits_1_and_prints_nothing(tmp_path, capsys, monkeypatch, command, on):
    """A reader that leaves early (head, grep -q) is not a usage error; stdout
    is pointed at devnull, so the flush at exit cannot raise again."""
    tsv = tmp_path / "two.tsv"
    tsv.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    argv = {"sweep": ["sweep", "--table", "t4", "--dry-run"],
            "eval": ["eval", "--checkpoint", str(Path(__file__).parent / "data" /
                                                  "dense_dl2_vocab.ckpt"), "--data", str(tsv)]}
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(on))
    assert main(argv[command]) == 1
    devnull = sys.stdout
    assert devnull.name == os.devnull
    devnull.flush()
    devnull.close()
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("conf_text", [None, "dl = 3\nwidth = 7\n"], ids=["missing", "unknown-key"])
def test_sweep_dry_run_reads_its_config_first(tmp_path, capsys, conf_text):
    conf = tmp_path / "sweep.conf"
    if conf_text is not None:
        conf.write_text(conf_text, encoding="utf-8")
    assert main(["sweep", "--table", "t5", "--dry-run", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: "), captured


def test_sweep_dry_run_counts_at_the_width_it_would_train_at(tmp_path, capsys):
    # no --train-path: a dry run reads no corpus
    assert main(["sweep", "--table", "t5", "--dry-run", "--embedding-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table t5 (m=4)\n")
    for dl, dh, th in SWEEP_TABLES["t5"]:
        assert f"dl={dl:<3d} dh={dh:<3d} th={th:<4d} params {_row_count(4, dl, dh, th)} " in out
    # an embeddings file sets m, whatever embedding_dim says, and its parse is cached
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("film 0.1 0.2 0.3 0.4 0.5 0.6\ndull 1 2 3 4 5 6\n", encoding="utf-8")
    assert main(["sweep", "--table", "t3", "--dry-run", "--embedding-dim", "4",
                 "--embeddings-path", str(vectors)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table t3 (m=6)\n")
    assert f"params {_row_count(6, 15, 13, 100)} " in out
    assert Path(f"{vectors}.dcbilstm-cache").is_file()


def test_sweep_dry_run_counts_the_arch_its_rows_train(capsys):
    assert main(["sweep", "--table", "t4", "--dry-run", "--arch", "stacked",
                 "--embedding-dim", "300"]) == 0
    out = capsys.readouterr().out
    counts = [int(n) for n in re.findall(r" params (\d+) ", out)]
    # at dl = 0 both archs are the top layer alone; the dense rows below it
    # count 541,200 to 1,442,400
    assert counts == [320_800, 131_600, 144_000, 156_400, 168_800], out
    assert counts == [_row_count(300, *row, arch="stacked") for row in SWEEP_TABLES["t4"]]


@pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--dropout-embed", "1.5"),
                                        ("--seed", "-1")])
def test_sweep_dry_run_rejects_what_a_real_sweep_rejects(toy_tsv, tmp_path, capsys, flag, value):
    assert main(["sweep", "--table", "t4", "--dry-run", flag, value]) == 2
    dry = capsys.readouterr()
    assert dry.out == "" and dry.err.startswith(f"error: {flag[2:].replace('-', '_')} "), dry
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--table", "t4", "--train-path", toy_tsv, "--out-dir", str(out_dir),
                 flag, value]) == 2
    assert capsys.readouterr() == dry
    assert not out_dir.exists()


def test_sweep_runs_every_row_of_a_table(toy_tsv, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--table", "t5", "--train-path", toy_tsv, "--embedding-dim", "4",
                 "--epochs", "1", "--batch-size", "16", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r" accuracy \d\.\d{4}\n", out)) == 5, out
    runs = sorted(p.name for p in out_dir.iterdir())
    assert runs == sorted(f"t5_dl{dl}_dh{dh}_th{th}" for dl, dh, th in SWEEP_TABLES["t5"])
    config = json.loads((out_dir / "t5_dl10_dh0_th100" / "run.log").read_text(
        encoding="utf-8").splitlines()[0])
    # a zero-width layer runs as depth zero
    assert config["dl"] == 0 and config["dh"] == 0


@pytest.mark.parametrize("flag", ["--dl", "--dh", "--th"])
def test_sweep_rejects_a_setting_its_rows_set(toy_tsv, tmp_path, capsys, flag):
    out_dir = tmp_path / "sweep"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--table", "t5", flag, "3", "--train-path", toy_tsv, "--embedding-dim",
              "4", "--epochs", "1", "--batch-size", "16", "--out-dir", str(out_dir)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag} 3" in captured.err, captured
    assert not out_dir.exists()


def test_sweep_rows_replace_a_config_files_dl_dh_th(toy_tsv, tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text("dl = 3\ndh = 2\nth = 7\n", encoding="utf-8")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--table", "t4", "--config", str(conf), "--train-path", toy_tsv,
                 "--embedding-dim", "4", "--epochs", "1", "--batch-size", "16",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    for dl, dh, th in SWEEP_TABLES["t4"]:
        config = json.loads((out_dir / f"t4_dl{dl}_dh{dh}_th{th}" / "run.log").read_text(
            encoding="utf-8").splitlines()[0])
        assert (config["dl"], config["dh"], config["th"]) == (dl, dh, th)


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text(
        "# a comment line\n"
        "arch = stacked\n"
        "dl = 3          # trailing comment\n"
        "lr = 0.01\n"
        "max_norm_s = none\n"
        "binary = true\n"
        "\n",
        encoding="utf-8",
    )
    values = parse_config_file(p)
    assert values == {"arch": "stacked", "dl": 3, "lr": 0.01,
                      "max_norm_s": None, "binary": True}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("learning_rate = 0.1\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_config_file(p)
    assert "line 1" in str(info.value)
    p.write_text("dl 3\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_config_file(p)
    p.write_text("dl = many\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_config_file(p)


def test_flag_overrides_beat_config_file(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("dl = 3\ndh = 20\ntrain_path = from_file.tsv\n", encoding="utf-8")
    cfg = build_train_config(str(p), {"dl": 5})
    assert cfg.dl == 5 and cfg.dh == 20 and cfg.train_path == "from_file.tsv"


def test_train_cli_with_config_file(toy_tsv, tmp_path, capsys):
    conf = tmp_path / "t.conf"
    conf.write_text(
        f"train_path = {toy_tsv}\n"
        "dl = 1\ndh = 4\nth = 8\nembedding_dim = 12\n"
        "epochs = 2\nbatch_size = 8\n"
        f"out_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["train", "--config", str(conf), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out and "checkpoint" in out
    logged = [json.loads(l) for l in open(tmp_path / "out" / "run.log", encoding="utf-8")]
    assert logged[0]["event"] == "config" and logged[0]["seed"] == 1


def test_train_cli_bad_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("no_such_key = 1\n", encoding="utf-8")
    assert main(["train", "--config", str(conf)]) == 2
    assert "error" in capsys.readouterr().err
    # missing train_path is a config error as well
    assert main(["train", "--epochs", "1"]) == 2


def test_train_cli_missing_data_file_exits_2(tmp_path, capsys):
    assert main(["train", "--train-path", str(tmp_path / "nope.tsv"),
                 "--epochs", "1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"), ("--max-norm-s", "nan"),
    ("--lr", "nan"), ("--lr", "inf"), ("--beta1", "1.0"), ("--beta2", "nan"),
    ("--eps", "0"), ("--forget-bias", "nan"),
    ("--dh", "0"), ("--arch", "wide"), ("--dropout-embed", "1.5"), ("--num-classes", "1"),
    ("--num-classes", "-3"), ("--embedding-dim", "0"), ("--embedding-dim", "-1"),
    ("--seed", "-1"),
])
def test_train_cli_bad_setting_exits_2_before_writing(toy_tsv, tmp_path, capsys, flag, value):
    out_dir = tmp_path / "run"
    argv = ["train", "--train-path", toy_tsv, "--dl", "1", "--dh", "2", "--th", "3",
            "--embedding-dim", "4", "--epochs", "1", "--out-dir", str(out_dir), flag, value]
    if flag in ("--num-classes", "--beta1", "--beta2", "--eps"):
        # the class count is inferred from the data, and Adam's constants
        # are fixed, so none of these can be set
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        # the error names the setting
        assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} ")
    assert not out_dir.exists()


def test_train_cli_bad_setting_is_reported_before_the_data_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    for flag, value in (("--dh", "0"), ("--arch", "wide"), ("--dropout-embed", "1.5")):
        assert main(["train", "--train-path", str(missing), "--dl", "1", "--out-dir",
                     str(tmp_path / "run"), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} "), err
        assert "missing.tsv" not in err, err


def test_train_cli_none_flag_overrides_the_config_file(toy_tsv, tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text(f"train_path = {toy_tsv}\nmax_norm_s = 2.0\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(conf), "--dl", "1", "--dh", "2", "--th", "3",
                 "--embedding-dim", "4", "--epochs", "1", "--out-dir", str(out_dir),
                 "--max-norm-s", "none"]) == 0
    logged = json.loads(open(out_dir / "run.log", encoding="utf-8").readline())
    assert logged["max_norm_s"] is None


def test_eval_cli_round_trip(toy_tsv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", toy_tsv, "--dl", "1", "--dh", "4",
                 "--th", "8", "--embedding-dim", "12", "--epochs", "2",
                 "--batch-size", "8", "--dev-fraction", "0",
                 "--out-dir", str(out_dir), "--seed", "0"]) == 0
    capsys.readouterr()
    ckpt = str(out_dir / "model.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--data", toy_tsv]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accuracy 0.") or line == "accuracy 1.0000"
    acc = float(line.split()[1])
    # a floor just above the measured accuracy must flip the exit code
    assert main(["eval", "--checkpoint", ckpt, "--data", toy_tsv,
                 "--expect-min", str(acc + 0.01)]) == 1
    assert main(["eval", "--checkpoint", ckpt, "--data", toy_tsv,
                 "--expect-min", str(max(acc - 0.01, 0.0))]) == 0


def _train_toy(toy_tsv, out_dir, *flags):
    return main(["train", "--train-path", toy_tsv, "--dl", "1", "--dh", "4", "--th", "8",
                 "--embedding-dim", "12", "--epochs", "1", "--batch-size", "8",
                 "--out-dir", str(out_dir), "--seed", "0", *flags])


def test_eval_cli_rejects_labels_outside_the_models_classes(toy_tsv, tmp_path, capsys):
    assert _train_toy(toy_tsv, tmp_path / "run") == 0
    capsys.readouterr()
    three = tmp_path / "three.tsv"
    three.write_text("0\tthe movie\n2\ta great film\n1\tit was fun\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                 "--data", str(three)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label 2" in captured.err and str(three) in captured.err


def test_train_cli_reads_an_embeddings_file_with_a_count_dim_header(toy_tsv, tmp_path):
    words = sorted({w for line in Path(toy_tsv).read_text(encoding="utf-8").splitlines()
                    for w in line.split("\t")[1].split()})
    vec = tmp_path / "emb.vec"
    rows = [f"{w} " + " ".join(f"{0.01 * (k + j):.2f}" for j in range(5))
            for k, w in enumerate(words)]
    vec.write_text(f"{len(rows)} 5\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert _train_toy(toy_tsv, tmp_path / "run", "--embeddings-path", str(vec)) == 0
    config = json.loads((tmp_path / "run" / "run.log").read_text(encoding="utf-8").splitlines()[0])
    assert config["event"] == "config" and config["m"] == 5


def test_train_cli_rejects_non_finite_embeddings(toy_tsv, tmp_path, capsys):
    vec = tmp_path / "emb.txt"
    vec.write_text("the 0.5 0.1\nbad nan 0.1\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert _train_toy(toy_tsv, out_dir, "--embeddings-path", str(vec)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vec}: line 2: ") and "non-finite" in err, err
    assert not out_dir.exists()


@pytest.mark.parametrize("broken", ["bad-line", "latin-1"])
@pytest.mark.parametrize("flag", ["--train-path", "--dev-path", "--test-path",
                                  "--embeddings-path", "--config"])
def test_train_cli_input_errors_name_the_file(toy_tsv, tmp_path, capsys, flag, broken):
    toy = Path(toy_tsv).read_text(encoding="utf-8")
    words = sorted({w for line in toy.splitlines() for w in line.split("\t")[1].split()})
    # lines that parse, then a line that fits the format but is latin-1 text
    good, latin1 = {
        "--train-path": (toy, "1\tcaf\xe9\n"),
        "--dev-path": ("1\tgreat film\n", "1\tcaf\xe9\n"),
        "--test-path": ("0\tdull film\n", "0\tcaf\xe9\n"),
        "--embeddings-path": ("".join(f"{w} 0.1 0.2\n" for w in words), "caf\xe9 0.3 0.4\n"),
        "--config": ("dl = 1\n", "# caf\xe9\n"),
    }[flag]
    bad = latin1.encode("latin-1") if broken == "latin-1" else b"a line that does not parse\n"
    path = tmp_path / "input"
    path.write_bytes(good.encode("utf-8") + bad)
    out_dir = tmp_path / "run"
    # a second --train-path overrides the first
    assert main(["train", "--train-path", toy_tsv, flag, str(path), "--dl", "1", "--dh", "2",
                 "--th", "3", "--embedding-dim", "2", "--epochs", "1",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    reason = "not utf-8 text (" if broken == "latin-1" else f"line {len(good.splitlines()) + 1}: "
    assert err.startswith(f"error: {path}: {reason}"), err
    assert not out_dir.exists()


def test_prepare_data_undecodable_input_names_the_file_and_encoding(tmp_path, capsys):
    pos = tmp_path / "rt-polarity.pos"
    pos.write_bytes("clich\xe9 but charming\n".encode("latin-1"))
    out = tmp_path / "mr.tsv"
    assert main(["prepare-data", "--out", str(out),
                 "--raw", f"{pos}:1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pos}: not utf-8 text ")
    assert not out.exists()


@pytest.mark.parametrize("flags,setting", [
    (["--binary"], "binary"), (["--phrases"], "phrases"),
    (["--data-format", "sst_trees", "--phrases", "--cv-folds", "2"], "phrases"),
    (["--data-format", "sst_trees", "--phrases"], "phrases"),
])
def test_train_cli_data_flags_act_on_one_format(toy_tsv, tmp_path, capsys, flags, setting):
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", toy_tsv, "--out-dir", str(out_dir), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} ")
    assert not out_dir.exists()


def test_train_cli_single_label_without_num_classes_exits_2(tmp_path, capsys):
    # the largest label plus one would give 2 classes for a file of 1s
    for label in (0, 1):
        one = tmp_path / f"one{label}.tsv"
        one.write_text(f"{label}\tgreat film\n{label}\tfine film\n", encoding="utf-8")
        out_dir = tmp_path / f"run{label}"
        assert main(["train", "--train-path", str(one), "--out-dir", str(out_dir)]) == 2
        assert "two classes" in capsys.readouterr().err
        assert not out_dir.exists()


def test_a_dataset_file_that_yields_no_example_exits_2(toy_tsv, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n \n", encoding="utf-8")
    for flag in ("--dev-path", "--test-path"):
        out_dir = tmp_path / "run"
        assert main(["train", "--train-path", toy_tsv, flag, str(empty), "--epochs", "1",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no examples\n"
        assert not (out_dir / "run.log").exists()
    ckpt = str(Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no examples\n"
    # --binary drops the neutral roots before the check
    neutral = tmp_path / "neutral.txt"
    neutral.write_text("(2 (2 the) (2 film))\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(neutral),
                 "--data-format", "sst_trees", "--binary"]) == 2
    assert capsys.readouterr().err == f"error: {neutral}: no examples with a non-neutral label\n"
    assert main(["eval", "--checkpoint", ckpt, "--data", str(neutral),
                 "--data-format", "sst_trees"]) == 2
    assert "label 2, outside the model's 2 classes" in capsys.readouterr().err


def test_train_cli_embeddings_covering_no_corpus_word_exits_2(toy_tsv, tmp_path, capsys):
    vec = tmp_path / "emb.txt"
    vec.write_text("zebra 0.1 0.2\nquokka 0.3 0.4\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert _train_toy(toy_tsv, out_dir, "--embeddings-path", str(vec)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {vec}: covers no word of the corpus\n"
    assert not (out_dir / "run.log").exists()


def test_train_cli_config_key_set_twice_exits_2(toy_tsv, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"train_path = {toy_tsv}\ndl = 1\n\nepochs = 1\ndl = 4\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(conf), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {conf}: line 5: config key 'dl' is set twice\n"
    assert not (out_dir / "run.log").exists()
    # a flag still overrides a key the file sets once
    conf.write_text(f"train_path = {toy_tsv}\ndl = 1\n", encoding="utf-8")
    assert build_train_config(str(conf), {"dl": 4}).dl == 4


def test_train_cli_divergence_exits_1(tmp_path, capsys):
    # finite vectors at the edge of float64 overflow once embedding dropout
    # scales them by 2
    data = tmp_path / "d.tsv"
    data.write_text("1\tgood film\n0\tbad film\n1\tgood\n0\tbad\n1\ta good one\n0\tnot good\n",
                    encoding="utf-8")
    vec = tmp_path / "emb.txt"
    vec.write_text("good 1e308 -1e308 1e308\n", encoding="utf-8")
    assert main(["train", "--train-path", str(data), "--embeddings-path", str(vec),
                 "--dl", "1", "--dh", "2", "--th", "3", "--epochs", "1",
                 "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at epoch 1 batch 0 (seed 0)"), err
    # the run log says why it stops, and no checkpoint is written
    lines = (tmp_path / "run" / "run.log").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1]) == {"event": "diverged", "tag": "train", "epoch": 1,
                                     "batch": 0, "seed": 0}
    assert [json.loads(line)["event"] for line in lines] == ["config", "diverged"]
    assert not (tmp_path / "run" / "model.ckpt").exists()


@pytest.mark.parametrize("pretrained", [False, True])
def test_eval_cli_reproduces_the_runs_test_accuracy(toy_tsv, tmp_path, capsys, pretrained):
    # every third test sentence carries words the training file never uses
    test = tmp_path / "test.tsv"
    test.write_text("".join(line + (" zany quixotic zany" if k % 3 == 0 else "") + "\n"
                            for k, line in enumerate(_toy_corpus_lines(n=40, seed=11))),
                    encoding="utf-8")
    flags = ["--test-path", str(test), "--epochs", "3", "--dev-fraction", "0.2", "--seed", "3"]
    if pretrained:
        # the table also lacks two training words
        words = sorted({w for line in Path(toy_tsv).read_text(encoding="utf-8").splitlines()
                        for w in line.split("\t")[1].split()} - {"film", "cold"})
        vec = tmp_path / "emb.txt"
        vec.write_text("".join(f"{w} " + " ".join(f"{0.1 * ((k * 7 + j) % 5 - 2):.1f}"
                                                  for j in range(6)) + "\n"
                               for k, w in enumerate(words)), encoding="utf-8")
        flags += ["--embeddings-path", str(vec)]
    out_dir = tmp_path / "run"
    assert _train_toy(toy_tsv, out_dir, *flags) == 0
    capsys.readouterr()
    result = json.loads((out_dir / "run.log").read_text(encoding="utf-8").splitlines()[-1])
    assert result["event"] == "result"
    assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"), "--data", str(test)]) == 0
    assert capsys.readouterr().out == f"accuracy {result['test_acc']:.4f}\n"


def test_shipped_configs_parse_into_a_valid_train_config():
    confs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))
    assert [p.name for p in confs] == ["sst2_glove.conf", "toy.conf"]
    for path in confs:
        values = parse_config_file(path)
        assert values["train_path"], path
        TrainConfig(**values).validate()


@pytest.mark.parametrize("floor", ["nan", "-0.1", "1.5"])
def test_eval_cli_rejects_a_floor_outside_0_1(tmp_path, capsys, floor):
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    ckpt = Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--expect-min", floor]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --expect-min "), captured


def test_eval_cli_bad_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint\n")
    assert main(["eval", "--checkpoint", str(bad), "--data", str(bad)]) == 2
    # a checkpoint with no vocabulary cannot embed text
    cfg = ModelConfig(m=4, dl=1, dh=2, th=3, num_classes=2)
    bare = tmp_path / "bare.ckpt"
    bare.write_bytes(checkpoint_without_embeddings(
        tmp_path / "good.ckpt", Model.build(cfg, np.random.default_rng(0)), vocab_section=False))
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bare), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bare}: expected key 'vocab', got 'tensors'\n"


def test_eval_cli_rejects_a_tensor_given_twice(tmp_path, capsys):
    cfg = ModelConfig(m=4, dl=1, dh=2, th=3, num_classes=2)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, Model.build(cfg, np.random.default_rng(0)), 0,
                    vocab={"film": 2, "great": 3}, emb_matrix=np.zeros((4, 4)))
    twice = tmp_path / "twice.ckpt"
    twice.write_bytes(good.read_bytes().replace(b"\ntensors 11\n", b"\ntensors 12\n", 1)
                      + b"softmax.b 1 2\n" + bytes(16))
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(twice), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {twice}: expected 11 tensors for dl = 1, got '12'\n"


@pytest.mark.parametrize("rows,cols", [(99999999999, 99999999999), (3000000000, 1000)])
def test_eval_cli_rejects_a_tensor_larger_than_the_file(tmp_path, capsys, rows, cols):
    # a header must give the shape the settings give, so it is refused before any read
    good = (Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt").read_bytes()
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(good.replace(b"\ndense0.fwd.W 6 8\n",
                                  f"\ndense0.fwd.W {rows} {cols}\n".encode(), 1))
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(huge), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {huge}: expected tensor header 'dense0.fwd.W 6 8', "
                            f"got 'dense0.fwd.W {rows} {cols}'\n")


@pytest.mark.parametrize("num_classes", [99999999999, 10**18])
def test_eval_cli_reads_a_tensor_the_settings_make_huge_in_pieces(tmp_path, capsys, num_classes):
    # settings and header agree on a softmax weight larger than the file (and,
    # at 10**18 classes, than an index), which is read in bounded pieces, so
    # eval never allocates its size
    good = (Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt").read_bytes()
    huge = tmp_path / "huge.ckpt"
    header = f"softmax.W 6 {num_classes}\n".encode()
    blob = good.replace(b"\nnum_classes 2\n", f"\nnum_classes {num_classes}\n".encode(), 1)
    blob = blob.replace(b"softmax.W 6 2\n", header, 1)
    huge.write_bytes(blob)
    left = len(blob) - blob.index(header) - len(header)
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(huge), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {huge}: truncated tensor softmax.W: 6x{num_classes} needs "
                            f"{6 * num_classes * 8} bytes, {left} are left\n")


def test_eval_cli_rejects_embeddings_that_do_not_fit_the_vocab(tmp_path, capsys):
    # four tokens (ids 2..5) and three rows: "great" (id 4) has no vector
    model = Model.build(ModelConfig(m=4, dl=1, dh=2, th=3, num_classes=2),
                        np.random.default_rng(0))
    short = tmp_path / "short.ckpt"
    short.write_bytes(checkpoint_with_vocab(tmp_path / "good.ckpt", model,
                                            ["film", "fine", "great", "the"], np.zeros((3, 4))))
    data = tmp_path / "two.tsv"
    data.write_text("1\tgreat film\n0\tthe film\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(short), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {short}: expected tensor header 'embeddings 6 4', "
                            f"got 'embeddings 3 4'\n")


def _write_trees(path, depth=5000):
    # a positive and a negative root, a neutral one, and a tree `depth` deep
    path.write_text("(3 (2 The) (4 (2 film) (4 great)))\n"
                    "(2 (2 the) (2 film))\n"
                    "(1 (2 the)\t(0 film))\n"
                    + "(4 " * depth + "great" + ")" * depth + "\n", encoding="utf-8")


def test_eval_cli_reads_sst_trees(tmp_path, capsys):
    trees = tmp_path / "trees.txt"
    _write_trees(trees)
    # the same roots with the neutral one dropped and the labels made binary
    tsv = tmp_path / "roots.tsv"
    tsv.write_text("1\tthe film great\n0\tthe film\n1\tgreat\n", encoding="utf-8")
    ckpt = str(Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tsv)]) == 0
    expected = capsys.readouterr().out
    assert main(["eval", "--checkpoint", ckpt, "--data", str(trees),
                 "--data-format", "sst_trees", "--binary"]) == 0
    assert capsys.readouterr().out == expected
    # the flag is spelt as train spells it; the old spelling is a usage error
    for old in (["--format", "sst_trees"], ["--format"], ["--format=tsv"]):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--checkpoint", ckpt, "--data", str(trees), *old, "--binary"])
        assert info.value.code == 2, old
        assert capsys.readouterr().out == "", old
    # --binary acts on trees only, in train's words
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tsv), "--binary"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: binary needs data format sst_trees\n"


def test_eval_cli_binary_needs_a_two_class_model(tmp_path, capsys):
    # 0/1 labels are in range for a five-class model, which would score them silently
    trees = tmp_path / "trees.txt"
    _write_trees(trees, depth=50)
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", str(trees), "--data-format", "sst_trees",
                 "--dev-fraction", "0", "--dl", "1", "--dh", "2", "--th", "3",
                 "--embedding-dim", "4", "--epochs", "1", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    ckpt = str(out_dir / "model.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(trees),
                 "--data-format", "sst_trees", "--binary"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {ckpt}: --binary needs a two-class model, "
                            f"not one of 5 classes\n")


def test_train_cli_reads_sst_trees(tmp_path):
    trees = tmp_path / "trees.txt"
    _write_trees(trees, depth=50)
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", str(trees), "--data-format", "sst_trees",
                 "--binary", "--phrases", "--dev-fraction", "0", "--dl", "1", "--dh", "2",
                 "--th", "3", "--embedding-dim", "4", "--epochs", "1",
                 "--out-dir", str(out_dir)]) == 0
    config = json.loads((out_dir / "run.log").read_text(encoding="utf-8").splitlines()[0])
    assert config["resolved_num_classes"] == 2


def test_train_cli_glued_tree_label_exits_2(tmp_path, capsys):
    trees = tmp_path / "glued.txt"
    trees.write_text("(3 (2 good)(37film))\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", str(trees), "--data-format", "sst_trees",
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {trees}: line 1: ")
    assert not out_dir.exists()


def test_prepare_data_lines(tmp_path, capsys):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("a charming film\n", encoding="utf-8")
    neg.write_text("a dreary slog\nanother dud\n", encoding="utf-8")
    out = tmp_path / "mr.tsv"
    assert main(["prepare-data", "--out", str(out),
                 "--raw", f"{pos}:1", "--raw", f"{neg}:0"]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows == ["1\ta charming film", "0\ta dreary slog", "0\tanother dud"]
    capsys.readouterr()
    assert main(["prepare-data", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: prepare-data needs at least one --raw PATH:LABEL\n"


@pytest.mark.parametrize("inputs", [
    [("empty.txt", "")],
    [("blank.txt", "\n \n\t\n")],
    [("pos.txt", "a charming film\n"), ("empty.txt", "")],
], ids=["empty", "blank", "good-and-empty"])
def test_prepare_data_rejects_an_input_that_yields_no_example(tmp_path, capsys, inputs):
    raw = []
    for label, (name, text) in enumerate(inputs):
        (tmp_path / name).write_text(text, encoding="utf-8")
        raw += ["--raw", f"{tmp_path / name}:{label}"]
    out = tmp_path / "mr.tsv"
    assert main(["prepare-data", "--out", str(out), *raw]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / inputs[-1][0]}: no examples\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--encoding", "bogus"], ["--raw", "{neg}:-1"],
                                 ["--raw", "{neg}:x"], ["--raw", "{neg}"],
                                 ["--raw", "{neg}:\u0663"]])
def test_prepare_data_lines_checks_its_flags_before_reading(tmp_path, capsys, bad):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("a charming film\n", encoding="utf-8")
    neg.write_text("a dreary slog\n", encoding="utf-8")
    out = tmp_path / "mr.tsv"
    flags = [arg.format(neg=neg) for arg in bad]
    assert main(["prepare-data", "--out", str(out),
                 "--raw", f"{pos}:1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad[0]}"), err
    assert not out.exists()


def test_cli_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count-params", "--dl", "1"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    # prepare-data reads no trees; train and eval read them directly
    # and it has no --format: its one input format is one sentence a line
    for flags in (["--format", "lines"], ["--format", "sst"], ["--input", "t.txt"],
                  ["--binary"], ["--phrases"]):
        with pytest.raises(SystemExit) as info:
            main(["prepare-data", "--out", "o.tsv", "--raw", "p.txt:1", *flags])
        assert info.value.code == 2, flags
    capsys.readouterr()
