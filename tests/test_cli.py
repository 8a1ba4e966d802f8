import csv
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from actlab import cli
from actlab.act import ActConfig
from actlab.cells import init_params
from actlab.checkpoint import save_checkpoint
from actlab.cli import _entropy_bits, main
from actlab.config import (KEYMAP, ConfigError, TrainConfig, config_digest,
                           config_text, parse_config, parse_config_text,
                           resolved_spec)
from actlab.optim import OptimizerState
from actlab.tasks import TASKS, derive_seeds, synth_corpus
from actlab.trainer import evaluate, make_batch

from oracles import run_sequence
from test_tasks import decode_addition_inputs, decode_addition_target


ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CKPT = str(ROOT / "tests" / "fixtures" / "ckpt_parity_rnn6_v1.bin")


def run_cli(argv, cwd=None):
    """Run the CLI in-process, capturing stdout; returns (code, stdout)."""
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestConfigParsing:
    def test_empty_file_parity_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(str(path))
        assert config.task == "parity"
        assert config.batch == 128          # reference minibatch for parity
        assert config.cell == "rnn"
        assert config.hidden == 128
        assert config.epsilon == 0.01
        assert config.max_steps == 100

    def test_task_defaults_mirror_reference_setup(self):
        logic = parse_config_text("task.name = logic")
        assert (logic.batch, logic.cell, logic.hidden) == (16, "lstm", 128)
        addition = parse_config_text("task.name = addition")
        assert (addition.batch, addition.max_steps) == (32, 20)
        sort_cfg = parse_config_text("task.name = sort")
        assert (sort_cfg.batch, sort_cfg.hidden) == (16, 512)

    def test_override_is_echoed(self):
        config = parse_config_text("task.name = parity", ["act.tau=6e-3"])
        assert config.tau == 6e-3
        assert "act.tau = 0.006" in config_text(config)

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match=r"act\.taux.*act\.tau"):
            parse_config_text("act.taux = 1e-3")

    @pytest.mark.parametrize("key,former,other", [
        ("train.workers", "1", "2"),
        ("task.parity_nonzero", "false", "true"),
    ], ids=["train.workers", "task.parity_nonzero"])
    def test_retired_key(self, key, former, other):
        # Accepted at its one former value, so old config texts still load.
        assert parse_config_text(f"{key} = {former}") == parse_config_text("")
        with pytest.raises(ConfigError, match=f"{key}: .*only {former} is accepted"):
            parse_config_text(f"{key} = {other}")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("train.iterations = soon")

    def test_out_of_range_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config_text("act.epsilon = 0.75")

    @pytest.mark.parametrize("override,name", [("act.max_steps=0", "max_steps"),
                                               ("act.tau=-1e-3", "time_penalty")])
    def test_out_of_range_step_cap_and_penalty(self, override, name):
        with pytest.raises(ConfigError, match=name):
            parse_config_text("", [override])

    @pytest.mark.parametrize("overrides,key", [
        (["train.eval_every=0"], "train.eval_every"),
        (["train.eval_batches=0"], "train.eval_batches"),
        (["task.name=addition", "task.min_digits=4", "task.max_digits=2"],
         "task.min_digits"),
        (["task.name=text", "task.seq_len=0"], "task.seq_len"),
        (["task.name=logic", "task.min_len=0"], "task.min_len"),
        (["task.name=logic", "task.max_len=0"], "task.max_len"),
        (["task.bits=0"], "task.bits"),
        (["task.name=sort", "task.min_len=1"], "task.min_len"),
        (["task.name=sort", "task.max_len=16"], "task.max_len"),
        (["task.name=addition", "task.max_digits=6"], "task.max_digits"),
        (["task.name=addition", "task.min_digits=-1"], "task.min_digits"),
    ])
    def test_values_training_cannot_run_are_rejected(self, overrides, key):
        # Each of these used to pass resolve and crash training later.
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config_text("", overrides)

    def test_addition_sums_must_fit_their_six_digits(self):
        # Ten 5-digit numbers sum to at most 999,990; eleven can reach 10**6.
        # The default (and benchmark) addition config has max_len 5.
        assert parse_config_text("", ["task.name=addition"]).max_len == 5
        parse_config_text("", ["task.name=addition", "task.max_len=10"])
        parse_config_text("", ["task.name=addition", "task.max_len=40",
                               "task.max_digits=4"])
        with pytest.raises(ConfigError,
                           match=r"task\.max_len 11 and task\.max_digits 5"):
            parse_config_text("", ["task.name=addition", "task.max_len=11"])

    @pytest.mark.parametrize("override", [
        "act.tau=nan", "act.tau=inf",
        "train.lr=nan", "train.lr=inf", "train.lr=0", "train.lr=-1",
        "train.beta1=1.0", "train.beta1=-0.1", "train.beta1=nan",
        "train.beta2=1.5", "train.beta2=nan",
        "train.adam_eps=-1", "train.adam_eps=0", "train.adam_eps=nan",
        "train.clip_norm=-1", "train.clip_norm=inf", "train.clip_norm=nan",
        "train.checkpoint_every=-5",
    ])
    def test_run_values_that_break_training_are_rejected(self, override):
        # Each of these used to pass resolve, then either trained silently
        # or died at the first iteration with a numeric failure.
        key = override.split("=")[0].split(".")[1]
        with pytest.raises(ConfigError, match=key.replace("tau", "time_penalty")):
            parse_config_text("", [override])

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# a comment\n\ntask.name = sort  # trailing\n")
        assert config.task == "sort"

    def test_line_without_equals_names_its_line(self):
        with pytest.raises(ConfigError,
                           match=re.escape("run.cfg:2: expected 'key = value'")):
            parse_config_text("# header\ntask.name parity\n", origin="run.cfg")

    def test_override_without_equals_is_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "override 'task.name' is not of the form key=value")):
            parse_config_text("", ["task.name"])

    def test_unreadable_config_path_is_config_error(self, tmp_path):
        missing = str(tmp_path / "missing.cfg")
        with pytest.raises(ConfigError,
                           match=re.escape(f"cannot read config {missing!r}: ")):
            parse_config(missing)
        assert run_cli(["train", "--config", missing,
                        "--out-dir", str(tmp_path / "out")])[0] == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        (["task.name=chess"], "unknown task 'chess'; expected one of "
                              "['addition', 'logic', 'parity', 'sort', 'text']"),
        (["cell.kind=gru"], "cell.kind must be rnn or lstm, got 'gru'"),
        (["task.name=logic", "task.min_len=5", "task.max_len=3"],
         "task.min_len exceeds task.max_len"),
    ], ids=["task", "cell", "lengths"])
    def test_unknown_or_inverted_values_are_config_errors(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text("", overrides)

    def test_config_text_roundtrips(self):
        configs = [parse_config_text("task.name = logic", ["act.tau=0.003"])]
        configs += [parse_config_text(f"task.name = {task}") for task in TASKS]
        every = {"task.name": "addition", "task.batch": 7, "task.bits": 9,
                 "task.min_len": 2, "task.max_len": 4, "task.min_digits": 2,
                 "task.max_digits": 3, "task.seq_len": 33,
                 "task.corpus": "runs/a b=c.bin", "cell.kind": "rnn",
                 "cell.hidden": 5, "act.epsilon": 0.05, "act.max_steps": 7,
                 "act.tau": 0.0031, "train.lr": 0.00123, "train.beta1": 0.8,
                 "train.beta2": 0.99, "train.adam_eps": 1e-7,
                 "train.iterations": 12, "train.eval_every": 3,
                 "train.eval_batches": 2, "train.checkpoint_every": 4,
                 "train.clip_norm": 1.5, "train.seed": 6}
        assert set(every) == set(KEYMAP)
        configs.append(parse_config_text(
            "", [f"{key}={value}" for key, value in every.items()]))
        for config in configs:
            assert parse_config_text(config_text(config)) == config
        assert configs[-1].corpus == "runs/a b=c.bin"

    @pytest.mark.parametrize("value", ["a#b", "a\nb", "a\rb", "a\n",
                                       "a\u2028b"])
    def test_values_config_text_cannot_hold_are_rejected(self, value):
        # `#` starts a comment and a line break ends the line, so the
        # config text written into a run would read back differently.
        with pytest.raises(ConfigError, match="task.corpus"):
            parse_config_text("", [f"task.corpus={value}"])

    @pytest.mark.parametrize("task,digest", [
        ("parity", "2e185ae127b0fc1d6a538be20eeeee3154f90725b52fa207ff419e95438d258b"),
        ("logic", "e1ff36f2bf22b9427e57b3cf80d45d4016514143a63c81691167421a3852fe81"),
        ("addition", "583c30d13f1e3f706c453941c884eeb8aacd81ab81a86ecf178a4d6f8fe0aee9"),
        ("sort", "53c815cbf65431bd077cfcf15d011f7769aa11fd39a212c2d2088f343b255a40"),
        ("text", "fa416f65d20a942680868423b9949e2111689fbda219c3d426a48f0a95b7b287"),
    ])
    def test_default_config_digests_are_pinned(self, task, digest):
        # Every manifest and checkpoint records this digest, so a change to
        # any default, key name or rendering shows here first.
        assert config_digest(parse_config_text(f"task.name = {task}")) == digest

    def test_task_defaults_fill_every_unset_field(self):
        unset = {f.name for f in fields(TrainConfig) if f.default is None}
        for spec in TASKS.values():
            assert set(spec.defaults) == unset, spec.name

    def test_readme_table_names_every_key(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        named = set()
        for row in section.splitlines():
            if row.startswith("| `"):     # a key row: not the header or rule
                named.update(re.findall(r"`(\w+\.\w+)`", row.split("|")[1]))
        assert named == set(KEYMAP)


@pytest.fixture(scope="module")
def parity_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "parity.cfg"
    cfg.write_text("task.name = parity\ntask.bits = 8\ntask.batch = 8\n"
                   "cell.hidden = 12\nact.tau = 1e-2\nact.max_steps = 6\n"
                   "train.iterations = 30\ntrain.eval_every = 15\n"
                   "train.eval_batches = 1\ntrain.seed = 3\n")
    out = root / "run"
    code, _ = run_cli(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0
    return root, cfg, out


class TestTrainEvalCommands:
    def test_train_writes_run_directory(self, parity_run):
        _, _, out = parity_run
        assert (out / "ckpt-final.bin").exists()
        assert (out / "metrics.jsonl").exists()
        assert (out / "config.txt").exists()
        assert (out / "manifest.json").exists()

    def test_stdout_flag_streams_metrics(self, parity_run):
        root, cfg, _ = parity_run
        code, stdout = run_cli(["train", "--config", str(cfg),
                                "--out-dir", str(root / "run2"), "--stdout"])
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert [r["iteration"] for r in rows] == [15, 30]

    def test_eval_cross_checks_training_metrics(self, parity_run):
        _, _, out = parity_run
        code, stdout = run_cli(["eval", "--checkpoint",
                                str(out / "ckpt-final.bin"), "--batches", "2",
                                "--stdout"])
        assert code == 0
        row = json.loads(stdout)
        assert 0.0 <= row["sequence_error_rate"] <= 1.0
        assert row["mean_ponder"] >= 1.0

    def test_eval_record_appends_capped_fraction_of_evaluate(self, tmp_path):
        config = parse_config_text("", ["task.bits=6", "task.batch=8",
                                        "cell.hidden=5", "act.max_steps=2"])
        spec = resolved_spec(config)
        params = init_params("rnn", spec.input_size, 5, spec.output_size, seed=1,
                             halt_bias=0.0)
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(path, params, OptimizerState.for_params(params), config)
        code, stdout = run_cli(["eval", "--checkpoint", path, "--batches", "2",
                                "--seed", "4", "--stdout"])
        assert code == 0
        row = json.loads(stdout)
        rng = np.random.default_rng(4)
        metrics, _ = evaluate(spec, params, config.act_config(),
                              [make_batch(config, rng) for _ in range(2)])
        assert row["schema"] == 2
        assert list(row) == ["schema", "checkpoint", "batches",
                             *metrics.to_dict(), "capped_fraction"]
        assert row["capped_fraction"] == metrics.capped_fraction
        assert 0.0 < row["capped_fraction"] < 1.0

    def test_eval_out_writes_the_line_stdout_prints(self, parity_run, tmp_path):
        _, _, out = parity_run
        record = tmp_path / "eval.json"
        code, stdout = run_cli(["eval", "--checkpoint", str(out / "ckpt-final.bin"),
                                "--batches", "1", "--out", str(record), "--stdout"])
        assert code == 0
        assert record.read_text() == stdout
        assert json.loads(stdout)["batches"] == 1

    def test_sweep_stdout_prints_the_summary_table(self, tmp_path):
        code, stdout = run_cli(["sweep", "--set", "task.bits=4", "--set", "cell.hidden=3",
                                "--set", "task.batch=2", "--set", "train.iterations=1",
                                "--set", "train.eval_batches=1", "--taus", "0.01",
                                "--replicas", "1", "--stdout",
                                "--out-dir", str(tmp_path / "d")])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[:2] == ["# schema: sweep-summary-1",
                             "tau,n_runs,n_failed,error_mean,error_stderr,"
                             "ponder_mean,ponder_stderr"]
        assert len(lines) == 3
        assert lines[2].startswith("0.01,1,0,")

    def test_gradcheck_stdout_prints_the_report(self):
        code, stdout = run_cli(["gradcheck", "--set", "task.bits=4",
                                "--set", "cell.hidden=3", "--max-coords", "1",
                                "--stdout"])
        assert code == 0
        payload = json.loads(stdout)
        assert list(payload) == ["max_rel_err", "coords_checked", "coords_skipped",
                                 "ponder_closed_form_ok", "halt_gradient_zero_ok",
                                 "per_param"]
        assert payload["ponder_closed_form_ok"] is True
        assert payload["halt_gradient_zero_ok"] is True

    def test_eval_difficulty_table(self, parity_run, tmp_path):
        _, _, out = parity_run
        table = tmp_path / "diff.csv"
        code, _ = run_cli(["eval", "--checkpoint", str(out / "ckpt-final.bin"),
                           "--batches", "1", "--difficulty-csv", str(table)])
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "# schema: difficulty-table-1"
        assert lines[1] == "difficulty,count,mean_ponder,mean_steps,mean_error"
        assert len(lines) > 2


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("act.taux = 1\n")
        code, _ = run_cli(["train", "--config", str(bad),
                           "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--task", "parity", "--count", "0"],
        ["gen", "--task", "corpus", "--size", "0"],
        ["eval", "--checkpoint", "model.bin", "--batches", "0"],
        ["gradcheck", "--examples", "0"],
        ["gradcheck", "--max-coords", "0"],
        ["sweep", "--replicas", "0"],
        ["sweep", "--workers", "0"],
        ["trace", "--checkpoint", "model.bin", "--count", "0", "--stdout"],
    ])
    def test_counts_below_one_exit_two(self, argv, tmp_path, capsys):
        if argv[0] in ("gen", "sweep"):
            argv = argv + ["--out" if argv[0] == "gen" else "--out-dir",
                           str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["train", "--set", "train.seed=-1"],
        ["sweep", "--seed", "-1", "--taus", "0.01"],
        ["gradcheck", "--seed", "-1"],
        ["gen", "--task", "parity", "--seed", "-1"],
        ["eval", "--checkpoint", FIXTURE_CKPT, "--seed", "-1"],
        ["trace", "--checkpoint", FIXTURE_CKPT, "--seed", "-2", "--stdout"],
    ], ids=["train", "train-set", "sweep", "gradcheck", "gen", "eval", "trace"])
    def test_negative_seed_exits_two(self, argv, tmp_path, capsys, caplog):
        if argv[0] in ("train", "sweep"):
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        elif argv[0] == "gen":
            argv = argv + ["--out", str(tmp_path / "out")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        # argparse writes its usage error to stderr; main logs ConfigError.
        message = capsys.readouterr().err + caplog.text
        assert re.search(r"must be >= 0, got -[12]", message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["hash#dir/corpus.bin", "line\nbreak.bin"])
    def test_value_config_text_cannot_hold_exits_two(self, name, tmp_path):
        # A readable corpus: the run would train, then write config text
        # that reads back another path or does not parse.
        corpus = tmp_path / name
        corpus.parent.mkdir(exist_ok=True)
        corpus.write_bytes(synth_corpus(1, size=200))
        code, _ = run_cli(["train", "--set", "task.name=text",
                           "--set", f"task.corpus={corpus}",
                           "--set", "task.seq_len=5", "--set", "cell.hidden=4",
                           "--set", "train.iterations=1",
                           "--set", "train.eval_batches=1",
                           "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_addition_that_can_overflow_exits_two_before_any_run_file(
            self, tmp_path, caplog):
        # It crashed in gen_addition after config.txt, manifest.json and
        # metrics.jsonl were written.
        code, _ = run_cli(["train", "--set", "task.name=addition",
                           "--set", "task.min_len=30", "--set", "task.max_len=30",
                           "--set", "task.min_digits=5", "--set", "cell.hidden=4",
                           "--set", "train.iterations=1",
                           "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert "task.max_len 30 and task.max_digits 5 let a sum pass" in caplog.text

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_bad_gradcheck_tolerance_exits_two(self, tolerance, capsys):
        # These ran the whole check, then failed it with exit 3.
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--tolerance", tolerance])
        assert exc.value.code == 2
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_checkpoint_missing_a_record_is_io_error(self, parity_run, tmp_path):
        _, cfg, _ = parity_run
        config = parse_config(str(cfg))
        params = init_params("rnn", config.n_bits, config.hidden, 1, seed=0)
        state = OptimizerState.for_params(params)
        del state.v["b_halt"]
        path = str(tmp_path / "partial.bin")
        save_checkpoint(path, params, state, config)
        assert run_cli(["eval", "--checkpoint", path])[0] == 4

    def test_non_finite_halting_weight_is_numeric_failure(self, tmp_path, caplog):
        config = parse_config_text("", ["task.bits=6", "cell.hidden=4"])
        params = init_params("rnn", 6, 4, 1, seed=0)
        params.w_halt[0, 0] = np.nan
        path = str(tmp_path / "nan.bin")
        save_checkpoint(path, params, OptimizerState.for_params(params), config)
        code, stdout = run_cli(["eval", "--checkpoint", path, "--batches", "1",
                                "--stdout"])
        assert (code, stdout) == (3, "")
        assert ("numeric failure: halting activation is not finite at input "
                "step 0, update 1") in caplog.text

    def test_missing_checkpoint_is_io_error(self):
        code, _ = run_cli(["eval", "--checkpoint", "/nonexistent/model.bin"])
        assert code == 4

    def test_corrupt_checkpoint_is_io_error(self, parity_run, tmp_path):
        _, _, out = parity_run
        blob = bytearray((out / "ckpt-final.bin").read_bytes())
        blob[20] ^= 0xFF
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(bytes(blob))
        code, _ = run_cli(["eval", "--checkpoint", str(bad)])
        assert code == 4

    def test_gradcheck_seeds_are_children_of_the_run_seed(self, monkeypatch):
        seen = {}

        def record(name, fn, seed_index):
            def wrapped(*args, **kwargs):
                seen[name] = (args[seed_index] if seed_index is not None
                              else kwargs["seed"])
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "make_batch", record("batch", cli.make_batch, 1))
        monkeypatch.setattr(cli, "init_params",
                            record("init", cli.init_params, None))
        monkeypatch.setattr(cli, "halting_gradient_check",
                            record("coords", cli.halting_gradient_check, None))
        code, _ = run_cli(["gradcheck", "--seed", "5", "--set", "task.bits=4",
                           "--set", "cell.hidden=3", "--max-coords", "1"])
        assert code == 0
        assert [(s.entropy, s.spawn_key) for s in (
            seen["batch"], seen["init"], seen["coords"])] == [
            (s.entropy, s.spawn_key) for s in derive_seeds(5, 3)]

    def test_gradcheck_on_too_large_a_network_is_config_error(self, monkeypatch,
                                                             caplog):
        # The default parity config has 128 hidden units; the check says so
        # before it draws a batch or an initialization.
        def refuse(*args, **kwargs):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(cli, "make_batch", refuse)
        monkeypatch.setattr(cli, "init_params", refuse)
        assert run_cli(["gradcheck"])[0] == 2
        assert "cell.hidden" in caplog.text

    def test_gradcheck_failure_is_numeric(self, parity_run):
        root, cfg, _ = parity_run
        # The smallest positive tolerance forces the failure path; 0 is
        # rejected as an argument (exit 2).
        code, _ = run_cli(["gradcheck", "--config", str(cfg),
                           "--set", "cell.hidden=6", "--tolerance", "5e-324"])
        assert code == 3

    def test_train_divergence_in_a_rows_eval_exits_three(self, tmp_path):
        sets = ["task.name=addition", "task.batch=4", "cell.hidden=8",
                "task.max_len=2", "act.tau=1e-2", "train.iterations=50",
                "train.eval_every=1", "train.eval_batches=1", "train.lr=1e308"]
        argv = ["train", "--out-dir", str(tmp_path / "run")]
        for kv in sets:
            argv += ["--set", kv]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        assert (tmp_path / "run" / "ckpt-lastgood.bin").exists()


class TestGenCommand:
    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["gen", "--task", "parity", "--seed", "7",
                        "--count", "4", "--out", str(a)])[0] == 0
        assert run_cli(["gen", "--task", "parity", "--seed", "7",
                        "--count", "4", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_logic_fixture_gate_ids_in_range(self, tmp_path):
        out = tmp_path / "logic.csv"
        run_cli(["gen", "--task", "logic", "--seed", "1", "--count", "8",
                 "--out", str(out)])
        with open(out) as fh:
            fh.readline()                      # schema comment
            for row in csv.DictReader(fh):
                vec = np.array([float(row[f"in_{i}"]) for i in range(102)])
                for c in range(10):
                    chunk = vec[2 + 10 * c: 12 + 10 * c]
                    assert chunk.sum() in (0.0, 1.0)
                    if chunk.sum() == 1.0:
                        assert 1 <= int(np.argmax(chunk)) + 1 <= 10

    def test_addition_fixture_rows_decode_to_running_sums(self, tmp_path):
        out = tmp_path / "addition.csv"
        run_cli(["gen", "--task", "addition", "--seed", "2", "--count", "8",
                 "--out", str(out)])
        sums: dict[int, int] = {}
        with open(out) as fh:
            fh.readline()
            for row in csv.DictReader(fh):
                e, t = int(row["example"]), int(row["t"])
                if t >= int(row["length"]):
                    continue
                vec = np.array([float(row[f"in_{i}"]) for i in range(50)])
                sums[e] = sums.get(e, 0) + decode_addition_inputs(vec)
                if int(row["mask"]):
                    target = [int(row[f"target_g{g}"]) for g in range(6)]
                    assert decode_addition_target(np.array(target)) == sums[e]

    def test_text_without_readable_corpus_is_config_error(self, tmp_path):
        out = str(tmp_path / "text.csv")
        assert run_cli(["gen", "--task", "text", "--out", out])[0] == 2
        assert run_cli(["gen", "--task", "text", "--out", out, "--corpus",
                        str(tmp_path / "missing.bin")])[0] == 2

    def test_text_window_defaults_to_task_seq_len(self, tmp_path):
        corpus, out = tmp_path / "corpus.bin", tmp_path / "text.csv"
        corpus.write_bytes(bytes(range(256)) * 4)
        assert run_cli(["gen", "--task", "text", "--corpus", str(corpus),
                        "--count", "1", "--out", str(out)])[0] == 0
        with open(out) as fh:
            fh.readline()                      # schema comment
            rows = list(csv.DictReader(fh))
        want = parse_config_text("", ["task.name=text"]).seq_len
        assert len(rows) == want == 500
        assert {row["length"] for row in rows} == {str(want)}

    def test_corpus_shorter_than_a_window_is_config_error(self, tmp_path,
                                                          caplog):
        corpus = tmp_path / "short.bin"
        corpus.write_bytes(bytes(range(100)))
        argv = ["--set", "task.name=text", "--set", f"task.corpus={corpus}",
                "--set", "task.seq_len=500", "--set", "cell.hidden=4"]
        assert run_cli(["gradcheck", *argv])[0] == 2
        assert run_cli(["train", *argv, "--set", "train.iterations=1",
                        "--out-dir", str(tmp_path / "run")])[0] == 2
        assert run_cli(["gen", "--task", "text", "--corpus", str(corpus),
                        "--seq-len", "500", "--out", str(tmp_path / "t.csv")])[0] == 2
        assert "short.bin" in caplog.text and "501" in caplog.text

    def test_sweep_with_unreadable_corpus_is_config_error(self, tmp_path, caplog):
        code, _ = run_cli(["sweep", "--set", "task.name=text", "--set",
                           "task.corpus=/nonexistent/corpus.bin", "--taus", "0.01",
                           "--replicas", "1", "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert "/nonexistent/corpus.bin" in caplog.text

    @pytest.mark.parametrize("taus", ["abc", "0.01,x", ",", "-1", "nan",
                                      "1e-3,1.0000001e-3"])
    def test_sweep_bad_taus_are_config_errors(self, taus, tmp_path):
        # Rejected before any run starts: no run directory is made. The
        # last two taus would share the directory name tau0.001.
        code, _ = run_cli(["sweep", "--set", "train.iterations=1", f"--taus={taus}",
                           "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert not (tmp_path / "d").exists()

    def test_sweep_without_iterations_is_config_error(self, tmp_path, caplog):
        # Every run used to "fail" on its missing final row, each with a
        # traceback, and the summary read 0,1,nan.
        code, _ = run_cli(["sweep", "--set", "train.iterations=0", "--taus=0.01",
                           "--replicas", "1", "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert not (tmp_path / "d").exists()
        assert "train.iterations >= 1" in caplog.text
        assert "Traceback" not in caplog.text

    def test_corpus_generation(self, tmp_path):
        out = tmp_path / "corpus.bin"
        code, _ = run_cli(["gen", "--task", "corpus", "--seed", "3",
                           "--size", "5000", "--out", str(out)])
        assert code == 0
        assert out.stat().st_size == 5000


class TestTraceCommand:
    def test_cap_one_trace_has_constant_ponder(self, tmp_path):
        cfg = tmp_path / "m1.cfg"
        cfg.write_text("task.name = parity\ntask.bits = 6\ntask.batch = 4\n"
                       "cell.hidden = 8\nact.max_steps = 1\n"
                       "train.iterations = 5\ntrain.eval_every = 5\n"
                       "train.eval_batches = 1\n")
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(cfg),
                        "--out-dir", str(out)])[0] == 0
        code, stdout = run_cli(["trace", "--checkpoint",
                                str(out / "ckpt-final.bin"), "--count", "3",
                                "--stdout"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "# schema: model-trace-1"
        for row in csv.DictReader(lines[1:]):
            assert row["steps"] == "1"
            assert float(row["ponder"]) == 2.0

    def test_trace_rows_match_per_sequence_reference(self, tmp_path):
        config = parse_config_text("task.name = logic\ncell.hidden = 8\n"
                                   "act.max_steps = 12\n")
        params = init_params("lstm", 102, 8, 1, seed=0, halt_bias=-2.0)
        ckpt = str(tmp_path / "logic.bin")
        save_checkpoint(ckpt, params, OptimizerState.for_params(params), config)
        code, stdout = run_cli(["trace", "--checkpoint", ckpt, "--count", "6",
                                "--seed", "2", "--stdout"])
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()[1:]))

        batch = make_batch(config, np.random.default_rng(2), batch_size=6)
        cfg = ActConfig(config.epsilon, config.max_steps)
        expected = []
        for e in range(batch.batch_size):
            res = run_sequence("lstm", params, cfg,
                               batch.inputs[e, :batch.lengths[e]])
            expected += [(e, t, tr) for t, tr in enumerate(res.traces)]
        assert len(rows) == len(expected)
        assert len({row["steps"] for row in rows}) > 1
        for row, (e, t, tr) in zip(rows, expected):
            assert (int(row["sequence"]), int(row["t"]), int(row["steps"])) \
                == (e, t, tr.steps_taken)
            assert abs(float(row["ponder"]) - tr.ponder) < 1e-12
            assert abs(float(row["remainder"]) - tr.remainder) < 1e-12
            np.testing.assert_allclose(
                [float(p) for p in row["probs"].split(";")], tr.halting_probs,
                rtol=0, atol=1e-12)

    def test_trace_survives_saturated_bce_readout(self, tmp_path):
        # A logit far below -709 overflows a scalar exp(-y); the trace
        # must still finish with finite entropies.
        config = parse_config_text("task.name = parity\ntask.bits = 6\n"
                                   "cell.hidden = 4\n")
        params = init_params("rnn", 6, 4, 1, seed=0)
        params.b_out[...] = -1000.0
        ckpt = str(tmp_path / "saturated.bin")
        save_checkpoint(ckpt, params, OptimizerState.for_params(params), config)
        code, stdout = run_cli(["trace", "--checkpoint", ckpt, "--count", "4",
                                "--stdout"])
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()[1:]))
        assert len(rows) == 4
        assert all(math.isfinite(float(row["entropy_bits"])) for row in rows)

    def test_trace_rejects_corpus_for_synthetic_checkpoint(self, parity_run,
                                                           tmp_path):
        _, _, out = parity_run
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(b"x" * 100)
        code, _ = run_cli(["trace", "--checkpoint", str(out / "ckpt-final.bin"),
                           "--corpus", str(corpus), "--stdout"])
        assert code == 2

    def test_trace_needs_out_or_stdout(self, caplog):
        assert run_cli(["trace", "--checkpoint", FIXTURE_CKPT])[0] == 2
        assert "trace requires --out or --stdout" in caplog.text

    def test_trace_corpus_replaces_a_text_checkpoints_corpus(self, tmp_path):
        trained_on = tmp_path / "corpus.bin"
        trained_on.write_bytes(synth_corpus(1, size=400))
        only_z = tmp_path / "z.bin"
        only_z.write_bytes(b"z" * 400)
        config = parse_config_text("", ["task.name=text", f"task.corpus={trained_on}",
                                         "task.seq_len=5", "cell.hidden=4"])
        spec = resolved_spec(config)
        params = init_params("lstm", spec.input_size, 4, spec.output_size, seed=0)
        ckpt = str(tmp_path / "text.bin")
        save_checkpoint(ckpt, params, OptimizerState.for_params(params), config)

        def inputs(*extra):
            code, stdout = run_cli(["trace", "--checkpoint", ckpt, "--count", "2",
                                    "--stdout", *extra])
            assert code == 0
            return [row["input"] for row in csv.DictReader(stdout.splitlines()[1:])]

        assert set(inputs()) != {"z"}
        assert inputs("--corpus", str(only_z)) == ["z"] * 10

    def test_uniform_distribution_entropy_is_eight_bits(self):
        assert abs(_entropy_bits(np.full(256, 1 / 256)) - 8.0) < 1e-12

    def test_trace_loss_column_matches_eval_bpc(self, tmp_path):
        # Cross-check between two code paths on identical bytes.
        corpus = tmp_path / "corpus.bin"
        run_cli(["gen", "--task", "corpus", "--seed", "5", "--size", "20000",
                 "--out", str(corpus)])
        cfg = tmp_path / "text.cfg"
        cfg.write_text(f"task.name = text\ntask.corpus = {corpus}\n"
                       "task.seq_len = 30\ntask.batch = 3\ncell.hidden = 12\n"
                       "act.max_steps = 4\nact.tau = 1e-2\n"
                       "train.iterations = 4\ntrain.eval_every = 4\n"
                       "train.eval_batches = 1\n")
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(cfg),
                        "--out-dir", str(out)])[0] == 0
        ckpt = str(out / "ckpt-final.bin")

        code, eval_out = run_cli(["eval", "--checkpoint", ckpt, "--batches", "1",
                                  "--seed", "9", "--stdout"])
        assert code == 0
        bpc = json.loads(eval_out)["bits_per_character"]

        code, trace_out = run_cli(["trace", "--checkpoint", ckpt, "--count", "3",
                                   "--seed", "9", "--stdout"])
        assert code == 0
        losses = [float(row["loss_nats"])
                  for row in csv.DictReader(trace_out.splitlines()[1:])
                  if row["loss_nats"]]
        assert abs(np.mean(losses) - bpc * math.log(2.0)) < 1e-9


class TestCliProcess:
    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "actlab.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_logs_go_to_stderr_not_stdout(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("task.name = parity\ntask.bits = 6\ntask.batch = 4\n"
                       "cell.hidden = 8\ntrain.iterations = 2\n"
                       "train.eval_every = 2\ntrain.eval_batches = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "actlab.cli", "train", "--config", str(cfg),
             "--out-dir", str(tmp_path / "r")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == ""          # data only with --stdout
        assert "training" in proc.stderr

    def test_train_logs_one_progress_line_per_metrics_row(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "actlab.cli", "train", "--set", "task.bits=6",
             "--set", "task.batch=4", "--set", "cell.hidden=8",
             "--set", "train.iterations=5", "--set", "train.eval_every=2",
             "--set", "train.eval_batches=1", "--out-dir", str(tmp_path / "r")],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == ""
        rows = [json.loads(line) for line in
                (tmp_path / "r" / "metrics.jsonl").read_text().splitlines()]
        progress = re.findall(r"^INFO actlab: iteration (\d+): loss=\S+ "
                              r"error=\S+ mean_ponder=\S+ capped=\S+ "
                              r"grad_norm=\S+$", proc.stderr, re.MULTILINE)
        assert [int(i) for i in progress] == [row["iteration"] for row in rows]
        assert len(rows) == 3
