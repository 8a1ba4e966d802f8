import errno
import hashlib
import json
import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from actlab import trainer
from actlab.act import ActConfig
from actlab.autodiff import ContractError, DimensionError, NumericError
from actlab.cells import init_params
from actlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from actlab.config import ConfigError, config_text, parse_config_text
from actlab.engine import run_batch
from actlab.losses import bits_per_character, ponder_by_difficulty
from actlab.optim import OptimizerState, adam_update
from actlab.tasks import (derive_seeds, gen_addition, gen_logic, gen_parity,
                          gen_sort, gen_text, synth_corpus, task_spec)
from actlab.trainer import (batch_objective, evaluate, sweep, tau_grid, train,
                            write_sweep_csv)

FIXTURES = Path(__file__).parent / "fixtures"

PARITY_CFG = """
task.name = parity
task.bits = 8
task.batch = 8
cell.hidden = 12
act.tau = 1e-2
act.max_steps = 6
train.iterations = 40
train.eval_every = 20
train.eval_batches = 2
train.seed = 11
"""


def parity_config(**overrides):
    cfg = parse_config_text(PARITY_CFG)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.resolve()


class TestCheckpoint:
    def roundtrip_setup(self, tmp_path):
        config = parity_config()
        spec = task_spec("parity", input_size=config.n_bits)
        params = init_params(config.cell, config.n_bits, config.hidden,
                             spec.output_size, seed=1)
        state = OptimizerState.for_params(params)
        rng = np.random.default_rng(0)
        grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
        adam_update(params, grads, state, lr=1e-3)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, state, config)
        return config, params, state, path

    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    @pytest.mark.parametrize("task", ["parity", "logic", "addition", "sort", "text"])
    def test_save_load_save_identical_bytes(self, tmp_path, task, cell):
        # Text needs only a corpus path in its config: nothing reads it here.
        config = parse_config_text("", [f"task.name={task}", f"cell.kind={cell}",
                                        "cell.hidden=3", "task.bits=4",
                                        "task.corpus=corpus.txt"])
        spec = trainer.resolved_spec(config)
        params = init_params(cell, spec.input_size, 3, spec.output_size, seed=1)
        state = OptimizerState.for_params(params)
        rng = np.random.default_rng(0)
        adam_update(params, {n: rng.normal(size=a.shape) for n, a in params.items()},
                    state, lr=1e-3)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, state, config)
        blob1 = open(path, "rb").read()
        config2, params2, state2 = load_checkpoint(path)
        path2 = str(tmp_path / "again.ckpt")
        save_checkpoint(path2, params2, state2, config2)
        assert open(path2, "rb").read() == blob1

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # The writer streams header and payload chunks; the file must be the
        # layout in the checkpoint module docstring, built here in one piece.
        config, params, state, path = self.roundtrip_setup(tmp_path)
        text = config_text(config).encode("utf-8")
        digest = hashlib.sha256(text).hexdigest().encode("ascii")
        records = [("param/" + n, a) for n, a in params.items()]
        records += [("adam.m/" + n, a) for n, a in state.m.items()]
        records += [("adam.v/" + n, a) for n, a in state.v.items()]
        records.append(("adam/step", np.array(float(state.step))))
        body = b"ACTLABC1" + struct.pack("<I", 1)
        body += struct.pack("<I", len(digest)) + digest
        body += struct.pack("<I", len(text)) + text
        body += struct.pack("<I", len(records))
        for name, arr in records:
            body += struct.pack("<H", len(name)) + name.encode("utf-8")
            body += struct.pack("<B", arr.ndim)
            body += struct.pack(f"<{arr.ndim}I", *arr.shape)
            body += arr.astype("<f8").tobytes()
        assert open(path, "rb").read() == body + struct.pack("<I", zlib.crc32(body))

    def test_roundtrip_restores_exact_values(self, tmp_path):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        _, params2, state2 = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(params.items(), params2.items()):
            assert n1 == n2
            assert a1.tobytes() == a2.tobytes()
        assert state2.step == state.step
        for n in state.m:
            assert state.m[n].tobytes() == state2.m[n].tobytes()

    def test_forward_pass_identical_after_roundtrip(self, tmp_path):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        _, params2, _ = load_checkpoint(path)
        batch = gen_parity(seed=5, n_bits=8, batch=4)
        cfg = ActConfig(max_steps=6)
        res1 = run_batch(params, cfg, batch.inputs, batch.lengths)
        res2 = run_batch(params2, cfg, batch.inputs, batch.lengths)
        assert res1.outputs.tobytes() == res2.outputs.tobytes()   # zero ulp

    def test_corrupted_checksum_detected(self, tmp_path):
        _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_config_text_edit_detected_by_digest(self, tmp_path):
        # The edit re-renders to the same config; the digest covers the
        # stored bytes, so it is caught all the same.
        _, _, _, path = self.roundtrip_setup(tmp_path)
        body = open(path, "rb").read()[:-4]
        assert b"act.tau = 0.01\n" in body
        body = body.replace(b"act.tau = 0.01\n", b"act.tau = 1e-2\n")
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_checkpoint_with_retired_workers_key_loads(self):
        # Written before train.workers was removed, so its config text
        # still says `train.workers = 1`; the .npz holds the arrays that
        # the loader of that version read from it.
        config, params, state = load_checkpoint(
            str(FIXTURES / "ckpt_parity_rnn6_v1.bin"))
        want = np.load(FIXTURES / "ckpt_parity_rnn6_v1.npz")
        assert (config.task, config.cell, config.hidden, config.n_bits) == \
            ("parity", "rnn", 6, 6)
        for name, arr in params.items():
            assert arr.tobytes() == want["param/" + name].tobytes()
            assert state.m[name].tobytes() == want["adam.m/" + name].tobytes()
            assert state.v[name].tobytes() == want["adam.v/" + name].tobytes()
        assert state.step == int(want["adam/step"])

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        before = open(path, "rb").read()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        import actlab.checkpoint as ckpt_module
        monkeypatch.setattr(ckpt_module, "open",
                            lambda p, mode: HalfWriter(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, params, state, config)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_save_over_an_existing_file_writes_the_same_bytes(self, tmp_path):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        fresh = str(tmp_path / "fresh.ckpt")
        save_checkpoint(fresh, params, state, config)
        # Over a larger file, so a tail of the old one would show.
        big = parity_config(hidden=40)
        big_params = init_params(big.cell, big.n_bits, 40, 1, seed=2)
        save_checkpoint(path, big_params, OptimizerState.for_params(big_params), big)
        save_checkpoint(path, params, state, config)
        again = str(tmp_path / "again.ckpt")
        config2, params2, state2 = load_checkpoint(path)
        save_checkpoint(again, params2, state2, config2)
        blob = open(fresh, "rb").read()
        assert open(path, "rb").read() == blob
        assert open(again, "rb").read() == blob
        assert os.stat(path).st_size == os.stat(fresh).st_size == len(blob)

    @pytest.mark.skipif(not hasattr(os, "posix_fallocate"),
                        reason="os has no posix_fallocate on this platform")
    def test_temporary_file_is_reserved_at_its_final_size(self, tmp_path, monkeypatch):
        # The speed of a save over an older file rests on this one call;
        # nothing else would show if it went missing.
        config, params, state, path = self.roundtrip_setup(tmp_path)
        calls = []
        real = os.posix_fallocate

        def recorder(fd, offset, length):
            calls.append((os.fstat(fd).st_ino, os.fstat(fd).st_size, offset, length))
            real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", recorder)
        for _ in range(2):
            save_checkpoint(path, params, state, config)
            ino, size_then, offset, length = calls[-1]
            assert (ino, size_then, offset) == (os.stat(path).st_ino, 0, 0)
            assert length == os.stat(path).st_size
        assert len(calls) == 2

    def test_failed_reservation_keeps_previous_file(self, tmp_path, monkeypatch):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        before = open(path, "rb").read()

        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", no_space, raising=False)
        with pytest.raises(OSError) as info:
            save_checkpoint(path, params, state, config)
        assert info.value.errno == errno.ENOSPC
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    @pytest.mark.parametrize("fallocate", ["absent", "EOPNOTSUPP", "EINVAL"])
    def test_save_without_a_reservation_writes_the_same_bytes(
            self, tmp_path, monkeypatch, fallocate):
        config, params, state, path = self.roundtrip_setup(tmp_path)
        if fallocate == "absent":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            code = getattr(errno, fallocate)

            def refuse(fd, offset, length):
                raise OSError(code, os.strerror(code))

            monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        other = str(tmp_path / "other.ckpt")
        save_checkpoint(other, params, state, config)
        assert open(other, "rb").read() == open(path, "rb").read()

    def test_version_mismatch_detected(self, tmp_path):
        _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 99)
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage,message", [
        ("missing moment", "21 records, expected 22"),
        ("param shape", "record 4 is not 'param/w_out' of shape (12, 1)"),
        ("moment shape", "record 8 is not 'adam.m/w_in' of shape (9, 12)"),
    ])
    def test_missing_or_misshaped_record_is_checkpoint_error(self, tmp_path,
                                                             damage, message):
        # CRC-valid files, written by save_checkpoint itself.
        config, params, state, path = self.roundtrip_setup(tmp_path)
        if damage == "missing moment":
            del state.v["b_halt"]
        elif damage == "param shape":
            params.w_out = np.zeros((2, 2))
        else:
            state.m["w_in"] = np.zeros((2, 2))
        save_checkpoint(path, params, state, config)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


def _layout(blob: bytes) -> tuple[list[range], list[int]]:
    """Header byte ranges of a checkpoint (magic to record count, then each
    record's name, ndim and shape) and the offsets where records start and
    the CRC trailer starts, walked from the documented layout."""
    pos = 8 + 4
    for _ in range(2):                          # digest, then config text
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    count = struct.unpack_from("<I", blob, pos)[0]
    headers, starts = [range(0, pos + 4)], []
    pos += 4
    for _ in range(count):
        starts.append(pos)
        head = pos + 2 + struct.unpack_from("<H", blob, pos)[0]
        ndim = blob[head]
        shape = struct.unpack_from(f"<{ndim}I", blob, head + 1)
        headers.append(range(pos, head + 1 + 4 * ndim))
        pos = head + 1 + 4 * ndim + 8 * int(np.prod(shape))
    assert pos == len(blob) - 4
    return headers, starts + [pos]


class TestCheckpointDamage:
    """Damaged files fail with CheckpointError and nothing else, whatever
    byte is hit and wherever the file is cut."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = TestCheckpoint().roundtrip_setup(tmp_path)[3]
        return path, open(path, "rb").read()

    def test_any_flipped_header_byte_is_checkpoint_error(self, saved):
        path, blob = saved
        headers, _ = _layout(blob)
        assert len(headers) == 1 + 22          # 7 params, 14 moments, the step
        for offset in (i for span in headers for i in span):
            damaged = bytearray(blob)
            damaged[offset] ^= 0xFF
            open(path, "wb").write(bytes(damaged))
            with pytest.raises(CheckpointError,
                               match="magic" if offset < 8 else "checksum"):
                load_checkpoint(path)

    def test_flipped_header_byte_under_a_valid_crc_is_checkpoint_error(self, saved):
        # The CRC is recomputed, so the parse itself meets the damage: a
        # bad version, digest, utf-8 name, length or shape.
        path, blob = saved
        headers, _ = _layout(blob)
        for offset in (i for span in headers for i in span if i >= 8):
            body = bytearray(blob[:-4])
            body[offset] ^= 0xFF
            open(path, "wb").write(bytes(body) + struct.pack("<I", zlib.crc32(body)))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_cut_at_or_next_to_any_record_boundary_is_checkpoint_error(self, saved):
        path, blob = saved
        _, boundaries = _layout(blob)
        cuts = sorted({c for b in boundaries + [len(blob)] for c in (b - 1, b, b + 1)
                       if c < len(blob)})
        for cut in cuts:
            open(path, "wb").write(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_huge_shape_fails_its_checksum_without_allocating(self, saved):
        path, blob = saved
        first = _layout(blob)[1][0]
        damaged = bytearray(blob)
        head = first + 2 + struct.unpack_from("<H", blob, first)[0]
        assert damaged[head] == 2                   # param/w_in is a matrix
        damaged[head + 1:head + 9] = struct.pack("<2I", 2**32 - 1, 2**32 - 1)
        open(path, "wb").write(bytes(damaged))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="checksum"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("extra", [1, 3, 4, 5, 64])
    def test_bytes_after_the_crc_are_rejected(self, saved, extra):
        path, blob = saved
        open(path, "wb").write(blob + bytes(extra))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_record_with_too_many_dimensions_is_checkpoint_error(self, saved):
        # adam/step, the last record, is a scalar: give it 65 unit dims.
        path, blob = saved
        ndim_at = _layout(blob)[1][-1] - 8 - 1     # the trailer, less 8 bytes and ndim
        assert blob[ndim_at] == 0
        body = blob[:ndim_at] + bytes([65]) + struct.pack("<65I", *[1] * 65) \
            + blob[ndim_at + 1:-4]
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError,
                           match=re.escape("record 22 is not 'adam/step' of shape ()")):
            load_checkpoint(path)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -3.0, 2.5])
    def test_step_that_is_no_count_is_checkpoint_error(self, saved, step):
        # adam/step, the last record, is the 8 bytes before the CRC. A NaN
        # or inf step raised ValueError or OverflowError; -3 and 2.5 loaded.
        from actlab.cli import main
        path, blob = saved
        body = blob[:-12] + struct.pack("<d", step)
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="adam/step must be a count >= 0"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", path, "--batches", "1"]) == 4

    @pytest.mark.parametrize("change,message", [
        ("extra record", "23 records, expected 22"),
        ("duplicated record", "23 records, expected 22"),
        ("swapped records", "record 2 is not 'param/w_rec' of shape (12, 12)"),
    ], ids=["extra", "duplicated", "swapped"])
    def test_records_other_than_the_layout_are_checkpoint_errors(self, saved,
                                                                change, message):
        # CRC-valid files whose record count matches their records; each
        # holds every record of the layout, so each loaded before.
        from actlab.cli import main
        path, blob = saved
        starts = _layout(blob)[1]
        records = [blob[a:b] for a, b in zip(starts, starts[1:])]
        if change == "extra record":
            records.append(struct.pack("<H", 11) + b"param/extra"
                           + struct.pack("<BI", 1, 2) + bytes(16))
        elif change == "duplicated record":
            records.insert(1, records[0])
        else:
            records[1], records[2] = records[2], records[1]
        body = blob[:starts[0] - 4] + struct.pack("<I", len(records)) + b"".join(records)
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", path, "--batches", "1"]) == 4

    @pytest.mark.parametrize("hidden,message", [
        (0, "stored config does not resolve: cell.hidden must be >= 1, got 0"),
        (2**32, "beyond the format's u32 dimensions"),
    ], ids=["hidden-0", "hidden-2**32"])
    def test_config_without_a_layout_is_reported_after_the_checksum(
            self, saved, hidden, message):
        # The stored text and its digest agree, so the config is parsed. A
        # file whose config does not resolve is a bad file, not a bad
        # configuration of the user's: exit 4, not 2.
        from actlab.cli import main
        path, blob = saved
        start = _layout(blob)[1][0]
        text_at = 12 + 4 + struct.unpack_from("<I", blob, 12)[0] + 4
        text = blob[text_at:start - 4]
        assert b"cell.hidden = 12\n" in text
        text = text.replace(b"cell.hidden = 12\n", b"cell.hidden = %d\n" % hidden)
        digest = hashlib.sha256(text).hexdigest().encode("ascii")
        body = (blob[:12] + struct.pack("<I", len(digest)) + digest
                + struct.pack("<I", len(text)) + text + blob[start - 4:-4])
        for crc, match in [(zlib.crc32(body), message),
                           (zlib.crc32(body) ^ 1, "checksum")]:
            open(path, "wb").write(body + struct.pack("<I", crc))
            with pytest.raises(CheckpointError, match=re.escape(match)):
                load_checkpoint(path)
            assert main(["eval", "--checkpoint", path, "--batches", "1"]) == 4

    def test_bytes_between_the_records_and_a_valid_crc_are_rejected(self, saved):
        path, blob = saved
        body = blob[:-4] + bytes(8)
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="8 bytes follow the last"):
            load_checkpoint(path)


class TestCheckpointLoadMemory:
    def test_load_holds_the_checkpoint_once(self, tmp_path):
        # The payloads are read straight into their arrays: no copy of the
        # file body is held beside them.
        config = parse_config_text("", ["task.name=logic", "cell.kind=lstm",
                                        "cell.hidden=128"])
        spec = trainer.resolved_spec(config)
        params = init_params("lstm", spec.input_size, 128, spec.output_size, seed=1)
        state = OptimizerState.for_params(params)
        path = str(tmp_path / "lstm128.ckpt")
        save_checkpoint(path, params, state, config)
        payload = 3 * sum(arr.nbytes for _, arr in params.items()) + 8
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload + 64 * 1024, (peak, payload)
        _, params, state = loaded
        for arr in [a for _, a in params.items()] + [*state.m.values(), *state.v.values()]:
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.aligned
            assert arr.flags.writeable and arr.flags.owndata


class TestTrainLoop:
    def test_deterministic_metrics_files(self, tmp_path):
        config = parity_config()
        train(config, out_dir=str(tmp_path / "a"))
        train(config, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b
        assert len(a) > 0

    def test_metrics_row_on_disk_when_on_row_fires(self, tmp_path):
        path = tmp_path / "run" / "metrics.jsonl"
        on_disk = []
        train(parity_config(), out_dir=str(tmp_path / "run"),
              on_row=lambda row: on_disk.append(
                  path.read_text().splitlines()[-1:] == [json.dumps(row)]))
        assert on_disk == [True, True]

    def test_run_directory_contents(self, tmp_path):
        config = parity_config()
        result = train(config, out_dir=str(tmp_path / "run"))
        names = sorted(os.listdir(tmp_path / "run"))
        assert names == ["ckpt-final.bin", "config.txt", "manifest.json",
                         "metrics.jsonl"]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == config.seed
        assert "config_digest" in manifest and "code_version" in manifest
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert [r["iteration"] for r in rows] == [20, 40]
        assert result.checkpoint_path.endswith("ckpt-final.bin")

    def test_rows_append_grad_norm_and_capped_fraction(self):
        # Schema 2 appends the two fields after the schema 1 keys. With the
        # default halting bias a parity row halts within ~13 updates, so a
        # cap of 100 is never reached; a cap of 1 is reached on every step.
        rows = train(parity_config(max_steps=100)).rows
        assert [r["schema"] for r in rows] == [2, 2]
        assert [list(r)[-2:] for r in rows] == [["grad_norm", "capped_fraction"]] * 2
        assert [r["capped_fraction"] for r in rows] == [0.0, 0.0]
        rows = train(parity_config(max_steps=1)).rows
        assert [r["capped_fraction"] for r in rows] == [1.0, 1.0]

    def test_grad_norm_is_the_row_iterations_pre_clip_norm(self, monkeypatch):
        norms = []
        original = trainer.clip_global_norm

        def recorded(grads, max_norm):
            norms.append(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
            return original(grads, max_norm)

        monkeypatch.setattr(trainer, "clip_global_norm", recorded)
        rows = train(parity_config(clip_norm=1e-3)).rows
        assert min(norms) > 1e-3                  # every iteration was clipped
        assert [r["grad_norm"] for r in rows] == [
            pytest.approx(norms[19], rel=1e-12), pytest.approx(norms[39], rel=1e-12)]

    def test_grad_norm_is_taken_only_on_row_iterations_without_clipping(
            self, monkeypatch):
        calls = []
        original = trainer.clip_global_norm

        def recorded(grads, max_norm):
            calls.append(max_norm)
            return original(grads, max_norm)

        monkeypatch.setattr(trainer, "clip_global_norm", recorded)
        rows = train(parity_config()).rows
        assert calls == [0.0, 0.0] and len(rows) == 2

    def test_periodic_checkpoints(self, tmp_path):
        config = parity_config(checkpoint_every=20)
        train(config, out_dir=str(tmp_path / "run"))
        names = sorted(os.listdir(tmp_path / "run"))
        assert "ckpt-0000020.bin" in names and "ckpt-0000040.bin" in names

    def test_cap_one_training_ignores_time_penalty(self):
        # With one update per step the ponder cost is a constant, so the
        # trajectory must match a run with the penalty switched off.
        base = parity_config(max_steps=1, tau=0.0, iterations=30)
        penalized = parity_config(max_steps=1, tau=0.5, iterations=30)
        r1 = train(base)
        r2 = train(penalized)
        for (n1, a1), (n2, a2) in zip(r1.params.items(), r2.params.items()):
            assert a1.tobytes() == a2.tobytes()

    def test_divergence_checkpoints_last_good_state(self, tmp_path):
        config = parse_config_text("""
task.name = addition
task.batch = 4
cell.hidden = 8
task.max_len = 2
act.tau = 1e-2
train.iterations = 50
train.eval_every = 5
train.eval_batches = 1
train.lr = 1e308
""")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                train(config, out_dir=str(tmp_path / "run"))
        assert (tmp_path / "run" / "ckpt-lastgood.bin").exists()
        config2, params2, _ = load_checkpoint(str(tmp_path / "run" / "ckpt-lastgood.bin"))
        for _, arr in params2.items():
            assert np.all(np.isfinite(arr))

    def test_fixed_batch_loss_decreases_for_most_seeds(self):
        # Smoke sanity, statistical by design: 9 of 10 seeds must improve
        # on one frozen batch over 50 steps at a small learning rate.
        spec = task_spec("parity", input_size=8)
        cfg = ActConfig(max_steps=6, time_penalty=0.0)
        improved = 0
        for seed in range(10):
            params = init_params("rnn", 8, 16, 1, seed=seed)
            opt = OptimizerState.for_params(params)
            batch = gen_parity(seed=1000 + seed, n_bits=8, batch=16)
            first = last = None
            for _ in range(50):
                loss_var, res, breakdown, _ = batch_objective(spec, params, cfg, batch)
                res.tape.backward(loss_var)
                grads = {n: res.tape.grad(v) for n, v in res.param_vars.items()}
                adam_update(params, grads, opt, lr=1e-3)
                first = breakdown.total if first is None else first
                last = breakdown.total
            improved += last < first
        assert improved >= 9


class TestSweep:
    def test_grid_enumerates_forty_values(self):
        grid = tau_grid()
        assert len(grid) == 40
        assert min(grid) == 1e-4
        assert max(grid) == 1.0

    def test_two_taus_three_replicas(self, tmp_path):
        config = parity_config(iterations=10, eval_every=10, eval_batches=1)
        rows = sweep(config, [1e-3, 1e-2], replicas=3,
                     out_dir=str(tmp_path / "sweep"))
        assert len(rows) == 2
        assert all(r.n_runs == 3 and r.n_failed == 0 for r in rows)
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        run_dirs = [d for d in os.listdir(tmp_path / "sweep")
                    if d.startswith("tau")]
        assert len(run_dirs) == 6

    def test_summary_statistics_recomputed_from_runs(self, tmp_path):
        from dataclasses import replace
        config = parity_config(iterations=10, eval_every=10, eval_batches=1)
        rows = sweep(config, [5e-3], replicas=3)
        finals = []
        for seq in derive_seeds(config.seed, 3):
            seed = int(seq.generate_state(1)[0])
            rerun = train(replace(config, tau=5e-3, seed=seed))
            finals.append(rerun.metrics.sequence_error_rate)
        finals = np.array(finals)
        assert abs(rows[0].error_mean - finals.mean()) < 1e-12
        assert abs(rows[0].error_stderr
                   - finals.std(ddof=1) / np.sqrt(3)) < 1e-12

    def test_adjacent_root_seeds_share_no_run(self, tmp_path):
        # With 2 taus x 2 replicas, offset seeding gave roots 0 and 1
        # three runs in common.
        run_seeds = []
        for root in (0, 1):
            out = tmp_path / f"root{root}"
            config = parity_config(iterations=1, eval_every=1, eval_batches=1,
                                   seed=root)
            sweep(config, [1e-3, 1e-2], replicas=2, out_dir=str(out))
            run_seeds.append({json.loads((d / "manifest.json").read_text())["seed"]
                              for d in out.iterdir() if d.is_dir()})
        assert len(run_seeds[0]) == len(run_seeds[1]) == 4
        assert not run_seeds[0] & run_seeds[1]

    def test_repeated_tau_runs_once_in_its_own_directories(self, tmp_path):
        # A repeated tau ran again into the same directories, each left
        # with its later run's files; seeds are derived over the distinct list.
        config = parity_config(iterations=1, eval_every=1, eval_batches=1)
        out = tmp_path / "sweep"
        rows = sweep(config, [1e-3, 1e-2, 1e-3], replicas=2, out_dir=str(out))
        assert [r.tau for r in rows] == [1e-3, 1e-2]
        names = [f"tau{tau:g}_rep{r}" for tau in (1e-3, 1e-2) for r in range(2)]
        assert sorted(d.name for d in out.iterdir() if d.is_dir()) == sorted(names)
        for name, seq in zip(names, derive_seeds(config.seed, 4)):
            manifest = json.loads((out / name / "manifest.json").read_text())
            assert manifest["seed"] == int(seq.generate_state(1)[0])

    def test_taus_sharing_a_directory_name_are_rejected(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="run directory name tau0.001"):
            sweep(parity_config(), [1e-3, 1.0000001e-3], replicas=1,
                  out_dir=str(out))
        assert not out.exists()

    def test_partial_failures_recorded(self, tmp_path):
        # One of the taus is driven to divergence by an absurd learning
        # rate on an addition config; the summary must still be emitted.
        config = parse_config_text("""
task.name = addition
task.batch = 4
cell.hidden = 8
task.max_len = 2
train.iterations = 40
train.eval_every = 10
train.eval_batches = 1
train.lr = 1e308
""")
        with np.errstate(over="ignore", invalid="ignore"):
            rows = sweep(config, [1e-3], replicas=2)
        assert rows[0].n_failed == 2
        assert rows[0].n_runs == 0
        assert np.isnan(rows[0].error_mean)

    def test_all_failed_replicas_still_write_the_summary(self, tmp_path,
                                                         monkeypatch, caplog):
        def failing_train(config, out_dir=None, on_row=None):
            raise NumericError(f"replica seed {config.seed} diverged")

        monkeypatch.setattr(trainer, "train", failing_train)
        out = tmp_path / "not" / "yet" / "there"
        rows = sweep(parity_config(), [1e-3], replicas=3, out_dir=str(out))
        assert (rows[0].n_runs, rows[0].n_failed) == (0, 3)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[2].split(",")[1:3] == ["0", "3"]
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 3
        assert all("diverged" in r.getMessage() for r in warnings)

    def test_pool_is_capped_at_the_job_count(self, monkeypatch):
        # A process pool starts all its workers at the first submit, so a
        # sweep asks for no more workers than it has runs, and runs one
        # job in-process.
        import concurrent.futures
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(trainer, "_sweep_one", lambda job: (0.0, 1.0))
        rows = sweep(parity_config(), [1e-3], replicas=3, workers=64)
        assert pools == [3]
        assert rows[0].n_runs == 3
        sweep(parity_config(), [1e-3], replicas=1, workers=64)
        assert pools == [3]

    def test_sweep_csv_schema(self, tmp_path):
        import io
        config = parity_config(iterations=5, eval_every=5, eval_batches=1)
        rows = sweep(config, [1e-3], replicas=1)
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# schema: sweep-summary-1"
        assert lines[1].startswith("tau,n_runs,n_failed,error_mean")


class TestEvaluate:
    EXACT = ("steps", "difficulties", "step_errors", "example_errors",
             "example_difficulty")
    CLOSE = ("ponders", "example_ponders", "nats")

    @staticmethod
    def logic_case():
        spec = task_spec("logic")
        params = init_params("lstm", spec.input_size, 10, spec.output_size,
                             seed=3, halt_bias=-1.0)
        batches = [gen_logic(seed, batch=5 + seed, min_len=1, max_len=max_len)
                   for seed, max_len in enumerate((3, 10, 3, 10, 10))]
        return spec, params, ActConfig(max_steps=12), batches

    @staticmethod
    def text_case():
        spec = task_spec("text")
        params = init_params("lstm", spec.input_size, 8, spec.output_size,
                             seed=4, halt_bias=-1.0)
        corpus = synth_corpus(5, size=3000)
        batches = [gen_text(corpus, seed, seq_len=seq_len, batch=3)
                   for seed, seq_len in enumerate((9, 4, 9))]
        return spec, params, ActConfig(max_steps=6), batches

    @staticmethod
    def addition_case():
        # Six softmax groups per step; the first step has no target.
        spec = task_spec("addition")
        params = init_params("lstm", spec.input_size, 9, spec.output_size,
                             seed=6, halt_bias=-1.0)
        batches = [gen_addition(seed, batch=4 + seed, min_len=1, max_len=max_len,
                                min_digits=1, max_digits=5)
                   for seed, max_len in enumerate((2, 5, 3, 5))]
        return spec, params, ActConfig(max_steps=8), batches

    @staticmethod
    def sort_case():
        # Targets only in each sequence's output half; T = 2 x length.
        spec = task_spec("sort")
        params = init_params("rnn", spec.input_size, 7, spec.output_size,
                             seed=7, halt_bias=-1.0)
        batches = [gen_sort(seed, batch=3 + seed, min_len=2, max_len=max_len)
                   for seed, max_len in enumerate((3, 6, 2, 6))]
        return spec, params, ActConfig(max_steps=8), batches

    @pytest.mark.parametrize("case", ["logic", "text", "addition", "sort"])
    def test_blocks_match_one_batch_evaluations(self, case, monkeypatch):
        spec, params, cfg, batches = getattr(self, case + "_case")()
        assert len({b.inputs.shape[1] for b in batches}) > 1
        runs = []
        original = trainer.run_batch

        def counted(*args, **kwargs):
            runs.append(args[2].shape[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "run_batch", counted)
        metrics, details = evaluate(spec, params, cfg, batches)
        assert runs == [sum(b.batch_size for b in batches)]
        alone = [evaluate(spec, params, cfg, [b]) for b in batches]
        want = {name: np.concatenate([getattr(d, name) for _, d in alone])
                for name in self.EXACT + self.CLOSE}
        for name in self.EXACT:
            np.testing.assert_array_equal(getattr(details, name), want[name])
        for name in self.CLOSE:
            np.testing.assert_allclose(getattr(details, name), want[name],
                                       rtol=1e-12, atol=0)
        assert metrics.sequence_error_rate == want["example_errors"].mean()
        assert metrics.mean_steps == want["steps"].mean()
        means = [metrics.mean_ponder, metrics.std_ponder, metrics.capped_fraction]
        expect = [want["ponders"].mean(), want["ponders"].std(), np.average(
            [m.capped_fraction for m, _ in alone],
            weights=[d.steps.size for _, d in alone])]
        if spec.name == "text":
            means.append(metrics.bits_per_character)
            expect.append(bits_per_character(want["nats"]))
        np.testing.assert_allclose(means, expect, rtol=1e-12)
        rows = ponder_by_difficulty(want["ponders"], want["difficulties"],
                                    want["steps"], want["step_errors"])
        assert [(r.difficulty, r.count, r.mean_steps, r.mean_error)
                for r in metrics.difficulty_rows] == [
            (r.difficulty, r.count, r.mean_steps, r.mean_error) for r in rows]
        np.testing.assert_allclose([r.mean_ponder for r in metrics.difficulty_rows],
                                   [r.mean_ponder for r in rows], rtol=1e-12)

    def test_blocks_never_split_a_batch(self, monkeypatch):
        def blocks(shapes, position_values):
            batches = [SimpleNamespace(inputs=np.empty((n, t, 0)))
                       for n, t in shapes]
            out = trainer._eval_blocks(batches, position_values)
            assert [b for block in out for b in block] == batches
            return [[b.inputs.shape[:2] for b in block] for block in out]

        monkeypatch.setattr(trainer, "EVAL_BLOCK_VALUES", 100)
        # Blocks are padded to their longest T: 10 rows of T = 10 fill one.
        assert blocks([(4, 3), (4, 10), (2, 3), (8, 10), (3, 2)], 1) == [
            [(4, 3), (4, 10), (2, 3)], [(8, 10)], [(3, 2)]]
        assert blocks([(2, 3), (2, 5), (4, 5)], 2) == [
            [(2, 3), (2, 5), (4, 5)]]
        assert blocks([(2, 3), (2, 5), (4, 5)], 3) == [
            [(2, 3), (2, 5)], [(4, 5)]]
        # A batch over the budget runs alone; the batches after it merge.
        assert blocks([(2, 3), (20, 10), (2, 3), (2, 3)], 1) == [
            [(2, 3)], [(20, 10)], [(2, 3), (2, 3)]]

    def test_no_batches_is_a_contract_error(self):
        spec, params, cfg, _ = self.logic_case()
        with pytest.raises(ContractError, match="empty list"):
            evaluate(spec, params, cfg, [])

    def test_mixed_input_widths_fail_before_any_forward(self, monkeypatch):
        spec, params, cfg, batches = self.logic_case()
        narrow = gen_parity(1, n_bits=8, batch=4)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(trainer, "run_batch", no_forward)
        with pytest.raises(DimensionError, match="input widths"):
            evaluate(spec, params, cfg, batches + [narrow])
