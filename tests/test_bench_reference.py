"""The benchmark's stored reference outputs, checked in the tier-1 suite.

The first seed-1 episode of each gated workload runs through
`benchmarks/bench.py` as a benchmark run starts, and its final training
loss, eval sequence error and mean update count must pass
`workloads.reference_failures`. Rounding drift that would fail the
benchmark's output check fails here first. The benchmark modules import
each other by bare name, so their directory goes on `sys.path` while
they load.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from actlab import engine
from actlab.cells import LstmCell

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH.parent))
        spec = importlib.util.spec_from_file_location("bench", BENCH)
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, "bench", module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", ["logic-ponder", "addition-wide"])
def test_first_episode_matches_stored_reference(bench, name, tmp_path):
    workload = bench.WORKLOADS[name]
    s = bench.prepare(workload, bench.DEFAULT_SEED)
    loop = bench.Loop()
    episode = bench.run_episode(
        s, np.random.default_rng(s.data_seed), np.random.default_rng(s.eval_seed),
        loop, str(tmp_path / "ckpt.bin"), workload.episode_iterations,
        workload.ckpt_cycles, timed=False)
    assert loop.failed == 0, loop.failures
    observed = {"final_loss": episode.losses[-1],
                "eval_seq_error": episode.eval_seq_error,
                "mean_steps": episode.mean_steps}
    eval_sequences = s.config.eval_batches * s.config.batch
    assert bench.reference_failures(observed, workload.reference,
                                    eval_sequences) == [], observed


def test_first_logic_ponder_batch_records_one_engine_node(bench):
    # The whole batch is one engine node, so the tape holds the same 12
    # nodes however long rows ponder: the seven parameters, the batch node,
    # the ponder sum, the loss, and the objective's scale and add, for the
    # first seed-1 batch at a mean N near 9.
    workload = bench.WORKLOADS["logic-ponder"]
    s = bench.prepare(workload, bench.DEFAULT_SEED)
    batch = bench.trainer.make_batch(s.config, np.random.default_rng(s.data_seed))
    _, res, _, _ = bench.trainer.batch_objective(s.spec, s.init, s.act_cfg, batch)
    assert res.steps[res.active].mean() > 8
    assert len(res.tape) == 12


def test_first_logic_ponder_batch_keeps_six_state_widths_per_update(
        bench, monkeypatch):
    # Each LSTM update's backward holds, besides a view of its input state,
    # tanh(scale z) (4H) and its new state (2H) per row: 6H float64 per
    # row and update on the first seed-1 batch at a mean N near 9. It
    # rebuilds the gates (4H) and tanh(c) (H) rather than keep them.
    workload = bench.WORKLOADS["logic-ponder"]
    s = bench.prepare(workload, bench.DEFAULT_SEED)
    original, held = LstmCell.step, []

    def recorded(z, state):
        out, back = original(z, state)
        arrays = [c.cell_contents for c in back.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        bases = (a if a.base is None else a.base for a in arrays)
        held.append({id(b): b for b in bases if b is not state})
        return out, back

    monkeypatch.setattr(LstmCell, "step", staticmethod(recorded))
    batch = bench.trainer.make_batch(s.config, np.random.default_rng(s.data_seed))
    _, res, _, _ = bench.trainer.batch_objective(s.spec, s.init, s.act_cfg, batch)
    row_updates = int(res.steps.sum())
    assert row_updates > 8 * int(res.active.sum())
    held_bytes = sum(a.nbytes for arrays in held for a in arrays.values())
    assert held_bytes == 6 * s.init.hidden_size * 8 * row_updates


def test_first_logic_ponder_batch_stack_buffer_bytes(bench, monkeypatch):
    # Each weight-adjoint stack flushes once it holds twice as many rows
    # as its adjoint has, its a width (at most OUTER_FLUSH_ROWS), so its
    # two buffers hold min(sum, limit - 1 + largest step) rows of a width
    # + b width float64, and the three stacks' buffers lie end to end in
    # one allocation. On the first seed-1 batch, 80 active positions and
    # 726 row updates, the largest step 16 and 143 rows: the input stack
    # [x | 1] (103 by 512, limit 206) keeps all 80 rows, the recurrent
    # [h_in | flag] (129 by 512) and halting [h_out | 1] (129 by 1) stacks,
    # limit 258, 400 of 726.
    workload = bench.WORKLOADS["logic-ponder"]
    s = bench.prepare(workload, bench.DEFAULT_SEED)
    original, made = engine._row_stacks, []

    def recorded(*specs):
        stacks = original(*specs)
        made.extend(b for st in stacks for b in (st.b, st.a))
        return stacks

    monkeypatch.setattr(engine, "_row_stacks", recorded)
    batch = bench.trainer.make_batch(s.config, np.random.default_rng(s.data_seed))
    loss, res, _, _ = bench.trainer.batch_objective(s.spec, s.init, s.act_cfg, batch)
    res.tape.backward(loss)
    assert (int(res.active.sum()), int(res.steps.sum())) == (80, 726)
    assert [b.shape for b in made] == [(80, 512), (80, 103), (400, 512),
                                       (400, 129), (400, 1), (400, 129)]
    starts = [b.ctypes.data for b in made]
    assert [start + b.nbytes for start, b in zip(starts, made)][:-1] == starts[1:]
    assert starts[-1] + made[-1].nbytes - starts[0] == 2_860_800


@pytest.mark.parametrize("name", ["logic-ponder", "addition-wide"])
def test_gated_eval_runs_as_one_block(bench, name):
    # Each gated workload's eval batches fit one forward-only block even
    # when every batch is as long as the task allows.
    s = bench.prepare(bench.WORKLOADS[name], bench.DEFAULT_SEED)
    config, trainer = s.config, bench.trainer
    position_values = (s.init.input_size + s.init.hidden_size
                       + s.init.output_size + 1)
    assert (config.eval_batches * config.batch * config.max_len
            * position_values <= trainer.EVAL_BLOCK_VALUES)
    rng = np.random.default_rng(s.eval_seed)
    for _ in range(3):
        batches = [trainer.make_batch(config, rng)
                   for _ in range(config.eval_batches)]
        assert max(b.inputs.shape[1] for b in batches) <= config.max_len
        assert trainer._eval_blocks(batches, position_values) == [batches]
