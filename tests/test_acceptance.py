"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-6 are exact property/oracle checks and always run. Criteria
7-11 are scaled training experiments (hours of CPU); enable them with
ACTLAB_SCALED=1. Run with `pytest -s` to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
import numpy as np
import pytest

from actlab import autodiff as ad
from actlab.act import ActConfig
from actlab.cells import init_params
from actlab.config import parse_config_text
from actlab.engine import run_batch
from actlab.gradcheck import halting_gradient_check
from actlab.tasks import (GATE_NAMES, gen_addition, gen_logic, gen_parity,
                          gen_sort, gen_text, synth_corpus, task_spec)
from actlab.trainer import evaluate, resolved_spec, train

from oracles import (apply_gate, halting_distribution, plain_rnn_outputs,
                     run_sequence)
from test_tasks import (_PUBLISHED_TABLE, decode_addition_inputs,
                        decode_addition_target, eval_logic_sequence_oracle)

SCALED = os.environ.get("ACTLAB_SCALED") == "1"
scaled = pytest.mark.skipif(
    not SCALED, reason="scaled experiment suite disabled; set ACTLAB_SCALED=1")


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Halting distribution fuzz
# ---------------------------------------------------------------------------

def test_criterion_1_halting_fuzz():
    rng = np.random.default_rng(20240101)
    worst_sum = 0.0
    for _ in range(100_000):
        max_steps = int(rng.integers(1, 21))
        length = int(rng.integers(1, 24))
        hs = rng.uniform(1e-9, 1.0 - 1e-9, size=length).tolist()
        hs.append(1.0 - 1e-9)          # guarantee the threshold is reachable
        n, p, r = halting_distribution(hs, 0.01, max_steps)
        assert 1 <= n <= max_steps
        assert len(p) == n
        assert all(0.0 <= q <= 1.0 for q in p)
        assert 0.0 < r <= 1.0
        assert p[-1] == r              # the halt step carries the remainder,
        rho = n + r                    # so rho = N + R is N + p[N] exactly
        assert rho == n + p[-1]
        total = 0.0
        for q in p:
            total += q
        worst_sum = max(worst_sum, abs(total - 1.0))
    report(1, worst_sum < 1e-12,
           f"100000 sequences, max |sum p - 1| = {worst_sum:.2e}")


# ---------------------------------------------------------------------------
# 2. Reduction oracle
# ---------------------------------------------------------------------------

def test_criterion_2_reduction_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        kind = "rnn" if trial % 2 == 0 else "lstm"
        force_bias = trial % 4 < 2
        hidden = int(rng.integers(4, 17))
        inputs = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(2, 7))))
        params = init_params(kind, inputs.shape[1], hidden, 2, seed=trial)
        if force_bias:
            params.b_halt[0, 0] = 12.0
            cfg = ActConfig(max_steps=100)
        else:
            cfg = ActConfig(max_steps=1)
        res = run_sequence(kind, params, cfg, inputs)
        got = np.vstack([y.data for y in res.outputs])
        want = plain_rnn_outputs(params, inputs)
        worst = max(worst, float(np.abs(got - want).max()))
    report(2, worst < 1e-12,
           f"100 configs (halting bias +12 and cap 1), max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Full-model gradient check
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_check():
    worst = 0.0
    total_skipped = 0
    closed_ok = True
    nets = 0
    for idx, (kind, tau) in enumerate(
            [(k, t) for k in ("rnn", "lstm") for t in (0.0, 1e-2)] * 5):
        seed = 100 + idx
        rng = np.random.default_rng(seed)
        if idx % 2 == 0:
            n_bits = int(rng.integers(3, 7))
            spec = task_spec("parity", input_size=n_bits)
            batch = gen_parity(seed=seed, n_bits=n_bits, batch=2)
        else:
            spec = task_spec("sort")
            batch = gen_sort(seed=seed, batch=2, min_len=2, max_len=2)  # T = 4
        hidden = int(rng.integers(5, 11))
        params = init_params(kind, spec.input_size, hidden, spec.output_size,
                             seed=seed)
        cfg = ActConfig(max_steps=6, time_penalty=tau)
        rep = halting_gradient_check(params, cfg, batch, spec, seed=seed)
        worst = max(worst, rep.max_rel_err)
        total_skipped += len(rep.coords_skipped)
        closed_ok = closed_ok and rep.ponder_closed_form_ok \
            and rep.halt_gradient_zero_ok
        nets += 1
    assert nets == 20
    report(3, worst < 1e-4 and closed_ok,
           f"20 nets, max rel err {worst:.2e}, {total_skipped} coords skipped, "
           f"closed forms exact: {closed_ok}")


# ---------------------------------------------------------------------------
# 4. Closed-form halting gradient
# ---------------------------------------------------------------------------

def test_criterion_4_closed_form_halting_gradient():
    worst = 0.0
    instances = 0
    for seed in range(50):
        kind = "rnn" if seed % 2 == 0 else "lstm"
        tau = 0.01
        rng = np.random.default_rng(300 + seed)
        params = init_params(kind, 3, int(rng.integers(4, 9)), 2, seed=seed)
        cfg = ActConfig(max_steps=8, time_penalty=tau)
        xs = rng.normal(size=(int(rng.integers(1, 4)), 3))
        res = run_sequence(kind, params, cfg, xs)
        loss = None
        for y in res.outputs:
            term = ad.reduce_sum(ad.mul(y, y))
            loss = term if loss is None else ad.add(loss, term)
        if res.ponder_var is not None:
            loss = ad.add(loss, ad.scale(res.ponder_var, tau))
        res.tape.backward(loss)
        tape = res.tape
        for tr in res.traces:
            if tr.steps_taken == 1:
                continue
            adj_y = tape.grad(tr.mean_output)
            adj_s = [tape.grad(part) for part in tr.mean_state.parts()]
            for n in range(tr.steps_taken - 1):
                expect = float(np.sum(adj_y * (tr.output_vars[n].data
                                               - tr.output_vars[-1].data))) - tau
                for j, adj in enumerate(adj_s):
                    expect += float(np.sum(adj * (tr.state_vars[n].parts()[j].data
                                                  - tr.state_vars[-1].parts()[j].data)))
                got = tape.grad(tr.halt_vars[n])[0, 0]
                worst = max(worst, abs(got - expect))
        instances += 1
    assert instances == 50
    report(4, worst < 1e-10,
           f"50 instances, max |tape - closed form| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Task targets against brute-force oracles
# ---------------------------------------------------------------------------

def test_criterion_5_task_oracles():
    # Truth tables: all forty entries, exact.
    rows = [(1, 1), (1, 0), (0, 1), (0, 0)]
    table_ok = all(
        apply_gate(GATE_NAMES.index(name) + 1, p, q) == column[i]
        for name, column in _PUBLISHED_TABLE.items()
        for i, (p, q) in enumerate(rows))
    # Logic targets vs the formula-based recursive evaluator.
    logic_checked = 0
    for seed in range(20):
        batch = gen_logic(seed=5000 + seed, batch=500, min_len=1, max_len=10)
        for e in range(500):
            want = eval_logic_sequence_oracle(batch.inputs[e],
                                              int(batch.lengths[e]))
            assert list(batch.targets[e, :int(batch.lengths[e]), 0]) == want
        logic_checked += 500
    # Parity targets vs brute-force counting.
    parity_checked = 0
    for seed in range(10):
        batch = gen_parity(seed=6000 + seed, n_bits=64, batch=1000)
        for e in range(1000):
            vec = batch.inputs[e, 0]
            assert batch.targets[e, 0, 0] == int(np.count_nonzero(vec == 1.0)) % 2
        parity_checked += 1000
    # Addition targets vs integer running sums.
    addition_checked = 0
    for seed in range(20):
        batch = gen_addition(seed=7000 + seed, batch=500, min_len=1, max_len=5,
                             min_digits=1, max_digits=5)
        for e in range(500):
            total = 0
            for t in range(int(batch.lengths[e])):
                total += decode_addition_inputs(batch.inputs[e, t])
                if t >= 1:
                    assert decode_addition_target(batch.targets[e, t]) == total
        addition_checked += 500
    ok = (table_ok and logic_checked == 10_000 and parity_checked == 10_000
          and addition_checked == 10_000)
    report(5, ok, "40 truth-table entries exact; logic/parity/addition targets "
                  "match brute force on 10000 examples each")


# ---------------------------------------------------------------------------
# 6. Single-worker determinism
# ---------------------------------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("task.name = parity\ntask.bits = 8\ntask.batch = 8\n"
                   "cell.hidden = 16\nact.tau = 1e-2\nact.max_steps = 6\n"
                   "train.iterations = 200\ntrain.eval_every = 50\n"
                   "train.eval_batches = 2\ntrain.seed = 77\n")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "actlab.cli", "train", "--config", str(cfg),
             "--out-dir", str(out)],
            capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "metrics.jsonl").read_bytes())
    identical = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(6, identical,
           f"two 200-iteration runs, metrics files identical "
           f"({len(blobs[0])} bytes)")


# ---------------------------------------------------------------------------
# Scaled experiment suite (criteria 7-11)
# ---------------------------------------------------------------------------

PARITY_SCALED = """
task.name = parity
task.bits = 16
task.batch = 32
cell.kind = rnn
cell.hidden = 64
act.tau = 1e-3
train.lr = 1e-4
train.iterations = {iterations}
train.eval_every = {iterations}
train.eval_batches = 1
train.seed = {seed}
"""

PARITY_ITERATIONS = 75_000


def _limit_blas_threads():
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(1)
    except Exception:
        pass


def _parity_eval(config, params):
    spec = resolved_spec(config)
    act_cfg = ActConfig(config.epsilon, config.max_steps, config.tau)
    batches = [gen_parity(seed=90_000 + s, n_bits=16, batch=500)
               for s in range(4)]
    metrics, details = evaluate(spec, params, act_cfg, batches)
    return metrics, details


def _run_parity_seed(args):
    seed, max_steps, iterations, tau = args
    _limit_blas_threads()
    config = parse_config_text(PARITY_SCALED.format(iterations=iterations,
                                                    seed=seed))
    config.max_steps = max_steps
    config.tau = tau
    result = train(config)
    metrics, details = _parity_eval(config, result.params)
    if np.ptp(details.example_ponders) == 0.0:     # constant ponder: no trend
        rho = 0.0
    else:
        from scipy.stats import spearmanr
        rho = float(spearmanr(details.example_difficulty,
                              details.example_ponders)[0])
    return {"seed": seed, "error": metrics.sequence_error_rate,
            "mean_ponder": metrics.mean_ponder,
            "spearman": rho if np.isfinite(rho) else 0.0}


@scaled
@pytest.mark.scaled
def test_criterion_7_parity_scaled():
    seeds = [1, 2, 3, 4, 5]
    act_jobs = [(s, 100, PARITY_ITERATIONS, 1e-3) for s in seeds]
    base_jobs = [(s, 1, PARITY_ITERATIONS, 1e-3) for s in seeds]
    with ProcessPoolExecutor(max_workers=2) as pool:
        act_runs = list(pool.map(_run_parity_seed, act_jobs))
        base_runs = list(pool.map(_run_parity_seed, base_jobs))
    wins = 0
    for act, base in zip(act_runs, base_runs):
        ok = (act["error"] <= 0.05 and base["error"] >= 2 * act["error"]
              and act["spearman"] > 0.8)
        wins += ok
        print(f"  parity seed {act['seed']}: act err {act['error']:.3f} "
              f"(ponder {act['mean_ponder']:.2f}, spearman {act['spearman']:.2f}) "
              f"vs baseline err {base['error']:.3f} -> {'ok' if ok else 'no'}")
    report(7, wins >= 3, f"{wins}/5 seeds met error<=5%, 2x baseline margin, "
                         f"and spearman>0.8")


ADDITION_SCALED = """
task.name = addition
task.batch = 32
task.min_len = 1
task.max_len = 3
task.min_digits = 1
task.max_digits = 3
cell.kind = lstm
cell.hidden = 128
act.max_steps = 20
act.tau = 9e-4
train.lr = 1e-4
train.iterations = {iterations}
train.eval_every = {iterations}
train.eval_batches = 1
train.seed = {seed}
"""

ADDITION_ITERATIONS = 60_000


def _run_addition_seed(args):
    seed, iterations = args
    _limit_blas_threads()
    config = parse_config_text(ADDITION_SCALED.format(iterations=iterations,
                                                      seed=seed))
    result = train(config)
    spec = resolved_spec(config)
    act_cfg = ActConfig(config.epsilon, config.max_steps, config.tau)
    batches = [gen_addition(seed=91_000 + s, batch=250, min_len=1, max_len=3,
                            min_digits=1, max_digits=3) for s in range(4)]
    metrics, _ = evaluate(spec, result.params, act_cfg, batches)
    by_digits = {row.difficulty: row.mean_ponder
                 for row in metrics.difficulty_rows if row.difficulty > 0}
    xs = sorted(by_digits)
    slope = float(np.polyfit(xs, [by_digits[d] for d in xs], 1)[0])
    return {"seed": seed, "error": metrics.sequence_error_rate, "slope": slope,
            "ponder_by_digits": {d: round(by_digits[d], 3) for d in xs}}


@scaled
@pytest.mark.scaled
def test_criterion_8_addition_scaled():
    jobs = [(s, ADDITION_ITERATIONS) for s in (1, 2, 3, 4, 5)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(_run_addition_seed, jobs))
    wins = 0
    for run in runs:
        ok = run["error"] <= 0.02 and 0.5 <= run["slope"] <= 3.0
        wins += ok
        print(f"  addition seed {run['seed']}: err {run['error']:.4f}, "
              f"ponder slope {run['slope']:.2f} {run['ponder_by_digits']} "
              f"-> {'ok' if ok else 'no'}")
    report(8, wins >= 3, f"{wins}/5 seeds met error<=2% and slope in [0.5, 3.0]")


LOGIC_SCALED = """
task.name = logic
task.batch = 16
task.min_len = 1
task.max_len = 3
cell.kind = lstm
cell.hidden = 64
act.tau = 1e-2
train.lr = 1e-4
train.iterations = {iterations}
train.eval_every = {iterations}
train.eval_batches = 1
train.seed = {seed}
"""

LOGIC_ITERATIONS = 60_000


def _run_logic_seed(args):
    seed, iterations = args
    _limit_blas_threads()
    config = parse_config_text(LOGIC_SCALED.format(iterations=iterations,
                                                   seed=seed))
    result = train(config)
    spec = resolved_spec(config)
    act_cfg = ActConfig(config.epsilon, config.max_steps, config.tau)
    batches = [gen_logic(seed=92_000 + s, batch=250, min_len=1, max_len=3)
               for s in range(4)]
    metrics, _ = evaluate(spec, result.params, act_cfg, batches)
    return {"seed": seed, "error": metrics.sequence_error_rate,
            "mean_ponder": metrics.mean_ponder}


@scaled
@pytest.mark.scaled
def test_criterion_9_logic_scaled():
    jobs = [(s, LOGIC_ITERATIONS) for s in (1, 2, 3, 4, 5)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(_run_logic_seed, jobs))
    wins = 0
    for run in runs:
        ok = run["error"] <= 0.05
        wins += ok
        print(f"  logic seed {run['seed']}: err {run['error']:.4f} "
              f"(ponder {run['mean_ponder']:.2f}) -> {'ok' if ok else 'no'}")
    report(9, wins >= 3, f"{wins}/5 seeds met error<=5%")


TEXT_SCALED = """
task.name = text
task.corpus = {corpus}
task.seq_len = 64
task.batch = 4
cell.kind = lstm
cell.hidden = 128
act.tau = 6e-3
train.lr = 1e-4
train.iterations = {iterations}
train.eval_every = {iterations}
train.eval_batches = 1
train.seed = {seed}
"""

TEXT_ITERATIONS = 15_000
BOUNDARY_BYTES = frozenset([ord(" "), ord(","), ord(".")])
ALNUM_BYTES = frozenset(
    list(range(ord("a"), ord("z") + 1)) + list(range(ord("A"), ord("Z") + 1))
    + list(range(ord("0"), ord("9") + 1)))


def _ponder_by_byte_class(config, params, corpus):
    spec = resolved_spec(config)
    act_cfg = ActConfig(config.epsilon, config.max_steps, config.tau)
    boundary, alnum = [], []
    for s in range(20):
        batch = gen_text(corpus, seed=93_000 + s, seq_len=64, batch=8)
        res = run_batch(params, act_cfg, batch.inputs, batch.lengths)
        bytes_in = batch.inputs.argmax(axis=2)          # (B, T)
        ponders = res.ponders
        for b in BOUNDARY_BYTES:
            boundary.extend(ponders[bytes_in == b].tolist())
        for b in ALNUM_BYTES:
            sel = ponders[bytes_in == b]
            if sel.size:
                alnum.extend(sel.tolist())
    return float(np.mean(boundary)), float(np.mean(alnum))


def _run_text_seed(args):
    seed, iterations, corpus_path = args
    _limit_blas_threads()
    config = parse_config_text(TEXT_SCALED.format(corpus=corpus_path,
                                                  iterations=iterations,
                                                  seed=seed))
    result = train(config)
    with open(corpus_path, "rb") as fh:
        corpus = fh.read()
    boundary, alnum = _ponder_by_byte_class(config, result.params, corpus)
    return {"seed": seed, "boundary": boundary, "alnum": alnum,
            "ratio": boundary / alnum if alnum else float("nan")}


@scaled
@pytest.mark.scaled
def test_criterion_10_text_boundary_effect(tmp_path):
    corpus_path = str(tmp_path / "corpus.bin")
    with open(corpus_path, "wb") as fh:
        fh.write(synth_corpus(seed=41, size=1 << 20))
    jobs = [(s, TEXT_ITERATIONS, corpus_path) for s in (1, 2, 3)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(_run_text_seed, jobs))
    wins = 0
    for run in runs:
        ok = run["ratio"] >= 1.10
        wins += ok
        print(f"  text seed {run['seed']}: boundary ponder {run['boundary']:.3f} "
              f"vs alnum {run['alnum']:.3f} (ratio {run['ratio']:.3f}) "
              f"-> {'ok' if ok else 'no'}")
    report(10, wins >= 2,
           f"{wins}/3 seeds pondered >=10% longer at boundary bytes")


TAU_PROBE_ITERATIONS = 25_000


@scaled
@pytest.mark.scaled
def test_criterion_11_tau_monotonicity():
    jobs_low = [(s, 100, TAU_PROBE_ITERATIONS, 1e-3) for s in (11, 12, 13)]
    jobs_high = [(s, 100, TAU_PROBE_ITERATIONS, 1e-1) for s in (11, 12, 13)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        low = list(pool.map(_run_parity_seed, jobs_low))
        high = list(pool.map(_run_parity_seed, jobs_high))
    mean_low = float(np.mean([r["mean_ponder"] for r in low]))
    mean_high = float(np.mean([r["mean_ponder"] for r in high]))
    for r in low + high:
        print(f"  tau probe seed {r['seed']}: ponder {r['mean_ponder']:.3f}")
    report(11, mean_high < mean_low,
           f"mean ponder at tau=1e-1 is {mean_high:.3f} vs {mean_low:.3f} "
           f"at tau=1e-3")
