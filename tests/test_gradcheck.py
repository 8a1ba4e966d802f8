import numpy as np
import pytest

from actlab import engine, gradcheck
from actlab.act import ActConfig
from actlab.autodiff import ContractError
from actlab.cells import init_params
from actlab.gradcheck import halting_gradient_check
from actlab.tasks import gen_logic, gen_parity, task_spec


def setup_case(seed=0, hidden=6, n_bits=4):
    spec = task_spec("parity", input_size=n_bits)
    params = init_params("rnn", n_bits, hidden, 1, seed=seed)
    batch = gen_parity(seed=seed + 1, n_bits=n_bits, batch=2)
    return spec, params, batch


class TestGradCheck:
    def test_small_net_passes(self):
        spec, params, batch = setup_case()
        report = halting_gradient_check(params, ActConfig(max_steps=6,
                                                          time_penalty=1e-2),
                                        batch, spec)
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert report.coords_checked > 0
        assert set(report.per_param) == {n for n, _ in params.items()}

    def test_large_net_rejected(self):
        spec, params, batch = setup_case(hidden=6)
        big = init_params("rnn", 4, 64, 1, seed=0)
        with pytest.raises(ContractError, match="32"):
            halting_gradient_check(big, ActConfig(), batch, spec)

    def test_coordinate_subsampling(self):
        spec, params, batch = setup_case(seed=3)
        report = halting_gradient_check(params, ActConfig(max_steps=6),
                                        batch, spec, max_coords_per_param=2)
        assert report.coords_checked <= 2 * len(list(params.items()))

    def test_threshold_sitting_coordinates_are_skipped_not_failed(self):
        # Constant halting activation exactly at (1 - eps) / 2 makes the
        # second update land on the threshold: any perturbation of the
        # halting head flips the count, at every step size.
        spec, params, batch = setup_case(seed=5)
        params.w_halt[...] = 0.0
        h = (1.0 - 0.01) / 2.0
        params.b_halt[0, 0] = np.log(h / (1.0 - h))
        report = halting_gradient_check(params, ActConfig(max_steps=8),
                                        batch, spec)
        assert report.coords_skipped
        assert {name for name, _ in report.coords_skipped} <= {"w_halt", "b_halt"}
        assert report.max_rel_err < 1e-4      # everything checked still passes

    @staticmethod
    def closed_form_flags(spec, params, cfg, batch):
        report = halting_gradient_check(params, cfg, batch, spec,
                                        max_coords_per_param=0)
        return report.ponder_closed_form_ok, report.halt_gradient_zero_ok

    def test_closed_forms_run_on_one_forward(self, monkeypatch):
        # The analytic gradient, every ponder check and the zero-gradient
        # check share one tape: each backward replaces the one before.
        spec = task_spec("logic")
        params = init_params("lstm", spec.input_size, 4, spec.output_size, seed=2)
        batch = gen_logic(seed=3, batch=3, min_len=3, max_len=3)
        calls = []
        real = gradcheck.batch_objective

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gradcheck, "batch_objective", counted)
        assert self.closed_form_flags(
            spec, params, ActConfig(max_steps=5, time_penalty=1e-2), batch) == (True, True)
        assert len(calls) == 1

    def test_closed_forms_fail_on_a_wrong_halting_adjoint(self, monkeypatch):
        # A backward that records +0.5 on every row's last-update adjoint
        # breaks both closed forms: the rows halting there read 0.5, not 0.
        spec = task_spec("logic")
        params = init_params("lstm", spec.input_size, 4, spec.output_size, seed=2)
        batch = gen_logic(seed=3, batch=3, min_len=3, max_len=3)
        cfg = ActConfig(max_steps=5, time_penalty=1e-2)
        assert self.closed_form_flags(spec, params, cfg, batch) == (True, True)
        real = engine._backward_step

        def perturbed(*args):
            carry, dh = real(*args)
            dh[:, -1] += 0.5
            return carry, dh

        monkeypatch.setattr(engine, "_backward_step", perturbed)
        assert self.closed_form_flags(spec, params, cfg, batch) == (False, False)
