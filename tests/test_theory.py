import numpy as np
import pytest

from swanopt import theory
from swanopt.matrixops import make_spd, random_matrix, sample_stiefel
from swanopt.problems import QuadraticProblem
from swanopt.theory import (
    compare_blockwise,
    gd_adversarial_factors,
    golden_section,
    measure_whitened_contraction,
    predict_adam_bound,
    predict_gd_bound,
    predict_whitened_contraction,
    robustness_q,
    stiefel_one_step_relative_loss,
    tune_learning_rate,
)
from swanopt.optimizers import whitened_gd_optimal_step
from swanopt.gradient_ops import orthogonalize
from swanopt.matrixops import schatten1_norm


class TestWhitenedContraction:
    def test_stiefel_gives_zero(self):
        p = QuadraticProblem.seeded(8, 8, 100.0, 0)
        w = sample_stiefel(8, 8, 1)
        assert abs(predict_whitened_contraction(p, w)) <= 1e-10

    def test_identity_hessian_formula(self):
        p = QuadraticProblem(np.eye(6), np.zeros((6, 6)))
        w = random_matrix(6, 6, 2)
        sv = np.linalg.svd(w, compute_uv=False)
        expected = 1.0 - sv.sum() ** 2 / (6.0 * np.sum(sv**2))
        assert np.isclose(predict_whitened_contraction(p, w), expected, rtol=1e-10)

    def test_rejects_optimum(self):
        p = QuadraticProblem.seeded(4, 4, 10.0, 3)
        with pytest.raises(ValueError, match="optimum"):
            predict_whitened_contraction(p, p.w_star)

    @pytest.mark.parametrize("seed", range(10))
    def test_prediction_matches_measurement(self, seed):
        m = (4, 20, 50)[seed % 3]
        p = QuadraticProblem.seeded(m, m, 10.0 ** (1 + seed % 4), seed)
        w = random_matrix(m, m, seed + 1000)
        report = measure_whitened_contraction(p, w, context=f"seed {seed}")
        assert report.abs_error <= 1e-8

    def test_optimal_rate_is_locally_optimal(self):
        # +-10% perturbations of the dynamic rate never contract faster
        p = QuadraticProblem.seeded(20, 20, 1e3, 4)
        w = random_matrix(20, 20, 5)
        g = p.h @ w
        delta = orthogonalize(g)
        eta_star = schatten1_norm(g) / np.trace(p.h)
        base = p.excess_loss(w - eta_star * delta)
        for f in (0.9, 0.95, 1.05, 1.1):
            assert p.excess_loss(w - f * eta_star * delta) >= base - 1e-12 * abs(base)


class TestGdBound:
    def test_kappa_one(self):
        assert predict_gd_bound(1.0) == 0.0

    def test_large_kappa_limit(self):
        assert predict_gd_bound(1e12) > 1 - 1e-11

    def test_rejects_kappa_below_one(self):
        with pytest.raises(ValueError):
            predict_gd_bound(0.9)

    @pytest.mark.parametrize("kappa", [10.0, 100.0, 1e4])
    def test_adversarial_tightness(self, kappa):
        loss_factor, dist_factor = gd_adversarial_factors(kappa)
        bound = predict_gd_bound(kappa)
        # distance contraction attains the bound; loss contracts by its square
        assert dist_factor >= bound - 1e-9
        assert abs(dist_factor - bound) <= 1e-9
        assert abs(loss_factor - bound**2) <= 1e-9
        assert loss_factor >= bound**2 - 1e-9


class TestAdamBound:
    def test_zero_entry_rejected(self):
        p = QuadraticProblem(np.eye(2), np.zeros((2, 2)))
        w0 = np.array([[1.0, 1.0], [0.0, 1.0]])  # H w0 has a zero entry
        with pytest.raises(ValueError, match="zero entry"):
            predict_adam_bound(p, w0)

    def test_identity_preconditioned_perfectly(self):
        # H = I: preconditioned operator diag(1/|w0|) has kappa = max/min |w0|
        p = QuadraticProblem(np.eye(3), np.zeros((3, 1)))
        w0 = np.array([[1.0], [2.0], [4.0]])
        got = predict_adam_bound(p, w0)
        assert np.isclose(got, predict_gd_bound(4.0), rtol=1e-12)

    def test_bound_in_unit_interval(self):
        p = QuadraticProblem.seeded(6, 4, 100.0, 7)
        w0 = random_matrix(6, 4, 8)
        b = predict_adam_bound(p, w0)
        assert 0.0 <= b < 1.0


class TestRobustnessQ:
    def test_identity_direction_is_one(self):
        # w = c I makes Tr(Hw)^2 = c^2 Tr(H)^2 and Tr(w^T H w) = c^2 Tr(H)
        for kappa in (10.0, 1e4):
            p = QuadraticProblem.seeded(12, 12, kappa, 0)
            q = robustness_q(p, 3.0 * np.eye(12))
            assert np.isclose(q, 1.0, rtol=1e-10)
            assert q > 0

    def test_floor_across_condition_numbers(self):
        qs = {}
        for kappa in (1e1, 1e2, 1e4, 1e6):
            p = QuadraticProblem.seeded(20, 20, kappa, 1)
            qs[kappa] = robustness_q(p, np.eye(20))
        floor = 0.5 * qs[1e1]
        assert all(q > floor for q in qs.values())

    @pytest.mark.parametrize("seed", range(10))
    def test_cauchy_schwarz_upper_bound(self, seed):
        p = QuadraticProblem.seeded(7, 7, 10.0 ** (seed % 4), seed)
        w = random_matrix(7, 7, seed + 50)
        assert robustness_q(p, w) <= 1.0 + 1e-12

    def test_rejects_optimum(self):
        p = QuadraticProblem.seeded(5, 5, 10.0, 2)
        with pytest.raises(ValueError, match="undefined"):
            robustness_q(p, p.w_star)

    def test_rejects_rectangular(self):
        p = QuadraticProblem.seeded(5, 3, 10.0, 2)
        with pytest.raises(ValueError, match="square"):
            robustness_q(p, random_matrix(5, 3, 0))


class TestBlockwise:
    def test_stiefel_block_beats_adam(self):
        h = make_spd(8, 100.0, 0)
        w0 = sample_stiefel(8, 8, 1)
        [(white, adam)] = compare_blockwise([(h, w0)])
        assert white.measured <= 1e-10
        assert adam.measured > white.measured

    def test_two_ill_conditioned_blocks(self):
        for seed in range(3):
            blocks = [
                (make_spd(25, 1e4, 100 + seed), random_matrix(25, 25, 300 + seed)),
                (make_spd(25, 1e4, 200 + seed), random_matrix(25, 25, 400 + seed)),
            ]
            for white, adam in compare_blockwise(blocks):
                assert white.measured < adam.measured

    def test_rank_deficient_block_error_surfaces(self):
        h = 2.0 * np.eye(4)
        w0 = random_matrix(4, 1, 0) @ np.ones((1, 4))
        with pytest.raises(ValueError, match="singular value"):
            compare_blockwise([(h, w0)])

    @pytest.mark.parametrize(
        "w0, match",
        [
            # H w0 overflows to +inf in one entry; LAPACK's SVD would not return on it
            (np.array([[1e308, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 1.0, 2.0]]),
             "g contains non-finite"),
            (np.array([[np.nan, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 1.0, 2.0]]),
             "non-finite"),
            (np.ones(3), "2-D"),
        ],
        ids=["inf", "nan", "1d"],
    )
    def test_bad_block_raises(self, w0, match):
        with pytest.raises(ValueError, match=match):
            compare_blockwise([(np.diag([2.0, 1.0, 1.0]), w0)])

    def test_adam_rate_is_the_vertex_of_its_parabola(self, monkeypatch):
        h, w0 = make_spd(25, 1e4, 100), random_matrix(25, 25, 300)
        calls = []
        real = theory.adam_step
        monkeypatch.setattr(
            theory, "adam_step", lambda *args: calls.append(args[-1]) or real(*args)
        )
        [(_, adam)] = compare_blockwise([(h, w0)])
        [cfg] = calls  # one measuring step, no search
        p = QuadraticProblem(h, np.zeros_like(w0))

        def factor(eta):
            w1 = w0 - eta * np.sign(p.grad(w0))
            return p.excess_loss(w1) / p.excess_loss(w0)

        assert adam.measured == pytest.approx(factor(cfg.learning_rate), rel=1e-12)
        assert all(adam.measured < factor(cfg.learning_rate * c) for c in (0.99, 1.01))


class TestSearchHelpers:
    def test_golden_section_parabola(self):
        assert abs(golden_section(lambda x: (x - 1.7) ** 2, 0.0, 5.0, tol=1e-8) - 1.7) <= 1e-7

    def test_tune_learning_rate(self):
        eta, val = tune_learning_rate(lambda e: (np.log(e) - np.log(0.07)) ** 2, 1e-4, 1.0)
        assert 0.05 <= eta <= 0.1
        assert val <= 1e-2

    def test_tune_learning_rate_needs_two_grid_points(self):
        calls = []
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            tune_learning_rate(calls.append, 1e-4, 1.0, grid_points=1)
        assert calls == []


class TestStiefelOneStep:
    @pytest.mark.parametrize("kappa", [10.0, 1e4])
    def test_single_step_convergence(self, kappa):
        rel = stiefel_one_step_relative_loss(50, kappa, h_seed=3, w_seed=4)
        assert rel <= 1e-10
