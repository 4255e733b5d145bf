import numpy as np
import pytest

from swanopt.analysis import (
    CounterfactualResult,
    GradientDistSnapshot,
    PplCurve,
    counterfactual_additive,
    default_thresholds,
    kl_to_reference,
    snapshot_gradients,
    speedup_ratio,
    step_to_reach,
)
from swanopt.gradient_ops import GradNormConfig, grad_norm
from swanopt.problems import MlpProblem


def linear_curve(first, last, n, slope_end):
    """Metric falling linearly from `first` to `slope_end` over steps 0..last."""
    steps = np.linspace(0, last, n)
    values = first + (slope_end - first) * steps / last
    return PplCurve(steps=steps, values=values)


class TestSnapshots:
    def test_zero_gradient_problem_has_zero_spread(self):
        p = MlpProblem(layer_dims=(4, 8, 3), teacher_seed=0)
        snap = snapshot_gradients(p, p.teacher, "raw", n_batches=4, seed=1)
        assert np.array_equal(snap.mean, np.zeros_like(snap.mean))
        assert np.array_equal(snap.std, np.zeros_like(snap.std))

    def test_matches_two_pass_oracle(self):
        p = MlpProblem(layer_dims=(4, 8, 3), teacher_seed=0)
        weights = p.initial_weights(3)
        seed, n = 42, 6
        snap = snapshot_gradients(p, weights, "gradnorm", n_batches=n, seed=seed)
        # brute-force recomputation over the same derived batch seeds
        rng = np.random.default_rng(seed)
        batch_seeds = rng.integers(0, 2**63 - 1, size=n)
        gs = []
        for bs in batch_seeds:
            _, grads = p.loss_and_grads(weights, int(bs))
            gs.append(grad_norm(grads[1], GradNormConfig()))
        gs = np.array(gs)
        mean = gs.sum(axis=0) / n
        std = np.sqrt(((gs - mean) ** 2).sum(axis=0) / n)
        assert np.allclose(snap.mean, mean, atol=1e-15)
        assert np.allclose(snap.std, std, atol=1e-12)

    def test_preprocess_validated(self):
        p = MlpProblem(layer_dims=(4, 8, 3))
        with pytest.raises(ValueError, match="preprocess"):
            snapshot_gradients(p, p.teacher, "whitened", n_batches=4, seed=0)

    @pytest.mark.parametrize("block", (-1, 2))
    def test_block_validated(self, block):
        p = MlpProblem(layer_dims=(4, 8, 3))
        assert p.n_blocks == 2
        with pytest.raises(ValueError, match=r"block must be in \[0, 2\)"):
            snapshot_gradients(p, p.teacher, "raw", n_batches=4, seed=0, block=block)

    def test_snapshot_validation(self):
        with pytest.raises(ValueError, match="2 batches"):
            GradientDistSnapshot(mean=np.zeros((2, 2)), std=np.zeros((2, 2)), n_batches=1)
        with pytest.raises(ValueError, match="negative"):
            GradientDistSnapshot(mean=np.zeros((2, 2)), std=-np.ones((2, 2)), n_batches=3)


class TestKl:
    def make(self, mean, std):
        return GradientDistSnapshot(
            mean=np.asarray(mean, dtype=float),
            std=np.asarray(std, dtype=float),
            n_batches=4,
        )

    def test_self_divergence_zero(self):
        a = self.make([[0.3, -1.0]], [[0.5, 2.0]])
        assert kl_to_reference(a, a) == 0.0

    def test_scalar_closed_form(self):
        # sigma_a = e * sigma_ref, equal means: KL = e^2/2 - 1/2 - 1 + ... = e^2/2 - 1/2 - log e
        e = np.e
        a = self.make([[0.0]], [[e]])
        ref = self.make([[0.0]], [[1.0]])
        expected = -1.0 + e**2 / 2.0 - 0.5 + 0.0
        assert np.isclose(kl_to_reference(a, ref), expected, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = self.make(rng.normal(size=(3, 4)), rng.uniform(0.1, 2.0, size=(3, 4)))
        ref = self.make(rng.normal(size=(3, 4)), rng.uniform(0.1, 2.0, size=(3, 4)))
        assert kl_to_reference(a, ref) >= 0.0

    def test_zero_iff_identical_up_to_clamp(self):
        a = self.make([[0.1]], [[1e-12]])
        b = self.make([[0.1]], [[1e-9]])  # both clamp to 1e-8
        assert kl_to_reference(a, b) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kl_to_reference(
                self.make([[0.0]], [[1.0]]), self.make([[0.0, 1.0]], [[1.0, 1.0]])
            )


class TestCurves:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            PplCurve(steps=np.array([0, 0, 1]), values=np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            PplCurve(steps=np.array([0, 1]), values=np.array([1.0, -1.0]))

    def test_step_to_reach_interpolates(self):
        c = PplCurve(steps=np.array([0, 10]), values=np.array([10.0, 5.0]))
        assert step_to_reach(c, 7.5) == 5.0
        assert step_to_reach(c, 10.0) == 0.0
        assert step_to_reach(c, 4.0) is None

    def test_refinement_invariance(self):
        # piecewise-linear curve resampled on a finer grid keeps crossings
        steps = np.arange(0, 101, 10, dtype=float)
        values = 200.0 - steps
        coarse = PplCurve(steps=steps, values=values)
        fine_steps = np.arange(0, 101, 1, dtype=float)
        fine = PplCurve(steps=fine_steps, values=np.interp(fine_steps, steps, values))
        for p in (195.0, 150.0, 123.4, 100.0):
            assert abs(step_to_reach(coarse, p) - step_to_reach(fine, p)) <= 1e-9


class TestSpeedup:
    def test_identical_curves(self):
        a = linear_curve(1000.0, 900, 91, 100.0)
        pts = speedup_ratio(a, a, thresholds=[800.0, 500.0, 200.0])
        assert all(np.isclose(p.ratio, 1.0) for p in pts)

    def test_pure_left_shift(self):
        steps = np.arange(0, 901, 10, dtype=float)
        adam = PplCurve(steps=steps, values=1000.0 - steps)
        shift = 50.0
        swan_steps = np.arange(0, 851, 10, dtype=float)
        swan = PplCurve(steps=swan_steps, values=1000.0 - (swan_steps + shift))
        thresholds = [850.0, 700.0, 500.0, 300.0]
        for p in speedup_ratio(adam, swan, thresholds):
            s_adam = 1000.0 - p.threshold
            assert abs(p.ratio - s_adam / (s_adam - shift)) <= 1e-9

    def test_multiplicative_two_x(self):
        steps = np.arange(0, 901, 2, dtype=float)
        adam = PplCurve(steps=steps, values=1000.0 - steps)
        half = np.arange(0, 451, 1, dtype=float)
        swan = PplCurve(steps=half, values=1000.0 - 2.0 * half)
        for p in speedup_ratio(adam, swan, [900.0, 600.0, 400.0, 150.0]):
            assert abs(p.ratio - 2.0) <= 1e-9

    def test_unreached_threshold_marked(self):
        a = linear_curve(100.0, 10, 11, 50.0)
        [pt] = speedup_ratio(a, a, thresholds=[10.0])
        assert pt.ratio is None and pt.steps_baseline is None

    def test_default_threshold_grid(self):
        a = linear_curve(1000.0, 100, 11, 10.0)
        b = linear_curve(900.0, 100, 11, 20.0)
        grid = default_thresholds(a, b, count=50)
        assert len(grid) == 50
        assert grid.min() >= 20.0 - 1e-9 and grid.max() <= 900.0 + 1e-9


class TestCounterfactual:
    def test_identical_curves(self):
        steps = np.arange(0, 1001, 10, dtype=float)
        adam = PplCurve(steps=steps, values=2000.0 - steps)
        res = counterfactual_additive(adam, adam)
        assert res.delta == 0.0
        assert all(r == 1.0 for _, r in res.additive_ratio if r is not None)
        assert np.array_equal(res.additive_curve.values, adam.values)

    def test_left_shift_recovers_delta_and_matches_actual(self):
        steps = np.arange(0, 1001, 5, dtype=float)
        adam = PplCurve(steps=steps, values=2000.0 - steps)
        swan_steps = np.arange(0, 951, 5, dtype=float)
        swan = PplCurve(steps=swan_steps, values=2000.0 - (swan_steps + 50.0))
        res = counterfactual_additive(adam, swan)
        assert abs(res.delta - 50.0) <= 1e-9
        for p, (_, ra) in zip(res.points, res.additive_ratio):
            if p.ratio is not None and ra is not None:
                assert abs(p.ratio - ra) <= 1e-9
        # PPL_additive(s) = PPL_adam(s + 50) reproduces the shifted curve
        for s, v in zip(res.additive_curve.steps, res.additive_curve.values):
            assert abs(v - (2000.0 - (s + 50.0))) <= 1e-9

    def test_multiplicative_exceeds_additive_late(self):
        steps = np.arange(0, 1001, 1, dtype=float)
        adam = PplCurve(steps=steps, values=2000.0 - steps)
        half = np.arange(0, 501, 1, dtype=float)
        swan = PplCurve(steps=half, values=2000.0 - 2.0 * half)
        res = counterfactual_additive(adam, swan)
        late = [
            (p, ra)
            for p, (_, ra) in zip(res.points, res.additive_ratio)
            if p.steps_baseline is not None
            and p.steps_baseline > 0.2 * adam.final_step
            and ra is not None
        ]
        assert late, "no thresholds beyond the early window"
        for p, ra in late:
            assert p.ratio > ra + 1e-12

    def test_three_point_hand_computed(self):
        adam = PplCurve(steps=np.array([0.0, 100.0, 1000.0]), values=np.array([100.0, 50.0, 10.0]))
        swan = PplCurve(steps=np.array([0.0, 80.0, 1000.0]), values=np.array([100.0, 50.0, 10.0]))
        # threshold 50: S_adam = 100 (in window [100, 200]), S_swan = 80 -> delta = 20
        res = counterfactual_additive(adam, swan, thresholds=[50.0])
        assert abs(res.delta - 20.0) <= 1e-12
        [(thr, ra)] = res.additive_ratio
        assert thr == 50.0
        assert abs(ra - 100.0 / 80.0) <= 1e-12

    def test_empty_window_rejected(self):
        adam = PplCurve(steps=np.array([0.0, 1000.0]), values=np.array([100.0, 10.0]))
        with pytest.raises(ValueError, match="early window"):
            counterfactual_additive(adam, adam, thresholds=[15.0])  # crosses at 94%
