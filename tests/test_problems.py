import re

import numpy as np
import pytest

from swanopt.matrixops import make_spd, random_matrix
from swanopt.problems import (
    MlpProblem,
    QuadraticProblem,
    RastriginProblem,
    StbSystem,
    hessian_block_divergence,
    normalized_hessian_blocks,
    stb_hessian,
    stb_integrate,
)


def finite_difference_grad(loss_fn, w, h=1e-5):
    """Central differences, the oracle for every analytic gradient."""
    g = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (loss_fn(wp) - loss_fn(wm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


class TestQuadratic:
    def test_zero_everything(self):
        p = QuadraticProblem(np.eye(3), np.zeros((3, 2)))
        w = np.zeros((3, 2))
        assert p.loss(w) == 0.0
        assert np.array_equal(p.grad(w), np.zeros((3, 2)))

    def test_identity_hessian_loss(self):
        p = QuadraticProblem(np.eye(4), np.zeros((4, 4)))
        w = random_matrix(4, 4, 0)
        w *= 2.0 / np.linalg.norm(w)
        assert np.isclose(p.loss(w), 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        p = QuadraticProblem.seeded(5, 3, 50.0, seed, c_scale=1.0)
        w = random_matrix(5, 3, seed + 100)
        fd = finite_difference_grad(p.loss, w)
        assert rel_err(p.grad(w), fd) <= 1e-6

    def test_excess_loss_identity(self):
        p = QuadraticProblem.seeded(6, 4, 20.0, 1, c_scale=0.7)
        for seed in range(10):
            w = random_matrix(6, 4, seed)
            z = w - p.w_star
            direct = 0.5 * np.trace(z.T @ p.h @ z)
            assert abs(p.excess_loss(w) - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_w_star_is_minimum(self):
        p = QuadraticProblem.seeded(5, 5, 10.0, 2, c_scale=1.0)
        for seed in range(10):
            w = p.w_star + 0.1 * random_matrix(5, 5, seed)
            assert p.loss(w) >= p.l_star

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize(
        "shape",
        [(512, 2048), (128, 1024), (127, 1024), (128, 1088), (1024, 128), (300, 1001), (1001, 300)],
        ids=str,
    )
    def test_split_products_keep_the_serial_and_whole_bits(
        self, shape, layout, cpus, assert_same_bits, blocked_product
    ):
        # H w in column halves on multiples of 64 from 2^17 entries (not at 127 x 1024; a
        # short upper half at 128 x 1088, 300 x 1001 and 1001 x 300), with the worker on
        # (2 CPUs) and off (1): the bits of the blocked product and of loss's expression,
        # within the tolerance of the whole product
        p = QuadraticProblem.seeded(*shape, 100.0, 8, c_scale=1.0)
        w = random_matrix(*shape, 9)
        w = np.asfortranarray(w) if layout == "F" else w
        runs = []
        for count in (2, 1):
            cpus(count)
            loss, grad = p.loss_and_grad(w)
            runs.append((p.grad(w).tobytes(), p.loss(w), loss, grad.tobytes()))
        hw = blocked_product(p.h, w, 1)
        grad = np.subtract(hw, p.c)
        assert_same_bits(p.grad(w), grad, np.subtract(p.h @ w, p.c))
        want, loss = grad.tobytes(), float(np.vdot(w, 0.5 * hw - p.c))
        assert runs[0] == runs[1] == (want, loss, loss, want)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4)])
    def test_loss_and_l_star_match_the_trace_form(self, shape):
        p = QuadraticProblem.seeded(*shape, 1e3, 5, c_scale=0.8)
        trace_form = lambda w: 0.5 * np.trace(w.T @ p.h @ w) - np.trace(p.c.T @ w)
        for seed in range(5):
            w = random_matrix(*shape, seed)
            assert p.loss(w) == pytest.approx(trace_form(w), rel=1e-12)
        assert p.l_star == pytest.approx(trace_form(p.w_star), rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticProblem(np.diag([1.0, -2.0]))

    def test_rejects_a_general_indefinite_h(self):
        # not diagonal, so the one eigh decides; its smallest eigenvalue is about -4.0
        a = random_matrix(6, 6, 0)
        with pytest.raises(ValueError, match=r"h is not positive definite \(min eigenvalue -4\.0"):
            QuadraticProblem(a + a.T, random_matrix(6, 2, 1))

    # Worst ||H W* - C||_F / ||C||_F and relative error of L* against an LU solve, measured over
    # seeds 0-2, the three shapes and both constructions (OpenBLAS 0.3.31, float64), times 10.
    # The LU solve's own residual was 2.1e-16, 2.9e-15, 3.6e-13 and 2.5e-9 at these kappas.
    CLOSED_FORM_BOUNDS = {1.0: (1.4e-14, 5.4e-15), 1e2: (1.1e-13, 4.8e-14),
                          1e4: (7.2e-12, 3.6e-12), 1e8: (7.6e-8, 5.0e-8)}  # fmt: skip

    @pytest.mark.parametrize("kappa", CLOSED_FORM_BOUNDS)
    @pytest.mark.parametrize("seeded", (True, False), ids=("seeded", "general"))
    @pytest.mark.parametrize("shape", [(5, 3), (50, 50), (64, 200)], ids=str)
    def test_closed_forms_meet_their_error_contract(self, kappa, seeded, shape):
        residual_bound, l_star_bound = self.CLOSED_FORM_BOUNDS[kappa]
        for seed in range(3):
            if seeded:
                p = QuadraticProblem.seeded(*shape, kappa, seed, c_scale=1.0)
            else:  # the same H through the public constructor's eigh
                p = QuadraticProblem(make_spd(shape[0], kappa, seed), random_matrix(*shape, seed + 1))
            c_norm = np.linalg.norm(p.c)
            assert np.linalg.norm(p.h @ p.w_star - p.c) / c_norm <= residual_bound
            l_star = -0.5 * np.vdot(p.c, np.linalg.solve(p.h, p.c))
            assert abs(p.l_star - l_star) <= l_star_bound * abs(l_star)

    def test_seeded_needs_no_solve_and_no_decomposition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a seeded problem reads its closed forms from its own factors")

        for name in ("solve", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        p = QuadraticProblem.seeded(50, 80, 1e4, 3, c_scale=1.0)
        # the spectrum is the constructed one, so gd_optimal's rate is exactly 2 / (kappa + 1)
        assert p.eigenvalues.tobytes() == np.geomspace(1.0, 1e4, 50)[::-1].tobytes()
        assert (p.eigenvalues[0], p.eigenvalues[-1]) == (1e4, 1.0)
        assert p.w_star.shape == (50, 80)

    @pytest.mark.parametrize("seeded", (True, False), ids=("seeded", "general"))
    def test_w_star_is_formed_when_first_read(self, seeded):
        p = QuadraticProblem.seeded(7, 4, 10.0, 2, c_scale=1.0)
        if not seeded:
            p = QuadraticProblem(p.h, p.c)
        assert "w_star" not in vars(p)
        w_star = p.w_star
        assert vars(p)["w_star"] is w_star and p.w_star is w_star

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
    def test_rejects_an_empty_or_non_square_h(self, shape):
        message = f"h must be square and non-empty, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            QuadraticProblem(np.zeros(shape))

    def test_rejects_shape_mismatch(self):
        p = QuadraticProblem(np.eye(3), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="w must be"):
            p.loss(np.zeros((3, 3)))


class TestRastrigin:
    def test_global_minimum(self):
        p = RastriginProblem(size=6)
        w = np.zeros((6, 6))
        assert p.loss(w) == 0.0
        assert np.array_equal(p.grad(w), np.zeros((6, 6)))

    def test_l_star_is_the_loss_at_zero(self):
        p = RastriginProblem(size=7)
        assert p.l_star == p.loss(np.zeros((7, 7))) == 0.0

    def test_all_ones(self):
        p = RastriginProblem(amplitude=10.0, size=5)
        w = np.ones((5, 5))
        # cos(2 pi) = 1 cancels the amplitude terms, leaving 1/2 Tr(W^T W)
        assert np.isclose(p.loss(w), 25.0 / 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        p = RastriginProblem(size=4)
        w = random_matrix(4, 4, seed)
        fd = finite_difference_grad(p.loss, w)
        assert rel_err(p.grad(w), fd) <= 1e-6


LOSS_AND_GRAD_PROBLEMS = {
    "quadratic": QuadraticProblem.seeded(6, 9, 50.0, 4),
    "quadratic_c": QuadraticProblem.seeded(6, 9, 50.0, 4, c_scale=1.0),
    "rastrigin": RastriginProblem(size=6),
}


class TestLossAndGrad:
    @pytest.mark.parametrize("name", LOSS_AND_GRAD_PROBLEMS)
    @pytest.mark.parametrize("scale", (1e-3, 1.0, 1e3))
    def test_equals_loss_and_grad_bit_for_bit(self, name, scale):
        p = LOSS_AND_GRAD_PROBLEMS[name]
        for seed in range(5):
            w = random_matrix(*p.shape, seed, scale=scale)
            loss, g = p.loss_and_grad(w)
            assert loss == p.loss(w)
            assert np.array_equal(g, p.grad(w))

    @pytest.mark.parametrize("name", LOSS_AND_GRAD_PROBLEMS)
    def test_rejects_what_loss_and_grad_reject(self, name):
        p = LOSS_AND_GRAD_PROBLEMS[name]
        bad = random_matrix(*p.shape, 0)
        bad[1, 2] = np.nan
        for w in (bad, np.inf * bad, random_matrix(p.shape[1], p.shape[0] + 1, 0), np.ones(3)):
            messages = set()
            for call in (p.loss, p.grad, p.loss_and_grad):
                with pytest.raises(ValueError) as info:
                    call(w)
                messages.add(str(info.value))
            assert len(messages) == 1, messages

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rastrigin_overflow_is_a_non_finite_loss_without_warnings(self):
        p = RastriginProblem(size=3)
        w = random_matrix(3, 3, 0, scale=1e200)
        assert not np.isfinite(p.loss(w))
        loss, g = p.loss_and_grad(w)
        assert not np.isfinite(loss)
        np.testing.assert_equal(g, p.grad(w))


class TestMlp:
    def test_student_equals_teacher(self):
        p = MlpProblem(layer_dims=(4, 8, 3), teacher_seed=0)
        loss, grads = p.loss_and_grads(p.teacher, batch_seed=5)
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        p = MlpProblem(layer_dims=(3, 8, 2), teacher_seed=1, student_scale=1.0)
        weights = p.initial_weights(seed + 500)  # distinct from the teacher draw
        _, grads = p.loss_and_grads(weights, batch_seed=seed)

        flat = np.concatenate([w.ravel() for w in weights])
        shapes = [w.shape for w in weights]

        def unflatten(v):
            out, off = [], 0
            for s in shapes:
                out.append(v[off : off + s[0] * s[1]].reshape(s))
                off += s[0] * s[1]
            return out

        def loss_of(v):
            return p.loss_and_grads(unflatten(v), batch_seed=seed)[0]

        fd = np.zeros_like(flat)
        for i in range(flat.size):
            vp = flat.copy()
            vp[i] += 1e-5
            vm = flat.copy()
            vm[i] -= 1e-5
            fd[i] = (loss_of(vp) - loss_of(vm)) / 2e-5
        analytic = np.concatenate([g.ravel() for g in grads])
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    @pytest.mark.parametrize(
        "dims, scale", [((16, 64, 64, 8), 1.0), ((5, 3), 1.0), ((10, 20, 30, 2), 1e200)]
    )
    def test_in_place_backward_pass_keeps_the_bits(self, dims, scale):
        # the objective against the backward pass in new arrays, over 50 batches; at
        # scale 1e200 the activations overflow to inf and nan
        p = MlpProblem(layer_dims=dims, batch_size=33, teacher_seed=3)

        def plain(weights, batch_seed):
            x, y = p.sample_batch(batch_seed)
            acts = [x]
            for i, w in enumerate(weights):
                z = acts[-1] @ w
                acts.append(z if i == len(weights) - 1 else np.tanh(z))
            diff = acts[-1] - y
            loss = 0.5 * float(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / x.shape[0])
            grads, delta = [None] * len(weights), diff / x.shape[0]
            for i in reversed(range(len(weights))):
                grads[i] = acts[i].T @ delta
                if i > 0:
                    delta = (delta @ weights[i].T) * (1.0 - acts[i] * acts[i])
            return loss, grads

        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(50):
                weights = [scale * w for w in p.initial_weights(t)]
                loss, grads = p.loss_and_grads(weights, t)
                want_loss, want = plain(weights, t)
                assert np.array(loss).tobytes() == np.array(want_loss).tobytes()
                assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]

    def test_working_set(self, warm_peak_bytes):
        # the batch (x, y), the hidden activations, the gradients, the output and one
        # delta of the widest hidden layer: each activation is overwritten once read
        dims, batch = (16, 64, 64, 8), 64
        p = MlpProblem(layer_dims=dims, batch_size=batch)
        weights = p.initial_weights(1)
        hidden = batch * sum(dims[1:-1])
        grads = sum(a * b for a, b in zip(dims, dims[1:]))
        entries = batch * dims[0] + 2 * batch * dims[-1] + hidden + batch * max(dims[1:-1]) + grads
        assert warm_peak_bytes(p.loss_and_grads, weights, 2) <= entries * 8 + 4096

    def test_batch_determinism(self):
        p = MlpProblem(layer_dims=(4, 8, 3), teacher_seed=2)
        weights = p.initial_weights(7)
        l1, g1 = p.loss_and_grads(weights, batch_seed=11)
        l2, g2 = p.loss_and_grads(weights, batch_seed=11)
        assert l1 == l2
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))

    def test_bad_weight_shapes_rejected(self):
        p = MlpProblem(layer_dims=(4, 8, 3))
        weights = p.initial_weights(0)
        weights[1] = weights[1].T
        with pytest.raises(ValueError, match="block 1"):
            p.loss_and_grads(weights, batch_seed=0)


class TestStb:
    def test_zero_field_is_stationary(self):
        system = StbSystem(mu=np.zeros((3, 4)), v0=random_matrix(3, 4, 0))
        traj = stb_integrate(system, steps=50)
        assert np.array_equal(traj.final_state, system.v0)
        assert traj.aborted_at is None

    def test_single_entry_euler_step(self):
        system = StbSystem(mu=np.ones((1, 1)), v0=np.zeros((1, 1)), dt=1e-3)
        traj = stb_integrate(system, steps=1)
        assert np.isclose(traj.final_state[0, 0], 1e-3)

    @pytest.mark.parametrize("dt", (0.0, -1e-3, float("nan"), float("inf")))
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            StbSystem(mu=np.ones((2, 3)), v0=np.zeros((2, 3)), dt=dt)

    @pytest.mark.parametrize("shape", ((0, 3), (3, 0)))
    def test_rejects_empty_mu(self, shape):
        with pytest.raises(ValueError, match="mu must be non-empty"):
            StbSystem(mu=np.ones(shape), v0=np.zeros(shape))

    def test_blowup_guard_reports_step(self):
        system = StbSystem.seeded(10, 12, seed=0, dt=1e-3)
        traj = stb_integrate(system, steps=10**6)
        assert traj.aborted_at is not None
        assert np.all(np.isfinite(traj.final_state))
        assert traj.final_step == traj.aborted_at - 1

    @pytest.mark.parametrize("shape", ((3, 7), (1, 4), (3, 9)))
    @pytest.mark.parametrize("fn", ("velocity", "stb_hessian", "normalized_hessian_blocks"))
    def test_rejects_wrong_shape_state(self, fn, shape):
        system = StbSystem.seeded(3, 4, seed=1)
        call = {
            "velocity": system.velocity,
            "stb_hessian": lambda v: stb_hessian(system, v),
            "normalized_hessian_blocks": lambda v: normalized_hessian_blocks(system, v),
        }[fn]
        with pytest.raises(ValueError, match=r"v must be \(3, 4\)"):
            call(np.zeros(shape))

    def test_hessian_zero_state(self):
        system = StbSystem.seeded(3, 4, seed=1)
        h = stb_hessian(system, np.zeros((3, 4)))
        assert np.array_equal(h, np.zeros((12, 12)))

    def test_hessian_scalar_system(self):
        system = StbSystem(mu=np.array([[2.0]]), v0=np.zeros((1, 1)))
        v = np.array([[0.3]])
        vdot = system.velocity(v)
        h = stb_hessian(system, v)
        assert np.isclose(h[0, 0], vdot[0, 0] * v[0, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_hessian_matches_finite_differences(self, seed):
        # the Hessian is the Jacobian of the velocity field
        mc, n = 3, 2
        system = StbSystem.seeded(mc, n, seed=seed)
        v = 0.5 * random_matrix(mc, n, seed + 77)
        analytic = stb_hessian(system, v)
        fd = np.zeros((mc * n, mc * n))
        eps = 1e-6
        for kp in range(n):
            for lp in range(mc):
                vp = v.copy()
                vp[lp, kp] += eps
                vm = v.copy()
                vm[lp, kp] -= eps
                dv = (system.velocity(vp) - system.velocity(vm)) / (2 * eps)
                fd[:, kp * mc + lp] = dv.T.ravel()
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    def test_diag_blocks_match_full_matrix(self):
        system = StbSystem.seeded(4, 3, seed=5)
        v = 0.3 * random_matrix(4, 3, 6)
        full = stb_hessian(system, v)
        rows = normalized_hessian_blocks(system, v)
        assert rows.shape == (3, 4)
        for k, row in enumerate(rows):
            diag = np.diag(full[k * 4 : (k + 1) * 4, k * 4 : (k + 1) * 4])
            np.testing.assert_allclose(row, diag / diag.sum(), rtol=1e-12)

    def test_normalized_blocks_reject_a_zero_block(self):
        system = StbSystem.seeded(3, 4, seed=1)
        v = random_matrix(3, 4, 2)
        v[:, 2] = 0.0
        with pytest.raises(ValueError, match="block 2 is identically zero"):
            normalized_hessian_blocks(system, v)

    def test_normalized_blocks_reject_a_zero_sum(self):
        system = StbSystem(mu=np.array([[1.0], [-1.0]]), v0=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="block 0 sums to zero"):
            normalized_hessian_blocks(system, np.ones((2, 1)))

    def test_normalized_blocks_sum_to_one(self):
        system = StbSystem.seeded(5, 4, seed=2)
        traj = stb_integrate(system, steps=500)
        for block in normalized_hessian_blocks(system, traj.final_state):
            assert np.isclose(np.sum(block), 1.0, atol=1e-12)

    def test_normalized_blocks_survive_extreme_states(self):
        system = StbSystem.seeded(10, 12, seed=0)
        traj = stb_integrate(system, steps=10**6)
        div = hessian_block_divergence(system, traj.final_state)
        assert np.isfinite(div)
