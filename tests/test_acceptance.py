"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 5 is a documented expected failure (see the xfail reason);
everything else must pass at the stated tolerances.
"""

import numpy as np
import pytest

from swanopt.analysis import (
    PplCurve,
    counterfactual_additive,
    kl_to_reference,
    snapshot_gradients,
    speedup_ratio,
)
from swanopt.gradient_ops import (
    GradNormConfig,
    WhiteningConfig,
    grad_norm,
    grad_whitening,
)
from swanopt.matrixops import (
    make_spd,
    random_matrix,
    sample_stiefel,
    schatten1_norm,
)
from swanopt.optimizers import (
    STATELESS_KINDS,
    OptimizerConfig,
    init_state,
    moment_buffer_count,
    swan_step,
    whitened_gd_optimal_step,
)
from swanopt.problems import (
    MlpProblem,
    QuadraticProblem,
    RastriginProblem,
    StbSystem,
    hessian_block_divergence,
    stb_integrate,
)
from swanopt.theory import (
    compare_blockwise,
    gd_adversarial_factors,
    measure_whitened_contraction,
    predict_gd_bound,
    stiefel_one_step_relative_loss,
    tune_learning_rate,
)

EXACT = WhiteningConfig(mode="exact_eig")


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def conditioned_gradient(seed: int, kappa: float, m: int = 16, n: int = 32) -> np.ndarray:
    u = sample_stiefel(m, m, 3 * seed + 1).T
    v = sample_stiefel(m, n, 3 * seed + 2)
    sv = np.geomspace(1.0, np.sqrt(kappa), m)
    g = (u * sv) @ v
    return g / np.linalg.norm(g)


def test_criterion_01_newton_schulz_oracle_equivalence():
    kappas = (2.0, 10.0, 50.0, 100.0)
    worst_eq = 0.0
    sv_lo, sv_hi = np.inf, 0.0
    decreasing = True
    for seed in range(50):
        g = conditioned_gradient(seed, kappas[seed % 4])
        # classical coupling reproduces the exact polar factor
        classical = WhiteningConfig(iterations=40, step_size=0.5, update_order="paired")
        err = np.linalg.norm(grad_whitening(g, classical) - grad_whitening(g, EXACT))
        worst_eq = max(worst_eq, err)
        # paper defaults: bounded singular values, improving orthogonality
        w10 = grad_whitening(g, WhiteningConfig(iterations=10))
        sv = np.linalg.svd(w10, compute_uv=False)
        sv_lo = min(sv_lo, sv.min())
        sv_hi = max(sv_hi, sv.max())
        w2 = grad_whitening(g, WhiteningConfig(iterations=2))
        eye = np.eye(g.shape[0])
        if not np.linalg.norm(w10 @ w10.T - eye) < np.linalg.norm(w2 @ w2.T - eye):
            decreasing = False
    ok = worst_eq <= 1e-6 and 0.5 <= sv_lo and sv_hi <= 1.5 and decreasing
    report(
        1,
        ok,
        f"beta=0.5/k=40 max err {worst_eq:.2e} (<=1e-6); beta=0.8/k=10 singular "
        f"values in [{sv_lo:.3f}, {sv_hi:.3f}] (within [0.5, 1.5]); "
        f"orthogonality error decreasing k=2->k=10: {decreasing}",
    )
    assert ok


def test_criterion_02_stiefel_one_step():
    worst = 0.0
    for i in range(20):
        kappa = 10.0 if i % 2 == 0 else 1e4
        rel = stiefel_one_step_relative_loss(50, kappa, h_seed=i, w_seed=100 + i)
        worst = max(worst, rel)
    ok = worst <= 1e-10
    report(2, ok, f"worst relative excess loss after one step: {worst:.2e} (<=1e-10)")
    assert ok


def test_criterion_03_contraction_exactness():
    worst = 0.0
    for i in range(50):
        m = (4, 20, 50)[i % 3]
        p = QuadraticProblem.seeded(m, m, 10.0 ** (1 + i % 4), 7 * i + 1)
        w = random_matrix(m, m, 1000 + i)
        rep = measure_whitened_contraction(p, w)
        worst = max(worst, rep.abs_error)
    ok = worst <= 1e-8
    report(3, ok, f"max |predicted - measured| contraction over 50 instances: {worst:.2e}")
    assert ok


def test_criterion_04_gd_lower_bound_tightness():
    ok = True
    details = []
    for kappa in (10.0, 100.0, 1e4):
        bound = predict_gd_bound(kappa)
        loss_factor, dist_factor = gd_adversarial_factors(kappa)
        # the distance to the optimum attains the printed bound exactly; the
        # loss contracts by its square (tight at the loss level as well)
        ok &= dist_factor >= bound - 1e-9
        ok &= abs(loss_factor - bound**2) <= 1e-9
        ok &= loss_factor >= bound**2 - 1e-9
        details.append(f"kappa={kappa:g}: dist {dist_factor:.9f} vs bound {bound:.9f}")
    report(4, ok, "; ".join(details))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Dynamic-rate whitened descent loses its early contraction once the "
        "iterate concentrates in the small-eigenvalue subspace: measured "
        "3.06e-6 relative excess loss at the 5000-step budget, not 1e-6. Run "
        "past the budget, the step raises on a rank-deficient gradient at "
        "step 6731, at 1.87e-6. Tuned GD needs 30583 steps, so the required "
        "10x (<= 3058 steps) is not met. Kept as specified; see the quadratic "
        "benchmark for the qualitative advantage that does hold."
    ),
)
def test_criterion_05_ill_conditioned_advantage():
    budget = 5000
    p = QuadraticProblem.seeded(50, 50, 1e4, 7)
    w0 = random_matrix(50, 50, 42)
    l0 = p.excess_loss(w0)

    w = w0.copy()
    whitened_steps = None
    for t in range(1, budget + 1):
        w = whitened_gd_optimal_step(w, p)
        if p.excess_loss(w) / l0 <= 1e-6:
            whitened_steps = t
            break

    eta = 2.0 / (p.eigenvalues[0] + p.eigenvalues[-1])
    w = w0.copy()
    gd_steps = None
    for t in range(1, 100001):
        w = w - eta * p.grad(w)
        if p.excess_loss(w) / l0 <= 1e-6:
            gd_steps = t
            break
    ok = (
        whitened_steps is not None
        and gd_steps is not None
        and whitened_steps <= gd_steps / 10
    )
    report(
        5,
        ok,
        f"whitened steps to 1e-6: {whitened_steps} (budget {budget}), "
        f"gd steps: {gd_steps}; need whitened <= gd/10",
    )
    assert ok


def test_criterion_06_well_conditioned_ordering():
    p = QuadraticProblem.seeded(50, 50, 2.0, 3)
    w0 = random_matrix(50, 50, 5)
    l0 = p.excess_loss(w0)
    budget = 400

    eta = 2.0 / (p.eigenvalues[0] + p.eigenvalues[-1])
    w = w0.copy()
    gd_steps = None
    for t in range(1, budget + 1):
        w = w - eta * p.grad(w)
        if p.excess_loss(w) / l0 <= 1e-6:
            gd_steps = t
            break

    def adam_run(lr: float, capture=False):
        from swanopt.optimizers import adam_step

        cfg = OptimizerConfig(kind="adam", learning_rate=lr)
        w = w0.copy()
        state = init_state(cfg, w.shape)
        hit = None
        for t in range(1, budget + 1):
            w, state = adam_step(w, p.grad(w), state, cfg)
            rel = p.excess_loss(w) / l0
            if not np.isfinite(rel):
                return float("inf"), None
            if hit is None and rel <= 1e-6:
                hit = t
                if not capture:
                    break
        return (p.excess_loss(w) / l0 if capture else 0.0), hit

    eta_adam, _ = tune_learning_rate(lambda e: adam_run(e, capture=True)[0], 1e-3, 1.0)
    _, adam_steps = adam_run(eta_adam)
    ok = gd_steps is not None and (adam_steps is None or gd_steps <= adam_steps)
    report(
        6,
        ok,
        f"gd steps to 1e-6: {gd_steps}; tuned adam (eta={eta_adam:.3g}) steps: {adam_steps}",
    )
    assert ok


def test_criterion_07_rastrigin_ordering():
    problem = RastriginProblem(amplitude=10.0, size=50)
    steps = 2000

    def run_whitened(w0, lr):
        w = w0.copy()
        cfg = OptimizerConfig(
            kind="swan",
            learning_rate=lr,
            ablation="whiten_only",
            swan_rescale=False,
            whitening_cfg=EXACT,
        )
        for _ in range(steps):
            w = swan_step(w, problem.grad(w), cfg)
        return problem.loss(w)

    def run_adam(w0, lr):
        from swanopt.optimizers import adam_step

        cfg = OptimizerConfig(kind="adam", learning_rate=lr)
        w = w0.copy()
        state = init_state(cfg, w.shape)
        for _ in range(steps):
            w, state = adam_step(w, problem.grad(w), state, cfg)
        loss = problem.loss(w)
        return loss if np.isfinite(loss) else float("inf")

    finals_w, finals_a = [], []
    for seed in (1, 2, 3):
        w0 = random_matrix(50, 50, seed)
        _, best_w = tune_learning_rate(lambda e: run_whitened(w0, e), 1e-4, 1.0, grid_points=8)
        _, best_a = tune_learning_rate(lambda e: run_adam(w0, e), 1e-4, 1.0, grid_points=8)
        finals_w.append(best_w)
        finals_a.append(best_a)
    med_w, med_a = float(np.median(finals_w)), float(np.median(finals_a))
    ok = med_w <= med_a
    report(7, ok, f"median final loss: whitened {med_w:.2f} vs adam {med_a:.2f}")
    assert ok


def test_criterion_08_gradnorm_invariances():
    noeps = GradNormConfig(epsilon=0.0)
    worst_gn = 0.0
    for seed in range(100):
        g = random_matrix(6, 10, seed)
        rng = np.random.default_rng(10_000 + seed)
        scales = rng.uniform(0.2, 5.0, size=(6, 1))
        shifts = rng.normal(size=(6, 1))
        ref = grad_norm(g, noeps)
        worst_gn = max(worst_gn, float(np.max(np.abs(grad_norm(g * scales, noeps) - ref))))
        worst_gn = max(worst_gn, float(np.max(np.abs(grad_norm(g + shifts, noeps) - ref))))
    cfg = OptimizerConfig(
        kind="swan", learning_rate=1.0, whitening_cfg=EXACT, grad_norm_cfg=noeps
    )
    worst_step = 0.0
    for seed in range(20):
        g = random_matrix(6, 10, seed)
        w = random_matrix(6, 10, 500 + seed)
        rng = np.random.default_rng(20_000 + seed)
        scales = rng.uniform(0.2, 5.0, size=(6, 1))
        shifts = rng.normal(size=(6, 1))
        ref = swan_step(w, g, cfg)
        worst_step = max(worst_step, float(np.linalg.norm(swan_step(w, g * scales, cfg) - ref)))
        worst_step = max(worst_step, float(np.linalg.norm(swan_step(w, g + shifts, cfg) - ref)))
    ok = worst_gn <= 1e-12 and worst_step <= 1e-9
    report(
        8,
        ok,
        f"grad_norm invariance gap {worst_gn:.2e} (<=1e-12); "
        f"swan update gap {worst_step:.2e} (<=1e-9)",
    )
    assert ok


def test_criterion_09_statelessness_and_memory():
    shape = (512, 512)
    counts = {k: moment_buffer_count(init_state(OptimizerConfig(kind=k), shape)) for k in STATELESS_KINDS}
    adam_state = init_state(OptimizerConfig(kind="adam"), shape)
    adam_count = moment_buffer_count(adam_state)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, whitening_cfg=EXACT)
    w = random_matrix(16, 32, 0)
    g = random_matrix(16, 32, 1)
    bit_identical = np.array_equal(swan_step(w, g, cfg), swan_step(w, g, cfg))
    ok = (
        all(c == 0 for c in counts.values())
        and adam_count == 2
        and adam_state.first_moment.shape == shape
        and bit_identical
    )
    report(
        9,
        ok,
        f"stateless buffer counts {sorted(set(counts.values()))}, adam buffers "
        f"{adam_count}, repeated swan steps bit-identical: {bit_identical}",
    )
    assert ok


def test_criterion_10_gradient_distribution_stabilization():
    steps, every, n_batches = 2000, 50, 16
    wins = 0
    details = []
    for seed in (1, 2, 3):
        problem = MlpProblem(teacher_seed=seed)
        weights = problem.initial_weights(seed + 1000)
        refs = {
            pre: snapshot_gradients(problem, weights, pre, n_batches, seed + 99)
            for pre in ("raw", "gradnorm")
        }
        rng = np.random.default_rng(seed + 5)
        traces = {"raw": [], "gradnorm": []}
        for t in range(1, steps + 1):
            _, grads = problem.loss_and_grads(weights, int(rng.integers(0, 2**63 - 1)))
            weights = [w - 0.05 * g for w, g in zip(weights, grads)]
            if t % every == 0:
                for pre in ("raw", "gradnorm"):
                    snap = snapshot_gradients(
                        problem, weights, pre, n_batches, seed * 100003 + t
                    )
                    traces[pre].append((t, kl_to_reference(snap, refs[pre])))
        cut = 0.05 * steps
        avg = {
            pre: float(np.mean([v for t, v in tr if t > cut]))
            for pre, tr in traces.items()
        }
        wins += avg["gradnorm"] < avg["raw"]
        details.append(f"seed {seed}: raw {avg['raw']:.2f} vs gradnorm {avg['gradnorm']:.2f}")
    ok = wins == 3
    report(10, ok, f"{wins}/3 seeds with lower gradnorm KL; " + "; ".join(details))
    assert ok


def test_criterion_11_stb_hessian_block_structure():
    system = StbSystem.seeded(context_len=10, width=12, seed=0, dt=1e-3)
    traj = stb_integrate(system, steps=10**6)
    divergence = hessian_block_divergence(system, traj.final_state)
    ok = divergence <= 0.05
    report(
        11,
        ok,
        f"final state at step {traj.steps[-1]} (guard at {traj.aborted_at}); "
        f"pairwise normalized-block max-abs difference {divergence:.2e} (<=0.05)",
    )
    assert ok


def test_criterion_12_speedup_math_exactness():
    tol = 1e-9
    steps = np.arange(0, 1001, 5, dtype=float)
    adam = PplCurve(steps=steps, values=2000.0 - steps)

    checks = []
    # identity: R = 1, delta = 0, additive curve reproduces the baseline
    res = counterfactual_additive(adam, adam)
    checks.append(abs(res.delta) <= tol)
    checks.append(all(abs(r - 1.0) <= tol for _, r in res.additive_ratio if r is not None))
    checks.append(np.max(np.abs(res.additive_curve.values - adam.values[: res.additive_curve.values.size])) <= tol)

    # pure shift by 50: delta recovered, actual R equals additive R everywhere
    swan_steps = np.arange(0, 951, 5, dtype=float)
    shifted = PplCurve(steps=swan_steps, values=2000.0 - (swan_steps + 50.0))
    res = counterfactual_additive(adam, shifted)
    checks.append(abs(res.delta - 50.0) <= tol)
    agree = [
        abs(p.ratio - ra) <= tol
        for p, (_, ra) in zip(res.points, res.additive_ratio)
        if p.ratio is not None and ra is not None
    ]
    checks.append(bool(agree) and all(agree))
    checks.append(
        all(
            abs(v - (2000.0 - (s + 50.0))) <= tol
            for s, v in zip(res.additive_curve.steps, res.additive_curve.values)
        )
    )

    # multiplicative 2x: R = 2 exactly, and beyond the early window R > R_additive
    half = np.arange(0, 501, 1, dtype=float)
    fast = PplCurve(steps=half, values=2000.0 - 2.0 * half)
    pts = speedup_ratio(adam, fast, thresholds=[1900.0, 1500.0, 1000.0, 1100.0])
    checks.append(all(abs(p.ratio - 2.0) <= tol for p in pts))
    res = counterfactual_additive(adam, fast)
    late = [
        (p.ratio, ra)
        for p, (_, ra) in zip(res.points, res.additive_ratio)
        if p.ratio is not None and ra is not None and p.steps_baseline > 0.2 * adam.final_step
    ]
    checks.append(bool(late) and all(r > ra for r, ra in late))
    ok = all(checks)
    report(12, ok, f"{sum(checks)}/{len(checks)} closed-form checks at 1e-9")
    assert ok


def test_criterion_13_blockwise_comparison():
    wins = 0
    margins = []
    for seed in range(5):
        blocks = [
            (make_spd(25, 1e4, 100 + seed), random_matrix(25, 25, 300 + seed)),
            (make_spd(25, 1e4, 200 + seed), random_matrix(25, 25, 400 + seed)),
        ]
        results = compare_blockwise(blocks)
        if all(white.measured < adam.measured for white, adam in results):
            wins += 1
        margins.append(
            "/".join(f"{w.measured:.3f}<{a.measured:.3f}" for w, a in results)
        )
    ok = wins == 5
    report(13, ok, f"{wins}/5 seeds, per-block whitened<adam factors: {'; '.join(margins)}")
    assert ok


def _relative_fd_gap(loss_fn, grad, w, h=1e-5):
    fd = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        fd[idx] = (loss_fn(wp) - loss_fn(wm)) / (2 * h)
    return np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)


def test_criterion_14_all_gradients_match_finite_differences():
    tol = 1e-5
    worst = {"quadratic": 0.0, "rastrigin": 0.0, "mlp": 0.0, "stb": 0.0}

    for seed in range(20):
        p = QuadraticProblem.seeded(5, 3, 50.0, seed, c_scale=1.0)
        w = random_matrix(5, 3, seed + 100)
        worst["quadratic"] = max(worst["quadratic"], _relative_fd_gap(p.loss, p.grad(w), w))

    for seed in range(20):
        p = RastriginProblem(size=4)
        w = random_matrix(4, 4, seed)
        worst["rastrigin"] = max(worst["rastrigin"], _relative_fd_gap(p.loss, p.grad(w), w))

    mlp = MlpProblem(layer_dims=(3, 8, 2), teacher_seed=1, student_scale=1.0)
    for seed in range(20):
        weights = mlp.initial_weights(seed + 500)
        _, grads = mlp.loss_and_grads(weights, batch_seed=seed)
        flat = np.concatenate([w.ravel() for w in weights])
        shapes = [w.shape for w in weights]

        def unflatten(v):
            out, off = [], 0
            for s in shapes:
                out.append(v[off : off + s[0] * s[1]].reshape(s))
                off += s[0] * s[1]
            return out

        fd = np.zeros_like(flat)
        for i in range(flat.size):
            vp = flat.copy()
            vp[i] += 1e-5
            vm = flat.copy()
            vm[i] -= 1e-5
            fd[i] = (
                mlp.loss_and_grads(unflatten(vp), batch_seed=seed)[0]
                - mlp.loss_and_grads(unflatten(vm), batch_seed=seed)[0]
            ) / 2e-5
        analytic = np.concatenate([g.ravel() for g in grads])
        gap = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        worst["mlp"] = max(worst["mlp"], gap)

    # the STB Hessian is the Jacobian of its velocity field
    from swanopt.problems import stb_hessian

    for seed in range(20):
        mc, n = 3, 2
        system = StbSystem.seeded(mc, n, seed=seed)
        v = 0.5 * random_matrix(mc, n, seed + 77)
        analytic = stb_hessian(system, v)
        fd = np.zeros((mc * n, mc * n))
        eps = 1e-5
        for kp in range(n):
            for lp in range(mc):
                vp = v.copy()
                vp[lp, kp] += eps
                vm = v.copy()
                vm[lp, kp] -= eps
                dv = (system.velocity(vp) - system.velocity(vm)) / (2 * eps)
                fd[:, kp * mc + lp] = dv.T.ravel()
        gap = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        worst["stb"] = max(worst["stb"], gap)

    ok = all(v <= tol for v in worst.values())
    report(
        14,
        ok,
        "max relative FD gap: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + f" (<= {tol:g})",
    )
    assert ok
