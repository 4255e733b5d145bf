import numpy as np
import pytest

from swanopt.gradient_ops import (
    _BLOCK,
    GradNormConfig,
    WhiteningConfig,
    grad_norm,
    grad_whitening,
    newton_schulz_inverse_sqrt,
    rescale_update,
)
from swanopt.matrixops import make_spd, random_matrix, sample_stiefel, schatten1_norm
from swanopt.optimizers import (
    ABLATIONS,
    STATELESS_KINDS,
    OptimizerConfig,
    OptimizerState,
    adam_step,
    gd_optimal_step,
    init_state,
    linear_warmup_decay,
    make_step,
    moment_buffer_count,
    newton_step,
    sgd_step,
    signed_step,
    swan_step,
    whitened_gd_optimal_step,
    whitened_optimal_learning_rate,
)
from swanopt.problems import QuadraticProblem

EXACT = WhiteningConfig(mode="exact_eig")
SWAN_EXACT = OptimizerConfig(
    kind="swan",
    learning_rate=0.1,
    whitening_cfg=EXACT,
    grad_norm_cfg=GradNormConfig(epsilon=0.0),
)


def standardized_orthogonal_rows(m, n, seed):
    """Rows that are mutually orthogonal AND have mean 0, population std 1,
    so grad_norm leaves them untouched and whitening just rescales."""
    ones = np.ones((n, 1)) / np.sqrt(n)
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(n)[:, : n - 1]]))
    basis = q[:, 1:]  # orthonormal basis of the zero-mean subspace
    rows = sample_stiefel(m, n - 1, seed)
    return np.sqrt(n) * (rows @ basis.T)


class TestSwanStep:
    def test_whitening_fixes_orthogonal_normalized_gradient(self):
        # grad_norm(g) = g here, whitening then rescaling reproduces g
        g = standardized_orthogonal_rows(3, 8, 5)
        w = random_matrix(3, 8, 6)
        got = swan_step(w, g, SWAN_EXACT)
        assert np.allclose(got, w - 0.1 * g, atol=1e-9)

    def test_norm_only_ablation(self):
        cfg = OptimizerConfig(
            kind="swan",
            learning_rate=1.0,
            ablation="norm_only",
            grad_norm_cfg=GradNormConfig(epsilon=0.0),
        )
        w = np.zeros((1, 2))
        got = swan_step(w, np.array([[0.0, 2.0]]), cfg)
        assert np.allclose(got, [[1.0, -1.0]], atol=1e-12)

    def test_whiten_only_ablation_skips_normalization(self):
        cfg = OptimizerConfig(
            kind="swan", learning_rate=1.0, ablation="whiten_only", whitening_cfg=EXACT
        )
        o = sample_stiefel(3, 6, 1)
        w = np.zeros((3, 6))
        # an orthogonal gradient is its own polar factor; rescale keeps norm
        got = swan_step(w, o, cfg)
        assert np.allclose(got, -o, atol=1e-10)

    def test_stateless_repeatability(self):
        w = random_matrix(4, 8, 1)
        g = random_matrix(4, 8, 2)
        a = swan_step(w, g, SWAN_EXACT)
        b = swan_step(w, g, SWAN_EXACT)
        assert np.array_equal(a, b)

    def test_tall_input_transposed(self):
        w = random_matrix(8, 4, 3)
        g = random_matrix(8, 4, 4)
        got = swan_step(w, g, SWAN_EXACT)
        assert got.shape == (8, 4)
        assert np.allclose(got, swan_step(w.T, g.T, SWAN_EXACT).T)

    def test_update_direction_invariances(self):
        # row-wise positive rescaling and recentering of g leave the step unchanged
        g = random_matrix(5, 9, 7)
        w = random_matrix(5, 9, 8)
        rng = np.random.default_rng(9)
        scales = rng.uniform(0.2, 5.0, size=(5, 1))
        shifts = rng.normal(size=(5, 1))
        ref = swan_step(w, g, SWAN_EXACT)
        assert np.linalg.norm(swan_step(w, g * scales, SWAN_EXACT) - ref) <= 1e-9
        assert np.linalg.norm(swan_step(w, g + shifts, SWAN_EXACT) - ref) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            swan_step(random_matrix(2, 4, 0), random_matrix(2, 5, 1), SWAN_EXACT)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_block_is_all_zero(self, shape):
        # the Newton-Schulz path's message, also on the exact path
        with pytest.raises(ValueError, match="cannot whiten an all-zero matrix"):
            swan_step(np.zeros(shape), np.zeros(shape), SWAN_EXACT)


def _swan_oracle(w, g, cfg):
    """SWAN's step composed from the public kernels: w - lr * rescale(whiten(G~), G~)."""
    if w.shape[0] > w.shape[1]:
        return _swan_oracle(w.T, g.T, cfg).T
    g_tilde = g if cfg.ablation == "whiten_only" else grad_norm(g, cfg.grad_norm_cfg)
    if cfg.ablation == "norm_only":
        return w - cfg.learning_rate * g_tilde
    delta = rescale_update(grad_whitening(g_tilde, cfg.whitening_cfg), g_tilde)
    return w - cfg.learning_rate * delta


def _outcome(step, w, g, cfg):
    """The step's result, or the message of the ValueError it raises."""
    try:
        return step(w, g, cfg)
    except ValueError as exc:
        return str(exc)


def _swan_inputs(case):
    if case == "square_gradnormed":  # rank <= m - 1: every row sums to zero
        return random_matrix(9, 9, 0), grad_norm(random_matrix(9, 9, 1))
    # 128 rows take Newton-Schulz's spectral path
    shape = {"wide": (6, 17), "tall": (17, 6), "wide_spectral": (128, 300)}[case]
    return random_matrix(*shape, 0), 3.0 * random_matrix(*shape, 1)


@pytest.mark.parametrize("case", ["wide", "tall", "square_gradnormed", "wide_spectral"])
@pytest.mark.parametrize("mode", ["newton_schulz", "exact_eig"])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_swan_step_matches_kernel_composition_and_is_pure(ablation, mode, case):
    w, g = _swan_inputs(case)
    w0, g0 = w.copy(), g.copy()
    cfg = OptimizerConfig(
        kind="swan",
        learning_rate=0.037,
        ablation=ablation,
        whitening_cfg=WhiteningConfig(mode=mode),
    )
    got = _outcome(swan_step, w, g, cfg)
    want = _outcome(_swan_oracle, w, g, cfg)
    if isinstance(want, str):  # exact mode rejects the rank-deficient square block
        assert got == want
    else:
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, w) and not np.shares_memory(got, g)
    assert w.tobytes() == w0.tobytes() and g.tobytes() == g0.tobytes()


def _swan_unblocked(w, g, cfg):
    """SWAN's step as plain whole-array numpy expressions: GradNorm's squares in
    one temporary, Z @ G~ into a new array. The oracle for the blocked kernels' bits."""
    if w.shape[0] > w.shape[1]:
        return _swan_unblocked(w.T, g.T, cfg).T
    gcfg, wcfg, n = cfg.grad_norm_cfg, cfg.whitening_cfg, g.shape[1]
    g_tilde = g
    if cfg.ablation != "whiten_only":
        c = g - np.add.reduce(g, axis=1, keepdims=True) / n if gcfg.subtract_mean else g.copy()
        std = np.sqrt(np.add.reduce(c * c, axis=1, keepdims=True) / n)
        g_tilde = c / (std + gcfg.epsilon)
    delta = g_tilde
    if cfg.ablation != "norm_only":
        scale = np.linalg.norm(g_tilde)
        gn = g_tilde / scale
        k, b, order = wcfg.iterations, wcfg.step_size, wcfg.update_order
        delta = newton_schulz_inverse_sqrt(gn @ gn.T, k, b, order) @ gn
        if cfg.swan_rescale:
            delta = delta * (scale / np.linalg.norm(delta))
    return w - delta * cfg.learning_rate


SWAN_BITS_SHAPES = {
    "swan_wide": (512, 2048),  # two 1024-column blocks of Z G~
    "swan_tall": (2048, 512),  # F-ordered G~: Z G~ into a new array
    "ragged_blocks": (130, 1216),  # column blocks of 192 and 256, row blocks of 26
    "four_blocks": (128, 1024),
    "unblocked_n": (200, 300),  # n is not a multiple of 64
    "one_row_blocks": (3, 50000),  # GradNorm blocks of one row
    "small": (16, 64),  # n >= 3m: G~n held across the loop
    "halves": (40, 100),  # G~n rebuilt after the loop, in two row halves
    "quadratic": (50, 50),  # G~n rebuilt after the loop in one block
    "square": (64, 64),
    "square_100": (100, 100),
}


@pytest.mark.parametrize("ablation", ABLATIONS)
@pytest.mark.parametrize("case", SWAN_BITS_SHAPES)
def test_swan_step_matches_unblocked_expressions(case, ablation, assert_same_bits):
    shape = SWAN_BITS_SHAPES[case]
    w, g = random_matrix(*shape, 0), 3.0 * random_matrix(*shape, 1) + 0.5
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037, ablation=ablation)
    assert_same_bits(swan_step(w, g, cfg), _swan_unblocked(w, g, cfg))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_norm_cfg": GradNormConfig(subtract_mean=False)},  # a tall c is C-ordered
        {"grad_norm_cfg": GradNormConfig(epsilon=0.0)},
        {"whitening_cfg": WhiteningConfig(update_order="paired", step_size=0.5)},
        {"swan_rescale": False},
    ],
    ids=["rms", "epsilon0", "paired", "no_rescale"],
)
@pytest.mark.parametrize("shape", [(512, 2048), (2048, 512), (130, 1216), (50, 50)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_swan_step_variants_match_unblocked_expressions(layout, shape, kwargs, assert_same_bits):
    w, g = random_matrix(*shape, 2), 3.0 * random_matrix(*shape, 3) - 0.5
    g = np.asfortranarray(g) if layout == "F" else g
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037, **kwargs)
    assert_same_bits(swan_step(w, g, cfg), _swan_unblocked(w, g, cfg))


@pytest.mark.parametrize(
    "shape",
    [(50, 50), (64, 64), (64, 512), (512, 64), (128, 1024), (1024, 128), (512, 2048), (2048, 512)],
    ids=[
        "quadratic",
        "square",
        "wide",
        "tall",
        "wide_spectral",
        "tall_spectral",
        "swan_wide",
        "swan_tall",
    ],
)
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_swan_step_memory_is_sgd_plus_gram_buffers(ablation, shape, warm_peak_bytes):
    # k = min(m, n), with 4 KB for small temporaries. Below 128 rows the peak is the
    # Newton-Schulz loop's 4 k x k arrays (T, Q, Z and the Gram matrix, reused for P),
    # G~ not being held across it where n < 3m, or after it G~n, Z and Z G~n. From 128 rows
    # a G~ that _ns_whiten blocks (wide, C-ordered, n > 2m a multiple of 64) is the one
    # m x n buffer: Z G~ goes back into it, and GradNorm squares one row block at a
    # time. Other shapes, tall ones (F-ordered G~) among them, take a second m x n
    # buffer (GradNorm's squares, then Z G~). Beside it, k x k arrays: 2 (the
    # eigenvectors and the Gram matrix, reused for Z) and one scratch of <= _BLOCK
    # entries if k is a multiple of 64, else 3. No bound is above the unblocked
    # step's 2 m n + 5 k^2.
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, ablation=ablation)
    swan = warm_peak_bytes(swan_step, w, g, cfg)
    (m, n), k = shape, min(shape)
    if k < 128:
        bound = max(4 * k * k, 2 * m * n + k * k) * 8 + 4096
    else:
        squares = 3 if k % 64 else 2
        scratch = 0 if k % 64 else min(_BLOCK, k * k)
        blocked = n % 64 == 0 and n > 2 * m
        second = max(1, min(m, _BLOCK // n)) * n if blocked else m * n
        bound = (m * n + second + squares * k * k + scratch) * 8 + 4096
    assert bound <= (2 * m * n + 5 * k * k) * 8 + 4096
    assert swan <= bound


@pytest.mark.parametrize("shape", [(16, 47), (20, 50), (40, 100), (64, 128)])
@pytest.mark.parametrize(
    "grad_norm_cfg", [GradNormConfig(), GradNormConfig(subtract_mean=False)], ids=["std", "rms"]
)
def test_swan_step_rebuilds_small_wide_blocks_below_their_product(
    grad_norm_cfg, shape, warm_peak_bytes
):
    # 1.5m < n < 3m: Z G~n's 2 m n + k^2 sets the peak, and G~n is rebuilt after the loop.
    # A broadcast buffers min(size, 8192) entries, so rebuilt in one block it would take a
    # second m x n buffer beside G~n and Z, and with its iterator's 1.1 KB would put the
    # peak above that product. In row halves it stays within it, plus small objects (the
    # row statistics and views)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, grad_norm_cfg=grad_norm_cfg)
    (m, n), k = shape, min(shape)
    assert warm_peak_bytes(swan_step, w, g, cfg) <= (2 * m * n + k * k) * 8 + 1536


@pytest.mark.parametrize("shape", [(50, 50), (64, 64)])
def test_swan_step_memory_is_at_most_adams_on_square_blocks(shape, warm_peak_bytes):
    # the paper's memory claim on the square blocks of quadratic_tune and the MLP: a
    # warm SWAN step (G~ not held across the loop: 4 k^2) against a warm Adam step
    # (its three returned arrays and one block)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    adam = OptimizerConfig(kind="adam", learning_rate=0.1)
    w1, state = adam_step(w, g, init_state(adam, shape), adam)
    swan = warm_peak_bytes(swan_step, w, g, OptimizerConfig(kind="swan", learning_rate=0.1))
    assert swan <= warm_peak_bytes(adam_step, w1, g, state, adam) + 4096


@pytest.mark.parametrize("shape", [(64, 512), (512, 64), (1024, 128)])
@pytest.mark.parametrize("kind, step", [("sgd", sgd_step), ("signed_sgd", signed_step)])
def test_sgd_and_sign_steps_write_one_new_buffer(kind, step, shape, warm_peak_bytes):
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    saved = w.tobytes(), g.tobytes()
    cfg = OptimizerConfig(kind=kind, learning_rate=0.1)
    out = step(w, g, cfg)
    assert np.array_equal(out, w - 0.1 * (g if kind == "sgd" else np.sign(g)))
    assert not np.shares_memory(out, w) and not np.shares_memory(out, g)
    assert (w.tobytes(), g.tobytes()) == saved
    m, n = shape
    assert warm_peak_bytes(step, w, g, cfg) <= m * n * 8 + 4096


class TestAdamStep:
    def test_sign_descent_limit(self):
        cfg = OptimizerConfig(
            kind="adam", learning_rate=0.5, adam_beta1=0.0, adam_beta2=0.0,
            adam_epsilon=1e-12,
        )
        w = random_matrix(3, 5, 0)
        g = random_matrix(3, 5, 1)
        w1, _ = adam_step(w, g, init_state(cfg, w.shape), cfg)
        update = (w - w1) / 0.5
        signed = w - signed_step(w, g, OptimizerConfig(kind="signed_sgd", learning_rate=1.0))
        assert np.array_equal(np.sign(update), np.sign(signed))
        # every coordinate of the signed update attains the max magnitude, so
        # the update's argmax must land on one of signed's maximizers
        i = np.argmax(np.abs(update))
        assert np.isclose(np.abs(signed).ravel()[i], np.abs(signed).max())
        assert np.allclose(update, signed, rtol=1e-6)

    def test_zero_gradient_keeps_weights(self):
        cfg = OptimizerConfig(kind="adam", learning_rate=0.1)
        w = random_matrix(2, 3, 5)
        w1, st = adam_step(w, np.zeros_like(w), init_state(cfg, w.shape), cfg)
        assert np.array_equal(w1, w)
        assert st.step == 1

    def test_first_step_hand_computed(self):
        # scalar, beta1=.9, beta2=.999, g=1, w=0, eta=.1: bias correction makes
        # the first step -eta * 1 / (1 + eps) to first order
        cfg = OptimizerConfig(kind="adam", learning_rate=0.1)
        w = np.zeros((1, 1))
        g = np.ones((1, 1))
        w1, _ = adam_step(w, g, init_state(cfg, (1, 1)), cfg)
        m_hat = 0.1 / (1 - 0.9)
        v_hat = 0.001 / (1 - 0.999)
        expect = -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.isclose(w1[0, 0], expect, rtol=1e-12)
        assert np.isclose(w1[0, 0], -0.1, rtol=1e-6)

    def test_beta2_one_freezes_preconditioner(self):
        cfg = OptimizerConfig(
            kind="adam", learning_rate=1.0, adam_beta1=0.0, adam_beta2=1.0,
            adam_epsilon=1e-300,
        )
        w = random_matrix(2, 2, 0)
        g0 = random_matrix(2, 2, 1)
        w1, st = adam_step(w, g0, init_state(cfg, w.shape), cfg)
        assert np.allclose(w1, w - np.sign(g0))
        g1 = random_matrix(2, 2, 2)
        w2, st = adam_step(w1, g1, st, cfg)
        assert np.allclose(w2, w1 - g1 / np.abs(g0))
        assert np.array_equal(st.second_moment, g0 * g0)

    def test_uninitialized_state_rejected(self):
        cfg = OptimizerConfig(kind="adam")
        with pytest.raises(ValueError, match="uninitialized"):
            adam_step(np.zeros((2, 2)), np.ones((2, 2)), OptimizerState(step=3), cfg)

    def test_state_passed_by_value(self):
        cfg = OptimizerConfig(kind="adam", learning_rate=0.1)
        w = random_matrix(2, 2, 3)
        g = random_matrix(2, 2, 4)
        st0 = init_state(cfg, w.shape)
        adam_step(w, g, st0, cfg)
        assert np.array_equal(st0.first_moment, np.zeros((2, 2)))


def _adam_oracle(w, g, step, m, nu, cfg, lr):
    """Adam's step as whole-array expressions: (w_new, m, nu)."""
    t = step + 1
    m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * g
    if cfg.adam_beta2 == 1.0:
        nu = g * g if step == 0 else nu
        nu_hat = nu
    else:
        nu = cfg.adam_beta2 * nu + (1.0 - cfg.adam_beta2) * g * g
        nu_hat = nu / (1.0 - cfg.adam_beta2**t)
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    w_new = w - lr * m_hat / (np.sqrt(nu_hat) + cfg.adam_epsilon)
    return w_new, m, nu


# one block; several with a ragged last one (46-row blocks); one row per block
ADAM_SHAPES = [(1, 7), (3, 1), (50, 50), (64, 8), (100, 700), (7, 40000), (512, 2048)]


@pytest.mark.parametrize("step", [0, 4])
@pytest.mark.parametrize("betas", [(0.9, 0.999), (0.0, 1.0), (0.9, 1.0), (0.5, 0.0)])
@pytest.mark.parametrize("shape", ADAM_SHAPES, ids=str)
def test_adam_matches_whole_array_expressions_and_is_pure(shape, betas, step):
    cfg = OptimizerConfig(
        kind="adam", learning_rate=0.013, adam_beta1=betas[0], adam_beta2=betas[1]
    )
    w, g = random_matrix(*shape, 0), 7.0 * random_matrix(*shape, 1)
    m = random_matrix(*shape, 2)
    nu = np.abs(random_matrix(*shape, 3)) if step else np.zeros(shape)
    inputs = (w, g, m, nu)
    saved = [a.tobytes() for a in inputs]
    want = _adam_oracle(w, g, step, m, nu, cfg, cfg.learning_rate)
    state = OptimizerState(step=step, first_moment=m, second_moment=nu)
    public = adam_step(w, g, state, cfg)
    table = make_step(cfg, None)(w, g, state, cfg.learning_rate)
    for w_new, st in (public, table[:2]):
        got = (w_new, st.first_moment, st.second_moment)
        assert st.step == step + 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        keeps_nu = betas[1] == 1.0 and step > 0
        assert (got[2] is nu) == keeps_nu
        for out in got[: 2 if keeps_nu else 3]:
            assert not any(np.shares_memory(out, a) for a in inputs)
    assert [a.tobytes() for a in inputs] == saved


@pytest.mark.parametrize("shape", [(64, 64), (256, 1024), (1024, 128)])
def test_adam_step_memory_is_three_outputs_plus_one_block(shape, warm_peak_bytes):
    # the returned m', nu' and weights, plus one row block of scratch (the
    # whole matrix when it fits in one block), with 4 KB for small temporaries
    cfg = OptimizerConfig(kind="adam", learning_rate=0.1)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    state = OptimizerState(
        step=1, first_moment=random_matrix(*shape, 2), second_moment=np.ones(shape)
    )
    peak = warm_peak_bytes(adam_step, w, g, state, cfg)
    m, n = shape
    rows = m if m * n <= _BLOCK else max(1, _BLOCK // n)
    assert peak <= 3 * m * n * 8 + rows * n * 8 + 4096


class TestSimpleSteps:
    def test_zero_gradient(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.7)
        w = random_matrix(2, 2, 0)
        assert np.array_equal(sgd_step(w, np.zeros_like(w), cfg), w)
        cfg2 = OptimizerConfig(kind="signed_sgd", learning_rate=0.7)
        assert np.array_equal(signed_step(w, np.zeros_like(w), cfg2), w)

    def test_unit_rate_examples(self):
        w = np.zeros((1, 2))
        g = np.array([[2.0, -3.0]])
        assert np.array_equal(
            sgd_step(w, g, OptimizerConfig(kind="sgd", learning_rate=1.0)), [[-2.0, 3.0]]
        )
        assert np.array_equal(
            signed_step(w, g, OptimizerConfig(kind="signed_sgd", learning_rate=1.0)),
            [[-1.0, 1.0]],
        )

    def test_sign_invariance(self):
        cfg = OptimizerConfig(kind="signed_sgd", learning_rate=0.3)
        w = random_matrix(3, 4, 1)
        g = random_matrix(3, 4, 2)
        c = np.random.default_rng(3).uniform(0.1, 10.0, size=g.shape)
        assert np.array_equal(signed_step(w, c * g, cfg), signed_step(w, g, cfg))


def _c0(h, w) -> QuadraticProblem:
    """The C = 0 quadratic 1/2 Tr(w^T h w) for parameters shaped like ``w``."""
    return QuadraticProblem(h, np.zeros(np.shape(w)))


class TestCurvatureSteps:
    def test_gd_optimal_identity_hessian(self):
        w = random_matrix(3, 3, 0)
        assert np.allclose(gd_optimal_step(w, _c0(np.eye(3), w)), 0.0, atol=1e-15)

    def test_gd_optimal_rate(self):
        h = np.diag([1.0, 3.0])
        w = np.array([[1.0], [0.0]])
        # eta = 2/(1+3) = 0.5; the lambda=1 coordinate contracts by 0.5
        got = gd_optimal_step(w, _c0(h, w))
        assert np.allclose(got, [[0.5], [0.0]])

    def test_gd_optimal_extreme_eigenvector_contraction(self):
        h = np.diag([1.0, 3.0])
        w = np.array([[0.0], [1.0]])  # along lambda_max
        got = gd_optimal_step(w, _c0(h, w))
        assert np.isclose(abs(got[1, 0]), 0.5)  # = (kappa-1)/(kappa+1)

    def test_newton_one_step(self):
        h = make_spd(4, 50.0, 0)
        w = random_matrix(4, 4, 1)
        assert np.allclose(newton_step(w, _c0(h, w), 1.0), 0.0, atol=1e-10)

    def test_newton_half_step(self):
        h = make_spd(4, 50.0, 2)
        w = random_matrix(4, 4, 3)
        assert np.allclose(newton_step(w, _c0(h, w), 0.5), 0.5 * w, atol=1e-10)

    def test_newton_loss_contraction(self):
        h = make_spd(5, 10.0, 4)
        w = random_matrix(5, 5, 5)
        loss = lambda x: 0.5 * np.trace(x.T @ h @ x)
        w1 = newton_step(w, _c0(h, w), 0.5)
        assert np.isclose(loss(w1) / loss(w), 0.25, rtol=1e-10)

    def test_whitened_stiefel_one_step(self):
        h = make_spd(6, 100.0, 6)
        w = sample_stiefel(6, 6, 7)
        w1 = whitened_gd_optimal_step(w, _c0(h, w))
        assert np.linalg.norm(w1) <= 1e-10

    def test_whitened_rate_for_scaled_identity_hessian(self):
        c = 2.5
        h = c * np.eye(4)
        w = random_matrix(4, 4, 8)
        eta = whitened_optimal_learning_rate(_c0(h, w), h @ w)
        assert np.isclose(eta, schatten1_norm(w) / 4.0, rtol=1e-10)

    def test_whitened_contraction_matches_prediction(self):
        h = make_spd(5, 30.0, 9)
        w = random_matrix(5, 5, 10)
        loss = lambda x: 0.5 * np.trace(x.T @ h @ x)
        s = schatten1_norm(h @ w)
        predicted = 1 - s * s / (np.trace(w.T @ h @ w) * np.trace(h))
        w1 = whitened_gd_optimal_step(w, _c0(h, w))
        assert np.isclose(loss(w1) / loss(w), predicted, atol=1e-8)

    def test_whitened_rejects_rank_deficient(self):
        h = np.eye(3)
        v = random_matrix(3, 1, 0)
        w = v @ np.ones((1, 3))  # rank one
        with pytest.raises(ValueError, match="singular value"):
            whitened_gd_optimal_step(w, _c0(h, w))


class TestStateAccounting:
    def test_moment_buffers(self):
        shape = (512, 512)
        for kind in STATELESS_KINDS:
            st = init_state(OptimizerConfig(kind=kind), shape)
            assert moment_buffer_count(st) == 0
        st = init_state(OptimizerConfig(kind="adam"), shape)
        assert moment_buffer_count(st) == 2
        assert st.first_moment.shape == shape
        assert st.second_moment.shape == shape


class TestSchedule:
    def test_constant_floor_decay(self):
        assert np.isclose(linear_warmup_decay(0, 100, 1.0), 1.0)
        assert np.isclose(linear_warmup_decay(100, 100, 1.0), 0.1)

    def test_warmup_then_decay(self):
        lr0 = linear_warmup_decay(0, 100, 1.0, warmup_fraction=0.1)
        lr9 = linear_warmup_decay(9, 100, 1.0, warmup_fraction=0.1)
        lr_end = linear_warmup_decay(100, 100, 1.0, warmup_fraction=0.1)
        assert lr0 < lr9 <= 1.0
        assert np.isclose(lr9, 1.0)
        assert np.isclose(lr_end, 0.1)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="momentum"),
            dict(learning_rate=0.0),
            dict(adam_beta1=1.0),
            dict(adam_beta2=1.5),
            dict(adam_epsilon=0.0),
            dict(ablation="half"),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, other",
        [
            ("swan_step", "adam"),
            ("adam_step", "swan"),
            ("sgd_step", "adam"),
            ("signed_step", "swan"),
        ],
    )
    def test_public_step_rejects_a_config_of_another_kind(self, name, other):
        steps = {
            "swan_step": swan_step,
            "adam_step": lambda w, g, cfg: adam_step(w, g, OptimizerState(), cfg),
            "sgd_step": sgd_step,
            "signed_step": signed_step,
        }
        w = random_matrix(2, 3, 0)
        with pytest.raises(ValueError, match=f"{name} called with kind='{other}'"):
            steps[name](w, w, OptimizerConfig(kind=other))
