import tracemalloc

import numpy as np
import pytest

from swanopt import gradient_ops
from swanopt.gradient_ops import (
    _BLOCK,
    GradNormConfig,
    WhiteningConfig,
    _ns_recursion,
    grad_norm,
    grad_whitening,
    rescale_update,
)
from swanopt import optimizers
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

    def test_a_tall_block_is_checked_once(self, monkeypatch, assert_same_bits):
        # one as_matrix call each for w and g, and the bits of the step on the transposes
        w, g = random_matrix(64, 8, 3), random_matrix(64, 8, 4)
        cfg = OptimizerConfig(kind="swan", learning_rate=0.1)
        want = swan_step(w.T, g.T, cfg).T
        checked, as_matrix = [], optimizers.as_matrix

        def counted(a, *args):
            checked.append(np.shape(a))
            return as_matrix(a, *args)

        monkeypatch.setattr(optimizers, "as_matrix", counted)
        assert_same_bits(swan_step(w, g, cfg), want)
        assert_same_bits(swan_step(w.tolist(), g.tolist(), cfg), want)
        assert checked == [(8, 64)] * 4

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


def _newton_schulz(cfg) -> bool:
    """Whether ``swan_step`` whitens by Newton-Schulz. At every size the rate, the rescale (from
    128 rows) and GradNorm's statistics fold into Z'' (one pass writes w - (Z'' g - u)), so its bits
    are its own, and the oracles of the whole arrays hold within a relative 1e-12."""
    return cfg.ablation != "norm_only" and cfg.whitening_cfg.mode == "newton_schulz"


def _spectral(shape, cfg) -> bool:
    """Whether ``swan_step`` whitens a block of ``shape`` on the spectrum: Newton-Schulz from 128
    rows of its wide form."""
    return _newton_schulz(cfg) and min(shape) >= 128


def _small_step(folded_tail, w, g, cfg):
    """``swan_step`` by Newton-Schulz below 128 rows as the folded tail restates it (conftest), a
    tall block transposed: the oracle of its bits."""
    if w.shape[0] > w.shape[1]:
        return _small_step(folded_tail, w.T, g.T, cfg).T
    norm = None if cfg.ablation == "whiten_only" else cfg.grad_norm_cfg
    return folded_tail(w, g, norm, cfg.whitening_cfg, cfg.swan_rescale, cfg.learning_rate)


@pytest.mark.parametrize("case", ["wide", "tall", "square_gradnormed", "wide_spectral"])
@pytest.mark.parametrize("mode", ["newton_schulz", "exact_eig"])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_swan_step_matches_kernel_composition_and_is_pure(
    ablation, mode, case, assert_close, folded_tail
):
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
    elif _newton_schulz(cfg):  # the public kernels' composition, and the whole expressions
        assert_close(got, want)
        assert_close(got, _swan_expressions(w, g, cfg))
        if not _spectral(g.shape, cfg):  # below 128 rows the folded tail's bits
            assert got.tobytes() == _small_step(folded_tail, w, g, cfg).tobytes()
        assert not np.shares_memory(got, w) and not np.shares_memory(got, g)
    else:
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, w) and not np.shares_memory(got, g)
    assert w.tobytes() == w0.tobytes() and g.tobytes() == g0.tobytes()


def _swan_expressions(w, g, cfg):
    """SWAN's step as plain whole-array numpy expressions: G~ = C / S, in ``g``'s memory order,
    with C's row sums of squares as one row-wise dot, Z from the plain coupled Y/Z recursion below
    128 rows and from 128 Z = (V f) V^T from the Gram matrix's spectrum, Z G~n whole and the
    rescale by the product's own Frobenius norm. Without Newton-Schulz the oracle of the bits, with
    it of the values."""
    if w.shape[0] > w.shape[1]:
        return _swan_expressions(w.T, g.T, cfg).T
    gcfg, wcfg, (m, n) = cfg.grad_norm_cfg, cfg.whitening_cfg, g.shape
    g_tilde = g
    if cfg.ablation != "whiten_only":
        c = g - np.add.reduce(g, axis=1, keepdims=True) / n if gcfg.subtract_mean else g
        std = np.sqrt(np.einsum("ij,ij->i", c, c)[:, None] / n)
        g_tilde = c / (std + gcfg.epsilon)
    delta = g_tilde
    if cfg.ablation != "norm_only":
        scale = np.linalg.norm(g_tilde)
        gn = g_tilde / scale
        k, b, order = wcfg.iterations, wcfg.step_size, wcfg.update_order
        if m < 128:
            eye3, y, z = 3.0 * np.eye(m), gn @ gn.T, np.eye(m)
            for _ in range(k):
                if order == "paired":
                    t = eye3 - z @ y
                    y, z = b * (y @ t), b * (t @ z)
                else:
                    y = b * (y @ (eye3 - z @ y))
                    z = b * ((eye3 - z @ y) @ z)
            delta = z @ gn
        else:
            lam, v = np.linalg.eigh(gn @ gn.T)
            f, sigma = _ns_recursion(np.maximum(lam, 0.0), k, b, order, np.multiply, 1)
            delta = ((v * (f * sigma)) @ v.T) @ gn
        if cfg.swan_rescale:
            delta = delta * (scale / np.linalg.norm(delta))
    delta = delta * cfg.learning_rate
    return np.subtract(w, delta, out=delta)


@pytest.fixture
def check_swan_step(cpus, assert_same_bits, assert_close, folded_tail):
    """``check(w, g, cfg)``: ``swan_step`` has the same bits on one CPU and on two, leaves ``w``
    and ``g`` unwritten, and matches :func:`_swan_expressions`: by Newton-Schulz within a relative
    1e-12, on the spectrum (:func:`_spectral`) in ``g``'s memory order and below 128 rows with the
    bits of the folded tail (:func:`_small_step`), elsewhere with their bits. Returns the step."""

    def check(w, g, cfg):
        before, runs = (w.tobytes(order="A"), g.tobytes(order="A")), []
        for count in (1, 2):
            cpus(count)
            runs.append(swan_step(w, g, cfg))
        assert (w.tobytes(order="A"), g.tobytes(order="A")) == before
        assert_same_bits(runs[1], runs[0])
        if _spectral(g.shape, cfg):
            assert_close(runs[0], _swan_expressions(w, g, cfg))
            assert runs[0].flags.c_contiguous == g.flags.c_contiguous
        elif _newton_schulz(cfg):
            want = _small_step(folded_tail, w, g, cfg)
            assert_same_bits(runs[0], want, _swan_expressions(w, g, cfg))
        else:
            assert_same_bits(runs[0], _swan_expressions(w, g, cfg))
        return runs[0]

    return check


SWAN_BITS_SHAPES = {
    "swan_wide": (512, 2048),  # Z'' g in column halves, both Gram matrices split at row 368
    "swan_tall": (2048, 512),  # the same blocks, from an F-ordered G~
    "ragged_blocks": (130, 1216),  # Z'' g in halves of 640 and 576 columns, Z' in one product
    "four_blocks": (128, 1024),
    "unblocked_n": (200, 300),  # Z'' g whole, Z' in one product
    "one_row_blocks": (3, 50000),  # GradNorm blocks of one row
    "small": (16, 64),  # below 128 rows: G~ dropped for the loop, the pass reads g itself
    "halves": (40, 100),
    "quadratic": (50, 50),
    "square": (64, 64),
    "square_100": (100, 100),
}


@pytest.mark.parametrize("ablation", ABLATIONS)
@pytest.mark.parametrize("case", SWAN_BITS_SHAPES)
def test_swan_step_matches_unblocked_expressions(case, ablation, check_swan_step):
    shape = SWAN_BITS_SHAPES[case]
    w, g = random_matrix(*shape, 0), 3.0 * random_matrix(*shape, 1) + 0.5
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037, ablation=ablation)
    check_swan_step(w, g, cfg)


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
def test_swan_step_variants_match_unblocked_expressions(layout, shape, kwargs, check_swan_step):
    w, g = random_matrix(*shape, 2), 3.0 * random_matrix(*shape, 3) - 0.5
    g = np.asfortranarray(g) if layout == "F" else g
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037, **kwargs)
    check_swan_step(w, g, cfg)


@pytest.mark.parametrize("shape", [(512, 2048), (2048, 512), (130, 1216), (50, 50)])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_swan_step_writes_no_input(ablation, shape, check_swan_step):
    # read-only w and g: any write to them raises
    w, g = random_matrix(*shape, 6), 3.0 * random_matrix(*shape, 7) + 0.5
    w.flags.writeable = g.flags.writeable = False
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037, ablation=ablation)
    assert check_swan_step(w, g, cfg).flags.writeable


FOLD_SHAPES = [(512, 2048), (2048, 512), (130, 1216)]


def _offset_rows(shape, layout, r, seed=10):
    """``w`` and ``g`` of ``shape`` in ``layout`` whose wide form's rows are standardized and moved
    to means of alternating sign and magnitude ``r`` (|mean| / std = r, up to epsilon)."""
    w, g = random_matrix(*shape, seed), random_matrix(*shape, seed + 1)
    g = np.asfortranarray(g) if layout == "F" else g
    rows = g if shape[0] <= shape[1] else g.T
    c = rows - rows.mean(axis=1, keepdims=True)
    rows[...] = c / c.std(axis=1, keepdims=True)
    rows[::2] += r
    rows[1::2] -= r
    return w, g, rows


@pytest.fixture
def last_pass(monkeypatch):
    """The calls of SWAN's last pass through ``gradient_ops._in_blocks``: for each, its cap (None
    for the column halves read from ``g``, a block's entries where ``g`` is centred into the result
    first) and the bytes it allocates, on either thread, above what is live at its start
    (tracemalloc)."""
    calls, in_blocks = [], gradient_ops._in_blocks

    def spy(fn, args, x, axis, unit, cap):
        if fn.__name__ != "_descend_columns":
            return in_blocks(fn, args, x, axis, unit, cap)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            in_blocks(fn, args, x, axis, unit, cap)
            calls.append((cap, tracemalloc.get_traced_memory()[1] - base))
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(gradient_ops, "_in_blocks", spy)
    return calls


def _fused(calls) -> bool:
    """Whether each recorded last pass ran on column halves straight from ``g``, allocating only
    small objects (under 8 KB: a block of 64 columns from 128 rows takes 64 KB), or else each
    read the centred ``g`` in the result by capped blocks, each of which numpy's matmul copies."""
    assert calls
    if all(cap is None and peak < 8192 for cap, peak in calls):
        return True
    assert all(cap is not None and peak >= 8192 for cap, peak in calls)
    return False


@pytest.mark.parametrize("r", [0.0, 1.0, gradient_ops._OFFSET / 2], ids=["r0", "r1", "r_half"])
@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_folded_row_means_match_the_whole_expressions(
    layout, shape, r, last_pass, check_swan_step
):
    # up to |mean| / std = R the means fold into Z'' g - u: within 1e-12 of the whole-array
    # expressions on 1 and 2 CPUs, from g itself with no column scratch
    w, g, _ = _offset_rows(shape, layout, r)
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037))
    assert _fused(last_pass)


@pytest.mark.parametrize("r", [2 * gradient_ops._OFFSET, 1e6], ids=["r_2R", "r_1e6"])
@pytest.mark.parametrize("shape", [*FOLD_SHAPES, (200, 300)], ids=str)  # 300: a ragged last block
@pytest.mark.parametrize("layout", ["C", "F"])
def test_offset_rows_centre_g_first(layout, shape, r, last_pass, check_swan_step):
    w, g, _ = _offset_rows(shape, layout, r)
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037))
    assert not _fused(last_pass)


@pytest.mark.parametrize(
    "r", [gradient_ops._OFFSET / 2, 2 * gradient_ops._OFFSET], ids=["r_half", "r_2R"]
)
@pytest.mark.parametrize("shape", [(16, 64), (50, 50), (64, 8), (64, 8192)], ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_small_blocks_keep_the_offset_rule(layout, shape, r, last_pass, check_swan_step):
    # below 128 rows too the means fold into Z'' g - u up to R, and above it g is centred first
    # and read in place by capped column blocks: the folded tail's bits, within 1e-12 of the
    # whole expressions. A square block's pass is within its cap of k^2 entries: one block, run
    # whole without _in_blocks
    w, g, _ = _offset_rows(shape, layout, r)
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037))
    centred = r > gradient_ops._OFFSET
    if centred and shape[0] == shape[1]:
        assert last_pass == []
    else:
        assert any(cap is not None for cap, _ in last_pass) == centred


@pytest.mark.parametrize("shape", [*FOLD_SHAPES, (200, 300)], ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_rows_constant_under_epsilon_match_centring_first(
    layout, shape, last_pass, check_swan_step
):
    # std below epsilon: exactly constant rows (zero among them) and a constant plus 1e-12 noise,
    # whose |mean| / (std + epsilon) is about 1e8 |mean|; the whole expressions centre first
    w, g, rows = _offset_rows(shape, layout, 1.0)
    rows[1], rows[3], rows[5], rows[7] = 0.1, -7.3, 1e3, 0.0
    rows[9] = 5.0 + 1e-12 * rows[11]
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037))
    assert not _fused(last_pass)


@pytest.mark.parametrize(
    "kwargs",
    [{"grad_norm_cfg": GradNormConfig(subtract_mean=False)}, {"ablation": "whiten_only"}],
    ids=["rms", "whiten_only"],
)
@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_steps_without_means_never_centre(layout, shape, kwargs, last_pass, check_swan_step):
    # one row at |mean| / std = 2R, which a GradNorm'd step centres (more such rows, or larger
    # means, would be nearly parallel without GradNorm's subtract, and ill-conditioned)
    w, g, rows = _offset_rows(shape, layout, 0.0)
    rows[1] += 2 * gradient_ops._OFFSET
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037, **kwargs))
    assert _fused(last_pass)


@pytest.mark.parametrize("shape", [(512, 2048), (2048, 512), (128, 300), (40, 100), (64, 8)])
def test_whiten_only_swan_step_is_w_minus_lr_grad_whitening(
    shape, assert_same_bits, assert_close, folded_tail
):
    # whitening's one path, within 1e-12: the step folds its rate into Z', where
    # grad_whitening's Z' has none; below 128 rows with the bits of the folded tail
    w, g = random_matrix(*shape, 8), 3.0 * random_matrix(*shape, 9) + 0.5
    cfg = OptimizerConfig(
        kind="swan", learning_rate=0.037, ablation="whiten_only", swan_rescale=False
    )
    if shape[0] > shape[1]:
        want = (w.T - 0.037 * grad_whitening(g.T)).T
    else:
        want = w - 0.037 * grad_whitening(g)
    got = swan_step(w, g, cfg)
    if min(shape) >= 128:
        assert_close(got, want)
    else:
        assert_same_bits(got, _small_step(folded_tail, w, g, cfg), want)


@pytest.mark.parametrize("scale", [2.0**530, 2.0**-530], ids=["1e+160", "1e-160"])
@pytest.mark.parametrize("shape", [(128, 300), (300, 128), (50, 60), (60, 50)])
def test_spectral_whitening_is_scale_free_at_extreme_magnitudes(shape, scale, assert_close):
    # an unnormalized g near 1e+-160 (whiten_only, grad_whitening) would overflow its squares or
    # lose their bits to subnormals: from 128 rows the Gram matrix is taken of g scaled by a power
    # of two, below 128 rows the Frobenius norm that normalizes g before its Gram matrix
    g = 3.0 * random_matrix(*shape, 9) + 0.5
    zero = np.zeros(shape)
    for rescale in (False, True):  # with rescale the update has g's norm
        cfg = OptimizerConfig(kind="swan", ablation="whiten_only", swan_rescale=rescale)
        unit = scale if rescale else 1.0
        assert_close(swan_step(zero, scale * g, cfg) / unit, swan_step(zero, g, cfg))
    if shape[0] <= shape[1]:
        assert_close(grad_whitening(scale * g), grad_whitening(g))


@pytest.mark.parametrize(
    "shape",
    [
        (50, 50), (64, 64), (64, 512), (512, 64), (128, 1024), (1024, 128), (512, 2048),
        (2048, 512), (300, 1001), (1001, 300),
    ],  # fmt: skip
    ids=[
        "quadratic",
        "square",
        "wide",
        "tall",
        "wide_spectral",
        "tall_spectral",
        "swan_wide",
        "swan_tall",
        "ragged",
        "ragged_tall",
    ],
)
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_swan_step_memory_is_sgd_plus_gram_buffers(ablation, shape, warm_peak_bytes):
    # k = min(m, n), with 4 KB for small temporaries. One m x n array (G~, in GradNorm's
    # centred copy, then the result) beside one k x k (the Gram matrix of G~, then Z' or Z''),
    # with the row statistics and spectrum, 4 vectors of length k; GradNorm holds no squares and
    # the last pass reads g itself. Below 128 rows the Newton-Schulz loop's 3 k x k arrays (the
    # Gram matrix, reused for P / 3, N and Z) may peak above that, G~ not being held across it,
    # and the 4 KB then covers the row statistics: no bound below 128 rows is above
    # max(3 k^2, 2 m n + k^2). From 128 V beside the Gram matrix (Z' is the Gram matrix of
    # V sqrt(phi), with no row scratch) fits in m n + k^2. No bound is above the unblocked step's
    # 2 m n + 5 k^2.
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, ablation=ablation)
    swan = warm_peak_bytes(swan_step, w, g, cfg)
    (m, n), k = shape, min(shape)
    bound = (max(3 * k * k if k < 128 else 0, m * n + k * k) + 4 * k) * 8 + 4096
    if k < 128:
        bound = min(bound, max(3 * k * k, 2 * m * n + k * k) * 8 + 4096)
    assert bound <= (2 * m * n + 5 * k * k) * 8 + 4096
    assert swan <= bound


@pytest.mark.parametrize("shape", [(16, 47), (20, 50), (40, 100), (64, 128)])
@pytest.mark.parametrize(
    "grad_norm_cfg", [GradNormConfig(), GradNormConfig(subtract_mean=False)], ids=["std", "rms"]
)
def test_small_wide_swan_steps_peak_within_gradnorm_and_one_gram(
    grad_norm_cfg, shape, warm_peak_bytes
):
    # 1.5m < n < 3m: the Gram matrix of G~ is formed beside G~ (m n + k^2; G~ is GradNorm's
    # centred copy, divided in place, and holds no squares), the loop holds 3 k^2 without G~,
    # and the last pass writes D = Z'' g - u into the one new m x n beside Z'', reading g
    # itself, with the rescale and the rate applied in place. Plus the row statistics (4
    # vectors of length k at most) and 4 KB of small objects
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, grad_norm_cfg=grad_norm_cfg)
    (m, n), k = shape, min(shape)
    bound = (max(m * n + k * k, 3 * k * k) + 4 * k) * 8 + 4096
    assert bound <= (2 * m * n + k * k) * 8 + 1536
    assert warm_peak_bytes(swan_step, w, g, cfg) <= bound


def _textbook(g, gcfg):
    """GradNorm with numpy's own mean and std."""
    return (g - g.mean(axis=1, keepdims=True)) / (g.std(axis=1, keepdims=True) + gcfg.epsilon)


# Extreme inputs of GradNorm'd steps, below and from 128 rows of the wide form, in either memory
# order: each step gives a finite result within 1e-12 of the whole-array expressions, and
# grad_norm of the wide form one within 1e-12 of numpy's own statistics, or both a named error
EXTREME_SHAPES = [(50, 60), (60, 50), (200, 300), (300, 200)]


def _extreme(shape, layout, seed=12):
    """``w`` and ``g`` of ``shape`` in ``layout``, and ``g``'s wide form (a view)."""
    w, g = random_matrix(*shape, seed), 3.0 * random_matrix(*shape, seed + 1) + 0.5
    g = np.asfortranarray(g) if layout == "F" else g
    return w, g, g if shape[0] <= shape[1] else g.T


def _check_extreme(w, g, wide, cfg, assert_close):
    assert_close(grad_norm(wide, cfg.grad_norm_cfg), _textbook(wide, cfg.grad_norm_cfg))
    assert_close(swan_step(w, g, cfg), _swan_expressions(w, g, cfg))


@pytest.mark.parametrize("shape", EXTREME_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_extreme_zero_and_constant_rows(layout, shape, assert_close):
    # GradNorm maps them to zeros (to round-off of their means, over epsilon), and the step
    # centres g first where their |mean| / (std + epsilon) is large
    w, g, wide = _extreme(shape, layout)
    wide[1], wide[3], wide[5] = 0.0, 7.5, -1e3
    _check_extreme(w, g, wide, OptimizerConfig(kind="swan", learning_rate=0.037), assert_close)
    assert np.all(np.abs(grad_norm(wide)[[1, 3, 5]]) <= 1e-6)


@pytest.mark.parametrize("shape", EXTREME_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_extreme_epsilon_zero_names_the_first_dead_row(layout, shape):
    w, g, wide = _extreme(shape, layout)
    wide[[7, 30]] = 2.0
    cfg = OptimizerConfig(kind="swan", grad_norm_cfg=GradNormConfig(epsilon=0.0))
    with pytest.raises(ValueError, match="zero-variance row 7 with epsilon=0"):
        grad_norm(wide, cfg.grad_norm_cfg)
    with pytest.raises(ValueError, match="zero-variance row 7 with epsilon=0"):
        swan_step(w, g, cfg)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 300)], ids=str)
def test_extreme_one_row(shape, assert_close):
    # one row (of the wide form) whitens to its own direction, which the rescale returns to
    # GradNorm's norm: the step is w - lr G~
    w, g, wide = _extreme(shape, "C")
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037)
    _check_extreme(w, g, wide, cfg, assert_close)
    step = 0.037 * grad_norm(wide)
    assert_close(swan_step(w, g, cfg), w - (step if shape[0] == 1 else step.T))


@pytest.mark.parametrize("k", [50, 64, 200])
def test_extreme_rank_deficient_squares(k, assert_close):
    # a square GradNorm'd block has rank at most k - 1: every row sums to zero
    w, g = random_matrix(k, k, 14), grad_norm(random_matrix(k, k, 15))
    assert np.linalg.matrix_rank(grad_norm(g)) < k
    _check_extreme(w, g, g, OptimizerConfig(kind="swan", learning_rate=0.037), assert_close)


@pytest.mark.parametrize("shape", EXTREME_SHAPES, ids=str)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_extreme_magnitudes(layout, shape, assert_close):
    # near 1e-160 the squares of g's centred rows are subnormal and epsilon dominates std: G~ is
    # about 1e-152 and the Gram matrix is taken of G~ scaled by a power of two. With epsilon = 0
    # std is about 1e-159, whose square leaves the floats, and G~ is of order 1. Near 1e+160 the
    # row sums of squares overflow, as numpy's own std does: GradNorm's rows read 0 and the step
    # has no direction
    w, g, wide = _extreme(shape, layout)
    cfg = OptimizerConfig(kind="swan", learning_rate=0.037)
    tiny = 2.0**-530
    _check_extreme(w, tiny * g, tiny * wide, cfg, assert_close)
    exact = OptimizerConfig(
        kind="swan", learning_rate=0.037, grad_norm_cfg=GradNormConfig(epsilon=0.0)
    )
    assert_close(swan_step(w, tiny * g, exact), _swan_expressions(w, tiny * g, exact))
    with np.errstate(over="ignore"):
        huge, wide_huge = 2.0**530 * g, 2.0**530 * wide
        assert_close(grad_norm(wide_huge), _textbook(wide_huge, cfg.grad_norm_cfg))
        assert not grad_norm(wide_huge).any()
        with pytest.raises(ValueError, match="cannot whiten an all-zero matrix"):
            swan_step(w, huge, cfg)


@pytest.mark.parametrize("shape", [(50, 50), (64, 64), (512, 512)])
def test_swan_step_memory_is_at_most_adams_on_square_blocks(shape, warm_peak_bytes):
    # the paper's memory claim on the square blocks of quadratic_tune, the MLP and an attention
    # projection: a warm SWAN step against a warm Adam step (its three returned arrays and one
    # block, 4 k^2 below 2^15 entries). Below 128 rows SWAN's peak is the loop's 3 k^2 (G~ not
    # held across it) beside GradNorm's row statistics (2 k doubles), held for Z'' and u: one
    # k^2 below Adam's, up to those and 1 KB of small objects. From 128 one m x n and one k x k
    # beside scratch
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    adam = OptimizerConfig(kind="adam", learning_rate=0.1)
    w1, state = adam_step(w, g, init_state(adam, shape), adam)
    swan = warm_peak_bytes(swan_step, w, g, OptimizerConfig(kind="swan", learning_rate=0.1))
    adam_peak, k = warm_peak_bytes(adam_step, w1, g, state, adam), shape[0]
    if k < 128:
        assert swan <= adam_peak - (k * k - 2 * k) * 8 + 1024
    else:
        assert swan <= adam_peak + 4096


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("shape", [(64, 8192), (100, 4096), (8192, 64)])
def test_a_warm_small_wide_swan_step_is_one_m_by_n(shape, count, cpus, warm_peak_bytes):
    # below 128 rows with n >> m: G~ is freed once its Gram matrix is formed, and the one new
    # m x n is the result, written by the last pass (column halves read from g itself);
    # beside it the k x k Gram matrix, or the loop's k x k arrays and Z''
    cpus(count)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    swan = warm_peak_bytes(swan_step, w, g, OptimizerConfig(kind="swan", learning_rate=0.1))
    assert swan <= 1.1 * shape[0] * shape[1] * 8


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("shape", [(512, 2048), (2048, 512), (512, 512)])
def test_a_warm_swan_step_is_a_warm_sgd_step_plus_one_k_by_k(shape, count, cpus, warm_peak_bytes):
    # the paper's memory claim at a layer's size: beside SGD's one new m x n, SWAN holds one
    # k x k (the Gram matrix, then Z'') with the row statistics and the spectrum (4 vectors of
    # length k) and 4 KB of small objects; its last pass reads g itself, with no column scratch.
    # On a square block the peak is where Z' is formed: V beside the Gram matrix (2 k^2, one
    # k^2 above SGD's m x n) and one row block of Z' per thread (32 rows at k = 512)
    cpus(count)
    w, g = random_matrix(*shape, 0), random_matrix(*shape, 1)
    sgd = warm_peak_bytes(sgd_step, w, g, OptimizerConfig(kind="sgd", learning_rate=0.1))
    swan = warm_peak_bytes(swan_step, w, g, OptimizerConfig(kind="swan", learning_rate=0.1))
    (m, n), k = shape, min(shape)
    forming = 2 * k * k + count * 32 * k - m * n
    assert swan <= sgd + (max(k * k, forming) + 4 * k) * 8 + 4096


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("k", [512, 1024])
def test_a_warm_square_swan_step_forms_z_with_no_row_scratch(k, count, cpus, warm_peak_bytes):
    # Z' is the Gram matrix of V sqrt(phi), in V's buffer, written over the Gram matrix of G~:
    # beside SGD's one new k x k, SWAN's peak is V beside the Gram matrix with the row
    # statistics, the spectrum and the recursion's vectors (7 of length k, measured), and no
    # row block of Z' per thread
    cpus(count)
    w, g = random_matrix(k, k, 0), random_matrix(k, k, 1)
    sgd = warm_peak_bytes(sgd_step, w, g, OptimizerConfig(kind="sgd", learning_rate=0.1))
    swan = warm_peak_bytes(swan_step, w, g, OptimizerConfig(kind="swan", learning_rate=0.1))
    assert swan <= sgd + (k * k + 8 * k) * 8 + 4096


@pytest.mark.parametrize("count", [1, 2])
def test_a_warm_signed_square_swan_step_keeps_the_unsigned_bound(count, cpus, warm_peak_bytes):
    # paired b = 1 signs phi on the spectrum of this step (checked below), with one row of g
    # scaled by 40 as in the signed whitening tests: Z' is still one Gram matrix, of
    # V sqrt(phi + c) less c I, so the step keeps the bound of the unsigned step above, with no
    # row block of Z' per thread
    cpus(count)
    k = 512
    w, g = random_matrix(k, k, 0), random_matrix(k, k, 1)
    g[0] *= 40.0
    whitening = WhiteningConfig(step_size=1.0, update_order="paired")
    cfg = OptimizerConfig(kind="swan", learning_rate=0.1, whitening_cfg=whitening)
    gt = grad_norm(g)
    lam = np.maximum(np.linalg.eigvalsh(gt @ gt.T) / np.vdot(gt, gt), 0.0)
    f, _ = _ns_recursion(lam, 10, 1.0, "paired", np.multiply, 1)
    assert f.min() < 0.0 < f.max()
    sgd = warm_peak_bytes(sgd_step, w, g, OptimizerConfig(kind="sgd", learning_rate=0.1))
    swan = warm_peak_bytes(swan_step, w, g, cfg)
    assert swan <= sgd + (k * k + 8 * k) * 8 + 4096


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


# The two-thread passes: shapes at 2^17 entries and one row below (no split), odd block
# counts (Adam's 19 row blocks at 300 x 1024, Z'' g's halves of 640 and 576 at 192 x 1216, H w's
# 17 units of 64 columns at 128 x 1088), the bench's block and the transposes, and ragged
# last blocks (300 x 1001 split, 130 x 520 serial).
SPLIT_SHAPES = [
    (128, 1024), (127, 1024), (300, 1024), (192, 1216), (128, 1088), (512, 2048), (2048, 512),
    (1024, 128), (300, 1001), (130, 520),
]  # fmt: skip


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("shape", SPLIT_SHAPES, ids=str)
def test_split_steps_keep_the_serial_and_unblocked_bits(shape, layout, cpus, check_swan_step):
    # with the worker on (2 CPUs) and off (1): the same bits, and SWAN's within 1e-12 of the
    # whole-array expressions above (Adam's: their bits)
    w, g = random_matrix(*shape, 4), 3.0 * random_matrix(*shape, 5) + 0.5
    g = np.asfortranarray(g) if layout == "F" else g
    m, nu = random_matrix(*shape, 6), np.abs(random_matrix(*shape, 7))
    check_swan_step(w, g, OptimizerConfig(kind="swan", learning_rate=0.037))
    adam = OptimizerConfig(kind="adam", learning_rate=0.013)
    state, runs = OptimizerState(step=3, first_moment=m, second_moment=nu), []
    for count in (2, 1):
        cpus(count)
        w_new, after = adam_step(w, g, state, adam)
        runs.append((w_new, after.first_moment, after.second_moment))
    want = _adam_oracle(w, g, 3, m, nu, adam, adam.learning_rate)
    for split, serial, oracle in zip(runs[0], runs[1], want):
        assert split.tobytes() == serial.tobytes()
        assert np.array_equal(split, oracle)


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
