import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanopt import gradient_ops
from swanopt.gradient_ops import (
    GradNormConfig,
    WhiteningConfig,
    _grad_norm,
    _ns_recursion,
    exact_polar,
    grad_norm,
    grad_whitening,
    orthogonalize,
    rescale_update,
)
from swanopt.matrixops import random_matrix, sample_stiefel

EXACT = WhiteningConfig(mode="exact_eig")
NOEPS = GradNormConfig(epsilon=0.0)


def conditioned_gradient(seed, m=16, n=32, kappa=100.0):
    """Seeded m x n matrix with kappa(G G^T) = kappa, Frobenius-normalized."""
    u = sample_stiefel(m, m, 3 * seed + 1).T
    v = sample_stiefel(m, n, 3 * seed + 2)
    sv = np.geomspace(1.0, np.sqrt(kappa), m)
    g = (u * sv) @ v
    return g / np.linalg.norm(g)


# k=40 only where the iteration settles: chained beta <= 0.8, paired beta = 0.5.
NS_CASES = [
    (order, beta, k)
    for order in ("chained", "paired")
    for beta in (0.5, 0.8, 1.0)
    for k in (1, 2, 10)
] + [("chained", 0.5, 40), ("chained", 0.8, 40), ("paired", 0.5, 40)]


def plain_ns_z(a, k, b, order):
    """Reference: Z of the coupled Y/Z recursion from Y = a, Z = I, written out."""
    eye3 = 3.0 * np.eye(len(a))
    y, z = a, np.eye(len(a))
    for _ in range(k):
        if order == "paired":
            t = eye3 - z @ y
            y, z = b * (y @ t), b * (t @ z)
        else:
            y = b * (y @ (eye3 - z @ y))
            z = b * ((eye3 - z @ y) @ z)
    return z


def plain_ns_whitening(g, k, b, order):
    """Reference: the coupled Y/Z recursion written out, returning Z @ g."""
    g = g / np.linalg.norm(g)
    return plain_ns_z(g @ g.T, k, b, order) @ g


def plain_f(lam, k, b):
    """Reference: the chained Y/Z recursion on each eigenvalue, written out."""
    y, z = lam, np.ones_like(lam)
    for _ in range(k):
        y = b * y * (3.0 - z * y)
        z = b * (3.0 - z * y) * z
    return z


def f_k(lam, k, b, order):
    """f_k(lambda) on a spectrum: the recursion's Z / sigma times its sigma."""
    f, sigma = _ns_recursion(lam.copy(), k, b, order, np.multiply, 1)
    return f * sigma


class TestGradNorm:
    def test_already_standardized_row(self):
        g = np.array([[1.0, -1.0]])
        assert np.allclose(grad_norm(g, NOEPS), g, atol=1e-12)

    def test_constant_row_maps_to_zero(self):
        g = np.array([[5.0, 5.0, 5.0]])
        assert np.array_equal(grad_norm(g, GradNormConfig(epsilon=1e-8)), np.zeros((1, 3)))

    def test_two_point_row(self):
        # mean 1, population std 1
        g = np.array([[0.0, 2.0]])
        assert np.allclose(grad_norm(g, NOEPS), [[-1.0, 1.0]], atol=1e-12)

    def test_zero_variance_rejected_with_row_index(self):
        g = np.array([[1.0, 2.0], [7.0, 7.0]])
        with pytest.raises(ValueError, match="row 1"):
            grad_norm(g, NOEPS)

    def test_needs_two_columns_with_mean(self):
        with pytest.raises(ValueError, match="2 columns"):
            grad_norm(np.ones((3, 1)), NOEPS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        g = random_matrix(3, 5, 0)
        g[1, 2] = bad
        with pytest.raises(ValueError, match="g contains non-finite entries"):
            grad_norm(g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_output_row_statistics(self, seed):
        g = random_matrix(5, 9, seed)
        out = grad_norm(g, NOEPS)
        # bit-identical to the textbook form with the row sums of squares as a row-wise dot, and
        # within 1e-15 of it with numpy's own std
        assert np.array_equal(out, _grad_norm_unblocked(g, NOEPS))
        assert np.max(np.abs(out - _textbook(g, NOEPS))) <= 1e-15
        assert np.max(np.abs(out.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(out.std(axis=1) - 1.0)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_rowwise_rescale_and_recenter_invariance(self, seed, base_scale):
        g = random_matrix(6, 10, seed)
        rng = np.random.default_rng(seed + 1)
        scales = base_scale * rng.uniform(0.5, 2.0, size=(6, 1))
        shifts = rng.normal(size=(6, 1))
        ref = grad_norm(g, NOEPS)
        assert np.max(np.abs(grad_norm(g * scales, NOEPS) - ref)) <= 1e-12
        assert np.max(np.abs(grad_norm(g + shifts, NOEPS) - ref)) <= 1e-12

    def test_matrixwise_invariance_special_cases(self):
        g = random_matrix(4, 7, 2)
        ref = grad_norm(g, NOEPS)
        assert np.max(np.abs(grad_norm(3.7 * g, NOEPS) - ref)) <= 1e-12
        assert np.max(np.abs(grad_norm(g + 0.9, NOEPS) - ref)) <= 1e-12


def _grad_norm_unblocked(g, cfg):
    """GradNorm as plain whole-array numpy expressions, in ``g``'s memory order, with the row
    sums of squares as one row-wise dot: the oracle of the kernel's bits. A dead row under
    epsilon = 0 gives the index of the first one."""
    n = g.shape[1]
    c = g - np.add.reduce(g, axis=1, keepdims=True) / n
    std = np.sqrt(np.einsum("ij,ij->i", c, c)[:, None] / n)
    dead = np.flatnonzero(std.ravel() == 0.0)
    if cfg.epsilon == 0.0 and dead.size:
        return int(dead[0])
    return c / (std + cfg.epsilon)


def _textbook(g, cfg):
    """GradNorm with numpy's own mean and std."""
    return (g - g.mean(axis=1, keepdims=True)) / (g.std(axis=1, keepdims=True) + cfg.epsilon)


# one short block, many short and a few very long rows, an empty one, in both memory orders
GRAD_NORM_SHAPES = [
    (50, 50), (100, 700), (47, 700), (512, 2048), (2048, 512), (7, 40000), (1, 40000), (0, 5)
]


class TestGradNormBlocks:
    @pytest.mark.parametrize("cfg", [GradNormConfig(), NOEPS], ids=["epsilon", "epsilon0"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("shape", GRAD_NORM_SHAPES)
    def test_matches_unblocked_expressions(
        self, shape, layout, cfg, assert_same_bits, assert_close
    ):
        # epsilon = 0 adds the check for rows below sqrt(_TINY), which rows of order 1 never meet
        g = 3.0 * random_matrix(*shape, 5) + 0.5
        g = np.asfortranarray(g) if layout == "F" else g  # as a tall block's transposed view
        got = grad_norm(g, cfg)
        assert_same_bits(got, _grad_norm_unblocked(g, cfg))
        assert_close(got, _textbook(g, cfg))

    @pytest.mark.parametrize("fill", [2.0, 0.0, -(2.0**-600)], ids=["two", "zero", "tiny"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("dead", [(0, 99), (45, 60), (93, 99), (99,)])
    def test_epsilon_zero_names_the_first_dead_row(self, dead, layout, fill):
        # a constant row is dead at any magnitude: at 2^-600 its std is taken again from _fro of
        # its centred row, which is 0 too
        g = random_matrix(100, 700, 6)
        g[list(dead)] = fill
        g = np.asfortranarray(g) if layout == "F" else g
        assert _grad_norm_unblocked(g, NOEPS) == dead[0]
        with pytest.raises(ValueError, match=f"zero-variance row {dead[0]} with epsilon=0"):
            grad_norm(g, NOEPS)

    @pytest.mark.parametrize("e", [-520, -530, -540, -600, -800, -1000])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("shape", [(50, 60), (200, 300)])
    def test_epsilon_zero_is_scale_free_at_the_small_end(self, shape, layout, e, assert_close):
        # below 2^-510 the squares of the centred rows are subnormal, and from 2^-540 they are
        # all 0: with epsilon = 0 rows whose std is below sqrt(_TINY) take it from _fro, so G~ is
        # that of the unscaled rows and S scales with them
        g = 3.0 * random_matrix(*shape, 13) + 0.5
        g = np.asfortranarray(g) if layout == "F" else g
        tiny = 2.0**e
        unit, _, unit_std = _grad_norm(g, NOEPS)
        got, _, std = _grad_norm(tiny * g, NOEPS)
        assert_close(got, unit)
        assert_close(std / tiny, unit_std)
        assert np.all(std > 0.0)

    @pytest.mark.parametrize(
        "shape, layout",
        [
            ((512, 2048), "C"),
            ((2048, 512), "C"),
            ((7, 40000), "C"),
            ((512, 2048), "F"),
            ((64, 8192), "F"),  # an 8192 x 64 block's transposed view
        ],
    )
    def test_working_set_is_the_output_and_one_block(self, shape, layout, warm_peak_bytes):
        # the m x n output, which is C and then G~ = C / S in place, beside three per-row vectors
        # (the means, the row sums of squares and std) and 4 KB for small temporaries: no
        # squares and, at _unbuffered's 64-entry buffer, no ufunc buffer of the array's size
        g = random_matrix(*shape, 7)
        g = np.asfortranarray(g) if layout == "F" else g
        m, n = shape
        assert warm_peak_bytes(grad_norm, g) <= (m * n + 3 * m) * 8 + 4096

    @pytest.mark.parametrize("cfg", [GradNormConfig(), NOEPS], ids=["epsilon", "epsilon0"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize(
        "shape", [(16, 64), (50, 50), (64, 8), (100, 700), (7, 40000), (512, 2048), (300, 1001)]
    )
    def test_rebuilt_from_its_row_statistics_with_the_same_bits(
        self, shape, layout, cfg, assert_same_bits, assert_close
    ):
        # the m x 1 (mean, std + eps) that Z'' folds in are G~'s own, so (g - mean) / std
        # rebuilds G~ whole, by row halves and by column blocks with its bits
        g = 3.0 * random_matrix(*shape, 8) - 0.5
        g = np.asfortranarray(g) if layout == "F" else g
        first, mean, std = _grad_norm(g, cfg)
        assert std.shape == mean.shape == (shape[0], 1)
        assert first is not g
        assert_same_bits(first, _grad_norm_unblocked(g, cfg))
        assert_close(first, _textbook(g, cfg))
        whole = np.divide(np.subtract(g, mean, out=np.empty_like(first)), std)
        assert_same_bits(whole, first)
        assert_close(whole, (g - g.mean(axis=1, keepdims=True)) / std)
        (m, n), half = shape, -(-shape[0] // 2)
        rows, columns = np.empty_like(first), np.empty_like(first)
        for i in range(0, m, half):
            b = slice(i, i + half)
            rows[b] = (g[b] - mean[b]) / std[b]
        for j in range(0, n, 64):
            b = slice(j, j + 64)
            columns[:, b] = (g[:, b] - mean) / std
        assert rows.tobytes(order="A") == columns.tobytes(order="A") == first.tobytes(order="A")


class TestGradWhitening:
    @pytest.mark.parametrize(
        "cfg",
        [WhiteningConfig(), WhiteningConfig(update_order="paired", step_size=0.5)],
        ids=["chained", "paired"],
    )
    @pytest.mark.parametrize("shape", [(50, 50), (40, 100), (16, 64), (64, 8)])
    def test_rebuilt_input_keeps_the_bits(self, shape, cfg, assert_same_bits, folded_tail):
        # below 128 rows G~ is dropped for the loop and the pass reads g itself, scaled into Z'
        # by sigma / s: the bits of the folded tail, within 1e-12 of the plain recursion's Z G~n;
        # a tall block reaches grad_whitening as its F-ordered transposed view
        g = 3.0 * random_matrix(*shape, 9) + 0.5
        if shape[0] > shape[1]:
            g = g.T
        k, b, order = cfg.iterations, cfg.step_size, cfg.update_order
        whole = plain_ns_whitening(g, k, b, order)
        assert_same_bits(grad_whitening(g, cfg), folded_tail(None, g, None, cfg), whole)

    @pytest.mark.parametrize("shape", [(50, 50), (40, 100), (16, 64), (64, 8)])
    def test_orthogonalize_is_the_exact_polar_factor(self, shape, assert_same_bits):
        # a tall g is factored transposed, so its factor is the wide one's transpose
        g = 3.0 * random_matrix(*shape, 9) + 0.5
        want = exact_polar(g.T)[0].T if shape[0] > shape[1] else exact_polar(g)[0]
        assert_same_bits(orthogonalize(g), want)

    @pytest.mark.parametrize(
        "call",
        [
            exact_polar,
            lambda g: grad_whitening(g, EXACT),
            orthogonalize,
            lambda g: orthogonalize(g.T),
        ],
        ids=["exact_polar", "grad_whitening", "orthogonalize", "orthogonalize_tall"],
    )
    def test_empty_input_is_all_zero(self, call):
        with pytest.raises(ValueError, match="cannot whiten an all-zero matrix"):
            call(np.zeros((0, 3)))

    def test_working_set_below_128_rows_is_the_loop(self, warm_peak_bytes):
        # G~ = g is not held across the loop: its 3 k x k arrays (the Gram matrix, reused
        # for P / 3, N and Z), or after it Z'' and the result
        k = 50
        g = random_matrix(k, k, 10)
        assert warm_peak_bytes(grad_whitening, g) <= 3 * k * k * 8 + 4096

    def test_orthogonal_fixed_point(self):
        o = sample_stiefel(4, 9, 3)
        assert np.linalg.norm(grad_whitening(o, EXACT) - o) <= 1e-10

    def test_diagonal_to_identity(self):
        g = np.diag([2.0, 3.0])
        assert np.allclose(grad_whitening(g, EXACT), np.eye(2), atol=1e-12)

    def test_newton_schulz_matches_exact_oracle(self):
        cfg = WhiteningConfig(iterations=30, step_size=0.5, update_order="paired")
        for seed in range(10):
            g = conditioned_gradient(seed, kappa=50.0)
            err = np.linalg.norm(grad_whitening(g, cfg) - grad_whitening(g, EXACT))
            assert err <= 1e-6

    def test_rank_deficient_rejected(self):
        v = random_matrix(1, 6, 0)
        g = np.vstack([v, 2 * v, random_matrix(1, 6, 1)])
        with pytest.raises(ValueError, match="singular value"):
            grad_whitening(g, EXACT)

    @pytest.mark.parametrize(
        "g, match",
        [
            (np.array([[np.inf, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 1.0, 2.0]]),
             "non-finite"),
            (np.array([[np.nan, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 1.0, 2.0]]),
             "non-finite"),
            (np.ones(4), "2-D"),
        ],
        ids=["inf", "nan", "1d"],
    )
    def test_exact_polar_checks_its_input(self, g, match):
        # LAPACK's SVD does not return on a matrix holding +inf
        with pytest.raises(ValueError, match=f"g .*{match}"):
            exact_polar(g)

    def test_newton_schulz_tolerates_rank_deficiency(self):
        v = random_matrix(1, 6, 0)
        g = np.vstack([v, 2 * v])
        out = grad_whitening(g, WhiteningConfig())
        assert np.all(np.isfinite(out))

    def test_tall_input_rejected(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            grad_whitening(random_matrix(5, 3, 0), EXACT)

    def test_scale_invariance_exact(self):
        g = random_matrix(4, 8, 5)
        a = grad_whitening(g, EXACT)
        b = grad_whitening(17.3 * g, EXACT)
        assert np.linalg.norm(a - b) <= 1e-10

    def test_output_row_orthogonality(self):
        for seed in range(5):
            g = random_matrix(6, 11, seed)
            w = grad_whitening(g, EXACT)
            assert np.linalg.norm(w @ w.T - np.eye(6)) <= 1e-8

    def test_classical_error_non_increasing_in_k(self):
        for seed in range(5):
            g = conditioned_gradient(seed, kappa=80.0)
            errs = []
            for k in range(1, 16):
                cfg = WhiteningConfig(iterations=k, step_size=0.5, update_order="paired")
                w = grad_whitening(g, cfg)
                errs.append(np.linalg.norm(w @ w.T - np.eye(g.shape[0])))
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_classical_z_converges_to_inverse_sqrt(self):
        # beta = 0.5 paired is the classical coupling: Z_k -> (g g^T)^{-1/2}, so Z g is the
        # exact polar factor; the m = 128 case runs on the Gram spectrum
        cfg = WhiteningConfig(iterations=40, step_size=0.5, update_order="paired")
        cases = [(seed, 16) for seed in range(5)] + [(0, 128)]
        for seed, m in cases:
            g = conditioned_gradient(seed, m=m, n=2 * m, kappa=100.0)
            assert np.linalg.norm(grad_whitening(g, cfg) - exact_polar(g)[0]) <= 1e-6

    @pytest.mark.parametrize("order, beta, k", NS_CASES)
    def test_newton_schulz_matches_plain_recursion(self, order, beta, k):
        # m = 128 runs on the Gram spectrum, the smaller inputs on matrices
        inputs = [
            conditioned_gradient(1, m=m, n=2 * m, kappa=kappa)
            for m in (16, 128)
            for kappa in (2.0, 1e2, 1e4)
        ]
        inputs.append(random_matrix(1, 9, 3))
        if k < 40:  # square GradNorm'd input has rank m - 1
            inputs += [grad_norm(random_matrix(m, m, 4)) for m in (50, 128)]
        cfg = WhiteningConfig(iterations=k, step_size=beta, update_order=order)
        for g in inputs:
            ref = plain_ns_whitening(g, k, beta, order)
            err = np.linalg.norm(grad_whitening(g, cfg) - ref) / np.linalg.norm(ref)
            assert err <= 1e-10

    def test_chained_default_finite_on_rank_deficient_input_at_k40(self):
        # square GradNorm'd input has rank m - 1; at 128 rows the recursion runs
        # on the spectrum clamped at 0, so round-off on the null direction
        # cannot grow (the matrix loop overflows on seeds 1, 3 and 5 of these)
        cfg = WhiteningConfig(iterations=40)
        for seed in range(6):
            out = grad_whitening(grad_norm(random_matrix(128, 128, seed)), cfg)
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", [50, 64])
    def test_chained_default_finite_on_square_gradnormed_input_below_128_rows(self, m):
        # rank m - 1: the matrix loop grows round-off on the null direction, but at the default
        # k = 10 it stays finite (it turns non-finite from k = 29 on some seeds; grad_whitening)
        for seed in range(6):
            out = grad_whitening(grad_norm(random_matrix(m, m, seed)))
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m", [16, 128])
    def test_the_carried_scale_neither_overflows_nor_underflows(self, m, assert_close):
        # sigma = (3b)^k overflows from k ~ 810 at b = 0.8, and 0.15^k underflows at b = 0.05:
        # folded into Z where it leaves (1e-150, 1e150), Z stays finite and on the plain
        # recursion, on matrices below 128 rows and on the spectrum from there
        g = conditioned_gradient(8, m=m, n=2 * m, kappa=10.0)
        with pytest.raises(OverflowError):
            (3 * 0.8) ** 1000
        assert (3 * 0.05) ** 1000 == 0.0
        for k, b in ((1000, 0.8), (1000, 0.05)):
            cfg = WhiteningConfig(iterations=k, step_size=b)
            got = grad_whitening(g, cfg)
            assert np.all(np.isfinite(got))
            if m < 128:
                assert_close(got, plain_ns_whitening(g, k, b, "chained"))
            lam = np.maximum(np.linalg.eigvalsh(g @ g.T / np.linalg.norm(g) ** 2), 0.0)
            f = f_k(lam, k, b, "chained")
            assert_close(f, plain_f(lam, k, b))

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("order", ["chained", "paired"])
    @pytest.mark.parametrize("m", [50, 300, 512])
    def test_newton_schulz_working_set(self, m, order, layout, warm_peak_bytes):
        # an m x 2m g: below 128 rows the loop's k x k arrays (the Gram matrix, reused for P / 3,
        # N and Z chained, for P, T, P T and Z paired), then Z'' and the result; from 128 the Gram
        # matrix, then Z' over it, and the result (V and the spectrum are freed before it). Measured
        # at 50 x 100: 3 k^2 + 1455 B chained and 4 k^2 + 1191 B paired; at 300 x 600 and
        # 512 x 1024: k^2 + m n + 1703 B on one CPU and at most + 3127 B on two
        g = conditioned_gradient(2, m=m, n=2 * m)
        g = np.asfortranarray(g) if layout == "F" else g
        cfg = WhiteningConfig(update_order=order)
        squares = (3 if order == "chained" else 4) if m < 128 else 0
        bound = max(squares * m * m, m * m + g.size) * 8 + 4096
        assert warm_peak_bytes(grad_whitening, g, cfg) <= bound

    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("order", ["chained", "paired"])
    @pytest.mark.parametrize("m", [2, 20, 50, 127])
    def test_owned_loop_keeps_the_public_bits(self, m, order, k, assert_same_bits, ns_loop):
        # P written into the owned Gram matrix: the same products into new arrays, within
        # 1e-12 of the plain Y/Z recursion
        g = conditioned_gradient(5, m=m, n=2 * m)
        a = g @ g.T
        z, sigma = ns_loop(a, k, 0.8, order)
        got, got_sigma = _ns_recursion(a.copy(), k, 0.8, order, np.matmul, m + 1)
        assert got_sigma == sigma
        assert_same_bits(got, z, plain_ns_z(a, k, 0.8, order) / sigma)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("order", ["chained", "paired"])
    @pytest.mark.parametrize("m", [20, 127, 128, 192, 300])
    def test_public_recursion_leaves_a_read_only_input_unwritten(
        self, m, order, layout, assert_same_bits
    ):
        # whitening reads g and writes only arrays of its own: a read-only g keeps its bytes and
        # gives a writable copy's bits, below 128 rows within 1e-12 of the plain Y/Z recursion
        g = conditioned_gradient(7, m=m, n=2 * m)
        g = np.asfortranarray(g) if layout == "F" else g
        cfg = WhiteningConfig(update_order=order)
        want = grad_whitening(g.copy(order="K"), cfg)
        before = g.tobytes(order="A")
        g.flags.writeable = False  # any write to g raises
        got = grad_whitening(g, cfg)
        assert g.tobytes(order="A") == before
        whole = plain_ns_whitening(g, 10, 0.8, order) if m < 128 else None
        assert_same_bits(got, want, whole)

    @pytest.mark.parametrize("order", ["chained", "paired"])
    @pytest.mark.parametrize("m", [128, 192, 300, 407, 512, 1024])
    def test_owned_spectral_z_keeps_the_whole_product_bits(
        self, m, order, assert_same_bits, blocked_spectral
    ):
        # Z as the Gram matrix of V sqrt(f) in the owned Gram matrix, whole below 2^17 entries
        # and from 407 rows split at m / sqrt(2): the blocked expression's bits, within the
        # tolerance of the whole product V f(lambda) V^T
        g = conditioned_gradient(6, m=m, n=2 * m)
        a = g @ g.T
        lam, v = np.linalg.eigh(a)
        f = f_k(np.maximum(lam, 0.0), 10, 0.8, order)
        owned = a.copy()
        z = gradient_ops._v_diag_vt(v.copy(), f.copy(), owned)
        assert z is owned
        assert_same_bits(z, blocked_spectral(v, f), (v * f) @ v.T)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["chained", "paired"]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=64),
    )
    def test_the_normalized_spectrum_keeps_f_positive(self, k, order, b, lam):
        # Z' = X X^T needs f_k(lambda) >= 0 on the trace-normalized spectrum in [0, 1]. Chained,
        # P stays below 3 and Q = P b (3 - P) at most 9b/4 < 3, so every S is positive; paired, P
        # stays at most max(1, 4 b^2) < 3 for b <= 2/3, so every T is. Below b = 1e-3, (3b)^k may
        # underflow to 0 near lambda = 0, which the symmetric product still takes
        b = b if order == "chained" else b * 2 / 3
        lam = np.array([0.0, 1.0, *lam, *np.linspace(0.0, 1.0, 257)])
        f = f_k(lam, k, b, order)
        assert f.min() > 0.0 if b >= 1e-3 else f.min() >= 0.0

    def test_a_signed_paired_spectrum_takes_v_diag_vt(self, monkeypatch, assert_close):
        # paired b = 1 on a normalized spectrum up to 0.91: f_10 reaches -219, so Z' is the
        # Gram matrix of V sqrt(phi + c) less c I, one more Gram matrix than G's
        g = random_matrix(160, 320, 0)
        g[0] *= 40.0
        grams, gram = [], gradient_ops._gram
        monkeypatch.setattr(
            gradient_ops, "_gram", lambda x, out: grams.append(x.shape) or gram(x, out)
        )
        got = grad_whitening(g, WhiteningConfig(step_size=1.0, update_order="paired"))
        assert grams == [g.shape, (160, 160)]
        a = g @ g.T
        s2 = np.trace(a)
        lam, v = np.linalg.eigh(a)
        f = f_k(np.maximum(lam, 0.0) / s2, 10, 1.0, "paired")
        assert f.min() < 0.0 < f.max()
        assert_close(got, ((v * f) @ v.T) @ g / np.sqrt(s2))

    @pytest.mark.parametrize(
        "shape, seed, k, b",
        [((160, 320), 0, 10, 1.0), ((512, 2048), 0, 10, 1.0), ((200, 400), 1, 2, 0.5)],
        ids=["paired_b1_160x320", "paired_b1_512x2048", "public_eigenvalues_to_3.5"],
    )
    def test_a_signed_spectrum_is_within_1e_12_of_v_diag_vt(self, shape, seed, k, b, assert_close):
        # paired b = 1 on the trace-normalized spectrum of G with one row scaled by 40, as the
        # spectral step runs it, and b = 0.5 on a Gram matrix with eigenvalues up to 3.5:
        # f is signed, and the Gram matrix of V sqrt(f + c) less c I is within 1e-12 of
        # V diag(f) V^T (largest error measured: 1.7e-14)
        g = random_matrix(*shape, seed)
        if b == 1.0:
            g[0] *= 40.0
        a = g @ g.T
        a /= np.trace(a) if b == 1.0 else np.linalg.eigvalsh(a)[-1] / 3.5
        lam, v = np.linalg.eigh(a)
        f = f_k(np.maximum(lam, 0.0), k, b, "paired")
        assert f.min() < 0.0 < f.max()
        z = gradient_ops._v_diag_vt(v.copy(), f.copy(), np.empty_like(a))
        assert_close(z, (v * f) @ v.T)

    @pytest.mark.parametrize(
        "fn, tall, cfg",
        [
            (grad_whitening, False, EXACT),
            (grad_whitening, False, WhiteningConfig()),
            (orthogonalize, False, EXACT),
            (orthogonalize, True, EXACT),
        ],
        ids=[
            "grad_whitening-exact",
            "grad_whitening-newton_schulz",
            "orthogonalize-exact",
            "orthogonalize_tall-exact",
        ],
    )
    def test_whitening_checks_its_input_once(self, monkeypatch, fn, tall, cfg):
        g = conditioned_gradient(4)
        want = grad_whitening(g, cfg)
        calls = []
        real = gradient_ops.as_matrix
        monkeypatch.setattr(
            gradient_ops, "as_matrix", lambda *args: calls.append(args[1]) or real(*args)
        )
        call = fn if fn is orthogonalize else lambda x: fn(x, cfg)
        out = call(g.T).T if tall else call(g)
        assert calls == ["g"]
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("order, unread", [("chained", 2), ("paired", 3)])
    def test_newton_schulz_product_count(self, order, unread, k):
        # 3 products per iteration less the unread ones: Z_1 is T_1 (or S_1)
        # itself, the last P is not read, nor (paired) the last P T; each P goes
        # into p0, so it gets a writable copy of the Gram matrix
        g = conditioned_gradient(3, m=8, n=16)
        a = g @ g.T
        spectrum = np.linalg.eigvalsh(a)
        for p0, product, stride in ((a.copy(), np.matmul, 9), (spectrum, np.multiply, 1)):
            calls = []

            def counting(x, y, out=None):
                calls.append(1)
                return product(x, y, out=out)

            _ns_recursion(p0, k, 0.8, order, counting, stride)
            assert len(calls) == 3 * k - unread

    def test_chained_defaults_bounded_and_improving(self):
        for seed in range(5):
            g = conditioned_gradient(seed)
            w10 = grad_whitening(g, WhiteningConfig(iterations=10))
            sv = np.linalg.svd(w10, compute_uv=False)
            assert 0.5 <= sv.min() and sv.max() <= 1.5
            w2 = grad_whitening(g, WhiteningConfig(iterations=2))
            m = g.shape[0]
            err = lambda w: np.linalg.norm(w @ w.T - np.eye(m))
            assert err(w10) < err(w2)

    def test_output_is_invariant_to_input_scale(self):
        # the Newton-Schulz loop always runs on the Frobenius-normalized input
        g = conditioned_gradient(4)
        ref = grad_whitening(g, WhiteningConfig())
        for scale in (1e-3, 3.7, 1e3):
            assert np.allclose(grad_whitening(scale * g, WhiteningConfig()), ref, atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            grad_whitening(np.zeros((2, 4)), WhiteningConfig())

    def test_orthogonalize_transposes_tall(self):
        g = random_matrix(7, 3, 1)
        w = orthogonalize(g)
        assert w.shape == (7, 3)
        assert np.linalg.norm(w.T @ w - np.eye(3)) <= 1e-8


class TestRescale:
    def test_scale_to_reference_norm(self):
        ref = np.zeros((2, 2))
        ref[0, 0] = 10.0
        out = rescale_update(np.eye(2), ref)
        # identity scaled so its Frobenius norm becomes 10
        assert np.allclose(out, (10.0 / np.sqrt(2.0)) * np.eye(2))
        assert np.isclose(np.linalg.norm(out), 10.0, rtol=1e-12)

    def test_identity_when_reference_is_delta(self):
        d = random_matrix(3, 4, 0)
        assert np.allclose(rescale_update(d, d), d, rtol=1e-12)

    def test_three_four_five_row(self):
        out = rescale_update(np.array([[3.0, 4.0]]), np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_norm_matches_reference(self):
        d = random_matrix(4, 4, 1)
        ref = random_matrix(4, 4, 2)
        out = rescale_update(d, ref)
        assert np.isclose(np.linalg.norm(out), np.linalg.norm(ref), rtol=1e-12)

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            rescale_update(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_read_only_delta_is_not_written(self, layout, assert_same_bits):
        # a copy in delta's memory order is scaled: the bits of delta * (|ref| / |delta|)
        d = random_matrix(5, 7, 3)
        d = np.asfortranarray(d) if layout == "F" else d
        ref = random_matrix(5, 7, 4)
        before = d.tobytes(order="A")
        d.flags.writeable = False  # any write to d raises
        out = rescale_update(d, ref)
        assert d.tobytes(order="A") == before
        assert_same_bits(out, d * (np.linalg.norm(ref) / np.linalg.norm(d)))


class TestConfigValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            GradNormConfig(epsilon=-1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(iterations=0), "iterations must be >= 1, got 0"),
            (dict(step_size=0.0), "step_size must be in (0, 1], got 0.0"),
            (dict(step_size=1.5), "step_size must be in (0, 1], got 1.5"),
            (dict(step_size=5.0), "step_size must be in (0, 1], got 5.0"),
            (dict(mode="pade"), "mode must be one of"),
            (dict(update_order="zigzag"), "update_order must be one of"),
            (dict(update_order="bogus"), "update_order must be one of"),
            (dict(iterations=2.5), "iterations must be an integer, got 2.5"),
            (dict(iterations=True), "iterations must be an integer, got True"),
        ],
    )
    def test_bad_whitening_config(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WhiteningConfig(**kwargs)

    @pytest.mark.parametrize("iterations", [2.5, True, False, "10", np.float64(3.0)])
    def test_iterations_must_be_an_integer(self, iterations):
        # a float reached range() in the recursion, and True ran one iteration
        with pytest.raises(ValueError, match=re.escape(f"got {iterations!r}")):
            WhiteningConfig(iterations=iterations)

    def test_numpy_integer_iterations_are_accepted(self):
        assert WhiteningConfig(iterations=np.int64(3)).iterations == 3
