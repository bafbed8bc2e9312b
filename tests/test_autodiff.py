import gc
import warnings
import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import autodiff as ad
from causal_sphhn.autodiff import ScatterPlan, Tensor
from reference_ops import masked_logsumexp, masked_softmax, normalize_rows, scatter_rows


def fd_grad(fn, x, h=1e-6):
    """Central-difference gradient of a scalar fn of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


@st.composite
def scatter_inputs(draw):
    """Row count, index array and source rows for a ScatterPlan.

    Half of the indices may hit one hot row, so a row often sums many
    sources while most of the rows get none.
    """
    n = draw(st.integers(1, 3000))
    size = draw(st.integers(0, 300))
    hot = draw(st.integers(0, n - 1))
    idx = draw(hnp.arrays(np.int64, size, elements=st.just(hot) | st.integers(0, n - 1)))
    src = draw(hnp.arrays(np.float64, (size, 2), elements=st.floats(-1e3, 1e3)))
    return n, idx, src


def check_op(build, *shapes, seed=0, atol=1e-6):
    """FD-check the scalar output of build(*tensors) w.r.t. every input."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = build(*tensors)
    out.backward()
    for t in tensors:
        numeric = fd_grad(lambda: build(*tensors).item(), t.data)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.allclose(analytic, numeric, atol=atol), build


class TestArithmetic:
    def test_add_mul_broadcast(self):
        check_op(lambda a, b: ((a + b) * a).sum(), (3, 4), (4,))

    def test_scalar_broadcast(self):
        check_op(lambda a, s: (a * s + s).sum(), (2, 3), ())

    def test_matmul_2d_and_3d(self):
        check_op(lambda a, b: (a @ b).sum(), (4, 3), (3, 5))
        check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 3))

    def test_reductions_and_reshape(self):
        check_op(lambda a: a.sum() * a.sum(), (3, 5))
        check_op(lambda a: a.reshape(6).sum(), (2, 3))
        check_op(lambda a: (a.transpose((1, 0)) @ a).sum(), (3, 4))

    def test_nonlinearities(self):
        check_op(lambda a: a.softplus().sum(), (6,))

    def test_relu_away_from_kink(self):
        a = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]), requires_grad=True)
        a.relu().sum().backward()
        assert np.array_equal(a.grad, [0.0, 0.0, 1.0, 1.0])


class TestIndexing:
    def test_gather_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = rng.standard_normal((4, 2))
        out = (ad.gather_rows(x, idx) * Tensor(w)).sum()
        out.backward()
        numeric = fd_grad(lambda: (ad.gather_rows(x, idx) * Tensor(w)).sum().item(), x.data)
        assert np.allclose(x.grad, numeric, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(scatter_inputs())
    @example((3000, np.zeros(40, dtype=np.int64), np.ones((40, 2))))
    def test_scatter_plan_matches_add_at(self, case):
        n, idx, src = case
        tol = 1e-12 * (1.0 + np.abs(src).sum())
        assert np.allclose(ScatterPlan(idx, n).apply(src), scatter_rows(idx, src, n), rtol=0.0, atol=tol)

    @settings(max_examples=200, deadline=None)
    @given(scatter_inputs(), st.integers(0, 2**32 - 1))
    def test_gather_scatter_adjoint(self, case, seed):
        # gather_rows' forward is x[idx] and its backward the plan's apply.
        n, idx, src = case
        x = np.random.default_rng(seed).standard_normal((n, 2))
        lhs = np.sum(ad.gather_rows(Tensor(x), idx).data * src)
        rhs = np.sum(x * ScatterPlan(idx, n).apply(src))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(src).sum())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_flat_gather_scatter_adjoint(self, n, d, q, seed):
        # The attention step's pair over flat cells of an (N, N) block:
        # gram_gather reads the Gram matrix at the cells, scatter_matmul
        # writes weights onto them, and the cells repeat whenever q > n*n.
        rng = np.random.default_rng(seed)
        h, w = rng.standard_normal((n, d)), rng.standard_normal(q)
        cells = rng.integers(0, n * n, q)
        cells_t = (cells % n) * n + cells // n
        tol = 1e-12 * (1.0 + np.abs(w).sum()) * (1.0 + np.abs(h).sum() ** 2)
        gram = ad.gram_gather(Tensor(h), cells, cells_t).data
        lhs = np.sum(ad.scatter_matmul(Tensor(w), Tensor(h), cells, n).data * h)
        assert abs(lhs - np.dot(w, gram)) <= tol
        # Under the cotangent h, scatter_matmul's w-gradient is gram_gather's forward.
        w_leaf = Tensor(w, requires_grad=True)
        (ad.scatter_matmul(w_leaf, Tensor(h), cells, n) * Tensor(h)).sum().backward()
        assert np.allclose(w_leaf.grad, gram, rtol=0.0, atol=tol)
        # Under the cotangent w, gram_gather's h-gradient is (A + A^T) h, A the scattered w.
        h_leaf = Tensor(h, requires_grad=True)
        (ad.gram_gather(h_leaf, cells, cells_t) * Tensor(w)).sum().backward()
        a = np.bincount(cells, weights=w, minlength=n * n).reshape(n, n)
        assert np.allclose(h_leaf.grad, (a + a.T) @ h, rtol=0.0, atol=tol)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_put_rows_adjoint(self, n, seed):
        # put_rows' backward gives x the gradient off the distinct rows, and s the gradient on them.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2))
        rows = rng.permutation(n)[: rng.integers(0, n + 1)]
        s, y = rng.standard_normal((rows.size, 2)), rng.standard_normal((n, 2))
        y_off = y.copy()
        y_off[rows] = 0.0
        x_leaf, s_leaf = Tensor(x, requires_grad=True), Tensor(s, requires_grad=True)
        out = ad.put_rows(x_leaf, rows, s_leaf)
        (out * Tensor(y)).sum().backward()
        assert np.array_equal(x_leaf.grad, y_off) and np.array_equal(s_leaf.grad, y[rows])
        lhs = np.sum(out.data * y)
        assert abs(lhs - np.sum(x * y_off) - np.sum(s * y[rows])) <= 1e-9 * (1.0 + np.abs(y).sum())

    def test_put_rows_gradient(self):
        rows = np.array([3, 0, 4])
        w = Tensor(np.random.default_rng(3).standard_normal((5, 2)))

        def build(x, s):
            out = ad.put_rows(x, rows, s)
            return (out * out * w).sum()

        check_op(build, (5, 2), (3, 2))

    def test_slice_gradient(self):
        check_op(lambda a: (a[1:4] * a[2:5]).sum(), (6,))
        check_op(lambda a: (a[:2] * a[:2]).sum(), (3, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 4), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_gram_gather_matches_gram_matrix(self, n, d, q, seed):
        # q cells drawn from n*n repeat whenever q > n*n, and often before.
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, d))
        cells = rng.integers(0, n * n, q)
        cells_t = (cells % n) * n + cells // n
        out = ad.gram_gather(Tensor(h), cells, cells_t).data
        assert np.allclose(out, (h @ h.T).ravel()[cells], rtol=0.0, atol=1e-12 * (1.0 + np.abs(h).sum() ** 2))

    def test_gram_gather_gradient_with_repeated_cells(self):
        rng = np.random.default_rng(9)
        n = 4
        cells = np.array([0, 1, 4, 1, 6, 9, 15, 9, 9, 14, 11])  # (0,1) and (1,0), (2,1) thrice
        cells_t = (cells % n) * n + cells // n
        w = Tensor(rng.standard_normal(cells.size))
        check_op(lambda h: (ad.gram_gather(h, cells, cells_t) * w).sum(), (n, 3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 4), st.integers(0, 60), st.integers(0, 2**32 - 1))
    def test_scatter_matmul_equals_the_dense_product_bitwise(self, rows, n, d, q, seed):
        # q cells drawn from rows*n repeat whenever q > rows*n, and often before.
        rng = np.random.default_rng(seed)
        w, h = rng.standard_normal(q), rng.standard_normal((n, d))
        cells = rng.integers(0, rows * n, q)
        out = ad.scatter_matmul(Tensor(w), Tensor(h), cells, rows).data
        assert np.array_equal(out, np.bincount(cells, weights=w, minlength=rows * n).reshape(rows, n) @ h)

    def test_scatter_matmul_gradient_with_repeated_cells(self):
        rows, n = 3, 4
        cells = np.array([0, 1, 4, 1, 6, 9, 11, 9, 9, 3])  # (0,1) twice, (2,1) thrice
        g = Tensor(np.random.default_rng(9).standard_normal((rows, 2)))
        check_op(lambda w, h: (ad.scatter_matmul(w, h, cells, rows) * g).sum(), (cells.size,), (n, 2))


@st.composite
def rows_in_eps(draw):
    """A (rows, 3) array of random directions whose norms are 0 or a
    multiple of eps from 0.5 to 1000, some within 0.1% of 1."""
    scales = draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3]), min_size=1, max_size=8))
    dirs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((len(scales), 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * np.asarray(scales)[:, None]


class TestNormalizeRows:
    EPS = 0.5

    @settings(max_examples=200, deadline=None)
    @given(rows_in_eps(), st.sampled_from([1e-12, 0.5]))
    @example(np.zeros((2, 3)), 1e-12)
    def test_equals_the_composite_forward_bitwise(self, rows, eps):
        x = rows * eps
        assert np.array_equal(ad.normalize_rows(Tensor(x), eps).data, normalize_rows(x, eps))

    def test_gradient_near_eps(self):
        # Rows from 1.02 eps to 40 eps, so a finite-difference step never crosses eps.
        rng = np.random.default_rng(11)
        dirs = rng.standard_normal((5, 3))
        x = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * (self.EPS * np.array([1.02, 1.1, 2.0, 9.0, 40.0]))[:, None]
        w = Tensor(rng.standard_normal((5, 3)))
        t = Tensor(x, requires_grad=True)
        (ad.normalize_rows(t, self.EPS) * w).sum().backward()
        numeric = fd_grad(lambda: (ad.normalize_rows(t, self.EPS) * w).sum().item(), t.data)
        assert np.allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_degenerate_rows_are_e1_with_no_gradient(self):
        x = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.5, 0.0], [3.0, 4.0, 0.0]])
        t = Tensor(x, requires_grad=True)
        out = ad.normalize_rows(t, self.EPS)
        assert np.array_equal(out.data[:3], np.tile([1.0, 0.0, 0.0], (3, 1)))
        assert np.array_equal(out.data[3], [0.6, 0.8, 0.0])
        (out * Tensor(np.arange(12.0).reshape(4, 3) + 1.0)).sum().backward()
        assert np.all(t.grad[:3] == 0.0)
        assert np.all(t.grad[3] != 0.0)

    @settings(max_examples=200, deadline=None)
    @given(rows_in_eps(), st.lists(st.sampled_from([1e-12, 1.0, 1e150, 1e200, 1e307]), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_rows_with_a_finite_square_sum_keep_their_bits(self, rows, scales, seed):
        # Rows at 1e200 and beyond overflow the square sum; the rest, in the
        # same matrix, match the unscaled formula bitwise, gradient too.
        rng = np.random.default_rng(seed)
        x = np.concatenate([rows * 1e-12, rng.standard_normal((len(scales), 3)) * np.asarray(scales)[:, None]])
        g = rng.standard_normal(x.shape)
        t = Tensor(x, requires_grad=True)
        out = ad.normalize_rows(t, 1e-12)
        (out * Tensor(g)).sum().backward()
        with np.errstate(over="ignore"):
            finite = np.isfinite((x * x).sum(axis=-1))
        y, gy = x[finite], g[finite]
        u = normalize_rows(y, 1e-12)
        sq = (y * y).sum(axis=-1, keepdims=True)
        grad = np.where(sq > 1e-24, (gy - u * (u * gy).sum(axis=-1, keepdims=True)) / np.sqrt(np.where(sq > 1e-24, sq, 1.0)), 0.0)
        assert np.array_equal(out.data[finite], u)
        assert np.array_equal(t.grad[finite], grad)
        assert np.allclose(np.linalg.norm(out.data[~finite], axis=1), 1.0, rtol=1e-15)

    def test_a_row_whose_square_sum_overflows_gets_unit_norm(self):
        y = np.array([[1.0, 1.0, 0.0], [3.0, -4.0, 0.1], [-2.0, 0.5, 1.0]])
        w = Tensor(np.random.default_rng(12).standard_normal(y.shape))
        t = Tensor(y * 1e200, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.normalize_rows(t, 1e-12)
            (out * w).sum().backward()
        assert np.allclose(out.data, y / np.linalg.norm(y, axis=1, keepdims=True), rtol=1e-15, atol=0)
        # d/dx at x = 1e200 y is 1e-200 times d/dy at y, which differences at step 1e-6 estimate.
        numeric = fd_grad(lambda: (ad.normalize_rows(Tensor(y * 1e200), 1e-12) * w).sum().item(), y)
        assert np.allclose(t.grad * 1e200, numeric, rtol=1e-6, atol=1e-8)

    def test_a_row_with_a_nonfinite_entry_comes_out_nan(self):
        # NaN or inf has no direction: such a row is neither e_1 nor a unit row.
        x = np.array([[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [-np.inf, np.inf, 0.0], [3.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.normalize_rows(Tensor(x), 1e-12).data
        assert np.isnan(out[:3]).all()
        assert np.array_equal(out[3], [0.6, 0.8, 0.0])


@st.composite
def segments(draw):
    """Segment lengths (1 included) and values for a flat softmax."""
    lens = np.asarray(draw(st.lists(st.integers(1, 6), min_size=1, max_size=12)))
    x = draw(hnp.arrays(np.float64, int(lens.sum()), elements=st.floats(-700.0, 700.0)))
    starts = np.cumsum(lens) - lens
    return lens, starts, np.repeat(np.arange(lens.size), lens), x


def padded(lens, x):
    """The (S, max length) block of the segments and its mask."""
    mask = np.arange(lens.max()) < lens[:, None]
    block = np.zeros(mask.shape)
    block[mask] = x
    return block, mask


# Segment lengths for finite-difference checks: one segment of one element,
# one of several, and mixes with length-1 segments between longer ones.
LAYOUTS = [[1], [3], [2, 1, 4], [1, 1, 2, 5, 1]]


class TestSegmentSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(segments())
    def test_equals_masked_softmax_on_the_padded_block(self, case):
        lens, starts, ids, x = case
        block, mask = padded(lens, x)
        ref = masked_softmax(Tensor(block), mask).data[mask]
        assert np.allclose(ad.segment_softmax(Tensor(x), starts, ids).data, ref, rtol=0.0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(segments())
    def test_every_segment_sums_to_one(self, case):
        lens, starts, ids, x = case
        val = ad.segment_softmax(Tensor(x), starts, ids).data
        assert np.all(val >= 0.0)
        assert np.allclose(np.bincount(ids, weights=val), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(val[starts[lens == 1]] == 1.0)

    @pytest.mark.parametrize("lens", LAYOUTS)
    def test_gradient(self, lens):
        lens = np.asarray(lens)
        starts, ids = np.cumsum(lens) - lens, np.repeat(np.arange(lens.size), lens)
        w = Tensor(np.random.default_rng(lens.size).standard_normal(lens.sum()))
        check_op(lambda x: (ad.segment_softmax(x, starts, ids) * w).sum(), (int(lens.sum()),))


class TestSegmentLogsumexp:
    @settings(max_examples=200, deadline=None)
    @given(segments())
    @example((np.array([1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([-700.0, 700.0])))
    def test_equals_masked_logsumexp_on_the_padded_block(self, case):
        lens, starts, ids, x = case
        block, mask = padded(lens, x)
        ref = masked_logsumexp(Tensor(block), mask).data[:, 0]
        val = ad.segment_logsumexp(Tensor(x), starts, ids).data
        assert np.allclose(val, ref[ids], rtol=1e-15, atol=1e-15)
        # A length-1 segment's log-sum-exp is its one element.
        assert np.array_equal(val[starts[lens == 1]], x[starts[lens == 1]])

    @settings(max_examples=100, deadline=None)
    @given(segments(), st.integers(0, 2**32 - 1))
    def test_gradient_equals_the_padded_oracle(self, case, seed):
        lens, starts, ids, x = case
        w = np.random.default_rng(seed).standard_normal(x.size)
        flat = Tensor(x, requires_grad=True)
        (ad.segment_logsumexp(flat, starts, ids) * Tensor(w)).sum().backward()
        block, mask = padded(lens, x)
        padded_x = Tensor(block, requires_grad=True)
        (masked_logsumexp(padded_x, mask) * Tensor(np.bincount(ids, weights=w)[:, None])).sum().backward()
        assert np.allclose(flat.grad, padded_x.grad[mask], rtol=0.0, atol=1e-12 * (1.0 + np.abs(w).sum()))

    @pytest.mark.parametrize("lens", LAYOUTS)
    def test_gradient(self, lens):
        lens = np.asarray(lens)
        starts, ids = np.cumsum(lens) - lens, np.repeat(np.arange(lens.size), lens)
        w = Tensor(np.random.default_rng(lens.size).standard_normal(lens.sum()))
        check_op(lambda x: (ad.segment_logsumexp(x, starts, ids) * w).sum(), (int(lens.sum()),))


class TestSoftmaxFamily:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, (4, 6), elements=st.floats(-700.0, 700.0)),
        hnp.arrays(bool, (4, 6)),
    )
    def test_masked_softmax_rows_sum_to_one(self, x, mask):
        val = masked_softmax(Tensor(x), mask).data
        valid = mask.any(axis=-1)
        assert np.allclose(val[valid].sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(val[~valid] == 0.0)
        assert np.all(val[~mask] == 0.0)

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(6)
        mask = np.array([[True, True, False], [True, True, True]])
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = rng.standard_normal((2, 3))
        out = (masked_softmax(x, mask) * Tensor(w)).sum()
        out.backward()
        numeric = fd_grad(
            lambda: (masked_softmax(x, mask) * Tensor(w)).sum().item(), x.data
        )
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_masked_logsumexp_gradient(self):
        rng = np.random.default_rng(7)
        mask = np.array([[True, False, True, True]])
        x = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        out = masked_logsumexp(x, mask).sum()
        out.backward()
        numeric = fd_grad(lambda: masked_logsumexp(x, mask).sum().item(), x.data)
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_log_softmax_gradient_and_stability(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 4)) + 500.0, requires_grad=True)
        w = rng.standard_normal((3, 4))
        out = (ad.log_softmax(x) * Tensor(w)).sum()
        assert np.all(np.isfinite(out.data))
        out.backward()
        numeric = fd_grad(lambda: (ad.log_softmax(x) * Tensor(w)).sum().item(), x.data)
        assert np.allclose(x.grad, numeric, atol=1e-5)


class TestVmfEntropyOp:
    def test_gradient_matches_fd(self):
        kappa = Tensor(np.array([0.5, 2.0, 10.0, 40.0]), requires_grad=True)
        ad.vmf_entropy(kappa, 8).sum().backward()
        numeric = fd_grad(lambda: ad.vmf_entropy(kappa, 8).sum().item(), kappa.data, h=1e-5)
        assert np.allclose(kappa.grad, numeric, atol=1e-6)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_gradients_accumulate_across_uses(self):
        a = Tensor(2.0, requires_grad=True)
        out = a * a + a
        out.backward()
        assert np.allclose(a.grad, 5.0)

    def test_constants_get_no_gradient(self):
        rng = np.random.default_rng(10)
        p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        consts = [Tensor(rng.standard_normal((3, 3)) + 3.0) for _ in range(9)]
        c = iter(consts)
        out = (
            (p + next(c)) * next(c) + next(c) * p - ad.normalize_rows(p * next(c) + next(c), 1e-12)
            + (p @ next(c)) + (next(c) @ p)
        )
        out = (out * next(c)).relu() - (next(c) - out).softplus()
        out.sum().backward()
        assert p.grad is not None
        assert all(t.grad is None for t in consts)

    def test_diamond_graph(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = a * 3.0
        c = a + b
        (c * c).sum().backward()
        numeric = fd_grad(lambda: (((a + a * 3.0) * (a + a * 3.0)).sum()).item(), a.data)
        assert np.allclose(a.grad, numeric, atol=1e-6)

    def test_backward_releases_every_interior_node(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        hidden = (x @ w).relu()
        loss = ad.normalize_rows(hidden + x, 1e-12).sum()
        interior = weakref.ref(hidden)
        del hidden
        assert interior() is not None  # the graph holds it until backward
        loss.backward()
        gc.collect()
        assert interior() is None
        assert x.grad is not None and w.grad is not None  # leaves keep their gradients

    def test_a_graph_is_differentiated_once(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        first = a.grad
        with pytest.raises(ValueError, match="already differentiated"):
            loss.backward()
        with pytest.raises(ValueError, match="already differentiated"):
            (loss * 2.0).backward()
        assert a.grad is first

    def test_a_forward_over_constants_keeps_no_graph(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((4, 3)))
        hidden = (x @ Tensor(rng.standard_normal((3, 3)))).softplus()
        out = ad.log_softmax(ad.normalize_rows(hidden, 1e-12))
        interior = weakref.ref(hidden)
        del hidden
        gc.collect()
        assert interior() is None and not out.requires_grad
