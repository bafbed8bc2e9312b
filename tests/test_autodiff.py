import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import autodiff as ad
from causal_sphhn.autodiff import ScatterPlan, Tensor
from reference_ops import gather_flat, masked_logsumexp, masked_softmax, normalize_rows, scatter_rows


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
        check_op(lambda a: a.sum(axis=0).mean(), (3, 5))
        check_op(lambda a: a.reshape(6).sum(), (2, 3))
        check_op(lambda a: a.transpose((1, 0)).sum(axis=1).mean(), (3, 4))

    def test_nonlinearities(self):
        check_op(lambda a: a.exp().sum(), (4,))
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

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(bool, st.integers(0, 300)), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_flat_gather_scatter_adjoint(self, mask, size, seed):
        # The kernel's pattern: gather the slots inside the mask from an
        # (E, K, K)-like block, scatter them onto cells that may repeat.
        slots = np.flatnonzero(mask)
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, size, slots.size)  # repeats whenever slots outnumber cells
        x = Tensor(rng.standard_normal(mask.size), requires_grad=True)
        b = rng.standard_normal(size)
        a = rng.standard_normal(slots.size)
        lhs = np.dot(ad.scatter_flat(Tensor(a), cells, size).data, b)
        assert abs(lhs - np.dot(a, gather_flat(Tensor(b), cells).data)) <= 1e-12 * (1.0 + np.abs(a).sum())
        out = ad.scatter_flat(gather_flat(x, slots), cells, size)
        (out * Tensor(b)).sum().backward()
        expected = ad.scatter_flat(gather_flat(Tensor(b), cells), slots, mask.size).data
        assert np.allclose(x.grad, expected, rtol=0.0, atol=1e-12 * (1.0 + np.abs(b).sum()))
        assert np.all(x.grad[~mask] == 0.0)
        ref = np.zeros(size)
        np.add.at(ref, cells, x.data[slots])
        assert np.allclose(out.data, ref, rtol=0.0, atol=1e-12 * (1.0 + np.abs(x.data).sum()))

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

    def test_where_routes_gradients(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        (ad.where(cond, a, b) * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
        assert np.array_equal(a.grad, [1.0, 0.0, 3.0])
        assert np.array_equal(b.grad, [0.0, 2.0, 0.0])


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
        out = ad.where(p.data > 0, out, next(c)) + ad.where(p.data > 0, next(c), out)
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
