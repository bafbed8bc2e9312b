import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causal_sphhn import autodiff as ad
from causal_sphhn.autodiff import ScatterPlan, Tensor


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
def masked_scatter_inputs(draw):
    """Row count, index array, slot mask and source rows for a ScatterPlan.

    Half of the indices may hit one hot row, so large row counts push the
    plan onto its reduceat path; masked-out source rows hold values too.
    """
    n = draw(st.integers(1, 3000))
    size = draw(st.integers(0, 300))
    hot = draw(st.integers(0, n - 1))
    idx = draw(hnp.arrays(np.int64, size, elements=st.just(hot) | st.integers(0, n - 1)))
    mask = draw(hnp.arrays(bool, size))
    src = draw(hnp.arrays(np.float64, (size, 2), elements=st.floats(-1e3, 1e3)))
    return n, idx, mask, src


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

    def test_div_pow(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.random((3, 3)) + 1.0, requires_grad=True)
        b = Tensor(rng.random((3,)) + 1.0, requires_grad=True)
        out = (a / b + a**2).sum()
        out.backward()
        for t, current in ((a, a), (b, b)):
            numeric = fd_grad(lambda: ((a / b + a**2).sum()).item(), t.data)
            assert np.allclose(t.grad, numeric, atol=1e-6)

    def test_matmul_2d_and_3d(self):
        check_op(lambda a, b: (a @ b).sum(), (4, 3), (3, 5))
        check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 3))

    def test_reductions_and_reshape(self):
        check_op(lambda a: a.sum(axis=0).mean(), (3, 5))
        check_op(lambda a: a.reshape(6).sum(), (2, 3))
        check_op(lambda a: a.transpose((1, 0)).sum(axis=1).mean(), (3, 4))

    def test_nonlinearities(self):
        check_op(lambda a: a.exp().sum(), (4,))
        check_op(lambda a: (a * a + 1.0).log().sum(), (4,))
        check_op(lambda a: (a * a + 0.5).sqrt().sum(), (4,))
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

    def test_scatter_add(self):
        idx = np.array([1, 0, 1, 3])
        rng = np.random.default_rng(3)
        src = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = rng.standard_normal((5, 3))
        plan = ScatterPlan(idx, 5)
        out = (ad.scatter_add_rows(src, plan) * Tensor(w)).sum()
        out.backward()
        numeric = fd_grad(lambda: (ad.scatter_add_rows(src, plan) * Tensor(w)).sum().item(), src.data)
        assert np.allclose(src.grad, numeric, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(masked_scatter_inputs())
    @example((3000, np.zeros(40, dtype=np.int64), np.ones(40, dtype=bool), np.ones((40, 2))))
    def test_scatter_plan_matches_add_at(self, case):
        n, idx, mask, src = case
        ref = np.zeros((n, 2))
        np.add.at(ref, idx[mask], src[mask])
        tol = 1e-12 * (1.0 + np.abs(src).sum())
        assert np.allclose(ScatterPlan(idx, n, mask).apply(src), ref, rtol=0.0, atol=tol)
        if mask.all():
            assert np.allclose(ScatterPlan(idx, n).apply(src), ref, rtol=0.0, atol=tol)

    @settings(max_examples=200, deadline=None)
    @given(masked_scatter_inputs(), st.integers(0, 2**32 - 1))
    def test_gather_scatter_adjoint(self, case, seed):
        n, idx, mask, src = case
        plan = ScatterPlan(idx, n, mask)
        x = np.random.default_rng(seed).standard_normal((n, 2))
        lhs = np.sum(plan.gather(x) * src)
        rhs = np.sum(x * plan.apply(src))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(src).sum())
        assert np.all(plan.gather(x)[~mask] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(masked_scatter_inputs(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_flat_gather_scatter_adjoint(self, case, size, seed):
        # The kernel's pattern: gather the slots inside the mask from an
        # (E, K, K)-like block, scatter them onto cells that may repeat.
        _, _, mask, _ = case
        slots = np.flatnonzero(mask)
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, size, slots.size)  # repeats whenever slots outnumber cells
        x = Tensor(rng.standard_normal(mask.size), requires_grad=True)
        b = rng.standard_normal(size)
        a = rng.standard_normal(slots.size)
        lhs = np.dot(ad.scatter_flat(Tensor(a), cells, size).data, b)
        assert abs(lhs - np.dot(a, ad.gather_flat(Tensor(b), cells).data)) <= 1e-12 * (1.0 + np.abs(a).sum())
        out = ad.scatter_flat(ad.gather_flat(x, slots), cells, size)
        (out * Tensor(b)).sum().backward()
        expected = ad.scatter_flat(ad.gather_flat(Tensor(b), cells), slots, mask.size).data
        assert np.allclose(x.grad, expected, rtol=0.0, atol=1e-12 * (1.0 + np.abs(b).sum()))
        assert np.all(x.grad[~mask] == 0.0)
        ref = np.zeros(size)
        np.add.at(ref, cells, x.data[slots])
        assert np.allclose(out.data, ref, rtol=0.0, atol=1e-12 * (1.0 + np.abs(x.data).sum()))

    def test_where_routes_gradients(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        (ad.where(cond, a, b) * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
        assert np.array_equal(a.grad, [1.0, 0.0, 3.0])
        assert np.array_equal(b.grad, [0.0, 2.0, 0.0])


class TestSoftmaxFamily:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, (4, 6), elements=st.floats(-700.0, 700.0)),
        hnp.arrays(bool, (4, 6)),
    )
    def test_masked_softmax_rows_sum_to_one(self, x, mask):
        val = ad.masked_softmax(Tensor(x), mask).data
        valid = mask.any(axis=-1)
        assert np.allclose(val[valid].sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(val[~valid] == 0.0)
        assert np.all(val[~mask] == 0.0)

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(6)
        mask = np.array([[True, True, False], [True, True, True]])
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = rng.standard_normal((2, 3))
        out = (ad.masked_softmax(x, mask) * Tensor(w)).sum()
        out.backward()
        numeric = fd_grad(
            lambda: (ad.masked_softmax(x, mask) * Tensor(w)).sum().item(), x.data
        )
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_masked_logsumexp_gradient(self):
        rng = np.random.default_rng(7)
        mask = np.array([[True, False, True, True]])
        x = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        out = ad.masked_logsumexp(x, mask).sum()
        out.backward()
        numeric = fd_grad(lambda: ad.masked_logsumexp(x, mask).sum().item(), x.data)
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

    def test_diamond_graph(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = a * 3.0
        c = a + b
        (c * c).sum().backward()
        numeric = fd_grad(lambda: (((a + a * 3.0) * (a + a * 3.0)).sum()).item(), a.data)
        assert np.allclose(a.grad, numeric, atol=1e-6)
