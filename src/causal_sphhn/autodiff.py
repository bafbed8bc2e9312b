"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-free engine: each operation returns a :class:`Tensor` holding
its value, its parents, and a closure that scatters the output gradient
back to them.  ``backward()`` runs the closures in reverse topological
order.  Everything is float64.

Gradients are never written in place: a gradient array may be a view of
another (a reshape, a transpose, a broadcast) and is stored as it comes,
and accumulation allocates a new sum.  Constants, tensors with
``requires_grad=False``, get no gradient: a closure computes only the
parent gradients that are needed, and a constant's ``.grad`` stays None.

The op set is exactly what the model and its loss call, and
``tests/test_surface.py`` runs every op: broadcast ``+ - *``, (batched)
matmul, reshape, transpose and a slice, sum and mean, exp, relu and
softplus, a row gather (its backward a :class:`ScatterPlan`), scatter by
flat element index, the gathered Gram matrix, an elementwise select, row
normalisation onto the unit sphere, softmax and log-sum-exp over
contiguous segments, log-softmax, and the vMF entropy with its analytic
d/dkappa = -kappa * A'_d(kappa).
"""

from __future__ import annotations

import numpy as np

from . import vmf


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that numpy broadcasting added or stretched."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(p for p in parents if p.requires_grad)
        self._backward = backward if self.requires_grad else None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    # -- graph machinery --------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        out._backward = bwd
        return out

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        out._backward = bwd
        return out

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        src_shape = self.data.shape
        out = Tensor(self.data.reshape(*shape), parents=(self,))
        out._backward = lambda g: self._accumulate(g.reshape(src_shape))
        return out

    def transpose(self, axes):
        inv = np.argsort(axes)
        out = Tensor(self.data.transpose(axes), parents=(self,))
        out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    def __getitem__(self, key: slice):
        """A basic slice along axis 0; backward pads the gradient with zeros."""
        out = Tensor(self.data[key], parents=(self,))

        def bwd(g):
            full = np.zeros_like(self.data)
            full[key] = g
            self._accumulate(full)

        out._backward = bwd
        return out

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = bwd
        return out

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -----------------------------------------

    def exp(self):
        val = np.exp(self.data)
        out = Tensor(val, parents=(self,))
        out._backward = lambda g: self._accumulate(g * val)
        return out

    def relu(self):
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, 0.0), parents=(self,))
        out._backward = lambda g: self._accumulate(g * mask)
        return out

    def softplus(self):
        val = np.logaddexp(0.0, self.data)
        out = Tensor(val, parents=(self,))
        sig = _sigmoid(self.data)
        out._backward = lambda g: self._accumulate(g * sig)
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- indexing ----------------------------------------------------------------


class ScatterPlan:
    """Row scatter-add over a fixed index array: ``apply(src)[i]`` sums the
    rows ``src[p]`` with ``idx[p] == i``, in order of p."""

    def __init__(self, idx: np.ndarray, num_rows: int):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.num_rows = num_rows

    def apply(self, src: np.ndarray) -> np.ndarray:
        out = np.zeros((self.num_rows,) + src.shape[1:])
        np.add.at(out, self.idx, src)
        return out


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """x[idx] along axis 0; idx is a constant integer array."""
    idx = np.asarray(idx)
    out = Tensor(x.data[idx], parents=(x,))
    plan = ScatterPlan(idx.reshape(-1), x.data.shape[0])
    out._backward = lambda g: x._accumulate(plan.apply(g.reshape(-1, *g.shape[idx.ndim :])))
    return out


def scatter_flat(src: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """1-D array of length size whose element k sums src.ravel()[p] over idx[p] == k; backward is g[idx]."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(np.bincount(idx, weights=src.data.reshape(-1), minlength=size), parents=(src,))
    out._backward = lambda g: src._accumulate(g[idx].reshape(src.data.shape))
    return out


def gram_gather(h: Tensor, cells: np.ndarray, cells_t: np.ndarray) -> Tensor:
    """(h @ h.T).ravel()[cells]: inner products of the row pairs cells names.

    ``cells_t`` is ``cells`` transposed: cell i*N + j of the (N, N) Gram
    matrix listed as j*N + i.  Backward forms the symmetric dG, the
    gradient of G plus its transpose, with one bincount over both index
    arrays, and returns the single product dG @ h.
    """
    n = h.data.shape[0]
    out = Tensor((h.data @ h.data.T).reshape(-1)[cells], parents=(h,))

    def bwd(g):
        sym = np.bincount(
            np.concatenate([cells, cells_t]), weights=np.concatenate([g, g]), minlength=n * n
        )
        h._accumulate(sym.reshape(n, n) @ h.data)

    out._backward = bwd
    return out


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean condition."""
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.where(cond, a.data, b.data), parents=(a, b))

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.where(cond, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, g))

    out._backward = bwd
    return out


def normalize_rows(t: Tensor, eps: float) -> Tensor:
    """Each row of a 2-D t scaled to unit norm; a row with norm <= eps becomes e_1.

    Backward projects g off the output row u and divides by the norm,
    (g - u (u . g)) / |t|; a degenerate row gets no gradient.
    """
    sq = (t.data * t.data).sum(axis=-1, keepdims=True)
    safe = sq > eps**2
    norm = np.sqrt(np.where(safe, sq, 1.0))
    e1 = np.zeros((1, t.data.shape[-1]))
    e1[0, 0] = 1.0
    u = np.where(safe, t.data / norm, e1)
    out = Tensor(u, parents=(t,))

    def bwd(g):
        t._accumulate(np.where(safe, (g - u * (u * g).sum(axis=-1, keepdims=True)) / norm, 0.0))

    out._backward = bwd
    return out


# -- softmax-family ops -------------------------------------------------------


def segment_softmax(x: Tensor, starts: np.ndarray, ids: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment of a 1-D tensor.

    Segment s runs from ``starts[s]`` to the next start (the last one to
    the end); ``ids[p]`` is the segment of element p.  Starts must be
    strictly increasing from 0, so no segment is empty.
    """
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - mx[ids])
    val = e / np.add.reduceat(e, starts)[ids]
    out = Tensor(val, parents=(x,))

    def bwd(g):
        x._accumulate((g - np.add.reduceat(g * val, starts)[ids]) * val)

    out._backward = bwd
    return out


def segment_logsumexp(x: Tensor, starts: np.ndarray, ids: np.ndarray) -> Tensor:
    """The log-sum-exp of each element's segment (as in :func:`segment_softmax`), shaped like x.

    Backward sums g over each segment and spreads the sum by the softmax.
    """
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - mx[ids])
    s = np.add.reduceat(e, starts)
    out = Tensor((mx + np.log(s))[ids], parents=(x,))
    soft = e / s[ids]
    out._backward = lambda g: x._accumulate(np.add.reduceat(g, starts)[ids] * soft)
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis (numerically stable)."""
    mx = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - mx
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    val = shifted - lse
    out = Tensor(val, parents=(x,))
    soft = np.exp(val)

    def bwd(g):
        x._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

    out._backward = bwd
    return out


# The entropy objective is log-unbounded below in kappa; past this point the
# op saturates (constant value, zero gradient) so adaptive optimizers cannot
# push concentrations into overflow.  Healthy training stays far below it.
VMF_ENTROPY_KAPPA_CAP = 1e4


def vmf_entropy(kappa: Tensor, dim: int) -> Tensor:
    """Elementwise vMF entropy of concentrations, differentiable in kappa."""
    capped = np.minimum(kappa.data, VMF_ENTROPY_KAPPA_CAP)
    val = vmf.entropy_from_kappa(dim, capped)
    out = Tensor(val, parents=(kappa,))

    def bwd(g):
        dh = -capped * vmf.mean_resultant_deriv(dim, capped)
        kappa._accumulate(g * dh * (kappa.data < VMF_ENTROPY_KAPPA_CAP))

    out._backward = bwd
    return out
