"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-free engine: each operation returns a :class:`Tensor` holding
its value, its parents, and a closure that scatters the output gradient
back to them.  ``backward()`` runs the closures in reverse topological
order.  Everything is float64.

The op set is exactly what the spherical hypergraph model needs: broadcast
arithmetic, (batched) matmul, reductions, gather/scatter by row index and
by flat element index, masked softmax/logsumexp, and the vMF entropy with
its analytic d/dkappa = -kappa * A'_d(kappa).
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
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"

    # -- graph machinery --------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def bwd(g):
            self._accumulate(g)
            other._accumulate(g)

        out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def bwd(g):
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, parents=(self, other))

        def bwd(g):
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data * other.data))

        out._backward = bwd
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**exponent, parents=(self,))
        out._backward = lambda g: self._accumulate(
            g * exponent * self.data ** (exponent - 1)
        )
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def bwd(g):
            self._accumulate(g @ np.swapaxes(other.data, -1, -2))
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

    def log(self):
        out = Tensor(np.log(self.data), parents=(self,))
        out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def sqrt(self):
        val = np.sqrt(self.data)
        out = Tensor(val, parents=(self,))
        out._backward = lambda g: self._accumulate(g * 0.5 / val)
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

    def sigmoid(self):
        val = _sigmoid(self.data)
        out = Tensor(val, parents=(self,))
        out._backward = lambda g: self._accumulate(g * val * (1.0 - val))
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
    """Precomputed segment-sum over a fixed row-index array.

    ``apply(src)`` returns ``out`` with ``out[i]`` the sum of the rows
    ``src[p]`` whose ``idx[p] == i``, over the positions ``p`` inside the
    optional slot ``mask``; positions outside it (padding) are ignored, so
    their index value and source rows never matter.

    Sorting the valid positions by index once lets every scatter-add run as
    a fancy write into a (targets x max-multiplicity) padded buffer followed
    by one axis sum, which is far faster than ``np.ufunc.at`` and
    deterministic (fixed summation order).  When the largest multiplicity
    would make that buffer more than 8x the valid rows (and over 4096 rows),
    the plan sums with ``np.add.reduceat`` instead.
    """

    def __init__(self, idx: np.ndarray, num_rows: int, mask: np.ndarray | None = None):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("index array must be 1-D")
        self.idx = idx
        self.num_rows = num_rows
        self.mask = None if mask is None else np.asarray(mask, dtype=bool).reshape(idx.shape)
        valid = np.arange(idx.size) if mask is None else np.flatnonzero(self.mask)
        self.order = valid[np.argsort(idx[valid], kind="stable")]
        sorted_idx = idx[self.order]
        self.starts = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
        seg_lens = np.diff(np.append(self.starts, sorted_idx.size))
        self.max_deg = int(seg_lens.max(initial=0))
        self.padded = self.max_deg * num_rows <= max(8 * sorted_idx.size, 4096)
        if self.padded:
            rank = np.arange(sorted_idx.size) - np.repeat(self.starts, seg_lens)
            self.slots = sorted_idx * self.max_deg + rank
        else:
            self.targets = sorted_idx[self.starts]

    def apply(self, src: np.ndarray) -> np.ndarray:
        tail = src.shape[1:]
        if self.padded:
            buf = np.zeros((self.num_rows * self.max_deg,) + tail)
            buf[self.slots] = src[self.order]
            return buf.reshape((self.num_rows, self.max_deg) + tail).sum(axis=1)
        out = np.zeros((self.num_rows,) + tail)
        out[self.targets] = np.add.reduceat(src[self.order], self.starts, axis=0)
        return out

    def gather(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`apply`: g[idx], zero at masked-out positions."""
        out = g[self.idx]
        if self.mask is not None:
            out[~self.mask] = 0.0
        return out


def gather_rows(x: Tensor, idx: np.ndarray, plan: ScatterPlan | None = None) -> Tensor:
    """x[idx] along axis 0; idx is a constant integer array.

    With a masked plan, the rows gathered at masked-out slots get no
    gradient: callers must not let them reach the output.
    """
    idx = np.asarray(idx)
    out = Tensor(x.data[idx], parents=(x,))
    if plan is None:
        plan = ScatterPlan(idx.reshape(-1), x.data.shape[0])

    def bwd(g):
        x._accumulate(plan.apply(g.reshape(-1, *g.shape[idx.ndim :])))

    out._backward = bwd
    return out


def scatter_add_rows(src: Tensor, plan: ScatterPlan) -> Tensor:
    """out[i] = sum of the src rows the plan sends to row i."""
    out = Tensor(plan.apply(src.data), parents=(src,))
    out._backward = lambda g: src._accumulate(plan.gather(g))
    return out


def gather_flat(x: Tensor, idx: np.ndarray) -> Tensor:
    """x.ravel()[idx], shaped like idx; idx may repeat an element.

    Backward sums the gradients of repeated elements with one bincount.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data.reshape(-1)[idx], parents=(x,))

    def bwd(g):
        flat = np.bincount(idx.reshape(-1), weights=g.reshape(-1), minlength=x.data.size)
        x._accumulate(flat.reshape(x.data.shape))

    out._backward = bwd
    return out


def scatter_flat(src: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """1-D array of length size whose element k sums src.ravel()[p] over idx[p] == k.

    The adjoint of :func:`gather_flat`: backward is g[idx].
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(np.bincount(idx, weights=src.data.reshape(-1), minlength=size), parents=(src,))
    out._backward = lambda g: src._accumulate(g[idx].reshape(src.data.shape))
    return out


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean condition."""
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.where(cond, a.data, b.data), parents=(a, b))

    def bwd(g):
        a._accumulate(np.where(cond, g, 0.0))
        b._accumulate(np.where(cond, 0.0, g))

    out._backward = bwd
    return out


# -- softmax-family ops -------------------------------------------------------


def masked_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to mask; masked entries get 0.

    Rows with no valid entry yield all zeros.
    """
    neg = np.where(mask, x.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.where(mask, np.exp(neg - mx), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    val = e / np.where(denom == 0.0, 1.0, denom)
    out = Tensor(val, parents=(x,))

    def bwd(g):
        inner = (g * val).sum(axis=-1, keepdims=True)
        x._accumulate((g - inner) * val)

    out._backward = bwd
    return out


def masked_logsumexp(x: Tensor, mask: np.ndarray) -> Tensor:
    """logsumexp over the last axis restricted to mask, keepdims."""
    neg = np.where(mask, x.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    e = np.where(mask, np.exp(neg - mx), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    val = mx + np.log(np.where(s == 0.0, 1.0, s))
    out = Tensor(val, parents=(x,))
    soft = e / np.where(s == 0.0, 1.0, s)
    out._backward = lambda g: x._accumulate(g * soft)
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
