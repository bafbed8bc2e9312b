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
An op whose inputs are all constants keeps no closure and no parents, so
a forward pass over constants builds no graph.

Lifetime: ``backward()`` consumes the graph.  Once a node's closure has
run, the node drops its gradient, its closure and its parents, so each
intermediate value is freed as soon as the last node that reads it has
been differentiated, and the root no longer keeps the graph alive.  Only
leaves, tensors created with ``requires_grad=True``, keep ``.grad``.  A
graph is differentiated once: a second ``backward()`` through a spent
node raises ``ValueError``.

The op set is exactly what the model and its loss call, and
``tests/test_surface.py`` runs every op: broadcast ``+ - *``, (batched)
matmul, reshape, transpose and a slice, sum, relu and softplus, a row
gather (its backward a :class:`ScatterPlan`), a row put, a
scatter-then-matmul whose dense matrix forward frees and backward
rebuilds, the gathered Gram matrix, row normalisation onto the unit
sphere, softmax and log-sum-exp over contiguous segments, log-softmax,
and the vMF entropy with its analytic d/dkappa = -kappa * A'_d(kappa),
which saturates above ``vmf.KAPPA_MAX``.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

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
        """Accumulate d self / d leaf into the ``.grad`` of every leaf that requires grad.

        This consumes the graph: each interior node drops its gradient, its
        closure and its parents once its closure has run, so a graph can be
        differentiated once, and a second call raises ``ValueError``.
        """
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
        # Popping from the end walks the order in reverse, and the loop keeps
        # no reference to a node it has finished with.
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor(self.data + other.data, parents=(self, other), backward=bwd)

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), backward=lambda g: self._accumulate(-g))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor(self.data * other.data, parents=(self, other), backward=bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        return Tensor(self.data @ other.data, parents=(self, other), backward=bwd)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        src_shape = self.data.shape
        return Tensor(
            self.data.reshape(*shape), parents=(self,), backward=lambda g: self._accumulate(g.reshape(src_shape))
        )

    def transpose(self, axes):
        inv = np.argsort(axes)
        return Tensor(self.data.transpose(axes), parents=(self,), backward=lambda g: self._accumulate(g.transpose(inv)))

    def __getitem__(self, key: slice):
        """A basic slice along axis 0; backward pads the gradient with zeros."""

        def bwd(g):
            full = np.zeros_like(self.data)
            full[key] = g
            self._accumulate(full)

        return Tensor(self.data[key], parents=(self,), backward=bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        """The sum of every entry, a scalar."""
        return Tensor(self.data.sum(), parents=(self,),
                      backward=lambda g: self._accumulate(np.broadcast_to(g, self.data.shape)))

    # -- elementwise nonlinearities -----------------------------------------

    def relu(self):
        mask = self.data > 0
        return Tensor(np.where(mask, self.data, 0.0), parents=(self,), backward=lambda g: self._accumulate(g * mask))

    def softplus(self):
        sig = _sigmoid(self.data)
        return Tensor(np.logaddexp(0.0, self.data), parents=(self,), backward=lambda g: self._accumulate(g * sig))


def _spent(g: np.ndarray) -> None:
    """The closure of a node whose graph ``backward()`` has consumed."""
    raise ValueError("this graph was already differentiated; backward() runs once per graph")


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
    plan = ScatterPlan(idx.reshape(-1), x.data.shape[0])
    return Tensor(
        x.data[idx], parents=(x,), backward=lambda g: x._accumulate(plan.apply(g.reshape(-1, *g.shape[idx.ndim :])))
    )


def put_rows(x: Tensor, rows: np.ndarray, src: Tensor) -> Tensor:
    """x with row ``rows[r]`` replaced by ``src[r]``, for distinct constant rows;
    backward gives x the gradient with those rows zeroed, and src ``g[rows]``."""

    def put(a: np.ndarray, value) -> np.ndarray:
        a = a.copy()
        a[rows] = value
        return a

    def bwd(g):
        if x.requires_grad:
            x._accumulate(put(g, 0.0))
        if src.requires_grad:
            src._accumulate(g[rows])

    return Tensor(put(x.data, src.data), parents=(x, src), backward=bwd)


def scatter_matmul(w: Tensor, h: Tensor, cells: np.ndarray, rows: int) -> Tensor:
    """A @ h, where A is the (rows, N) matrix whose flat cell k sums w over cells == k.

    A is a transient: forward frees it once the product is taken, and
    backward gathers dw = (g h^T).ravel()[cells] from a product it frees,
    then rebuilds A from ``w`` for dh = A^T g.  So the graph keeps ``w``
    and ``h`` but no dense (rows, N) array.
    """
    n = h.data.shape[0]

    def dense() -> np.ndarray:
        return np.bincount(cells, weights=w.data, minlength=rows * n).reshape(rows, n)

    def bwd(g):
        if w.requires_grad:
            w._accumulate((g @ h.data.T).reshape(-1)[cells])
        if h.requires_grad:
            h._accumulate(dense().T @ g)

    return Tensor(dense() @ h.data, parents=(w, h), backward=bwd)


def gram_gather(h: Tensor, cells: np.ndarray) -> Tensor:
    """(h @ h.T).ravel()[cells]: inner products of the row pairs cells names.

    Backward forms the symmetric dG, the gradient of G plus its transpose,
    with one bincount over the cells and their transposes (cell i*N + j
    of the (N, N) Gram matrix as j*N + i), and returns the single product
    dG @ h.
    """
    n = h.data.shape[0]

    def bwd(g):
        cells_t = (cells % n) * n + cells // n
        sym = np.bincount(np.concatenate([cells, cells_t]), weights=np.concatenate([g, g]), minlength=n * n)
        h._accumulate(sym.reshape(n, n) @ h.data)

    return Tensor((h.data @ h.data.T).reshape(-1)[cells], parents=(h,), backward=bwd)


def normalize_rows(t: Tensor, eps: float) -> Tensor:
    """Each row of a 2-D t scaled to unit norm; a row with norm <= eps becomes e_1.

    A finite row whose square sum overflows is first divided by its largest
    |entry|, so it too comes out unit norm; every other row is computed
    without that division, bit for bit.  A row with a NaN or inf entry has
    no direction and comes out NaN: it is neither a unit row nor e_1, and a
    caller that must not see one checks its input.

    Backward projects g off the output row u and divides by the norm,
    (g - u (u . g)) / |t|; a degenerate row gets no gradient.
    """
    x = t.data
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        sq = (x * x).sum(axis=-1, keepdims=True)
    scale = None
    over = np.isinf(sq)
    if over.any():
        scale = np.where(over, np.abs(x).max(axis=-1, keepdims=True), 1.0)
        with np.errstate(invalid="ignore"):  # inf / inf: a row with an inf entry becomes NaN
            x = x / scale
        sq = np.where(over, (x * x).sum(axis=-1, keepdims=True), sq)
    safe = ~(sq <= eps**2)  # NaN is not degenerate: a NaN row stays NaN
    norm = np.sqrt(np.where(safe, sq, 1.0))
    e1 = np.zeros((1, t.data.shape[-1]))
    e1[0, 0] = 1.0
    u = np.where(safe, x / norm, e1)

    def bwd(g):
        grad = np.where(safe, (g - u * (u * g).sum(axis=-1, keepdims=True)) / norm, 0.0)
        t._accumulate(grad if scale is None else grad / scale)

    return Tensor(u, parents=(t,), backward=bwd)


# -- softmax-family ops -------------------------------------------------------


def segment_softmax(x: Tensor, starts: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment of a 1-D tensor.

    Segment s runs from ``starts[s]`` to the next start (the last one to
    the end): starts rise strictly from 0, and no segment is empty.  Each
    segment's values reach its elements by ``np.repeat`` over its length,
    so starts that do not begin at 0 or that decrease raise ValueError.
    """
    lens = np.diff(starts, append=x.data.size)
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - np.repeat(mx, lens))
    val = e / np.repeat(np.add.reduceat(e, starts), lens)

    def bwd(g):
        x._accumulate((g - np.repeat(np.add.reduceat(g * val, starts), lens)) * val)

    return Tensor(val, parents=(x,), backward=bwd)


def segment_logsumexp(x: Tensor, starts: np.ndarray) -> Tensor:
    """The log-sum-exp of each element's segment (as in :func:`segment_softmax`), shaped like x.

    Backward sums g over each segment and spreads the sum by the softmax.
    """
    lens = np.diff(starts, append=x.data.size)
    mx = np.maximum.reduceat(x.data, starts)
    e = np.exp(x.data - np.repeat(mx, lens))
    s = np.add.reduceat(e, starts)
    soft = e / np.repeat(s, lens)
    return Tensor(
        np.repeat(mx + np.log(s), lens), parents=(x,),
        backward=lambda g: x._accumulate(np.repeat(np.add.reduceat(g, starts), lens) * soft),
    )


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis (numerically stable)."""
    mx = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - mx
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    val = shifted - lse
    soft = np.exp(val)
    return Tensor(val, parents=(x,), backward=lambda g: x._accumulate(g - soft * g.sum(axis=-1, keepdims=True)))


def vmf_entropy(kappa: Tensor, dim: int) -> Tensor:
    """Elementwise vMF entropy of concentrations, differentiable in kappa.

    The entropy objective is log-unbounded below in kappa, so above
    ``vmf.KAPPA_MAX`` the op saturates, with value H(KAPPA_MAX) and zero
    gradient, and adaptive optimizers cannot push concentrations into
    overflow.  Healthy training stays far below the bound.
    """
    capped = np.minimum(kappa.data, vmf.KAPPA_MAX)

    def bwd(g):
        dh = -capped * vmf.mean_resultant_deriv(dim, capped)
        kappa._accumulate(g * dh * (kappa.data < vmf.KAPPA_MAX))

    return Tensor(vmf.entropy_from_kappa(dim, capped), parents=(kappa,), backward=bwd)
