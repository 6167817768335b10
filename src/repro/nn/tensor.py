"""A small reverse-mode autodiff engine on top of NumPy.

The paper trains its models (TransE, CGGNN, the shared policy networks) with
PyTorch.  PyTorch is not available in this environment, so this module provides
the minimal-but-complete substrate the rest of the repository needs: a
:class:`Tensor` wrapping an ``ndarray`` with a gradient slot and a backward
graph, plus the arithmetic, matrix, activation, reduction, indexing and shaping
operations used by the models.

The engine is intentionally simple: every operation records a local backward
closure on the output tensor; :meth:`Tensor.backward` runs a topological sort
over the recorded graph and accumulates gradients.  Broadcasting is supported
for elementwise binary operations via :func:`_unbroadcast`.

A backward closure returns ``None`` for a parent that does not require a
gradient (a mask, a constant table), so no gradient is ever computed for it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 ndarray (without copying when possible)."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        If ``True`` the tensor participates in gradient accumulation.
    parents:
        The tensors this one was computed from (internal use).
    backward_fn:
        Closure that, given the output gradient, returns one gradient per
        parent, or ``None`` for a parent that needs none (internal use).
    name:
        Optional label used only for debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], Tuple[np.ndarray, ...]]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
    ) -> "Tensor":
        requires_grad = any(p.requires_grad for p in parents)
        if not requires_grad:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)

    # ------------------------------------------------------------------ #
    # elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data + other_t.data

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            return (_unbroadcast(grad, self.shape) if self.requires_grad else None,
                    _unbroadcast(grad, other_t.shape) if other_t.requires_grad else None)

        return Tensor._make(out, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data - other_t.data

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            return (_unbroadcast(grad, self.shape) if self.requires_grad else None,
                    _unbroadcast(-grad, other_t.shape) if other_t.requires_grad else None)

        return Tensor._make(out, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data * other_t.data

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            return (
                _unbroadcast(grad * other_t.data, self.shape) if self.requires_grad else None,
                _unbroadcast(grad * self.data, other_t.shape) if other_t.requires_grad else None,
            )

        return Tensor._make(out, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self.data / other_t.data

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            return (
                _unbroadcast(grad / other_t.data, self.shape) if self.requires_grad else None,
                _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
                if other_t.requires_grad else None,
            )

        return Tensor._make(out, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out = self.data**exponent

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------ #
    # matrix operations
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other_t.data
        if a.ndim > 2 and b.ndim == 2:
            return self._stacked_matmul(other_t)
        out = a @ b

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            if a.ndim == 1 and b.ndim == 2:
                grad_a = grad @ b.T
                grad_b = np.outer(a, grad)
            elif a.ndim == 2 and b.ndim == 1:
                grad_a = np.outer(grad, b)
                grad_b = a.T @ grad
            elif a.ndim == 1 and b.ndim == 1:
                grad_a = grad * b
                grad_b = grad * a
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                grad_a = _unbroadcast(grad_a, a.shape)
                grad_b = _unbroadcast(grad_b, b.shape)
            return (grad_a if self.requires_grad else None,
                    grad_b if other_t.requires_grad else None)

        return Tensor._make(out, (self, other_t), backward)

    __matmul__ = matmul

    def _stacked_matmul(self, other: "Tensor") -> "Tensor":
        """``(..., k) @ (k, m)`` as one 2-D GEMM over the flattened leading axes.

        A batched matmul would run one small product per leading index and,
        backward, build a ``(..., k, m)`` weight gradient only to sum it.
        """
        a, b = self.data, other.data
        lead = a.shape[:-1]
        flat = a.reshape(-1, a.shape[-1])
        out = (flat @ b).reshape(*lead, b.shape[-1])

        def backward(grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
            grad_flat = grad.reshape(-1, b.shape[-1])
            return (
                (grad_flat @ b.T).reshape(a.shape) if self.requires_grad else None,
                flat.T @ grad_flat if other.requires_grad else None,
            )

        return Tensor._make(out, (self, other), backward)

    def transpose(self) -> "Tensor":
        out = self.data.T

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad.T,)

        return Tensor._make(out, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mimic ndarray API
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad.reshape(original),)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis)
            return (np.broadcast_to(grad_arr, self.shape).copy(),)

        return Tensor._make(np.asarray(out), (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # indexing / gathering
    # ------------------------------------------------------------------ #
    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(np.asarray(out), (self,), backward)

    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (first axis) by integer ``indices`` with scatter-add backward.

        The backward scatter is one ``np.bincount`` over the flattened
        ``row * width + column`` positions; it adds the contributions to each
        element in the order ``np.add.at`` would, so the sums are bit-equal.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out = self.data[idx]

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            rows = self.shape[0]
            width = self.size // rows if rows else 0
            flat_rows = idx.reshape(-1)
            flat_rows = np.where(flat_rows < 0, flat_rows + rows, flat_rows)
            positions = (flat_rows[:, None] * width + np.arange(width)).reshape(-1)
            full = np.bincount(positions, weights=grad.reshape(-1), minlength=self.size)
            return (full.reshape(self.shape),)

        return Tensor._make(out, (self,), backward)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to ``shape`` as a read-only view; backward sums it back."""
        out = np.broadcast_to(self.data, shape)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (_unbroadcast(grad, self.shape),)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------ #
    # activations and pointwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * out,)

        return Tensor._make(out, (self,), backward)

    def log(self) -> "Tensor":
        out = np.log(self.data)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad / self.data,)

        return Tensor._make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * out * (1.0 - out),)

        return Tensor._make(out, (self,), backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * (1.0 - out**2),)

        return Tensor._make(out, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self.data * mask

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * mask,)

        return Tensor._make(out, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * np.where(mask, 1.0, negative_slope),)

        return Tensor._make(out, (self,), backward)

    def clip(self, min_value: float, max_value: float) -> "Tensor":
        out = np.clip(self.data, min_value, max_value)
        mask = (self.data >= min_value) & (self.data <= max_value)

        def backward(grad: np.ndarray) -> Tuple[np.ndarray]:
            return (grad * mask,)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).  Gradients
        accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            if id(node) in visited:
                return
            visited.add(id(node))
            while stack:
                current, parents_iter = stack[-1]
                advanced = False
                for parent in parents_iter:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.get(id(node))
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = np.asarray(parent_grad, dtype=np.float64)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]

    def backward(grad: np.ndarray) -> Tuple[np.ndarray, ...]:
        pieces = []
        start = 0
        for size in sizes:
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, start + size)
            pieces.append(grad[tuple(slicer)])
            start += size
        return tuple(pieces)

    return Tensor._make(out, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    arrays = [t.data for t in tensors]
    out = np.stack(arrays, axis=axis)

    def backward(grad: np.ndarray) -> Tuple[np.ndarray, ...]:
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out, tuple(tensors), backward)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """Return a tensor of zeros."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """Return a tensor of ones."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
