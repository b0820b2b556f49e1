"""Routing-matrix linear operator: the solver's hot-path abstraction.

Everything the optimizer does with the routing matrix ``R`` reduces to
three operations: ``ρ = R x`` (effective rates), ``∇f = Rᵀ y``
(gradient assembly) and column-subset restriction (the solver works on
candidate links only).  On backbone-scale instances ``R`` is extremely
sparse — each OD pair crosses a handful of links — so a CSR backend
turns both matvecs from ``O(K·n)`` into ``O(nnz)``.

:class:`RoutingOperator` hides the storage choice behind that
three-method surface.  ``from_matrix`` auto-selects the backend by
density (dense input stays dense below :data:`MIN_AUTO_SPARSE_SIZE`
entries, where CSR overhead beats the savings) and accepts dense
arrays, SciPy sparse matrices or an existing operator, so callers can
thread whatever representation they hold.  Both backends cache a
contiguous transpose the first time ``rmatvec`` is called: on the
dense path ``R.T`` is a strided view with hostile memory access, and
on the sparse path a CSR of the transpose keeps the gradient
assembly row-major.

SciPy is an optional dependency here, and a lazy one: ``scipy.sparse``
is imported only when an operator is built on the CSR backend.  A SciPy
sparse input is recognised through ``sys.modules`` (such a matrix cannot
exist unless SciPy is already loaded), so dense inputs below
:data:`MIN_AUTO_SPARSE_SIZE` entries — the GEANT task among them —
never load SciPy.  Without SciPy every operator silently falls back to
the dense backend, so nothing above this module needs to gate on its
presence.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterable, Sequence

import numpy as np

from ..obs.metrics import METRICS

__all__ = [
    "RoutingOperator",
    "DenseRoutingOperator",
    "SparseRoutingOperator",
    "DENSITY_THRESHOLD",
    "MIN_AUTO_SPARSE_SIZE",
]

#: Densities at or below this auto-select the CSR backend.
DENSITY_THRESHOLD = 0.25

#: Matrices with fewer entries than this stay dense under auto-selection:
#: at that size the constant overhead of CSR indexing outweighs any win.
MIN_AUTO_SPARSE_SIZE = 4096


@functools.cache
def _scipy_sparse():
    """``scipy.sparse``, imported on first use; ``None`` without SciPy."""
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy is present in CI
        return None
    return sparse


class RoutingOperator:
    """A ``K x n`` routing operator with dense and sparse backends.

    Subclasses implement :meth:`matvec`, :meth:`rmatvec`,
    :meth:`restrict_columns` and the storage accessors; use
    :meth:`from_matrix` to construct one with automatic backend
    selection.
    """

    #: ``"dense"`` or ``"sparse"`` — which storage backs the operator.
    backend: str = ""

    @staticmethod
    def from_matrix(
        matrix: "np.ndarray | RoutingOperator | object",
        prefer: str | None = None,
        density_threshold: float = DENSITY_THRESHOLD,
    ) -> "RoutingOperator":
        """Wrap ``matrix`` in the best-suited backend.

        Parameters
        ----------
        matrix:
            2-D dense array, SciPy sparse matrix, or an existing
            operator (returned as-is when its backend already matches).
        prefer:
            Force ``"dense"`` or ``"sparse"`` instead of auto-selecting
            by density.  ``"sparse"`` without SciPy installed raises.
        density_threshold:
            Auto-selection boundary: dense input with
            ``nnz / size <= density_threshold`` (and at least
            :data:`MIN_AUTO_SPARSE_SIZE` entries) goes to CSR.
        """
        if prefer not in (None, "dense", "sparse"):
            raise ValueError("prefer must be None, 'dense' or 'sparse'")
        if prefer == "sparse" and _scipy_sparse() is None:
            raise ValueError("sparse backend requires scipy")

        if isinstance(matrix, RoutingOperator):
            if prefer is None or matrix.backend == prefer:
                return matrix
            if prefer == "dense":
                return DenseRoutingOperator(matrix.toarray())
            return SparseRoutingOperator(matrix.toarray())

        loaded = sys.modules.get("scipy.sparse")
        if loaded is not None and loaded.issparse(matrix):
            if prefer == "dense":
                return DenseRoutingOperator(matrix.toarray())
            return SparseRoutingOperator(matrix)

        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2:
            raise ValueError("routing matrix must be 2-D")
        if prefer == "dense":
            return DenseRoutingOperator(dense)
        if prefer == "sparse":
            return SparseRoutingOperator(dense)
        if (
            dense.size >= MIN_AUTO_SPARSE_SIZE
            and np.count_nonzero(dense) <= density_threshold * dense.size
            and _scipy_sparse() is not None
        ):
            return SparseRoutingOperator(dense)
        return DenseRoutingOperator(dense)

    # -- the hot-path surface -------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``R x`` — effective rates of a sampling-rate vector."""
        raise NotImplementedError

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``Rᵀ y`` — per-link accumulation of per-OD quantities."""
        raise NotImplementedError

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``R X`` for a stack of rate vectors, ``X`` of shape (n, m).

        One BLAS/CSR product evaluates the effective rates of ``m``
        sampling configurations at once — the kernel behind the batched
        objective/gradient evaluation (θ sweeps, candidate ranking,
        family KKT verification).
        """
        raise NotImplementedError

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        """``Rᵀ Y`` for a stack of per-OD vectors, ``Y`` of shape (K, m)."""
        raise NotImplementedError

    def restrict_columns(
        self, indices: "np.ndarray | Sequence[int] | Iterable[int]"
    ) -> "RoutingOperator":
        """Operator over the given link columns, preserving their order."""
        raise NotImplementedError

    # -- storage accessors ----------------------------------------------
    def toarray(self) -> np.ndarray:
        """Materialize the dense ``K x n`` array (fresh, writable)."""
        raise NotImplementedError

    def tosparse(self):
        """The backing SciPy CSR matrix, or ``None`` on the dense backend.

        Presolve, decomposition, input validation and the routing
        digests (warm-start fingerprints, the daemon's cache key) use
        this to reach the native storage without a dense round trip;
        treat the result as read-only.
        """
        return None

    def column_sums(self) -> np.ndarray:
        """``Σ_k r_{k,i}`` per link — traversal totals."""
        raise NotImplementedError

    def entry_range(self) -> tuple[float, float]:
        """(min, max) over all entries, implicit zeros included."""
        raise NotImplementedError

    @property
    def nnz(self) -> int:
        raise NotImplementedError

    @property
    def density(self) -> float:
        """Fraction of structurally non-zero entries."""
        rows, cols = self.shape
        size = rows * cols
        return self.nnz / size if size else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows, cols = self.shape
        return (
            f"{type(self).__name__}({rows}x{cols}, "
            f"density={self.density:.3f})"
        )


class DenseRoutingOperator(RoutingOperator):
    """Plain ``numpy`` backend with a cached C-contiguous transpose."""

    backend = "dense"

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("routing matrix must be 2-D")
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._transpose: np.ndarray | None = None
        METRICS.increment("routing.backend.dense")

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.matvec.dense")
        return self._matrix @ np.asarray(x, dtype=float)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.rmatvec.dense")
        # R.T is a strided view; multiply through a contiguous copy so
        # repeated gradient assemblies stream memory row-major.
        if self._transpose is None:
            transpose = np.ascontiguousarray(self._matrix.T)
            transpose.setflags(write=False)
            self._transpose = transpose
        return self._transpose @ np.asarray(y, dtype=float)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.matmat.dense")
        return self._matrix @ np.ascontiguousarray(X, dtype=float)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.rmatmat.dense")
        if self._transpose is None:
            transpose = np.ascontiguousarray(self._matrix.T)
            transpose.setflags(write=False)
            self._transpose = transpose
        return self._transpose @ np.ascontiguousarray(Y, dtype=float)

    def restrict_columns(self, indices) -> "DenseRoutingOperator":
        cols = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        return DenseRoutingOperator(self._matrix[:, cols])

    def toarray(self) -> np.ndarray:
        return self._matrix.copy()

    def column_sums(self) -> np.ndarray:
        return self._matrix.sum(axis=0)

    def entry_range(self) -> tuple[float, float]:
        return float(self._matrix.min()), float(self._matrix.max())

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._matrix))


class SparseRoutingOperator(RoutingOperator):
    """CSR backend; ``rmatvec`` runs off a cached CSR of the transpose."""

    backend = "sparse"

    def __init__(self, matrix):
        sparse = _scipy_sparse()
        if sparse is None:  # pragma: no cover - guarded by from_matrix
            raise RuntimeError("sparse backend requires scipy")
        csr = sparse.csr_matrix(matrix, dtype=float)
        if csr.ndim != 2:  # pragma: no cover - csr_matrix enforces 2-D
            raise ValueError("routing matrix must be 2-D")
        csr.sum_duplicates()
        self._csr = csr
        self._csr_transpose = None
        METRICS.increment("routing.backend.sparse")

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.matvec.sparse")
        return self._csr @ np.asarray(x, dtype=float)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.rmatvec.sparse")
        if self._csr_transpose is None:
            self._csr_transpose = self._csr.T.tocsr()
        return self._csr_transpose @ np.asarray(y, dtype=float)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.matmat.sparse")
        return self._csr @ np.ascontiguousarray(X, dtype=float)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        METRICS.increment("routing.rmatmat.sparse")
        if self._csr_transpose is None:
            self._csr_transpose = self._csr.T.tocsr()
        return self._csr_transpose @ np.ascontiguousarray(Y, dtype=float)

    def restrict_columns(self, indices) -> "SparseRoutingOperator":
        cols = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        # Column selection is a CSC-natural operation; route through it
        # so the restriction stays O(nnz of the kept columns).
        return SparseRoutingOperator(self._csr.tocsc()[:, cols].tocsr())

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def tosparse(self):
        return self._csr

    def column_sums(self) -> np.ndarray:
        return np.asarray(self._csr.sum(axis=0)).ravel()

    def entry_range(self) -> tuple[float, float]:
        data = self._csr.data
        rows, cols = self._csr.shape
        lo = float(data.min()) if data.size else 0.0
        hi = float(data.max()) if data.size else 0.0
        if self._csr.nnz < rows * cols:  # implicit zeros present
            lo = min(lo, 0.0)
            hi = max(hi, 0.0)
        return lo, hi

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)
