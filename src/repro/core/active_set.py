"""Active-set bookkeeping and gradient projection (§IV-A, §IV-D).

The constraint set is the polytope ``Ω = {x : x·u = θ', 0 <= x <= α}``
over the candidate links.  At any iterate each bound constraint is
either *active* (met with equality) or *inactive*; the capacity
equality is always active.  The search direction is the gradient
projected onto the subspace spanned by the active constraints' null
space.

Because every active bound's normal is a coordinate axis, the
projector has a closed form: zero the active coordinates, then remove
the component along the load vector restricted to the free
coordinates.  This avoids forming ``I − Nᵀ(NNᵀ)⁻¹N`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ActiveSet", "FREE", "AT_LOWER", "AT_UPPER", "Multipliers"]

FREE = 0
AT_LOWER = 1  # x_i = 0, monitor deactivated
AT_UPPER = 2  # x_i = α_i, monitor saturated


@dataclass(frozen=True)
class Multipliers:
    """Lagrange multipliers of eq. (6) at a candidate point.

    ``lam`` prices the capacity equality; ``nu[i]`` (only meaningful on
    links active at the lower bound) and ``mu[i]`` (upper bound) must be
    non-negative at the optimum — a negative value identifies a
    constraint whose release improves the objective (§IV-D).
    """

    lam: float
    mu: np.ndarray
    nu: np.ndarray

    def negative_lower(self, tol: float) -> np.ndarray:
        """Indices of lower-bound actives with ``ν_i < -tol``."""
        return np.flatnonzero(self.nu < -tol)

    def negative_upper(self, tol: float) -> np.ndarray:
        """Indices of upper-bound actives with ``μ_i < -tol``."""
        return np.flatnonzero(self.mu < -tol)


class ActiveSet:
    """Tracks which bound constraints are active on the candidate links."""

    def __init__(self, loads: np.ndarray, alpha: np.ndarray) -> None:
        loads = np.asarray(loads, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        if loads.ndim != 1 or loads.shape != alpha.shape:
            raise ValueError("loads and alpha must be 1-D and equally long")
        if np.any(loads <= 0):
            raise ValueError("candidate links must have positive load")
        if np.any(alpha <= 0):
            raise ValueError("candidate links must have positive alpha")
        self.loads = loads
        self.alpha = alpha
        self.status = np.full(loads.shape, FREE, dtype=np.int8)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.status.shape[0]

    @property
    def free_mask(self) -> np.ndarray:
        return self.status == FREE

    @property
    def lower_mask(self) -> np.ndarray:
        return self.status == AT_LOWER

    @property
    def upper_mask(self) -> np.ndarray:
        return self.status == AT_UPPER

    def num_free(self) -> int:
        return int(self.free_mask.sum())

    def sync_with_point(self, x: np.ndarray, atol: float = 1e-12) -> None:
        """Mark constraints active where ``x`` sits on a bound."""
        x = np.asarray(x, dtype=float)
        self.status[:] = FREE
        self.status[x <= atol] = AT_LOWER
        self.status[x >= self.alpha - atol] = AT_UPPER

    def activate_lower(self, index: int) -> None:
        self.status[index] = AT_LOWER

    def activate_upper(self, index: int) -> None:
        self.status[index] = AT_UPPER

    def release(self, indices: np.ndarray) -> None:
        """Make the given active constraints inactive again."""
        self.status[indices] = FREE

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def project(self, g: np.ndarray) -> np.ndarray:
        """Project ``g`` onto the active constraints' null space.

        Zeroes active coordinates, then removes the component along the
        free part of the load vector so that moving along the result
        keeps ``x·u`` constant.
        """
        g = np.asarray(g, dtype=float)
        projected = np.where(self.free_mask, g, 0.0)
        u_free = np.where(self.free_mask, self.loads, 0.0)
        norm2 = float(u_free @ u_free)
        if norm2 > 0.0:
            projected -= (float(projected @ u_free) / norm2) * u_free
        return projected

    # ------------------------------------------------------------------
    # multipliers (KKT, §IV-D)
    # ------------------------------------------------------------------
    def multipliers(self, g: np.ndarray) -> Multipliers:
        """Lagrange multipliers for gradient ``g`` at the current set.

        Stationarity of eq. (6) reads ``g_i = λ u_i + μ_i − ν_i`` with
        ``μ_i`` (resp. ``ν_i``) zero unless link ``i`` is active at its
        upper (resp. lower) bound:

        * free ``i``:  λ = g_i / u_i — estimated by weighted least
          squares over the free coordinates;
        * lower-active ``i``:  ν_i = λ u_i − g_i;
        * upper-active ``i``:  μ_i = g_i − λ u_i.

        With no free coordinate, λ is indeterminate within an interval;
        we pick the value minimizing the worst constraint-multiplier
        violation (midpoint of the feasibility interval), so the caller
        sees negative multipliers exactly when no feasible λ exists.
        """
        g = np.asarray(g, dtype=float)
        free = self.free_mask
        ratios = g / self.loads
        if np.any(free):
            u_free = self.loads[free]
            lam = float(g[free] @ u_free) / float(u_free @ u_free)
        else:
            # λ must satisfy ratios[lower] <= λ <= ratios[upper].
            lower_bound = (
                float(ratios[self.lower_mask].max())
                if np.any(self.lower_mask)
                else -np.inf
            )
            upper_bound = (
                float(ratios[self.upper_mask].min())
                if np.any(self.upper_mask)
                else np.inf
            )
            if lower_bound == -np.inf and upper_bound == np.inf:
                lam = 0.0
            elif lower_bound == -np.inf:
                lam = upper_bound
            elif upper_bound == np.inf:
                lam = lower_bound
            else:
                lam = (lower_bound + upper_bound) / 2.0

        mu = np.zeros(self.size)
        nu = np.zeros(self.size)
        upper = self.upper_mask
        lower = self.lower_mask
        mu[upper] = g[upper] - lam * self.loads[upper]
        nu[lower] = lam * self.loads[lower] - g[lower]
        return Multipliers(lam=lam, mu=mu, nu=nu)

    def max_step(self, x: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
        """Largest ``t`` with ``x + t s`` inside the bounds.

        Returns ``(t_max, blocking)`` where ``blocking`` lists the
        coordinates whose bound is reached at ``t_max`` (empty when the
        direction never leaves the box).
        """
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            to_lower = np.where(s < 0, -x / s, np.inf)
            to_upper = np.where(s > 0, (self.alpha - x) / s, np.inf)
        steps = np.minimum(to_lower, to_upper)
        steps[~self.free_mask] = np.inf
        t_max = float(steps.min())
        if not np.isfinite(t_max):
            return np.inf, np.array([], dtype=int)
        t_max = max(t_max, 0.0)
        # np.isclose(steps, t_max, rtol=1e-9, atol=1e-15) written out: for
        # a finite t_max it is exactly this test (inf steps fail it), at a
        # quarter of the cost on every GP iteration.
        blocking = np.flatnonzero(np.abs(steps - t_max) <= 1e-15 + 1e-9 * t_max)
        return t_max, blocking
