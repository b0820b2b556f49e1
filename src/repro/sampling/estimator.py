"""Size estimation from sampled counts (inversion).

Random sampling at effective rate ``ρ`` turns an OD pair of ``S``
packets into a binomial ``X ~ Bin(S, ρ)``; the classic (Horvitz-
Thompson) inversion ``Ŝ = X/ρ`` is unbiased with relative variance
``(1-ρ)/(Sρ)`` — exactly the ``E[SRE]`` the utility function prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["estimate_size", "estimate_sizes", "SizeEstimate"]


def estimate_size(sampled_count: float, effective_rate: float) -> float:
    """Invert one sampled count: ``Ŝ = x / ρ``."""
    if not 0.0 < effective_rate <= 1.0:
        raise ValueError(f"effective rate must be in (0, 1], got {effective_rate}")
    if sampled_count < 0:
        raise ValueError("sampled count must be non-negative")
    return sampled_count / effective_rate


def estimate_sizes(sampled_counts, effective_rates) -> np.ndarray:
    """Vectorized inversion; rates of 0 yield estimate 0 (no information)."""
    counts = np.asarray(sampled_counts, dtype=float)
    rates = np.asarray(effective_rates, dtype=float)
    if counts.shape[-1] != rates.shape[0] and counts.shape != rates.shape:
        raise ValueError(
            f"counts {counts.shape} do not align with rates {rates.shape}"
        )
    if np.any(rates < 0) or np.any(rates > 1):
        raise ValueError("effective rates must lie in [0, 1]")
    if np.any((rates == 0) & (counts != 0)):
        raise ValueError("non-zero count at zero sampling rate")
    safe = np.where(rates > 0, rates, 1.0)
    return np.where(rates > 0, counts / safe, 0.0)


@dataclass(frozen=True)
class SizeEstimate:
    """A point estimate with its binomial confidence interval."""

    estimate: float
    sampled_count: int
    effective_rate: float
    ci_low: float
    ci_high: float
    confidence: float

    @classmethod
    def from_count(
        cls, sampled_count: int, effective_rate: float, confidence: float = 0.95
    ) -> "SizeEstimate":
        """Build an estimate with a normal-approximation interval.

        The interval treats ``X/ρ`` as approximately normal with
        standard deviation ``sqrt(X (1-ρ))/ρ`` (plug-in), adequate for
        the large counts of backbone OD pairs.
        """
        from scipy import stats

        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        point = estimate_size(sampled_count, effective_rate)
        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
        spread = z * np.sqrt(max(sampled_count, 1) * (1.0 - effective_rate)) / effective_rate
        return cls(
            estimate=point,
            sampled_count=int(sampled_count),
            effective_rate=float(effective_rate),
            ci_low=max(0.0, point - spread),
            ci_high=point + spread,
            confidence=confidence,
        )

    def covers(self, actual: float) -> bool:
        """True when the interval contains the actual size."""
        return self.ci_low <= actual <= self.ci_high
