"""Inverting flow statistics from sampled flow records.

The paper's related work (§II, refs [12][13]: Duffield, Lund, Thorup)
studies how to recover traffic properties from *sampled* NetFlow
records — the exact post-processing GEANT's 1/1000 feed needs before
the paper can treat it as ground truth.  This module implements the
classic estimators for i.i.d. packet sampling at rate ``p``:

* **total packets**: ``X̂ = X_sampled / p`` (Horvitz-Thompson);
* **flow count**: a flow of size ``s`` is detected with probability
  ``1 - (1-p)^s``, so the detected-flow count is biased against small
  flows.  Two repairs, mirroring [12][13]:

  - the *unique* distribution-free unbiased estimator
    ``N̂ = Σ_records [1 - (-(1-p)/p)^{j}]`` (``j`` = sampled packets of
    the record), which exists but whose alternating weights make its
    variance explode for ``p < 1/2`` — the classic negative result
    motivating the next item;
  - the *SYN-based* estimator ``N̂ = (#sampled flow-initial packets)/p``
    — unbiased with small variance whenever the flow's first packet is
    identifiable (TCP SYN), which is DLT's practical recommendation.
* **size-distribution inversion**: the sampled-size distribution is a
  binomial mixture of the original one; for bounded sizes the mixing
  matrix can be inverted (regularized least squares on the simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "detection_probability",
    "estimate_total_packets",
    "FlowCountEstimate",
    "estimate_flow_count_unbiased",
    "estimate_flow_count_syn",
    "invert_size_distribution",
]


def detection_probability(size_packets, sampling_rate: float):
    """``P(flow of s packets leaves a record) = 1 - (1-p)^s``."""
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    size = np.asarray(size_packets, dtype=float)
    if np.any(size < 0):
        raise ValueError("sizes must be non-negative")
    result = -np.expm1(size * np.log1p(-min(sampling_rate, 1 - 1e-15)))
    return result if result.ndim else float(result)


def estimate_total_packets(sampled_packets: float, sampling_rate: float) -> float:
    """Horvitz-Thompson inversion of the total packet count."""
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if sampled_packets < 0:
        raise ValueError("sampled packets must be non-negative")
    return sampled_packets / sampling_rate


@dataclass(frozen=True)
class FlowCountEstimate:
    """A flow-count estimate with its inputs."""

    estimate: float
    detected_flows: int
    sampling_rate: float
    method: str


def estimate_flow_count_unbiased(
    sampled_sizes: Iterable[int] | np.ndarray, sampling_rate: float
) -> FlowCountEstimate:
    """The unique distribution-free unbiased flow-count estimator.

    Each record with ``j`` sampled packets contributes the weight
    ``f(j) = 1 - (-(1-p)/p)^j``; summing ``P(Bin(s,p) = j) f(j)`` over
    ``j >= 1`` telescopes to exactly 1 for every original size ``s``,
    so the sum over records is unbiased for the number of flows — for
    *any* size distribution.

    The price is variance: for ``p < 1/2`` the weights alternate with
    geometrically growing magnitude ``((1-p)/p)^j``, so the estimator
    is only practical at high sampling rates.  This is the classic
    negative result of the sampled-flow-inversion literature ([12]);
    at router rates (``p ~ 1/1000``) use
    :func:`estimate_flow_count_syn` instead.
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    sizes = np.asarray(
        list(sampled_sizes)
        if not isinstance(sampled_sizes, np.ndarray)
        else sampled_sizes
    )
    if sizes.size and np.any(sizes < 1):
        raise ValueError("sampled record sizes are >= 1 by construction")
    ratio = -(1.0 - sampling_rate) / sampling_rate
    weights = 1.0 - np.power(ratio, sizes.astype(float)) if sizes.size else np.array([])
    return FlowCountEstimate(
        estimate=float(weights.sum()),
        detected_flows=int(sizes.size),
        sampling_rate=sampling_rate,
        method="unbiased-alternating",
    )


def estimate_flow_count_syn(
    sampled_first_packets: int, sampling_rate: float
) -> FlowCountEstimate:
    """SYN-based flow counting: ``N̂ = (#sampled first packets) / p``.

    Every flow has exactly one first packet (a TCP SYN, say); each is
    sampled independently with probability ``p``, so the inverted count
    is unbiased with binomial (small) variance regardless of the flow
    size distribution — DLT's practical estimator.
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if sampled_first_packets < 0:
        raise ValueError("sampled first-packet count must be non-negative")
    return FlowCountEstimate(
        estimate=sampled_first_packets / sampling_rate,
        detected_flows=int(sampled_first_packets),
        sampling_rate=sampling_rate,
        method="syn",
    )


def invert_size_distribution(
    sampled_sizes: Sequence[int] | np.ndarray,
    sampling_rate: float,
    max_size: int,
) -> np.ndarray:
    """Recover the original flow-size distribution from sampled sizes.

    Solves the binomial mixture ``q_j = Σ_s π_s · P(Bin(s, p) = j | ≥1)``
    for the original distribution ``π`` on ``{1..max_size}`` by
    non-negative least squares, then normalizes.  Practical for small
    ``max_size`` (the classic hard inverse problem — see [12]); tests
    use well-separated mixtures where the inversion is stable.

    Returns the estimated probability vector over sizes ``1..max_size``.
    """
    from scipy import optimize, stats

    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    sizes = np.asarray(sampled_sizes)
    if sizes.size == 0:
        raise ValueError("no sampled records")
    if np.any(sizes < 1):
        raise ValueError("sampled record sizes are >= 1 by construction")

    # Observed conditional distribution of sampled sizes (truncated at
    # max_size; larger sampled sizes imply larger originals anyway).
    observed = np.zeros(max_size)
    for j in sizes:
        observed[min(int(j), max_size) - 1] += 1
    observed /= observed.sum()

    # Mixing matrix A[j-1, s-1] = P(j sampled | original s, detected).
    mixing = np.zeros((max_size, max_size))
    for s in range(1, max_size + 1):
        detect = detection_probability(s, sampling_rate)
        if detect <= 0:
            continue
        pmf = stats.binom.pmf(np.arange(1, max_size + 1), s, sampling_rate)
        mixing[:, s - 1] = pmf / detect
    # Account for detection bias: detected flows over-represent large s.
    # q = A @ (w ∘ π) / (wᵀ π) with w_s = detection prob; solve for the
    # reweighted vector and unweight afterwards.
    solution, _ = optimize.nnls(mixing, observed)
    weights = detection_probability(np.arange(1, max_size + 1), sampling_rate)
    unweighted = np.where(weights > 0, solution / weights, 0.0)
    total = unweighted.sum()
    if total <= 0:
        raise ValueError("inversion degenerated; increase sample size")
    return unweighted / total
