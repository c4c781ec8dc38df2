"""Detectors: exhaustive exact-statistics ML and the linearized-MMSE baseline.

The ML detector scores every candidate symbol vector against the Gaussian
receive model conditioned on that candidate (mean + covariance from `stats`),
using cached Cholesky factors so the per-vector cost is O(L^K M^2) and does
not depend on the transmit array size once the table is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import Constellation, ParameterError, chol_logdet
from .stats import assemble_stats, symbol_kernel
from .txchain import cov_y_unconditional

MAX_TABLE = 10 ** 6


@dataclass(frozen=True)
class DetectorResult:
    indices: np.ndarray  # (K,) per-stream constellation indices
    score: float         # ML objective or slicer distance


@dataclass(frozen=True)
class CandidateTable:
    """Cached per-candidate receive statistics for one channel realization."""

    indices: np.ndarray   # (L^K, K) per-stream constellation indices
    symbols: np.ndarray   # (L^K, K) candidate symbol vectors
    mu: np.ndarray        # (L^K, 2M) stacked means
    chol: np.ndarray      # (L^K, 2M, 2M) lower Cholesky factors
    logdet: np.ndarray    # (L^K,)
    rho: float

    @property
    def n_candidates(self) -> int:
        return self.indices.shape[0]


def enumerate_candidates(constellation: Constellation, n_streams: int,
                         max_candidates: int = MAX_TABLE) -> tuple[np.ndarray, np.ndarray]:
    """All symbol vectors in constellation^n_streams, stream 0 most significant.

    The candidate at table position i carries the mixed-radix digits of i, so
    positions and index tuples are interchangeable.
    """
    size = constellation.size
    total = size ** n_streams
    if total > max_candidates:
        raise ParameterError(
            f"candidate table would hold {total} > {max_candidates} entries; "
            "refusing to enumerate"
        )
    digits = np.stack(
        np.unravel_index(np.arange(total), (size,) * n_streams), axis=1
    ).astype(np.int64)
    return digits, constellation.points[digits]


def build_candidate_kernels(H, W, constellation: Constellation, sigma2: float,
                            eta: float):
    """SNR-independent per-candidate kernels (reusable across an SNR sweep)."""
    H = np.asarray(H)
    W = np.asarray(W)
    digits, symbols = enumerate_candidates(constellation, W.shape[1])
    X = symbols @ W.T
    kernels = [symbol_kernel(H, x, sigma2, eta) for x in X]
    return digits, symbols, kernels


def build_candidate_table(H, W, constellation: Constellation, sigma2: float,
                          eta: float, rho: float,
                          kernels=None) -> CandidateTable:
    """Assemble the cached detector statistics for one (channel, dither, SNR)."""
    if kernels is None:
        digits, symbols, kers = build_candidate_kernels(H, W, constellation, sigma2, eta)
    else:
        digits, symbols, kers = kernels
    n = digits.shape[0]
    dim = kers[0].inner.shape[0]
    mu = np.empty((n, dim))
    chol = np.empty((n, dim, dim))
    logdet = np.empty(n)
    for i, ker in enumerate(kers):
        m, Sigma = assemble_stats(ker, rho)
        fac = chol_logdet(Sigma)
        mu[i] = m
        chol[i] = fac.factor
        logdet[i] = fac.logdet
    return CandidateTable(indices=digits, symbols=symbols, mu=mu,
                          chol=chol, logdet=logdet, rho=rho)


def ml_detect_batch(Y: np.ndarray, table: CandidateTable):
    """ML decisions for a batch of received vectors.

    Y has shape (n, M) complex. Returns (indices (n, K), scores (n,)). Each
    score is the Gaussian objective (y'-mu)^T Sigma^{-1} (y'-mu) + logdet
    Sigma of the winning candidate; ties go to the lowest table position.
    """
    if table.n_candidates == 0:
        raise ParameterError("candidate table is empty")
    Y = np.atleast_2d(np.asarray(Y))
    Yp = np.concatenate([Y.real, Y.imag], axis=1)
    n = Yp.shape[0]
    best_score = np.full(n, np.inf)
    best = np.zeros(n, dtype=np.int64)
    for c in range(table.n_candidates):
        r = Yp - table.mu[c]
        u = solve_triangular(table.chol[c], r.T, lower=True, check_finite=False)
        score = np.einsum("ij,ij->j", u, u) + table.logdet[c]
        better = score < best_score
        best_score = np.where(better, score, best_score)
        best = np.where(better, c, best)
    return table.indices[best], best_score


def ml_detect(y: np.ndarray, table: CandidateTable) -> DetectorResult:
    """ML decision for a single received vector (see ml_detect_batch)."""
    idx, score = ml_detect_batch(np.asarray(y)[None, :], table)
    return DetectorResult(indices=idx[0], score=float(score[0]))


# ---------------------------------------------------------------------------
# linearized-MMSE baseline
# ---------------------------------------------------------------------------

def blmmse_combiner(H, W, B, C_xq, rho: float) -> np.ndarray:
    """Linear combiner sqrt(rho) C_y^{-1} H B W for the linearized chain.

    B is the equivalent quantizer gain and C_xq the unconditional quantizer
    output covariance (both for the Gaussian-symbol model); the soft symbol
    estimate is V^H y.
    """
    H = np.asarray(H)
    C_y = cov_y_unconditional(H, C_xq, rho)
    return np.sqrt(rho) * np.linalg.solve(C_y, H @ np.asarray(B) @ np.asarray(W))


def slice_min_distance_batch(S_soft: np.ndarray, constellation: Constellation):
    """Per-stream minimum-distance slicing of soft symbol estimates.

    Returns (indices, distances) with the same leading shape as S_soft; ties
    go to the lowest constellation index.
    """
    S_soft = np.asarray(S_soft)
    d2 = np.abs(S_soft[..., None] - constellation.points) ** 2
    idx = np.argmin(d2, axis=-1)
    return idx, np.take_along_axis(d2, idx[..., None], axis=-1)[..., 0]


def slice_min_distance(s_soft: np.ndarray, constellation: Constellation) -> DetectorResult:
    """Slice one soft estimate vector; score is the summed squared distance."""
    idx, d2 = slice_min_distance_batch(np.atleast_1d(np.asarray(s_soft)), constellation)
    return DetectorResult(indices=idx, score=float(np.sum(d2)))
