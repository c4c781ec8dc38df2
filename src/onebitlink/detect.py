"""Detectors: exact-statistics ML and the linearized-MMSE baseline.

The ML detector picks the candidate symbol vector that minimizes the Gaussian
objective of the receive model conditioned on that candidate (mean +
covariance from `stats`), using cached inverse Cholesky factors, so its cost
does not depend on the transmit array size once the table is built. It is an
exact pruned search: a cheap per-candidate lower bound rules most candidates
out, and only the rest are scored exactly (see `ml_detect_batch`).
`ml_detect_exhaustive` scores every candidate and is the reference the tests
compare against.

The received statistics are equivariant under the quarter turn s -> j s of
all streams at once: with Q = embed(j I_M), a signed permutation,
mu_{js} = Q mu_s and Sigma_{js} = Q Sigma_s Q^T. For an alphabet closed under
the turn (16-QAM, QPSK) the table therefore builds, factors and stores one
representative per orbit, and candidate j^k s is scored as its
representative s on the turned row Q^{-k} y', an exact swap and sign flip.
An alphabet that is not closed gets orbits of one candidate each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Constellation, ParameterError, chol_logdet, tril_inv
from .stats import SymbolKernel, assemble_stats, stack_ri, symbol_kernel
from .txchain import cov_y_unconditional

MAX_TABLE = 10 ** 6

# Relative slack taken off the lower bound, far above the rounding of the
# distance expansion and of the exact scores, so it never prunes the winner.
BOUND_SLACK = 1e-9
# Entries per block of work: keeps a (vectors x candidates) bound matrix, or a
# block of covariances being factored, at about 4 MB.
BLOCK_ENTRIES = 2 ** 19
# Surviving (vector, candidate) pairs held before they are scored. Scoring
# groups pairs by candidate, so the more vectors a group spans the fewer
# products; the cap bounds memory when the bound prunes little.
SURVIVOR_CAP = 2 ** 20


@dataclass(frozen=True)
class CandidateTable:
    """Cached per-candidate receive statistics for one channel realization.

    Per table position: the candidate s = j^turns s_r is a quarter turn of
    its orbit's representative s_r, whose inverse Cholesky factor
    L^{-1} (Sigma_r = L L^T, lower triangular up to rounding) is
    inv_chol[orbit]. So mu = Q^turns mu_r, and the candidate's quadratic
    form is ||L^{-1} Q^{-turns} (y' - mu)||^2.
    """

    indices: np.ndarray   # (L^K, K) per-stream constellation indices
    orbit: np.ndarray     # (L^K,) row of inv_chol holding the representative's factor
    turns: np.ndarray     # (L^K,) k in 0..3 with s = j^k s_r
    mu: np.ndarray        # (L^K, 2M) stacked means
    inv_chol: np.ndarray  # (orbits, 2M, 2M) inverse lower Cholesky factors L^{-1}
    logdet: np.ndarray    # (L^K,)
    norm: np.ndarray      # (L^K,) ||Sigma||_inf, at least lambda_max(Sigma)
    rho: float

    @property
    def n_candidates(self) -> int:
        return self.indices.shape[0]


def enumerate_candidates(constellation: Constellation,
                         n_streams: int) -> tuple[np.ndarray, np.ndarray]:
    """All symbol vectors in constellation^n_streams, stream 0 most significant.

    The candidate at table position i carries the mixed-radix digits of i, so
    positions and index tuples are interchangeable.
    """
    size = constellation.size
    total = size ** n_streams
    if total > MAX_TABLE:
        raise ParameterError(
            f"candidate table would hold {total} > {MAX_TABLE} entries; "
            "refusing to enumerate"
        )
    digits = np.stack(
        np.unravel_index(np.arange(total), (size,) * n_streams), axis=1
    ).astype(np.int64)
    return digits, constellation.points[digits]


def _turn(V: np.ndarray, k: int) -> np.ndarray:
    """Stacked-real vectors V (last axis [Re, Im]) times j^k: exact swaps and sign flips."""
    m = V.shape[-1] // 2
    re, im = V[..., :m], V[..., m:]
    if k % 2:
        re, im = -im, re
    if k % 4 >= 2:
        re, im = -re, -im
    return np.concatenate([re, im], axis=-1)


def _orbits(constellation: Constellation, digits: np.ndarray):
    """(representatives, orbit, turns) of the candidates under s -> j s.

    representatives are the ascending table positions that are the lowest of
    their orbit; position i holds j^turns[i] times the candidate at
    representatives[orbit[i]]. Without `Constellation.rotation` every
    candidate is its own orbit.
    """
    perm = constellation.rotation
    shape = (constellation.size,) * digits.shape[1]
    # turned[k, i]: the table position of j^k times the candidate at i
    turned = [np.arange(digits.shape[0])]
    for _ in range(3 if perm is not None else 0):
        digits = perm[digits]
        turned.append(np.ravel_multi_index(tuple(digits.T), shape))
    turned = np.stack(turned)
    lowest = turned.min(axis=0)
    representatives = np.flatnonzero(lowest == turned[0])
    turns = -np.argmin(turned, axis=0) % 4
    return representatives, np.searchsorted(representatives, lowest), turns


class CandidateKernels(NamedTuple):
    """SNR-independent kernels of one representative per orbit, and the orbits."""

    indices: np.ndarray    # (L^K, K) per-stream constellation indices
    orbit: np.ndarray      # (L^K,) row of kernel holding the position's representative
    turns: np.ndarray      # (L^K,) k with candidate = j^k representative
    kernel: SymbolKernel   # stacked over the representatives


def build_candidate_kernels(H, W, constellation: Constellation, sigma2: float,
                            eta: float) -> CandidateKernels:
    """Kernels of the orbit representatives of every candidate (see `_orbits`).

    Reusable across an SNR sweep; table positions follow the candidate order
    of `enumerate_candidates`.
    """
    W = np.asarray(W)
    digits, symbols = enumerate_candidates(constellation, W.shape[1])
    representatives, orbit, turns = _orbits(constellation, digits)
    kernel = symbol_kernel(H, symbols[representatives] @ W.T, sigma2, eta)
    return CandidateKernels(digits, orbit, turns, kernel)


def build_candidate_table(kernels: CandidateKernels, rho: float) -> CandidateTable:
    """Cached detector statistics at transmit SNR rho from `build_candidate_kernels`.

    The representatives' covariance stack is factored block by block (one
    `chol_logdet` and one `tril_inv` call per block), and each inverse
    Cholesky factor overwrites its covariance in the stack. Means,
    log-determinants and norms are then expanded to every table position.
    """
    mu, inv_chol = assemble_stats(kernels.kernel, rho)
    n_rep, dim = inv_chol.shape[0], inv_chol.shape[-1]
    logdet = np.empty(n_rep)
    norm = np.empty(n_rep)
    step = max(1, BLOCK_ENTRIES // (dim * dim))
    for lo in range(0, n_rep, step):
        blk = inv_chol[lo:lo + step]
        norm[lo:lo + step] = np.abs(blk).sum(axis=-1).max(axis=-1)
        fac = chol_logdet(blk)
        logdet[lo:lo + step] = fac.logdet
        blk[...] = tril_inv(fac.factor)
    orbit, turns = kernels.orbit, kernels.turns
    full_mu = np.stack([_turn(mu, k) for k in range(4)])[turns, orbit]
    return CandidateTable(indices=kernels.indices, orbit=orbit, turns=turns, mu=full_mu,
                          inv_chol=inv_chol, logdet=logdet[orbit], norm=norm[orbit], rho=rho)


def _turned_rows(Y: np.ndarray, table: CandidateTable) -> np.ndarray:
    """Received vectors (n, M) complex -> stacked-real rows Q^{-k} y', shape (4, n, 2M)."""
    if table.n_candidates == 0:
        raise ParameterError("candidate table is empty")
    Yp = stack_ri(np.atleast_2d(np.asarray(Y)))
    return np.stack([_turn(Yp, -k) for k in range(4)])


def _score(Yt: np.ndarray, table: CandidateTable, rows: np.ndarray,
           cands: np.ndarray) -> np.ndarray:
    """Exact objective of candidate cands[i] for received row rows[i].

    All of cands share one orbit, so this is one product with the
    representative's factor. The squared norm pairs each antenna's Re and Im
    terms, so a quarter turn of u only reorders additions that commute, and
    tied members of an orbit round identically.
    """
    c0 = cands[0]
    mu = _turn(table.mu[c0], -table.turns[c0])  # the representative's mean
    u = (Yt[table.turns[cands], rows] - mu) @ table.inv_chol[table.orbit[c0]].T
    m = u.shape[1] // 2
    np.square(u, out=u)
    u[:, :m] += u[:, m:]
    return u[:, :m].sum(axis=1) + table.logdet[cands]


def _groups(keys: np.ndarray):
    """Positions of each distinct key in ascending order, one array per key."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def ml_detect_exhaustive(Y: np.ndarray, table: CandidateTable):
    """Reference ML: score every candidate exactly (see ml_detect_batch)."""
    Yt = _turned_rows(Y, table)
    n = Yt.shape[1]
    rows = np.arange(n)
    best_score = np.full(n, np.inf)
    best = np.zeros(n, dtype=np.int64)
    for c in range(table.n_candidates):
        score = _score(Yt, table, rows, np.full(n, c))
        better = score < best_score
        best_score = np.where(better, score, best_score)
        best = np.where(better, c, best)
    return table.indices[best], best_score


def ml_detect_batch(Y: np.ndarray, table: CandidateTable):
    """ML decisions for a batch of received vectors, by bound-and-rescore.

    Y has shape (n, M) complex. Returns (indices (n, K), scores (n,)). Each
    score is the Gaussian objective (y'-mu)^T Sigma^{-1} (y'-mu) + logdet
    Sigma of the winning candidate; ties go to the lowest table position.

    With n_c = ||Sigma_c||_inf >= lambda_max(Sigma_c), every candidate's
    objective is at least logdet_c + ||y'-mu_c||^2 / n_c. The squared
    distances come from one GEMM per block of vectors as
    ||y'||^2 - 2 y'.mu_c + ||mu_c||^2, and the bound used is

        logdet_c - s (1 + |logdet_c|)
            + max(||y'-mu_c||^2 - s (||y'||^2 + ||mu_c||^2), 0) / n_c

    with s = BOUND_SLACK, so the rounding of the expansion and of the exact
    scores cannot rule out the winner. The vectors go in blocks of
    BLOCK_ENTRIES bound entries. In each block, every vector's lowest-bound
    candidate is scored exactly; that score is the vector's threshold, and
    every candidate whose bound does not exceed it survives. Survivors are
    held across blocks, up to SURVIVOR_CAP pairs, and scored exactly with
    the same arithmetic as `ml_detect_exhaustive`, one product per orbit
    across the vectors. The minimum over those is the exhaustive minimum.
    Scores can differ from the exhaustive ones by rounding only, because a
    product over a subset of the rows need not round like one over all of
    them.
    """
    Yt = _turned_rows(Y, table)
    Yp = Yt[0]
    n = Yp.shape[0]
    shrink = 1.0 - BOUND_SLACK
    yy = shrink * np.einsum("ij,ij->i", Yp, Yp)
    mm = shrink * np.einsum("ij,ij->i", table.mu, table.mu)
    base = table.logdet - BOUND_SLACK * (1.0 + np.abs(table.logdet))
    inv_norm = 1.0 / table.norm
    mu2 = 2.0 * table.mu.T

    step = max(1, BLOCK_ENTRIES // table.n_candidates)
    best_score = np.full(n, np.inf)
    best = np.zeros(n, dtype=np.int64)
    held, n_held = [], 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        bound = yy[lo:hi, None] + mm - Yp[lo:hi] @ mu2
        np.maximum(bound, 0.0, out=bound)
        bound *= inv_norm
        bound += base
        first = np.argmin(bound, axis=1)
        threshold = np.empty(hi - lo)
        for pos in _groups(table.orbit[first]):
            threshold[pos] = _score(Yt, table, pos + lo, first[pos])
        keep = bound <= threshold[:, None]
        # the threshold's own candidate, so no vector is left unscored
        keep[np.arange(hi - lo), first] = True
        rows, cands = np.nonzero(keep)
        held.append((rows + lo, cands))
        n_held += rows.size
        if hi < n and n_held < SURVIVOR_CAP:
            continue
        rows, cands = (np.concatenate(part) for part in zip(*held))
        held, n_held = [], 0
        scores = np.empty(rows.size)
        for pos in _groups(table.orbit[cands]):
            scores[pos] = _score(Yt, table, rows[pos], cands[pos])
        # pairs run in ascending (row, candidate) order, and all of a row's
        # pairs are in this batch: a row's winner is its first pair with the
        # row's lowest score (NaN scores never win, as in the exhaustive scan)
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        low = np.fmin.reduceat(scores, starts)
        hit = np.flatnonzero(scores == np.repeat(low, np.diff(np.r_[starts, rows.size])))
        win = hit[np.r_[True, rows[hit[1:]] != rows[hit[:-1]]]]
        best_score[rows[win]] = scores[win]
        best[rows[win]] = cands[win]
    return table.indices[best], best_score


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

