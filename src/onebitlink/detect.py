"""Detectors: exact-statistics ML and the linearized-MMSE baseline.

The ML detector picks the candidate symbol vector that minimizes the Gaussian
objective of the receive model conditioned on that candidate (mean +
covariance from `stats`), using cached inverse Cholesky factors, so its cost
does not depend on the transmit array size once the table is built. It is an
exact pruned search: a lower bound in the channel's eigenbasis rules most
candidates out, and the rest are scored exactly in ascending bound, each
vector stopping once its next bound exceeds its best score (see
`ml_detect_batch`). Every exact score comes from one pair scorer,
`_score_pairs`. `ml_detect_exhaustive` scores every candidate through it and
is the reference the tests compare against.

The received statistics are equivariant under the quarter turn s -> j s of
all streams at once: with Q = embed(j I_M), a signed permutation,
mu_{js} = Q mu_s and Sigma_{js} = Q Sigma_s Q^T. For an alphabet closed under
the turn (16-QAM, QPSK) the table therefore builds, factors and stores one
representative per orbit (mean, log-determinant and factor), and candidate
j^k s is scored as s on the turned row Q^{-k} y', an exact swap and sign
flip. An alphabet that is not closed gets orbits of one candidate each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Constellation, FactorizationError, ParameterError, chol_logdet
from .stats import ReceiveBasis, SymbolKernel, assemble_stats, stack_ri, symbol_kernel
from .txchain import cov_y_unconditional

MAX_TABLE = 10 ** 6

# Relative slack taken off the lower bound, far above the rounding of its
# expansion, of the eigenbasis and of the exact scores, so it never prunes the
# winner.
BOUND_SLACK = 1e-9
# Entries per block of work: keeps a (vectors x candidates) bound matrix, or a
# block of covariances being factored, at about 4 MB.
BLOCK_ENTRIES = 2 ** 19
# Surviving (vector, candidate) pairs held, with their bounds, before they are
# scored. Each best-first round scores the next pair of every held vector at
# once, so the more vectors a flush spans, the fewer rounds in all and the more
# pairs each orbit's product covers; the cap bounds memory when the bound
# prunes little.
SURVIVOR_CAP = 2 ** 20


@dataclass(frozen=True)
class CandidateTable:
    """Cached receive statistics of the candidates for one channel realization.

    The statistics are kept once per orbit, for its representative s_r: mean
    mu_r = mu[orbit], log-determinant logdet[orbit] and inverse Cholesky
    factor L^{-1} = inv_chol[orbit] (Sigma_r = L L^T, with exact zeros above
    the diagonal). Position i holds s = j^turns s_r, with mean Q^turns mu_r,
    the same log-determinant, and quadratic form
    ||L^{-1} (Q^{-turns} y' - mu_r)||^2.

    The pruning bound reads the channel's eigenbasis eigvecs = V of
    embed(H H^H) = V diag(lam) V^T and, per orbit, the weights
    w = 1/(1/2 + rho dmax lam), where dmax is the representative's largest
    quantizer-output variance: Sigma <= V diag(1/w) V^T for every member of
    the orbit (the quarter turn Q commutes with embed(H H^H)).

    A table built from kernels stacked over P dither points (see
    `build_candidate_kernels`) has a leading axis of P points on the
    per-orbit fields mu, inv_chol, logdet and weight; the per-position
    fields and the eigenbasis are shared by every point. `ml_detect_batch`
    detects P n received rows on it, rows p n ... (p + 1) n - 1 against
    point p; `points_per_group` says how many points one table holds. An
    unstacked table is the one-point case.
    """

    indices: np.ndarray   # (L^K, K) per-stream constellation indices
    orbit: np.ndarray     # (L^K,) row of the per-orbit fields holding the representative
    turns: np.ndarray     # (L^K,) k in 0..3 with s = j^k s_r
    mu: np.ndarray        # ([P,] orbits, 2M) the representatives' stacked means
    inv_chol: np.ndarray  # ([P,] orbits, 2M, 2M) inverse lower Cholesky factors L^{-1}
    logdet: np.ndarray    # ([P,] orbits)
    eigvecs: np.ndarray   # (2M, 2M) eigenvectors V of embed(H H^H), one per column
    weight: np.ndarray    # ([P,] orbits, 2M) eigenbasis bound weights 1/(1/2 + rho dmax lam)

    @property
    def n_candidates(self) -> int:
        return self.indices.shape[0]

    @property
    def n_points(self) -> int:
        """Dither points held: the leading axis of a stacked table, else 1."""
        return self.mu.shape[0] if self.mu.ndim == 3 else 1


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

    basis: ReceiveBasis    # the channel's, shared by every dither power
    indices: np.ndarray    # (L^K, K) per-stream constellation indices
    orbit: np.ndarray      # (L^K,) row of kernel holding the position's representative
    turns: np.ndarray      # (L^K,) k with candidate = j^k representative
    kernel: SymbolKernel   # stacked over ([points,] representatives)


def build_candidate_kernels(basis: ReceiveBasis, W, constellation: Constellation,
                            sigma2, eta: float) -> CandidateKernels:
    """Kernels of the orbit representatives of every candidate (see `_orbits`).

    basis is the channel's `receive_basis`. Reusable across an SNR sweep;
    table positions follow the candidate order of `enumerate_candidates`.
    sigma2 is one dither variance, or a 1-D array of P of them: the kernel
    then has a leading axis of P points, built by one `symbol_kernel` call,
    and each point's kernel equals the one built at its variance alone.
    """
    if np.ndim(sigma2) > 1:
        raise ParameterError(f"sigma2 must be a number or a 1-D array, got shape "
                             f"{np.shape(sigma2)}")
    W = np.asarray(W)
    digits, orbit, turns, rep_symbols = _candidate_orbits(constellation.points.tobytes(),
                                                          W.shape[1])
    kernel = symbol_kernel(basis, rep_symbols @ W.T, sigma2, eta)
    return CandidateKernels(basis, digits, orbit, turns, kernel)


@lru_cache(maxsize=4)
def _candidate_orbits(points: bytes, n_streams: int):
    """(digits, orbit, turns, representatives' symbols) of the alphabet with these points.

    The candidates of `enumerate_candidates` and their `_orbits` depend on
    the alphabet and the stream count alone, so they are built once for each
    and shared, read-only, by every kernel build: a sweep builds kernels once
    per channel and stack of dither points.
    """
    constellation = Constellation(np.frombuffer(points, dtype=np.complex128))
    digits, symbols = enumerate_candidates(constellation, n_streams)
    representatives, orbit, turns = _orbits(constellation, digits)
    out = digits, orbit, turns, symbols[representatives]
    for a in out:
        a.flags.writeable = False
    return out


def points_per_group(constellation: Constellation, n_streams: int, n_rx: int,
                     n_vectors: int) -> int:
    """Dither points that share one stacked table and one `ml_detect_batch` call.

    As many as keep both the table's covariance stack, orbits x (2 n_rx)^2
    entries per point, and the call's turned rows, 4 x n_vectors x 2 n_rx
    entries per point, within BLOCK_ENTRIES, and at least one.
    """
    n_rep = _candidate_orbits(constellation.points.tobytes(), n_streams)[3].shape[0]
    return max(1, BLOCK_ENTRIES // max(n_rep * (2 * n_rx) ** 2, 8 * n_vectors * n_rx))


def build_candidate_table(kernels: CandidateKernels, rho: float) -> CandidateTable:
    """Cached detector statistics at transmit SNR rho from `build_candidate_kernels`.

    The representatives' covariance stack, flattened over (point, orbit) for
    stacked kernels, is factored in place, one `chol_logdet` call on each
    block of BLOCK_ENTRIES entries of it: each inverse Cholesky factor
    overwrites its covariance, no block is copied, and the stack becomes the
    table's inv_chol. Means, log-determinants and bound weights stay per
    orbit, and per point for stacked kernels (see `CandidateTable`). A
    covariance that is not positive definite raises FactorizationError
    naming the orbit representative's per-stream symbol indices and, in a
    stacked table, the point; its index is (point, orbit) or (orbit,).
    """
    mu, inv_chol = assemble_stats(kernels.kernel, rho)
    dim = inv_chol.shape[-1]
    stack = inv_chol.reshape(-1, dim, dim)
    logdet = np.empty(stack.shape[0])
    step = max(1, BLOCK_ENTRIES // (dim * dim))
    for lo in range(0, stack.shape[0], step):
        try:
            logdet[lo:lo + step] = chol_logdet(stack[lo:lo + step]).logdet
        except FactorizationError as exc:
            raise _candidate_error(exc, kernels, inv_chol.shape[:-2], lo) from None
    basis = kernels.basis
    weight = 1.0 / (0.5 + rho * kernels.kernel.dmax[..., None] * basis.lam)
    return CandidateTable(indices=kernels.indices, orbit=kernels.orbit, turns=kernels.turns,
                          mu=mu, inv_chol=inv_chol, logdet=logdet.reshape(inv_chol.shape[:-2]),
                          eigvecs=basis.V, weight=weight)


def _candidate_error(exc: FactorizationError, kernels: CandidateKernels, shape: tuple,
                     lo: int) -> FactorizationError:
    """exc from the block starting at row lo of the flattened stack of this shape,
    naming the failing representative by its symbol indices, and its point."""
    index = tuple(int(i) for i in np.unravel_index(lo + exc.index[0], shape))
    # the lowest position of an orbit holds its representative
    digits = tuple(int(v) for v in kernels.indices[np.argmax(kernels.orbit == index[-1])])
    where = f" at point {index[0]} of the stack" if len(index) > 1 else ""
    return FactorizationError(f"covariance of the candidate with symbol indices {digits}"
                              f"{where} is not positive definite at pivot {exc.pivot}",
                              pivot=exc.pivot, index=index)


def _turned_rows(Y: np.ndarray, table: CandidateTable) -> np.ndarray:
    """Received vectors (n, M) complex -> stacked-real rows Q^{-k} y', shape (4, n, 2M)."""
    if table.n_candidates == 0:
        raise ParameterError("candidate table is empty")
    Yp = stack_ri(np.atleast_2d(np.asarray(Y)))
    return np.stack([_turn(Yp, -k) for k in range(4)])


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal keys starts."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _score_pairs(Yt: np.ndarray, table: CandidateTable, rows: np.ndarray,
                 cands: np.ndarray) -> np.ndarray:
    """Exact objective of candidate cands[i] for received row rows[i].

    The pairs may mix orbits and, on a table of P points, points: row r is
    detected against point r // n, with n = Yt.shape[1] / P rows per point.
    Their residuals Q^{-k} y' - mu_r are gathered once, in (point, orbit)
    order (stable, so each keeps the given order of its pairs); each
    (point, orbit) slice then gets one product with its representative's
    factor, so a pair's score depends only on the rows its point and orbit
    share the product with, and no product mixes two points. The squared
    norm pairs each antenna's Re and Im terms, so a quarter turn of the
    residual only reorders additions that commute, and tied members of an
    orbit round identically.
    """
    dim = table.mu.shape[-1]
    key = table.orbit[cands] + rows // (Yt.shape[1] // table.n_points) * table.mu.shape[-2]
    order = np.argsort(key, kind="stable")
    key, cands = key[order], cands[order]
    # per-orbit fields flattened over (point, orbit): views
    inv_chol = table.inv_chol.reshape(-1, dim, dim)
    u = Yt[table.turns[cands], rows[order]] - table.mu.reshape(-1, dim)[key]
    starts = _run_starts(key)
    for lo, hi in zip(starts, [*starts[1:], key.size]):
        u[lo:hi] = u[lo:hi] @ inv_chol[key[lo]].T
    m = dim // 2
    np.square(u, out=u)
    u[:, :m] += u[:, m:]
    score = np.empty(key.size)
    score[order] = u[:, :m].sum(axis=1) + table.logdet.reshape(-1)[key]
    return score


def ml_detect_exhaustive(Y: np.ndarray, table: CandidateTable):
    """Reference ML: score every candidate exactly (see ml_detect_batch; a table of
    P points takes P n rows in point order)."""
    Yt = _turned_rows(Y, table)
    n = Yt.shape[1]
    rows = np.arange(n)
    best_score = np.full(n, np.inf)
    best = np.zeros(n, dtype=np.int64)
    for c in range(table.n_candidates):
        score = _score_pairs(Yt, table, rows, np.full(n, c))
        better = score < best_score
        best_score = np.where(better, score, best_score)
        best = np.where(better, c, best)
    return table.indices[best], best_score


def _bound_terms(Yp: np.ndarray, table: CandidateTable):
    """Operands of the pruning bound: bound[i, c] = (terms @ coef)[i, c].

    With z = V^T y' per row of Yp and m_c = V^T mu_c, terms is [z*z, z, 1]
    (n, 4M+1) and coef is [w_c - 4s, -2 w_c m_c, b_c]^T (4M+1, L^K), where
    s = BOUND_SLACK and
    b_c = logdet_c - s (1 + |logdet_c|) + sum(w_c m_c^2) - 4s ||m_c||^2.
    The one expansion of the per-orbit statistics to table positions:
    mu_c = Q^turns mu_r (exact), and logdet_c and w_c are the representative's.
    On a stacked table of P points it runs over all of them at once, and
    coef gets a leading axis of P: a row of point p is bounded by coef[p].
    """
    s = BOUND_SLACK
    orbit = table.orbit
    z = Yp @ table.eigvecs
    turned = np.stack([_turn(table.mu, k) for k in range(4)], axis=-3)
    m = turned[..., table.turns, orbit, :] @ table.eigvecs
    logdet, w = table.logdet[..., orbit], table.weight[..., orbit, :]
    wm = w * m
    b = (logdet - s * (1.0 + np.abs(logdet))
         + np.einsum("...ij,...ij->...i", wm, m) - 4.0 * s * np.einsum("...ij,...ij->...i", m, m))
    terms = np.concatenate([z * z, z, np.ones((z.shape[0], 1))], axis=1)
    coef = np.concatenate([w - 4.0 * s, -2.0 * wm, b[..., None]], axis=-1).swapaxes(-1, -2)
    return terms, coef


def _take_better(best_score: np.ndarray, best: np.ndarray, rows: np.ndarray,
                 cands: np.ndarray, score: np.ndarray) -> None:
    """Move each row's best to its pair where that scores lower, or equal at a lower position.

    rows are distinct. A NaN score never wins, and a row whose scores are all
    infinite keeps position 0, as in the exhaustive scan.
    """
    held = best_score[rows]
    better = (score < held) | ((score == held) & (cands < best[rows]))
    best_score[rows[better]] = score[better]
    best[rows[better]] = cands[better]


def _score_best_first(Yt, table, flat, bound, best_score, best) -> None:
    """Score held pairs, row * L^K + candidate in flat, in ascending bound per row.

    Every row's next pair is scored in one round, across the rows, until the
    row's next bound exceeds its best score. A bound is below its
    candidate's exact score, so no unscored candidate of that row can then
    win or tie.
    """
    n_cand = table.n_candidates
    # ascending (row, bound), sorted on one integer key: faster than np.lexsort
    key = np.empty(bound.size, dtype=np.int64)
    key[np.argsort(bound)] = np.arange(bound.size)
    key += flat // n_cand * bound.size
    order = np.argsort(key)
    rows, cands = np.divmod(flat[order], n_cand)
    bound = bound[order]
    nxt = _run_starts(rows)  # each row's next pair to score
    end = np.append(nxt[1:], rows.size)
    while nxt.size:
        r, c = rows[nxt], cands[nxt]
        _take_better(best_score, best, r, c, _score_pairs(Yt, table, r, c))
        nxt = nxt + 1
        go = nxt < end
        go[go] = bound[nxt[go]] <= best_score[r[go]]
        nxt, end = nxt[go], end[go]


def ml_detect_batch(Y: np.ndarray, table: CandidateTable):
    """ML decisions for a batch of received vectors, by a best-first pruned search.

    Y has shape (P n, M) complex for a table of P points (1 unless the
    table is stacked, see `CandidateTable`): rows p n ... (p + 1) n - 1 are
    detected against point p, so one call serves a run of dither points.
    Returns (indices (P n, K), scores (P n,)). Each score is the Gaussian
    objective (y'-mu)^T Sigma^{-1} (y'-mu) + logdet Sigma of the winning
    candidate; ties go to the lowest table position.

    Sigma_c = I/2 + rho He D_c He^T with D_c <= dmax_c I, so Sigma_c <=
    V diag(1/w_c) V^T (see `CandidateTable`) and every candidate's objective
    is at least logdet_c + sum_i w_ci (z_i - m_ci)^2, with z = V^T y' and
    m_c = V^T mu_c.
    The bound used is

        logdet_c - s (1 + |logdet_c|)
            + sum_i w_ci (z_i - m_ci)^2 - 4 s (||z||^2 + ||m_c||^2)

    with s = BOUND_SLACK, expanded so that one GEMM per block of vectors and
    point gives it (`_bound_terms`). Since w_ci <= 2, each term of the
    expansion is at most 4 (||z||^2 + ||m_c||^2) in size, so the slack
    covers its rounding, that of the eigenbasis and that of the exact
    scores: every bound lies below its candidate's exact score, and the
    winner is never ruled out. The vectors go in blocks of BLOCK_ENTRIES
    bound entries, whose bound GEMM is split where the block crosses from
    one point to the next. In each block, every vector's lowest-bound
    candidate is scored exactly and becomes its best; every other candidate
    whose bound does not exceed that score survives, and is held with its
    bound, across blocks up to SURVIVOR_CAP pairs. At the flush each
    vector's survivors are scored in ascending bound, one per vector per
    round (`_score_best_first`), and a vector stops once its next bound
    exceeds its best score. Exact scores
    come from `_score_pairs`, the arithmetic of `ml_detect_exhaustive`, and
    the best is the lowest score, then the lowest position, so the decision
    is the exhaustive one. Scores can differ from the exhaustive ones by
    rounding only, because a product over a subset of the rows need not
    round like one over all of them.
    """
    Yt = _turned_rows(Y, table)
    n_rows, n_cand, n_points = Yt.shape[1], table.n_candidates, table.n_points
    if n_rows % n_points:
        raise ParameterError(f"{n_rows} received rows do not split evenly over "
                             f"{n_points} points")
    n = n_rows // n_points
    terms, coef = _bound_terms(Yt[0], table)
    if coef.ndim == 2:
        coef = coef[None]

    step = max(1, BLOCK_ENTRIES // n_cand)
    best_score = np.full(n_rows, np.inf)
    best = np.zeros(n_rows, dtype=np.int64)
    held, n_held = [], 0
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        rows = np.arange(lo, hi)
        bound = np.empty((hi - lo, n_cand))
        for p in range(lo // n, (hi - 1) // n + 1):
            a, b = max(lo, p * n), min(hi, (p + 1) * n)
            np.matmul(terms[a:b], coef[p], out=bound[a - lo:b - lo])
        first = np.argmin(bound, axis=1)
        _take_better(best_score, best, rows, first,
                     _score_pairs(Yt, table, rows, first))
        keep = bound <= best_score[lo:hi, None]
        keep[rows - lo, first] = False
        flat = np.flatnonzero(keep)
        held.append((flat + lo * n_cand, bound.ravel()[flat]))
        n_held += flat.size
        if hi < n_rows and n_held < SURVIVOR_CAP:
            continue
        flat, bound = (np.concatenate(part) for part in zip(*held))
        held, n_held = [], 0
        _score_best_first(Yt, table, flat, bound, best_score, best)
    return table.indices[best], best_score


# ---------------------------------------------------------------------------
# linearized-MMSE baseline
# ---------------------------------------------------------------------------

def blmmse_combiner(H, W, B, C_xq, rho: float) -> np.ndarray:
    """Linear combiner sqrt(rho) C_y^{-1} H B W for the linearized chain.

    B is the equivalent quantizer gain, a diagonal matrix, and C_xq the
    unconditional quantizer output covariance (both for the Gaussian-symbol
    model); the soft symbol estimate is V^H y. H B is formed as H times B's
    diagonal, column by column: the same bits as the matrix product, whose
    other terms are exact zeros.
    """
    H = np.asarray(H)
    C_y = cov_y_unconditional(H, C_xq, rho)
    return np.sqrt(rho) * np.linalg.solve(C_y, (H * np.diag(B)) @ np.asarray(W))


def slice_min_distance_batch(S_soft: np.ndarray, constellation: Constellation):
    """Per-stream minimum-distance slicing of soft symbol estimates.

    Returns (indices, distances) with the same leading shape as S_soft; ties
    go to the lowest constellation index.
    """
    S_soft = np.asarray(S_soft)
    d2 = np.abs(S_soft[..., None] - constellation.points) ** 2
    idx = np.argmin(d2, axis=-1)
    return idx, np.take_along_axis(d2, idx[..., None], axis=-1)[..., 0]

