import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf

from onebitlink import detect
from onebitlink.core import (FactorizationError, ParameterError, chol_logdet,
                             make_constellation, qam16, qpsk, quantize_1bit, substream)
from onebitlink.detect import (CandidateTable, build_candidate_kernels,
                               build_candidate_table, blmmse_combiner,
                               enumerate_candidates, ml_detect_batch,
                               ml_detect_exhaustive, slice_min_distance_batch)
from onebitlink.oracle import mc_gaussian_loglike
from onebitlink.stats import (assemble_stats, conditional_moments, embed, lmmse_gain,
                              receive_basis, stack_ri, symbol_kernel)
from onebitlink.txchain import bussgang_gain, cov_xd, cov_xq_unconditional


def _system(seed, n=6, m=2, k=1):
    rng = substream(seed, 60)
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    return H, W, rng


def _table(H, W, constellation, sigma2, eta, rho):
    return build_candidate_table(
        build_candidate_kernels(receive_basis(H), W, constellation, sigma2, eta), rho)


def _direct_stats(H, W, constellation, sigma2, eta, rho):
    # (mu, Sigma) of every candidate, built without the quarter-turn symmetry
    _, symbols = enumerate_candidates(constellation, W.shape[1])
    return assemble_stats(symbol_kernel(receive_basis(H), symbols @ W.T, sigma2, eta), rho)


def _pack(full):
    # upper triangles of the (..., d, d) matrices full, in np.triu_indices
    # order: the layout of SymbolKernel.inner
    i, j = np.triu_indices(full.shape[-1])
    return full[..., i, j]


def _position_chol(table, c):
    # lower factor of table position c: Q^k L_r with Q = embed(j I), so that
    # Sigma_c = Q^k L_r L_r^T Q^-k
    m = table.mu.shape[1] // 2
    Qk = np.linalg.matrix_power(embed(1j * np.eye(m)), int(table.turns[c]))
    return Qk @ np.linalg.inv(table.inv_chol[table.orbit[c]])


def _position_means(table):
    # every table position's mean Q^turns mu_r, with Q = embed(j I) and mu_r
    # its orbit's representative mean
    Q = embed(1j * np.eye(table.mu.shape[1] // 2))
    Qk = np.stack([np.linalg.matrix_power(Q, k) for k in range(4)])
    return (Qk[table.turns] @ table.mu[table.orbit][:, :, None])[:, :, 0]


def _fields(table, pos):
    # the per-position fields of a table, taken at positions pos; the
    # per-orbit fields stay as they are
    return dict(indices=table.indices[pos], orbit=table.orbit[pos], turns=table.turns[pos])


def test_enumerate_candidates_order_and_cover():
    digits, symbols = enumerate_candidates(qpsk(), 2)
    assert digits.shape == (16, 2)
    # stream 0 is the most significant digit
    assert np.array_equal(digits[1], [0, 1])
    assert np.array_equal(digits[4], [1, 0])
    # covers the product set exactly once
    assert len({tuple(r) for r in digits.tolist()}) == 16
    assert_allclose(symbols, qpsk().points[digits], atol=0)


def test_enumerate_refuses_oversized_table():
    # 16^5 > MAX_TABLE: refused before anything is allocated
    with pytest.raises(ParameterError):
        enumerate_candidates(qam16(), 5)


def test_kernel_builds_share_one_read_only_enumeration(monkeypatch):
    # the candidates and their orbits depend on the alphabet and K alone, so
    # builds at other dither powers reuse them, read-only
    calls = []
    monkeypatch.setattr(detect, "enumerate_candidates",
                        lambda *a: calls.append(a) or enumerate_candidates(*a))
    detect._candidate_orbits.cache_clear()
    H, W, _ = _system(3, n=6, m=2, k=2)
    basis = receive_basis(H)
    first = build_candidate_kernels(basis, W, qam16(), 0.05, 1.0 / 6)
    again = build_candidate_kernels(basis, W, make_constellation("16qam"), 0.5, 1.0 / 6)
    assert len(calls) == 1
    for name in ("indices", "orbit", "turns"):
        assert getattr(again, name) is getattr(first, name)
        assert not getattr(first, name).flags.writeable
    assert not np.array_equal(first.kernel.inner, again.kernel.inner)
    other = build_candidate_kernels(basis, W, qpsk(), 0.05, 1.0 / 6)
    assert len(calls) == 2 and other.indices.shape == (16, 2)


def test_ml_matches_dense_inverse_oracle():
    H, W, rng = _system(1, n=6, m=2, k=1)
    sigma2, eta, rho = 0.05, 1.0 / 6, 3.0
    table = _table(H, W, qpsk(), sigma2, eta, rho)
    mu, Sigma = _direct_stats(H, W, qpsk(), sigma2, eta, rho)
    Y = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    got, scores = ml_detect_batch(Y, table)
    Yp = np.concatenate([Y.real, Y.imag], axis=1)
    for t in range(Y.shape[0]):
        objs = [mc_gaussian_loglike(Yp[t], mu[c], Sigma[c])
                for c in range(table.n_candidates)]
        want = int(np.argmin(objs))
        assert got[t, 0] == table.indices[want, 0]
        assert scores[t] == pytest.approx(objs[want], rel=1e-8)


def test_ml_invariant_to_constant_logdet_shift():
    H, W, rng = _system(3)
    table = _table(H, W, qam16(), 0.08, 1.0 / 6, 4.0)
    Y = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    shifted = dataclasses.replace(table, logdet=table.logdet + 7.0)
    a, _ = ml_detect_batch(Y, table)
    b, _ = ml_detect_batch(Y, shifted)
    assert np.array_equal(a, b)


def test_ml_degenerate_single_candidate():
    H, W, rng = _system(4)
    table = _table(H, W, make_constellation("single"), 0.1, 1.0 / 6, 1.0)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    idx, score = ml_detect_batch(y[None], table)
    assert np.array_equal(idx, [[0]])
    assert np.isfinite(score[0])


def test_ml_prefers_own_mean_and_breaks_ties_low():
    H, W, rng = _system(5)
    base = _table(H, W, qpsk(), 0.1, 1.0 / 6, 2.0)
    # two candidates with identical statistics: position 0 must win, whether
    # they are two orbits with equal factors or one orbit at two positions
    Y = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    for orbit, orbits in (([0, 1], 2), ([0, 0], 1)):
        dup = CandidateTable(indices=np.array([[0], [1]]), orbit=np.array(orbit),
                             turns=np.zeros(2, dtype=np.int64),
                             mu=np.repeat(base.mu[:1], orbits, axis=0),
                             inv_chol=np.repeat(base.inv_chol[:1], orbits, axis=0),
                             logdet=np.repeat(base.logdet[:1], orbits), eigvecs=base.eigvecs,
                             weight=np.repeat(base.weight[:1], orbits, axis=0))
        got, _ = ml_detect_batch(Y, dup)
        assert np.all(got == 0)
    # y placed exactly at candidate c's mean, shared covariance -> c wins
    shared = CandidateTable(indices=base.indices, orbit=np.arange(4),
                            turns=np.zeros(4, dtype=np.int64), mu=_position_means(base),
                            inv_chol=np.repeat(base.inv_chol[:1], 4, axis=0),
                            logdet=np.repeat(base.logdet[:1], 4), eigvecs=base.eigvecs,
                            weight=np.repeat(base.weight[:1], 4, axis=0))
    m = H.shape[0]
    for c in range(4):
        y = shared.mu[c][:m] + 1j * shared.mu[c][m:]
        idx, _ = ml_detect_batch(y[None], shared)
        assert np.array_equal(idx[0], shared.indices[c])


def test_ml_rejects_empty_table():
    H, W, rng = _system(6)
    base = _table(H, W, qpsk(), 0.1, 1.0 / 6, 2.0)
    empty = dataclasses.replace(base, **_fields(base, slice(0, 0)))
    with pytest.raises(ParameterError):
        ml_detect_batch(np.zeros((1, 2), dtype=complex), empty)
    with pytest.raises(ParameterError):
        ml_detect_exhaustive(np.zeros((1, 2), dtype=complex), empty)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0),
       rho=st.one_of(st.just(0.0), st.just(1e4), st.floats(0.0, 1e4)),
       const=st.sampled_from(["qpsk", "16qam"]),
       draw=st.sampled_from(["model", "random", "means", "duplicates"]))
@example(seed=1, n=6, m=3, k=2, sigma2=0.1, rho=0.0, const="qpsk", draw="random")
@example(seed=2, n=6, m=3, k=1, sigma2=0.1, rho=1e4, const="16qam", draw="means")
@example(seed=3, n=6, m=4, k=2, sigma2=0.1, rho=3.0, const="qpsk", draw="duplicates")
@example(seed=4, n=8, m=6, k=3, sigma2=0.01, rho=1e4, const="qpsk", draw="model")
# 2M = 34 and 66 covariances, factored by the block recursion of chol_logdet
@example(seed=5, n=8, m=17, k=2, sigma2=0.1, rho=3.0, const="16qam", draw="model")
@example(seed=6, n=6, m=33, k=2, sigma2=0.05, rho=1e4, const="16qam", draw="means")
def test_pruned_ml_equals_exhaustive(seed, n, m, k, sigma2, rho, const, draw):
    k = min(k, n, m)
    if const == "16qam":
        k = min(k, 2)
    constellation = make_constellation(const)
    H, W, rng = _system(seed, n=n, m=m, k=k)
    eta = 1.0 / n
    table = _table(H, W, constellation, sigma2, eta, rho)
    Sigma = _direct_stats(H, W, constellation, sigma2, eta, rho)[1]
    # each candidate's covariance lies below its bound matrix V diag(1/w) V^T
    V, w = table.eigvecs, table.weight[table.orbit]
    gap = np.linalg.eigvalsh((V / w[:, None, :]) @ V.T - Sigma).min(axis=1)
    assert np.all(gap >= -1e-12 * np.abs(Sigma).max(axis=(1, 2)))
    nv = 64
    if draw == "random":
        Y = np.sqrt(1.0 + rho) * (rng.standard_normal((nv, m))
                                  + 1j * rng.standard_normal((nv, m)))
    elif draw == "means":
        picked = _position_means(table)[rng.integers(0, table.n_candidates, nv)]
        Y = picked[:, :m] + 1j * picked[:, m:]
    else:
        if draw == "duplicates":
            # every candidate at two or more table positions, shuffled
            pos = rng.permutation(np.r_[np.arange(table.n_candidates),
                                        rng.integers(0, table.n_candidates, table.n_candidates)])
            table = dataclasses.replace(table, **_fields(table, pos))
        S = constellation.points[table.indices[rng.integers(0, table.n_candidates, nv)]]
        D = (rng.standard_normal((nv, n)) + 1j * rng.standard_normal((nv, n))) * np.sqrt(sigma2 / 2)
        Z = (rng.standard_normal((nv, m)) + 1j * rng.standard_normal((nv, m))) / np.sqrt(2)
        Y = np.sqrt(rho) * quantize_1bit(S @ W.T + D, eta) @ H.T + Z
    got, got_score = ml_detect_batch(Y, table)
    want, want_score = ml_detect_exhaustive(Y, table)
    assert np.array_equal(got, want)
    assert_allclose(got_score, want_score, rtol=1e-12)
    if rho == 0.0:
        # mu = 0 and Sigma = I/2 for every candidate: all scores tie
        assert np.all(got == table.indices[0])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0),
       rho=st.sampled_from([0.0, 3.0, 1e4]), const=st.sampled_from(["qpsk", "16qam"]),
       draw=st.sampled_from(["model", "random", "means"]))
@example(seed=1, n=2, m=5, k=1, sigma2=0.1, rho=1e4, const="16qam", draw="model")
@example(seed=2, n=3, m=9, k=2, sigma2=0.05, rho=3.0, const="qpsk", draw="means")
@example(seed=3, n=2, m=6, k=2, sigma2=0.5, rho=1e4, const="16qam", draw="random")
# M = 17 and 33 (2M = 34 and 66), past the order where chol_logdet recurses
@example(seed=4, n=4, m=17, k=2, sigma2=0.1, rho=3.0, const="16qam", draw="model")
@example(seed=5, n=3, m=33, k=2, sigma2=0.05, rho=1e4, const="qpsk", draw="means")
def test_bound_never_exceeds_the_exact_score(seed, n, m, k, sigma2, rho, const, draw):
    # the pruning bound of every (row, candidate) pair against the exact
    # score, at rho 0, 3 and 1e4, and on channels with M > N (zero
    # eigenvalues of embed(H H^H))
    k = min(k, n, m, 2 if const == "16qam" else 3)
    constellation = make_constellation(const)
    H, W, rng = _system(seed, n=n, m=m, k=k)
    eta = 1.0 / n
    table = _table(H, W, constellation, sigma2, eta, rho)
    nv = 32
    if draw == "random":
        Y = np.sqrt(1.0 + rho) * (rng.standard_normal((nv, m))
                                  + 1j * rng.standard_normal((nv, m)))
    elif draw == "means":
        picked = _position_means(table)[rng.integers(0, table.n_candidates, nv)]
        Y = picked[:, :m] + 1j * picked[:, m:]
    else:
        S = constellation.points[table.indices[rng.integers(0, table.n_candidates, nv)]]
        D = (rng.standard_normal((nv, n)) + 1j * rng.standard_normal((nv, n))) * np.sqrt(sigma2 / 2)
        Z = (rng.standard_normal((nv, m)) + 1j * rng.standard_normal((nv, m))) / np.sqrt(2)
        Y = np.sqrt(rho) * quantize_1bit(S @ W.T + D, eta) @ H.T + Z
    Yt = detect._turned_rows(Y, table)
    terms, coef = detect._bound_terms(Yt[0], table)
    rows, cands = np.divmod(np.arange(nv * table.n_candidates), table.n_candidates)
    score = detect._score_pairs(Yt, table, rows, cands)
    assert np.all(terms @ coef <= score.reshape(nv, -1))


@pytest.mark.parametrize("m", [6, 17])
def test_table_refuses_a_covariance_that_is_not_positive_definite(m):
    # take the I/2 floor and a little more off every covariance, leaving
    # rho He D He^T - e I: indefinite when M > N, so the table build raises;
    # 2M = 34 goes through the block recursion
    rho = 3.0
    H, W, _ = _system(3, n=2, m=m, k=2)
    kernels = build_candidate_kernels(receive_basis(H), W, qpsk(), 0.5, 0.5)
    inner, eye = kernels.kernel.inner, _pack(np.eye(2 * m))
    e = 1e-10 * (inner * eye).sum(axis=1).max() * rho / (2 * m)
    inner = inner - (0.5 + e) / rho * eye
    kernels = kernels._replace(kernel=dataclasses.replace(kernels.kernel, inner=inner))
    with pytest.raises(FactorizationError, match="not positive definite at pivot"):
        build_candidate_table(kernels, rho)


# dither variances of -10, 0, 10, 20 and again -10 dBm: the last revisits the first
GRID = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1e-4])


@pytest.mark.parametrize("const, k, n, m, blocks", [
    ("16qam", 1, 12, 3, None), ("qpsk", 2, 12, 3, None), ("16qam", 1, 128, 16, None),
    ("16qam", 1, 12, 3, 3), ("qpsk", 2, 12, 3, 5)])
def test_stacked_points_equal_the_per_point_builds(monkeypatch, const, k, n, m, blocks):
    # every point of a stacked build against the build at its variance alone,
    # bit for bit: the fields, then the decisions and scores of detection on
    # the point's slice. With blocks set, the flattened (point, orbit) stack is
    # factored `blocks` covariances at a time, so blocks mix points.
    constellation = make_constellation(const)
    H, W, rng = _system(11, n=n, m=m, k=k)
    eta, rho, dim = 1.0 / n, 3.0, 2 * m
    basis = receive_basis(H)
    per_point = [_table(H, W, constellation, s2, eta, rho) for s2 in GRID]
    if blocks is not None:
        monkeypatch.setattr(detect, "BLOCK_ENTRIES", blocks * dim * dim)
    kernels = build_candidate_kernels(basis, W, constellation, GRID, eta)
    stacked = build_candidate_table(kernels, rho)
    orbits = constellation.size ** k // 4
    assert kernels.kernel.inner.shape == (GRID.size, orbits, dim * (dim + 1) // 2)
    assert stacked.inv_chol.shape == (GRID.size, orbits, dim, dim)
    assert stacked.n_candidates == constellation.size ** k
    Y = rng.standard_normal((50, m)) + 1j * rng.standard_normal((50, m))
    for p, want in enumerate(per_point):
        got = stacked.point(p)
        for name in ("mu", "inv_chol", "logdet", "weight"):
            field = getattr(got, name)
            assert np.array_equal(field, getattr(want, name)), name
            assert field.base is not None and np.shares_memory(field, getattr(stacked, name))
        for name in ("indices", "orbit", "turns", "eigvecs"):
            assert getattr(got, name) is getattr(stacked, name)
        got_idx, got_score = ml_detect_batch(Y, got)
        want_idx, want_score = ml_detect_batch(Y, want)
        assert np.array_equal(got_idx, want_idx)
        assert np.array_equal(got_score, want_score)
    # the revisited variance gives the first point's table again
    assert np.array_equal(stacked.inv_chol[0], stacked.inv_chol[-1])


def test_scalar_variance_keeps_the_unstacked_shapes():
    H, W, _ = _system(11, n=12, m=3, k=2)
    kernels = build_candidate_kernels(receive_basis(H), W, qpsk(), 0.01, 1.0 / 12)
    table = build_candidate_table(kernels, 3.0)
    assert kernels.kernel.inner.shape == (4, 21)
    assert table.mu.shape == (4, 6) and table.logdet.shape == (4,)
    assert table.weight.shape == (4, 6) and table.inv_chol.shape == (4, 6, 6)
    with pytest.raises(ParameterError, match="1-D"):
        build_candidate_kernels(receive_basis(H), W, qpsk(), GRID[None], 1.0 / 12)


def test_points_per_table_fills_one_factorization_block():
    # orbits x (2M)^2 covariance entries per point against BLOCK_ENTRIES = 2^19
    assert detect.points_per_table(qam16(), 1, 16) == 2 ** 19 // (4 * 32 ** 2)
    assert detect.points_per_table(qam16(), 2, 64) == 1   # 64 x 128^2 = 2^20
    assert detect.points_per_table(qam16(), 3, 16) == 1   # 1024 x 32^2 = 2^20
    assert detect.points_per_table(make_constellation("single"), 1, 1) == 2 ** 17


def _broken(kernels, point, orbit):
    # the kernel with one representative's covariance made indefinite at rho 3:
    # rho * inner + I/2 with inner = -I
    inner = kernels.kernel.inner.copy()
    at = (point, orbit) if point is not None else (orbit,)
    inner[at] = -_pack(np.eye(kernels.kernel.mean_core.shape[-1]))
    return kernels._replace(kernel=dataclasses.replace(kernels.kernel, inner=inner))


@pytest.mark.parametrize("stacked", [False, True])
def test_factorization_error_names_the_candidate_in_a_later_block(monkeypatch, stacked):
    # 16 orbits of 16-QAM at K = 2, factored 3 at a time: orbit 13 sits in
    # the fifth block, at row 1 of it
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 3 * 6 * 6)
    H, W, _ = _system(12, n=12, m=3, k=2)
    sigma2 = GRID[:2] if stacked else 0.01
    kernels = build_candidate_kernels(receive_basis(H), W, qam16(), sigma2, 1.0 / 12)
    kernels = _broken(kernels, 1 if stacked else None, 13)
    rep = kernels.indices[np.flatnonzero(kernels.orbit == 13)[0]]
    assert kernels.turns[np.flatnonzero(kernels.orbit == 13)[0]] == 0
    where = " at point 1 of the stack" if stacked else ""
    message = (f"covariance of the candidate with symbol indices ({rep[0]}, {rep[1]}){where} "
               "is not positive definite at pivot 0")
    with pytest.raises(FactorizationError, match=f"^{re.escape(message)}$") as exc:
        build_candidate_table(kernels, 3.0)
    assert exc.value.index == ((1, 13) if stacked else (13,))
    assert exc.value.pivot == 0


def test_factorization_error_names_a_later_point_of_a_stack():
    # one block holds the whole stack; the failing covariance is orbit 2 of
    # the fourth point, row 4 * 3 + 2 of the block
    H, W, _ = _system(12, n=12, m=3, k=1)
    kernels = build_candidate_kernels(receive_basis(H), W, qam16(), GRID, 1.0 / 12)
    kernels = _broken(kernels, 3, 2)
    with pytest.raises(FactorizationError, match=r"\(\d+,\) at point 3 of the stack is not "
                                                 r"positive definite at pivot 0$") as exc:
        build_candidate_table(kernels, 3.0)
    assert exc.value.index == (3, 2)
    digits = re.search(r"indices \((\d+),\)", str(exc.value)).group(1)
    assert kernels.orbit[int(digits)] == 2 and kernels.turns[int(digits)] == 0


@pytest.mark.parametrize("const, k", [("16qam", 2), ("qpsk", 3), ("single", 2)])
def test_pair_scorer_equals_each_orbit_scored_alone(const, k):
    # one call over a shuffled mix of orbits against each orbit's pairs scored
    # alone by a local product with its factor: the same product over the same
    # rows, so the same bits. "single" has one candidate, its own orbit.
    H, W, rng = _system(20, n=6, m=3, k=k)
    table = _table(H, W, make_constellation(const), 0.1, 1.0 / 6, 30.0)
    Y = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    Yt = detect._turned_rows(Y, table)
    rows = rng.integers(0, 40, 600)
    cands = rng.integers(0, table.n_candidates, 600)
    got = detect._score_pairs(Yt, table, rows, cands)
    orbits = table.orbit[cands]
    for o in np.unique(orbits):
        at = np.flatnonzero(orbits == o)
        r, c = rows[at], cands[at]
        u = (Yt[table.turns[c], r] - table.mu[o]) @ table.inv_chol[o].T
        u = u * u
        want = (u[:, :3] + u[:, 3:]).sum(axis=1) + table.logdet[o]
        assert np.array_equal(got[at], want)
    assert detect._score_pairs(Yt, table, rows[:0], cands[:0]).shape == (0,)


def test_nan_row_decides_position_zero_with_infinite_score():
    # a NaN received row: every bound and score is NaN, so no candidate beats
    # the exhaustive scan's start, position 0 at score inf; other rows unaffected
    H, W, rng = _system(21, n=6, m=3, k=2)
    table = _table(H, W, qam16(), 0.1, 1.0 / 6, 30.0)
    Y = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    Y[7, 1] = np.nan
    got, got_score = ml_detect_batch(Y, table)
    want, want_score = ml_detect_exhaustive(Y, table)
    assert np.array_equal(got, want)
    assert np.array_equal(got[7], table.indices[0]) and got_score[7] == np.inf
    assert want_score[7] == np.inf
    assert_allclose(got_score, want_score, rtol=1e-12)


def test_equal_scores_with_unequal_bounds_go_to_the_lower_position():
    # positions 0 and 1 share mean, log-determinant and factor, so their
    # scores are equal bits; position 1's orbit has half the weights, so its
    # bound is lower and it is scored first. Position 0 must still win.
    H, W, rng = _system(22)
    base = _table(H, W, qpsk(), 0.1, 1.0 / 6, 2.0)
    tie = CandidateTable(indices=np.array([[0], [1]]), orbit=np.array([0, 1]),
                         turns=np.zeros(2, dtype=np.int64), mu=np.repeat(base.mu[:1], 2, axis=0),
                         inv_chol=np.repeat(base.inv_chol[:1], 2, axis=0),
                         logdet=np.repeat(base.logdet[:1], 2), eigvecs=base.eigvecs,
                         weight=base.weight[:1] * np.array([[1.0], [0.5]]))
    Y = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    for y in Y:
        # one vector per call, so both positions' products cover the same row
        terms, coef = detect._bound_terms(stack_ri(y[None]), tie)
        bound = (terms @ coef)[0]
        assert bound[1] < bound[0]
        idx, score = ml_detect_batch(y[None], tie)
        want, want_score = ml_detect_exhaustive(y[None], tie)
        assert idx[0, 0] == 0 and want[0, 0] == 0
        assert score[0] == want_score[0]


def test_best_first_scores_no_more_than_the_first_threshold_leaves(monkeypatch):
    # K = 3 at rho 1e4: per row, no more exact scores than the first
    # threshold's own plus one per candidate whose bound does not exceed it
    H, W, rng = _system(23, n=8, m=6, k=3)
    table = _table(H, W, qpsk(), 0.01, 1.0 / 8, 1e4)
    nv = 200
    S = qpsk().points[table.indices[rng.integers(0, table.n_candidates, nv)]]
    D = (rng.standard_normal((nv, 8)) + 1j * rng.standard_normal((nv, 8))) * np.sqrt(0.005)
    Z = (rng.standard_normal((nv, 6)) + 1j * rng.standard_normal((nv, 6))) / np.sqrt(2)
    Y = 100.0 * quantize_1bit(S @ W.T + D, 1.0 / 8) @ H.T + Z
    scored = np.zeros(nv, dtype=np.int64)
    score_pairs = detect._score_pairs

    def counted(Yt, table, rows, cands):
        np.add.at(scored, rows, 1)
        return score_pairs(Yt, table, rows, cands)

    monkeypatch.setattr(detect, "_score_pairs", counted)
    got, _ = ml_detect_batch(Y, table)
    monkeypatch.undo()
    assert np.array_equal(got, ml_detect_exhaustive(Y, table)[0])
    Yt = detect._turned_rows(Y, table)
    terms, coef = detect._bound_terms(Yt[0], table)
    bound = terms @ coef
    first = np.argmin(bound, axis=1)
    threshold = score_pairs(Yt, table, np.arange(nv), first)
    allowed = 1 + (bound <= threshold[:, None]).sum(axis=1)
    assert np.all(scored >= 1) and np.all(scored <= allowed)
    assert scored.sum() < allowed.sum()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rho", [0.0, 3.0, 1e4])
def test_pruned_ml_across_blocks_and_flushes(monkeypatch, rho, seed):
    # 7-row blocks and a 1000-pair survivor buffer: a 45-vector batch spans
    # seven blocks, the last one short; survivors are held across blocks
    # (at rho 3 and 1e4), and the buffer is scored before the batch ends
    H, W, rng = _system(seed, n=6, m=3, k=2)
    table = _table(H, W, qam16(), 0.1, 1.0 / 6, rho)
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 7 * table.n_candidates)
    monkeypatch.setattr(detect, "SURVIVOR_CAP", 1000)
    nv = 45
    S = qam16().points[table.indices[rng.integers(0, table.n_candidates, nv)]]
    D = (rng.standard_normal((nv, 6)) + 1j * rng.standard_normal((nv, 6))) * np.sqrt(0.05)
    Z = (rng.standard_normal((nv, 3)) + 1j * rng.standard_normal((nv, 3))) / np.sqrt(2)
    Y = np.sqrt(rho) * quantize_1bit(S @ W.T + D, 1.0 / 6) @ H.T + Z
    got, got_score = ml_detect_batch(Y, table)
    want, want_score = ml_detect_exhaustive(Y, table)
    assert np.array_equal(got, want)
    assert_allclose(got_score, want_score, rtol=1e-12)
    idx, score = ml_detect_batch(Y[:0], table)
    assert idx.shape == (0, 2) and score.shape == (0,)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0), rho=st.floats(0.0, 100.0))
@example(seed=7, n=6, m=2, k=2, sigma2=0.2, rho=5.0)
@example(seed=8, n=8, m=6, k=3, sigma2=0.01, rho=100.0)
def test_stacked_table_matches_term_by_term_route(seed, n, m, k, sigma2, rho):
    # every candidate of the batched build against the per-candidate
    # effective-noise assembly, with the signal part sqrt(rho) H G x added back
    H, W, _ = _system(seed, n=n, m=m, k=min(k, n))
    eta = 1.0 / n
    constellation = qpsk()
    table = _table(H, W, constellation, sigma2, eta, rho)
    X = constellation.points[table.indices] @ W.T
    mu = _position_means(table)
    for c, x in enumerate(X):
        G = lmmse_gain(x, sigma2, eta)
        ref = conditional_moments(x, H, G, sigma2, eta, rho)
        mu_n = ref["noise_mean"]
        L = _position_chol(table, c)
        assert np.max(np.abs(mu[c] - (np.sqrt(rho) * stack_ri(H @ G @ x) + mu_n))) < 1e-10
        assert np.max(np.abs(L @ L.T - (ref["noise_cov"] - np.outer(mu_n, mu_n)))) < 1e-10


def _close(got, want, rel=1e-12):
    # within rel of the largest entry of want
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0),
       rho=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
       const=st.sampled_from(["qpsk", "16qam", "single"]))
@example(seed=7, n=6, m=3, k=2, sigma2=0.2, rho=5.0, const="16qam")
@example(seed=8, n=8, m=6, k=3, sigma2=0.01, rho=1e4, const="qpsk")
@example(seed=2, n=1, m=5, k=1, sigma2=1.0, rho=606.0, const="single")
@example(seed=9, n=8, m=17, k=2, sigma2=0.1, rho=3.0, const="16qam")
@example(seed=10, n=6, m=33, k=2, sigma2=0.01, rho=1e4, const="16qam")
def test_quarter_table_matches_direct_full_build(seed, n, m, k, sigma2, rho, const):
    # every table position against symbol_kernel + assemble_stats + chol_logdet
    # over all L^K candidates, with no use of the quarter-turn symmetry
    k = min(k, n, 2 if const == "16qam" else 3)
    constellation = make_constellation(const)
    H, W, _ = _system(seed, n=n, m=m, k=k)
    eta = 1.0 / n
    table = _table(H, W, constellation, sigma2, eta, rho)
    mu, Sigma = _direct_stats(H, W, constellation, sigma2, eta, rho)
    fac = chol_logdet(Sigma)
    n_cand = constellation.size ** k
    assert table.n_candidates == n_cand
    # one row per orbit in every per-orbit field
    orbits = n_cand if const == "single" else n_cand // 4
    for field in (table.mu, table.logdet, table.inv_chol, table.weight):
        assert field.shape[0] == orbits
    assert _close(_position_means(table), mu)
    assert _close(table.logdet[table.orbit], fac.logdet)
    # bound weights 1/(1/2 + rho dmax lam) with every candidate's own dmax:
    # the orbit's weights hold for each of its members. lam is the basis's
    # (test_receive_basis_eigenbasis checks it): a second eigensolver's zero
    # eigenvalues differ by about eps lam_max, which the weights scale by
    # rho dmax w^2, up to 2e4
    _, symbols = enumerate_candidates(constellation, k)
    phi = erf(stack_ri(symbols @ W.T) / np.sqrt(sigma2))
    dmax = (eta / 2.0 * (1.0 - phi * phi)).max(axis=1)
    lam = receive_basis(H).lam
    assert _close(table.weight[table.orbit], 1.0 / (0.5 + rho * dmax[:, None] * lam))
    for c in range(n_cand):
        L = _position_chol(table, c)
        assert _close(L @ L.T, Sigma[c])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0),
       rho=st.one_of(st.just(0.0), st.just(1e4), st.floats(0.0, 1e4)),
       const=st.sampled_from(["qpsk", "16qam", "single"]),
       draw=st.sampled_from(["model", "random"]))
@example(seed=1, n=6, m=3, k=2, sigma2=0.1, rho=0.0, const="qpsk", draw="random")
@example(seed=4, n=8, m=6, k=2, sigma2=0.01, rho=1e4, const="16qam", draw="model")
def test_quarter_table_decisions_match_direct_full_table(seed, n, m, k, sigma2, rho,
                                                          const, draw):
    # pruned search on the quarter table against a brute-force argmin over a
    # table built directly for all L^K candidates (ties to the lowest position)
    k = min(k, n, 2 if const == "16qam" else 3)
    constellation = make_constellation(const)
    H, W, rng = _system(seed, n=n, m=m, k=k)
    eta = 1.0 / n
    table = _table(H, W, constellation, sigma2, eta, rho)
    mu, Sigma = _direct_stats(H, W, constellation, sigma2, eta, rho)
    fac = chol_logdet(Sigma)
    nv = 64
    if draw == "random":
        Y = np.sqrt(1.0 + rho) * (rng.standard_normal((nv, m))
                                  + 1j * rng.standard_normal((nv, m)))
    else:
        S = constellation.points[table.indices[rng.integers(0, table.n_candidates, nv)]]
        D = (rng.standard_normal((nv, n)) + 1j * rng.standard_normal((nv, n))) * np.sqrt(sigma2 / 2)
        Z = (rng.standard_normal((nv, m)) + 1j * rng.standard_normal((nv, m))) / np.sqrt(2)
        Y = np.sqrt(rho) * quantize_1bit(S @ W.T + D, eta) @ H.T + Z
    diff = stack_ri(Y)[None, :, :] - mu[:, None, :]            # (L^K, nv, 2M)
    u = fac.inv_factor @ diff.transpose(0, 2, 1)               # L^{-1} (y' - mu)
    scores = (u ** 2).sum(axis=1) + fac.logdet[:, None]       # (L^K, nv)
    got, _ = ml_detect_batch(Y, table)
    assert np.array_equal(got, table.indices[np.argmin(scores, axis=0)])
    if rho == 0.0:
        assert np.all(got == table.indices[0])


def test_per_vector_cost_flat_in_antenna_count():
    # once the table is cached, detection cost depends on (L^K, M) only. The
    # cost is this process's CPU time: wall time also counts the spells in
    # which other processes on the host hold the cores.
    rng = substream(8, 60)
    Y = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
    times = {}
    for n in (32, 128):
        H, W, _ = _system(9, n=n, m=2, k=1)
        table = _table(H, W, qam16(), 0.05, 1.0 / n, 3.0)
        runs = []
        for _ in range(7):
            t0 = time.process_time()
            ml_detect_batch(Y, table)
            runs.append(time.process_time() - t0)
        times[n] = np.median(runs)
    assert times[128] < 3.0 * times[32]


# ---------------------------------------------------------------------------
# minimum-distance slicer
# ---------------------------------------------------------------------------

def test_slicer_exact_points_and_zero_tiebreak():
    c = qam16()
    idx, d2 = slice_min_distance_batch(c.points[[7, 2]], c)
    assert np.array_equal(idx, [7, 2])
    assert np.all(d2 <= 1e-18)
    # the origin ties the four innermost points; lowest index wins
    idx0, _ = slice_min_distance_batch(np.zeros(1, dtype=complex), c)
    assert idx0[0] == 5
    assert c.points[5] == pytest.approx((-1 - 1j) / np.sqrt(10))


def test_slicer_against_exhaustive_scan():
    c = qam16()
    rng = substream(10, 0)
    soft = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    idx, dist = slice_min_distance_batch(soft, c)
    brute = np.argmin(np.abs(soft[..., None] - c.points) ** 2, axis=-1)
    assert np.array_equal(idx, brute)
    picked = np.abs(soft - c.points[idx]) ** 2
    assert_allclose(dist, picked, atol=1e-14)


# ---------------------------------------------------------------------------
# BLMMSE combiner
# ---------------------------------------------------------------------------

def _combiner_parts(H, W, sigma2, eta):
    C_xd = cov_xd(W, sigma2)
    return bussgang_gain(C_xd, eta), cov_xq_unconditional(C_xd, eta)


def test_blmmse_zero_snr_is_zero():
    H, W, rng = _system(11, n=8, m=3, k=2)
    B, C_xq = _combiner_parts(H, W, 0.1, 1.0 / 8)
    assert_allclose(blmmse_combiner(H, W, B, C_xq, 0.0), 0.0, atol=1e-15)


def test_blmmse_satisfies_normal_equations():
    # defining property: V^H C_y = sqrt(rho) (H B W)^H
    H, W, rng = _system(12, n=8, m=3, k=2)
    sigma2, eta, rho = 0.3, 1.0 / 8, 2.7
    B, C_xq = _combiner_parts(H, W, sigma2, eta)
    V = blmmse_combiner(H, W, B, C_xq, rho)
    C_y = rho * H @ C_xq @ H.conj().T + np.eye(3)
    assert_allclose(V.conj().T @ C_y, np.sqrt(rho) * (H @ B @ W).conj().T, atol=1e-11)


def test_blmmse_high_snr_scaling_law():
    # once the quantization term dominates AWGN, V scales like 1/sqrt(rho)
    H, W, rng = _system(13, n=8, m=3, k=2)
    B, C_xq = _combiner_parts(H, W, 0.2, 1.0 / 8)
    v1 = blmmse_combiner(H, W, B, C_xq, 1e6)
    v2 = blmmse_combiner(H, W, B, C_xq, 1e8)
    assert_allclose(10.0 * v2, v1, rtol=1e-4)


def test_blmmse_perturbation_optimality():
    # V is the Wiener filter of the Gaussian-symbol chain, so the empirical
    # MSE over the true nonlinear chain must rise under any perturbation
    H, W, rng = _system(14, n=6, m=3, k=2)
    sigma2, eta, rho = 0.15, 1.0 / 6, 2.0
    B, C_xq = _combiner_parts(H, W, sigma2, eta)
    V = blmmse_combiner(H, W, B, C_xq, rho)
    draws = 100_000
    s = (rng.standard_normal((draws, 2)) + 1j * rng.standard_normal((draws, 2))) / np.sqrt(2)
    d = (rng.standard_normal((draws, 6)) + 1j * rng.standard_normal((draws, 6))) * np.sqrt(sigma2 / 2)
    z = (rng.standard_normal((draws, 3)) + 1j * rng.standard_normal((draws, 3))) / np.sqrt(2)
    Y = np.sqrt(rho) * quantize_1bit(s @ W.T + d, eta) @ H.T + z

    def mse(Vm):
        return np.mean(np.abs(Y @ Vm.conj() - s) ** 2)

    base = mse(V)
    for t in range(10):
        P = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        P *= 0.2 * np.linalg.norm(V) / np.linalg.norm(P)
        assert mse(V + P) > base
        assert mse(V - P) > base


def test_ml_beats_blmmse_on_a_small_link():
    H, W, rng = _system(15, n=16, m=4, k=1)
    sigma2, eta, rho = 3e-3, 1.0 / 16, 10 ** 0.5
    const = qam16()
    table = _table(H, W, const, sigma2, eta, rho)
    B, C_xq = _combiner_parts(H, W, sigma2, eta)
    V = blmmse_combiner(H, W, B, C_xq, rho)
    draws = 3000
    digits = rng.integers(0, 16, (draws, 1))
    s = const.points[digits]
    d = (rng.standard_normal((draws, 16)) + 1j * rng.standard_normal((draws, 16))) * np.sqrt(sigma2 / 2)
    z = (rng.standard_normal((draws, 4)) + 1j * rng.standard_normal((draws, 4))) / np.sqrt(2)
    Y = np.sqrt(rho) * quantize_1bit(s @ W.T + d, eta) @ H.T + z
    err_ml = np.sum(ml_detect_batch(Y, table)[0] != digits)
    err_bl = np.sum(slice_min_distance_batch(Y @ V.conj(), const)[0] != digits)
    assert err_ml <= err_bl
