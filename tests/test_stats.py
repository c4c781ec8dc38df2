import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy.special import erf

from onebitlink import detect, stats
from onebitlink.core import (ParameterError, SingularityError, chol_logdet, make_constellation,
                             qam16, quantize_1bit, substream)
from onebitlink.detect import build_candidate_kernels, build_candidate_table
from onebitlink.oracle import _CONDITIONAL_KINDS
from onebitlink.stats import (assemble_stats, conditional_moments, cross_corr_cond,
                              embed, lmmse_gain, receive_basis, stack_ri, symbol_kernel)


def _instance(seed, n=4, m=3, k=2, sigma2=0.3):
    rng = substream(seed, 50)
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    s = qam16().points[rng.integers(0, 16, k)]
    x = W @ s
    eta = 1.0 / n
    return H, W, s, x, sigma2, eta


def _moments(x, sigma2, eta, H=None, G=None, rho=1.0):
    # conditional_moments of x, by default through H = I with the LMMSE gain
    x = np.asarray(x, dtype=complex)
    H = np.eye(x.size) if H is None else H
    G = lmmse_gain(x, sigma2, eta) if G is None else G
    return conditional_moments(x, H, G, sigma2, eta, rho)


def _complex_cross(x, sigma2, eta):
    # E[x_d x_q^H], read off the four stacked blocks of cross_corr_cond
    n = np.asarray(x).size
    C = cross_corr_cond(x, sigma2, eta)
    return C[:n, :n] + C[n:, n:] + 1j * (C[n:, :n] - C[:n, n:])


def test_axis_helpers():
    z = np.array([1.0 - 2.0j, 3.0 + 4.0j])
    assert_allclose(stack_ri(z), [1.0, 3.0, -2.0, 4.0])
    # a batch stacks each row along the last axis
    assert_allclose(stack_ri(np.stack([z, 2 * z])),
                    [[1.0, 3.0, -2.0, 4.0], [2.0, 6.0, -4.0, 8.0]])
    P = np.array([[1.0 + 2.0j, -0.5j, 3.0], [0.25 - 1.0j, 2.0 + 0.5j, -1.5 + 1.0j]])
    v = np.array([0.3 - 1.1j, 2.0 + 0.4j, -0.7 + 0.9j])
    assert embed(P).shape == (4, 6)
    assert_allclose(embed(P) @ stack_ri(v), stack_ri(P @ v), atol=1e-14)


# ---------------------------------------------------------------------------
# scalar instances where every formula reduces to a hand expression
# ---------------------------------------------------------------------------

def test_scalar_cross_corr_hand_formula():
    a, b, sigma2, eta = 0.4, -0.7, 0.6, 0.2
    x = np.array([a + 1j * b])
    sig = np.sqrt(sigma2)
    C = cross_corr_cond(x, sigma2, eta)  # scalar x: stacked index 0 is Re, 1 is Im
    rr = C[0, 0]
    expect = np.sqrt(eta / 2) * (a * erf(a / sig)
                                 + np.sqrt(sigma2 / np.pi) * np.exp(-a * a / sigma2))
    assert rr == pytest.approx(expect, rel=1e-14)
    ri = C[0, 1]
    assert ri == pytest.approx(np.sqrt(eta / 2) * a * erf(b / sig), rel=1e-14)


def test_scalar_mean_and_cov():
    a, b, sigma2, eta = -0.3, 0.9, 0.5, 0.25
    x = np.array([a + 1j * b])
    sig = np.sqrt(sigma2)
    moments = _moments(x, sigma2, eta)
    m = moments["mean_xq"]  # scalar x: stacked index 0 is Re, 1 is Im
    assert m[0] == pytest.approx(np.sqrt(eta / 2) * erf(a / sig), rel=1e-14)
    assert m[1] == pytest.approx(np.sqrt(eta / 2) * erf(b / sig), rel=1e-14)
    # constant-modulus output: matched-axis second moment is exactly eta/2
    C = moments["cov_xq"]
    assert C[0, 0] == eta / 2
    assert C[1, 1] == eta / 2
    cross = C[0, 1]
    assert cross == pytest.approx((eta / 2) * erf(a / sig) * erf(b / sig), rel=1e-14)


def test_zero_signal_gain_is_scaled_identity():
    n, sigma2, eta = 5, 0.7, 1.0 / 5
    G = lmmse_gain(np.zeros(n, dtype=complex), sigma2, eta)
    assert_allclose(G, np.sqrt(2 * eta / np.pi) / np.sqrt(sigma2) * np.eye(n), atol=1e-14)


def test_lmmse_gain_matches_dense_solve():
    H, W, s, x, sigma2, eta = _instance(1)
    G = lmmse_gain(x, sigma2, eta)
    C = _complex_cross(x, sigma2, eta)
    dense = np.linalg.solve((sigma2 * np.eye(x.size) + np.outer(x, x.conj())).T,
                            C.conj()).T
    assert_allclose(G, dense, atol=1e-12)


def test_lmmse_gain_is_a_stationary_point():
    # G minimizes E||x_q - G x_d||^2: any perturbation must not lower the
    # paired MC objective
    H, W, s, x, sigma2, eta = _instance(2, n=3, k=1)
    G = lmmse_gain(x, sigma2, eta)
    rng = substream(2, 51)
    draws = 200_000
    d = (rng.standard_normal((draws, 3)) + 1j * rng.standard_normal((draws, 3))) * np.sqrt(sigma2 / 2)
    xd = x[None, :] + d
    xq = quantize_1bit(xd, eta)

    def mse(Gm):
        r = xq - xd @ Gm.T
        return np.mean(np.abs(r) ** 2)

    base = mse(G)
    for t in range(4):
        P = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert mse(G + 0.2 * P) > base
        assert mse(G - 0.2 * P) > base


def test_mean_pd_vanishes_for_overwhelming_dither():
    H, W, s, x, _, eta = _instance(3)
    r = _moments(x, 1e8, eta)["mean_pd"]
    n = x.size
    assert np.max(np.abs(r[:n] + 1j * r[n:])) < 1e-6


def test_residual_moments_shrink_with_dither():
    # the linearization is exact in the small-dither limit on the diagonal
    H, W, s, x, sigma2, eta = _instance(4, n=3, k=1)
    n = x.size  # the Re/Re block of the stacked residual moment
    big = np.max(np.abs(_moments(x, 1.0, eta)["cov_pd"][:n, :n]))
    small = np.max(np.abs(_moments(x, 1e-6, eta)["cov_pd"][:n, :n]))
    assert small < big
    assert np.isfinite(small)


def test_cross_dither_pd_finite_at_tiny_dither():
    H, W, s, x, _, eta = _instance(5)
    for s2 in (1e-10, 1e-12):
        M = _moments(x, s2, eta)["cross_d_pd"]
        assert np.all(np.isfinite(M))


def test_sigma_zero_raises():
    x = np.ones(3, dtype=complex)
    with pytest.raises(SingularityError):
        cross_corr_cond(x, 0.0, 1 / 3)
    with pytest.raises(SingularityError):
        lmmse_gain(x, 0.0, 1 / 3)
    with pytest.raises(SingularityError):
        conditional_moments(x, np.eye(3), np.eye(3), 0.0, 1 / 3, 1.0)


def test_conditional_moments_refuses_bad_dither_and_snr():
    x = np.ones(3, dtype=complex)
    H, G = np.eye(2, 3), np.eye(3)
    for sigma2 in (0.0, -0.5, np.nan):
        with pytest.raises(SingularityError):
            conditional_moments(x, H, G, sigma2, 1 / 3, 1.0)
    with pytest.raises(ParameterError):
        conditional_moments(x, H, G, 0.3, 1 / 3, -1.0)


def test_conditional_moments_keys_are_the_fixed_symbol_kinds():
    H, W, s, x, sigma2, eta = _instance(14)
    moments = _moments(x, sigma2, eta, H=H, rho=2.0)
    assert set(moments) == _CONDITIONAL_KINDS - {"y_mean", "y_cov"}


# ---------------------------------------------------------------------------
# effective-noise and received statistics
# ---------------------------------------------------------------------------

def test_noise_stats_definition_consistency():
    H, W, s, x, sigma2, eta = _instance(6)
    G = lmmse_gain(x, sigma2, eta)
    moments = conditional_moments(x, H, G, sigma2, eta, rho=2.5)
    mu, C = moments["noise_mean"], moments["noise_cov"]
    m = H.shape[0]
    assert mu.shape == (2 * m,)
    assert C.shape == (2 * m, 2 * m)
    assert_allclose(C, C.T, atol=1e-12)
    Sigma = C - np.outer(mu, mu)
    assert_allclose(Sigma, Sigma.T, atol=1e-12)
    assert np.linalg.eigvalsh(Sigma).min() > 0.4  # AWGN floor of 1/2


def test_noise_stats_conjugation_negates_cross_blocks():
    H, W, s, x, sigma2, eta = _instance(7)
    G = lmmse_gain(x, sigma2, eta)
    m = H.shape[0]
    a = conditional_moments(x, H, G, sigma2, eta, rho=1.7)
    b = conditional_moments(x.conj(), H.conj(), G.conj(), sigma2, eta, rho=1.7)
    mu_a, mu_b = a["noise_mean"], b["noise_mean"]
    C_a, C_b = a["noise_cov"], b["noise_cov"]
    assert_allclose(mu_b[:m], mu_a[:m], atol=1e-12)
    assert_allclose(mu_b[m:], -mu_a[m:], atol=1e-12)
    assert_allclose(C_b[:m, :m], C_a[:m, :m], atol=1e-12)
    assert_allclose(C_b[m:, m:], C_a[m:, m:], atol=1e-12)
    assert_allclose(C_b[:m, m:], -C_a[:m, m:], atol=1e-12)
    assert_allclose(C_b[m:, :m], -C_a[m:, :m], atol=1e-12)


def test_kernel_zero_snr_collapses_to_awgn():
    H, W, s, x, sigma2, eta = _instance(8)
    mu, Sigma = assemble_stats(symbol_kernel(receive_basis(H), x, sigma2, eta), 0.0)
    m = H.shape[0]
    assert_allclose(mu, np.zeros(2 * m), atol=1e-14)
    assert_allclose(Sigma, 0.5 * np.eye(2 * m), atol=1e-12)
    assert chol_logdet(Sigma).logdet == pytest.approx(2 * m * np.log(0.5), rel=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8), m=st.integers(1, 6),
       k=st.integers(1, 3), sigma2=st.floats(0.01, 10.0), rho=st.floats(0.0, 100.0))
@example(seed=9, n=6, m=3, k=1, sigma2=0.3, rho=0.3)
@example(seed=9, n=6, m=3, k=1, sigma2=0.3, rho=4.0)
@example(seed=10, n=6, m=3, k=2, sigma2=0.3, rho=0.3)
@example(seed=10, n=6, m=3, k=2, sigma2=0.3, rho=4.0)
@example(seed=11, n=6, m=3, k=3, sigma2=0.3, rho=0.3)
@example(seed=11, n=6, m=3, k=3, sigma2=0.3, rho=4.0)
def test_symbol_stats_matches_kernel_route(seed, n, m, k, sigma2, rho):
    # two independent derivations of the same Gaussian approximation: the
    # direct quantizer-moment kernel and the four-term effective-noise
    # assembly, whose signal part sqrt(rho) H G x is added back to its mean
    H, W, s, x, sigma2, eta = _instance(seed, n=n, m=m, k=min(k, n), sigma2=sigma2)
    G = lmmse_gain(x, sigma2, eta)
    mu, Sigma = assemble_stats(symbol_kernel(receive_basis(H), x, sigma2, eta), rho)
    ref = conditional_moments(x, H, G, sigma2, eta, rho)
    mu_n = ref["noise_mean"]
    assert np.max(np.abs(mu - (np.sqrt(rho) * stack_ri(H @ G @ x) + mu_n))) < 1e-10
    assert np.max(np.abs(Sigma - (ref["noise_cov"] - np.outer(mu_n, mu_n)))) < 1e-10


def test_kernel_cholesky_is_coherent():
    H, W, s, x, sigma2, eta = _instance(12)
    _, Sigma = assemble_stats(symbol_kernel(receive_basis(H), x, sigma2, eta), 3.0)
    fac = chol_logdet(Sigma.copy())
    assert_allclose(fac.inv_factor @ Sigma @ fac.inv_factor.T, np.eye(len(Sigma)), atol=1e-10)
    sign, ld = np.linalg.slogdet(Sigma)
    assert sign == 1.0
    assert fac.logdet == pytest.approx(ld, rel=1e-10)


def test_symbol_kernel_mean_scales_with_sqrt_snr():
    H, W, s, x, sigma2, eta = _instance(13)
    kern = symbol_kernel(receive_basis(H), x, sigma2, eta)
    mu1, S1 = assemble_stats(kern, 1.0)
    mu4, S4 = assemble_stats(kern, 4.0)
    assert_allclose(mu4, 2.0 * mu1, atol=1e-14)
    assert_allclose(S4 - 0.5 * np.eye(S4.shape[0]),
                    4.0 * (S1 - 0.5 * np.eye(S1.shape[0])), atol=1e-13)


@pytest.mark.parametrize("m, n, rows", [(3, 6, 5), (6, 4, 3), (2, 2, 1)])
def test_kernel_from_receive_basis_equals_direct_khatri_rao(m, n, rows):
    # the per-channel basis only moves where the GEMM operands are built: its
    # rows are the i <= j rows of embed(H)'s row-wise Khatri-Rao product
    # formed on the spot, and the covariances equal, bit for bit, the upper
    # triangle of that full product's kernels, mirrored
    rng = substream(20 + m, 50)
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    X = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    sigma2, eta, rho = 0.3, 1.0 / n, 3.0
    He = np.block([[H.real, -H.imag], [H.imag, H.real]])
    dim = 2 * m
    kr = np.stack([He[i] * He[j] for i in range(dim) for j in range(dim)])
    upper = [i * dim + j for i in range(dim) for j in range(i, dim)]
    basis = receive_basis(H)
    assert np.array_equal(basis.kr, kr[upper])
    phi = erf(stack_ri(X) / np.sqrt(sigma2))
    d = (eta / 2.0) * (1.0 - phi * phi)
    kern = symbol_kernel(basis, X, sigma2, eta)
    full = (d @ kr.T).reshape(rows, dim, dim)
    assert np.array_equal(kern.inner, full.reshape(rows, -1)[:, upper])
    mirrored = np.triu(full) + np.swapaxes(np.triu(full, 1), 1, 2)
    _, Sigma = assemble_stats(kern, rho)
    assert np.array_equal(Sigma, rho * mirrored + 0.5 * np.eye(dim))
    assert np.array_equal(Sigma, np.swapaxes(Sigma, 1, 2))
    assert np.array_equal(kern.mean_core, np.sqrt(eta / 2.0) * phi @ He.T)
    assert np.array_equal(kern.dmax, d.max(axis=1))
    one = symbol_kernel(basis, X[0], sigma2, eta)
    assert one.inner.shape == (dim * (dim + 1) // 2,) and one.dmax == d[0].max()
    assert assemble_stats(one, rho)[1].shape == (dim, dim)


@pytest.mark.parametrize("const, k, m, sigma2", [
    ("16qam", 1, 16, np.array([1e-4, 1e-3, 1e-2, 1e-1])), ("16qam", 3, 16, 1.6e-3),
    ("16qam", 2, 64, 1.3e-3)])
def test_packed_tables_equal_the_full_khatri_rao_route(monkeypatch, const, k, m, sigma2):
    # at the benchmark's shapes (N = 128; M = 16 at K = 1 and 3, M = 64 at
    # K = 2) a candidate table built from the packed kernels equals, bit for
    # bit, one assembled from the full Khatri-Rao product: there the full
    # GEMM is itself exactly symmetric
    n, eta, rho = 128, 1.0 / 128, 3.0
    rng = substream(40 + m + k, 50)
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    constellation = make_constellation(const)
    basis = receive_basis(H)
    kernels = build_candidate_kernels(basis, W, constellation, sigma2, eta)
    packed = build_candidate_table(kernels, rho)

    dim = 2 * m
    kr = (basis.He[:, None, :] * basis.He[None, :, :]).reshape(-1, 2 * n)
    symbols = detect._candidate_orbits(constellation.points.tobytes(), k)[3]
    phi = stats._phi(symbols @ W.T, sigma2)
    d = (eta / 2.0) * (1.0 - phi * phi)
    inner = (d.reshape(-1, 2 * n) @ kr.T).reshape(d.shape[:-1] + (dim, dim))

    def full_assemble(kernel, rho):
        Sigma = rho * kernel.inner
        Sigma[..., np.arange(dim), np.arange(dim)] += 0.5
        return np.sqrt(rho) * kernel.mean_core, Sigma

    monkeypatch.setattr(detect, "assemble_stats", full_assemble)
    full = build_candidate_table(
        kernels._replace(kernel=dataclasses.replace(kernels.kernel, inner=inner)), rho)
    for name in ("mu", "inv_chol", "logdet", "weight"):
        assert np.array_equal(getattr(packed, name), getattr(full, name)), name


def test_symmetric_index_is_cached_read_only():
    index = stats._symmetric_index(6)
    assert stats._symmetric_index(6) is index
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 1
    i, j = np.triu_indices(6)
    assert np.array_equal(index[i, j], np.arange(21))
    assert np.array_equal(index, index.T)


@pytest.mark.parametrize("m, n", [(3, 6), (6, 4), (4, 4)])
def test_receive_basis_eigenbasis(m, n):
    # embed(H H^H) = V diag(lam) V^T with V orthonormal and lam ascending and
    # non-negative; an M > N channel has 2(M - N) zero eigenvalues
    rng = substream(30 + m, 50)
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    basis = receive_basis(H)
    G = embed(H @ H.conj().T)
    assert np.array_equal(basis.He, embed(H))
    assert basis.kr.shape == (2 * m * (2 * m + 1) // 2, 2 * n)
    assert np.all(basis.lam >= 0.0) and np.all(np.diff(basis.lam) >= 0.0)
    assert_allclose(basis.V.T @ basis.V, np.eye(2 * m), atol=1e-13)
    assert_allclose((basis.V * basis.lam) @ basis.V.T, G, atol=1e-12 * np.abs(G).max())
    zeros = 2 * max(m - n, 0)
    assert np.all(basis.lam[:zeros] <= 1e-12 * basis.lam[-1])
    assert np.all(basis.lam[zeros:] > 1e-6 * basis.lam[-1])


def test_cross_corr_zero_symbol_pinned():
    n, sigma2, eta = 3, 0.4, 0.25
    x = np.zeros(n, dtype=complex)
    diag = np.sqrt(eta / 2) * np.sqrt(sigma2 / np.pi)
    # matched-axis blocks are diagonal, cross-axis blocks vanish
    assert_allclose(cross_corr_cond(x, sigma2, eta), diag * np.eye(2 * n),
                    atol=1e-15)
    assert_allclose(_complex_cross(x, sigma2, eta),
                    np.sqrt(2 * eta / np.pi) * np.sqrt(sigma2) * np.eye(n),
                    atol=1e-15)


def test_cross_corr_complex_real_symbol_has_real_diagonal():
    x = np.array([0.8, -1.2, 0.3], dtype=complex)
    C = _complex_cross(x, 0.2, 0.25)
    assert_allclose(np.diag(C).imag, 0.0, atol=1e-15)


def test_mean_xq_saturation_and_bounds():
    sigma2, eta = 0.1, 0.125
    lim = np.sqrt(eta / 2)
    assert_allclose(_moments(np.zeros(2), sigma2, eta)["mean_xq"], 0.0, atol=1e-15)
    big = _moments(np.array([50.0 + 0j]), sigma2, eta)["mean_xq"]
    assert big[0] == pytest.approx(lim, rel=1e-12)
    assert big[1] == pytest.approx(0.0, abs=1e-15)
    rng = substream(60, 0)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m = _moments(x, sigma2, eta)["mean_xq"]  # [Re; Im]
    assert np.all(np.abs(m) <= lim + 1e-12)


def test_cov_xq_zero_symbol_pinned():
    n, sigma2, eta = 3, 0.7, 0.2
    x = np.zeros(n, dtype=complex)
    assert_allclose(_moments(x, sigma2, eta)["cov_xq"], (eta / 2) * np.eye(2 * n),
                    atol=1e-15)


def test_cross_dither_pd_zero_symbol_diagonal_gain():
    n, sigma2, eta, g = 3, 0.3, 0.25, 0.9
    x = np.zeros(n, dtype=complex)
    G = g * np.eye(n, dtype=complex)
    matched = np.sqrt(eta / 2) * np.sqrt(sigma2 / np.pi) - g * sigma2 / 2
    assert_allclose(_moments(x, sigma2, eta, G=G)["cross_d_pd"], matched * np.eye(2 * n),
                    atol=1e-15)


def test_cov_pd_axis_swap_transposes():
    H, W, s, x, sigma2, eta = _instance(61)
    G = lmmse_gain(x, sigma2, eta)
    # swapping the axes of a block transposes it: the stacked moment is symmetric
    C = _moments(x, sigma2, eta, G=G)["cov_pd"]
    assert_allclose(C, C.T, atol=1e-13)


def test_noise_mean_vanishes_at_zero_symbol():
    H, W, s, x, sigma2, eta = _instance(62)
    zero = np.zeros(x.size, dtype=complex)
    G = lmmse_gain(zero, sigma2, eta)
    mu = conditional_moments(zero, H, G, sigma2, eta, 2.0)["noise_mean"]
    assert_allclose(mu, 0.0, atol=1e-15)


def test_symbol_stats_covariance_reduces_to_noise_covariance():
    # the deterministic signal part cancels between C_y and mu mu^T, so the
    # kernel's received covariance equals the effective-noise covariance
    H, W, s, x, sigma2, eta = _instance(63)
    rho = 3.0
    _, Sigma = assemble_stats(symbol_kernel(receive_basis(H), x, sigma2, eta), rho)
    G = lmmse_gain(x, sigma2, eta)
    ref = conditional_moments(x, H, G, sigma2, eta, rho)
    mu_n = ref["noise_mean"]
    assert_allclose(Sigma, ref["noise_cov"] - np.outer(mu_n, mu_n), atol=1e-11)
    eigs = np.linalg.eigvalsh(Sigma)
    assert eigs.min() >= 0.5 - 1e-9
