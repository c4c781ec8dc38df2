import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy.special import erf

from onebitlink.core import SingularityError, chol_logdet, qam16, quantize_1bit, substream
from onebitlink.stats import (assemble_stats, cov_pd, cov_xq_cond,
                              cross_corr_cond, cross_corr_cond_complex,
                              cross_dither_pd, embed, lmmse_gain, mean_pd,
                              mean_xq_cond, noise_stats, stack_ri,
                              symbol_kernel)


def _instance(seed, n=4, m=3, k=2, sigma2=0.3):
    rng = substream(seed, 50)
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    s = qam16().points[rng.integers(0, 16, k)]
    x = W @ s
    eta = 1.0 / n
    return H, W, s, x, sigma2, eta


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
    m = mean_xq_cond(x, sigma2, eta)[0]
    assert m.real == pytest.approx(np.sqrt(eta / 2) * erf(a / sig), rel=1e-14)
    assert m.imag == pytest.approx(np.sqrt(eta / 2) * erf(b / sig), rel=1e-14)
    # constant-modulus output: matched-axis second moment is exactly eta/2
    C = cov_xq_cond(x, sigma2, eta)
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
    C = cross_corr_cond_complex(x, sigma2, eta)
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
    r = mean_pd(x, lmmse_gain(x, 1e8, eta), 1e8, eta)
    assert np.max(np.abs(r)) < 1e-6


def test_residual_moments_shrink_with_dither():
    # the linearization is exact in the small-dither limit on the diagonal
    H, W, s, x, sigma2, eta = _instance(4, n=3, k=1)
    n = x.size  # the Re/Re block of the stacked residual moment
    big = np.max(np.abs(cov_pd(x, lmmse_gain(x, 1.0, eta), 1.0, eta)[:n, :n]))
    small = np.max(np.abs(cov_pd(x, lmmse_gain(x, 1e-6, eta), 1e-6, eta)[:n, :n]))
    assert small < big
    assert np.isfinite(small)


def test_cross_dither_pd_finite_at_tiny_dither():
    H, W, s, x, _, eta = _instance(5)
    for s2 in (1e-10, 1e-12):
        M = cross_dither_pd(x, lmmse_gain(x, s2, eta), s2, eta)
        assert np.all(np.isfinite(M))


def test_sigma_zero_raises():
    x = np.ones(3, dtype=complex)
    with pytest.raises(SingularityError):
        mean_xq_cond(x, 0.0, 1 / 3)
    with pytest.raises(SingularityError):
        lmmse_gain(x, 0.0, 1 / 3)
    with pytest.raises(SingularityError):
        cov_xq_cond(x, 0.0, 1 / 3)


# ---------------------------------------------------------------------------
# effective-noise and received statistics
# ---------------------------------------------------------------------------

def test_noise_stats_definition_consistency():
    H, W, s, x, sigma2, eta = _instance(6)
    G = lmmse_gain(x, sigma2, eta)
    ns = noise_stats(H, x, G, sigma2, eta, rho=2.5)
    m = H.shape[0]
    assert ns.mu.shape == (2 * m,)
    assert ns.C.shape == (2 * m, 2 * m)
    assert_allclose(ns.Sigma, ns.C - np.outer(ns.mu, ns.mu), atol=1e-14)
    assert_allclose(ns.Sigma, ns.Sigma.T, atol=1e-12)
    assert np.linalg.eigvalsh(ns.Sigma).min() > 0.4  # AWGN floor of 1/2


def test_noise_stats_conjugation_negates_cross_blocks():
    H, W, s, x, sigma2, eta = _instance(7)
    G = lmmse_gain(x, sigma2, eta)
    m = H.shape[0]
    a = noise_stats(H, x, G, sigma2, eta, rho=1.7)
    b = noise_stats(H.conj(), x.conj(), G.conj(), sigma2, eta, rho=1.7)
    assert_allclose(b.mu[:m], a.mu[:m], atol=1e-12)
    assert_allclose(b.mu[m:], -a.mu[m:], atol=1e-12)
    assert_allclose(b.C[:m, :m], a.C[:m, :m], atol=1e-12)
    assert_allclose(b.C[m:, m:], a.C[m:, m:], atol=1e-12)
    assert_allclose(b.C[:m, m:], -a.C[:m, m:], atol=1e-12)
    assert_allclose(b.C[m:, :m], -a.C[m:, :m], atol=1e-12)


def test_kernel_zero_snr_collapses_to_awgn():
    H, W, s, x, sigma2, eta = _instance(8)
    mu, Sigma = assemble_stats(symbol_kernel(H, x, sigma2, eta), 0.0)
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
    mu, Sigma = assemble_stats(symbol_kernel(H, x, sigma2, eta), rho)
    ns = noise_stats(H, x, G, sigma2, eta, rho)
    assert np.max(np.abs(mu - (np.sqrt(rho) * stack_ri(H @ G @ x) + ns.mu))) < 1e-10
    assert np.max(np.abs(Sigma - ns.Sigma)) < 1e-10


def test_kernel_cholesky_is_coherent():
    H, W, s, x, sigma2, eta = _instance(12)
    _, Sigma = assemble_stats(symbol_kernel(H, x, sigma2, eta), 3.0)
    fac = chol_logdet(Sigma)
    assert fac.jitter == 0.0
    assert_allclose(fac.factor @ fac.factor.T, Sigma, atol=1e-10)
    sign, ld = np.linalg.slogdet(Sigma)
    assert sign == 1.0
    assert fac.logdet == pytest.approx(ld, rel=1e-10)


def test_symbol_kernel_mean_scales_with_sqrt_snr():
    H, W, s, x, sigma2, eta = _instance(13)
    kern = symbol_kernel(H, x, sigma2, eta)
    mu1, S1 = assemble_stats(kern, 1.0)
    mu4, S4 = assemble_stats(kern, 4.0)
    assert_allclose(mu4, 2.0 * mu1, atol=1e-14)
    assert_allclose(S4 - 0.5 * np.eye(S4.shape[0]),
                    4.0 * (S1 - 0.5 * np.eye(S1.shape[0])), atol=1e-13)


def test_cross_corr_zero_symbol_pinned():
    n, sigma2, eta = 3, 0.4, 0.25
    x = np.zeros(n, dtype=complex)
    diag = np.sqrt(eta / 2) * np.sqrt(sigma2 / np.pi)
    # matched-axis blocks are diagonal, cross-axis blocks vanish
    assert_allclose(cross_corr_cond(x, sigma2, eta), diag * np.eye(2 * n),
                    atol=1e-15)
    assert_allclose(cross_corr_cond_complex(x, sigma2, eta),
                    np.sqrt(2 * eta / np.pi) * np.sqrt(sigma2) * np.eye(n),
                    atol=1e-15)


def test_cross_corr_complex_real_symbol_has_real_diagonal():
    x = np.array([0.8, -1.2, 0.3], dtype=complex)
    C = cross_corr_cond_complex(x, 0.2, 0.25)
    assert_allclose(np.diag(C).imag, 0.0, atol=1e-15)


def test_mean_xq_saturation_and_bounds():
    sigma2, eta = 0.1, 0.125
    lim = np.sqrt(eta / 2)
    assert_allclose(mean_xq_cond(np.zeros(2, dtype=complex), sigma2, eta),
                    0.0, atol=1e-15)
    big = mean_xq_cond(np.array([50.0 + 0j]), sigma2, eta)
    assert big[0].real == pytest.approx(lim, rel=1e-12)
    assert big[0].imag == pytest.approx(0.0, abs=1e-15)
    rng = substream(60, 0)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m = mean_xq_cond(x, sigma2, eta)
    assert np.all(np.abs(m.real) <= lim + 1e-12)
    assert np.all(np.abs(m.imag) <= lim + 1e-12)


def test_cov_xq_zero_symbol_pinned():
    n, sigma2, eta = 3, 0.7, 0.2
    x = np.zeros(n, dtype=complex)
    assert_allclose(cov_xq_cond(x, sigma2, eta), (eta / 2) * np.eye(2 * n),
                    atol=1e-15)


def test_cross_dither_pd_zero_symbol_diagonal_gain():
    n, sigma2, eta, g = 3, 0.3, 0.25, 0.9
    x = np.zeros(n, dtype=complex)
    G = g * np.eye(n, dtype=complex)
    matched = np.sqrt(eta / 2) * np.sqrt(sigma2 / np.pi) - g * sigma2 / 2
    assert_allclose(cross_dither_pd(x, G, sigma2, eta), matched * np.eye(2 * n),
                    atol=1e-15)


def test_cov_pd_axis_swap_transposes():
    H, W, s, x, sigma2, eta = _instance(61)
    G = lmmse_gain(x, sigma2, eta)
    # swapping the axes of a block transposes it: the stacked moment is symmetric
    C = cov_pd(x, G, sigma2, eta)
    assert_allclose(C, C.T, atol=1e-13)


def test_noise_mean_vanishes_at_zero_symbol():
    H, W, s, x, sigma2, eta = _instance(62)
    zero = np.zeros(x.size, dtype=complex)
    G = lmmse_gain(zero, sigma2, eta)
    ns = noise_stats(H, zero, G, sigma2, eta, 2.0)
    assert_allclose(ns.mu, 0.0, atol=1e-15)


def test_symbol_stats_covariance_reduces_to_noise_covariance():
    # the deterministic signal part cancels between C_y and mu mu^T, so the
    # kernel's received covariance equals the effective-noise covariance
    H, W, s, x, sigma2, eta = _instance(63)
    rho = 3.0
    _, Sigma = assemble_stats(symbol_kernel(H, x, sigma2, eta), rho)
    G = lmmse_gain(x, sigma2, eta)
    ns = noise_stats(H, x, G, sigma2, eta, rho)
    assert_allclose(Sigma, ns.Sigma, atol=1e-11)
    eigs = np.linalg.eigvalsh(Sigma)
    assert eigs.min() >= 0.5 - 1e-9
