import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebitlink.core import (SingularityError, complex_normal, qam16, quantize_1bit,
                             substream)
from onebitlink.txchain import (bussgang_gain, cov_xd, cov_xq_unconditional,
                                cov_y_unconditional)


def _chain(W, S, sigma2, eta, rng):
    """Rows (x_d, x_q) of the transmit chain as the sweep runs it on S's rows."""
    Xd = S @ W.T + np.sqrt(sigma2) * complex_normal(rng, (S.shape[0], W.shape[0]))
    return Xd, quantize_1bit(Xd, eta)


def _random_w(rng, n, k):
    A = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return np.linalg.qr(A)[0]


def test_cov_xd_unitary_precoder_is_scaled_identity():
    rng = substream(0, 0)
    W = _random_w(rng, 4, 4)
    assert_allclose(cov_xd(W, 0.3), 1.3 * np.eye(4), atol=1e-12)


def test_cov_xd_zero_precoder_is_dither_only():
    assert_allclose(cov_xd(np.zeros((3, 2), dtype=complex), 0.7),
                    0.7 * np.eye(3), atol=1e-15)


def test_bussgang_gain_pinned_values():
    eta = 0.25
    assert_allclose(bussgang_gain(2.0 * np.eye(3), eta),
                    np.sqrt(2 * eta / (np.pi * 2.0)) * np.eye(3), atol=1e-15)
    # single antenna, unit precoder, unit dither: diag entry sqrt(eta/pi)
    B = bussgang_gain(cov_xd(np.ones((1, 1), dtype=complex), 1.0), eta)
    assert B[0, 0] == pytest.approx(np.sqrt(eta / np.pi), rel=1e-14)


def test_arcsine_diagonal_input_gives_eta_identity():
    eta = 1.0 / 4
    C = np.diag([0.5, 2.0, 3.0, 1.0]).astype(complex)
    assert_allclose(cov_xq_unconditional(C, eta), eta * np.eye(4), atol=1e-15)
    one = cov_xq_unconditional(np.array([[2.5 + 0j]]), eta)
    assert one[0, 0] == pytest.approx(eta, rel=1e-14)


def test_cov_xd_general_shape():
    rng = substream(0, 1)
    W = _random_w(rng, 6, 2)
    C = cov_xd(W, 0.1)
    assert_allclose(C, C.conj().T, atol=1e-14)
    assert_allclose(np.trace(C).real, 2 + 0.6, rtol=1e-12)


def test_bussgang_gain_formula_and_mc():
    rng = substream(1, 0)
    n, k, sigma2 = 5, 2, 0.4
    W = _random_w(rng, n, k)
    eta = 1.0 / n
    C = cov_xd(W, sigma2)
    B = bussgang_gain(C, eta)
    assert_allclose(B, np.sqrt(2 * eta / np.pi) * np.diag(1 / np.sqrt(np.diag(C).real)),
                    atol=1e-14)
    # MC check of the defining property E[x_q x_d^H] = B C_xd over Gaussian s
    draws = 200_000
    s = (rng.standard_normal((draws, k)) + 1j * rng.standard_normal((draws, k))) / np.sqrt(2)
    d = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) * np.sqrt(sigma2 / 2)
    xd = s @ W.T + d
    xq = quantize_1bit(xd, eta)
    est = xq.T @ xd.conj() / draws
    assert np.max(np.abs(est - B @ C)) < 6e-3  # ~5 SE at this draw count


def test_bussgang_gain_flags_dead_antenna():
    C = np.diag([1.0, 0.0, 2.0]).astype(complex)
    with pytest.raises(SingularityError) as exc:
        bussgang_gain(C, 1.0 / 3)
    assert "1" in str(exc.value)


def test_arcsine_cov_properties():
    rng = substream(2, 0)
    W = _random_w(rng, 6, 3)
    eta = 1.0 / 6
    C = cov_xq_unconditional(cov_xd(W, 0.05), eta)
    assert_allclose(C, C.conj().T, atol=1e-13)
    assert_allclose(np.diag(C), eta, atol=1e-15)
    assert np.linalg.eigvalsh(C).min() >= -1e-10


def test_arcsine_cov_against_mc():
    rng = substream(2, 1)
    n, k, sigma2 = 4, 2, 0.2
    W = _random_w(rng, n, k)
    eta = 1.0 / n
    C = cov_xq_unconditional(cov_xd(W, sigma2), eta)
    draws = 200_000
    s = (rng.standard_normal((draws, k)) + 1j * rng.standard_normal((draws, k))) / np.sqrt(2)
    d = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) * np.sqrt(sigma2 / 2)
    xq = quantize_1bit(s @ W.T + d, eta)
    est = xq.T @ xq.conj() / draws
    assert np.max(np.abs(est - C)) < 5 * eta / np.sqrt(draws) * 4


def test_cov_y_unconditional_shape_and_floor():
    rng = substream(2, 2)
    W = _random_w(rng, 4, 1)
    H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    C_xq = cov_xq_unconditional(cov_xd(W, 0.1), 0.25)
    Cy = cov_y_unconditional(H, C_xq, 2.0)
    assert Cy.shape == (3, 3)
    assert_allclose(Cy, Cy.conj().T, atol=1e-13)
    # AWGN floor: C_y - I is PSD
    assert np.linalg.eigvalsh(Cy - np.eye(3)).min() >= -1e-12
    assert_allclose(cov_y_unconditional(H, C_xq, 0.0), np.eye(3), atol=1e-15)


def test_transmit_deterministic_and_consistent():
    rng = substream(3, 0)
    n, sigma2, eta = 8, 0.1, 1.0 / 8
    W = _random_w(rng, n, 2)
    S = np.repeat(qam16().points[[[3, 11]]], 400, axis=0)
    Xd1, Xq1 = _chain(W, S, sigma2, eta, substream(9, 0))
    Xd2, Xq2 = _chain(W, S, sigma2, eta, substream(9, 0))
    assert np.array_equal(Xd1, Xd2) and np.array_equal(Xq1, Xq2)
    # dither variance sanity: ||x_d - x||^2 has mean n*sigma2
    devs = np.linalg.norm(Xd1 - W @ S[0], axis=1) ** 2
    assert np.mean(devs) == pytest.approx(n * sigma2, rel=0.15)


def test_transmit_dithered_second_moment():
    # fixed s: E[x_d x_d^H] = x x^H + sigma2 * I
    rng = substream(3, 5)
    n, sigma2 = 2, 0.5
    W = _random_w(rng, n, 1)
    s = qam16().points[[7]]
    draws = 30_000
    Xd, _ = _chain(W, np.repeat(s[None], draws, axis=0), sigma2, 1.0 / n, rng)
    prods = Xd[:, :, None] * Xd.conj()[:, None, :]
    target = np.outer(W @ s, (W @ s).conj()) + sigma2 * np.eye(n)
    se = prods.std(axis=0) / np.sqrt(draws)
    assert np.all(np.abs(prods.mean(axis=0) - target) <= 4 * se + 1e-3)


def test_transmit_zero_dither_is_pure_quantization():
    rng = substream(3, 1)
    W = _random_w(rng, 4, 1)
    S = qam16().points[[[5]]]
    Xd, Xq = _chain(W, S, 0.0, 0.25, rng)
    assert np.array_equal(Xd, S @ W.T)
    assert np.array_equal(Xq, quantize_1bit(S @ W.T, 0.25))


def test_transmit_zero_symbol_gives_unbiased_signs():
    rng = substream(3, 2)
    n = 4
    W = _random_w(rng, n, 1)
    draws = 4000
    _, Xq = _chain(W, np.zeros((draws, 1), dtype=complex), 0.5, 1.0 / n, substream(10, 0))
    freq = (Xq.real > 0).mean(axis=0)
    assert np.all(np.abs(freq - 0.5) < 4 * 0.5 / np.sqrt(draws))
