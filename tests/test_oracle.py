import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from onebitlink.core import ParameterError, chol_logdet, qam16, quantize_1bit, substream
from onebitlink.oracle import (MIN_DRAWS, SATURATION_ALLOWANCE, InstanceSpec,
                               closed_form_moments, default_instances,
                               mc_gaussian_loglike, mc_moment,
                               validate_instance)
from onebitlink.stats import conditional_moments, lmmse_gain, stack_ri


def _params(sigma2=0.4, n=3):
    # dither variance and quantizer output power of an n-antenna chain
    return dict(sigma2=sigma2, eta=1.0 / n)


def test_mc_moment_enforces_draw_floor():
    with pytest.raises(ParameterError):
        mc_moment("mean_xq", x=np.zeros(3, dtype=complex), **_params(), draws=9999)
    # a chunk of no rows would never finish the pass
    with pytest.raises(ParameterError):
        mc_moment("mean_xq", x=np.zeros(3, dtype=complex), **_params(), chunk=0)
    # the bundled validation takes the same floor: standard errors over fewer
    # draws are no gate
    spec = InstanceSpec(n_tx=4, n_rx=2, n_streams=1, sigma2=0.1, rho=2.0, seed=0)
    for draws in (0, 100, MIN_DRAWS - 1):
        with pytest.raises(ParameterError):
            validate_instance(spec, draws=draws)


def test_mc_moment_rejects_unknown_kind_and_missing_args():
    with pytest.raises(ParameterError):
        mc_moment("mean_xd", x=np.zeros(3, dtype=complex), **_params())
    with pytest.raises(ParameterError):
        mc_moment("mean_xq", **_params())  # conditional kinds need x
    with pytest.raises(ParameterError):
        mc_moment("cov_xq_gauss", **_params())  # gauss kinds need W
    with pytest.raises(ParameterError):
        mc_moment("mean_xq", x=np.zeros(3, dtype=complex), **_params(sigma2=-0.1))


def test_mc_moment_is_deterministic_given_stream():
    x = np.array([0.2 - 0.1j, -0.4 + 0.3j, 0.1 + 0.1j])
    a = mc_moment("mean_xq", x=x, **_params(), draws=10 ** 4, rng=substream(5, 1))
    b = mc_moment("mean_xq", x=x, **_params(), draws=10 ** 4, rng=substream(5, 1))
    assert np.array_equal(a.value, b.value)
    assert a.draws == 10 ** 4


def test_mc_moment_zero_signal_mean():
    est = mc_moment("mean_xq", x=np.zeros(3, dtype=complex), **_params(),
                    draws=10 ** 5, rng=substream(5, 2))
    assert np.all(np.abs(est.value) <= 4 * est.stderr + 1e-12)
    assert np.all(np.isfinite(est.stderr))


def test_saturated_sign_average_needs_allowance():
    # dither far below the symbol: every draw emits the same sign, the
    # plug-in stderr is exactly zero, yet the closed form still sits
    # erfc(|x|/sigma) away; the saturation allowance must absorb that gap
    x = np.array([0.45 + 0.45j])
    draws = 10 ** 4
    est = mc_moment("mean_xq", 0.01, 0.5, x=x, draws=draws, rng=substream(70, 0))
    target = conditional_moments(x, np.eye(1), lmmse_gain(x, 0.01, 0.5), 0.01, 0.5,
                                 1.0)["mean_xq"]
    err = np.abs(target - est.value)
    assert np.all(est.stderr == 0.0)
    assert np.any(err > 4 * est.stderr + 1e-12)  # raw 4-SE rule is too tight
    assert np.all(err <= SATURATION_ALLOWANCE * np.abs(target) / draws)


def test_mc_moment_constant_modulus_diagonal():
    # matched-axis diagonal of the quantizer second moment is eta/2 exactly,
    # so the sample estimate collapses to it with zero spread
    n = 4
    x = np.array([0.3, -0.2, 0.5, 0.1]) + 1j * np.array([0.0, 0.4, -0.3, 0.2])
    est = mc_moment("cov_xq", x=x, **_params(n=n), draws=10 ** 4, rng=substream(5, 3))
    diag = np.diag(est.value)[:n]
    assert_allclose(diag, (1.0 / n) / 2, atol=1e-12)
    assert np.all(np.diag(est.stderr)[:n] <= 1e-12)


def test_mc_moment_noise_cov_at_zero_snr_is_awgn():
    rng = substream(5, 4)
    n, m = 3, 2
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.3
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    est = mc_moment("noise_cov", x=x, H=H, **_params(n=n), rho=0.0,
                    draws=10 ** 5, rng=rng)
    assert np.all(np.abs(est.value - 0.5 * np.eye(2 * m)) <= 4 * est.stderr + 1e-12)


def _complex_chain_moment(kind, x, H, G, W, sigma2, eta, rho, draws, chunk, rng):
    """E[a a^T] of the stacked chain output, by complex arithmetic.

    A test-only reference: each complex draw is a Re-then-Im pair of
    standard_normal calls, in the order s, d, z within a chunk.
    """
    sig = np.sqrt(sigma2)

    def cn(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    total = 0.0
    for start in range(0, draws, chunk):
        step = min(chunk, draws - start)
        if kind == "cov_y_gauss":
            s = cn((step, W.shape[1])) / np.sqrt(2)
            xq = quantize_1bit(s @ W.T + cn((step, W.shape[0])) * (sig / np.sqrt(2)), eta)
            a = np.sqrt(rho) * xq @ H.T + cn((step, H.shape[0])) / np.sqrt(2)
        else:
            d = cn((step, x.size)) * (sig / np.sqrt(2))
            xd = x + d
            a = quantize_1bit(xd, eta) - xd @ G.T
            if kind == "noise_cov":
                a = np.sqrt(rho) * (d @ (H @ G).T + a @ H.T) + cn((step, H.shape[0])) / np.sqrt(2)
        a = stack_ri(a)
        total = total + a.T @ a
    return total / draws


def test_mc_moment_keeps_the_complex_draw_stream():
    # the stacked-real chain draws the same numbers in the same stream order
    # as the complex one, so only matrix-product rounding separates them
    rng = substream(8, 0)
    n, m, k = 3, 2, 2
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    x = W @ qam16().points[[3, 9]]
    sigma2, eta = 0.3, 1.0 / n
    G = lmmse_gain(x, sigma2, eta)
    for kind in ("cov_pd", "noise_cov", "cov_y_gauss"):
        est = mc_moment(kind, sigma2, eta, x=x, H=H, G=G, W=W, rho=2.0, draws=10 ** 4,
                        rng=substream(8, 1), chunk=4000)
        ref = _complex_chain_moment(kind, x, H, G, W, sigma2, eta, 2.0, 10 ** 4, 4000,
                                    substream(8, 1))
        assert_allclose(est.value, ref, rtol=1e-12, atol=0, err_msg=kind)


def test_gaussian_loglike_trivial_cases():
    mu = np.array([0.5, -1.0, 2.0])
    assert mc_gaussian_loglike(mu, mu, np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    a = np.array([0.5, 2.0, 1.5])
    y = np.array([1.0, -1.0, 0.0])
    want = np.sum((y - mu) ** 2 / a + np.log(a))
    assert mc_gaussian_loglike(y, mu, np.diag(a)) == pytest.approx(want, rel=1e-14)


def test_gaussian_loglike_matches_cholesky_path():
    rng = substream(6, 0)
    A = rng.standard_normal((6, 6))
    Sigma = A @ A.T + 6 * np.eye(6)
    mu = rng.standard_normal(6)
    y = rng.standard_normal(6)
    dense = mc_gaussian_loglike(y, mu, Sigma)
    fac = chol_logdet(Sigma)
    u = solve_triangular(fac.factor, y - mu, lower=True)
    via_chol = float(u @ u) + fac.logdet
    assert dense == pytest.approx(via_chol, rel=1e-8)


def test_closed_form_moments_cover_every_oracle_kind():
    from onebitlink.oracle import _CONDITIONAL_KINDS, _GAUSS_KINDS

    rng = substream(7, 0)
    n, m, k = 3, 2, 1
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    s = qam16().points[[4]]
    x = W @ s
    sigma2, eta = 0.4, 1.0 / n
    G = lmmse_gain(x, sigma2, eta)
    closed = closed_form_moments(x, H, W, G, sigma2, eta, rho=2.0)
    assert set(closed) == _CONDITIONAL_KINDS | _GAUSS_KINDS
    for name, val in closed.items():
        assert np.all(np.isfinite(val)), name


def test_validate_instance_passes_at_moderate_draws():
    spec = InstanceSpec(n_tx=4, n_rx=2, n_streams=2, sigma2=0.2, rho=3.0, seed=123)
    rows = validate_instance(spec, draws=50_000)
    assert len(rows) == 15
    for r in rows:
        assert r.entries > 0
        assert r.frac_within >= 0.99, (r.quantity, r.frac_within, r.max_z)


def test_default_instances_grid():
    specs = default_instances()
    assert len(specs) >= 20
    assert {s.n_tx for s in specs} == {2, 4, 8}
    assert {s.sigma2 for s in specs} == {0.01, 0.1, 1.0}
    for s in specs:
        assert s.n_streams <= min(s.n_tx, s.n_rx)
