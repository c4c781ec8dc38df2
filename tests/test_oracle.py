import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebitlink import oracle
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


def test_mc_moment_keeps_the_complex_draw_stream(monkeypatch):
    # the stacked-real chain draws the same numbers in the same stream order
    # as the complex one, so only matrix-product rounding separates them
    monkeypatch.setattr(oracle, "CHUNK", 4000)
    rng = substream(8, 0)
    n, m, k = 3, 2, 2
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    x = W @ qam16().points[[3, 9]]
    sigma2, eta = 0.3, 1.0 / n
    G = lmmse_gain(x, sigma2, eta)
    for kind in ("cov_pd", "noise_cov", "cov_y_gauss"):
        est = mc_moment(kind, sigma2, eta, x=x, H=H, G=G, W=W, rho=2.0, draws=10 ** 4,
                        rng=substream(8, 1))
        ref = _complex_chain_moment(kind, x, H, G, W, sigma2, eta, 2.0, 10 ** 4, 4000,
                                    substream(8, 1))
        assert_allclose(est.value, ref, rtol=1e-12, atol=0, err_msg=kind)


def _slice_rows(steps):
    """Rows of each slice a pass builds, in order, for chunks of `steps` rows."""
    size = oracle.SLICE_ROWS
    return [min(size, step - start) for step in steps for start in range(0, step, size)]


def test_known_square_sums_equal_explicit_squares(monkeypatch):
    # the quantizer output is never squared: its square sums are counts times
    # c*c. Rebuild each estimate from explicit squares of the arrays the pass
    # quantized, over two full chunks and a ragged last one
    seen = []

    def recording(x, eta):
        xq = quantize_1bit(x, eta)
        seen.append((x.copy(), xq.copy()))
        return xq

    monkeypatch.setattr(oracle, "quantize_1bit", recording)
    rng = substream(9, 0)
    n, k = 3, 2
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    x = W @ qam16().points[[2, 13]]
    sigma2, eta, draws = 0.3, 1.0 / n, 25_000
    monkeypatch.setattr(oracle, "CHUNK", 10_000)
    operands = {"mean_xq": ("xq",), "cross_xd_xq": ("xd", "xq"), "cov_xq": ("xq", "xq"),
                "cross_xd_xq_gauss": ("xd", "xq"), "cov_xq_gauss": ("xq", "xq")}
    for kind, names in operands.items():
        seen.clear()
        est = mc_moment(kind, sigma2, eta, x=x, W=W, draws=draws, rng=substream(9, 1))
        # chunks of 10,000, 10,000 and 5,000 rows, each quantized slice by slice
        assert [xd.shape[0] for xd, _ in seen] == _slice_rows([10_000, 10_000, 5_000]), kind
        s = s2 = 0.0
        for xd, xq in seen:
            a = {"xd": xd, "xq": xq}
            A, B = a[names[0]], a[names[-1]]
            if len(names) == 1:
                s, s2 = s + A.sum(axis=0), s2 + (A * A).sum(axis=0)
            else:
                s, s2 = s + A.T @ B, s2 + (A * A).T @ (B * B)
        mean, msq = s / draws, s2 / draws
        var = msq - mean ** 2
        assert_allclose(est.value, mean, rtol=1e-12, atol=1e-15, err_msg=kind)
        # the variance behind the stderr is E[a^2 b^2] - mean^2: the sums'
        # rounding is relative to those two terms, which cancel where the
        # variance is small (the constant diagonal of cov_xq)
        got_var = est.stderr ** 2 * draws
        tol = 1e-12 * (msq + mean ** 2)
        assert np.all(np.abs(got_var - np.maximum(var, 0.0)) <= tol), kind


def test_slices_keep_the_stream_and_the_estimates(monkeypatch):
    # a pass draws each chunk whole, as (2, step, n) arrays in the order d, z
    # (conditional) and s, d, z (Gaussian symbols), and slices only what it
    # builds from them: the generator ends where direct draws leave it, and
    # one slice per chunk gives the same estimates up to summation order
    rng = substream(10, 0)
    n, m, k = 3, 2, 2
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    H = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    x = W @ qam16().points[[5, 12]]
    sigma2, eta, rho, draws, chunk = 0.3, 1.0 / n, 2.0, 25_000, 10_000
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    G = lmmse_gain(x, sigma2, eta)
    steps = [10_000, 10_000, 5_000]
    assert len(set(_slice_rows(steps))) > 2  # ragged slices within each chunk

    def passes():
        rng, twin = substream(10, 1), substream(10, 1)
        cond = oracle._run_conditional(x, H, G, sigma2, eta, rho, draws, rng,
                                       oracle._CONDITIONAL_KINDS)
        for step in steps:
            twin.standard_normal((2, step, n))
            twin.standard_normal((2, step, m))
        assert rng.bit_generator.state == twin.bit_generator.state
        gauss = oracle._run_gauss(W, H, sigma2, eta, rho, draws, rng,
                                  oracle._GAUSS_KINDS)
        for step in steps:
            for width in (k, n, m):
                twin.standard_normal((2, step, width))
        assert rng.bit_generator.state == twin.bit_generator.state
        return {**cond, **gauss}

    sliced = passes()
    monkeypatch.setattr(oracle, "SLICE_ROWS", chunk)
    whole = passes()
    assert set(sliced) == oracle._CONDITIONAL_KINDS | oracle._GAUSS_KINDS
    for kind, est in sliced.items():
        ref = whole[kind]
        assert est.draws == ref.draws == draws, kind
        assert_allclose(est.value, ref.value, rtol=1e-12, atol=0, err_msg=kind)
        # the variance behind the stderr, E[a^2 b^2] - mean^2, cancels where it
        # is small (the constant diagonal of cov_xq), so its rounding is
        # relative to the two terms, as in the explicit-squares test above
        var, ref_var = est.stderr ** 2 * draws, ref.stderr ** 2 * draws
        tol = 1e-12 * (ref_var + 2 * ref.value ** 2)
        assert np.all(np.abs(var - ref_var) <= tol), kind


def test_validation_memory_is_the_raw_draws_of_one_chunk():
    # only the raw draws are chunk-sized: the Gaussian-symbol pass of a
    # full chunk holds its s, d and z draws, 2 * CHUNK * (K + N + M) doubles,
    # and every array built from them is slice-sized
    spec = default_instances()[-1]
    raw = 2 * oracle.CHUNK * (spec.n_streams + spec.n_tx + spec.n_rx) * 8
    tracemalloc.start()
    try:
        validate_instance(spec, draws=oracle.CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < raw + 8 * 2 ** 20, (peak / 2 ** 20, raw / 2 ** 20)


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
    u = fac.inv_factor @ (y - mu)
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
