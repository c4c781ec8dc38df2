import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebitlink.channel import (ChannelParams, draw_channel,
                                draw_path_angles, make_precoder,
                                realize_channel, steering)
from onebitlink.core import ParameterError, qam16, substream


def test_steering_broadside_is_all_ones():
    assert_allclose(steering(6, 0.0), np.ones(6), atol=1e-15)


def test_steering_phase_progression():
    a = steering(5, 0.7, spacing=0.5)
    ratio = a[1:] / a[:-1]
    assert_allclose(ratio, np.exp(1j * 2 * np.pi * 0.5 * np.sin(0.7)), atol=1e-12)
    assert_allclose(np.abs(a), 1.0, atol=1e-15)


def test_steering_over_an_angle_array_stacks_the_scalar_vectors():
    angles = np.array([-0.4, 0.0, 0.25, 1.1])
    A = steering(7, angles, spacing=0.3)
    assert A.shape == (7, 4)
    for j, t in enumerate(angles):
        assert np.array_equal(A[:, j], steering(7, t, spacing=0.3))
    assert steering(7, 0.25).shape == (7,)


def test_draw_channel_bit_identical_to_explicit_path_sum():
    # the path sum written out with the same operation order, for the same stream
    params = ChannelParams(n_rx=5, n_tx=12, n_paths=30)
    H = draw_channel(params, substream(4, 0, 0))
    rng = substream(4, 0, 0)
    aoa, aod = draw_path_angles(params, rng)
    gains = (rng.standard_normal(30) + 1j * rng.standard_normal(30)) / np.sqrt(2.0)
    a_rx = np.exp(1j * 2.0 * np.pi * 0.5 * np.arange(5)[:, None] * np.sin(aoa)[None, :])
    a_tx = np.exp(1j * 2.0 * np.pi * 0.5 * np.arange(12)[:, None] * np.sin(aod)[None, :])
    assert np.array_equal(H, (a_rx * gains[None, :]) @ a_tx.conj().T / np.sqrt(30))


def test_single_path_channel_is_rank_one():
    params = ChannelParams(n_rx=4, n_tx=8, n_paths=1)
    H = draw_channel(params, substream(0, 0))
    sv = np.linalg.svd(H, compute_uv=False)
    assert sv[1] < 1e-12 * sv[0]


def test_single_path_broadside_is_scaled_all_ones():
    # both steering vectors are all ones at zero angle, so H = g * ones
    params = ChannelParams(n_rx=3, n_tx=5, n_paths=1, angular_spread=0.0,
                           center_aoa=0.0, center_aod=0.0)
    H = draw_channel(params, substream(6, 0))
    assert_allclose(H, H[0, 0] * np.ones((3, 5)), atol=1e-14)


def test_single_path_column_phase_ratio():
    phi = 0.6
    params = ChannelParams(n_rx=2, n_tx=2, n_paths=1, angular_spread=0.0,
                           center_aoa=0.2, center_aod=phi)
    H = draw_channel(params, substream(6, 1))
    # departure steering enters conjugated, so adjacent columns differ by
    # exp(-1j*pi*sin(phi)) at half wavelength spacing
    assert_allclose(H[:, 1] / H[:, 0], np.exp(-1j * np.pi * np.sin(phi)),
                    atol=1e-12)


def test_drawn_angles_stay_inside_spread():
    params = ChannelParams(n_rx=2, n_tx=2, n_paths=7,
                           angular_spread=np.pi / 6,
                           center_aoa=0.3, center_aod=-0.5)
    rng = substream(6, 2)
    half = params.angular_spread / 2
    for _ in range(1000):
        aoa, aod = draw_path_angles(params, rng)
        assert np.all(np.abs(aoa - 0.3) <= half)
        assert np.all(np.abs(aod + 0.5) <= half)


def test_zero_spread_pins_rays_to_centers():
    # with zero angular spread every path shares the center angles, so the
    # channel is an exact rank-one outer product of the center steering vectors
    params = ChannelParams(n_rx=4, n_tx=8, n_paths=50, angular_spread=0.0,
                           center_aoa=0.4, center_aod=-0.9)
    H = draw_channel(params, substream(1, 0))
    outer = np.outer(steering(4, 0.4), steering(8, -0.9).conj())
    corr = abs(np.vdot(outer, H)) / (np.linalg.norm(outer) * np.linalg.norm(H))
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_entry_power_normalization():
    # E|H_ij|^2 = 1 regardless of path count
    params = ChannelParams(n_rx=4, n_tx=8, n_paths=100)
    rng = substream(2, 0)
    powers = np.empty(600)
    for t in range(powers.size):
        H = draw_channel(params, rng)
        powers[t] = np.mean(np.abs(H) ** 2)
    se = powers.std(ddof=1) / np.sqrt(powers.size)
    assert abs(powers.mean() - 1.0) <= 5 * se + 0.01


def test_fixed_entry_power_over_many_realizations():
    params = ChannelParams(n_rx=2, n_tx=2, n_paths=100)
    rng = substream(2, 1)
    acc = 0.0
    n = 10_000
    for _ in range(n):
        acc += abs(draw_channel(params, rng)[1, 0]) ** 2
    assert acc / n == pytest.approx(1.0, abs=0.05)


def test_precoder_columns_solve_the_gram_eigenproblem():
    rng = substream(3, 0)
    H = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    top = make_precoder(H, 2)
    W = top.vectors
    assert_allclose(W.conj().T @ W, np.eye(2), atol=1e-12)
    lhs = H.conj().T @ (H @ W)
    assert_allclose(lhs, W * top.singular_values ** 2, atol=1e-8)


def test_precoder_orthogonal_rows_picks_heaviest():
    # H = diag(3,2,1) @ V^H has orthogonal rows of norms 3 > 2 > 1, so the
    # best rank-one right subspace is spanned by the heaviest row
    rng = substream(3, 2)
    V, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    H = np.diag([3.0, 2.0, 1.0]) @ V.conj().T
    top = make_precoder(H, 1)
    assert top.singular_values[0] == pytest.approx(3.0, rel=1e-12)
    overlap = abs(np.vdot(top.vectors[:, 0], H[0].conj() / 3.0))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_full_rank_precoder_captures_all_energy():
    rng = substream(3, 3)
    H = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    top = make_precoder(H, 3)
    sv_all = np.linalg.svd(H, compute_uv=False)
    assert np.linalg.norm(H @ top.vectors, "fro") ** 2 == pytest.approx(
        np.sum(sv_all ** 2), rel=1e-12)


def test_precoded_symbol_energy_sample_mean():
    rng = substream(3, 4)
    H = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    W = make_precoder(H, 2).vectors
    S = (rng.standard_normal((10_000, 2))
         + 1j * rng.standard_normal((10_000, 2))) / np.sqrt(2.0)
    energy = np.mean(np.linalg.norm(S @ W.T, axis=1) ** 2)
    assert energy == pytest.approx(2.0, rel=0.03)


def test_precoded_symbol_energy_equals_stream_count():
    rng = substream(3, 1)
    H = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    W = make_precoder(H, 2).vectors
    pts = qam16().points
    # average over the full product constellation: E||W s||^2 = K
    energy = 0.0
    for a in pts:
        for b in pts:
            energy += np.linalg.norm(W @ np.array([a, b])) ** 2
    energy /= pts.size ** 2
    assert energy == pytest.approx(2.0, rel=1e-12)


def test_realize_channel_bundles_consistent_pieces():
    params = ChannelParams(n_rx=3, n_tx=6)
    real = realize_channel(params, 2, substream(4, 0))
    assert real.H.shape == (3, 6)
    assert real.W.shape == (6, 2)
    ref = make_precoder(real.H, 2)
    assert_allclose(real.W, ref.vectors, atol=1e-13)
    assert_allclose(real.singular_values, ref.singular_values, atol=1e-13)


def test_channel_params_validation():
    with pytest.raises(ParameterError):
        ChannelParams(n_rx=0, n_tx=4)
    with pytest.raises(ParameterError):
        ChannelParams(n_rx=2, n_tx=4, n_paths=0)
    with pytest.raises(ParameterError):
        ChannelParams(n_rx=2, n_tx=4, angular_spread=-0.1)
    for spread in (float("nan"), float("inf"), "abc", None):
        with pytest.raises(ParameterError):
            ChannelParams(n_rx=2, n_tx=4, angular_spread=spread)
