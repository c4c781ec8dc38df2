"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (visible under `pytest -s` or on failure)
and enforces the pinned tolerances. The heavy simulations run at fixed seeds,
so every number below is reproducible.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from onebitlink.core import complex_normal, qam16, qpsk, quantize_1bit, substream
from onebitlink.detect import build_candidate_kernels, build_candidate_table, ml_detect_batch
from onebitlink.harness import (ExperimentConfig, csv_equal_ignoring_timing,
                                run_sweep, to_csv_text, write_csv)
from onebitlink.oracle import (default_instances, mc_gaussian_loglike,
                               mc_moment, validate_instance)
from onebitlink.stats import assemble_stats, receive_basis, symbol_kernel


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_moment_oracle_suite():
    t0 = time.perf_counter()
    specs = default_instances()
    assert len(specs) >= 20
    agg = defaultdict(lambda: [0, 0])
    for spec in specs:
        for row in validate_instance(spec, draws=10 ** 6):
            agg[row.quantity][0] += row.within
            agg[row.quantity][1] += row.entries
    elapsed = time.perf_counter() - t0
    fracs = {q: w / e for q, (w, e) in agg.items()}
    worst = min(fracs, key=fracs.get)
    ok = all(f >= 0.99 for f in fracs.values()) and elapsed < 300.0
    _verdict(1, "closed forms vs 1e6-draw oracles", ok,
             f"{len(specs)} instances, {len(fracs)} quantities, worst "
             f"{worst}={fracs[worst]:.2%} within 4 SE, {elapsed:.0f}s < 300s")


def test_criterion_2_bussgang_decorrelation():
    rng = substream(20, 0)
    n, k = 4, 2
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    est = mc_moment("cross_qd_xd_gauss", 0.3, 1.0 / n, W=W, draws=10 ** 6, rng=rng)
    z = np.abs(est.value) / np.maximum(est.stderr, 1e-12)
    ok = bool(np.all(np.abs(est.value) <= 4 * est.stderr + 1e-12))
    _verdict(2, "distortion uncorrelated with quantizer input", ok,
             f"max |E[q_d x_d^H]| z-score {z.max():.2f} <= 4 at 1e6 draws")


def test_criterion_3_ml_matches_dense_oracle():
    mismatches = 0
    total = 0
    const = qpsk()
    for trial in range(10):
        rng = substream(30, trial)
        W = np.linalg.qr(rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)))[0]
        H = (rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))) / np.sqrt(2)
        sigma2, eta, rho = 0.1, 1.0 / 6, 2.0
        table = build_candidate_table(
            build_candidate_kernels(receive_basis(H), W, const, sigma2, eta), rho)
        Y = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
        got = ml_detect_batch(Y, table)[0][:, 0]
        # independent dense-inverse path, rebuilt without the cached factors
        sigmas = []
        mus = []
        for sym in const.points:
            mu, Sigma = assemble_stats(
                symbol_kernel(receive_basis(H), W[:, 0] * sym, sigma2, eta), rho)
            mus.append(mu)
            sigmas.append(Sigma)
        Yp = np.concatenate([Y.real, Y.imag], axis=1)
        for t in range(Y.shape[0]):
            objs = [mc_gaussian_loglike(Yp[t], mus[c], sigmas[c]) for c in range(4)]
            total += 1
            if got[t] != int(np.argmin(objs)):
                mismatches += 1
    ok = mismatches == 0 and total == 1000
    _verdict(3, "ML equals dense-inverse likelihood oracle", ok,
             f"{mismatches} mismatches over {total} detections")


def test_criterion_4_dither_sweep_desk_scale():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n_tx=128, n_rx=16, n_streams=1, rho_db=(5.0,),
                           dither_dbm=tuple(np.linspace(-10.0, 30.0, 8)),
                           n_channels=10, n_symbol_vectors=2000,
                           detectors=("ml", "blmmse"), seed=0)
    rep = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    ml = [r for r in rep.rows if r.detector == "ml"]
    bl = [r for r in rep.rows if r.detector == "blmmse"]
    dominated = all(a.ser <= b.ser for a, b in zip(ml, bl))
    best = int(np.argmin([r.ser for r in ml]))
    order_gap = ml[best].ser <= 0.1 * bl[best].ser
    interior = (0 < best < len(ml) - 1
                and ml[best].ser < ml[0].ser and ml[best].ser < ml[-1].ser)
    ok = dominated and order_gap and interior and elapsed < 900.0
    _verdict(4, "dither sweep: ML dominates, 10x at optimum, interior minimum", ok,
             f"best point {ml[best].param_value:g} dBm ml={ml[best].ser:.2e} "
             f"blmmse={bl[best].ser:.2e}, dominated={dominated}, "
             f"interior={interior}, {elapsed:.0f}s < 900s")


def test_criterion_5_snr_saturation():
    sers = {}
    for rho_db, n_vec in ((0.0, 3000), (20.0, 5000), (30.0, 10000), (40.0, 10000)):
        cfg = ExperimentConfig(n_tx=128, n_rx=16, n_streams=3, rho_db=(rho_db,),
                               dither_dbm=(2.0,), n_channels=10,
                               n_symbol_vectors=n_vec, detectors=("ml",), seed=0)
        sers[rho_db] = run_sweep(cfg).rows[0].ser
    saturated = abs(sers[40.0] - sers[30.0]) < 0.5 * sers[30.0]
    improving = sers[20.0] <= sers[0.0] / 3.0
    ok = saturated and improving
    _verdict(5, "SNR curve saturates at high SNR", ok,
             f"ser(0)={sers[0.0]:.2e} ser(20)={sers[20.0]:.2e} "
             f"ser(30)={sers[30.0]:.2e} ser(40)={sers[40.0]:.2e}; "
             f"|40-30| rel diff {abs(sers[40.0]-sers[30.0])/sers[30.0]:.0%} < 50%")


def test_criterion_6_receive_antenna_scaling():
    mins = {}
    for m in (16, 64):
        cfg = ExperimentConfig(n_tx=128, n_rx=m, n_streams=2, rho_db=(5.0,),
                               dither_dbm=(-2.0, 1.0, 4.0, 7.0),
                               n_channels=10, n_symbol_vectors=2000,
                               detectors=("ml",), seed=0)
        mins[m] = min(r.ser for r in run_sweep(cfg).rows)
    ok = mins[16] > 0 and mins[16] >= 3.0 * mins[64]
    _verdict(6, "more receive antennas cut the optimal SER", ok,
             f"min ser M=16 {mins[16]:.2e} vs M=64 {mins[64]:.2e} "
             f"(ratio {mins[16] / max(mins[64], 1e-12):.1f}x >= 3x)")


def test_criterion_7_bit_exact_power():
    n, k = 128, 1
    eta = 1.0 / n
    rng = substream(70, 0)
    W = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    pts = qam16().points
    checked = 0
    exact = True
    # the transmit chain as the sweep harness runs it
    for chunk in range(10):
        X = pts[rng.integers(0, 16, (10_000, k))] @ W.T
        xq = quantize_1bit(X + np.sqrt(0.0016) * complex_normal(rng, (10_000, n)), eta)
        power = np.sum(xq.real ** 2, axis=1) + np.sum(xq.imag ** 2, axis=1)
        exact = exact and bool(np.all(power == 1.0))
        checked += power.size
    ok = exact and checked == 100_000
    _verdict(7, "unit transmit power is bit-exact", ok,
             f"{checked} transmissions at N=128, all ||x_q||^2 == 1.0 exactly")


def test_criterion_8_worker_determinism(tmp_path):
    base = dict(n_tx=16, n_rx=4, n_streams=1, rho_db=(5.0,),
                dither_dbm=(0.0, 10.0), n_channels=4, n_symbol_vectors=500,
                detectors=("ml", "blmmse"), seed=11)
    rep1 = run_sweep(ExperimentConfig(**base, workers=1))
    rep8 = run_sweep(ExperimentConfig(**base, workers=8))
    counts1 = [(r.param_value, r.detector, r.errors) for r in rep1.rows]
    counts8 = [(r.param_value, r.detector, r.errors) for r in rep8.rows]
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    write_csv(rep1, p1)
    write_csv(rep8, p8)
    same_counts = counts1 == counts8
    same_csv = csv_equal_ignoring_timing(p1.read_text(encoding="utf-8"),
                                         p8.read_text(encoding="utf-8"))
    ok = same_counts and same_csv
    _verdict(8, "sweeps deterministic across worker counts", ok,
             f"counts equal={same_counts}, timing-excluded CSV equal={same_csv}")
