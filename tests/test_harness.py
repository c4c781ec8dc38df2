import dataclasses
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import onebitlink
from onebitlink.cli import main
from onebitlink.core import FactorizationError, ParameterError
from onebitlink.stats import receive_basis
from onebitlink.harness import (CSV_HEADER, MAX_GRID_POINTS, ExperimentConfig, SweepReport,
                                build_config, csv_equal_ignoring_timing,
                                dbm_to_linear, parse_config_file, parse_grid,
                                run_sweep, to_csv_text, write_csv)


def test_dbm_to_linear_reference_points():
    assert dbm_to_linear(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_linear(0.0) == pytest.approx(1e-3, rel=1e-12)
    # frozen: the dither power used by the saturation experiments
    assert dbm_to_linear(2.0) == pytest.approx(1.5848931924611134e-3, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        ExperimentConfig(rho_db=(0.0, 10.0), dither_dbm=(0.0, 5.0))  # two grids
    with pytest.raises(ParameterError):
        ExperimentConfig(detectors=("ml", "zf"))
    with pytest.raises(ParameterError):
        ExperimentConfig(detectors=("ml", "ml"))
    with pytest.raises(ParameterError):
        ExperimentConfig(detectors=())
    with pytest.raises(ParameterError):
        ExperimentConfig(n_tx=8, n_rx=2, n_streams=3)
    with pytest.raises(ParameterError):
        ExperimentConfig(n_symbol_vectors=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ParameterError):
        ExperimentConfig(constellation="8psk")
    with pytest.raises(ParameterError):
        ExperimentConfig(rho_db=(float("nan"),))
    with pytest.raises(ParameterError):
        ExperimentConfig(dither_dbm=(0.0, float("inf")))
    # grid values that are not numbers
    for bad in (dict(rho_db=[None]), dict(rho_db="abc"), dict(dither_dbm=(1.0, "x"))):
        with pytest.raises(ParameterError):
            ExperimentConfig(**bad)
    # grid values whose linear form overflows or underflows to zero dither
    with pytest.raises(ParameterError):
        ExperimentConfig(rho_db=(4000.0,))
    with pytest.raises(ParameterError):
        ExperimentConfig(dither_dbm=(4000.0,))
    with pytest.raises(ParameterError):
        ExperimentConfig(dither_dbm=(0.0, -4000.0))
    # -400 dBm is the well-defined dither-free limit (sigma2 = 1e-43)
    assert ExperimentConfig(dither_dbm=(-400.0,)).sweep_points()[1][0][1] > 0
    # channel and constellation fields
    for spread in (float("nan"), float("inf"), "abc", -0.1):
        with pytest.raises(ParameterError):
            ExperimentConfig(angular_spread=spread)
    with pytest.raises(ParameterError):
        ExperimentConfig(constellation=5)
    # ml needs 16^5 = 1048576 candidates, above the table cap; other detectors do not
    oversized = dict(n_tx=8, n_rx=6, n_streams=5, n_channels=1, n_symbol_vectors=10)
    with pytest.raises(ParameterError):
        ExperimentConfig(detectors=("ml",), **oversized)
    ExperimentConfig(detectors=("blmmse",), **oversized)
    # numpy integers are accepted and stored as plain ints, which the digest needs
    small = dict(n_rx=2, n_channels=1, n_symbol_vectors=10, detectors=("guess",))
    cfg = ExperimentConfig(n_tx=np.int64(8), seed=np.int64(1), **small)
    assert type(cfg.n_tx) is int and type(cfg.seed) is int
    assert run_sweep(cfg).config_digest == ExperimentConfig(n_tx=8, seed=1, **small).digest()


def test_sweep_points_axis_selection():
    cfg = ExperimentConfig(n_tx=8, n_rx=2, dither_dbm=(0.0, 10.0), rho_db=(5.0,))
    name, pts = cfg.sweep_points()
    assert name == "dither_dbm"
    assert [p[0] for p in pts] == [0.0, 10.0]
    assert pts[0][1] == pytest.approx(dbm_to_linear(0.0))
    assert pts[0][2] == pytest.approx(10 ** 0.5)

    cfg = ExperimentConfig(n_tx=8, n_rx=2, rho_db=(0.0, 20.0), dither_dbm=(2.0,))
    name, pts = cfg.sweep_points()
    assert name == "rho_db"
    assert pts[1][2] == pytest.approx(100.0)
    assert pts[0][1] == pts[1][1] == pytest.approx(dbm_to_linear(2.0))


def test_config_digest_tracks_content():
    a = ExperimentConfig(n_tx=8, n_rx=2, seed=0)
    b = ExperimentConfig(n_tx=8, n_rx=2, seed=1)
    assert a.digest() == ExperimentConfig(n_tx=8, n_rx=2, seed=0).digest()
    assert a.digest() != b.digest()


def _tiny(**kw):
    base = dict(n_tx=8, n_rx=2, n_streams=1, rho_db=(5.0,), dither_dbm=(0.0,),
                n_channels=2, n_symbol_vectors=300, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_point_constellation_never_errs():
    rep = run_sweep(_tiny(constellation="single", detectors=("ml", "blmmse", "guess")))
    assert all(r.errors == 0 and r.ser == 0.0 for r in rep.rows)


def test_ml_dominates_blmmse_on_mid_size_dither_grid():
    # full-chain comparison around the good dither region; the exact-stats
    # detector beats the linear baseline by an order of magnitude here, so
    # the per-point comparison is far outside pairing noise
    cfg = ExperimentConfig(n_tx=64, n_rx=16, n_streams=1,
                           rho_db=(5.0,), dither_dbm=(-1.0, 1.5, 4.0),
                           n_channels=6, n_symbol_vectors=1500,
                           detectors=("ml", "blmmse"), seed=5)
    rows = run_sweep(cfg).rows
    ml = {r.param_value: r.errors for r in rows if r.detector == "ml"}
    bl = {r.param_value: r.errors for r in rows if r.detector == "blmmse"}
    assert set(ml) == set(bl) == {-1.0, 1.5, 4.0}
    for v in ml:
        assert ml[v] < bl[v]


def test_random_guess_matches_analytic_rate():
    cfg = _tiny(detectors=("guess",), n_channels=2, n_symbol_vectors=2000)
    rep = run_sweep(cfg)
    r = rep.rows[0]
    p = 15.0 / 16.0
    se = np.sqrt(p * (1 - p) / r.trials)
    assert abs(r.ser - p) <= 3 * se
    assert r.trials == 2 * 2000


def test_ser_interval_shrinks_like_root_trials():
    # same scenario at geometrically growing trial counts: the binomial
    # confidence half-width must fall by ~2x per 4x trials
    hw = []
    for nv in (400, 1600, 6400):
        rep = run_sweep(_tiny(n_symbol_vectors=nv, detectors=("blmmse",),
                              dither_dbm=(10.0,)))
        r = rep.rows[0]
        assert 0.0 < r.ser < 1.0
        hw.append(1.96 * np.sqrt(r.ser * (1 - r.ser) / r.trials))
    assert 1.5 < hw[0] / hw[1] < 2.7
    assert 1.5 < hw[1] / hw[2] < 2.7


def test_worker_counts_agree():
    cfg1 = _tiny(detectors=("ml", "blmmse"), n_channels=3, workers=1)
    cfg2 = _tiny(detectors=("ml", "blmmse"), n_channels=3, workers=2)
    r1, r2 = run_sweep(cfg1), run_sweep(cfg2)
    assert [(r.detector, r.errors) for r in r1.rows] == \
           [(r.detector, r.errors) for r in r2.rows]
    assert csv_equal_ignoring_timing(to_csv_text(r1), to_csv_text(r2))


def test_pool_opens_no_more_workers_than_channels(monkeypatch):
    # a fake pool records its size and runs each task inline, so no process
    # is started whatever the configured worker count
    from concurrent.futures import Future

    from onebitlink import harness

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            assert initializer is harness._one_blas_thread

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    serial = run_sweep(_tiny(n_channels=2, workers=1))
    capped = run_sweep(_tiny(n_channels=2, workers=5000))
    assert sizes == [2]
    assert [r.errors for r in capped.rows] == [r.errors for r in serial.rows]
    run_sweep(_tiny(n_channels=1, workers=8))  # one channel runs in-process
    assert sizes == [2]


def test_sweep_workers_run_one_blas_thread():
    # a pool started with run_sweep's initializer: its worker reads one BLAS
    # thread through numpy's OpenBLAS getter, and this process keeps its own
    from concurrent.futures import ProcessPoolExecutor

    from onebitlink import harness

    get = "scipy_openblas_get_num_threads64_"
    here = harness._openblas(get)
    with ProcessPoolExecutor(max_workers=1, initializer=harness._one_blas_thread) as pool:
        worker = pool.submit(harness._openblas, get).result(timeout=60)
    assert harness._openblas(get) == here
    # a numpy built without these symbols keeps its threads as they are
    assert worker == (None if here is None else 1)
    assert harness._openblas("no_such_openblas_symbol_") is None


def test_trials_accounting_per_stream():
    rep = run_sweep(_tiny(n_streams=2, detectors=("blmmse",)))
    assert rep.rows[0].trials == 2 * 300 * 2
    assert rep.rows[0].ser == rep.rows[0].errors / rep.rows[0].trials


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_seconds_include_the_per_dither_builds(monkeypatch):
    # the combiner builds are charged to the first grid point of each run of
    # equal dither power, and each stacked kernel build to the first point of
    # its group of runs; a fixed delay in each build shows up there only.
    # The harness reads a virtual clock that only the delayed builds advance,
    # so the charged seconds are exact whatever the host load.
    from types import SimpleNamespace

    from onebitlink import detect, harness

    delay = 0.05
    now = [0.0]

    def slow(fn):
        def wrapped(*args, **kwargs):
            now[0] += delay
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(harness, "build_candidate_kernels", slow(harness.build_candidate_kernels))
    monkeypatch.setattr(harness, "cov_xd", slow(harness.cov_xd))

    def points(**grid):
        rows = run_sweep(ExperimentConfig(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=4,
                                          detectors=("ml", "blmmse"), **grid)).rows
        return [rows[i:i + 2] for i in range(0, len(rows), 2)]

    # an SNR grid: one build per channel, at the first point only
    first, second = points(rho_db=(0.0, 10.0), dither_dbm=(2.0,))
    assert all(r.seconds == pytest.approx(2 * delay, abs=1e-12) for r in first)
    assert all(r.seconds == 0.0 for r in second)
    # a dither grid: a combiner build per channel at every point, also at a
    # dither power the list revisits, which repeats the first point's errors;
    # the three points form one group per channel (a table of 4 orbits of
    # 4 x 4 covariances holds 64 entries per point, as do the call's turned
    # rows, 4 turns x 4 rows x 4), whose kernel stack is built at the first
    grid = points(rho_db=(5.0,), dither_dbm=(0.0, 10.0, 0.0))
    assert [r.seconds for pt in grid for r in pt] == pytest.approx(
        [2 * delay, 2 * delay, 0.0, 2 * delay, 0.0, 2 * delay], abs=1e-12)
    assert [r.errors for r in grid[0]] == [r.errors for r in grid[2]]
    # with room for two points per block, the third point starts a second group
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 2 * 64)
    split = points(rho_db=(5.0,), dither_dbm=(0.0, 10.0, 0.0))
    assert [r.seconds for pt in split for r in pt] == pytest.approx(
        [2 * delay, 2 * delay, 0.0, 2 * delay, 2 * delay, 2 * delay], abs=1e-12)
    assert [[r.errors for r in pt] for pt in split] == [[r.errors for r in pt] for pt in grid]
    # a delayed ml_detect_batch: each group's one call is charged to the
    # group's first point
    monkeypatch.setattr(harness, "ml_detect_batch", slow(harness.ml_detect_batch))
    split = points(rho_db=(5.0,), dither_dbm=(0.0, 10.0, 0.0))
    assert [r.seconds for pt in split for r in pt] == pytest.approx(
        [4 * delay, 2 * delay, 0.0, 2 * delay, 4 * delay, 2 * delay], abs=1e-12)
    # at the full block size the three points make one call per channel
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 2 ** 19)
    grid = points(rho_db=(5.0,), dither_dbm=(0.0, 10.0, 0.0))
    assert [r.seconds for pt in grid for r in pt] == pytest.approx(
        [4 * delay, 2 * delay, 0.0, 2 * delay, 0.0, 2 * delay], abs=1e-12)
    # an SNR grid calls once per point
    first, second = points(rho_db=(0.0, 10.0), dither_dbm=(2.0,))
    assert [r.seconds for r in first + second] == pytest.approx(
        [4 * delay, 2 * delay, 2 * delay, 0.0], abs=1e-12)


def test_a_dither_group_is_detected_in_calls_of_at_most_a_block(monkeypatch):
    # M = 16, K = 1: a table of all 8 points of the dither_k1 shape fits the
    # 2^19-entry block, so a group is as large as one ml_detect_batch call's
    # turned rows, 4 x rows x 32 entries, fit the block (4,096 rows): 8 points
    # of 100 vectors make one group, of 2,000 vectors groups of two points,
    # and of 2,049 one group per point. The errors equal those of one group
    # per point.
    from onebitlink import harness

    calls = []
    detect_batch = harness.ml_detect_batch

    def recording(Y, table):
        calls.append((Y.shape[0], table.n_points))
        return detect_batch(Y, table)

    monkeypatch.setattr(harness, "ml_detect_batch", recording)
    grid = dict(n_tx=16, n_rx=16, rho_db=(5.0,), dither_dbm=tuple(np.linspace(-10.0, 30.0, 8)),
                n_channels=1, detectors=("ml",))
    for nv, want in ((100, [(800, 8)]), (2000, [(4000, 2)] * 4), (2049, [(2049, 1)] * 8)):
        cfg = ExperimentConfig(n_symbol_vectors=nv, **grid)
        calls.clear()
        stacked = [r.errors for r in run_sweep(cfg).rows]
        assert calls == want
        with monkeypatch.context() as m:
            m.setattr(harness, "points_per_group", lambda *args: 1)
            calls.clear()
            assert [r.errors for r in run_sweep(cfg).rows] == stacked
            assert calls == [(nv, 1)] * 8


def test_receive_basis_built_once_per_channel(monkeypatch):
    # the basis has the channel's lifetime: a 2-point dither sweep builds the
    # kernels of both points as one stack, and the basis, once per channel,
    # and a sweep without ml never builds it
    from onebitlink import harness

    built, used = [], []
    build_kernels = harness.build_candidate_kernels

    def counting(H):
        built.append(receive_basis(H))
        return built[-1]

    def recording(basis, *args):
        used.append(basis)
        return build_kernels(basis, *args)

    monkeypatch.setattr(harness, "receive_basis", counting)
    monkeypatch.setattr(harness, "build_candidate_kernels", recording)
    cfg = dict(n_tx=8, n_rx=2, n_channels=3, n_symbol_vectors=10, rho_db=(5.0,),
               dither_dbm=(0.0, 10.0))
    run_sweep(ExperimentConfig(detectors=("blmmse", "ml"), **cfg))
    assert len(built) == 3 and len(used) == 3
    assert all(u is b for u, b in zip(used, built))
    built.clear()
    run_sweep(ExperimentConfig(detectors=("blmmse",), **cfg))
    assert built == []


def test_kernel_stacks_follow_the_factorization_block(monkeypatch):
    # consecutive dither points share one kernel build per channel while
    # their covariances fit one factorization block (16-QAM, K = 1, M = 2:
    # 4 orbits of 4 x 4 covariances, 64 entries per point, as many as the
    # call's turned rows at 4 vectors), with the same errors however they
    # are grouped; an SNR grid builds once per channel
    from onebitlink import detect, harness

    sizes = []
    build = harness.build_candidate_kernels

    def recording(basis, W, const, sigma2, eta):
        sizes.append(np.shape(sigma2))
        return build(basis, W, const, sigma2, eta)

    monkeypatch.setattr(harness, "build_candidate_kernels", recording)
    base = dict(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=4, detectors=("ml",))
    dither = dict(rho_db=(5.0,), dither_dbm=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0))

    def errors(block):
        sizes.clear()
        monkeypatch.setattr(detect, "BLOCK_ENTRIES", block)
        return [r.errors for r in run_sweep(ExperimentConfig(**base, **dither)).rows]

    whole = errors(2 ** 19)
    assert sizes == [(8,)] * 2
    assert errors(3 * 64) == whole
    assert sizes == [(3,), (3,), (2,)] * 2
    # one point's stack exceeds the block: one point at a time
    assert errors(32) == whole
    assert sizes == [(1,)] * 16
    sizes.clear()
    run_sweep(ExperimentConfig(**base, rho_db=(0.0, 10.0, 20.0), dither_dbm=(2.0,)))
    assert sizes == [(1,)] * 2


def test_a_channel_holds_one_table_at_a_time(monkeypatch):
    # the previous table and its factor stack are released before the next
    # build starts: in an SNR grid, a table per point, and in a dither grid of
    # one stack per point (16-QAM, K = 1, M = 2: 64 entries per point)
    from onebitlink import detect, harness

    build = harness.build_candidate_table
    built, live = [], []

    def recording(kernels, rho):
        live.append(sum(ref() is not None for ref in built))
        table = build(kernels, rho)
        built.extend((weakref.ref(table), weakref.ref(table.inv_chol)))
        return table

    monkeypatch.setattr(harness, "build_candidate_table", recording)
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 64)
    base = dict(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=10, detectors=("ml", "blmmse"))
    for grid in (dict(rho_db=(0.0, 10.0, 20.0), dither_dbm=(2.0,)),
                 dict(rho_db=(5.0,), dither_dbm=(-10.0, 0.0, 10.0))):
        built.clear()
        live.clear()
        run_sweep(ExperimentConfig(**base, **grid))
        assert live == [0] * 6


def test_a_repeated_dither_power_is_quantized_once(monkeypatch):
    # consecutive equal powers share one quantization per channel, in one
    # group or across groups, and the repeated point's errors equal the first
    # point's and those of the grid without the repeat
    from onebitlink import harness

    quantized = []
    quantize = harness.quantize_1bit

    def counting(x, eta):
        quantized.append(x.shape)
        return quantize(x, eta)

    monkeypatch.setattr(harness, "quantize_1bit", counting)
    base = dict(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=40, rho_db=(5.0,),
                detectors=("ml", "blmmse"))

    def errors(dither):
        quantized.clear()
        rows = run_sweep(ExperimentConfig(**base, dither_dbm=dither)).rows
        return [[r.errors for r in rows[i:i + 2]] for i in range(0, len(rows), 2)]

    once = errors((0.0, 10.0))
    for per_group in (None, 1):
        if per_group is not None:
            monkeypatch.setattr(harness, "points_per_group", lambda *args: per_group)
        repeated = errors((0.0, 0.0, 10.0))
        assert len(quantized) == 2 * base["n_channels"]
        assert repeated == [once[0], once[0], once[1]]
    assert sum(map(sum, once)) > 0


def test_transmit_draws_are_released_before_detection(monkeypatch):
    # the dither draw U goes after the last quantization: in an SNR grid
    # before the first ML call, and in a dither grid of one point per group
    # before the last group's call. The quantized rows Xq go once their
    # power's last point has its received rows.
    from onebitlink import harness

    draws, quantized, freed = [], [], []
    draw, quantize = harness.complex_normal, harness.quantize_1bit
    detect_batch = harness.ml_detect_batch

    def keeping(rng, shape):
        out = draw(rng, shape)
        if shape[1] == 8:   # (vectors, n_tx): the dither draw U
            draws.append(weakref.ref(out))
        return out

    def quantizing(x, eta):
        out = quantize(x, eta)
        quantized.append(weakref.ref(out))
        return out

    def recording(Y, table):
        freed.append((draws[-1]() is None, quantized[-1]() is None))
        return detect_batch(Y, table)

    monkeypatch.setattr(harness, "complex_normal", keeping)
    monkeypatch.setattr(harness, "quantize_1bit", quantizing)
    monkeypatch.setattr(harness, "ml_detect_batch", recording)
    base = dict(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=10, detectors=("ml",))
    run_sweep(ExperimentConfig(**base, rho_db=(0.0, 10.0, 20.0), dither_dbm=(2.0,)))
    assert len(draws) == 2
    assert freed == [(True, False), (True, False), (True, True)] * 2
    draws.clear()
    freed.clear()
    monkeypatch.setattr(harness, "points_per_group", lambda *args: 1)
    run_sweep(ExperimentConfig(**base, rho_db=(5.0,), dither_dbm=(-10.0, 0.0, 10.0)))
    assert len(draws) == 2
    assert freed == [(False, True), (False, True), (True, True)] * 2


def test_factorization_error_names_the_channel_and_grid_point(monkeypatch):
    from onebitlink import detect, harness

    build = harness.build_candidate_kernels

    def breaking(call, slot, scale):
        # the kernel build numbered `call` gets inner = -scale I at orbit 0 of
        # point `slot`, whose covariance rho * inner + I/2 then fails at pivot
        # 0 wherever rho > 1 / (2 scale)
        calls = []

        def broken(basis, W, const, sigma2, eta):
            kernels = build(basis, W, const, sigma2, eta)
            calls.append(sigma2)
            if len(calls) == call:
                inner = kernels.kernel.inner.copy()
                # the packed identity: ones at the diagonal's places in the upper triangle
                i, j = np.triu_indices(kernels.kernel.mean_core.shape[-1])
                inner[slot, 0] = -scale * (i == j)
                kernels = kernels._replace(kernel=dataclasses.replace(kernels.kernel,
                                                                      inner=inner))
            return kernels
        return broken

    base = dict(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=4, detectors=("ml",))
    # a dither grid in groups of 3 points: the fifth build is channel 1's
    # second group, whose point 1 is the grid's 10 dBm
    monkeypatch.setattr(detect, "BLOCK_ENTRIES", 3 * 64)
    monkeypatch.setattr(harness, "build_candidate_kernels", breaking(5, 1, 1.0))
    with pytest.raises(FactorizationError) as exc:
        run_sweep(ExperimentConfig(**base, rho_db=(5.0,), dither_dbm=(
            -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)))
    assert str(exc.value) == ("channel 1, rho_db 5, dither_dbm 10: covariance of the candidate "
                              "with symbol indices (0,) at point 1 of the stack is not "
                              "positive definite at pivot 0")
    assert exc.value.index == (1, 0) and exc.value.pivot == 0
    # an SNR grid builds once per channel: channel 1's -0.1 I first fails at
    # rho > 5, the grid's 10 dB
    monkeypatch.setattr(harness, "build_candidate_kernels", breaking(2, 0, 0.1))
    with pytest.raises(FactorizationError, match="^channel 1, rho_db 10, dither_dbm 2: "):
        run_sweep(ExperimentConfig(**base, rho_db=(0.0, 5.0, 10.0), dither_dbm=(2.0,)))


def test_csv_text_layout(tmp_path):
    rep = run_sweep(_tiny(dither_dbm=(0.0, 10.0), detectors=("ml", "guess")))
    text = to_csv_text(rep)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "dither_dbm"
    assert first[2] == "ml"
    assert int(first[3]) == rep.rows[0].errors
    assert "\r" not in text and text.endswith("\n")
    path = tmp_path / "out.csv"
    write_csv(rep, path)
    assert path.read_bytes().decode("utf-8") == text


def test_report_version_is_the_package_version():
    report = SweepReport(rows=(), seed=0, config_digest="0" * 64)
    assert report.version == onebitlink.__version__


def test_csv_empty_report_is_header_only():
    empty = SweepReport(rows=(), seed=0, config_digest="0" * 64)
    assert to_csv_text(empty) == CSV_HEADER + "\n"


def test_csv_comparison_masks_only_timing():
    a = CSV_HEADER + "\ndither_dbm,0,ml,5,100,0.05,1.25\n"
    b = CSV_HEADER + "\ndither_dbm,0,ml,5,100,0.05,9.75\n"
    c = CSV_HEADER + "\ndither_dbm,0,ml,6,100,0.06,1.25\n"
    assert csv_equal_ignoring_timing(a, b)
    assert not csv_equal_ignoring_timing(a, c)
    assert not csv_equal_ignoring_timing(a, a + "extra,0,ml,1,2,0.5,0\n")


# ---------------------------------------------------------------------------
# config files and CLI
# ---------------------------------------------------------------------------

def test_parse_grid_forms():
    assert parse_grid("7") == [7]
    assert parse_grid("1,2.5,4") == [1, 2.5, 4]
    assert parse_grid("0:10:40") == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert parse_grid("-10:5:-5") == [-10.0, -5.0]
    assert parse_grid("3:1:3") == [3.0]
    # never past stop, but stop within rounding of a grid point is included
    assert parse_grid("0:0.4:1") == [0.0, 0.4, 0.8]
    assert len(parse_grid("0:0.1:0.3")) == 4
    with pytest.raises(ParameterError):
        parse_grid("0:10")
    with pytest.raises(ParameterError):
        parse_grid("0:-1:10")
    with pytest.raises(ParameterError):
        parse_grid("10:1:0")
    for raw in ("0:nan:1", "nan:1:2", "0:1:nan", "0:1:inf", "-inf:1:0", "0:inf:1",
                "0:a:1"):
        with pytest.raises(ParameterError):
            parse_grid(raw)


def test_parse_grid_refuses_too_many_points():
    # the point count is checked before the list is built, so even a grid
    # of 10^12 points (or one whose span overflows) is refused at once
    assert len(parse_grid(f"1:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    for raw in (f"0:1:{MAX_GRID_POINTS}", "0:1e-12:1", "-1e308:1:1e308"):
        with pytest.raises(ParameterError, match="more than"):
            parse_grid(raw)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(start=st.floats(-100.0, 100.0), step=st.floats(0.01, 50.0),
       span=st.floats(0.0, 500.0))
@example(start=0.0, step=0.4, span=1.0)
@example(start=0.0, step=0.1, span=0.3)
@example(start=-10.0, step=10.0, span=40.0)
def test_parse_grid_steps_from_start_to_stop(start, step, span):
    stop = start + span
    grid = parse_grid(f"{start!r}:{step!r}:{stop!r}")
    tol = 1e-9 * step
    assert grid[0] == start
    assert grid[-1] <= stop + tol
    assert stop - grid[-1] < step
    assert_allclose(np.diff(grid), step, rtol=0, atol=tol)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a tiny experiment\n"
        "n_tx = 16\n"
        "n_rx = 4   # inline comment\n"
        "dither_dbm = -10:10:30\n"
        "detectors = ml,guess\n"
        "seed = 7\n",
        encoding="utf-8",
    )
    over = parse_config_file(path)
    assert over["n_tx"] == 16
    assert over["dither_dbm"] == [-10.0, 0.0, 10.0, 20.0, 30.0]
    assert over["detectors"] == ["ml", "guess"]
    cfg = build_config(over)
    assert cfg.n_rx == 4 and cfg.seed == 7


def test_parse_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_tx 16\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        parse_config_file(bad)
    bad.write_text("voltage = 11\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        parse_config_file(bad)


def test_build_config_layer_precedence():
    cfg = build_config({"n_tx": 16, "seed": 1}, {"seed": 9, "n_rx": None})
    assert cfg.n_tx == 16
    assert cfg.seed == 9
    assert cfg.n_rx == 16  # default untouched by the None override
    with pytest.raises(ParameterError):
        build_config({"frequency": 1.0})


def test_cli_runs_and_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--n", "8", "--m", "2", "--k", "1", "--snr-db", "5",
                 "--dither-dbm", "0,10", "--channels", "1", "--symbols", "100",
                 "--seed", "4", "--detectors", "ml,blmmse",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("n_tx = 8\nn_rx = 2\nn_channels = 1\n"
                       "n_symbol_vectors = 50\ndetectors = guess\n",
                       encoding="utf-8")
    out = tmp_path / "o.csv"
    code = main(["--config", str(cfgfile), "--symbols", "80", "--out", str(out)])
    assert code == 0
    row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert int(row[4]) == 80  # CLI --symbols overrode the file value


def test_cli_rejects_bad_configuration(tmp_path, capsys, monkeypatch):
    assert main(["--n", "4", "--m", "2", "--k", "3"]) == 2
    assert main(["--detectors", "zf"]) == 2
    assert main(["--seed", "-1"]) == 2
    assert main(["--self-check", "--seed", "-1"]) == 2
    assert main(["--config", "/nonexistent/path.cfg"]) == 2
    assert main(["--n", "8", "--m", "2", "--snr-db", "nan"]) == 2
    for flag, grid in (("--snr-db", "0:nan:1"), ("--snr-db", "0:1:inf"), ("--snr-db", "0:a:1"),
                       ("--snr-db", "0:1e-12:1"), ("--snr-db", "abc"), ("--dither-dbm", "1,x")):
        capsys.readouterr()
        assert main([flag, grid]) == 2, grid
        err = capsys.readouterr().err
        assert err.startswith("onebitlink: configuration error") and len(err.splitlines()) == 1
    small = ["--n", "8", "--m", "2", "--channels", "1", "--symbols", "20"]
    assert main(small + ["--snr-db", "4000"]) == 2
    assert main(small + ["--dither-dbm", "4000"]) == 2
    assert main(small + ["--dither-dbm=-4000"]) == 2
    assert main(["--n", "8", "--m", "6", "--k", "5", "--channels", "1",
                 "--symbols", "10", "--detectors", "ml"]) == 2
    for line in ("angular_spread = nan", "angular_spread = abc", "constellation = 5",
                 "rho_db = 0:1:inf", "dither_dbm = 0:nan:1", "rho_db = abc"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(small + ["--config", str(cfg)]) == 2, line
    # sweep flags beside --self-check, and an output directory that is
    # missing, are refused before any Monte-Carlo draw or sweep
    from onebitlink import cli, oracle

    def never(*args, **kwargs):
        raise AssertionError("ran despite a configuration error")

    monkeypatch.setattr(oracle, "self_check", never)
    monkeypatch.setattr(cli, "run_sweep", never)
    capsys.readouterr()
    assert main(["--self-check", "--channels", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "--channels, --out" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert main(["--n", "8", "--m", "2", "--out", str(tmp_path / "missing" / "x.csv")]) == 2


def test_cli_reports_an_unwritable_output_in_one_line(tmp_path, capsys):
    # the parent directory exists, but the output path is itself a directory
    code = main(["--n", "8", "--m", "2", "--channels", "1", "--symbols", "10",
                 "--detectors", "guess", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("onebitlink: cannot write") and len(err.splitlines()) == 1


def test_cli_fails_a_factorization_instead_of_printing_a_ser(capsys):
    # at 160 dB a candidate covariance I/2 + rho He D He^T is not positive
    # definite in float64: the run exits 1 with one line naming the pivot,
    # and no SER row is printed
    code = main(["--m", "16", "--k", "2", "--snr-db", "160", "--dither-dbm", "2",
                 "--channels", "1", "--symbols", "50", "--detectors", "ml"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"onebitlink: channel 0, rho_db 160, dither_dbm 2: covariance of the "
                        r"candidate with symbol indices \(\d+, \d+\) at point 0 of the stack "
                        r"is not positive definite at pivot \d+\n", err)


def test_cli_self_check_passes():
    assert main(["--self-check"]) == 0
