"""The library names the benchmark's tracer wraps, checked without running the benchmark.

`benchmark/tracing.py` wraps functions where the library looks them up
(`onebitlink.harness.quantize_1bit`, `onebitlink.detect.chol_logdet`, ...).
A refactor that stops calling one of them through that name would leave a
required span silent; these tests catch it in the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from onebitlink import harness, oracle

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name, monkeypatch):
    """Import benchmark/<name>.py by path, registered only for this test."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_a_tiny_sweep_and_oracle_run_fire_every_required_span(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    cfg = harness.ExperimentConfig(n_tx=16, n_rx=4, n_streams=2, rho_db=5.0,
                                   dither_dbm=(-2.0, 4.0), n_channels=1,
                                   n_symbol_vectors=8, detectors=("ml", "blmmse"))
    spec = oracle.InstanceSpec(n_tx=4, n_rx=2, n_streams=1, sigma2=0.1, rho=2.0, seed=0)
    with tracing.Tracer() as tracer:
        harness.run_sweep(cfg)
        oracle.validate_instance(spec, draws=10 ** 4)
    tracing.check_coverage(tracer, workloads.SWEEP_SPANS + workloads.BLMMSE_SPANS
                           + workloads.ORACLE_SPANS)
    # the tracer puts every wrapped function back on exit
    assert not hasattr(harness.quantize_1bit, "__wrapped__")


def test_dither_pieces_are_built_once_per_dither_power(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    for grid in ({"rho_db": 5.0, "dither_dbm": (-2.0, 4.0)},
                 {"rho_db": (0.0, 10.0), "dither_dbm": 2.0}):
        cfg = harness.ExperimentConfig(n_tx=8, n_rx=2, n_channels=2, n_symbol_vectors=8,
                                       detectors=("ml", "blmmse"), **grid)
        with tracing.Tracer() as tracer:
            harness.run_sweep(cfg)
        # raises unless cov_xd, bussgang_gain and cov_xq_unconditional are
        # called equally often
        m = tracing.layer_metrics([tracer], [0.0], [0.0])
        per_power = len(cfg.dither_dbm) * cfg.n_channels
        per_point = len(cfg.sweep_points()[1]) * cfg.n_channels
        assert len(tracer.by_name("txchain.cov_xd")) == per_power
        assert m["txchain.quantize_ms.n"][0] == per_power
        # both dither points fit one stack (64 covariance entries each), so
        # each channel builds one kernel stack, and in the dither grid one
        # table; the SNR grid factors its stack once per point
        assert m["stats.kernels"][0] == cfg.n_channels
        assert m["detect.tables"][0] == (cfg.n_channels if len(cfg.dither_dbm) > 1
                                         else per_point)
        assert m["detect.candidates_per_table"][0] == 16
        # the tracer reads CholFactor.jitter, which stays 0.0
        assert m["core.chol_jitter_events"][0] == 0


def test_oracle_draws_count_each_pass_once(monkeypatch):
    # oracle.draws sums the rows of the oracle.quantize spans: each of the two
    # passes of a validation quantizes every draw once, in order, in one
    # (rows, 2N) call per slice of at most SLICE_ROWS rows
    rows = []
    real = oracle.quantize_1bit

    def counting(x, eta):
        rows.append(np.asarray(x).shape[0])
        return real(x, eta)

    monkeypatch.setattr(oracle, "quantize_1bit", counting)
    spec = oracle.InstanceSpec(n_tx=4, n_rx=2, n_streams=1, sigma2=0.1, rho=2.0, seed=0)
    oracle.validate_instance(spec, draws=25_000)
    size = oracle.SLICE_ROWS
    one_pass = [min(size, 25_000 - start) for start in range(0, 25_000, size)]
    assert one_pass == [4096] * 6 + [424]
    assert rows == 2 * one_pass
    assert sum(rows) == 2 * 25_000
