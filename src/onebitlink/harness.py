"""Experiment driver: seeded SER sweeps over dither power or SNR, CSV output.

One sweep = many independent channel realizations x one grid of operating
points. Per channel, the symbol/dither/noise randomness is drawn once from
dedicated sub-streams and re-scaled at every grid point (common random
numbers), so curves differ only through the operating point and not through
sampling noise. Work is parallelized across channels; error counts are exactly
reproducible for any worker count.

The ML candidate tables of a dither grid are built in groups: consecutive
dither powers, as many as `detect.points_per_table` fits in one factorization
block, share one stacked kernel build and one stacked table per channel. The
group's points are detected in stacked `ml_detect_batch` calls, each holding
the received rows of as many consecutive points as `detect.points_per_call`
keeps within one block, in grid order. A row's `seconds` is the wall time its
detector spent on the row's grid point, summed over channels; an ML call's
seconds, with the builds it makes, are charged to the call's first point, so
its other points carry none.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from math import isfinite, pi

import numpy as np

from . import __version__
from .channel import ChannelParams, draw_channel, make_precoder
from .core import (FactorizationError, ParameterError, complex_normal, make_constellation,
                   quantize_1bit, substream)
from .detect import (MAX_TABLE, build_candidate_kernels, build_candidate_table,
                     ml_detect_batch, points_per_call, points_per_table,
                     slice_min_distance_batch, blmmse_combiner)
from .stats import receive_basis
from .txchain import bussgang_gain, cov_xd, cov_xq_unconditional

# rng sub-stream purposes; streams are keyed (seed, channel index, purpose)
CHANNEL = 0
SYMBOLS = 1
DITHER = 2
NOISE = 3
GUESS = 4

KNOWN_DETECTORS = ("ml", "blmmse", "guess")

CSV_HEADER = "param_name,param_value,detector,errors,trials,ser,seconds"

# Most points a start:step:stop grid may have; a larger one is refused before
# any of it is built.
MAX_GRID_POINTS = 100_000


def dbm_to_linear(v: float) -> float:
    """Power in dBm -> linear watts (unit transmit power sits at 30 dBm)."""
    return 10.0 ** ((float(v) - 30.0) / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx: int = 128
    n_rx: int = 16
    n_streams: int = 1
    rho_db: tuple = (5.0,)
    dither_dbm: tuple = (2.0,)
    n_channels: int = 10
    n_symbol_vectors: int = 2000
    seed: int = 0
    detectors: tuple = ("ml", "blmmse")
    constellation: str = "16qam"
    n_paths: int = 100
    angular_spread: float = pi / 6
    workers: int = 1
    output: str | None = None

    def __post_init__(self):
        for name in ("rho_db", "dither_dbm"):
            raw = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(float(v) for v in _as_list(raw)))
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must hold numbers, got {raw!r}") from None
        object.__setattr__(self, "detectors", tuple(_as_list(self.detectors)))
        # plain ints: digest() cannot serialize numpy integers
        for name in ("n_tx", "n_rx", "n_streams", "n_channels", "n_symbol_vectors",
                     "n_paths", "workers"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ParameterError("n_streams must not exceed min(n_tx, n_rx)")
        if not self.rho_db or not self.dither_dbm:
            raise ParameterError("rho_db and dither_dbm must be non-empty")
        if not all(isfinite(v) for v in self.rho_db + self.dither_dbm):
            raise ParameterError("rho_db and dither_dbm must be finite")
        if len(self.rho_db) > 1 and len(self.dither_dbm) > 1:
            raise ParameterError("only one of rho_db / dither_dbm may be a grid")
        if not self.detectors:
            raise ParameterError("detectors must be non-empty")
        for d in self.detectors:
            if d not in KNOWN_DETECTORS:
                raise ParameterError(f"unknown detector {d!r}; choose from {KNOWN_DETECTORS}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ParameterError("detectors must not repeat")
        const = make_constellation(self.constellation)  # raises on unknown name
        if "ml" in self.detectors and const.size ** self.n_streams > MAX_TABLE:
            raise ParameterError(
                f"ml needs a candidate table of {const.size ** self.n_streams} > "
                f"{MAX_TABLE} entries ({self.constellation}, {self.n_streams} streams)")
        ChannelParams(n_rx=self.n_rx, n_tx=self.n_tx, n_paths=self.n_paths,
                      angular_spread=self.angular_spread)  # raises on a bad spread
        try:
            ok = all(isfinite(s2) and s2 > 0 and isfinite(rho)
                     for _, s2, rho in self.sweep_points()[1])
        except OverflowError:
            ok = False
        if not ok:
            raise ParameterError("rho_db and dither_dbm must give a finite linear SNR "
                                 "and a finite, positive dither power")

    def sweep_points(self):
        """(axis name, [(axis value, sigma2 linear, rho linear), ...])."""
        if len(self.dither_dbm) > 1:
            rho = 10.0 ** (self.rho_db[0] / 10.0)
            return "dither_dbm", [(v, dbm_to_linear(v), rho) for v in self.dither_dbm]
        sigma2 = dbm_to_linear(self.dither_dbm[0])
        return "rho_db", [(v, sigma2, 10.0 ** (v / 10.0)) for v in self.rho_db]

    def digest(self) -> str:
        payload = {k: list(v) if isinstance(v, tuple) else v
                   for k, v in asdict(self).items() if k != "output"}
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepRow:
    param_name: str
    param_value: float
    detector: str
    errors: int
    trials: int
    ser: float
    seconds: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    seed: int
    config_digest: str
    version: str = __version__


def _as_list(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return list(v)
    return [v]


def _run_channel(cfg: ExperimentConfig, channel_index: int):
    """Error counts and wall seconds for one channel, keyed (point, detector)."""
    const = make_constellation(cfg.constellation)
    params = ChannelParams(n_rx=cfg.n_rx, n_tx=cfg.n_tx, n_paths=cfg.n_paths,
                           angular_spread=cfg.angular_spread)
    H = draw_channel(params, substream(cfg.seed, channel_index, CHANNEL))
    W = make_precoder(H, cfg.n_streams).vectors
    eta = 1.0 / cfg.n_tx

    nv, k = cfg.n_symbol_vectors, cfg.n_streams
    true_digits = substream(cfg.seed, channel_index, SYMBOLS).integers(0, const.size, size=(nv, k))
    S = const.points[true_digits]
    X = S @ W.T
    U = complex_normal(substream(cfg.seed, channel_index, DITHER), (nv, cfg.n_tx))
    Z = complex_normal(substream(cfg.seed, channel_index, NOISE), (nv, cfg.n_rx))
    guess_digits = None
    if "guess" in cfg.detectors:
        guess_digits = substream(cfg.seed, channel_index, GUESS).integers(0, const.size, size=(nv, k))

    # Detection goes in ML calls. In a dither grid (one rho) a run of equal
    # sigma2 has one set of received rows, and the ML kernels of consecutive
    # runs are built as one stack with one table, a group of as many runs as
    # `points_per_table` fits in one factorization block. The group's runs go
    # to `ml_detect_batch` in calls of as many as `points_per_call` keeps
    # within one block: a call holds each run's rows, in grid order, and
    # detects them against the run's point of the table. An SNR grid is one
    # run, whose kernels are built once, with a call and a table per point.
    # A call's ML seconds, its detection and the builds it makes (the
    # group's kernels and table, and the channel's receive basis, at the
    # group's first call) are charged to its first point; its other points
    # carry none. Each run's rows are quantized at its first point; in a
    # dither grid its Y is formed at once and Xq dropped, and X and U go once
    # the last run is quantized (an SNR grid: at its first point). The
    # BLMMSE pieces are built at a run's first blmmse point and live while
    # the run is in use. The previous table is released before the next
    # build starts, so a channel holds one table at a time.
    axis, points = cfg.sweep_points()
    starts = [i for i, (_, s2, _) in enumerate(points) if i == 0 or s2 != points[i - 1][1]]
    ml = "ml" in cfg.detectors
    per_table = points_per_table(const, k, cfg.n_rx) if ml else 1
    # (group's first run, call's first point in the group's table, its runs)
    if axis == "dither_dbm":
        runs = [range(a, b) for a, b in zip(starts, starts[1:] + [len(points)])]
        per_call = min(per_table, points_per_call(nv, cfg.n_rx))
        calls = [(g, c - g, runs[c:min(c + per_call, g + per_table)])
                 for g in range(0, len(runs), per_table)
                 for c in range(g, min(g + per_table, len(runs)), per_call)]
    else:
        calls = [(0, 0, [range(idx, idx + 1)]) for idx in range(len(points))]
    out = {}
    run = -1
    basis = kernels = table = None
    for lo, at, call in calls:
        Ys = []
        for points_of_y in call:
            _, sigma2, rho = points[points_of_y[0]]
            if run + 1 < len(starts) and starts[run + 1] == points_of_y[0]:
                run += 1
                Xq = quantize_1bit(X + np.sqrt(sigma2) * U, eta)
                if run == len(starts) - 1:
                    X = U = None
                combiner = None
                if run % per_table == 0:
                    kernels = None
            Y = np.sqrt(rho) * Xq @ H.T + Z
            if axis == "dither_dbm":
                Xq = None
            Ys.append(Y)
            for idx in points_of_y:
                for det in cfg.detectors:
                    t0 = time.perf_counter()
                    if det == "blmmse":
                        if combiner is None:
                            C_xd = cov_xd(W, sigma2)
                            combiner = bussgang_gain(C_xd, eta), cov_xq_unconditional(C_xd, eta)
                        V = blmmse_combiner(H, W, *combiner, rho)
                        decided = slice_min_distance_batch(Y @ V.conj(), const)[0]
                    elif det == "guess":
                        decided = guess_digits
                    else:
                        continue
                    errors = int(np.sum(decided != true_digits))
                    out[(idx, det)] = (errors, time.perf_counter() - t0)
        if not ml:
            continue
        t0 = time.perf_counter()
        if kernels is None or axis == "rho_db":
            table = None
            try:
                if kernels is None:
                    if basis is None:
                        basis = receive_basis(H)
                    group = np.array([points[i][1] for i in starts[lo:lo + per_table]])
                    kernels = build_candidate_kernels(basis, W, const, group, eta)
                table = build_candidate_table(kernels, rho)
            except FactorizationError as exc:
                failed = starts[lo + exc.index[0]] if axis == "dither_dbm" else call[0][0]
                raise FactorizationError(
                    f"channel {channel_index}, {_grid_point(cfg, failed)}: {exc}",
                    pivot=exc.pivot, index=exc.index) from None
        Y = Ys[0] if len(Ys) == 1 else np.concatenate(Ys)
        Ys = None
        decided = ml_detect_batch(Y, table.points(at, at + len(call)))[0]
        errors = [int(np.sum(d != true_digits)) for d in np.split(decided, len(call))]
        seconds = time.perf_counter() - t0
        for points_of_y, e in zip(call, errors):
            for idx in points_of_y:
                out[(idx, "ml")] = (e, seconds if idx == call[0][0] else 0.0)
    return out


def _grid_point(cfg: ExperimentConfig, idx: int) -> str:
    """'rho_db r, dither_dbm d' of the sweep's grid point idx."""
    pick = lambda grid: grid[idx if len(grid) > 1 else 0]
    return f"rho_db {pick(cfg.rho_db):g}, dither_dbm {pick(cfg.dither_dbm):g}"


def _openblas(name: str, *args):
    """Call numpy's bundled OpenBLAS function `name`; None where this build has none.

    The symbol is looked up from numpy's linalg extension, which links the
    library; the names depend on how numpy was built.
    """
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    return fn(*args)


def _one_blas_thread() -> None:
    """Worker initializer: one BLAS thread per process, so that workers
    splitting the channels do not also contend for the cores inside BLAS."""
    _openblas("scipy_openblas_set_num_threads64_", 1)


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run the configured sweep; deterministic error counts for any worker count."""
    axis, points = cfg.sweep_points()
    workers = min(cfg.workers, cfg.n_channels)
    if workers > 1:
        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            futures = [pool.submit(_run_channel, cfg, ci) for ci in range(cfg.n_channels)]
            per_channel = [f.result() for f in futures]
    else:
        per_channel = [_run_channel(cfg, ci) for ci in range(cfg.n_channels)]

    trials = cfg.n_channels * cfg.n_symbol_vectors * cfg.n_streams
    rows = []
    for idx, (value, _, _) in enumerate(points):
        for det in cfg.detectors:
            errors = sum(res[(idx, det)][0] for res in per_channel)
            seconds = sum(res[(idx, det)][1] for res in per_channel)
            rows.append(SweepRow(param_name=axis, param_value=float(value),
                                 detector=det, errors=errors, trials=trials,
                                 ser=errors / trials, seconds=seconds))
    return SweepReport(rows=tuple(rows), seed=cfg.seed, config_digest=cfg.digest())


def to_csv_text(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.param_name},{r.param_value:.9g},{r.detector},"
                     f"{r.errors},{r.trials},{r.ser:.9g},{r.seconds:.9g}")
    return "\n".join(lines) + "\n"


def write_csv(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_csv_text(report))


def csv_equal_ignoring_timing(text_a: str, text_b: str) -> bool:
    """Byte equality of two sweep CSVs with the trailing seconds field masked."""
    def strip(text):
        lines = text.rstrip("\n").split("\n")
        return [",".join(ln.split(",")[:-1]) for ln in lines]
    return strip(text_a) == strip(text_b)


# ---------------------------------------------------------------------------
# flat key = value configuration files
# ---------------------------------------------------------------------------

_LIST_FIELDS = {"rho_db", "dither_dbm", "detectors"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def parse_grid(raw: str):
    """Parse 'a,b,c' lists and 'start:step:stop' inclusive grids.

    A grid steps from start and never past stop; stop itself is included
    when it lies within rounding (1e-9 of a step) of a grid point. A grid of
    more than MAX_GRID_POINTS points is refused.
    """
    raw = raw.strip()
    if ":" in raw:
        parts = [p.strip() for p in raw.split(":")]
        if len(parts) != 3:
            raise ParameterError(f"grid must be start:step:stop, got {raw!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"grid bounds must be numbers, got {raw!r}") from None
        if not all(isfinite(v) for v in (start, step, stop)):
            raise ParameterError(f"grid bounds must be finite, got {raw!r}")
        if step <= 0:
            raise ParameterError("grid step must be positive")
        if stop < start:
            raise ParameterError(f"grid stop {stop:g} lies below its start {start:g}")
        steps = np.floor((stop - start) / step + 1e-9)
        if not steps < MAX_GRID_POINTS:
            raise ParameterError(f"grid {raw!r} would have more than {MAX_GRID_POINTS} points")
        n = int(steps) + 1
        return [start + i * step for i in range(n)]
    if "," in raw:
        return [_scalar(tok) for tok in raw.split(",") if tok.strip()]
    return [_scalar(raw)]


def _scalar(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_config_file(path) -> dict:
    """Flat `key = value` lines with # comments -> override dict."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = parse_grid(raw) if key in _LIST_FIELDS else _scalar(raw)
    return overrides


def build_config(*override_layers: dict) -> ExperimentConfig:
    """Merge override dicts (later layers win) onto the defaults."""
    merged = {}
    for layer in override_layers:
        for k, v in layer.items():
            if v is None:
                continue
            if k not in _CONFIG_FIELDS:
                raise ParameterError(f"unknown config key {k!r}")
            merged[k] = v
    return ExperimentConfig(**merged)
