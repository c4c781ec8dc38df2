"""Tests of the benchmark itself: result line, exact counts, coverage guard, failures.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("stats.kernels", "detect.tables", "detect.candidates_per_table",
          "detect.vectors", "core.chol_jitter_events", "oracle.draws")
END_TO_END = ("run_s", "items_per_s", "peak_rss_mb", "setup_s")

SMALL_SWEEP = workloads.Sweep(dict(
    n_rx=16, n_streams=2, rho_db=5.0, dither_dbm=(-2.0, 4.0),
    n_channels=2, n_symbol_vectors=20, detectors=("ml", "blmmse")),
    required_spans=workloads.SWEEP_SPANS + workloads.BLMMSE_SPANS)


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(workload, inputs, calls=2):
    tracers = []
    for _ in range(calls):
        with tracing.Tracer() as tracer:
            workload.run(inputs)
        tracers.append(tracer)
    return tracers


def test_layer_counts_repeat_and_match_the_workload():
    cfg = SMALL_SWEEP.inputs(0)
    tracers = _traced(SMALL_SWEEP, cfg)
    for tracer in tracers:
        tracing.check_coverage(tracer, SMALL_SWEEP.required_spans)
    m = tracing.layer_metrics(tracers, [1.0], [1.0])
    again = tracing.layer_metrics(_traced(SMALL_SWEEP, cfg), [1.0], [1.0])
    assert {k: m[k] for k in COUNTS} == {k: again[k] for k in COUNTS}
    assert m["detect.vectors"][0] == SMALL_SWEEP.items(cfg)
    assert m["detect.tables"][0] == 2 * 2
    assert m["detect.candidates_per_table"][0] == 16 ** 2
    assert m["stats.kernels"][0] == 2 * 2 * 16 ** 2
    assert m["core.chol_jitter_events"][0] == 0


def test_oracle_draw_count_matches_items():
    bundle = workloads.WORKLOADS["oracle"]
    instances = bundle.inputs(0)[-2:]
    m = tracing.layer_metrics(_traced(bundle, instances, calls=1), [1.0], [1.0])
    assert m["oracle.draws"][0] == bundle.items(instances) == 2 * (20_000 + 200_000)
    assert m["oracle.mc_self_s"][0] > 0


def test_coverage_guard_names_a_span_that_moved():
    # wrapping draw_channel where the harness no longer looks it up
    wrapped = tuple(w if w[2] != "channel.draw" else ("onebitlink.channel",) + w[1:]
                    for w in tracing.WRAPPED)
    with tracing.Tracer(wrapped) as tracer:
        SMALL_SWEEP.run(SMALL_SWEEP.inputs(0))
    with pytest.raises(tracing.SpanCoverageError, match="channel.draw"):
        tracing.check_coverage(tracer, SMALL_SWEEP.required_spans)


def test_tracer_restores_the_library():
    from onebitlink import detect, harness

    before = (harness.run_sweep, detect.chol_logdet)
    with tracing.Tracer():
        assert harness.run_sweep is not before[0]
    assert (harness.run_sweep, detect.chol_logdet) == before


class _FlakyWorkload:
    """Raises on its first call, then returns one wrong and one right output."""

    def __init__(self):
        self.calls = 0

    def run(self, inputs):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected failure")
        return [0, 1]


def test_exception_counts_as_failed_and_run_goes_on():
    flaky = _FlakyWorkload()
    (untraced, traced), attempted, failed = run._timed_calls(flaky, None, [0, 0], seconds=0.05)
    assert flaky.calls >= 2 and len(untraced) == flaky.calls - 1 and not traced
    assert attempted == 2 * flaky.calls
    assert failed == 2 + (flaky.calls - 1)


def test_count_failed_and_input_seed():
    assert workloads.count_failed([[1.0, "ml", 3]], [[1.0, "ml", 4]]) == 1
    assert workloads.count_failed([1, 2], [1, 2, 3]) == 1
    recorded = {"0": [], "2": [], "5": []}
    assert [workloads.input_seed(recorded, s) for s in range(4)] == [0, 2, 5, 0]


def test_trimmed_mean_leaves_out_a_stalled_call():
    assert run.trimmed_mean([1.0] * 9 + [50.0]) == 1.0
    assert run.trimmed_mean([1.0, 2.0, 6.0]) == 3.0


def test_reference_covers_every_workload():
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    assert set(reference) == set(workloads.WORKLOADS)
    assert all(len(recorded) == 32 for recorded in reference.values())
    assert all(passed for verdicts in reference["oracle"].values() for _, passed in verdicts)


def test_result_line_and_manifest():
    result = _result(_bench("--workload", "m64_k2", "--seed", "3", "--seconds", "0",
                            "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    manifest = json.loads((BENCH / "out" / "m64_k2-seed3-trace0" / "manifest.json").read_text())
    assert manifest["nproc"] >= 1 and manifest["numpy"] and "OMP_NUM_THREADS" in manifest["thread_env"]
    assert len(manifest["setup_seconds"]) == run.PROCESSES * (1 + run.SETUP_ONLY_PER_PROCESS)
    assert len(manifest["call_seconds"]) == run.PROCESSES


def test_traced_runs_repeat_their_counts():
    first = _result(_bench("--workload", "snr_k3", "--seed", "1", "--seconds", "0",
                           "--trace", "1"))["metrics"]
    second = _result(_bench("--workload", "snr_k3", "--seed", "1", "--seconds", "0",
                            "--trace", "1"))["metrics"]
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(first) == declared
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["stats.kernels"]["value"] == 16 ** 3
    assert first["detect.tables"]["value"] == 2


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "snr_k3", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=bare, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
