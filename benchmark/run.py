"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload snr_k3 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
With --trace 0 the last line holds the end-to-end metrics, measured without
any wrapper installed; with --trace 1 it holds the per-layer metrics of a
traced run. Result, run manifest and (traced runs) spans are also written to
benchmark/out/<workload>-seed<seed>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Untraced runs split their time over this many fresh processes, so that one
# slow or fast process does not set the call time; each process's start gives
# one set-up sample.
PROCESSES = 3
# Fresh processes that only set up, this many after each measuring process,
# for more set-up samples spread over the run: set-up varies by about 20% from
# one interpreter start to the next, and with the host's speed over seconds.
SETUP_ONLY_PER_PROCESS = 3
# Share of the slowest and of the fastest calls left out of a run's call time.
# Calls vary by about 15% either way with the default BLAS threads, so a mean
# is steadier than a median of a dozen calls; trimming keeps a call stalled by
# another process from setting it.
TRIM = 0.1
PROCESS_TIMEOUT_S = 150


def _import_library():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "onebitlink" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library source at {src}/onebitlink; "
                 "run from the root of a onebitlink checkout")
    sys.path.insert(0, str(src))
    import onebitlink
    if Path(onebitlink.__file__).resolve().parent != (src / "onebitlink").resolve():
        sys.exit(f"benchmark: imported onebitlink from {onebitlink.__file__}, not {src}")
    sys.path.insert(0, str(BENCH_DIR))


def _reference(workload_name: str, seed: int):
    """The workload, the input seed that --seed maps to, and its recorded outputs."""
    import workloads

    recorded = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"][workload_name]
    used_seed = workloads.input_seed(recorded, seed)
    return workloads.WORKLOADS[workload_name], used_seed, recorded[str(used_seed)]


def _setup(workload_name: str, seed: int):
    """Build the workload's inputs and warm every BLAS/LAPACK path once."""
    workload, used_seed, expected = _reference(workload_name, seed)
    inputs = workload.inputs(used_seed)
    workload.run(workload.warm_up_inputs(used_seed))
    return workload, inputs, expected


def _timed_calls(workload, inputs, expected, seconds, tracers=None):
    """Call the workload for about `seconds`; returns (times, attempted, failed).

    Another call starts only if it is expected to end within `seconds`, and
    there is always at least one. With `tracers` given, calls alternate
    untraced and traced, and the returned times are (untraced, traced). A
    call that raises counts all its outputs as failed and the run goes on.
    """
    import tracing
    import workloads

    untraced, traced = [], []
    attempted = failed = raised = 0
    start = time.perf_counter()
    while True:
        done = untraced and (tracers is None or traced)
        typical = statistics.median(untraced + traced) if done else 0.0
        if (done or raised) and time.perf_counter() - start + typical > seconds:
            break
        tracer = tracing.Tracer() if tracers is not None and len(traced) < len(untraced) else None
        attempted += len(expected)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                outputs = workload.run(inputs)
            else:
                with tracer:
                    outputs = workload.run(inputs)
            dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            raised += 1
            failed += len(expected)
            continue
        failed += workloads.count_failed(outputs, expected)
        if tracer is None:
            untraced.append(dt)
        else:
            traced.append(dt)
            tracers.append(tracer)
    return (untraced, traced), attempted, failed


def trimmed_mean(values) -> float:
    """Mean of `values` without the TRIM share of the lowest and of the highest."""
    values = sorted(values)
    cut = int(TRIM * len(values))
    return statistics.mean(values[cut:len(values) - cut])


def _measure_process(args) -> None:
    """Body of one measuring process: set up, say so, time calls, report."""
    workload, inputs, expected = _setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return
    (untraced, _), attempted, failed = _timed_calls(workload, inputs, expected, args.seconds)
    print(json.dumps({"call_seconds": untraced, "attempted": attempted, "failed": failed,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


def _measure(args) -> list:
    """Run the measuring and the set-up-only processes one after another.

    Returns (set-up seconds, report or None) per process. Set-up is the wall
    time from starting a fresh interpreter until it has imported the
    library, built the inputs and made its warm-up call.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--measure-process",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / PROCESSES)]
    runs = []
    for i in range(PROCESSES * (1 + SETUP_ONLY_PER_PROCESS)):
        setup_only = i % (1 + SETUP_ONLY_PER_PROCESS) > 0
        t0 = time.perf_counter()
        with subprocess.Popen(cmd + ["--setup-only"] * setup_only, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"measuring process failed with exit code {proc.returncode}")
        runs.append((setup_s, None if setup_only else json.loads(out.strip().splitlines()[-1])))
    return runs


def _write_run(out_dir: Path, result: dict, manifest: dict, tracers) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    if tracers:
        spans = [{"call": i, "spans": t.spans} for i, t in enumerate(tracers)]
        (out_dir / "spans.json").write_text(json.dumps(spans) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure-process", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    _import_library()
    import manifest as manifest_mod
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.measure_process:
        _measure_process(args)
        return 0

    workload, used_seed, _ = _reference(args.workload, args.seed)
    run_info = dict(workload=args.workload, seed=args.seed, input_seed=used_seed,
                    seconds=args.seconds, trace=args.trace)
    tracers = None
    if args.trace:
        workload, inputs, expected = _setup(args.workload, args.seed)
        tracers = []
        (untraced, traced), attempted, failed = _timed_calls(
            workload, inputs, expected, args.seconds, tracers)
        metrics = {}
        if traced:
            for tracer in tracers:
                tracing.check_coverage(tracer, workload.required_spans)
            layers = tracing.layer_metrics(tracers, untraced, traced)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        run_info.update(call_seconds=untraced, traced_call_seconds=traced)
    else:
        runs = _measure(args)
        reports = [r for _, r in runs if r is not None]
        calls = [t for r in reports for t in r["call_seconds"]]
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        metrics = {}
        if calls:
            run_s = trimmed_mean(calls)
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "items_per_s": {"value": workload.items(workload.inputs(used_seed)) / run_s,
                                "unit": "1/s"},
                "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
                "setup_s": {"value": statistics.median(s for s, _ in runs), "unit": "s"},
            }
        run_info.update(setup_seconds=[s for s, _ in runs],
                        call_seconds=[r["call_seconds"] for r in reports])
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    _write_run(BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}",
               result, manifest_mod.collect(ROOT, **run_info), tracers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
