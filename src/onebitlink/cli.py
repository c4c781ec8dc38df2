"""Command-line front end for SER sweeps and the closed-form self-check."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ParameterError, SingularityError, FactorizationError
from .harness import build_config, parse_config_file, parse_grid, run_sweep, write_csv


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="onebitlink",
        description="Monte-Carlo SER sweeps for a 1-bit-DAC massive MIMO downlink",
    )
    p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    p.add_argument("--n", type=int, metavar="N_TX", help="transmit antennas")
    p.add_argument("--m", type=int, metavar="N_RX", help="receive antennas")
    p.add_argument("--k", type=int, metavar="STREAMS", help="data streams")
    p.add_argument("--snr-db", metavar="GRID",
                   help="SNR rho in dB: scalar, comma list, or start:step:stop")
    p.add_argument("--dither-dbm", metavar="GRID",
                   help="dither power in dBm: scalar, comma list, or start:step:stop")
    p.add_argument("--channels", type=int, metavar="COUNT", help="channel realizations")
    p.add_argument("--symbols", type=int, metavar="COUNT", help="symbol vectors per channel")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--detectors", metavar="LIST", help="comma list from: ml, blmmse, guess")
    p.add_argument("--out", metavar="FILE", help="write the sweep as CSV")
    p.add_argument("--workers", type=int, metavar="COUNT", help="parallel channel workers")
    p.add_argument("--self-check", action="store_true",
                   help="validate closed-form moments against Monte-Carlo and exit")
    return p


def _cli_overrides(args) -> dict:
    over = {
        "n_tx": args.n, "n_rx": args.m, "n_streams": args.k,
        "n_channels": args.channels, "n_symbol_vectors": args.symbols,
        "seed": args.seed, "output": args.out, "workers": args.workers,
    }
    if args.snr_db is not None:
        over["rho_db"] = parse_grid(args.snr_db)
    if args.dither_dbm is not None:
        over["dither_dbm"] = parse_grid(args.dither_dbm)
    if args.detectors is not None:
        over["detectors"] = [tok.strip() for tok in args.detectors.split(",") if tok.strip()]
    return over


def _run_self_check(seed: int) -> int:
    from .oracle import self_check

    rows, ok = self_check(seed=seed)
    print(f"{'instance':<38} {'quantity':<20} {'within':>12} {'max z':>8}")
    for r in rows:
        print(f"{r.instance:<38} {r.quantity:<20} "
              f"{r.within:>5}/{r.entries:<6} {r.max_z:>8.2f}")
    print("self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.self_check:
        sweep_flags = ["--" + name.replace("_", "-") for name, value in vars(args).items()
                       if value is not None and name not in ("seed", "self_check")]
        if sweep_flags:
            print(f"onebitlink: configuration error: --self-check takes only --seed, "
                  f"not {', '.join(sweep_flags)}", file=sys.stderr)
            return 2
        try:
            return _run_self_check(args.seed if args.seed is not None else 0)
        except ParameterError as exc:
            print(f"onebitlink: configuration error: {exc}", file=sys.stderr)
            return 2

    try:
        layers = []
        if args.config:
            layers.append(parse_config_file(args.config))
        layers.append(_cli_overrides(args))
        cfg = build_config(*layers)
        if cfg.output and not Path(cfg.output).parent.is_dir():
            raise ParameterError(f"output {cfg.output!r}: its parent is not a directory")
    except (ParameterError, OSError) as exc:
        print(f"onebitlink: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_sweep(cfg)
    except (ParameterError, SingularityError, FactorizationError) as exc:
        print(f"onebitlink: {exc}", file=sys.stderr)
        return 1

    for row in report.rows:
        print(f"{row.param_name}={row.param_value:g} detector={row.detector} "
              f"errors={row.errors}/{row.trials} ser={row.ser:.3e} "
              f"seconds={row.seconds:.2f}")
    if cfg.output:
        try:
            write_csv(report, cfg.output)
        except OSError as exc:
            print(f"onebitlink: cannot write {cfg.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {cfg.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
