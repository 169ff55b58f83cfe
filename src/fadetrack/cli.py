"""Command-line front end for the experiment harness.

Subcommands: ``ber``, ``sinr-vs-fading``, ``analyze``, ``channel-stats``.
All take ``--config`` (flat key = value file), ``--seed``, ``--out`` and
per-key overrides; flags win over file values.  Output is deterministic
CSV: the same config and seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every run steps its packets as "
                             "lanes of one array engine in one thread")
    parser.add_argument("--users", type=int, help="number of uplink users K")
    parser.add_argument("--gain", type=int, help="processing gain N (chips per symbol)")
    parser.add_argument("--paths", type=int, help="multipath taps L")
    parser.add_argument("--snr-db", type=str, dest="snr_db",
                        help="comma-separated SNR grid in dB")
    parser.add_argument("--fading-grid", type=str, dest="fading_grid",
                        help="comma-separated normalized fading rates fd*Ts")
    parser.add_argument("--packet-len", type=int, dest="packet_len",
                        help="symbols per packet")
    parser.add_argument("--train-len", type=int, dest="train_len",
                        help="training symbols per packet")
    parser.add_argument("--packets", type=int, help="number of packets averaged")
    parser.add_argument("--algorithms", type=str,
                        help=f"comma-separated names from: {', '.join(harness.ALGORITHMS)}")
    parser.add_argument("--mu", type=float, help="NLMS step size")
    parser.add_argument("--lambda-e", type=float, dest="lambda_e",
                        help="mixing forgetting factor")
    parser.add_argument("--lambda-m", type=float, dest="lambda_m",
                        help="power-normalization forgetting factor")
    parser.add_argument("--lambda-cg", type=float, dest="lambda_cg",
                        help="CG correlation forgetting factor")
    parser.add_argument("--jmax", type=int, help="CG iterations per symbol")
    parser.add_argument("--lambda-rls", type=float, dest="lambda_rls",
                        help="RLS forgetting factor")
    parser.add_argument("--delta", type=float,
                        help="initial regularization of RLS/CG statistics")
    parser.add_argument("--cg-loading", type=float, dest="cg_loading",
                        help="solve-time diagonal loading of the CG system (0 = off)")
    parser.add_argument("--isi", type=str,
                        help="1/0: include adjacent-symbol interference")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--paper-literal-t1", type=str, dest="paper_literal_t1",
                        help="1/0: reproduce the published cross-vector chaining")


def _config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    file_values = harness.load_config_file(args.config) if args.config else None
    overrides = {}
    for key in harness.CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if isinstance(value, str):
            value = harness.CONFIG_KEYS[key](value)
        overrides[key] = value
    return harness.make_experiment_config(file_values, **overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadetrack",
        description="Monte Carlo experiments with bidirectional adaptive receivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="per-symbol BER learning curves")
    _add_common(ber)

    sinr = sub.add_parser("sinr-vs-fading",
                          help="normalized SINR versus fading rate")
    _add_common(sinr)

    analyze = sub.add_parser("analyze",
                             help="analytical versus simulated SINR convergence")
    _add_common(analyze)
    analyze.add_argument("--ensemble", type=int, default=10000,
                         help="ensemble size for moment estimation (default 10000)")
    analyze.add_argument("--cache-dir", default=None,
                         help="directory for cached moment matrices")
    analyze.add_argument("--g-init", choices=("identity", "zero"), default="identity",
                         help="initialization of the cross-correlation recursion")

    stats = sub.add_parser("channel-stats",
                           help="empirical vs theoretical fading autocorrelation")
    _add_common(stats)
    stats.add_argument("--samples", type=int, default=200000,
                       help="fading samples per rate (default 200000)")
    stats.add_argument("--lags", type=str, default="1,2,5",
                       help="comma-separated autocorrelation lags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not Path(args.out).parent.is_dir():
        parser.error(f"--out: {Path(args.out).parent} is not a directory")
    if getattr(args, "cache_dir", None) is not None:
        cache = Path(args.cache_dir)
        existing = next(path for path in (cache, *cache.parents) if path.exists())
        if not existing.is_dir():
            parser.error(f"--cache-dir: {existing} is not a directory")
    try:
        cfg = _config_from_args(args)
        harness.check_experiment(args.command, cfg, getattr(args, "ensemble", None))
        if args.command == "channel-stats":
            lags = tuple(int(tok) for tok in args.lags.replace(",", " ").split())
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "channel-stats":
        if args.samples < 1:
            parser.error("--samples must be at least 1")
        if not lags or len(set(lags)) < len(lags) or not 0 <= min(lags) <= max(lags) < args.samples:
            parser.error("--lags must list one or more distinct lags in [0, samples)")
    if args.command == "ber":
        records = harness.run_ber_curve(cfg)
        harness.emit_csv(records, args.out)
    elif args.command == "sinr-vs-fading":
        records = harness.run_sinr_vs_fading(cfg)
        harness.emit_csv(records, args.out)
    elif args.command == "analyze":
        records = harness.run_analysis_comparison(
            cfg, ensemble_size=args.ensemble, cache_dir=args.cache_dir,
            g_init=args.g_init)
        harness.emit_csv(records, args.out)
    else:
        rows = harness.run_channel_stats(cfg, samples=args.samples, lags=lags)
        harness.emit_channel_stats(rows, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
