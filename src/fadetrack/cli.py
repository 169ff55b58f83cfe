"""Command-line front end for the experiment harness.

Subcommands: ``ber``, ``sinr-vs-fading``, ``analyze``, ``channel-stats``.
All take ``--config`` (flat key = value file), ``--out`` and one flag
``--key-with-dashes`` per config key, which takes the key's config-file
text and wins over the file's.  Flag and file texts go through the same
parser, and a text that does not parse is a usage error naming its key.
Output is deterministic CSV: the same config and seed reproduce identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness


_HELP = {
    "users": "number of uplink users K",
    "gain": "processing gain N (chips per symbol)",
    "paths": "multipath taps L",
    "snr_db": "comma-separated SNR grid in dB",
    "fading_grid": "comma-separated normalized fading rates fd*Ts",
    "packet_len": "symbols per packet",
    "train_len": "training symbols per packet",
    "packets": "number of packets averaged",
    "algorithms": f"comma-separated names from: {', '.join(harness.ALGORITHMS)}",
    "mu": "NLMS step size",
    "lambda_e": "mixing forgetting factor",
    "lambda_m": "power-normalization forgetting factor",
    "lambda_cg": "CG correlation forgetting factor",
    "jmax": "CG iterations per symbol",
    "lambda_rls": "RLS forgetting factor",
    "delta": "initial regularization of RLS/CG statistics",
    "cg_loading": "solve-time diagonal loading of the CG system (0 = off)",
    "isi": "1/0: include adjacent-symbol interference",
    "seed": "master seed",
    "paper_literal_t1": "1/0: reproduce the published cross-vector chaining",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every run steps its packets as "
                             "lanes of one array engine in one thread")
    for key in harness.CONFIG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP[key])


def _config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    """Flag texts over file texts, parsed by the one parser of each key."""
    texts = harness.load_config_file(args.config) if args.config else {}
    texts.update((key, getattr(args, key)) for key in harness.CONFIG_KEYS
                 if getattr(args, key) is not None)
    return harness.make_experiment_config(texts)


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
        lags = None
        if args.command == "channel-stats":
            try:
                lags = tuple(int(tok) for tok in args.lags.replace(",", " ").split())
            except ValueError as exc:
                raise ValueError(f"--lags: {exc}") from None
        harness.check_experiment(args.command, cfg, getattr(args, "ensemble", None),
                                 getattr(args, "samples", None), lags)
    except ValueError as exc:
        parser.error(str(exc))
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
