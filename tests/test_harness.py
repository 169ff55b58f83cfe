"""Experiment harness: config handling, CSV output, determinism, trends."""

import csv
import io
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fadetrack.dscdma import code_convolution_operator
from fadetrack.fading import generate_fading
from fadetrack.harness import (
    ALGORITHMS,
    ExperimentConfig,
    MetricsRecord,
    emit_csv,
    load_config_file,
    make_experiment_config,
    run_analysis_comparison,
    run_ber_curve,
    run_channel_stats,
    run_sinr_vs_fading,
)
from fadetrack.receivers import cg_step_lanes

SMALL = dict(users=2, gain=8, paths=2, snr_db=(12.0,), fading_grid=(0.005,),
             packet_len=60, train_len=20, packets=4,
             algorithms=("mmse", "nlms", "rls", "diff-nlms", "bidir-nlms",
                         "bidir-cg", "diff-cg"),
             seed=7)


def _fmt_reference(value) -> str:
    """One field as the per-field writer formatted it."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv_reference(records, path) -> None:
    """The per-field writer: one ``csv.writer`` row and one ``_fmt`` call per field."""
    ordered = sorted(records, key=lambda r: (r.experiment, r.algorithm, r.sweep, r.symbol))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["experiment", "algorithm", "sweep", "symbol",
                         "ber", "sinr_db", "ci", "seed"])
        for rec in ordered:
            writer.writerow([
                rec.experiment, rec.algorithm, _fmt_reference(rec.sweep),
                _fmt_reference(rec.symbol), _fmt_reference(rec.ber),
                _fmt_reference(rec.sinr_db), _fmt_reference(rec.ci),
                _fmt_reference(rec.seed)])


def ber_rows_reference(cfg):
    """``run_ber_curve``'s rows built one symbol at a time from scalars."""
    from fadetrack.harness import _simulate
    points = [(cfg.fading_grid[0], snr_db) for snr_db in cfg.snr_db]
    errors = {name: np.empty((len(points), cfg.packets, cfg.packet_len))
              for name in cfg.algorithms}
    for lanes, runs in _simulate(cfg, points, cfg.algorithms):
        packets, grid = np.array(lanes).T
        for name, run in runs.items():
            errors[name][grid, packets] = run.errors
    records = []
    for g, snr_db in enumerate(cfg.snr_db):
        for name in cfg.algorithms:
            stacked = errors[name][g]
            counts = np.sum(~np.isnan(stacked), axis=0)
            means = np.nansum(stacked, axis=0) / np.maximum(counts, 1)
            for i in range(cfg.packet_len):
                if counts[i] == 0:
                    continue
                p = float(means[i])
                half = 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / counts[i])
                records.append(MetricsRecord(
                    experiment="ber", algorithm=name, sweep=float(snr_db),
                    symbol=i, ber=p, sinr_db=None, ci=float(half), seed=cfg.seed))
    return records


class TestConfigHandling:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "users = 3\n"
            "gain = 8\n"
            "snr_db = 5, 10, 15\n"
            "algorithms = mmse, rls\n"
            "isi = 0\n"
            "mu = 0.25  # inline comment\n"
        )
        cfg = make_experiment_config(load_config_file(path))
        assert cfg.users == 3
        assert cfg.snr_db == (5.0, 10.0, 15.0)
        assert cfg.algorithms == ("mmse", "rls")
        assert cfg.isi is False
        assert cfg.mu == 0.25

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("users = 3\nseed = 1\n")
        cfg = make_experiment_config(load_config_file(path), users=9)
        assert cfg.users == 9
        assert cfg.seed == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_repeated_key_rejected(self, tmp_path, capsys):
        from fadetrack.cli import main
        path, out = tmp_path / "exp.cfg", tmp_path / "out.csv"
        path.write_text("users = 3\n# again\nusers = 4\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:3: key 'users' given twice"):
            load_config_file(path)
        with pytest.raises(SystemExit) as exc:
            main(["ber", "--out", str(out), "--config", str(path)])
        assert exc.value.code == 2
        assert "given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("mmse", "magic"))

    def test_train_len_bound(self):
        with pytest.raises(ValueError):
            ExperimentConfig(packet_len=100, train_len=101)

    UNPARSABLE = [("users", "users = x\n", []), ("users", None, ["--users", "x"]),
                  ("isi", None, ["--isi", "maybe"]), ("snr_db", None, ["--snr-db", "5,abc"])]

    @pytest.mark.parametrize("key, text, flags", UNPARSABLE,
                             ids=["file-users", "flag-users", "flag-isi", "flag-snr_db"])
    def test_unparsable_text_is_a_usage_error_naming_its_key(self, key, text, flags, tmp_path,
                                                             capsys):
        # Flag and file texts share one parser per key.
        from fadetrack.cli import main
        out = tmp_path / "out.csv"
        argv = ["ber", "--out", str(out), *flags]
        if text is not None:
            path = tmp_path / "exp.cfg"
            path.write_text(text)
            argv += ["--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, text", [("users", "x"), ("isi", "maybe"),
                                           ("snr_db", "5,abc"), ("mu", "")])
    def test_unparsable_text_names_its_key(self, key, text):
        with pytest.raises(ValueError, match=f"^{key}: "):
            make_experiment_config({key: text})

    BAD_VALUES = [
        {"mu": -0.1},
        {"mu": float("nan")},
        {"mu": float("inf")},
        {"lambda_e": -0.1},
        {"lambda_m": 1.5},
        {"lambda_cg": 1.01},
        {"lambda_rls": 0.0},
        {"lambda_rls": 1.2},
        {"jmax": -1},
        {"delta": -0.01},
        {"delta": 0.0, "algorithms": ("rls",)},
        {"delta": float("inf")},
        {"cg_loading": -0.1},
        {"cg_loading": float("inf")},
        {"users": -1},
        {"users": 0},
        {"gain": 1},
        {"paths": 0},
        {"snr_db": (float("nan"),)},
        {"snr_db": (5.0, float("inf"))},
        {"fading_grid": (-0.01,)},
        {"fading_grid": (float("nan"),)},
        {"fading_grid": (float("inf"),)},
        {"seed": -1},
        {"algorithms": ("bidir-cg", "bidir-cg", "mmse")},
        {"snr_db": (10.0, 10.0)},
        {"fading_grid": (0.001, 0.001, 0.02)},
    ]

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda bad: str(bad))
    def test_bad_value_rejected(self, bad):
        with pytest.raises(ValueError):
            make_experiment_config(**bad)

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda bad: str(bad))
    def test_bad_value_rejected_by_cli(self, bad, tmp_path, capsys):
        from fadetrack.cli import main
        out = tmp_path / "out.csv"
        argv = ["ber", "--out", str(out), "--packets", "1", "--packet-len", "10",
                "--train-len", "5", "--users", "1", "--gain", "4", "--paths", "1"]
        for key, value in {"algorithms": ("bidir-cg",), **bad}.items():
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv += ["--" + key.replace("_", "-"), text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert next(iter(bad)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, argv", [
        ("seed", ["ber", "--seed", "-1"]),
        ("seed", ["sinr-vs-fading", "--seed", "-1", "--fading-grid", "0.001,0.02"]),
        ("seed", ["analyze", "--seed", "-1"]),
        ("seed", ["channel-stats", "--seed", "-1"]),
        ("algorithms", ["sinr-vs-fading", "--algorithms", "bidir-cg,bidir-cg,mmse",
                        "--fading-grid", "0.001,0.02"]),
        ("snr_db", ["ber", "--snr-db", "10,10"]),
        ("fading_grid", ["sinr-vs-fading", "--fading-grid", "0.001,0.001,0.02"]),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_bad_seed_or_repeat_is_a_usage_error(self, key, argv, tmp_path, capsys):
        # Rejected before any work: no CSV, and analyze makes no cache dir.
        from fadetrack.cli import main
        out, cache = tmp_path / "out.csv", tmp_path / "cache"
        extra = ["--cache-dir", str(cache)] if argv[0] == "analyze" else []
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), "--users", "1", "--gain", "4", "--paths", "1",
                  "--packets", "1", "--packet-len", "10", "--train-len", "5", *extra])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
        assert not cache.exists()

    @pytest.mark.parametrize("parent_kind", ["missing", "file"])
    @pytest.mark.parametrize("command", ["ber", "sinr-vs-fading", "analyze", "channel-stats"])
    def test_out_outside_a_directory_is_a_usage_error(self, command, parent_kind, tmp_path):
        # Rejected before any work: no CSV, and analyze makes no cache dir.
        parent, cache = tmp_path / "parent", tmp_path / "cache"
        if parent_kind == "file":
            parent.write_text("")
        out = parent / "out.csv"
        rates = "0.001,0.02" if command == "sinr-vs-fading" else "0.005"
        argv = [sys.executable, "-m", "fadetrack.cli", command, "--out", str(out),
                "--users", "1", "--gain", "4", "--paths", "1", "--packets", "1",
                "--packet-len", "10", "--train-len", "5", "--fading-grid", rates]
        if command == "analyze":
            argv += ["--cache-dir", str(cache)]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert "--out" in result.stderr.strip().splitlines()[-1]
        assert not out.exists()
        assert not cache.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sinr-vs-fading", "--fading-grid", "0.005,0.01"], "span"),
        (["sinr-vs-fading", "--fading-grid", "0.001,0.02", "--train-len", "0"], "prefix"),
        (["sinr-vs-fading", "--fading-grid", "0.001,0.02", "--train-len", "10"],
         "after training"),
        (["analyze", "--fading-grid", "0.005", "--ensemble", "9999"], "10^4"),
        (["analyze", "--fading-grid", "0"], "positive fading rate"),
    ], ids=["span", "prefix", "after-training", "ensemble", "zero-rate"])
    def test_experiment_rule_is_a_usage_error(self, argv, message, tmp_path, capsys,
                                              monkeypatch):
        # The run_* functions' own rules, checked by the CLI before any work.
        import fadetrack.harness as harness
        from fadetrack.cli import main

        def no_packets(*args, **kwargs):
            raise AssertionError("a packet or ensemble ran")

        monkeypatch.setattr(harness, "_PacketDraws", no_packets)
        monkeypatch.setattr(harness.analysis, "load_or_estimate", no_packets)
        out, cache = tmp_path / "out.csv", tmp_path / "cache"
        extra = ["--cache-dir", str(cache)] if argv[0] == "analyze" else []
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--out", str(out), "--users", "1", "--gain", "4", "--paths", "1",
                  "--packets", "1", "--packet-len", "10", "--train-len", "5", "--snr-db", "10",
                  *extra, *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not cache.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_cache_dir_in_place_of_a_file_is_a_usage_error(self, below, tmp_path, capsys,
                                                            monkeypatch):
        import fadetrack.harness as harness
        from fadetrack.cli import main

        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(harness.analysis, "load_or_estimate", no_ensemble)
        blocker, out = tmp_path / "blocker", tmp_path / "out.csv"
        blocker.write_text("kept")
        cache = blocker / "cache" if below else blocker
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--out", str(out), "--users", "1", "--gain", "4", "--paths", "1",
                  "--packets", "1", "--packet-len", "10", "--train-len", "5",
                  "--cache-dir", str(cache)])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert not out.exists()
        assert blocker.read_text() == "kept"

    def test_error_during_a_run_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # Only the up-front checks are usage errors; a ValueError from the
        # engine (such as non-finite filter weights) propagates as itself.
        import fadetrack.harness as harness
        from fadetrack.cli import main

        def diverged(*args, **kwargs):
            raise ValueError("bidir-cg filter weights became non-finite")

        monkeypatch.setattr(harness, "_simulate", diverged)
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="non-finite"):
            main(["ber", "--out", str(out), "--users", "1", "--gain", "4", "--paths", "1",
                  "--packets", "1", "--packet-len", "10", "--train-len", "5",
                  "--fading-grid", "0.005"])
        assert not out.exists()

    def test_boundary_values_accepted(self):
        make_experiment_config(mu=0.0, lambda_e=0.0, lambda_m=1.0, lambda_cg=1.0,
                               lambda_rls=1.0, jmax=0, delta=0.0, cg_loading=0.0,
                               algorithms=("bidir-cg", "nlms"), users=1, gain=2, paths=1)


class TestEmitCsv:
    HEADER = "experiment,algorithm,sweep,symbol,ber,sinr_db,ci,seed"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        assert path.read_text().strip() == self.HEADER

    def test_single_record_two_lines(self, tmp_path):
        rec = MetricsRecord("ber", "mmse", 10.0, 3, 0.25, None, 0.01, 7)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        parsed = next(csv.DictReader(io.StringIO(path.read_text())))
        assert parsed["algorithm"] == "mmse"
        assert float(parsed["ber"]) == 0.25
        assert parsed["sinr_db"] == ""
        assert int(parsed["seed"]) == 7

    def test_large_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [
            MetricsRecord("ber", f"alg{int(i % 7)}", float(rng.integers(0, 4)),
                          int(i), float(rng.uniform()), float(rng.normal()),
                          float(rng.uniform()), 42)
            for i in range(10_000)
        ]
        path = tmp_path / "big.csv"
        emit_csv(records, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(records)
        key = lambda r: (r.experiment, r.algorithm, r.sweep, r.symbol)
        rebuilt = sorted(
            (MetricsRecord(r["experiment"], r["algorithm"], float(r["sweep"]),
                           int(r["symbol"]), float(r["ber"]), float(r["sinr_db"]),
                           float(r["ci"]), int(r["seed"]))
             for r in rows), key=key)
        assert rebuilt == sorted(records, key=key)

    EDGE_RECORDS = [
        MetricsRecord("ber", "mmse", 10.0, 3, 0.25, None, 0.01, 7),
        MetricsRecord("ber", "mmse", -0.0, 0, -0.0, None, 5e-324, 7),
        MetricsRecord("ber", "nlms", 0.0, 1, float("nan"), float("inf"), float("-inf"), 7),
        MetricsRecord("sinr-vs-fading", "rls", 1e22, 999, 1e-300, -12.5, np.float64(0.1), 7),
        MetricsRecord("sinr-vs-fading", "rls", np.float64(0.005), np.int64(199),
                      np.float64(1 / 3), np.float64(-0.0), np.float32(0.1), np.int64(7)),
        MetricsRecord("analyze", "mmse-bound", 0.005, 2, None, np.float64(np.nan), None, 7),
        MetricsRecord("analyze", "diff-nlms", 0.005, 2, None, 2.0 / 3.0, 1e22, 7),
        MetricsRecord("analyze", "diff-nlms", 0.005, 1, None, np.float64(np.inf), 0.0, 7),
    ]

    @pytest.mark.parametrize("records", [
        EDGE_RECORDS,
        # Whole columns of numpy scalars: ints, floats and -0.0.
        [MetricsRecord("ber", name, np.float64(sweep), np.int64(i), np.float64(i / 7),
                       None, np.float64(-0.0) if i == 2 else np.float64(i / 9), np.int64(3))
         for name in ("b", "a") for sweep in (5.0, 0.0) for i in range(4)],
        # Whole columns of built-in floats and ints, one of them negative zero.
        [MetricsRecord("ber", "a", -0.0, i, i / 7, None, 1e22 * i, 3) for i in range(4)],
    ], ids=["edge", "numpy", "builtin"])
    def test_same_bytes_as_per_field_writer(self, records, tmp_path):
        emit_csv(records, tmp_path / "fast.csv")
        emit_csv_reference(records, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_record_is_an_immutable_named_tuple(self):
        rec = MetricsRecord(experiment="ber", algorithm="mmse", sweep=10.0, symbol=3,
                            ber=0.25, sinr_db=None, ci=0.01, seed=7)
        assert rec == MetricsRecord("ber", "mmse", 10.0, 3, 0.25, None, 0.01, 7)
        assert rec.ci == 0.01 and rec[3] == 3
        with pytest.raises(AttributeError):
            rec.ber = 0.5

    def test_ordering_deterministic(self, tmp_path):
        records = [
            MetricsRecord("ber", "b", 1.0, 2, 0.1, None, 0.0, 1),
            MetricsRecord("ber", "a", 2.0, 0, 0.1, None, 0.0, 1),
            MetricsRecord("ber", "a", 1.0, 1, 0.1, None, 0.0, 1),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(records, path)
        names = [line.split(",")[1] for line in path.read_text().strip().splitlines()[1:]]
        assert names == ["a", "a", "b"]


class TestRunBerCurve:
    def test_noiseless_single_user_is_error_free(self):
        cfg = ExperimentConfig(users=1, gain=8, paths=1, snr_db=(60.0,),
                               fading_grid=(0.0,), packet_len=40, train_len=40,
                               packets=2, algorithms=("mmse", "nlms", "rls"), seed=3)
        records = run_ber_curve(cfg)
        assert all(r.ber == 0.0 for r in records)

    def test_mmse_awgn_matches_tail_integral(self):
        # AWGN, no fading, single user, 10^6 bits at 4 dB: the closed-form
        # binary error rate is Q(sqrt(2 * snr)) = erfc(sqrt(snr)) / 2.
        snr_db = 4.0
        cfg = ExperimentConfig(users=1, gain=8, paths=1, snr_db=(snr_db,),
                               fading_grid=(0.0,), packet_len=20_000, train_len=0,
                               packets=50, algorithms=("mmse",), isi=False, seed=11)
        records = run_ber_curve(cfg)
        ber = float(np.mean([r.ber for r in records]))
        expected = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0)))
        assert expected == pytest.approx(0.01250, rel=2e-3)
        assert ber == pytest.approx(expected, rel=0.10)

    def test_monotone_in_snr(self):
        cfg = ExperimentConfig(users=1, gain=8, paths=1, snr_db=(0.0, 4.0, 8.0),
                               fading_grid=(0.0,), packet_len=4000, train_len=0,
                               packets=10, algorithms=("mmse",), isi=False, seed=5)
        records = run_ber_curve(cfg)
        by_snr = {}
        for r in records:
            by_snr.setdefault(r.sweep, []).append(r.ber)
        curve = [np.mean(by_snr[s]) for s in sorted(by_snr)]
        assert curve[0] > curve[1] > curve[2]

    def test_differential_skips_reference_symbol(self):
        cfg = ExperimentConfig(**SMALL)
        records = run_ber_curve(cfg)
        symbols = {r.algorithm: {rec.symbol for rec in records if rec.algorithm == r.algorithm}
                   for r in records}
        assert 0 in symbols["mmse"]
        assert 0 not in symbols["diff-nlms"]
        assert 0 not in symbols["bidir-cg"]

    def test_rows_match_scalar_loop(self, tmp_path):
        # Differential receivers skip symbol 0; two SNR points, ISI on.
        cfg = ExperimentConfig(**{**SMALL, "snr_db": (3.0, 12.0), "packets": 3,
                                  "algorithms": ("mmse", "nlms", "diff-nlms", "bidir-nlms")})
        rows, reference = run_ber_curve(cfg), ber_rows_reference(cfg)
        assert len(rows) == len(reference) == 2 * (4 * cfg.packet_len - 2)
        # repr tells an int from a float and a float from np.float64(...).
        assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in reference]
        emit_csv(rows, tmp_path / "fast.csv")
        emit_csv_reference(reference, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_learning_curve_improves(self):
        # Adaptive receivers should beat their own untrained start.
        cfg = ExperimentConfig(users=2, gain=8, paths=1, snr_db=(12.0,),
                               fading_grid=(0.002,), packet_len=400, train_len=400,
                               packets=30, algorithms=("rls",), seed=9)
        records = run_ber_curve(cfg)
        curve = [r.ber for r in sorted(records, key=lambda r: r.symbol)]
        assert np.mean(curve[-100:]) < np.mean(curve[:5])


class TestMmseOracle:
    @pytest.mark.parametrize("rate, isi", [(0.005, True), (0.0, False)],
                             ids=["fading-isi", "static"])
    def test_filters_equal_per_symbol_solve(self, rate, isi):
        # 300 symbols: the batched solves end on a partial block.
        from fadetrack.dscdma import ChannelScenario, mmse_filters, signature_rows
        from fadetrack.harness import _Chunk, _PacketDraws
        cfg = ExperimentConfig(users=3, gain=8, paths=3, snr_db=(10.0,),
                               fading_grid=(rate,), packet_len=300, train_len=0,
                               packets=1, algorithms=("mmse",), isi=isi, seed=17)
        draws = _PacketDraws(cfg, 0)
        chunk = _Chunk(cfg, 1, range(cfg.packet_len), oracle=True)
        chunk.fill(0, draws, rate, 10.0)
        errors, filters = chunk.oracle[0][0], chunk.oracle[1][0]
        scenario = ChannelScenario(users=3, gain=8, paths=3, snr_db=10.0, fading_rate=rate,
                                   include_isi=isi)
        rows = signature_rows([code_convolution_operator(code, cfg.paths) @ gains
                               for code, gains in zip(draws.codes, draws.gains(scenario))])
        for i in range(cfg.packet_len):
            expected = mmse_filters(rows, scenario.gain, scenario.noise_variance, [i],
                                    include_isi=isi)[0]
            assert np.array_equal(filters[i], expected), i
        # Coherent detection of the one transmitted stream, symbol 0 included.
        z = np.einsum("im,mi->i", np.conj(filters), chunk.received[0])
        assert np.array_equal(errors, np.where(z.real >= 0, 1.0, -1.0) != chunk.refs[0])
        assert np.array_equal(chunk.refs[0], draws.transmitted[0])


class TestIgnoredGridPoints:
    CASES = [
        (run_ber_curve, {"fading_grid": (0.001, 0.02)}, "fading_grid"),
        (run_sinr_vs_fading, {"snr_db": (5.0, 10.0), "fading_grid": (0.001, 0.02)},
         "snr_db"),
        (run_analysis_comparison, {"fading_grid": (0.001, 0.02)}, "fading_grid"),
        (run_analysis_comparison, {"snr_db": (5.0, 10.0)}, "snr_db"),
    ]

    @pytest.mark.parametrize("run, grids, key", CASES, ids=[
        "ber-fading_grid", "sinr-vs-fading-snr_db", "analyze-fading_grid", "analyze-snr_db"])
    def test_extra_points_rejected_before_any_packet(self, run, grids, key, monkeypatch):
        import fadetrack.harness as harness

        def no_packets(*args, **kwargs):
            raise AssertionError("a packet ran")

        monkeypatch.setattr(harness, "_PacketDraws", no_packets)
        monkeypatch.setattr(harness.analysis, "load_or_estimate", no_packets)
        cfg = ExperimentConfig(**{**SMALL, **grids})
        with pytest.raises(ValueError, match=key):
            run(cfg)

    @pytest.mark.parametrize("command, flag, value", [
        ("ber", "--fading-grid", "0.001,0.02"),
        ("sinr-vs-fading", "--snr-db", "5,10"),
        ("analyze", "--fading-grid", "0.001,0.02"),
        ("analyze", "--snr-db", "5,10"),
    ])
    def test_cli_exits_without_csv(self, command, flag, value, tmp_path):
        out = tmp_path / "out.csv"
        rates = "0.001,0.02" if command == "sinr-vs-fading" else "0.005"
        argv = [sys.executable, "-m", "fadetrack.cli", command, "--out", str(out),
                "--users", "1", "--gain", "4", "--paths", "1", "--packets", "1",
                "--packet-len", "10", "--train-len", "5",
                "--snr-db", "10", "--fading-grid", rates, flag, value]
        if command == "analyze":
            argv += ["--cache-dir", str(tmp_path / "cache")]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        error = result.stderr.strip().splitlines()[-1]
        assert f"error: {flag[2:].replace('-', '_')} must hold one point" in error, error
        assert not out.exists()
        assert not (tmp_path / "cache").exists()


class TestSeedPartitioning:
    @staticmethod
    def packet(cfg, index):
        """A packet's received block and transmitted symbols at one grid point, as the
        harness writes them."""
        from fadetrack.harness import _Chunk, _PacketDraws
        chunk = _Chunk(cfg, 1)
        chunk.fill(0, _PacketDraws(cfg, index), 0.005, 12.0)
        return chunk.received[0], chunk.refs[0]

    def test_prefix_packets_unchanged_by_packet_count(self):
        small = ExperimentConfig(**{**SMALL, "packets": 3})
        large = ExperimentConfig(**{**SMALL, "packets": 6})
        for p in range(3):
            received_a, refs_a = self.packet(small, p)
            received_b, refs_b = self.packet(large, p)
            assert np.array_equal(received_a, received_b)
            assert np.array_equal(refs_a, refs_b)

    def test_packets_differ(self):
        cfg = ExperimentConfig(**SMALL)
        assert not np.array_equal(self.packet(cfg, 0)[0], self.packet(cfg, 1)[0])


class TestOneTransmittedStream:
    def test_every_receiver_reads_one_block_per_lane(self, monkeypatch):
        # The oracle, a coherent tracker and a pair tracker in one run, two
        # SNR points and chunks of 4 lanes, so a packet's lanes span two chunks.
        import fadetrack.harness as harness
        from fadetrack.dscdma import ChannelScenario, received_block
        chunks, reads, step = [], [], harness._step_lanes

        class Recorded(harness._Chunk):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                chunks.append(self)

        def recorded(names, cfg, received, refs, *args, **kwargs):
            reads.append((len(chunks), received, refs))
            return step(names, cfg, received, refs, *args, **kwargs)

        monkeypatch.setattr(harness, "_CHUNK_LANES", 4)
        monkeypatch.setattr(harness, "_Chunk", Recorded)
        monkeypatch.setattr(harness, "_step_lanes", recorded)
        cfg = ExperimentConfig(**{**SMALL, "packets": 3, "algorithms": ("mmse", "nlms",
                                                                        "diff-nlms")})
        points = [(0.005, 4.0), (0.005, 12.0)]
        lanes = [lane for chunk_lanes, runs in harness._simulate(cfg, points, cfg.algorithms)
                 for lane in chunk_lanes]
        assert len(chunks) == 2 and len(lanes) == 6
        # Both groups of each chunk step on the chunk's own arrays.
        assert [(k, id(received), id(refs)) for k, received, refs in reads] == [
            (k + 1, id(chunk.received), id(chunk.refs)) for k, chunk in enumerate(chunks)
            for _ in range(2)]
        for n, (packet, g) in enumerate(lanes):
            chunk, j, draws = chunks[n // 4], n % 4, harness._PacketDraws(cfg, packet)
            assert chunk.received.shape == (len(chunk.refs), cfg.gain + cfg.paths - 1,
                                            cfg.packet_len)
            rate, snr_db = points[g]
            scenario = ChannelScenario(users=cfg.users, gain=cfg.gain, paths=cfg.paths,
                                       snr_db=snr_db, fading_rate=rate, include_isi=cfg.isi)
            noise = np.sqrt(scenario.noise_variance / 2.0) * draws.unit_noise
            expected = received_block(draws.operators @ draws.gains(scenario), draws.transmitted,
                                      cfg.gain, noise=noise, include_isi=cfg.isi)
            assert np.array_equal(chunk.received[j], expected)
            refs = chunk.refs[j]
            assert np.array_equal(refs, draws.transmitted[0]) and refs[0] == 1.0
            assert np.array_equal(refs[1:] * refs[:-1], draws.data[0, 1:])


class TestPacketDraws:
    @pytest.mark.parametrize("experiment", ["ber", "analyze"])
    def test_each_packet_fades_once(self, experiment, monkeypatch, tmp_path):
        # Two SNR points on ber and two receivers on analyze share every
        # packet's fading: one generate_fading call per user and packet.
        import fadetrack.harness as harness
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return generate_fading(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_fading", counted)
        cfg = ExperimentConfig(**{**SMALL, "users": 3, "packets": 5})
        if experiment == "ber":
            run_ber_curve(replace(cfg, snr_db=(0.0, 6.0, 12.0)))
        else:
            run_analysis_comparison(replace(cfg, algorithms=("bidir-nlms",)),
                                    cache_dir=tmp_path)
        assert len(calls) == cfg.users * cfg.packets

    @pytest.mark.parametrize("command, extra", [
        ("ber", ["--snr-db", "4,12", "--fading-grid", "0.005"]),
        ("sinr-vs-fading", ["--snr-db", "12", "--fading-grid", "0.001,0.005,0.02"]),
    ])
    def test_csv_bytes_do_not_depend_on_the_chunk(self, command, extra, monkeypatch, tmp_path):
        import fadetrack.harness as harness
        from fadetrack.cli import main
        outputs = []
        for chunk in (1, 2, 5, 16):
            monkeypatch.setattr(harness, "_CHUNK_LANES", chunk)
            out = tmp_path / f"{chunk}.csv"
            main([command, "--out", str(out), "--users", "2", "--gain", "8", "--paths", "2",
                  "--packet-len", "40", "--train-len", "12", "--packets", "3", "--seed", "4",
                  "--algorithms", ",".join(ALGORITHMS), *extra])
            outputs.append(out.read_bytes())
        assert all(out == outputs[0] for out in outputs[1:])

    def test_a_full_chunk_steps_each_group_in_one_loop(self, monkeypatch):
        # 8 lanes fill one chunk of 8; the three CG receivers still share
        # one loop, so one CG step per symbol from the second on.
        import fadetrack.harness as harness
        calls = []

        def counted(*args):
            calls.append(1)
            return cg_step_lanes(*args)

        monkeypatch.setattr(harness, "_CHUNK_LANES", 8)
        monkeypatch.setattr(harness, "cg_step_lanes", counted)
        cfg = ExperimentConfig(**{**SMALL, "fading_grid": (0.001, 0.02), "packets": 4,
                                  "algorithms": ("diff-cg", "bidir-cg", "bidir-cg-equal")})
        run_sinr_vs_fading(cfg)
        assert len(calls) == cfg.packet_len - 1


class TestRunSinrVsFading:
    def test_grid_span_enforced(self):
        cfg = ExperimentConfig(**{**SMALL, "fading_grid": (0.005, 0.01)})
        with pytest.raises(ValueError):
            run_sinr_vs_fading(cfg)

    def test_training_over_the_whole_packet_rejected(self, monkeypatch):
        # Both marks would be the last symbol, with no post-training BER.
        import fadetrack.harness as harness

        def no_packets(*args, **kwargs):
            raise AssertionError("a packet ran")

        monkeypatch.setattr(harness, "_PacketDraws", no_packets)
        cfg = ExperimentConfig(**{**SMALL, "fading_grid": (0.001, 0.02), "train_len": 60})
        with pytest.raises(ValueError, match="after training"):
            run_sinr_vs_fading(cfg)

    def test_training_over_the_whole_packet_rejected_by_cli(self, tmp_path):
        out = tmp_path / "out.csv"
        argv = [sys.executable, "-m", "fadetrack.cli", "sinr-vs-fading", "--out", str(out),
                "--users", "1", "--gain", "4", "--paths", "1", "--packets", "1",
                "--packet-len", "10", "--train-len", "10", "--snr-db", "10",
                "--fading-grid", "0.001,0.02"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert "after training" in result.stderr.strip().splitlines()[-1]
        assert not out.exists()

    def test_emits_train_and_end_points(self):
        cfg = ExperimentConfig(**{**SMALL, "fading_grid": (0.001, 0.02),
                                  "algorithms": ("mmse", "rls")})
        records = run_sinr_vs_fading(cfg)
        marks = {(r.algorithm, r.sweep, r.symbol) for r in records}
        assert ("rls", 0.001, cfg.train_len - 1) in marks
        assert ("rls", 0.02, cfg.packet_len - 1) in marks
        assert len(records) == 2 * 2 * 2

    def test_mmse_normalized_sinr_is_sane(self):
        cfg = ExperimentConfig(users=1, gain=8, paths=1,
                               snr_db=(12.0,), fading_grid=(0.001, 0.02),
                               packet_len=80, train_len=20, packets=6,
                               algorithms=("mmse",), isi=False, seed=13)
        records = run_sinr_vs_fading(cfg)
        for r in records:
            # Single user: the oracle loses nothing to interference, so the
            # normalized SINR sits near 0 dB at every fading rate.
            assert abs(r.sinr_db) < 1.0


STATS_SWEEP = ExperimentConfig(users=3, gain=8, paths=2, snr_db=(12.0,),
                               fading_grid=(0.001, 0.005, 0.02), packet_len=300, train_len=100,
                               packets=40, algorithms=("mmse", "nlms", "rls"), seed=2911)
STATS_BER = replace(STATS_SWEEP, snr_db=(6.0, 14.0), fading_grid=(0.002,), isi=False)


def coherent_statistics():
    """Each mean of ``STATS_SWEEP``'s and ``STATS_BER``'s rows with its 95 % half-width,
    by ``"experiment algorithm sweep quantity"``: the SINR (dB) at both marks of the
    ``sinr-vs-fading`` records and the post-training BER of both experiments, whose
    half-width comes from the per-packet BER each experiment reduced."""
    import fadetrack.harness as harness
    collected, collect = [], harness._collect

    def recorded(*args, **kwargs):
        collected.append(collect(*args, **kwargs))
        return collected[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_collect", recorded)
        sweep, ber = run_sinr_vs_fading(STATS_SWEEP), run_ber_curve(STATS_BER)
    stats = {}
    for cfg, errors, grid, rows in ((STATS_SWEEP, collected[0][0], STATS_SWEEP.fading_grid, sweep),
                                    (STATS_BER, collected[1][0], STATS_BER.snr_db, ber)):
        for name in cfg.algorithms:
            for g, point in enumerate(grid):
                mine = [r for r in rows if r.algorithm == name and r.sweep == point]
                per_packet = np.mean(errors[name][g, :, cfg.train_len:].astype(float), axis=1)
                half = 1.96 * float(np.std(per_packet)) / math.sqrt(cfg.packets)
                if rows is sweep:
                    stats.update({f"{r.experiment} {name} {point} sinr@{r.symbol}":
                                  (r.sinr_db, r.ci) for r in mine})
                    mean = mine[0].ber
                else:
                    mean = float(np.mean([r.ber for r in mine if r.symbol >= cfg.train_len]))
                assert mean == pytest.approx(float(np.mean(per_packet)), abs=1e-12)
                stats[f"{mine[0].experiment} {name} {point} post-ber"] = (mean, half)
    return stats


class TestCoherentStatistics:
    # The coherent receivers once read a plain BPSK block of their own; now
    # they read the differentially encoded block every receiver reads, which
    # moves their rows at Monte Carlo level only.  Each statistic of that
    # two-block code as (mean, 95 % half-width), to 6 significant digits.
    TWO_BLOCKS = {
        "sinr-vs-fading mmse 0.001 sinr@99": (-1.45365, 0.48825),
        "sinr-vs-fading mmse 0.001 sinr@299": (-1.20018, 0.373477),
        "sinr-vs-fading mmse 0.001 post-ber": (0.0035, 0.00399883),
        "sinr-vs-fading mmse 0.005 sinr@99": (-1.95471, 0.639381),
        "sinr-vs-fading mmse 0.005 sinr@299": (-1.38175, 0.496718),
        "sinr-vs-fading mmse 0.005 post-ber": (0.00775, 0.00427102),
        "sinr-vs-fading mmse 0.02 sinr@99": (-1.8659, 0.472218),
        "sinr-vs-fading mmse 0.02 sinr@299": (-1.48247, 0.49522),
        "sinr-vs-fading mmse 0.02 post-ber": (0.0065, 0.00232943),
        "sinr-vs-fading nlms 0.001 sinr@99": (-2.99306, 0.624903),
        "sinr-vs-fading nlms 0.001 sinr@299": (-6.43, 2.90896),
        "sinr-vs-fading nlms 0.001 post-ber": (0.05325, 0.0422745),
        "sinr-vs-fading nlms 0.005 sinr@99": (-7.96362, 1.49808),
        "sinr-vs-fading nlms 0.005 sinr@299": (-14.9501, 2.71495),
        "sinr-vs-fading nlms 0.005 post-ber": (0.41525, 0.0665182),
        "sinr-vs-fading nlms 0.02 sinr@99": (-10.5657, 1.75476),
        "sinr-vs-fading nlms 0.02 sinr@299": (-17.1491, 2.65924),
        "sinr-vs-fading nlms 0.02 post-ber": (0.496375, 0.0277683),
        "sinr-vs-fading rls 0.001 sinr@99": (-2.60828, 0.553885),
        "sinr-vs-fading rls 0.001 sinr@299": (-4.42775, 2.61726),
        "sinr-vs-fading rls 0.001 post-ber": (0.027375, 0.0329067),
        "sinr-vs-fading rls 0.005 sinr@99": (-5.88826, 1.01491),
        "sinr-vs-fading rls 0.005 sinr@299": (-20.0179, 3.78314),
        "sinr-vs-fading rls 0.005 post-ber": (0.281375, 0.0675711),
        "sinr-vs-fading rls 0.02 sinr@99": (-9.58317, 1.5135),
        "sinr-vs-fading rls 0.02 sinr@299": (-18.9, 2.6215),
        "sinr-vs-fading rls 0.02 post-ber": (0.487, 0.0249967),
        "ber mmse 6.0 post-ber": (0.03225, 0.0114599),
        "ber mmse 14.0 post-ber": (0.00125, 0.00102491),
        "ber nlms 6.0 post-ber": (0.1755, 0.0524664),
        "ber nlms 14.0 post-ber": (0.09575, 0.0449821),
        "ber rls 6.0 post-ber": (0.140125, 0.045411),
        "ber rls 14.0 post-ber": (0.02075, 0.0176691),
    }

    def test_means_agree_with_the_two_block_statistics(self):
        stats = coherent_statistics()
        assert stats.keys() == self.TWO_BLOCKS.keys()
        for key, (mean, half) in stats.items():
            before, before_half = self.TWO_BLOCKS[key]
            assert abs(mean - before) <= half + before_half, key


class TestTrackingQuality:
    @staticmethod
    def packet_means(cfg, names, marks):
        """Each receiver's SINR averaged over the marks of a packet, then over packets."""
        from fadetrack.harness import _simulate
        point = (cfg.fading_grid[0], cfg.snr_db[0])
        vals = {name: [] for name in names}
        for _, runs in _simulate(cfg, [point], names, marks=marks):
            for name in names:
                vals[name].extend(np.mean(runs[name].sinr, axis=1))
        return {name: float(np.mean(v)) for name, v in vals.items()}

    def test_slow_fading_tracker_near_oracle(self):
        # At fd*Ts = 0.001 on the desk-scale channel, the three-sample CG
        # tracker lands within 2 dB of the per-symbol MMSE solve.  The
        # window matches the coherence time and the solve is diagonally
        # loaded; the SINR is averaged over the last hundred symbols of a
        # fully trained packet.
        cfg = ExperimentConfig(users=5, gain=16, paths=3, snr_db=(15.0,),
                               fading_grid=(0.001,), packet_len=1000,
                               train_len=1000, packets=16, algorithms=("mmse",),
                               lambda_cg=0.95, jmax=5, cg_loading=0.1, seed=77)
        marks = tuple(range(899, 1000, 10))
        means = self.packet_means(cfg, ("mmse", "bidir-cg"), marks)
        assert means["mmse"] - means["bidir-cg"] <= 2.0

    def test_static_channel_scheme_ordering(self):
        # Frozen flat channel, full training: the oracle tops the CG
        # tracker, which tops the stochastic-gradient tracker, and every
        # adaptive scheme lands within 3 dB of the oracle.
        cfg = ExperimentConfig(users=3, gain=16, paths=1, snr_db=(15.0,),
                               fading_grid=(0.0,), packet_len=1500,
                               train_len=1500, packets=12, algorithms=("mmse",),
                               mu=0.3, lambda_cg=0.99, jmax=5, isi=False, seed=78)
        means = self.packet_means(cfg, ("mmse", "bidir-cg", "bidir-nlms"), (1499,))
        assert means["mmse"] >= means["bidir-cg"] >= means["bidir-nlms"]
        assert means["mmse"] - means["bidir-nlms"] <= 3.0


class TestRunChannelStats:
    def test_rows_match_direct_statistics(self):
        cfg = ExperimentConfig(**SMALL)
        rows = run_channel_stats(cfg, samples=200_000, lags=(1, 2))
        assert len(rows) == len(cfg.fading_grid) * 2
        for rate, lag, emp_re, emp_im, theory in rows:
            assert emp_re == pytest.approx(theory, abs=0.02)
            assert abs(emp_im) < 0.02

    @pytest.mark.parametrize("extra, message", [
        (["--samples", "0"], "--samples"),
        (["--samples", "-3"], "--samples"),
        (["--samples", "10", "--lags", "1,10"], "--lags"),
        (["--lags", "-1"], "--lags"),
        (["--lags", ""], "--lags"),
        (["--lags", "1,1"], "--lags"),
        (["--lags", "1,x"], "--lags:"),
        # Library calls: run_channel_stats rejects them before drawing anything.
        ({"samples": 0}, "--samples"),
        ({"samples": 2000, "lags": (1, 1)}, "--lags"),
        ({"samples": 2000, "lags": ()}, "--lags"),
        ({"samples": 10, "lags": (1, 10)}, "--lags"),
        ({"lags": (-1, 2)}, "--lags"),
    ])
    def test_bad_arguments_rejected_by_cli(self, extra, message, tmp_path, capsys, monkeypatch):
        if isinstance(extra, dict):
            monkeypatch.setattr("fadetrack.harness.generate_fading", None)
            with pytest.raises(ValueError, match=message):
                run_channel_stats(ExperimentConfig(**SMALL), **extra)
            return
        from fadetrack.cli import main
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["channel-stats", "--out", str(out), "--fading-grid", "0.01", *extra])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def records():
    cfg = ExperimentConfig(users=2, gain=8, paths=1, snr_db=(12.0,),
                           fading_grid=(0.002,), packet_len=250,
                           train_len=250, packets=10,
                           algorithms=("bidir-nlms",), mu=0.2, isi=False,
                           seed=21)
    return run_analysis_comparison(cfg, ensemble_size=10_000)


class TestRunAnalysisComparison:
    def test_emits_five_curves(self, records):
        names = {r.algorithm for r in records}
        assert names == {"mmse-bound", "bidir-nlms-equal", "diff-nlms",
                         "bidir-nlms-equal-analytical", "diff-nlms-analytical"}

    def test_bound_is_flat(self, records):
        bound = [r.sinr_db for r in records if r.algorithm == "mmse-bound"]
        assert len(set(bound)) == 1

    def test_analytical_converges_toward_bound(self, records):
        bound = next(r.sinr_db for r in records if r.algorithm == "mmse-bound")
        analytical = [r.sinr_db for r in sorted(
            (r for r in records if r.algorithm == "bidir-nlms-equal-analytical"),
            key=lambda r: r.symbol)]
        steady = np.mean(analytical[-25:])
        assert analytical[0] < steady <= bound + 0.5
        assert abs(steady - bound) < 2.0

    def test_simulated_steady_state_near_analytical(self, records):
        curves = {}
        for name in ("bidir-nlms-equal", "bidir-nlms-equal-analytical"):
            vals = [r.sinr_db for r in sorted(
                (r for r in records if r.algorithm == name), key=lambda r: r.symbol)]
            curves[name] = np.mean(vals[-25:])
        assert abs(curves["bidir-nlms-equal"] - curves["bidir-nlms-equal-analytical"]) < 2.0

    def test_zero_step_analytical_curve_constant(self):
        cfg = ExperimentConfig(users=2, gain=8, paths=1, snr_db=(12.0,),
                               fading_grid=(0.002,), packet_len=40, train_len=40,
                               packets=2, algorithms=("bidir-nlms",), mu=0.0,
                               isi=False, seed=22)
        records = run_analysis_comparison(cfg, ensemble_size=10_000)
        analytical = [r.sinr_db for r in records
                      if r.algorithm == "bidir-nlms-equal-analytical"]
        assert len(set(np.round(analytical, 9))) == 1

    def test_zero_rate_rejected_before_any_packet_or_ensemble(self, monkeypatch):
        # At rate 0 the packets see a fixed AWGN channel, the ensemble static Rayleigh fading.
        import fadetrack.harness as harness

        def no_packets(*args, **kwargs):
            raise AssertionError("a packet or ensemble ran")

        monkeypatch.setattr(harness, "_PacketDraws", no_packets)
        monkeypatch.setattr(harness.analysis, "load_or_estimate", no_packets)
        cfg = ExperimentConfig(**{**SMALL, "fading_grid": (0.0,)})
        with pytest.raises(ValueError, match="positive fading rate"):
            run_analysis_comparison(cfg)
        with pytest.raises(ValueError, match="positive fading rate"):
            harness.check_experiment("analyze", cfg)
        # The ensemble rule applies only when a size is given.
        harness.check_experiment("analyze", replace(cfg, fading_grid=(0.005,)))
        with pytest.raises(ValueError, match="10\\^4"):
            harness.check_experiment("analyze", replace(cfg, fading_grid=(0.005,)), 9999)


class TestCliDeterminism:
    def _run(self, tmp_path, name, threads, extra=()):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "fadetrack.cli", "ber",
               "--users", "2", "--gain", "8", "--paths", "2",
               "--snr-db", "12", "--fading-grid", "0.005",
               "--packet-len", "50", "--train-len", "20", "--packets", "4",
               "--algorithms", "mmse,rls,bidir-cg", "--seed", "99",
               "--threads", str(threads), "--out", str(out), *extra]
        subprocess.run(cmd, check=True, capture_output=True)
        return out.read_bytes()

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        first = self._run(tmp_path, "a.csv", 1)
        second = self._run(tmp_path, "b.csv", 1)
        threaded = self._run(tmp_path, "c.csv", 3)
        assert first == second
        assert first == threaded

    def test_sinr_and_analyze_subcommands_run(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        subprocess.run(
            [sys.executable, "-m", "fadetrack.cli", "sinr-vs-fading",
             "--users", "2", "--gain", "8", "--paths", "1",
             "--snr-db", "12", "--fading-grid", "0.001,0.02",
             "--packet-len", "40", "--train-len", "10", "--packets", "2",
             "--algorithms", "mmse,rls", "--seed", "5",
             "--out", str(sweep_out)],
            check=True, capture_output=True)
        assert sweep_out.read_text().count("\n") == 1 + 2 * 2 * 2

        analyze_out = tmp_path / "fig1.csv"
        subprocess.run(
            [sys.executable, "-m", "fadetrack.cli", "analyze",
             "--users", "1", "--gain", "4", "--paths", "1",
             "--snr-db", "10", "--fading-grid", "0.002",
             "--packet-len", "30", "--train-len", "30", "--packets", "2",
             "--algorithms", "bidir-nlms", "--seed", "5", "--isi", "0",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(analyze_out)],
            check=True, capture_output=True)
        assert analyze_out.read_text().count("\n") == 1 + 5 * 30

    def test_analyze_on_a_warm_cache_writes_the_cold_bytes(self, tmp_path):
        from fadetrack.cli import main
        cache = tmp_path / "cache"
        argv = ["analyze", "--users", "2", "--gain", "4", "--paths", "2", "--snr-db", "10",
                "--fading-grid", "0.01", "--packet-len", "40", "--train-len", "40",
                "--packets", "2", "--seed", "5", "--ensemble", "10000",
                "--cache-dir", str(cache)]
        main([*argv, "--out", str(tmp_path / "cold.csv")])
        entries = sorted(cache.iterdir())
        main([*argv, "--out", str(tmp_path / "warm.csv")])
        assert sorted(cache.iterdir()) == entries and len(entries) == 2
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_all_subcommands_listed_in_help(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fadetrack.cli", "--help"],
            check=True, capture_output=True, text=True)
        for sub in ("ber", "sinr-vs-fading", "analyze", "channel-stats"):
            assert sub in result.stdout

    def test_help_lists_every_config_key(self):
        from fadetrack.cli import build_parser
        from fadetrack.harness import CONFIG_KEYS
        parser = build_parser()
        text = ""
        for action in parser._subparsers._group_actions:
            for sub in action.choices.values():
                text += sub.format_help()
        for key in CONFIG_KEYS:
            assert key.replace("_", "-") in text


@pytest.fixture(scope="module")
def small_records():
    return run_ber_curve(ExperimentConfig(**SMALL))


class TestAlgorithmCoverage:
    def test_every_algorithm_runs_and_reports(self, small_records):
        names = {r.algorithm for r in small_records}
        assert names == set(ExperimentConfig(**SMALL).algorithms)
        for r in small_records:
            assert 0.0 <= r.ber <= 1.0
            assert r.ci is not None and r.ci >= 0.0

    def test_algorithm_registry_complete(self):
        assert set(ALGORITHMS) == {
            "mmse", "nlms", "rls", "diff-nlms", "diff-cg",
            "bidir-nlms", "bidir-nlms-equal", "bidir-cg", "bidir-cg-equal"}
