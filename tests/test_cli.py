"""CLI integration tests: output contracts, determinism, exit codes.

Most tests call ``cli.main`` in this process.  The ones that need a fresh
interpreter, the ``python -m ychannel`` entry point with its ``sys.exit``
code, byte-identical repeats across processes and parses that may never
end, run it as a child process.
"""

import contextlib
import csv
import dataclasses
import io
import json
import select
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ychannel import (
    BroadcastInfeasibleError,
    ConfigurationError,
    SystemConfig,
    assemble_scheme,
    end_to_end,
    estimate_dof_slope,
    fit_slope,
    load_scheme,
    prepare,
    verify_alignment_conditions,
)
from ychannel import alignment, cli, simulation
from ychannel.simulation import RECOVERY_TOL, result_record, write_records_csv


def run_cli_process(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ychannel", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def run_cli(*args):
    """``cli.main`` in this process, seen as ``run_cli_process`` sees a child."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize(
    "argv",
    [["bound", "--k=--", "--m", "1", "--n", "2"],
     ["sweep", "--k", "5", "--grid-auto=--"],
     ["sweep", "--k", "5", "--out=--"],
     ["synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seed=--"],
     ["montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seeds", "1",
      "--snr-grid=--"]],
    ids=["k", "grid_auto", "out", "seed", "snr_grid"],
)
def test_dash_dash_value_is_usage_error(argv):
    # argparse passed each of these on as [] without calling the option's type: an exit 1
    # with a library error, or for --out a CSV on stdout
    proc = run_cli(*argv)
    assert proc.returncode == 2 and "expected one argument" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--k", "5", "--grid-auto", "4"],
     ["synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2"],
     ["montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seeds", "1",
      "--snr-grid", "40,50"]],
    ids=["sweep", "synthesize", "montecarlo"],
)
def test_out_path_that_cannot_be_opened_is_an_error(argv, tmp_path):
    # each exited 1 with a FileNotFoundError traceback
    proc = run_cli_process(*argv, "--out", str(tmp_path / "missing" / "out.txt"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in proc.stderr


class TestBound:
    def test_text_output(self):
        proc = run_cli_process("bound", "--k", "3", "--m", "2", "--n", "5")
        assert proc.returncode == 0
        assert "upper bound: 6" in proc.stdout
        assert "source_limited" in proc.stdout

    def test_json_output(self):
        proc = run_cli("bound", "--k", "5", "--m", "10", "--n", "21", "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["upper"] == "420/11"
        assert payload["regime"] == "slope"
        assert payload["beta"] == 2

    def test_too_few_users_is_usage_error(self):
        proc = run_cli_process("bound", "--k", "2", "--m", "1", "--n", "1")
        assert proc.returncode == 2

    def test_missing_flag_is_usage_error(self):
        proc = run_cli("bound", "--k", "4", "--m", "2")
        assert proc.returncode == 2

    def test_byte_identical_repeats(self):
        a = run_cli_process("bound", "--k", "6", "--m", "3", "--n", "8", "--json")
        b = run_cli_process("bound", "--k", "6", "--m", "3", "--n", "8", "--json")
        assert a.stdout == b.stdout


# Parses --grid strings in a child process, one JSON string per input line and
# one JSON [exit code, stderr] per output line, so that a parse that never
# returns (Fraction expanding 10**exponent) can be timed out and killed instead
# of hanging the test run.  An uncaught exception exits 1 with its traceback on
# stderr, as it would in a child process of its own.
GRID_WORKER = """
import contextlib, io, json, sys, traceback
from ychannel import cli
print("ready", flush=True)
for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["sweep", "--k", "5", "--grid=" + json.loads(line)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


class GridWorker:
    def __init__(self):
        self.proc = None

    def sweep(self, text, seconds):
        """The sweep's exit code and stderr for ``--grid=text``; (None, "") past the time limit."""
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", GRID_WORKER],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            assert self.proc.stdout.readline() == "ready\n"
        self.proc.stdin.write(json.dumps(text) + "\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], seconds)[0]:
            self.close()
            return None, ""
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


@pytest.fixture(scope="module")
def grid_worker():
    worker = GridWorker()
    yield worker
    worker.close()


class TestSweep:
    def parse(self, text):
        return list(csv.DictReader(io.StringIO(text)))

    def test_k5_tight_pattern(self):
        proc = run_cli("sweep", "--k", "5", "--grid-auto", "100")
        assert proc.returncode == 0
        rows = self.parse(proc.stdout)
        assert rows, "sweep produced no rows"
        for row in rows:
            ratio = Fraction(row["ratio"])
            expected = ratio <= Fraction(11, 5) or ratio >= 3
            assert (row["tight"] == "true") == expected, row

    def test_k4_always_tight(self):
        proc = run_cli("sweep", "--k", "4", "--grid-auto", "50")
        rows = self.parse(proc.stdout)
        assert all(row["tight"] == "true" for row in rows)

    def test_breakpoints_always_injected(self):
        proc = run_cli("sweep", "--k", "5", "--grid", "1/2")
        rows = self.parse(proc.stdout)
        ratios = {row["ratio"] for row in rows}
        assert {"1/2", "20/11", "2", "11/5", "3", "13/4", "33/13"} <= ratios

    def test_q3_corner_row(self):
        proc = run_cli("sweep", "--k", "5", "--grid", "13/4")
        rows = {row["ratio"]: row for row in self.parse(proc.stdout)}
        row = rows["13/4"]
        assert row["achievable_per_m"] == "5"
        assert row["upper_per_m"] == "5"
        assert row["tight"] == "true"

    def test_deterministic_and_lf_endings(self):
        a = run_cli_process("sweep", "--k", "5", "--grid-auto", "25")
        b = run_cli_process("sweep", "--k", "5", "--grid-auto", "25")
        assert a.stdout == b.stdout
        assert "\r" not in a.stdout

    def test_spec_invariants(self):
        grid = cli.sweep_grid(5, resolution=10)
        assert grid == sorted(set(grid))

    @pytest.mark.parametrize("resolution", [-3, 0, 2.5, True])
    def test_resolution_must_be_a_positive_integer(self, resolution):
        # -3 gave only the analytic points, 0 gave 100, 2.5 a bare TypeError
        # and True one step
        with pytest.raises(ConfigurationError, match="resolution must be"):
            cli.sweep_grid(5, resolution=resolution)

    @pytest.mark.parametrize(
        "K,grid,message",
        [(4.0, None, "K must be an integer, got 4.0"),
         (5, [], "the ratio grid is empty"),
         (5, [Fraction(3), Fraction(-1)], "grid ratios must be positive exact rationals, got -1"),
         (5, [Fraction(0)], "grid ratios must be positive exact rationals, got 0"),
         (5, [Fraction(3), 2.5], "grid ratios must be positive exact rationals, got 2.5"),
         (5, [True], "grid ratios must be positive exact rationals, got True")],
    )
    def test_bad_k_or_explicit_grid_is_refused(self, K, grid, message):
        # 4.0 raised a bare TypeError, [] gave only the analytic points, -1
        # and 0 were reported as relay antenna counts by sweep_rows, 2.5 failed
        # there with an AttributeError and True was taken as the ratio 1
        with pytest.raises(ConfigurationError, match=message):
            cli.sweep_rows(5, cli.sweep_grid(K, grid=grid))

    def test_grid_and_resolution_together_are_refused(self):
        # the resolution was dropped silently, leaving only the grid's points
        with pytest.raises(ConfigurationError, match="a ratio grid or a resolution, not both"):
            cli.sweep_grid(5, [Fraction(1)], 10)

    def test_no_resolution_keeps_the_default_of_100(self):
        grid = cli.sweep_grid(5)
        assert grid == cli.sweep_grid(5, resolution=100)
        assert {Fraction(j, 20) for j in range(1, 101)} <= set(grid)

    def test_empty_explicit_grid_fails(self):
        proc = run_cli("sweep", "--k", "5", "--grid", "")
        assert proc.returncode == 2

    # Fraction expands 10**exponent before any range check: without the guard
    # the last three never end, so the time limit turns that into a failure
    @pytest.mark.parametrize(
        "grid",
        ["1/2,abc", "0", "-1", "1/0", "1e400", "1e9999999999", "1e-9999999999",
         "1,0e99999999999"],
    )
    def test_bad_grid_is_usage_error(self, grid_worker, grid):
        code, stderr = grid_worker.sweep(grid, seconds=30)
        assert code == 2
        assert "usage:" in stderr and "Traceback" not in stderr

    def test_exponent_entries_keep_their_values(self):
        rows = self.parse(run_cli("sweep", "--k", "5", "--grid", "1e2,1/2,25e-3").stdout)
        assert {"100", "1/2", "1/40"} <= {row["ratio"] for row in rows}

    # 12 characters are enough for an exponent that never finishes expanding;
    # each example gets 5 s in the worker
    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="0123456789/,.-e", max_size=12))
    @example("1e9999999999")
    @example("1e-9999999999")
    @example("--")  # argparse passed "--grid=--" on as [], which exited 1
    def test_any_grid_text_parses_or_is_usage_error(self, grid_worker, text):
        code, _ = grid_worker.sweep(text, seconds=5)
        assert code in (0, 2), f"--grid {text!r}: exit {code} (None: still parsing after 5 s)"


class TestSynthesize:
    def test_corner_success(self, tmp_path):
        out = tmp_path / "scheme.json"
        proc = run_cli(
            "synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 0
        assert "alignment conditions verified: pass" in proc.stdout
        scheme = load_scheme(str(out))
        assert scheme.compression.shape == (6, 7)

    def test_second_corner_success(self):
        proc = run_cli(
            "synthesize", "--k", "5", "--m", "4", "--n", "13", "--beta", "3",
            "--seed", "2",
        )
        assert proc.returncode == 0

    def test_above_corner_exports_the_simulated_scheme(self, tmp_path):
        # N=8 is above the corner N=7: the relay deactivates one antenna
        out = tmp_path / "scheme.json"
        proc = run_cli(
            "synthesize", "--k", "4", "--m", "3", "--n", "8", "--beta", "2",
            "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0
        scheme = load_scheme(str(out))
        assert scheme.compression.shape == (6, 7)
        assert f"alignment residual: {scheme.alignment_residual:.3e}" in proc.stdout
        prep = prepare(SystemConfig(4, 3, 8), 2, 3)
        assert verify_alignment_conditions(scheme, prep.ch).passed

    def test_below_corner_fails_with_requirement(self):
        proc = run_cli_process(
            "synthesize", "--k", "5", "--m", "4", "--n", "11", "--beta", "3"
        )
        assert proc.returncode == 1
        assert "needs N >= 13" in proc.stderr

    def test_fractional_row_count_names_the_extension(self):
        # x = 2 is integral, but 30 rows do not divide over C(6, 3) = 20 subsets
        proc = run_cli("synthesize", "--k", "6", "--m", "13", "--n", "41", "--beta", "3")
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: 30 compression rows do not divide over 20 subsets; "
            "needs a 2-symbol extension\n"
        )

    def test_three_users_have_no_constructible_corner(self):
        proc = run_cli("synthesize", "--k", "3", "--m", "2", "--n", "3", "--beta", "1")
        assert proc.returncode == 1
        assert proc.stderr == "error: K=3 has no constructible corner with beta >= 2, got 1\n"

    def test_negative_seed_fails(self):
        proc = run_cli(
            "synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seed", "-1",
        )
        assert proc.returncode == 1
        assert "seed" in proc.stderr

    @pytest.mark.parametrize("field", ["relay_recovery_error", "user_recovery_error"])
    @pytest.mark.parametrize("err", [float("nan"), 2 * RECOVERY_TOL])
    def test_bad_recovery_error_fails(self, monkeypatch, field, err):
        # a NaN error fails as an error above the tolerance does, at either hop
        def spoiled(prep):
            return dataclasses.replace(simulation.simulate(prep), **{field: err})

        monkeypatch.setattr(cli, "simulate", spoiled)
        proc = run_cli("synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2")
        assert proc.returncode == 1
        assert f"recovery error: {err:.3e}" in proc.stdout


class TestMonteCarlo:
    def test_small_run_flags_low_confidence(self, tmp_path):
        out = tmp_path / "mc.csv"
        proc = run_cli(
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "1", "--snr-grid", "40,50", "--out", str(out),
        )
        assert proc.returncode == 0
        assert "low-confidence" in proc.stdout
        assert "fitted slope:" in proc.stdout
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["snr_db"] == "40.0"

    def test_missing_snr_grid_is_usage_error(self):
        proc = run_cli(
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "1",
        )
        assert proc.returncode == 2

    def test_one_point_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "mc.csv"
        proc = run_cli(
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--snr-grid", "40", "--out", str(out),
        )
        assert proc.returncode == 2
        assert "at least 2 distinct SNR points" in proc.stderr
        assert not out.exists()

    def test_repeated_point_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "mc.csv"
        proc = run_cli(
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--snr-grid", "30,30", "--out", str(out),
        )
        assert proc.returncode == 2
        assert "at least 2 distinct SNR points" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", ["40", "30,30", "30,4000", "30,nan", ","])
    def test_snr_grid_refusal_is_the_fit_text(self, text):
        # the CLI kept its own count, range and distinct-point texts beside the library's
        grid = [float(p) for p in text.split(",") if p.strip()]
        with pytest.raises(ConfigurationError) as refusal:
            fit_slope(grid, np.zeros(len(grid)))
        proc = run_cli(
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "1", f"--snr-grid={text}",
        )
        assert proc.returncode == 2
        assert str(refusal.value) in proc.stderr

    def test_csv_keeps_the_requested_snr_points(self, tmp_path, capsys):
        # 3 dB and 4 dB do not survive a dB -> linear -> dB round trip
        out = tmp_path / "mc.csv"
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "1", "--snr-grid", "0,3,4,20", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            column = [row["snr_db"] for row in csv.DictReader(fh)]
        assert column == ["0.0", "3.0", "4.0", "20.0"]

    def test_seed_past_2_64_fails_without_csv(self, tmp_path, monkeypatch, capsys):
        # seeds 2^64-2 and 2^64-1 are valid, the third one is not; a base of
        # -1 fails on the first.  Either way no seed is prepared.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return prepare(*args, **kwargs)

        monkeypatch.setattr(cli, "prepare", counted)
        monkeypatch.setattr(simulation, "prepare", counted)
        out = tmp_path / "mc.csv"
        for base, count in ((2**64 - 2, "3"), (-1, "2")):
            code = cli.main([
                "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
                "--seeds", count, "--base-seed", str(base), "--snr-grid", "40,50",
                "--out", str(out),
            ])
            assert code == 1
            assert "seed" in capsys.readouterr().err
            assert calls == []
            assert not out.exists()

    def test_csv_matches_per_point_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        grid = [30.0, 45.5, 60.0]
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--base-seed", "5", "--snr-grid", "30,45.5,60",
            "--out", str(out),
        ])
        assert code == 0
        records = [
            result_record(end_to_end(SystemConfig(4, 3, 7), 2, seed, snr_db=snr))
            for seed in (5, 6)
            for snr in grid
        ]
        buf = io.StringIO()
        write_records_csv(records, buf)
        assert out.read_text(encoding="utf-8") == buf.getvalue()

    def test_prints_mean_of_csv_column_and_api_slope(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        grid = [30.0, 45.5, 60.0]
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "3", "--base-seed", "3", "--snr-grid", "30,45.5,60",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for snr in grid:
            column = [float(row["sum_rate"]) for row in rows if float(row["snr_db"]) == snr]
            assert len(column) == 3
            assert f"snr {snr:g} dB: mean sum rate {np.mean(column):.4f} bits/use\n" in stdout
        slope = estimate_dof_slope(SystemConfig(4, 3, 7), 2, [3, 4, 5], grid)
        assert f"fitted slope: {slope:.4f}\n" in stdout

    def test_missing_downlink_fails_without_csv(self, tmp_path, monkeypatch, capsys):
        def failing(scheme, ch, dual):
            raise BroadcastInfeasibleError("no dual")

        # prepare finishes the batched dual with the helper build_bc_scheme shares
        monkeypatch.setattr(simulation, "_bc_from_dual", failing)
        out = tmp_path / "mc.csv"
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--snr-grid", "30,40", "--out", str(out),
        ])
        assert code == 1
        assert "no rate available at seed 0" in capsys.readouterr().err
        assert not out.exists()
        # the class sum_rate_curve raises for the same failure
        args = cli.build_parser().parse_args([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--snr-grid", "30,40",
        ])
        with pytest.raises(BroadcastInfeasibleError, match="no rate available at seed 0: no dual"):
            cli.cmd_montecarlo(args)

    def test_structural_rank_loss_is_named(self, capsys):
        # the source-side t=7 plan of (4,1,2) loses compression rank on every
        # draw; the t=7 plan of (4,1,1) does not
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "1", "--n", "2", "--beta", "2",
            "--seeds", "1", "--snr-grid", "30,40",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "t=7" in err and "reseed" not in err
        result = end_to_end(SystemConfig(4, 1, 1), 2, 0)
        assert result.t == 7 and result.relay_recovery_error <= RECOVERY_TOL

    @pytest.mark.parametrize("grid", ["30,4000", "-4000,30", "30,nan"])
    def test_snr_outside_float_range_is_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
                "--seeds", "1", f"--snr-grid={grid}",
            ])
        assert exit_info.value.code == 2
        assert "[-3000, 3000] dB" in capsys.readouterr().err

    def test_two_schemes_per_seed(self, monkeypatch, capsys):
        # one batch per seed, the uplink and its dual, and no scheme built alone
        calls = []
        batched = simulation.assemble_schemes

        def counted_batch(members, *args):
            uplink, dual = members
            assert all(np.array_equal(h, g.T) for h, g in zip(dual.uplink, uplink.downlink))
            calls.extend(ch.seed for ch in members)
            return batched(members, *args)

        def counted(*args, **kwargs):
            calls.append(args[0].seed)
            return assemble_scheme(*args, **kwargs)

        monkeypatch.setattr(simulation, "assemble_schemes", counted_batch)
        monkeypatch.setattr(simulation, "assemble_scheme", counted)
        monkeypatch.setattr(alignment, "assemble_scheme", counted)
        code = cli.main([
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "3", "--snr-grid", "30,40,50",
        ])
        assert code == 0
        assert calls == [0, 0, 1, 1, 2, 2]

    def test_deterministic(self):
        args = (
            "montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2",
            "--seeds", "2", "--snr-grid", "40,60",
        )
        assert run_cli_process(*args).stdout == run_cli_process(*args).stdout


@pytest.mark.parametrize("command", ["bound", "synthesize", "montecarlo"])
def test_config_flags_are_declared_once(command):
    # synthesize and montecarlo showed --k, --m and --n without the help bound gives them
    proc = run_cli(command, "--help")
    assert proc.returncode == 0
    for text in ("user count (>= 3)", "source antennas", "relay antennas"):
        assert text in proc.stdout


class TestParserReuse:
    # a usage error first, so every later command parses with a parser that
    # has already exited once
    COMMANDS = [
        ["bound", "--k", "2", "--m", "1", "--n", "1"],
        ["bound", "--k", "5", "--m", "10", "--n", "21", "--json"],
        ["synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seed", "1"],
        ["montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seeds", "1",
         "--snr-grid", "40,50"],
    ]

    def test_reused_parser_matches_a_fresh_one(self, monkeypatch):
        reused = [run_cli(*argv) for argv in self.COMMANDS]
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(*argv) for argv in self.COMMANDS]
        assert [p.returncode for p in reused] == [2, 0, 0, 0]
        for got, want in zip(reused, fresh):
            assert (got.returncode, got.stdout, got.stderr) == (
                want.returncode, want.stdout, want.stderr
            )
