"""Print a digest of the CLI's output over a fixed battery of commands.

Each command runs in process through ``ychannel.cli.main``.  One line per
run, ``sha256  command``, covers the exit code, stdout, stderr and the file
that ``--out`` writes; an empty stderr adds nothing to the hash.  The
``--out`` path is replaced by ``OUT`` before stdout is hashed, so two
checkouts give the same lines exactly when their outputs are
byte-identical.  Digests depend on the BLAS build, so compare runs on
one machine only.

Run it against the ``src/`` of any checkout (this file need not be part of
that checkout) and diff the two outputs::

    PYTHONPATH=src python tools/output_digest.py > new.txt
    git worktree add ../ychannel-parent HEAD~1
    PYTHONPATH=../ychannel-parent/src python tools/output_digest.py > old.txt
    diff old.txt new.txt && echo byte-identical
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from ychannel import cli

GRID = ("--snr-grid", "20,35.5,50")

# (command arguments, suffix of the --out file or None)
BATTERY = [
    (["montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seeds", "12",
      "--snr-grid", "30,40,50,60"], ".csv"),
    (["montecarlo", "--k", "6", "--m", "15", "--n", "32", "--beta", "2", "--seeds", "2",
      "--snr-grid", "60,70,80,90"], ".csv"),
    # relay-side extension, t = 5
    (["montecarlo", "--k", "5", "--m", "1", "--n", "3", "--beta", "2", "--seeds", "3", *GRID],
     ".csv"),
    (["montecarlo", "--k", "4", "--m", "3", "--n", "8", "--beta", "2", "--seeds", "3",
      "--base-seed", "7", *GRID], ".csv"),
    # source-side plans: extension with t = 7, and deactivation with t = 1
    (["montecarlo", "--k", "4", "--m", "4", "--n", "9", "--beta", "2", "--seeds", "3", *GRID],
     ".csv"),
    (["montecarlo", "--k", "5", "--m", "10", "--n", "11", "--beta", "2", "--seeds", "3", *GRID],
     ".csv"),
    # dual builds above beta = 2: beta = 3 and beta = 4 corners
    (["montecarlo", "--k", "5", "--m", "4", "--n", "13", "--beta", "3", "--seeds", "3", *GRID],
     ".csv"),
    (["montecarlo", "--k", "6", "--m", "5", "--n", "21", "--beta", "4", "--seeds", "3", *GRID],
     ".csv"),
    # the source-side t = 7 plan loses rank structurally: the error text on stderr
    (["montecarlo", "--k", "4", "--m", "1", "--n", "2", "--beta", "2", "--seeds", "2", *GRID],
     None),
    # a seed range that ends past 2^64, refused before any seed is prepared: no CSV
    (["montecarlo", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seeds", "3",
      "--base-seed", "18446744073709551614", "--snr-grid", "40,50"], ".csv"),
    (["synthesize", "--k", "4", "--m", "3", "--n", "7", "--beta", "2", "--seed", "1"], ".json"),
    (["synthesize", "--k", "5", "--m", "4", "--n", "13", "--beta", "3", "--seed", "2"], ".json"),
    (["synthesize", "--k", "4", "--m", "3", "--n", "8", "--beta", "2", "--seed", "3"], ".json"),
    # the largest batched null-space solve, (20, 81, 81), and its export
    (["synthesize", "--k", "6", "--m", "26", "--n", "81", "--beta", "3", "--seed", "0"], ".json"),
    # refusals before any channel is drawn: rows that do not divide over the subsets,
    # a ratio below the corner and a fractional stream count
    (["synthesize", "--k", "6", "--m", "13", "--n", "41", "--beta", "3"], None),
    (["synthesize", "--k", "5", "--m", "4", "--n", "11", "--beta", "3"], None),
    (["synthesize", "--k", "5", "--m", "3", "--n", "7", "--beta", "2"], None),
    (["sweep", "--k", "5", "--grid-auto", "100"], ".csv"),
    (["sweep", "--k", "6"], None),
    (["sweep", "--k", "5", "--grid", "1/2,11/5,7"], ".csv"),
    # --grid refusals: an exponent a float reads as inf, refused before 10^x is computed,
    # a ratio the grid rule refuses and a zero denominator
    (["sweep", "--k", "5", "--grid", "1e9999999999"], None),
    (["sweep", "--k", "5", "--grid", "0,1/2"], None),
    (["sweep", "--k", "5", "--grid", "1/0"], None),
    (["bound", "--k", "5", "--m", "10", "--n", "21"], None),
    (["bound", "--k", "5", "--m", "10", "--n", "21", "--json"], None),
    # ratios on a breakpoint, which belong to the lower branch: the end of the relay-limited
    # branch, of plateau 2 and of slope 3
    (["bound", "--k", "5", "--m", "11", "--n", "20"], None),
    (["bound", "--k", "5", "--m", "1", "--n", "2", "--json"], None),
    (["bound", "--k", "5", "--m", "4", "--n", "13"], None),
]


def digest(argv: list[str], suffix: str | None, workdir: str) -> str:
    out = os.path.join(workdir, "out" + (suffix or ""))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + (["--out", out] if suffix else []))
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(stdout.getvalue().replace(out, "OUT").encode())
    h.update(stderr.getvalue().encode())
    if suffix and os.path.exists(out):
        with open(out, "rb") as fh:
            h.update(fh.read())
        os.remove(out)
    return h.hexdigest()


def main() -> int:
    print(f"ychannel from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for argv, suffix in BATTERY:
            shown = " ".join(argv + (["--out", "OUT"] if suffix else []))
            print(f"{digest(argv, suffix, workdir)}  ychannel {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
