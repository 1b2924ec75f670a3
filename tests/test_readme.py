"""The README's examples run as shown, and the README describes what is.

Each ``ychannel`` command of the ``sh`` block under "## CLI" runs in process
through ``cli.main`` from a scratch directory, and the ``python`` block under
"## Library sketch" runs as a script.  History belongs in CHANGES.md, so no
line outside "## Removed names" tells how the code used to be.
"""

import json
import pathlib
import re
import shlex

import pytest

from ychannel import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PAST_TENSE = re.compile(r"used to|no longer|formerly|earlier versions|versions that", re.I)
# a decimal shown with its tail elided, as in "upper_decimal": 38.18...
ELIDED = re.compile(r'"(\w+)": (-?\d+\.\d+)\.\.\.')


def sections() -> dict[str, list[str]]:
    """README lines per "## " heading; the lines before the first one go under ""."""
    out = {"": []}
    name = ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            name = line[3:]
            out[name] = []
        else:
            out[name].append(line)
    return out


def code_block(section: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block in ``section``."""
    lines = sections()[section]
    start = lines.index(f"```{lang}") + 1
    return lines[start:lines.index("```", start)]


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """(arguments, comment lines) of each ``ychannel`` command, continued lines joined."""
    examples = []
    for line in "\n".join(code_block("CLI", "sh")).replace("\\\n", " ").splitlines():
        if line.startswith("ychannel "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# ") and examples:
            examples[-1][1].append(line[2:])
    return examples


def test_every_command_has_an_example():
    assert [argv[0] for argv, _ in cli_examples()] == [
        "bound", "sweep", "synthesize", "montecarlo",
    ]


@pytest.mark.parametrize("argv", [argv for argv, _ in cli_examples()], ids=lambda a: a[0])
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_bound_json_prints_the_shown_line(capsys):
    argv, comment = next(example for example in cli_examples() if example[0][0] == "bound")
    assert cli.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    shown = json.loads(ELIDED.sub(r'"\1": null', comment[0]))
    for key, digits in ELIDED.findall(comment[0]):
        assert str(printed[key]).startswith(digits)
        shown[key] = printed[key]
    assert list(printed.items()) == list(shown.items())


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = "\n".join(code_block("Library sketch", "python"))
    exec(compile(source, f"{README}:Library sketch", "exec"), {})


def test_readme_is_in_the_present_tense():
    stale = [
        line
        for name, lines in sections().items()
        if name != "Removed names"
        for line in lines
        if PAST_TENSE.search(line)
    ]
    assert stale == []
