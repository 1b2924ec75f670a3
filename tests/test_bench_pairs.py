"""``tools/bench_pairs.py`` refuses checkouts whose ``src/`` holds compiled bytecode."""

import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RunStarted(Exception):
    pass


def run_pairs(bench_pairs, tmp_path, monkeypatch, cached_side):
    """``main`` on two bare checkouts, with a ``__pycache__`` under ``cached_side``'s ``src/``."""
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in checkouts.values():
        (checkout / "src" / "ychannel").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
    cache = None
    if cached_side is not None:
        cache = checkouts[cached_side] / "src" / "ychannel" / "__pycache__"
        cache.mkdir()

    def no_run(*args, **kwargs):
        raise RunStarted(args)

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "selftest", "--pairs", "2"]
    return bench_pairs.main(argv), cache


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bytecode_under_src_refuses_before_any_run(bench_pairs, tmp_path, monkeypatch, capsys,
                                                   side):
    # a parent-side cache pushed setup_s up 20-37% against a change without one
    code, cache = run_pairs(bench_pairs, tmp_path, monkeypatch, side)
    assert code == 2
    assert f"bench_pairs: {cache} holds compiled bytecode" in capsys.readouterr().err


def test_checkouts_without_bytecode_start_running(bench_pairs, tmp_path, monkeypatch):
    with pytest.raises(RunStarted):
        run_pairs(bench_pairs, tmp_path, monkeypatch, None)
