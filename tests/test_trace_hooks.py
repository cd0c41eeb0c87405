"""The benchmark's trace hooks (``perfbench/tracing.py``) still find every
library name they wrap, and put the originals back when uninstalled."""

import importlib
import importlib.util
import pathlib

from matroidbetti.cli import main

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_namespaces() -> list:
    mods = [
        importlib.import_module(f"matroidbetti.{name}")
        for name in ("cli", "betti", "complexes", "matroid", "weights")
    ]
    _, betti, complexes, matroid, _ = mods
    return mods + [matroid.Matroid, complexes.SimplicialComplex, betti.BettiTable]


def test_trace_hooks_install_and_restore(capsys):
    owners = _patched_namespaces()
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert [dict(vars(owner)) for owner in owners] != before
        assert main(["blocks", "--input", "g3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracer.counters["matroid.rank"][0] > 0
    assert "matroid.blocks" in {span[0] for span in tracer.spans}


def test_trace_hooks_see_the_sweep_eliminations(capsys):
    # g3 resolves to the Hochster sweep, whose odd-prime eliminations must
    # reach the counter the hooks put on ``complexes.modp_rank``.
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert main(["betti", "--input", "g3", "--field", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counters["linalg.modp_rank"][0] > 0
