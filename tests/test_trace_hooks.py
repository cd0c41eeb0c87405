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


def _sweep_then_boundary(argv: list[str], p: int):
    """A traced ``main(argv)`` that runs the Hochster sweep, then one boundary
    rank over GF(p) that must eliminate: the (calls, columns) of each rank
    counter after the sweep, and the tracer."""
    complexes = importlib.import_module("matroidbetti.complexes")
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
        swept = {name: (calls, cols) for name, (calls, _, _, cols) in tracer.counters.items()
                 if name in ("linalg.gf2_rank", "linalg.modp_rank")}
        # Two edges of a triangle over its three vertices: rank 2.
        assert complexes.boundary_rank([0b011, 0b110], [0b001, 0b010, 0b100], 3, p) == 2
    finally:
        tracer.uninstall()
    return swept, tracer


def test_trace_hooks_see_the_sweep_eliminations(capsys):
    # g1 resolves to the Hochster sweep, which decides its certificates by
    # walks and eliminates no matrix over GF(3); the odd-prime eliminations
    # of a boundary rank must reach the counter the hooks put on
    # ``complexes.modp_rank``, through ``complexes.boundary_rank``.
    swept, tracer = _sweep_then_boundary(["betti", "--input", "g1", "--field", "3"], 3)
    capsys.readouterr()
    assert swept == {"linalg.gf2_rank": (0, 0), "linalg.modp_rank": (0, 0)}
    assert tracer.counters["complexes.boundary_rank"][0] == 1
    assert tracer.counters["linalg.modp_rank"][0] == 1 and tracer.counters["linalg.modp_rank"][3] == 2


def test_trace_hooks_see_the_graph_oracle_and_gf2_eliminations(capsys):
    # The benchmark's oracle and GF(2) per-layer metrics read these two
    # counters: the graph oracle is reached through ``Matroid.__init__`` and
    # GF(2) eliminations through ``complexes.gf2_rank``, which the sweep no
    # longer calls and ``complexes.boundary_rank`` does.
    swept, tracer = _sweep_then_boundary(["betti", "--input", "g1"], 2)
    capsys.readouterr()
    assert tracer.counters["graphs.rank_fn"][0] > 0
    assert swept == {"linalg.gf2_rank": (0, 0), "linalg.modp_rank": (0, 0)}
    assert tracer.counters["complexes.boundary_rank"][0] == 1
    assert tracer.counters["linalg.gf2_rank"][0] == 1 and tracer.counters["linalg.gf2_rank"][3] == 2
