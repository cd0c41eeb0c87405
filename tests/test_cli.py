"""Command line front end: every subcommand, both output formats, all four
exit codes, and byte determinism."""

import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from math import comb

import pytest

from matroidbetti import BettiTable, Matroid, WeightHierarchy, cycle_matroid, fixture
from matroidbetti.betti import _global_from_spanning
from matroidbetti import cli as cli_mod
from matroidbetti.cli import main
from matroidbetti.weights import weights_via_size_rank

from util import chorded_ring, ring_graph

TWO_TRIANGLES_JSON = (
    '{"vertices": 5, "edges": [[1,2],[2,3],[3,1],[3,4],[4,5],[5,3]]}'
)
BASES_JSON = '{"n": 4, "bases": [[1,2],[1,3],[2,3],[1,4],[2,4]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, (json.loads(out) if out else None), err


# -- betti ---------------------------------------------------------------------


def test_betti_text_fixture(capsys):
    code, out, _ = run(capsys, "betti", "--input", "g3")
    assert code == 0
    assert "source: fixture g3" in out
    assert "elements: 9" in out
    assert "rank: 6" in out
    assert "global: 41 92 70 18" in out
    assert "degrees: 6..9" in out
    assert "resolution: 0 <- S(-6)^41 <- S(-7)^92 <- S(-8)^70 <- S(-9)^18 <- 0" in out


def test_betti_json_fixture(capsys):
    code, data, _ = run_json(capsys, "betti", "--input", "g3")
    assert code == 0
    assert data["schema"] == "1"
    assert data["command"] == "betti"
    assert data["algorithm"] == "hochster"
    assert data["field"] == 2
    assert data["table"]["global"] == [41, 92, 70, 18]
    assert data["table"]["rank"] == 6
    assert data["table"]["n"] == 9
    assert data["table"]["coarse"]["0"]["6"] == 41


def test_betti_inline_uniform_fine(capsys):
    code, out, _ = run(
        capsys, "betti", "--input", '{"uniform": [2, 3]}', "--fine"
    )
    assert code == 0
    assert "global: 3 2" in out
    assert "beta[0, {0,1}] = 1" in out
    assert "beta[1, {0,1,2}] = 2" in out


def test_betti_fine_json_keys(capsys):
    code, data, _ = run_json(
        capsys, "betti", "--input", '{"uniform": [2, 3]}', "--fine"
    )
    assert code == 0
    assert data["table"]["fine"] == {
        "0": {"0,1": 1, "0,2": 1, "1,2": 1},
        "1": {"0,1,2": 2},
    }


def test_betti_crosscheck_and_field(capsys):
    code, out, _ = run(
        capsys, "betti", "--input", TWO_TRIANGLES_JSON, "--crosscheck", "--field", "3"
    )
    assert code == 0
    assert "field: GF(3)" in out
    assert "crosscheck: agreement across" in out
    assert "hilbert check passed" in out


def test_crosscheck_sweeps_a_single_block_once(capsys, monkeypatch):
    # g1 is one block, so a blocks route would only rerun the same sweep.
    betti_mod = importlib.import_module("matroidbetti.betti")
    sweep = betti_mod.hochster_betti
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(betti_mod, "hochster_betti", counting)
    code, out, _ = run(capsys, "betti", "--input", "g1", "--crosscheck")
    assert code == 0
    assert calls == 1
    assert "crosscheck: agreement across hochster; hilbert check passed" in out


def test_betti_blocks_input(capsys):
    code, data, _ = run_json(
        capsys, "betti", "--input", '{"blocks": [[2,3],[3,4],[4,5]]}'
    )
    assert code == 0
    assert data["algorithm"] == "blocks"
    assert data["table"]["global"] == [60, 133, 98, 24]


def test_betti_bases_input(capsys):
    code, data, _ = run_json(
        capsys,
        "betti",
        "--input",
        '{"n": 3, "bases": [[1,2],[1,3],[2,3]]}',
    )
    assert code == 0
    assert data["table"]["global"] == [3, 2]


# -- error paths ---------------------------------------------------------------


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "betti", "--input", "no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_bad_inline_json_exits_1(capsys):
    code, _, err = run(capsys, "betti", "--input", '{"uniform": [2, 3')
    assert code == 1
    assert "invalid JSON" in err


def test_deeply_nested_json_exits_1(capsys, tmp_path):
    # The decoder gives up on deep nesting with RecursionError, which is
    # reported as invalid JSON, inline and from a file alike.
    text = '{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    for source in (text, str(path)):
        code, out, err = run(capsys, "betti", "--input", source)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "invalid JSON" in err
        assert len(err) < 300


def test_unrecognized_object_exits_1(capsys):
    code, _, err = run(capsys, "betti", "--input", '{"what": 1}')
    assert code == 1
    assert "unrecognized input object" in err


def test_non_prime_field_exits_1(capsys):
    code, _, err = run(capsys, "betti", "--input", "g3", "--field", "4")
    assert code == 1


def test_wide_prime_field_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "betti", "--input", "g3", "--field", str(2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "global: 41 92 70 18" in out


def test_field_beyond_primality_test_exits_1(capsys):
    code, _, err = run(capsys, "betti", "--input", "g3", "--field", "1" * 30)
    assert code == 1
    assert "error:" in err


def test_repeated_basis_element_exits_1(capsys):
    code, out, err = run(capsys, "betti", "--input", '{"n": 2, "bases": [[1, 1]]}')
    assert (code, out) == (1, "")
    assert "basis [1, 1] repeats an element" in err  # named as written, from 1


@pytest.mark.parametrize(
    ("source", "message"),
    [
        ('{"n": 3, "bases": 5}', "'bases' must be a list of element lists"),
        ('{"n": 3, "bases": [5]}', "basis 5 is not a list"),
    ],
)
def test_malformed_bases_exit_1(capsys, source, message):
    code, out, err = run(capsys, "betti", "--input", source)
    assert (code, out) == (1, "")
    assert err == f"error: inline input: {message}\n"


def test_non_integer_edge_endpoints_exit_1(capsys):
    code, out, err = run(capsys, "betti", "--input", '{"vertices": 3, "edges": [[1.5, 2]]}')
    assert (code, out) == (1, "")
    assert err == "error: inline input: edge [1.5, 2] has non-integer endpoints\n"


@pytest.mark.parametrize(
    ("source", "message"),
    [
        ('{"vertices": 3}', "missing the 'edges' key"),
        ('{"vertices": 3, "edges": [[1, 4]]}', "edge [1, 4] out of range 1..3 (the format is 1-indexed)"),
    ],
    ids=["no-edges", "out-of-range"],
)
def test_malformed_graphs_name_their_source(capsys, source, message):
    code, out, err = run(capsys, "betti", "--input", source)
    assert (code, out) == (1, "")
    assert err == f"error: inline input: {message}\n"


def _run_limited(argv: list[str], megabytes: int) -> subprocess.CompletedProcess:
    """The command line in a child process under an address-space limit."""
    import resource

    limit = megabytes * 2**20
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "matroidbetti", *argv], capture_output=True, text=True, env=env,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced")
def test_running_out_of_memory_exits_1_without_a_traceback():
    # The cross-check sweeps the 32-element four-block sum with no estimate
    # first; under a 300 MB address-space limit it runs out of memory within
    # seconds, and the command says so in one line.
    proc = _run_limited(["betti", "--crosscheck", "--input", '{"blocks": [[4,8],[4,8],[4,8],[4,8]]}'], 300)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr[-2000:]
    assert proc.stderr.startswith("error: out of memory") and "Traceback" not in proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced")
def test_a_23_edge_sweep_fits_in_150_mb():
    # A core column is the mask of the elements it drops and only certificate
    # columns are packed, so the sweep's memory follows the bases, not bases
    # times columns. The 23-edge ring sweeps under a 150 MB address-space
    # limit (lane-packed columns as tall as their leads peaked at 324 MB),
    # and its table is the image of the spanning counts taken here.
    g = ring_graph(random.Random(5), 14, 9)
    proc = _run_limited(["betti", "--algorithm", "hochster", "--output", "json", "--input", json.dumps(g.to_json_dict())], 150)
    assert proc.returncode == 0, proc.stderr[-2000:]
    m = cycle_matroid(g)
    n, r = m.n, m.full_rank
    expected = BettiTable(r, n, _global_from_spanning(n, r, m._spanning_counts()))
    assert json.loads(proc.stdout)["table"] == expected.to_json_dict()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced")
@pytest.mark.parametrize("vertices, chords", [(15, 10), (20, 10), (30, 20)])
def test_weights_of_large_rings_read_the_table(vertices, chords):
    # One block with a size-rank table: the 25-, 30- and 50-edge rings answer
    # under a 1 GB address-space limit in under 2 s, process start included,
    # without a cyclic flat (through which they took 2.2 s, 2.9 s and more
    # than 20 s).
    g = ring_graph(random.Random(5), vertices, chords)
    start = time.perf_counter()
    proc = _run_limited(["weights", "--output", "json", "--input", json.dumps(g.to_json_dict())], 1024)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr[-2000:]
    d = json.loads(proc.stdout)["d"]
    assert d == list(weights_via_size_rank(cycle_matroid(g)))
    if vertices == 30:
        assert len(d) == 21 and d[-1] == 50


def test_non_matroid_bases_exit_2(capsys):
    code, _, err = run(
        capsys, "betti", "--input", '{"n": 4, "bases": [[1,2],[3,4]]}'
    )
    assert code == 2
    assert "basis exchange fails for bases [1, 2] and [3, 4] at element 1" in err


def test_cactus_algorithm_on_chorded_ring_exits_2(capsys):
    code, _, err = run(
        capsys, "betti", "--input", "g1", "--algorithm", "cactus"
    )
    assert code == 2
    assert "invalid:" in err


def test_fine_with_blocks_algorithm_exits_1(capsys):
    code, _, err = run(
        capsys, "betti", "--input", TWO_TRIANGLES_JSON, "--algorithm", "blocks", "--fine"
    )
    assert code == 1
    assert "fine tables" in err


def test_weights_crosscheck_mismatch_exits_3(capsys, monkeypatch):
    import matroidbetti.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "cactus_weights", lambda lengths: WeightHierarchy((1, 2))
    )
    code, _, err = run(
        capsys, "weights", "--input", TWO_TRIANGLES_JSON, "--crosscheck"
    )
    assert code == 3
    assert "mismatch" in err


def test_betti_crosscheck_mismatch_exits_3(capsys, monkeypatch):
    import matroidbetti.cli as cli_mod

    real = cli_mod.betti

    def skewed(m, algorithm="auto", *args, **kwargs):
        table = real(m, algorithm, *args, **kwargs)
        if algorithm == "hochster":
            return BettiTable(table.rank_r, table.n, (1,))
        return table

    monkeypatch.setattr(cli_mod, "betti", skewed)
    code, out, err = run(
        capsys, "betti", "--input", TWO_TRIANGLES_JSON, "--crosscheck"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "mismatch: betti tables disagree: blocks gives (9, 12, 4) "
        "but hochster gives (1,)\n"
    )


def test_betti_crosscheck_hilbert_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "hilbert_check", lambda table, m: False)
    code, out, err = run(capsys, "betti", "--input", TWO_TRIANGLES_JSON, "--crosscheck")
    assert (code, out) == (3, "")
    assert err == "mismatch: the Betti table fails the Hilbert series consistency check\n"


def test_weights_crosscheck_mismatch_message(capsys, monkeypatch):
    import matroidbetti.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "weights_via_circuits", lambda m: WeightHierarchy((1, 3))
    )
    code, _, err = run(
        capsys, "weights", "--input", BASES_JSON, "--crosscheck"
    )
    assert code == 3
    assert err == (
        "mismatch: weight hierarchies disagree: circuits gives (1, 3) "
        "but sweep gives (2, 4)\n"
    )


# -- weights, blocks, cactus, invert, dual-d1 ------------------------------------


def test_weights_text_and_crosscheck(capsys):
    code, out, _ = run(capsys, "weights", "--input", "g2", "--crosscheck")
    assert code == 0
    assert "weights: 3 6 9 11 14" in out
    assert "crosscheck: agreement across" in out


def test_weights_crosscheck_computes_a_single_block_once(capsys, monkeypatch):
    # g1 is one block, so a blocks route would only rerun the sweep route.
    cli_mod = importlib.import_module("matroidbetti.cli")
    hierarchy = cli_mod.weight_hierarchy
    calls = 0

    def counting(m):
        nonlocal calls
        calls += 1
        return hierarchy(m)

    monkeypatch.setattr(cli_mod, "weight_hierarchy", counting)
    code, out, _ = run(capsys, "weights", "--input", "g1", "--crosscheck")
    assert code == 0
    assert calls == 1
    assert "crosscheck: agreement across size-rank, sweep" in out
    code, data, _ = run_json(
        capsys, "weights", "--input", TWO_TRIANGLES_JSON, "--crosscheck"
    )
    assert code == 0
    assert data["crosscheck"]["routes"] == ["blocks", "cactus", "sweep"]


@pytest.mark.parametrize(
    "source, route",
    [
        (TWO_TRIANGLES_JSON, "cactus"),
        ('{"vertices": 3, "edges": [[1,2],[2,3],[3,3]]}', "cactus"),
        ("g1", "size-rank"),
        ('{"vertices": 5, "edges": [[1,2],[2,3],[3,1],[3,4],[4,5],[5,3],[3,5]]}', "size-rank"),
        ('{"uniform": [2, 4]}', "size-rank"),
        ('{"blocks": [[2, 4], [1, 3], [0, 1]]}', "size-rank"),
        (BASES_JSON, "circuits"),
    ],
    ids=["cactus", "tree-and-loop", "g1", "graph-blocks", "uniform", "uniform-sum", "bases"],
)
def test_weights_crosscheck_takes_one_independent_route(capsys, source, route):
    # Besides the sweep and the block route: cactus on cacti, size-rank on
    # graphs and uniform sums, circuits on anything else.
    code, data, _ = run_json(capsys, "weights", "--input", source, "--crosscheck")
    assert code == 0
    assert {"cactus", "size-rank", "circuits"} & set(data["crosscheck"]["routes"]) == {route}


@pytest.mark.parametrize(
    "source, lists, combines",
    [
        (TWO_TRIANGLES_JSON, 1, 0),
        ("g1", 1, 0),
        ('{"blocks": [[2, 4], [1, 3], [0, 1]]}', 0, 1),
        (BASES_JSON, 1, 0),
    ],
    ids=["cactus", "g1", "uniform-sum", "bases"],
)
def test_weights_crosscheck_lists_the_cyclic_flats_at_most_once(
    capsys, monkeypatch, source, lists, combines
):
    # The answer reads a closed form, the block theorem or a table before the
    # cyclic flats. The sweep route lists them once on a graph, and is the
    # answer itself on a uniform sum (a closed form) and on a basis list (the
    # cyclic flats already). The block route is the answer itself on two
    # triangles (the block theorem); only the uniform sum combines its blocks
    # again.
    weights_mod = importlib.import_module("matroidbetti.weights")
    calls = Counter()

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    flats = counting("flats", weights_mod._cyclic_flat_weights)
    monkeypatch.setattr(weights_mod, "_cyclic_flat_weights", flats)
    monkeypatch.setattr(cli_mod, "_cyclic_flat_weights", flats)
    monkeypatch.setattr(cli_mod, "block_weights", counting("combine", cli_mod.block_weights))
    code, data, _ = run_json(capsys, "weights", "--input", source, "--crosscheck")
    assert (code, calls["flats"], calls["combine"]) == (0, lists, combines)
    assert "sweep" in data["crosscheck"]["routes"]


def test_weights_crosscheck_size_rank_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "weights_via_size_rank", lambda m: WeightHierarchy((1, 2)))
    code, out, err = run(capsys, "weights", "--input", "g3", "--crosscheck")
    assert (code, out) == (3, "")
    assert err == (
        "mismatch: weight hierarchies disagree: size-rank gives (1, 2) "
        "but sweep gives (3, 6, 9)\n"
    )


def test_a_ring_past_the_frontier_budget_falls_back_to_circuits(monkeypatch):
    # The 60-edge ring (40 vertices, 20 chords) is stopped at the first edge
    # after which its states times the bits of a packed table pass the
    # budget: within a second, and with no yielded layer past twice that cap
    # of states, the size-rank route gives way and circuits is chosen (a stub
    # here; the circuit search on this ring does not finish). An 18-edge
    # ring takes size-rank, and all 19 of its layers are seen.
    matroid_mod = importlib.import_module("matroidbetti.matroid")
    frontier = matroid_mod._frontier
    states = []

    def recording(*args):
        for layer in frontier(*args):
            states.append(len(layer))
            yield layer

    monkeypatch.setattr(matroid_mod, "_frontier", recording)
    monkeypatch.setattr(cli_mod, "weights_via_circuits", lambda m: WeightHierarchy((99,)))
    ring = chorded_ring(random.Random(5), 40, 20)
    n, r = ring.n, ring.full_rank
    cap = matroid_mod.FRONTIER_BUDGET // ((n - r + 1) * (r + 1) * (n + 1))
    start = time.perf_counter()
    routes = cli_mod._weights_routes(ring, WeightHierarchy((1,)))
    assert time.perf_counter() - start < 1.0
    assert sorted(routes) == ["circuits", "sweep"]
    assert len(states) < n + 1 and max(states) <= 2 * cap
    states.clear()
    small = chorded_ring(random.Random(5), 12, 6)
    routes = cli_mod._weights_routes(small, WeightHierarchy((1,)))
    assert sorted(routes) == ["size-rank", "sweep"] and len(states) == 19


@pytest.mark.parametrize(
    "source",
    ['{"uniform": [10, 40]}', '{"blocks": [[4,8],[4,8],[4,8]]}'],
    ids=["U10_40", "three-U4_8"],
)
def test_weights_crosscheck_of_large_uniform_sums_is_quick(capsys, source):
    # The circuit-family search never finished on either; their tables are
    # closed forms.
    start = time.perf_counter()
    code, data, _ = run_json(capsys, "weights", "--input", source, "--crosscheck")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "size-rank" in data["crosscheck"]["routes"]


def test_weights_json(capsys):
    code, data, _ = run_json(capsys, "weights", "--input", "g1")
    assert code == 0
    assert data["d"] == [3, 6, 8, 11, 14]
    assert data["rank"] == 9
    assert data["n"] == 14


def test_blocks_command(capsys):
    code, data, _ = run_json(capsys, "blocks", "--input", TWO_TRIANGLES_JSON)
    assert code == 0
    assert data["count"] == 2
    assert [row["kind"] for row in data["blocks"]] == ["circuit", "circuit"]
    assert data["blocks"][0]["elements"] == [0, 1, 2]
    code, out, _ = run(capsys, "blocks", "--input", TWO_TRIANGLES_JSON)
    assert "blocks: 2" in out
    assert "block 0: elements 0,1,2 (size 3, rank 2, circuit)" in out


def test_blocks_command_names_every_kind(capsys):
    # a loop, a bridge, a triangle and a K4, in that edge order
    graph = (
        '{"vertices": 7, "edges": [[7,7],[6,7],[4,5],[5,6],[6,4],'
        "[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}"
    )
    code, out, _ = run(capsys, "blocks", "--input", graph)
    assert code == 0
    assert out.splitlines() == [
        "source: inline input",
        "elements: 11",
        "blocks: 4",
        "block 0: elements 0 (size 1, rank 0, loop)",
        "block 1: elements 1 (size 1, rank 1, coloop)",
        "block 2: elements 2,3,4 (size 3, rank 2, circuit)",
        "block 3: elements 5,6,7,8,9,10 (size 6, rank 3, general)",
    ]
    code, data, _ = run_json(capsys, "blocks", "--input", graph)
    assert code == 0
    assert [row["kind"] for row in data["blocks"]] == [
        "loop",
        "coloop",
        "circuit",
        "general",
    ]


def test_cactus_command_positive(capsys):
    code, data, _ = run_json(capsys, "cactus", "--input", TWO_TRIANGLES_JSON)
    assert code == 0
    assert data["is_cactus"] is True
    assert data["profile"] == [3, 3]
    assert data["table"]["global"] == [9, 12, 4]
    assert data["d"] == [3, 6]
    code, out, _ = run(capsys, "cactus", "--input", TWO_TRIANGLES_JSON)
    assert "is_cactus: yes" in out
    assert "profile: 3 3" in out
    assert "global: 9 12 4" in out
    assert "weights: 3 6" in out


def test_cactus_command_negative_still_exits_0(capsys):
    # Recognition is the answer, not an error: a chorded ring reports "no".
    code, data, _ = run_json(capsys, "cactus", "--input", "g1")
    assert code == 0
    assert data["is_cactus"] is False
    assert data["offending"]
    code, out, _ = run(capsys, "cactus", "--input", "g1")
    assert code == 0
    assert "is_cactus: no" in out
    assert "offending block" in out


def test_cactus_command_finds_blocks_once(capsys, monkeypatch):
    # Recognition sorts the blocks once, and the table is read off that sort.
    find = Matroid._block_masks
    calls = 0

    def counting(self):
        nonlocal calls
        calls += 1
        return find(self)

    monkeypatch.setattr(Matroid, "_block_masks", counting)
    code, data, _ = run_json(capsys, "cactus", "--input", TWO_TRIANGLES_JSON)
    assert code == 0
    assert data["table"]["global"] == [9, 12, 4]
    assert calls == 1
    # The cross-checks read one kept partition: one restriction per block.
    restrict = Matroid.restrict
    restrictions = 0

    def counting_restrict(self, sigma):
        nonlocal restrictions
        restrictions += 1
        return restrict(self, sigma)

    monkeypatch.setattr(Matroid, "restrict", counting_restrict)
    for command in ("betti", "weights"):
        restrictions = 0
        code, _, _ = run(capsys, command, "--input", TWO_TRIANGLES_JSON, "--crosscheck")
        assert code == 0
        assert restrictions == 2, command


@pytest.mark.parametrize(
    "graph",
    [
        '{"vertices": 3, "edges": [[1,2],[2,3],[3,1],[1,1]]}',
        '{"vertices": 4, "edges": [[1,2],[2,3],[3,1],[1,1],[3,4]]}',
        '{"vertices": 5, "edges": [[1,2],[2,2],[2,3],[3,1],[3,4],[4,5],[5,3],[5,5]]}',
    ],
    ids=["loop", "loop-and-bridge", "two-loops-two-triangles"],
)
def test_betti_and_cactus_print_one_global_vector(capsys, graph):
    # Loops contribute trailing zeros, and every route keeps them: the
    # vector always has n - r + 1 entries.
    lines = {}
    for command in ("betti", "cactus"):
        code, out, _ = run(capsys, command, "--input", graph)
        assert code == 0
        lines[command] = [line for line in out.splitlines() if line.startswith("global: ")]
    assert len(lines["betti"]) == 1
    assert lines["betti"] == lines["cactus"]
    _, betti_data, _ = run_json(capsys, "betti", "--input", graph)
    _, cactus_data, _ = run_json(capsys, "cactus", "--input", graph)
    table = betti_data["table"]
    assert table["global"] == cactus_data["table"]["global"]
    assert len(table["global"]) == table["n"] - table["rank"] + 1
    assert table["global"][-1] == 0


def test_isolated_vertices_cost_nothing(capsys):
    # g1's edges among a billion vertices: the rank oracle numbers only the
    # vertices on an edge, and the connectivity error names ten of the rest.
    edges = fixture("g1").to_json_dict()["edges"]
    graph = json.dumps({"vertices": 10**9, "edges": edges})
    start = time.perf_counter()
    code, out, _ = run(capsys, "betti", "--input", graph)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "global: 393 1459 2187 1652 628 96" in out
    code, _, err = run(capsys, "cactus", "--input", graph)
    assert code == 2
    assert "[11, 12, 13, 14, 15, 16, 17, 18, 19, 20] and 999999980 more" in err
    assert len(err) < 1000


def test_cactus_needs_a_graph(capsys):
    code, _, err = run(capsys, "cactus", "--input", '{"uniform": [2, 3]}')
    assert code == 1
    assert "needs a graph" in err


def test_invert_command(capsys):
    code, data, _ = run_json(
        capsys, "invert", "--betti", "60,133,98,24", "--loops", "0"
    )
    assert code == 0
    assert data["lengths"] == [3, 4, 5]
    assert data["sigma"] == [1, 12, 47, 60]
    assert data["roundtrip"] == [60, 133, 98, 24]
    code, out, _ = run(capsys, "invert", "--betti", "3, 2, 0", "--loops", "1")
    assert code == 0
    assert "cycle lengths: 1 3" in out


def test_invert_unit_vector_is_a_forest(capsys):
    # ``cactus`` prints global 1 for a tree; its inverse is the empty profile.
    code, out, _ = run(
        capsys, "invert", "--betti", "1", "--loops", "0", "--output", "json"
    )
    assert code == 0
    assert '"lengths":[]' in out
    assert '"roundtrip":[1]' in out


def test_invert_prints_many_loops_at_once(capsys):
    # The loops' factor of sigma is the binomial row (1 + X)^8000, built in
    # one pass; one product per loop makes the command quadratic in the loops.
    start = time.perf_counter()
    code, out, _ = run(capsys, "invert", "--betti", "2,1", "--loops", "8000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["cycle lengths"] == " ".join(["1"] * 8000 + ["2"])
    assert lines["roundtrip betti"] == " ".join(["2", "1"] + ["0"] * 8000)
    # sigma lists the coefficients of (1 + 2X)(1 + X)^8000.
    sigma = [int(v) for v in lines["sigma"].split()]
    assert len(sigma) == 8002
    assert sigma[:3] == [1, 8002, comb(8000, 2) + 2 * 8000]
    assert sigma[-1] == 2
    assert sum(sigma) == 3 * 2**8000


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() <= 4300,
    reason="needs an int-to-str digit limit no larger than Python's default",
)
def test_invert_past_the_digit_limit_exits_1(capsys):
    # (1 + X)^14400 has coefficients of more than 4,300 digits: the command
    # refuses in plain words and leaves the interpreter's limit alone. The
    # bound checked before the inversion refuses 14,400 loops; 14,296 pass it
    # and are refused by the check of sigma after it.
    limit = sys.get_int_max_str_digits()
    for vector, loops in (("2,1", "14400"), ("1", "14296")):
        code, out, err = run(capsys, "invert", "--betti", vector, "--loops", loops)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and loops in err and str(limit) in err
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() <= 4300,
    reason="needs an int-to-str digit limit no larger than Python's default",
)
@pytest.mark.parametrize("loops", [10**6, 10**11])
def test_invert_refuses_a_huge_loop_count_before_inverting(capsys, loops):
    # max sigma >= C(L, L // 2), so the refusal needs no inversion: it comes
    # at once, where building sigma would run for minutes or exhaust memory.
    start = time.perf_counter()
    code, out, err = run(capsys, "invert", "--betti", "3,2", "--loops", str(loops))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"with {loops} loops, sigma has entries of more than" in err


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", int)() <= 4300,
    reason="needs an int-from-str digit limit no larger than Python's default",
)
def test_invert_overlong_entry_names_the_limit(capsys):
    # The entry is named by its position and quoted in part, not echoed whole.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "invert", "--betti", "3,2," + "9" * 100_000, "--loops", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.encode()) < 300
    assert "entry 3" in err and f"more than {limit} digits" in err


def test_invert_rejects_non_cactus_vector(capsys):
    code, _, err = run(capsys, "invert", "--betti", "9,13,4", "--loops", "0")
    assert code == 2
    assert "not a cactus Betti vector" in err


def test_invert_rejects_a_long_vector_quickly(capsys):
    # Building the length polynomial of a vector of t entries takes O(t^2)
    # small additions, so a thousand entries are refused well within a second.
    start = time.perf_counter()
    code, out, err = run(capsys, "invert", "--betti", ",".join(["1"] * 1000), "--loops", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "not a cactus Betti vector" in err


def test_invert_bad_arguments(capsys):
    code, _, err = run(capsys, "invert", "--betti", "a,b", "--loops", "0")
    assert code == 1
    code, _, err = run(capsys, "invert", "--betti", "1,x", "--loops", "0")
    assert code == 1 and "entry 2, 'x', is not an integer" in err
    code, _, err = run(capsys, "invert", "--betti", "3,2", "--loops", "-1")
    assert code == 1
    assert err.strip() == "error: loop count must be a non-negative integer, got -1"
    code, _, err = run(capsys, "invert", "--betti", ",", "--loops", "0")
    assert (code, err) == (1, "error: empty integer list\n")


def test_dual_d1(capsys):
    code, out, _ = run(capsys, "dual-d1", "--input", '{"uniform": [2, 3]}')
    assert code == 0
    assert "dual minimum distance: 2" in out
    code, data, _ = run_json(capsys, "dual-d1", "--input", "g1")
    assert code == 0
    assert data["d1"] == 2


def test_uniform_sums_are_answered_without_the_subset_scans(capsys, monkeypatch):
    # U(10, 40) has C(40, 10) = 847,660,528 bases. The Hilbert check counts
    # its spanning sets, and dual-d1 finds its smallest dual circuit, from the
    # parts; a scan through the rank oracle would stop at one of the caps.
    betti_mod = importlib.import_module("matroidbetti.betti")
    rank, k_subsets = Matroid.rank, betti_mod.k_subsets
    calls = 0

    def capped(self, sigma):
        nonlocal calls
        calls += 1
        assert calls <= 100, "the rank oracle was asked more than 100 times"
        return rank(self, sigma)

    def listing(n, k):
        assert comb(n, k) <= 10_000, f"listing the C({n}, {k}) sets"
        return k_subsets(n, k)

    monkeypatch.setattr(Matroid, "rank", capped)
    monkeypatch.setattr(betti_mod, "k_subsets", listing)
    start = time.perf_counter()
    code, data, _ = run_json(
        capsys, "betti", "--input", '{"uniform": [10, 40]}', "--crosscheck"
    )
    assert code == 0
    assert data["crosscheck"] == {"algorithms": ["hochster"], "agree": True, "hilbert": True}
    assert data["table"]["global"][0] == comb(40, 10)
    code, data, _ = run_json(capsys, "dual-d1", "--input", '{"uniform": [10, 40]}')
    assert code == 0
    assert data["d1"] == 31
    assert time.perf_counter() - start < 1.0


# -- argument parsing --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, usage",
    [
        ([], "usage: matroidbetti [-h]"),
        (["bogus", "--input", "g3"], "usage: matroidbetti [-h]"),
        (["betti"], "usage: matroidbetti betti [-h]"),
        (["betti", "--input", "g3", "--bogus"], "usage: matroidbetti betti [-h]"),
    ],
    ids=["no-subcommand", "unknown-subcommand", "missing-input", "unknown-option"],
)
def test_usage_errors_exit_2_after_a_usage_line(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(usage)


@pytest.mark.parametrize(
    "argv, usage",
    [(["-h"], "usage: matroidbetti [-h]"), (["weights", "-h"], "usage: matroidbetti weights [-h]")],
    ids=["parent", "subcommand"],
)
def test_help_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(usage)


def test_a_valid_call_never_reaches_the_parent_parser(capsys, monkeypatch):
    # A named subcommand parses its own options: one parse per call.
    def refuse(*args, **kwargs):
        raise AssertionError("the parent parser ran")

    monkeypatch.setattr(cli_mod.build_parser(), "parse_known_args", refuse)
    assert main(["blocks", "--input", "g3", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


# -- input plumbing ----------------------------------------------------------------


def test_stdin_edge_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n3 1\n"))
    code, data, _ = run_json(capsys, "betti", "--input", "-")
    assert code == 0
    assert data["source"] == "stdin"
    assert data["table"]["global"] == [3, 2]


def test_file_path_inputs(tmp_path, capsys):
    json_file = tmp_path / "tri.json"
    json_file.write_text('{"vertices": 3, "edges": [[1,2],[2,3],[3,1]]}')
    code, data, _ = run_json(capsys, "betti", "--input", str(json_file))
    assert code == 0
    assert data["table"]["global"] == [3, 2]
    text_file = tmp_path / "tri.txt"
    text_file.write_text("# triangle\n1 2\n2 3\n3 1\n")
    code2, data2, _ = run_json(capsys, "betti", "--input", str(text_file))
    assert code2 == 0
    assert data2["table"] == data["table"]


def test_bundled_fixture_files_match_fixture_names(capsys):
    fixture_dir = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for name in ("g1", "g3"):
        code, by_name, _ = run_json(capsys, "weights", "--input", name)
        path = str(fixture_dir / f"{name}.json")
        code2, by_file, _ = run_json(capsys, "weights", "--input", path)
        assert code == code2 == 0
        assert by_name["d"] == by_file["d"]


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "betti", "--input", "g3", "--output", "json")
    _, second, _ = run(capsys, "betti", "--input", "g3", "--output", "json")
    assert first == second
    _, w1, _ = run(capsys, "weights", "--input", "g4", "--output", "json")
    _, w2, _ = run(capsys, "weights", "--input", "g4", "--output", "json")
    assert w1 == w2


# -- the reproduction battery --------------------------------------------------------


def test_verify_battery_passes(capsys):
    code, data, _ = run_json(capsys, "verify-paper")
    assert code == 0
    assert data["failed"] == 0
    assert data["total"] >= 30
    assert all(row["pass"] for row in data["results"])


def test_verify_battery_text(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert "passed" in out.splitlines()[-1]


def test_verify_battery_builds_one_table_per_fixture(capsys, monkeypatch):
    # g1..g4 are single blocks: weight_hierarchy reads each one's size-rank
    # table, built once and kept, and hilbert_check reads the same table, so
    # no cyclic flat is listed. The two triangles' weights come from their
    # cycles in closed form, so their Hilbert check builds their two block
    # tables, one each.
    matroid_mod = importlib.import_module("matroidbetti.matroid")
    weights_mod = importlib.import_module("matroidbetti.weights")
    size_rank, cyclic_flats, hilbert = (
        matroid_mod._Graph.size_rank, weights_mod._cyclic_flat_weights, cli_mod.hilbert_check
    )
    built = Counter()
    flats = []
    in_check = []

    def counting_size_rank(self):
        built[self.ends] += 1
        return size_rank(self)

    def counting_flats(m):
        flats.append(m)
        return cyclic_flats(m)

    def counting_check(table, m):
        before = built.total()
        ok = hilbert(table, m)
        in_check.append(built.total() - before)
        return ok

    monkeypatch.setattr(matroid_mod._Graph, "size_rank", counting_size_rank)
    monkeypatch.setattr(weights_mod, "_cyclic_flat_weights", counting_flats)
    monkeypatch.setattr(cli_mod, "hilbert_check", counting_check)
    code, data, _ = run_json(capsys, "verify-paper")
    assert (code, data["failed"], data["total"]) == (0, 0, 37)
    for name in ("g1", "g2", "g3", "g4"):
        assert built[cycle_matroid(fixture(name))._presentation.ends] == 1, name
    assert flats == []
    assert in_check == [0, 0, 0, 0, 2] and built.total() == 6  # g1..g4, then two triangles
