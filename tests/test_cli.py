"""Command line front end: every subcommand, both output formats, all four
exit codes, and byte determinism."""

import importlib
import io
import json
import pathlib
import time

import pytest

from matroidbetti import WeightHierarchy
from matroidbetti.cli import main

TWO_TRIANGLES_JSON = (
    '{"vertices": 5, "edges": [[1,2],[2,3],[3,1],[3,4],[4,5],[5,3]]}'
)


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


def test_non_matroid_bases_exit_2(capsys):
    code, _, err = run(
        capsys, "betti", "--input", '{"n": 4, "bases": [[1,2],[3,4]]}'
    )
    assert code == 2
    assert "exchange" in err


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
        cli_mod, "weights_via_circuits", lambda m: WeightHierarchy((1, 2))
    )
    code, _, err = run(
        capsys, "weights", "--input", TWO_TRIANGLES_JSON, "--crosscheck"
    )
    assert code == 3
    assert "mismatch" in err


# -- weights, blocks, cactus, invert, dual-d1 ------------------------------------


def test_weights_text_and_crosscheck(capsys):
    code, out, _ = run(capsys, "weights", "--input", "g2", "--crosscheck")
    assert code == 0
    assert "weights: 3 6 9 11 14" in out
    assert "crosscheck: agreement across" in out


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


def test_invert_rejects_non_cactus_vector(capsys):
    code, _, err = run(capsys, "invert", "--betti", "9,13,4", "--loops", "0")
    assert code == 2
    assert "not a cactus Betti vector" in err


def test_invert_bad_arguments(capsys):
    code, _, err = run(capsys, "invert", "--betti", "a,b", "--loops", "0")
    assert code == 1
    code, _, err = run(capsys, "invert", "--betti", "3,2", "--loops", "-1")
    assert code == 1


def test_dual_d1(capsys):
    code, out, _ = run(capsys, "dual-d1", "--input", '{"uniform": [2, 3]}')
    assert code == 0
    assert "dual minimum distance: 2" in out
    code, data, _ = run_json(capsys, "dual-d1", "--input", "g1")
    assert code == 0
    assert data["d1"] == 2


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
