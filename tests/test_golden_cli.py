"""Golden command line output: a fixed list of commands replayed through
``matroidbetti.cli.main`` and compared byte for byte with
``tests/golden/cli.txt`` (exit code, standard output, standard error).

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden/cli.txt

and read its diff: it should show exactly the lines the change declares.
An output longer than ``LONG`` bytes (the fine tables of g1 and g2) is
recorded by its line count, byte count and SHA-256 digest, which keeps the
comparison exact and the file readable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import shlex
import sys

from matroidbetti.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.txt"
LONG = 20_000

TWO_TRIANGLES = '{"vertices":5,"edges":[[1,2],[2,3],[3,1],[3,4],[4,5],[5,3]]}'
LOOP = '{"vertices":3,"edges":[[1,2],[2,3],[3,1],[1,1]]}'
LOOP_BRIDGE = '{"vertices":4,"edges":[[1,2],[2,3],[3,1],[1,1],[3,4]]}'
# a 4-cycle, a triangle, two loops and two bridges, edges interleaved
CACTUS = (
    '{"vertices":8,"edges":[[1,2],[2,3],[5,5],[3,4],[4,1],[4,6],'
    "[1,5],[5,7],[7,1],[2,2],[7,8]]}"
)
TREE = '{"vertices":3,"edges":[[1,2],[2,3]]}'
UNIFORM = '{"uniform":[2,4]}'
UNIFORM_RANK0 = '{"uniform":[0,3]}'
FREE = '{"uniform":[3,3]}'
BLOCKS = '{"blocks":[[2,3],[3,4],[0,1],[1,1]]}'
BASES = '{"n":4,"bases":[[1,2],[1,3],[2,3],[1,4],[2,4]]}'


def commands() -> list[list[str]]:
    """Every command of the golden file, in order, without ``--output``."""
    runs: list[list[str]] = []
    for g in ("g1", "g2", "g3", "g4"):
        runs.append(["betti", "--input", g])
        runs.append(["betti", "--input", g, "--fine"])
        runs.append(["betti", "--input", g, "--crosscheck"])
    for g in ("g3", "g4"):
        runs.append(["betti", "--input", g, "--field", "3"])
        runs.append(["betti", "--input", g, "--field", "3", "--crosscheck"])
    for g in ("g1", "g2", "g3", "g4"):
        runs.append(["weights", "--input", g, "--crosscheck"])
        runs.append(["dual-d1", "--input", g])
    runs.append(["blocks", "--input", "g1"])
    runs.append(["cactus", "--input", "g1"])
    for source in (
        TWO_TRIANGLES, LOOP, LOOP_BRIDGE, CACTUS, TREE,
        UNIFORM, UNIFORM_RANK0, FREE, BLOCKS, BASES,
    ):
        runs.append(["betti", "--input", source])
        runs.append(["betti", "--input", source, "--crosscheck"])
        for algorithm in ("hochster", "blocks", "cactus"):
            runs.append(["betti", "--input", source, "--algorithm", algorithm])
        runs.append(["betti", "--input", source, "--fine"])
        runs.append(["weights", "--input", source, "--crosscheck"])
        runs.append(["blocks", "--input", source])
        runs.append(["cactus", "--input", source])
        runs.append(["dual-d1", "--input", source])
    # two blocks that are circuits: every route cross-checks the other two
    for algorithm in ("hochster", "blocks", "cactus"):
        runs.append(["betti", "--input", TWO_TRIANGLES, "--algorithm", algorithm, "--crosscheck"])
    for vector, loops in (
        ("9,12,4", "0"),
        ("60,133,98,24", "0"),
        ("3,2,0", "1"),
        ("3,2", "2"),
        ("2,1,0,0", "3"),
        ("9,13,4", "0"),
        ("1,1", "0"),
        ("0,0", "0"),
    ):
        runs.append(["invert", "--betti", vector, "--loops", loops])
    runs.append(["verify-paper"])
    return [argv + ["--output", out] for argv in runs for out in ("text", "json")]


def _block(name: str, text: str) -> str:
    if len(text.encode()) > LONG:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return (
            f"[{name}: {text.count(chr(10))} lines, {len(text.encode())} bytes, "
            f"sha256 {digest}]\n"
        )
    return f"[{name}]\n{text}" if text else ""


def render() -> str:
    """The golden file's contents: each command, its exit code and output."""
    parts = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append(
            f"$ matroidbetti {shlex.join(argv)}\n[exit {code}]\n"
            + _block("stdout", out.getvalue())
            + _block("stderr", err.getvalue())
        )
    return "\n".join(parts)


def test_cli_output_matches_golden_file():
    want = GOLDEN.read_text(encoding="utf-8")
    got = render()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        context = "\n".join(want_lines[max(0, first - 5) : first + 1])
        raise AssertionError(
            f"line {first + 1} of {GOLDEN.name} differs\n{context}\n"
            f"got: {got_lines[first] if first < len(got_lines) else '(end)'}"
        )


if __name__ == "__main__":
    sys.stdout.write(render())
