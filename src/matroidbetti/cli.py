"""Command line front end.

Subcommands: betti, weights, blocks, cactus, invert, dual-d1, verify-paper.
Reports go to standard output as plain text (default) or versioned JSON
(``--output json``); both are deterministic, byte for byte, for identical
inputs and flags.

Exit codes: 0 success, 1 malformed input (deeply nested JSON too) or out
of memory (no traceback), 2 contract violation (bases failing the exchange
axiom, cactus mode on a non-cactus input, an invalid cactus Betti vector),
3 cross-check or verification mismatch. Usage errors caught by argparse (a
missing ``--input``, a non-integer ``--field``, an unknown option) exit 2
after a usage line on stderr, that of the subcommand when one was named; a
missing or unknown subcommand gets the usage line of ``matroidbetti``
itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import attrgetter
from typing import Callable, Sequence

from .betti import (
    _ALGORITHMS,
    BettiTable,
    CycleProfile,
    _cactus_table,
    _routes,
    betti,
    cactus_betti,
    dual_min_distance,
    hilbert_check,
    hochster_betti,
    invert_cactus_betti,
    resolve_algorithm,
)
from .bitset import bits
from .complexes import PrimeField
from .errors import ValidationError
from .graphs import Graph, cycle_matroid, fixture, is_cactus
from .matroid import Matroid, _from_bases, multi_uniform, uniform
from .weights import (
    WeightHierarchy,
    block_weights,
    cactus_weights,
    weight_hierarchy,
    weights_via_circuits,
    weights_via_size_rank,
)


class CrosscheckError(Exception):
    """Two routes that must agree did not; mapped to exit code 3."""


_FIXTURE_NAMES = ("g1", "g2", "g3", "g4")
_power_of_ten = functools.cache((10).__pow__)  # 10^k has thousands of digits: build it once per k


# -- input handling -----------------------------------------------------------


def _rank_size(item: object, message: str) -> tuple[int, int]:
    """``item`` as a [rank, size] pair of ints; ValueError(message) if not."""
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
    ):
        raise ValueError(message)
    return item[0], item[1]


def _from_dict(data: object, label: str) -> tuple[Matroid, Graph | None]:
    if not isinstance(data, dict):
        raise ValueError(f"{label}: expected a JSON object, got {type(data).__name__}")
    if "edges" in data or "vertices" in data:
        g = Graph.from_json_dict(data, label)
        return cycle_matroid(g), g
    if "uniform" in data:
        r, n = _rank_size(data["uniform"], f"{label}: 'uniform' must be a [rank, size] pair")
        return uniform(r, n), None
    if "blocks" in data:
        profile = data["blocks"]
        if not isinstance(profile, list) or not profile:
            raise ValueError(f"{label}: 'blocks' must be a non-empty list of [rank, size] pairs")
        pairs = [
            _rank_size(item, f"{label}: block {item!r} is not a [rank, size] pair")
            for item in profile
        ]
        return multi_uniform(pairs), None
    if "bases" in data:
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"{label}: a 'bases' input needs an integer 'n'")
        raw = data["bases"]
        if not isinstance(raw, list):
            raise ValueError(f"{label}: 'bases' must be a list of element lists")
        for basis in raw:
            if not isinstance(basis, list):
                raise ValueError(f"{label}: basis {basis!r} is not a list")
            for e in basis:
                if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
                    raise ValueError(
                        f"{label}: element {e!r} out of range 1..{n} (the format is 1-indexed)"
                    )
        return _from_bases(n, raw, 1), None
    raise ValueError(
        f"{label}: unrecognized input object; expected one of the keys "
        "'edges'/'vertices' (graph), 'uniform', 'blocks', or 'bases'"
    )


def _from_text(text: str, label: str) -> tuple[Matroid, Graph | None]:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{label}: invalid JSON: {exc}") from None
        return _from_dict(data, label)
    g = Graph.from_edge_text(text)
    return cycle_matroid(g), g


def _parse_input(value: str) -> tuple[Matroid, Graph | None, str]:
    """Accepts a fixture name, inline JSON, '-' for stdin, or a file path."""
    if value == "-":
        m, g = _from_text(sys.stdin.read(), "stdin")
        return m, g, "stdin"
    if value.lower() in _FIXTURE_NAMES:
        g = fixture(value)
        return cycle_matroid(g), g, f"fixture {value.lower()}"
    if value.lstrip().startswith("{"):
        m, g = _from_text(value, "inline input")
        return m, g, "inline input"
    with open(value, "r", encoding="utf-8") as fh:
        text = fh.read()
    m, g = _from_text(text, value)
    return m, g, value


# -- output plumbing ----------------------------------------------------------


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.output == "json":
        payload["schema"] = "1"
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(lines))


def _fmt_vec(values) -> str:
    vals = list(values)
    return " ".join(str(v) for v in vals) if vals else "(empty)"


# -- cross-checks -------------------------------------------------------------


def _betti_routes(
    m: Matroid, fld: PrimeField, primary: BettiTable, resolved: str
) -> dict[str, BettiTable]:
    routes = {resolved: primary}
    for name in _routes(m):
        if name not in routes:
            routes[name] = betti(m, name, fld)
    return routes


def _weights_routes(m: Matroid, primary: WeightHierarchy) -> dict[str, WeightHierarchy]:
    """The sweep, the block route on two or more blocks, and the first
    independent route that applies: cactus, size-rank, else circuits."""
    routes = {"sweep": primary}
    part = m.blocks()
    if len(part.blocks) > 1:
        routes["blocks"] = block_weights(weight_hierarchy(b.matroid) for b in part.blocks)
    if part.is_cactus:
        routes["cactus"] = cactus_weights(part.cycle_lengths())
    elif (by_table := weights_via_size_rank(m)) is not None:
        routes["size-rank"] = by_table
    else:
        routes["circuits"] = weights_via_circuits(m)
    return routes


def _check_agreement(
    routes: dict, ref: str, agree: Callable, show: Callable, what: str
) -> list[str]:
    """The sorted route names when every route agrees with ``routes[ref]``;
    CrosscheckError naming the first (in that order) that does not."""
    names = sorted(routes)
    for name in names:
        if not agree(routes[name], routes[ref]):
            raise CrosscheckError(
                f"{what} disagree: {name} gives {show(routes[name])} "
                f"but {ref} gives {show(routes[ref])}"
            )
    return names


# -- subcommands --------------------------------------------------------------


def _cmd_betti(args: argparse.Namespace) -> int:
    m, _, label = _parse_input(args.input)
    fld = PrimeField(args.field)
    resolved = resolve_algorithm(m, args.algorithm, fine=args.fine)
    table = betti(m, resolved, fld, fine=args.fine)
    payload: dict = {
        "command": "betti",
        "source": label,
        "algorithm": resolved,
        "field": fld.p,
        "table": table.to_json_dict(),
    }
    lo, hi = table.degrees()
    lines = [
        f"source: {label}",
        f"elements: {table.n}",
        f"rank: {table.rank_r}",
        f"algorithm: {resolved}",
        f"field: GF({fld.p})",
        f"global: {_fmt_vec(table.global_)}",
        f"degrees: {lo}..{hi}",
        f"resolution: {table.resolution_text()}",
    ]
    if table.fine is not None and args.output == "text":
        for i, row in payload["table"]["fine"].items():
            lines += (f"beta[{i}, {{{sigma}}}] = {v}" for sigma, v in row.items())
    if args.crosscheck:
        routes = _betti_routes(m, fld, table, resolved)
        names = _check_agreement(
            routes, "hochster", BettiTable.agrees_with, attrgetter("global_"), "betti tables"
        )
        if not hilbert_check(table, m):
            raise CrosscheckError("the Betti table fails the Hilbert series consistency check")
        payload["crosscheck"] = {"algorithms": names, "agree": True, "hilbert": True}
        lines.append(
            f"crosscheck: agreement across {', '.join(names)}; hilbert check passed"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    m, _, label = _parse_input(args.input)
    hierarchy = weight_hierarchy(m)
    payload: dict = {
        "command": "weights",
        "source": label,
        "n": m.n,
        "rank": m.full_rank,
        "d": list(hierarchy.weights),
    }
    lines = [
        f"source: {label}",
        f"elements: {m.n}",
        f"rank: {m.full_rank}",
        f"weights: {_fmt_vec(hierarchy.weights)}",
    ]
    if args.crosscheck:
        routes = _weights_routes(m, hierarchy)
        names = _check_agreement(
            routes,
            "sweep",
            lambda a, b: a.weights == b.weights,
            attrgetter("weights"),
            "weight hierarchies",
        )
        payload["crosscheck"] = {"routes": names, "agree": True}
        lines.append(f"crosscheck: agreement across {', '.join(names)}")
    _emit(args, payload, lines)
    return 0


def _cmd_blocks(args: argparse.Namespace) -> int:
    m, _, label = _parse_input(args.input)
    rows = [
        {
            "elements": list(bits(block.members)),
            "size": block.matroid.n,
            "rank": block.matroid.full_rank,
            "kind": block.kind,
        }
        for block in m.blocks().blocks
    ]
    payload = {"command": "blocks", "source": label, "count": len(rows), "blocks": rows}
    lines = [f"source: {label}", f"elements: {m.n}", f"blocks: {len(rows)}"]
    for idx, row in enumerate(rows):
        elems = ",".join(str(e) for e in row["elements"])
        lines.append(
            f"block {idx}: elements {elems} (size {row['size']}, "
            f"rank {row['rank']}, {row['kind']})"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_cactus(args: argparse.Namespace) -> int:
    _, g, label = _parse_input(args.input)
    if g is None:
        raise ValueError("the cactus command needs a graph input")
    part = is_cactus(g)
    cactus = part.is_cactus
    cycles = part.masks("circuit", "loop")
    bridges = part.masks("coloop")
    loops = len(part.masks("loop"))
    payload: dict = {
        "command": "cactus",
        "source": label,
        "is_cactus": cactus,
        "cycles": [list(bits(c)) for c in cycles],
        "bridges": [b.bit_length() - 1 for b in bridges],
        "loops": loops,
    }
    lines = [
        f"source: {label}",
        f"is_cactus: {'yes' if cactus else 'no'}",
    ]
    if not cactus:
        payload["offending"] = [list(bits(o)) for o in part.masks("general")]
        for o in payload["offending"]:
            lines.append(f"offending block: edges {','.join(map(str, o))}")
        _emit(args, payload, lines)
        return 0
    lengths = part.cycle_lengths()
    lines.append(f"profile: {_fmt_vec(lengths)}")
    lines.append(f"bridges: {len(bridges)}")
    lines.append(f"loops: {loops}")
    payload["profile"] = list(lengths)
    table = _cactus_table(part)
    hierarchy = cactus_weights(lengths)
    payload["table"] = table.to_json_dict()
    payload["d"] = list(hierarchy.weights)
    lines.append(f"global: {_fmt_vec(table.global_)}")
    lines.append(f"weights: {_fmt_vec(hierarchy.weights)}")
    lines.append(f"resolution: {table.resolution_text()}")
    _emit(args, payload, lines)
    return 0


def _parse_int_list(text: str) -> list[int]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty integer list")
    values = []
    for i, p in enumerate(parts, 1):
        try:
            values.append(int(p))
        except ValueError:
            limit = getattr(sys, "get_int_max_str_digits", int)()  # int() refuses longer text
            why = "is not an integer"
            if p.lstrip("+-").isdecimal() and 0 < limit < len(p.lstrip("+-")):
                why = f"has more than {limit} digits, the most this Python reads"
            raise ValueError(f"--betti entry {i}, {p[:20]!r}{'...' * (len(p) > 20)}, {why}") from None
    return values


def _cmd_invert(args: argparse.Namespace) -> int:
    values, loops = _parse_int_list(args.betti), args.loops
    limit = getattr(sys, "get_int_max_str_digits", int)()  # str() refuses longer ints
    too_long = ValueError(
        f"with {loops} loops, sigma has entries of more than {limit} digits, "
        "the most this Python converts to text"
    )
    # sigma dominates (1 + X)^L, so max sigma >= C(L, L // 2) > 2^(L - bitlen(L + 1)):
    # a loop count this large is refused before the inversion.
    if limit and loops - (loops + 1).bit_length() >= _power_of_ten(limit).bit_length():
        raise too_long
    profile = invert_cactus_betti(values, loops)
    roundtrip = cactus_betti(profile)
    sigma = profile.sigma
    if limit and max(sigma) >= _power_of_ten(limit):
        raise too_long
    payload = {
        "command": "invert",
        "betti": values,
        "loops": loops,
        "lengths": list(profile.lengths),
        "sigma": list(sigma),
        "roundtrip": list(roundtrip.global_),
    }
    lines = [
        f"input betti: {_fmt_vec(values)}",
        f"loops: {loops}",
        f"cycle lengths: {_fmt_vec(profile.lengths)}",
        f"sigma: {_fmt_vec(sigma)}",
        f"roundtrip betti: {_fmt_vec(roundtrip.global_)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_dual_d1(args: argparse.Namespace) -> int:
    m, _, label = _parse_input(args.input)
    d1 = dual_min_distance(m)
    payload = {"command": "dual-d1", "source": label, "d1": d1}
    lines = [f"source: {label}", f"dual minimum distance: {d1}"]
    _emit(args, payload, lines)
    return 0


# -- the reproduction battery -------------------------------------------------


def _two_triangles() -> Graph:
    return Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)))


def _verify_checks() -> list[tuple[str, object, object]]:
    """Every numeric claim the battery reproduces: (name, expected, got)."""
    checks: list[tuple[str, object, object]] = []
    tables: dict[str, BettiTable] = {}
    matroids: dict[str, Matroid] = {}

    for name, glob, degs, ws in (
        ("g1", (393, 1459, 2187, 1652, 628, 96), (9, 14), (3, 6, 8, 11, 14)),
        ("g2", (393, 1459, 2187, 1652, 628, 96), (9, 14), (3, 6, 9, 11, 14)),
        ("g3", (41, 92, 70, 18), (6, 9), (3, 6, 9)),
        ("g4", (39, 86, 64, 16), (6, 9), (3, 6, 9)),
    ):
        m = cycle_matroid(fixture(name))
        matroids[name] = m
        t = hochster_betti(m)
        tables[name] = t
        checks.append((f"{name} global Betti numbers", glob, t.global_))
        checks.append((f"{name} degree span", degs, t.degrees()))
        checks.append((f"{name} weight hierarchy", ws, weight_hierarchy(m).weights))

    checks.append(("g1 dual minimum distance", 2, dual_min_distance(matroids["g1"])))
    checks.append(("g2 dual minimum distance", 2, dual_min_distance(matroids["g2"])))
    checks.append(
        ("g1 is not a cactus", False, is_cactus(fixture("g1")).is_cactus)
    )

    two = _two_triangles()
    mtwo = cycle_matroid(two)
    ttwo = hochster_betti(mtwo)
    tables["two triangles"] = ttwo
    matroids["two triangles"] = mtwo
    ptwo = is_cactus(two)
    checks.append(("two-triangle cactus recognized", True, ptwo.is_cactus))
    checks.append(("two-triangle profile", (3, 3), ptwo.cycle_lengths()))
    checks.append(("two-triangle global Betti numbers", (9, 12, 4), ttwo.global_))
    checks.append(
        (
            "two-triangle closed form",
            (9, 12, 4),
            cactus_betti(CycleProfile((3, 3))).global_,
        )
    )
    checks.append(
        ("two-triangle block product", True, betti(mtwo, "blocks").agrees_with(ttwo))
    )
    checks.append(
        ("two-triangle weight hierarchy", (3, 6), weight_hierarchy(mtwo).weights)
    )
    checks.append(("two-triangle basis count", 9, len(mtwo.bases())))

    profile345 = CycleProfile((3, 4, 5))
    checks.append(
        ("profile 3,4,5 closed form", (60, 133, 98, 24), cactus_betti(profile345).global_)
    )
    checks.append(
        ("profile 3,4,5 symmetric polynomials", (1, 12, 47, 60), profile345.sigma)
    )
    checks.append(
        ("profile 3,4,5 weights", (3, 7, 12), cactus_weights((3, 4, 5)).weights)
    )

    for mlen in (3, 4, 5, 6):
        cm = cycle_matroid(Graph(mlen, tuple((i, (i + 1) % mlen) for i in range(mlen))))
        checks.append(
            (f"single {mlen}-cycle resolution", (mlen, mlen - 1), hochster_betti(cm).global_)
        )

    for name, vector, loops, lengths in (
        ("inversion of (9, 12, 4)", (9, 12, 4), 0, (3, 3)),
        ("inversion of (60, 133, 98, 24)", (60, 133, 98, 24), 0, (3, 4, 5)),
        ("inversion with one loop of (3, 2, 0)", (3, 2, 0), 1, (1, 3)),
    ):
        checks.append((name, lengths, invert_cactus_betti(vector, loops).lengths))

    for name, table in sorted(tables.items()):
        checks.append(
            (f"{name} Hilbert series consistency", True, hilbert_check(table, matroids[name]))
        )
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks()
    rows = []
    lines = []
    for name, expected, got in checks:
        ok = expected == got
        rows.append(
            {"name": name, "pass": ok, "expected": str(expected), "got": str(got)}
        )
        status = "ok  " if ok else "FAIL"
        detail = "" if ok else f"  (expected {expected}, got {got})"
        lines.append(f"{status}  {name}{detail}")
    failed = sum(not row["pass"] for row in rows)
    lines.append(
        f"passed {len(checks) - failed} of {len(checks)} checks"
        + ("" if not failed else f"; {failed} FAILED")
    )
    payload = {
        "command": "verify-paper",
        "results": rows,
        "failed": failed,
        "total": len(checks),
    }
    _emit(args, payload, lines)
    return 3 if failed else 0


# -- argument parsing ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument(
            "--input",
            required=True,
            help="fixture name (g1..g4), file path, inline JSON, or '-' for stdin",
        )
    sub.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as it was)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="matroidbetti",
        description=(
            "Exact Betti tables, weight hierarchies, block decompositions and "
            "cactus inversion for matroid basis-monomial ideals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="graded Betti numbers")
    _add_common(p_betti)
    p_betti.add_argument(
        "--algorithm",
        choices=_ALGORITHMS,
        default="auto",
    )
    p_betti.add_argument("--field", type=int, default=2, help="prime field order")
    p_betti.add_argument("--fine", action="store_true", help="include the fine table")
    p_betti.add_argument(
        "--crosscheck",
        action="store_true",
        help="run all applicable algorithms and the Hilbert check; exit 3 on mismatch",
    )
    p_betti.set_defaults(func=_cmd_betti)

    p_weights = sub.add_parser("weights", help="higher weight hierarchy")
    _add_common(p_weights)
    p_weights.add_argument(
        "--crosscheck",
        action="store_true",
        help=(
            "compare the cyclic-flat route (reported as 'sweep') with the block "
            "route on two or more blocks and with the first of cactus (every "
            "block a circuit, loop or coloop), size-rank (every block a graph "
            "or uniform sum, within the frontier budget) and circuits that "
            "applies; exit 3 on mismatch"
        ),
    )
    p_weights.set_defaults(func=_cmd_weights)

    p_blocks = sub.add_parser("blocks", help="connectivity block decomposition")
    _add_common(p_blocks)
    p_blocks.set_defaults(func=_cmd_blocks)

    p_cactus = sub.add_parser("cactus", help="cactus recognition and closed forms")
    _add_common(p_cactus)
    p_cactus.set_defaults(func=_cmd_cactus)

    p_invert = sub.add_parser("invert", help="recover cycle lengths from Betti numbers")
    p_invert.add_argument(
        "--betti", required=True, help="comma-separated global Betti numbers"
    )
    p_invert.add_argument(
        "--loops", required=True, type=int, help="number of loops (length-1 cycles)"
    )
    _add_common(p_invert, with_input=False)
    p_invert.set_defaults(func=_cmd_invert)

    p_d1 = sub.add_parser("dual-d1", help="minimum distance of the dual")
    _add_common(p_d1)
    p_d1.set_defaults(func=_cmd_dual_d1)

    p_verify = sub.add_parser(
        "verify-paper", help="run the built-in reproduction suite on the bundled fixtures"
    )
    _add_common(p_verify, with_input=False)
    p_verify.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    # A known subcommand parses the rest itself; the parent parser only
    # gives help and the usage errors of a missing or unknown subcommand.
    command = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except CrosscheckError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; this input needs more than the process may allocate", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
