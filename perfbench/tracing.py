"""Per-layer tracing of the library from outside it.

``Tracer.install`` replaces public functions and methods of ``matroidbetti``
with wrappers, in every namespace the library looks them up from, and
``uninstall`` puts the originals back. No library file changes.

Two kinds of wrapper:

* a *span* at a coarse boundary (a subcommand's route, circuit enumeration,
  rendering) records name, start, end, parent span and item id;
* a *counter* on a hot call (``is_face``, ``Matroid.rank``, ``k_subsets``,
  the rank and face oracles, ``boundary_rank`` and the rank eliminations)
  keeps only its call count, total and self time and a size measure,
  because a span per call would slow the sweep by more than half.

Each wrapper adds its duration to the child time of the call it runs
under, so a counted call knows the time of the counted calls nested in it,
and each span stores the time of all its direct children. A span's self time
is its duration minus that child time (``span_self_times``). Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
from math import comb
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item, child s]
        self.span_units: dict[str, int] = {}
        self.counters: dict[str, list] = {}  # name -> [calls, total s, self s, units]
        self.item: str | None = None
        self._clock = clock
        self._child = [0.0]  # time spent in direct children of the open call
        self._open = -1  # index of the innermost open span
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable, units: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span. ``units(args, result)``,
        when given, adds a work count to ``span_units[name]``."""
        spans, child, clock = self.spans, self._child, self._clock

        def wrapper(*args, **kwargs):
            outer, parent = child[0], self._open
            rec = [name, 0.0, 0.0, parent, self.item, 0.0]
            spans.append(rec)
            self._open = len(spans) - 1
            child[0] = 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    self.span_units[name] = self.span_units.get(name, 0) + units(args, result)
                return result
            finally:
                t1 = clock()
                rec[1], rec[2], rec[5] = t0, t1, child[0]
                child[0] = outer + (t1 - t0)
                self._open = parent

        return wrapper

    def counter(self, name: str, fn: Callable, units: Callable | None = None) -> Callable:
        """Wrap ``fn``, called with positional arguments only, so each call
        adds to the cumulative counter ``name``."""
        stat = self.counters.setdefault(name, [0, 0.0, 0.0, 0])
        child, clock = self._child, self._clock

        def wrapper(*args):
            outer = child[0]
            child[0] = 0.0
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child[0]
                child[0] = outer + dt
            if units is not None:
                stat[3] += units(args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the library's public calls where the library looks them up."""
        cli = importlib.import_module("matroidbetti.cli")
        bmod = importlib.import_module("matroidbetti.betti")  # the package's
        # ``matroidbetti.betti`` attribute is the function, not this module
        cx = importlib.import_module("matroidbetti.complexes")
        mat = importlib.import_module("matroidbetti.matroid")
        wts = importlib.import_module("matroidbetti.weights")

        def sigmas(args, table) -> int:
            r, n = table.rank_r, table.n
            return sum(comb(n, r + i) for i in range(n - r + 1)) if r else 0

        spans = {
            "betti.betti": ([(cli, "betti")], None),
            "betti.hochster": ([(cli, "hochster_betti"), (bmod, "hochster_betti")], sigmas),
            "betti.resolve": ([(cli, "resolve_algorithm"), (bmod, "resolve_algorithm")], None),
            "betti.block_product": ([(bmod, "block_product_betti")], None),
            "betti.cactus": ([(cli, "cactus_betti"), (bmod, "cactus_betti")], None),
            "betti.invert": ([(cli, "invert_cactus_betti")], None),
            "betti.hilbert_check": ([(cli, "hilbert_check")], None),
            "betti.dual_d1": ([(cli, "dual_min_distance")], None),
            "complexes.face_numbers": ([(bmod, "face_numbers")], None),
            "graphs.is_cactus": ([(cli, "is_cactus")], None),
            "weights.sweep": ([(cli, "weight_hierarchy")], None),
            "weights.circuits_route": ([(cli, "weights_via_circuits")], None),
            "weights.block_route": ([(cli, "block_weights")], None),
            "weights.cactus_route": ([(cli, "cactus_weights")], None),
            "matroid.circuits": ([(mat.Matroid, "circuits")], None),
            "matroid.blocks": ([(mat.Matroid, "blocks")], None),
            "cli.render": ([(bmod.BettiTable, "to_json_dict"),
                            (bmod.BettiTable, "resolution_text")], None),
        }
        n_result = lambda args, result: len(result)
        n_columns = lambda args, result: len(args[0])
        counters = {
            "bitset.k_subsets": ([(bmod, "k_subsets"), (cx, "k_subsets"), (mat, "k_subsets"),
                                  (wts, "k_subsets")], n_result),
            "complexes.boundary_rank": ([(bmod, "boundary_rank"), (cx, "boundary_rank")], None),
            "complexes.is_face": ([(cx.SimplicialComplex, "is_face")], None),
            "linalg.gf2_rank": ([(cx, "gf2_rank")], n_columns),
            "linalg.modp_rank": ([(cx, "modp_rank")], n_columns),
            "matroid.rank": ([(mat.Matroid, "rank")], None),
        }
        for name, (targets, units) in spans.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda f, n=name, u=units: self.span(n, f, u))
        for name, (targets, units) in counters.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda f, n=name, u=units: self.counter(n, f, u))

        # Distinct oracle evaluations: wrap the oracle each instance is built
        # with (instances cache results, so every oracle call is a miss).
        def matroid_init(init):
            def wrapped(m, n, rank_fn, provenance="explicit", labels=None):
                layer = "graphs" if provenance == "cycle_matroid" else "matroid"
                init(m, n, self.counter(f"{layer}.rank_fn", rank_fn), provenance, labels)
            return wrapped

        def complex_init(init):
            def wrapped(c, n, face_oracle, labels=None):
                init(c, n, self.counter("complexes.face_oracle", face_oracle), labels)
            return wrapped

        self._patch(mat.Matroid, "__init__", matroid_init)
        self._patch(cx.SimplicialComplex, "__init__", complex_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    return [end - start - child for _, start, end, _, _, child in spans]


LAYERS = ("bitset", "matroid", "graphs", "complexes", "linalg", "betti", "weights", "cli")


def per_layer(tracer: Tracer, passes: int, wall_s: float, untraced_wall_s: float,
              output_bytes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass. ``wall_s`` and ``untraced_wall_s``
    are the summed wall times of ``passes`` traced and as many untraced
    passes over the same items; ``output_bytes`` is summed likewise."""
    selfs = span_self_times(tracer.spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root_s = 0.0
    for rec, self_s in zip(tracer.spans, selfs):
        name, start, end, parent = rec[:4]
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += self_s
        if parent < 0:
            root_s += end - start
    for name, (_, _, self_s, _) in tracer.counters.items():
        layer_self[name.split(".")[0]] += self_s

    def c(name: str, field: int = 0):
        return tracer.counters.get(name, [0, 0.0, 0.0, 0])[field]

    rank_calls = c("matroid.rank")
    rank_evals = c("matroid.rank_fn") + c("graphs.rank_fn")
    boundary = c("complexes.boundary_rank")
    eliminations = c("linalg.gf2_rank") + c("linalg.modp_rank")
    harness_s = wall_s - root_s
    m = {
        "bitset.subsets_enumerated": c("bitset.k_subsets", 3),
        "bitset.k_subsets_s": c("bitset.k_subsets", 1),
        "matroid.rank_calls": rank_calls,
        "matroid.rank_evals": rank_evals,
        "matroid.rank_hit_ratio": 1 - rank_evals / rank_calls if rank_calls else 0.0,
        "matroid.rank_self_s": c("matroid.rank", 2) + c("matroid.rank_fn", 2),
        "matroid.circuits_s": total.get("matroid.circuits", 0.0),
        "matroid.blocks_calls": calls.get("matroid.blocks", 0),
        "matroid.blocks_s": total.get("matroid.blocks", 0.0),
        "graphs.rank_fn_calls": c("graphs.rank_fn"),
        "graphs.rank_fn_s": c("graphs.rank_fn", 1),
        "graphs.is_cactus_s": total.get("graphs.is_cactus", 0.0),
        "complexes.is_face_calls": c("complexes.is_face"),
        "complexes.face_evals": c("complexes.face_oracle"),
        "complexes.is_face_s": c("complexes.is_face", 1),
        "complexes.boundary_calls": boundary,
        "complexes.boundary_self_s": c("complexes.boundary_rank", 2),
        "complexes.boundary_shortcut_ratio": (boundary - eliminations) / boundary if boundary else 0.0,
        "complexes.matrix_cols": c("linalg.gf2_rank", 3) + c("linalg.modp_rank", 3),
        "complexes.face_numbers_s": total.get("complexes.face_numbers", 0.0),
        "linalg.gf2_calls": c("linalg.gf2_rank"),
        "linalg.gf2_s": c("linalg.gf2_rank", 1),
        "linalg.gf2_cols": c("linalg.gf2_rank", 3),
        "linalg.modp_calls": c("linalg.modp_rank"),
        "linalg.modp_s": c("linalg.modp_rank", 1),
        "linalg.modp_cols": c("linalg.modp_rank", 3),
        "betti.sweep_self_s": own.get("betti.hochster", 0.0),
        "betti.sigmas_visited": tracer.span_units.get("betti.hochster", 0),
        "betti.hochster_calls": calls.get("betti.hochster", 0),
        "betti.resolve_s": total.get("betti.resolve", 0.0),
        "betti.block_product_s": total.get("betti.block_product", 0.0),
        "betti.cactus_s": total.get("betti.cactus", 0.0),
        "betti.invert_s": total.get("betti.invert", 0.0),
        "betti.hilbert_check_s": total.get("betti.hilbert_check", 0.0),
        "betti.dual_d1_s": total.get("betti.dual_d1", 0.0),
        "weights.sweep_s": total.get("weights.sweep", 0.0),
        "weights.circuits_route_s": total.get("weights.circuits_route", 0.0),
        "weights.block_route_s": total.get("weights.block_route", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.render_s": total.get("cli.render", 0.0),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        m[f"layer_self.{layer}_s"] = layer_self[layer]
    m["trace.harness_s"] = harness_s
    out = {k: v if k.endswith("_ratio") else v / passes for k, v in m.items()}
    out["trace.wall_s"] = wall_s / passes
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return out
