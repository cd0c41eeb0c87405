"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's test collection.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _shape(w):
    return [(item.id, item.argv) for item in w.items]


def test_generator_is_deterministic_per_seed():
    for name in workloads.BUILDERS:
        assert _shape(workloads.generate(name, 5)) == _shape(workloads.generate(name, 5))
        assert _shape(workloads.generate(name, 5)) != _shape(workloads.generate(name, 6))
        ids = [item.id for item in workloads.generate(name, 5).items]
        assert len(ids) == len(set(ids))


def test_stored_reference_matches_the_reference_routes():
    stored = json.loads(workloads.REFERENCE_FILE.read_text())
    for name in workloads.BUILDERS:
        w = workloads.generate(name, workloads.DEFAULT_SEED)
        assert {item.id: item.want() for item in w.items} == stored[name]


def test_reference_reproduces_the_paper_tables():
    for name, glob in (("g1", [393, 1459, 2187, 1652, 628, 96]), ("g3", [41, 92, 70, 18])):
        vertices, edges = workloads.FIXTURES[name]
        assert ref.euler_betti(len(edges), ref.graph_rank(vertices, edges))["global"] == glob
    assert ref.cactus_table([3, 3], 0)["global"] == [9, 12, 4]
    assert ref.uniform_table(2, 3) == ref.euler_betti(3, ref.uniform_rank(2))
    assert ref.euler_betti(3, ref.uniform_rank(2), fine=True)["fine"] == {
        "0": {"0,1": 1, "0,2": 1, "1,2": 1}, "1": {"0,1,2": 2}}


def _payload(want, **extra):
    return json.dumps({"command": want["kind"], "table": want["table"], **extra})


def test_checker_accepts_the_answer_and_rejects_a_perturbed_table():
    vertices, edges = workloads.FIXTURES["g3"]
    want = {"exit": 0, "kind": "betti",
            "table": ref.euler_betti(len(edges), ref.graph_rank(vertices, edges), fine=True)}
    assert ref.check(want, 0, _payload(want, schema="1", stats={"new": 1})) is None
    padded = json.loads(json.dumps(want))
    padded["table"]["global"] += [0, 0]
    assert ref.check(want, 0, _payload(padded)) is None

    wrong = json.loads(json.dumps(want))
    wrong["table"]["coarse"]["1"]["7"] += 1
    assert ref.check(want, 0, _payload(wrong)) is not None
    wrong = json.loads(json.dumps(want))
    key = next(iter(wrong["table"]["fine"]["0"]))
    wrong["table"]["fine"]["0"][key] += 1
    assert ref.check(want, 0, _payload(wrong)) is not None
    assert ref.check(want, 2, "") is not None
    assert ref.check({"exit": 2, "kind": "invert"}, 2, "") is None
    assert ref.check({"exit": 2, "kind": "invert"}, 0, "{}") is not None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_arithmetic_on_a_synthetic_nested_call():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def leaf():
        clock.spend(1.0)

    counted_leaf = t.counter("x.leaf", leaf)

    def middle():
        clock.spend(2.0)
        counted_leaf()
        counted_leaf()

    counted_middle = t.counter("x.middle", middle)

    def inner():
        clock.spend(4.0)
        counted_leaf()

    inner_span = t.span("x.inner", inner)

    def outer():
        clock.spend(8.0)
        counted_middle()
        inner_span()
        clock.spend(16.0)

    t.item = "item-1"
    t.span("x.outer", outer)()
    outer_rec, inner_rec = t.spans[0], t.spans[1]
    assert outer_rec[0] == "x.outer" and outer_rec[3] == -1 and outer_rec[4] == "item-1"
    assert inner_rec[0] == "x.inner" and inner_rec[3] == 0
    assert outer_rec[2] - outer_rec[1] == 8 + 4 + 5 + 16
    assert tracing.span_self_times(t.spans) == [24.0, 4.0]
    assert t.counters["x.middle"][:3] == [1, 4.0, 2.0]
    assert t.counters["x.leaf"][:3] == [3, 3.0, 3.0]


def test_tracer_restores_the_library():
    import matroidbetti.cli as cli
    from matroidbetti.matroid import Matroid

    before = (cli.betti, Matroid.rank, Matroid.__init__)
    t = tracing.Tracer()
    t.install()
    assert cli.betti is not before[0] and Matroid.rank is not before[1]
    t.uninstall()
    assert (cli.betti, Matroid.rank, Matroid.__init__) == before


def test_tail_percentile_leaves_ten_samples_above():
    for items in (10, 24, 28, 60, 400):
        pct = run.tail_percentile(items)
        assert run.MIN_PASSES * items * (100 - pct) >= 1000
    assert run.nearest_rank([1, 2, 3, 4], 50) == 2
    assert run.nearest_rank([1, 2, 3, 4], 75) == 3


def test_scaling_to_the_reference_calibration():
    ref_s = run.CALIBRATION_REF_S
    assert run.scale(0.5, ref_s, ref_s) == 0.5
    # On a host twice as slow both the item and the calibrations double.
    assert abs(run.scale(1.0, 2 * ref_s, 2 * ref_s) - 0.5) < 1e-12
    assert abs(run.scale(1.0, ref_s, 3 * ref_s) - 0.5) < 1e-12
    assert run.calibrate() > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = tracing.per_layer(tracing.Tracer(), 1, 1.0, 1.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
