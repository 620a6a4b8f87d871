"""Tests of the benchmark's own machinery.

    python -m pytest bench
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gsinv  # noqa: E402
import gsinv.cli  # noqa: E402
import gsinv.verify  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, installed, lambert_region  # noqa: E402
from workloads import CliSingleOrder, LadderTheis, digits_correct, theis_reference  # noqa: E402


def cheap_transform(tracer):
    return gsinv.TransformFn(tracer.transform(lambda z: 1 / (z + 1)), "1/(z+1)")


def test_ladder_n3_makes_12_calls_on_6_abscissas():
    tr = Tracer()
    with installed(tr), tr.operation():
        gsinv.invert_ladder(cheap_transform(tr), 1, 3)
    assert tr.calls["transform"] == 12
    assert tr.counts["transform.distinct_z"] == 6
    assert tr.calls["inverter.invert_ladder"] == 1
    assert tr.calls["inverter.stehfest_approx"] == 3
    assert tr.calls["coeffs.gaver_stehfest_coeffs"] == 3
    assert tr.counts["numerics.contexts_built"] == 1


def test_self_time_excludes_child_spans():
    tr = Tracer()
    with installed(tr), tr.operation():
        gsinv.invert_ladder(cheap_transform(tr), 1, 4)
    children = tr.busy["inverter.stehfest_approx"]
    assert tr.self_s["inverter.invert_ladder"] == pytest.approx(
        tr.busy["inverter.invert_ladder"] - children, abs=1e-9)
    inner = tr.busy["transform"] + tr.busy["coeffs.gaver_stehfest_coeffs"]
    assert tr.self_s["inverter.stehfest_approx"] == pytest.approx(children - inner, abs=1e-9)
    assert len(tr.spans) == sum(tr.calls.values())


@pytest.mark.parametrize("z, region", [
    (0.01, "taylor"),
    (-1 / math.e + 0.001, "branch"),
    (2.0, "halley"),
    (complex(2.0, -1.0), "halley"),  # conjugated internally: still one call
])
def test_lambert_region_per_call(z, region):
    assert lambert_region(z) == region
    ctx = gsinv.PrecisionContext(20)
    tr = Tracer()
    with installed(tr):
        gsinv.lambert_w0(z, ctx)
    assert {k: v for k, v in tr.calls.items() if k.startswith("lambertw.")} == {
        f"lambertw.lambert_w0.{region}": 1}


def traced_cli_counts(tmp_path):
    tr = Tracer()
    argv = ["invert", "--pair", "exponential", "--x", "0.7,2.3", "--n", "4",
            "--output", "json", "--out", str(tmp_path / "out.json")]
    with installed(tr), tr.operation():
        assert gsinv.cli.main(argv) == 0
    return dict(tr.calls), dict(tr.counts)


def test_traced_counts_repeat_exactly(tmp_path):
    calls, counts = traced_cli_counts(tmp_path)
    assert (calls, counts) == traced_cli_counts(tmp_path)
    assert calls["cli.main"] == 1
    assert calls["inverter.invert_ladder"] == 2
    assert calls["transform"] == 2 * 4 * 5
    assert counts["transform.distinct_z"] == 2 * 8


def test_installed_restores_every_name():
    def snapshot():
        return {(m.__name__, k): v for m in (gsinv, gsinv.cli, gsinv.inverter, gsinv.pairs,
                                             gsinv.numerics, gsinv.qpoly, gsinv.lambertw)
                for k, v in vars(m).items()}

    suites = dict(gsinv.verify.SUITES)
    before = snapshot()
    with installed(Tracer()):
        assert gsinv.inverter.stehfest_approx is not before[("gsinv.inverter", "stehfest_approx")]
        assert gsinv.verify.SUITES["genfun"] is not suites["genfun"]
    assert snapshot() == before
    assert gsinv.verify.SUITES == suites


def test_inputs_follow_the_seed():
    def first_passes(cls, seed):
        return list(itertools.islice(cls(gsinv, seed).passes(), 2))

    for cls in (LadderTheis, CliSingleOrder):
        assert first_passes(cls, 3) == first_passes(cls, 3)
        assert first_passes(cls, 3) != first_passes(cls, 4)
    ladder = first_passes(LadderTheis, 5)[0]
    logs = sorted(math.log10(t) * LadderTheis.STRATA for t, _ref in ladder)
    assert [int(v) for v in logs] == list(range(LadderTheis.STRATA))
    cli = first_passes(CliSingleOrder, 5)[0]
    assert sorted((p, n) for p, n, _xs in cli) == sorted(
        itertools.product(CliSingleOrder.PAIRS, CliSingleOrder.ORDERS))
    for _p, _n, xs in cli:
        assert all(0 < float(x) <= 4 and abs(float(x) - 1) >= 0.125 for x in xs)


def test_theis_reference_and_digits():
    # E1(1/4) = 1.0442826344437381945...
    assert digits_correct("0.52214131722186909725", theis_reference(1)) > 19
    assert digits_correct(1.5, theis_reference(1)) == pytest.approx(-math.log10(0.97785868),
                                                                    rel=1e-6)


def test_tail_is_p90_or_has_ten_samples_beyond():
    assert run.tail(list(range(1, 201))) == (190, 95.0, 10)
    assert run.tail(list(range(1, 41))) == (36, 90.0, 4)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_speed_scale_uses_the_chunks_in_the_interval():
    probe = speed.SpeedProbe()
    probe.mids = [float(i) for i in range(20)]
    probe.durs = [speed.NOMINAL_CHUNK_S * (2 if i < 10 else 1) for i in range(20)]
    assert probe.scale(0, 9) == pytest.approx(0.5)
    assert probe.scale(10, 19) == pytest.approx(1.0)
    # an interval holding fewer than MIN_SAMPLES chunks takes its nearest ones
    assert probe.scale(17.2, 17.4) == pytest.approx(1.0)
    assert probe.scale(-5, -4) == pytest.approx(0.5)


def test_speed_probe_runs_on_this_cpu_and_stops():
    affinity = os.sched_getaffinity(0)
    with speed.SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        t0 = time.monotonic()
        time.sleep(0.3)
        t1 = time.monotonic()
    assert os.sched_getaffinity(0) == affinity
    assert probe._proc.returncode == 0
    assert len(probe.durs) == len(probe.mids) >= speed.MIN_SAMPLES
    assert probe.scale(t0, t1) > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**{k: v[0] for k, v in run.TRACE_METRICS.items()}, **run.OTHER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.SUITES == tuple(gsinv.verify.SUITES)
