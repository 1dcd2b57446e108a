"""Tests for the benchmark's own code, with every workload at its minimal size.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _wrapped_attributes():
    """Every attribute of a symcirc layer module or class that is a wrapper."""
    found = []
    for layer in bench_trace.LAYERS:
        module = sys.modules[f"symcirc.{layer}"]
        owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
        for owner in owners:
            for name, value in vars(owner).items():
                inner = value.__func__ if isinstance(value, staticmethod) else value
                if hasattr(inner, bench_trace.WRAPPED):
                    found.append(f"{owner.__name__}.{name}")
    return found


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _tiny(name, trace):
    return run.run_workload(name, seed=5, seconds=0, trace=trace, tiny=True, setup_repeats=1)


def test_workload_names_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_metrics_and_digest(name):
    result, digest, _ = _tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {key: m["unit"] for key, m in metrics.items()} == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert _tiny(name, trace=False)[1] == digest

    traced, traced_digest, notes = _tiny(name, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    layer = traced["metrics"]
    assert {key: m["unit"] for key, m in layer.items()} == _units(BENCHMARK["per_layer"])
    assert layer["bench.fail_ratio"]["value"] == 0
    assert traced_digest == notes["digest_untraced"] == digest
    assert _wrapped_attributes() == []


def test_census_part_never_reaches_oracle_or_evaluate():
    census = bench_workloads.WidthCensus(5, "", tiny=True)
    with bench_trace.Tracer() as tracer:
        phase = run.measure(census, 0, max_rounds=1, tracer=tracer)
    assert phase.failed == 0
    assert tracer.calls["oracle"] == 0 and tracer.calls["circuit.evaluate"] == 0
    assert tracer.calls["width"] > 0 and tracer.calls["pattern"] == 1


def test_wrappers_cover_imported_names_and_are_removed():
    from symcirc import compilers, reduce, symmetry
    from symcirc.circuit import Circuit
    from symcirc.pattern import make_path

    originals = (symmetry.rigidify, compilers.rigidify, reduce.hom_count,
                 Circuit.__dict__["evaluate"], Circuit.__dict__["from_json"])
    assert compilers.rigidify is symmetry.rigidify
    with bench_trace.Tracer() as tracer:
        assert symmetry.rigidify is not originals[0]
        assert compilers.rigidify is symmetry.rigidify
        assert reduce.hom_count is not originals[2]
        assert _wrapped_attributes()
        compilers.compile_single(make_path(3), 2, 2, "td")
    assert tracer.calls["compilers"] == 1
    assert tracer.calls["width"] >= 1 and tracer.calls["symmetry"] >= 1
    # compile_single -> compile_formula_td stays inside compilers: one span only.
    assert sum(1 for n in tracer.span_name if tracer.names[n].startswith("compilers.")) == 1
    assert (symmetry.rigidify, compilers.rigidify, reduce.hom_count,
            Circuit.__dict__["evaluate"], Circuit.__dict__["from_json"]) == originals
    assert _wrapped_attributes() == []


def test_self_time_excludes_children():
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("oracle", "leaf", lambda: sum(range(1000)))

    def outer():
        inner()
        inner()

    tracer.wrap("reduce", "outer", outer)()
    assert tracer.calls["reduce"] == 1 and tracer.calls["oracle"] == 2
    assert sorted(tracer.span_parent) == [-1, 0, 0]
    total = max(tracer.span_end) - min(tracer.span_start)
    assert tracer.self_s["reduce"] + tracer.self_s["oracle"] == pytest.approx(total, abs=1e-9)
    assert tracer.top_level_s == pytest.approx(total, abs=1e-9)


def test_tail_has_ten_samples_beyond():
    times = [float(k) for k in range(1, 201)]
    value, pct, count = run.tail(times)
    assert (pct, count) == (95, 200)
    assert sum(1 for t in times if t > value) >= run.MIN_TAIL_BEYOND


def test_item_times_are_medians_at_reference_speed():
    phase = run.Phase()
    phase.first_round = [(True, b"a"), (True, b"b")]
    phase.rounds = 3
    ref = run.REF_STEP_S
    # Three rounds of two items, far apart; round 2 ran at half the
    # reference speed, so its times count half.
    for r, (times, slowdown) in enumerate([((2, 5), 1), ((2, 14), 2), ((3, 4), 1)]):
        phase.round_starts.append((100 * r, 100 * r + 0.5))
        for k, t in enumerate(times):
            start = 100 * r + 10 * (k + 1)
            phase.spans.append((start, start + t))
            phase.ref_at.append(start + t + 0.001)
            phase.ref_times.append(slowdown * ref)
    assert phase.slowdown(110, 112) == pytest.approx(2.0)
    assert phase.item_times() == pytest.approx([2.0, 5.0])
    # No reference step near a round start: the whole phase's speed counts.
    assert phase.items_per_s() == pytest.approx(2 / (0.5 / (8 / 6) + 7.0))


def test_missing_sources_fail_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "analyze_census", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
