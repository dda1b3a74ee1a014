"""Tests of the benchmark's own code: self times, instrumentation and a smoke run.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, instrument, self_times, totals_by_name  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 2, "leaf", 1.5, 2.0),
        Span(4, 1, "b", 3.0, 6.0),        # overlaps "a", as items on two threads do
        Span(5, 1, "b", 8.0, 12.0),       # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[3] == pytest.approx(0.5)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(4.0)
    # children cover [1, 6] and [8, 10] of the root's [0, 10]
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)

    totals = totals_by_name(spans)
    assert totals["b"] == {"calls": 2, "s": pytest.approx(7.0), "self_s": pytest.approx(7.0)}
    assert totals["root"]["s"] == pytest.approx(10.0)


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    explicit = tracer.begin("item", parent=99)
    tracer.end(explicit)
    tracer.end(outer)
    parents = {name: parent for _, parent, name, _, _ in tracer.spans}
    assert parents == {"inner": outer[0], "item": 99, "outer": None}


def test_every_import_site_is_rebound_and_restored():
    from polymerlab import cli, environment, exponent, gibbs, quadrature, verify, walk

    originals = (walk.sample_paths, gibbs.hamiltonian, dict(cli._SUITE_RUNNERS),
                 environment.EnvironmentHandle.sample_slice_at)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert exponent.sample_paths is verify.sample_paths is walk.sample_paths
        assert walk.sample_paths is not originals[0]
        assert exponent.hamiltonian is gibbs.hamiltonian is not originals[1]
        assert verify.gauss_hermite_expect is quadrature.gauss_hermite_expect
        assert exponent.parallel_map is verify.parallel_map is gibbs.parallel_map
        assert cli.load_config.__wrapped__ is not None
        for suite, runner in cli._SUITE_RUNNERS.items():
            assert runner.__wrapped__ is originals[2][suite]
        # no public polymerlab function is left unwrapped at any import site
        for short in tracing.MODULES:
            mod = sys.modules[f"polymerlab.{short}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("polymerlab.")):
                    assert hasattr(obj, "__wrapped__"), f"{short}.{attr}"
    finally:
        restore()
    assert walk.sample_paths is originals[0] and exponent.sample_paths is originals[0]
    assert gibbs.hamiltonian is originals[1]
    assert cli._SUITE_RUNNERS == originals[2]
    assert environment.EnvironmentHandle.sample_slice_at is originals[3]


def test_percentile_matches_linear_interpolation():
    assert run.percentile([], 0.05) == 0.0
    assert run.percentile([3.0], 0.05) == 3.0
    assert run.percentile([0.0, 10.0], 0.05) == pytest.approx(0.5)
    assert run.percentile(list(range(21)), 0.05) == pytest.approx(1.0)


def test_smoke_run_on_a_reduced_config(tmp_path, capsys):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = {
        "config": {"M": 40, "R": 4, "alphas": [0.6, 0.8]},
        "commands": [["xi-scan", "--threads", "1"], ["fluct-fit", "--threads", "2"]],
        "outputs": ["xi_scan.csv", "fluct_fit.json", "fluct_fit_spreads.csv"],
    }
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run.run_benchmark(workload, seed=7, seconds=0.0, trace=trace, bench=bench,
                                   work=tmp_path / str(trace))
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2 * 2 + 2 * 6 + 1
        assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["environment.grid.synth_per_distinct"] == pytest.approx(3.0)
    assert layers["walk.steps"] == 40 * (4 + 9 + 16 + 25) * 4 * 3
    assert layers["gibbs.expect.calls"] == 4 * 4 * (2 * 2 + 1)
    assert layers["parallel.items"] == 4 and layers["parallel.efficiency"] > 0
    assert layers["quadrature.gh.points"] == 0
    assert layers["exponent.xi_ci_width"] > 0
