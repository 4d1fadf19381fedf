"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import warnings

import pytest

import metrics
import tracing
import workloads
from countdiag import harness

BENCH_DIR = workloads.ROOT / "bench"


@pytest.fixture
def workdir():
    path = BENCH_DIR / ".work" / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_grid(workers):
    doc = {"family": "binomial", "n": [10], "tau": [0.8], "r": [0.3], "T": [100],
           "replications": workloads.CHUNK}
    return workloads.MonteCarloGrid("small", doc, workers=workers, chunk=workloads.POOL_CHUNK)


def test_mc_digest_is_the_same_for_one_and_two_workers(workdir):
    grid = _small_grid(workers=2)
    grid.setup(7, workdir)
    digests = []
    for traced in (True, False):  # the traced setting runs one worker
        (op,) = grid.ops(traced=traced)
        assert op.check(op.run()) == 0
        digests.append(hashlib.sha256(grid.out_path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_another_seed_gives_other_inputs(workdir):
    grid = _small_grid(workers=1)
    grid.setup(1, workdir)
    first = grid.config_path.read_text()
    grid.setup(2, workdir)
    assert grid.config_path.read_text() != first

    diag = workloads.DiagnoseLong()
    diag.setup(1, workdir)
    first = [case.path.read_bytes() for case in diag.cases[::2]]
    diag.setup(2, workdir)
    assert all(case.path.read_bytes() != old for case, old in zip(diag.cases[::2], first))
    diag.setup(1, workdir)
    assert [case.path.read_bytes() for case in diag.cases[::2]] == first


def test_metric_names_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "diagnose-long",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def _bindings():
    import countdiag

    out = {}
    for name, module in sys.modules.items():
        if name == "countdiag" or name.startswith("countdiag."):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    out[("CountSeries", "__init__")] = countdiag.CountSeries.__dict__["__init__"]
    return out


def test_traced_pass_restores_every_wrapped_name(workdir):
    before = _bindings()
    diag = workloads.DiagnoseLong()
    diag.setup(1, workdir)
    with tracing.Tracer() as tracer:
        tracer.install(expected=metrics.EXPECTED_SPANS)
        assert harness._poisson_paths is not before[("countdiag.harness", "_poisson_paths")]
        for op in diag.ops(traced=True)[:1]:
            with tracer.span(f"op.{op.label}"):
                assert op.check(op.run()) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.absent == []
    summary = tracer.summary()
    assert summary["harness.load_series_csv"]["calls"] == 1
    assert summary["op.diagnose"]["calls"] == 1


def test_absent_name_is_reported_with_a_warning(monkeypatch):
    monkeypatch.delattr(harness, "_poisson_paths")
    with pytest.warns(RuntimeWarning, match="_poisson_paths"):
        with tracing.Tracer() as tracer:
            tracer.install(expected=metrics.EXPECTED_SPANS)
    assert tracer.absent == ["countdiag.harness._poisson_paths"]
    # the binomial kernel still records under the shared span name
    assert "simulate.paths" in tracer.installed


def test_tail_has_ten_samples_beyond_it():
    value, percentile, samples = metrics.tail(list(range(100)))
    assert (value, percentile, samples) == (89, 90.0, 100)
    assert sum(v > value for v in range(100)) == 10
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_median_estimate_is_defined_for_any_sample_count():
    assert metrics.median_hd([2.0]) == 2.0
    assert metrics.median_hd([1.0, 3.0]) == pytest.approx(2.0)
    assert 20 < metrics.median_hd([10.0, 20.0, 21.0, 22.0, 40.0]) < 22
