"""Self-tests of the benchmark, with every workload shrunk to a toy size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("theorem", "verify", "fuzz", "fleet")

#: Every code path in a second or two (verify has no size to shrink).
TINY = {
    "theorem_frames": 2,
    "theorem_legs": (("isa", 4_000, 1), ("p4mm", 4_000, 1)),
    "fuzz_statements": 100,
    "fuzz_programs": 1,
    "fleet_nodes": 2,
    "fleet_duration": 2_000,
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PARAMS", TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_LATENCY_SAMPLES", 1)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _main(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    return code, _result(capsys.readouterr().out)


def test_benchmark_json_names_every_workload_and_metric():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert set(layers.SELF_METRICS.values()) <= set(names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload,
                                               trace):
    code, result = _main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = _spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _traced_job():
    tracer = layers.LayerTracer("test")
    run.run_jobs(workloads.WORKLOADS["theorem"](1), 0,
                 refspeed.SpeedProbe(), tracer)
    return tracer


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_wrappers_are_removed_after_the_traced_run(tiny):
    originals = [(owner, attr, _current(owner, attr))
                 for owner, attr, _ in layers._targets()]
    tracer = layers.LayerTracer("test")
    with tracer:
        assert all(_current(owner, attr) is not fn
                   for owner, attr, fn in originals)
    assert all(_current(owner, attr) is fn for owner, attr, fn in originals)
    assert _traced_job().spans
    assert all(_current(owner, attr) is fn for owner, attr, fn in originals)


def test_self_times_are_non_negative_and_sum_to_the_roots(tiny):
    tracer = _traced_job()
    assert set(tracer.self_s) <= set(layers.SELF_METRICS)
    assert all(value >= -1e-9 for value in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s(),
                                                        rel=1e-9, abs=1e-9)
    assert tracer.counts["riscv.instret"] > 0
    assert tracer.counts["kami.steps"] > 0


def test_spans_export_as_nested_chrome_trace(tiny, tmp_path):
    from repro.obs.tracing import Tracer, load_jsonl

    tracer = _traced_job()
    path = str(tmp_path / "spans.jsonl")
    assert tracer.export_jsonl(path) == len(tracer.spans)
    events = load_jsonl(path)
    assert len(events) == 2 * len(tracer.spans)
    replay = Tracer()
    replay.events = events
    roots = replay.span_tree()
    assert {r["name"] for r in roots} == {"core"}
    assert {e["args"]["run"] for e in events} == {"test"}


def test_repeated_jobs_repeat_their_work_exactly(tiny):
    for workload in WORKLOADS:
        job = workloads.WORKLOADS[workload](5)
        first, second = job.run(), job.run()
        assert first.digest == second.digest, workload
        assert run.digest_mismatches([first, second]) == 0


def test_job_time_excludes_the_kernel_and_is_scaled_by_it(monkeypatch):
    """The timer takes samples while an untraced job runs; their time is
    not job time, and the scale to reference speed is taken from them."""
    monkeypatch.setattr(refspeed, "TICK_S", 0.02)

    def run_job(clock=time.perf_counter):
        t0 = clock()
        while clock() - t0 < 0.3:
            pass
        return workloads.JobResult(1, 0, {})

    probe = refspeed.SpeedProbe()
    wall = time.perf_counter()
    _, host = run._timed(workloads.Job(run_job, {}), probe)
    wall = time.perf_counter() - wall
    assert len(probe.samples) >= 3
    assert host == pytest.approx(0.3, abs=0.01)
    assert wall >= host + probe.spent
    assert min(probe.samples) <= refspeed.REF_KERNEL_S / probe.scale() \
        <= max(probe.samples)
    probe.samples = [0.01] * 18 + [1.0, 0.001]  # the outliers are cut
    assert probe.scale() == pytest.approx(refspeed.REF_KERNEL_S / 0.01)
    _, host = run._timed(workloads.Job(run_job, {}), refspeed.SpeedProbe(),
                         layers.LayerTracer("test"))
    assert host == pytest.approx(0.3, abs=0.01)  # no samples when traced


def test_an_out_of_spec_run_raises_failed_frac(tiny, monkeypatch, capsys):
    """The buggy driver overruns its buffer on an oversize frame, so the
    trace leaves goodHlTrace: the leg must count as failed."""
    from repro.core import end2end
    from repro.platform.net import oversize_packet

    original = end2end.run_end_to_end

    def buggy(frames=(), processor="isa", max_units=0, **kwargs):
        if processor == "isa":
            frames = [(6, oversize_packet(2000, on=True))]
            max_units = max(max_units, 20_000)
        return original(frames=frames, processor=processor,
                        max_units=max_units, buggy_driver=True, **kwargs)

    monkeypatch.setattr(end2end, "run_end_to_end", buggy)
    code, result = _main(capsys, "theorem", 1, seed=1)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0
    assert end2end.run_end_to_end is buggy  # the tracer restored the patch


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
