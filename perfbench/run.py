"""The repository benchmark: one workload per run, one JSON line out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates untraced jobs with traced ones, where
`layers.LayerTracer` wraps each layer's entry point, and reports the
per-layer metrics. The metric names and units are the ones
``BENCHMARK.json`` declares. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full record (host
facts, digests, per-job times) goes to ``perfbench/out/``. The exit code
is 1 if any output check or work-count comparison failed, 2 if the
source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from refspeed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_PROBES = 5
#: Jobs per run at least, so the work digest is always compared.
MIN_ROUNDS = 2
#: Per-operation latencies a traced run collects at least from its
#: untraced jobs (fuzz), so that the p90 has ten samples beyond it...
MIN_LATENCY_SAMPLES = 100
#: ... unless it has run this many times ``--seconds``: on a host much
#: slower than the reference one, a run must still end within 180 s.
MAX_LATENCY_FACTOR = 4


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- host facts ---------------------------------------------------------------


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int) -> Dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": _git_sha(),
            "seed": seed}


# -- set-up -------------------------------------------------------------------


def probe_setup() -> float:
    """Seconds from spawning a fresh interpreter to its workloads being
    ready (imports, both images compiled, both specs built)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                           "--setup-probe"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed


# -- passes -------------------------------------------------------------------


def _timed(job, probe, tracer=None):
    """One job: its result and its host seconds without the kernel's.
    An untraced job runs under the probe's sampling timer."""
    before = dict(tracer.counts) if tracer is not None else None
    sampling = probe.sampling() if tracer is None \
        else contextlib.nullcontext()
    with sampling:
        t0 = probe.clock()
        result = job.run(probe.clock)
        elapsed = probe.clock() - t0
    if tracer is not None:
        result.digest["layers"] = {key: value - before.get(key, 0)
                                   for key, value in sorted(
                                       tracer.counts.items())}
    return result, elapsed


def run_jobs(job, seconds: float, probe, tracer=None) -> Tuple[list, list]:
    """Run rounds of the fixed job until the round boundary nearest to
    ``seconds``, and at least `MIN_ROUNDS` rounds so that every run
    compares the work of two jobs. With a ``tracer``, each round is an
    untraced job followed by a traced one, so changes of the host's speed
    hit both sides alike.
    A traced run also goes on until its untraced jobs hold
    `MIN_LATENCY_SAMPLES` latencies, if its jobs record any, or until
    `MAX_LATENCY_FACTOR` times ``seconds`` have passed. Returns
    ``[(result, host seconds)]`` for the untraced and the traced jobs."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(_timed(job, probe))
        if tracer is not None:
            with tracer:
                traced.append(_timed(job, probe, tracer))
        samples = sum(len(r.latencies_s) for r, _ in untraced)
        elapsed = time.perf_counter() - start
        if (len(untraced) >= MIN_ROUNDS
                and elapsed * (1 + 0.5 / len(untraced)) >= seconds
                and (tracer is None or not samples
                     or samples >= MIN_LATENCY_SAMPLES
                     or elapsed >= MAX_LATENCY_FACTOR * seconds)):
            return untraced, traced


def _base(digest: Dict) -> Dict:
    return {k: v for k, v in digest.items() if k != "layers"}


def digest_mismatches(results: list, reference: Optional[Dict] = None
                      ) -> int:
    """Jobs whose deterministic work differs from the first job's (and,
    for the traced pass, from the untraced pass's ``reference``)."""
    first = results[0].digest
    bad = sum(r.digest != first for r in results[1:])
    if reference is not None and _base(first) != reference:
        bad += 1
    return bad


# -- metrics ------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rate_metrics(job, results: list, times: List[float]) -> Dict[str, float]:
    from workloads import RATE_METRICS

    work = results[0].digest["work"]
    out = dict.fromkeys(RATE_METRICS, 0.0)  # zero where not applicable
    for metric, (count, part) in job.rates.items():
        seconds = (times if not part
                   else [r.parts_s[part] for r in results])
        out[metric] = _ratio(work[count], statistics.fmean(seconds))
    return out


def latency_metrics(results: list) -> Dict[str, float]:
    samples = [s for r in results for s in r.latencies_s]
    if len(samples) < 2:
        return {"program_p50_ms": 0.0, "program_p90_ms": 0.0,
                "program_samples": len(samples)}
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"program_p50_ms": cuts[49] * 1e3, "program_p90_ms": cuts[89] * 1e3,
            "program_samples": len(samples)}


def layer_metrics(tracer, results: list, times: List[float]) -> Dict:
    """Per-job means of the traced pass: self times from the wrappers,
    work counts from the wrappers and the registry deltas."""
    from layers import SELF_METRICS

    jobs = len(results)
    out = {metric: tracer.self_s.get(key, 0.0) / jobs
           for key, metric in SELF_METRICS.items()}
    layer = results[0].digest["layers"]
    reg = results[0].digest["registry"]
    work = results[0].digest["work"]
    events = layer.get("traces.events_scanned", 0)
    out.update({
        "riscv.instret": layer.get("riscv.instret", 0),
        "riscv.instr_per_self_s": _ratio(layer.get("riscv.instret", 0),
                                         out["riscv.self_s"]),
        "kami.steps": layer.get("kami.steps", 0),
        "kami.steps_per_self_s": _ratio(layer.get("kami.steps", 0),
                                        out["kami.self_s"]),
        "traces.prefix_calls": layer.get("traces.prefix.calls", 0),
        "traces.events_scanned": events,
        "traces.rescan_ratio": _ratio(events, work.get("mmio_events", 0)),
        "traces.us_per_event": _ratio(out["traces.prefix_self_s"] * 1e6,
                                      events),
        "traces.online_calls": layer.get("traces.online.calls", 0),
        "traces.online_events": layer.get("traces.online_events", 0),
        "compiler.calls": layer.get("compiler.calls", 0),
        "analysis.prescreen_hit_ratio": _ratio(
            reg["analysis.obligations_prescreened"],
            reg["analysis.obligations_prescreened"]
            + reg["analysis.prescreen_misses"]),
        "bedrock2.obligations": reg["vcgen.obligations_proved"],
        "bedrock2.paths": reg["vcgen.paths_explored"],
        "logic.queries": layer.get("logic.calls", 0),
        "logic.sat_queries": reg["solver.tier.sat"],
        "logic.sat_conflicts": reg["sat.conflicts"],
        "logic.sat_propagations": reg["sat.propagations"],
        "logic.cnf_clauses": reg["bitblast.cnf_clauses"],
        "net.frames_switched": reg["net.frames_switched"],
        "net.queue_overflows": reg["net.switch_queue_overflows"],
        "platform.mmio_events": work.get("mmio_events", 0),
        "platform.frames_accepted": work.get("frames_accepted", 0),
        "platform.frames_dropped": work.get("frames_dropped", 0),
        "bench.attributed_frac": _ratio(sum(tracer.self_s.values()),
                                        sum(times)),
    })
    return out


# -- main ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no source tree at %s" % SRC, file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS, setup

    if args.setup_probe:
        setup()
        print("ready", flush=True)
        return 0
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))

    spec = load_spec()
    setup_host = [probe_setup() for _ in range(SETUP_PROBES)]
    setup()
    job = WORKLOADS[args.workload](args.seed)

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer("%s-seed%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    probe = SpeedProbe()
    probe.sample()  # so that even a run shorter than one tick has one
    untraced, traced = run_jobs(job, args.seconds, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [r for r, _ in untraced]
    times = [t for _, t in untraced]
    traced_results = [r for r, _ in traced]
    traced_times = [t for _, t in traced]
    mismatches = digest_mismatches(results)
    if traced:
        mismatches += digest_mismatches(traced_results,
                                        _base(results[0].digest))
    attempted = sum(r.attempted for r in results + traced_results)
    failed = sum(r.failed for r in results + traced_results) + mismatches
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_facts(args.seed),
              "untraced_job_s": times,
              "traced_job_s": traced_times,
              "setup_s": setup_host,
              "kernel_s": probe.samples,
              "digest": (traced_results or results)[0].digest}
    if tracer is not None:
        metrics = layer_metrics(tracer, traced_results, traced_times)
        metrics.update(rate_metrics(job, results, times))
        metrics.update(latency_metrics(results))
        metrics["bench.trace_overhead_frac"] = (sum(traced_times)
                                                / sum(times) - 1)
        metrics["failed_frac"] = _ratio(failed, attempted)
        metrics["bench.ref_kernel_ms"] = probe.mean_s() * 1e3
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(setup_host),
                   "wall_ref_s": statistics.fmean(times) * probe.scale(),
                   "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError("metric set differs from BENCHMARK.json: %s"
                           % sorted(set(metrics) ^ set(units)))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    if tracer is not None:
        record["spans"] = tracer.export_jsonl(stem + ".spans.jsonl")
    correct = failed == 0
    record.update({"correct": correct, "attempted": attempted,
                   "failed": failed, "digest_mismatches": mismatches,
                   "metrics": metrics})
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("host: %s" % json.dumps(record["host"], sort_keys=True))
    print("jobs: %d untraced, %d traced" % (len(untraced), len(traced)))
    print("host seconds: set-up %s, untraced jobs %s; kernel %.4f"
          % (["%.3f" % t for t in setup_host], ["%.3f" % t for t in times],
             probe.mean_s()))
    print("digest: %s" % json.dumps(_base(record["digest"]), sort_keys=True))
    for name in sorted(metrics):
        print("%-32s %16.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": units[name]}
                                  for name in sorted(metrics)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
