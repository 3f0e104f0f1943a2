"""The four benchmark workloads, each a fixed job built from a seed.

A workload turns a seed into a `Job`: the inputs are generated
up front, and each call of ``Job.run()`` executes the same fixed job once
through the public APIs of ``src/repro`` (always ``jobs=1``) and returns
a `JobResult`. The result carries the operations attempted and failed,
the host seconds of the parts that feed the workload's rate metrics, and
a *digest* of deterministic work (instructions, Kami steps, MMIO events,
obligations, SAT conflicts, report hashes) that must repeat exactly every
time the job runs.

Library calls go through module attributes (``end2end.run_end_to_end``,
not a name imported at load time) so that the traced pass's wrappers are
the functions actually called.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Coarse registry counters (always collected, no ``obs.enable()``) read
#: as per-job deltas into the digest.
REGISTRY_COUNTERS = (
    "bitblast.cnf_clauses",
    "end2end.frames_accepted",
    "net.frames_switched",
    "net.switch_queue_overflows",
    "platform.bus_reads",
    "platform.bus_writes",
    "platform.lan9250_dropped_frames",
    "analysis.obligations_prescreened",
    "analysis.prescreen_misses",
    "sat.conflicts",
    "sat.propagations",
    "solver.queries",
    "solver.tier.sat",
    "vcgen.obligations_proved",
    "vcgen.obligations_timeout",
    "vcgen.paths_explored",
)

#: Throughput metrics; each workload times the ones its work defines.
RATE_METRICS = ("sim_instr_per_s", "kami_steps_per_s", "obligations_per_s",
                "programs_per_s")

#: The size of each workload's fixed job.
PARAMS = {
    # One seeded stream of 4 frames, one frame per cut. The ISA leg
    # runs 24k instructions, every 2k-instruction cut checked, and
    # gets the frames from cut 8, after its NIC is receiving (cut 6).
    # The p4mm leg runs 70k Kami steps, past the ~60k-step LAN boot,
    # and gets them from cut 22, after its receiver is enabled.
    "theorem_frames": 4,
    "theorem_legs": (("isa", 24_000, 8), ("p4mm", 70_000, 22)),
    # 31 programs, 1522 statements: about 10 s on the reference host.
    "fuzz_statements": 1_500,
    "fuzz_programs": 25,
    "fleet_nodes": 4,
    "fleet_duration": 10_000,
}


@dataclass
class JobResult:
    attempted: int
    failed: int
    digest: Dict
    #: Host seconds of named parts of the job (e.g. each theorem leg).
    parts_s: Dict[str, float] = field(default_factory=dict)
    #: Per-operation latencies in seconds (fuzz: one per program).
    latencies_s: List[float] = field(default_factory=list)


@dataclass
class Job:
    #: Runs the fixed job once, timing its parts with the clock it is
    #: given (host seconds, less any time the caller spends in between;
    #: see `refspeed`).
    run: Callable[..., JobResult]
    #: Work of one job feeding each rate metric: metric -> (count key in
    #: the digest, part of ``parts_s`` it is timed over or "" for the
    #: whole job).
    rates: Dict[str, Tuple[str, str]]


def registry_counts() -> Dict[str, int]:
    from repro import obs

    snap = obs.REGISTRY.snapshot()
    return {name: snap.get(name, 0) for name in REGISTRY_COUNTERS}


def _delta(before: Dict[str, int]) -> Dict[str, int]:
    after = registry_counts()
    return {name: after[name] - before[name] for name in REGISTRY_COUNTERS}


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- theorem ------------------------------------------------------------------


def theorem(seed: int) -> Job:
    """Paper section 5.9 on one seeded adversarial frame stream (the one
    `repro.core.end2end.run_adversarial` uses for the same seed): an ISA
    leg on the fast engine, then a p4mm leg. Each leg delivers the stream,
    one frame per checkpoint, from a cut where its NIC is already
    receiving, so the frames land."""
    from repro.core import end2end
    from repro.fuzz.generator import adversarial_frames
    from repro.sw.program import make_platform

    stream = adversarial_frames(seed, PARAMS["theorem_frames"])
    legs = [(processor, units, [(first + i, frame)
                                for i, frame in enumerate(stream)])
            for processor, units, first in PARAMS["theorem_legs"]]

    def run(clock: Callable[[], float] = time.perf_counter) -> JobResult:
        result = JobResult(0, 0, {"legs": []})
        before = registry_counts()
        work = {"instret": 0, "kami_steps": 0, "mmio_events": 0}
        for processor, units, frames in legs:
            platform = make_platform()
            t0 = clock()
            try:
                leg = end2end.run_end_to_end(frames=frames,
                                             processor=processor,
                                             max_units=units,
                                             platform=platform)
                record = {"ok": leg.ok, "detail": leg.detail,
                          "units": leg.instructions,
                          "checkpoints": leg.checkpoints,
                          "mmio_events": len(leg.trace),
                          "bulb_history": list(leg.bulb_history)}
            except Exception as exc:  # a machine fault is a failed leg
                record = {"ok": False, "units": 0, "mmio_events": 0,
                          "detail": "%s: %s" % (type(exc).__name__, exc)}
            result.parts_s[processor] = clock() - t0
            record["processor"] = processor
            record["frames_dropped"] = platform.lan.dropped_frames
            result.digest["legs"].append(record)
            result.attempted += 1
            result.failed += not record["ok"]
            work["instret" if processor == "isa" else "kami_steps"] += \
                record["units"]
            work["mmio_events"] += record["mmio_events"]
        counts = _delta(before)
        work["frames_accepted"] = counts["end2end.frames_accepted"]
        work["frames_dropped"] = counts["platform.lan9250_dropped_frames"]
        result.digest.update(registry=counts, work=work)
        return result

    return Job(run, {"sim_instr_per_s": ("instret", "isa"),
                     "kami_steps_per_s": ("kami_steps", "p4mm")})


# -- verify -------------------------------------------------------------------


def verify(seed: int) -> Job:
    """Program-logic verification of both apps plus the negative control,
    prescreen on, no proof cache. There is no generated input: the seed
    is accepted for a uniform command line and ignored."""
    from repro.bedrock2.vcgen import VerificationError
    from repro.sw import verify as sw_verify

    def run(clock: Callable[[], float] = time.perf_counter) -> JobResult:
        result = JobResult(0, 0, {})
        before = registry_counts()
        functions = []
        for entry in (sw_verify.verify_all, sw_verify.verify_doorlock):
            try:
                outcome = entry(jobs=1, cache=None, prescreen=True)
            except VerificationError as exc:
                functions.append({"error": str(exc)})
                result.failed += 1
                continue
            for report in outcome.reports:
                functions.append({"function": report.function,
                                  "paths": report.paths,
                                  "obligations": report.obligations,
                                  "timeouts": list(report.timeouts)})
                result.failed += len(report.timeouts)
        try:
            err = sw_verify.verify_drain_buggy_fails()
            control = err.context
        except AssertionError as exc:
            control = "verified: %s" % exc
        control_ok = control.startswith("lan9250_drain")
        result.failed += not control_ok
        counts = _delta(before)
        # Decided = proved + the control's one refuted obligation.
        decided = counts["vcgen.obligations_proved"] + control_ok
        result.attempted = decided + counts["vcgen.obligations_timeout"]
        result.digest = {"functions": functions, "control": control,
                         "registry": counts,
                         "work": {"obligations": decided}}
        return result

    return Job(run, {"obligations_per_s": ("obligations", "")})


# -- fuzz ---------------------------------------------------------------------


def fuzz(seed: int) -> Job:
    """The differential oracle over generated programs, all eight layers,
    each program timed on its own.

    The input is a fixed corpus: the shortest prefix of the generator's
    program stream ``0, 1, 2, ...`` holding at least ``fuzz_statements``
    statements and ``fuzz_programs`` programs. The seed is accepted for a
    uniform command line and ignored, as in `verify`. Oracle cost follows
    program size only loosely (correlation 0.8 over 360 programs), so
    corpora of the same size drawn from different seeds' streams
    (``seed*1000, seed*1000+1, ...``) differed by up to a fifth: 8.2 s to
    10.8 s at reference speed over five seeds, run interleaved in one
    process. That alone would use most of the bound on `wall_ref_s`."""
    from repro.bedrock2.ast_ import cmd_size
    from repro.fuzz import oracle
    from repro.fuzz.generator import generate_program

    programs, statements = [], 0
    while (statements < PARAMS["fuzz_statements"]
           or len(programs) < PARAMS["fuzz_programs"]):
        program_seed = len(programs)
        statements += sum(cmd_size(fn.body)
                          for fn in generate_program(program_seed).values())
        programs.append(program_seed)

    def run(clock: Callable[[], float] = time.perf_counter) -> JobResult:
        result = JobResult(0, 0, {})
        before = registry_counts()
        rows = []
        for program_seed in programs:
            t0 = clock()
            try:
                row = oracle.run_fuzz_seed(program_seed)
            except Exception as exc:  # an oracle crash fails the program
                row = {"seed": program_seed, "status": "crash",
                       "detail": "%s: %s" % (type(exc).__name__, exc)}
            result.latencies_s.append(clock() - t0)
            rows.append(row)
            result.attempted += 1
            result.failed += row["status"] != "ok"
        result.digest = {"report": _sha(rows), "registry": _delta(before),
                         "work": {"programs": len(rows),
                                  "statements": statements}}
        return result

    return Job(run, {"programs_per_s": ("programs", "")})


# -- fleet --------------------------------------------------------------------


def fleet(seed: int) -> Job:
    """Lightbulb and doorlock nodes behind the virtual switch on the
    ``chaos`` link profile, each node's trace checked online."""
    from repro.net import fleet as net_fleet

    def run(clock: Callable[[], float] = time.perf_counter) -> JobResult:
        before = registry_counts()
        report = net_fleet.run_fleet(nodes=PARAMS["fleet_nodes"],
                                     duration=PARAMS["fleet_duration"],
                                     profile="chaos", seed=seed, jobs=1)
        summary = report["summary"]
        digest = {"report": _sha(report), "summary": summary,
                  "registry": _delta(before),
                  "work": {"instret": summary["instructions"],
                           "mmio_events": sum(row["mmio_events"]
                                              for row in report["nodes"]),
                           "frames_accepted": summary["frames_accepted"],
                           "frames_dropped": summary["nic_dropped"]}}
        return JobResult(summary["nodes"],
                         summary["nodes"] - summary["nodes_ok"], digest)

    return Job(run, {"sim_instr_per_s": ("instret", "")})


WORKLOADS: Dict[str, Callable[[int], Job]] = {
    "theorem": theorem,
    "verify": verify,
    "fuzz": fuzz,
    "fleet": fleet,
}


def setup() -> None:
    """What every workload needs before its first job: the library
    imported, both application images compiled, both specs built."""
    from repro.core import end2end  # noqa: F401
    from repro.fuzz import oracle  # noqa: F401
    from repro.net import fleet as net_fleet  # noqa: F401
    from repro.net.node import DOORLOCK, LIGHTBULB, compiled_image, spec_for
    from repro.sw import verify as sw_verify  # noqa: F401

    for kind in (LIGHTBULB, DOORLOCK):
        compiled_image(kind)
        spec_for(kind)
