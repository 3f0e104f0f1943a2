"""Section 5.9: the end-to-end theorem, exercised as a benchmark.

Times the executable theorem checker: boot the compiled lightbulb on the
pipelined processor with adversarial traffic and verify the MMIO trace
stays within goodHlTrace; also reports the spec-checking throughput
(events matched per second), the analogue of proof-checking time for the
top-level statement.

Also runs standalone: ``python benchmarks/bench_end2end.py --json OUT``
writes a BENCH_end2end.json-style record combining wall times with the
key observability counters (instructions retired, MMIO bus events,
checkpoints, prefix checks).
"""

import time

from repro.core.end2end import run_adversarial, run_end_to_end
from repro.platform.net import lightbulb_packet
from repro.sw.specs import good_hl_trace
from repro.traces.online import OnlineChecker


def test_end2end_theorem_isa(benchmark):
    """The composed check on the ISA-level machine with mixed traffic."""

    def run():
        return run_adversarial(seed=2026, n_frames=10, max_units=400_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("end-to-end (ISA machine): %d instructions, %d MMIO events, "
          "bulb history %r, in spec: %s"
          % (result.instructions, len(result.trace), result.bulb_history,
             result.ok))
    assert result.ok, result.detail


def test_end2end_theorem_p4mm(benchmark):
    """The theorem's own statement: p4mm, packet in, trace in spec."""

    def run():
        # p4mm boot (LAN init over SPI) takes ~60k single-rule steps;
        # inject well after RX comes up.
        return run_end_to_end(frames=[(8, lightbulb_packet(True)),
                                      (16, lightbulb_packet(False))],
                              processor="p4mm", max_units=350_000,
                              checkpoint_every=10_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("end-to-end (p4mm): %d Kami steps, %d MMIO events, bulb %r"
          % (result.instructions, len(result.trace), result.bulb_history))
    assert result.ok, result.detail
    assert result.bulb_history == [1, 0]


def test_spec_matching_throughput(benchmark):
    """How fast the trace-predicate engines decide membership -- the
    'proof checking' cost of the top-level spec. The benchmarked number
    is the streaming checker fed the whole trace, which decides every
    cut; one from-scratch ``prefix_of`` of the same trace, which decides
    only the last cut, is timed next to it."""
    # Produce one long representative trace once.
    result = run_end_to_end(frames=[(3, lightbulb_packet(True)),
                                    (9, lightbulb_packet(False))],
                            max_units=120_000)
    assert result.ok
    trace = result.trace
    spec = good_hl_trace()

    t0 = time.perf_counter()
    assert spec.prefix_of(trace)
    prefix_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert OnlineChecker(spec).check(trace)
    streaming_s = time.perf_counter() - t0
    matched = benchmark(lambda: OnlineChecker(spec).check(trace))
    print()
    print("spec check over %d events: streaming %.1f us/event (every "
          "cut), prefix_of %.1f us/event (last cut only)"
          % (len(trace), 1e6 * streaming_s / len(trace),
             1e6 * prefix_s / len(trace)))
    assert matched


def main(argv=None):
    """Standalone run: time the workloads, record wall time + obs counters."""
    import argparse
    import json
    import sys

    from repro import obs

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write a BENCH_end2end.json-style record")
    args = parser.parse_args(argv)

    obs.enable(trace=False)
    record = {"benchmark": "end2end", "results": []}

    t0 = time.perf_counter()
    isa = run_adversarial(seed=2026, n_frames=10, max_units=400_000)
    isa_wall = time.perf_counter() - t0
    assert isa.ok, isa.detail
    record["results"].append({
        "name": "end2end_theorem_isa", "wall_seconds": isa_wall,
        "instructions": isa.instructions, "mmio_events": len(isa.trace),
    })
    print("isa:  %.2fs, %d instructions, %d MMIO events"
          % (isa_wall, isa.instructions, len(isa.trace)))

    t0 = time.perf_counter()
    p4mm = run_end_to_end(frames=[(8, lightbulb_packet(True)),
                                  (16, lightbulb_packet(False))],
                          processor="p4mm", max_units=350_000,
                          checkpoint_every=10_000)
    p4mm_wall = time.perf_counter() - t0
    assert p4mm.ok, p4mm.detail
    record["results"].append({
        "name": "end2end_theorem_p4mm", "wall_seconds": p4mm_wall,
        "kami_steps": p4mm.instructions, "mmio_events": len(p4mm.trace),
    })
    print("p4mm: %.2fs, %d Kami steps, %d MMIO events"
          % (p4mm_wall, p4mm.instructions, len(p4mm.trace)))

    record["counters"] = {}
    for prefix in ("riscv.instructions", "riscv.mmio_", "platform.",
                   "kami.", "end2end.", "compiler.compiles"):
        record["counters"].update(obs.REGISTRY.snapshot(prefix))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2)
        print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
