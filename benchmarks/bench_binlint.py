"""Binary-lint performance: CFG recovery + abstract interpretation.

Measures (a) the wall time of the full ``lint --binary`` workload over
both shipped apps (CFG recovery, the per-function interval/known-bits
fixpoint, and translation validation) and (b) the static prescreening
cost the binlint oracle layer adds to one differential-fuzz seed -- the
layer runs on every generated program, so it must stay a small fraction
of the execution layers it fronts. The wall times feed
``benchmarks/baselines.json`` via ``check_regression.py``.

Also runs standalone: ``python benchmarks/bench_binlint.py --json OUT``
writes a BENCH_binlint.json-style record combining wall times with the
``analysis.binlint*`` observability counters.
"""

from repro import obs
from repro.analysis.binlint import BinaryLintConfig, lint_binary_program, \
    lint_image
from repro.compiler import compile_program
from repro.platform.bus import MMIO_RANGES
from repro.sw.doorlock import doorlock_program
from repro.sw.program import compiled_lightbulb, lightbulb_program
from repro.sw.verify import platform_mmio_spec

_STACK_TOP = 1 << 16


def _shipped_workload():
    findings = []
    for program, compiled in (
            (lightbulb_program(), compiled_lightbulb(stack_top=_STACK_TOP)),
            (doorlock_program(),
             compile_program(doorlock_program(), entry="main",
                             stack_top=_STACK_TOP))):
        config = BinaryLintConfig.for_platform(
            compiled.stack_top, MMIO_RANGES, ext_spec=platform_mmio_spec())
        findings += lint_binary_program(program, compiled, config)
    return findings


def _fuzz_layer_workload(seeds=range(4)):
    from repro.fuzz.generator import generate_program
    from repro.fuzz.oracle import DEV_BASE, DEV_SIZE

    config = BinaryLintConfig.for_platform(
        _STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),))
    findings = []
    for seed in seeds:
        compiled = compile_program(generate_program(seed),
                                   stack_top=_STACK_TOP)
        findings += lint_image(compiled.image, compiled.symbols,
                               config).findings
    return findings


def test_binlint_shipped_programs(benchmark):
    """Binary-linting the whole software stack is a sub-second operation
    (and finds nothing -- the zero-warnings gate)."""
    findings = benchmark(_shipped_workload)
    assert findings == []


def test_binlint_fuzz_layer(benchmark):
    """The oracle's static layer over a batch of generated programs."""
    findings = benchmark(_fuzz_layer_workload)
    assert findings == []


def main(argv=None):
    """Standalone run: shipped-app + fuzz-layer binary-lint wall times."""
    import argparse
    import json
    import time

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write a BENCH_binlint.json-style record")
    args = parser.parse_args(argv)

    obs.enable(trace=False)
    record = {"benchmark": "binlint", "results": []}

    t0 = time.perf_counter()
    findings = _shipped_workload()
    shipped_wall = time.perf_counter() - t0
    record["results"].append({
        "name": "binlint_shipped", "wall_seconds": shipped_wall,
        "findings": len(findings),
        "functions": obs.counter("analysis.binlint_functions").value,
    })
    print("binlint (shipped apps):  %.2fs, %d finding(s)"
          % (shipped_wall, len(findings)))

    t0 = time.perf_counter()
    findings = _fuzz_layer_workload()
    fuzz_wall = time.perf_counter() - t0
    record["results"].append({
        "name": "binlint_fuzz_layer", "wall_seconds": fuzz_wall,
        "findings": len(findings),
    })
    print("binlint (4 fuzz seeds):  %.2fs, %d finding(s)"
          % (fuzz_wall, len(findings)))

    record["counters"] = dict(obs.REGISTRY.snapshot("analysis."))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2)
        print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
