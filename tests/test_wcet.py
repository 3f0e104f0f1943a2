"""Static WCET & stack-bound analyzer (tier-1).

The analyzer (`repro.analysis.wcet`) claims to *prove* cycle and stack
bounds for RV32IM binaries against the p4mm-calibrated cost model
(`repro.analysis.costmodel`). This suite holds it to that claim:

* the cost model matches the live pipeline (drift check clean, and a
  deliberately miscalibrated model is caught as B2A205);
* both shipped apps prove with zero findings, inside the committed
  ``timing-budgets.json``, with the stack bound agreeing exactly with
  the compiler's own frame accounting;
* recursion and data-dependent loops are rejected (B2A202 / B2A201),
  never silently "bounded";
* inferred fuel-loop bounds match the generator's ground truth
  (exactly for most seeds; a subsequence when dead loops are pruned);
* the bounds are *dynamically sound*: measured pipeline cycles and the
  runtime stack watermark never exceed the static bounds, on both the
  reference interpreter and the fast engine (which must agree on the
  watermark bit-for-bit).
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.analysis.binlint import BinaryLintConfig
from repro.analysis.costmodel import (CostModel, check_pipeline_drift,
                                      mispredict_penalty_for,
                                      pipeline_cost_model)
from repro.analysis.wcet import (ANNOTATED, INFERRED, TimingConfig,
                                 analyze_timing, check_budgets,
                                 drift_findings, load_budgets)
from repro.compiler.pipeline import compile_program
from repro.fuzz.generator import (DEV_BASE, DEV_SIZE, fuel_bounds,
                                  generate_program)
from repro.platform.bus import MMIO_RANGES
from repro.sw.doorlock import doorlock_program
from repro.sw.program import compiled_lightbulb

STACK_TOP = 1 << 16
BUDGETS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "timing-budgets.json")


def _fuzz_config():
    return TimingConfig(
        lint=BinaryLintConfig.for_platform(
            STACK_TOP, ((DEV_BASE, DEV_BASE + DEV_SIZE),)),
        model=pipeline_cost_model(strict=False))


def _app_report(name):
    loop_bounds, budgets = load_budgets(BUDGETS_PATH)
    if name == "lightbulb":
        compiled = compiled_lightbulb(stack_top=STACK_TOP)
    else:
        compiled = compile_program(doorlock_program(), entry="main",
                                   stack_top=STACK_TOP)
    config = TimingConfig(
        lint=BinaryLintConfig.for_platform(compiled.stack_top, MMIO_RANGES),
        model=pipeline_cost_model(strict=False),
        loop_bounds=loop_bounds)
    return analyze_timing(compiled, config), compiled, budgets.get(name, {})


# -- cost model ---------------------------------------------------------------


def test_cost_model_matches_live_pipeline():
    model = pipeline_cost_model()  # strict: raises on drift
    assert model.base_cpi == 4
    assert model.mispredict_penalty == mispredict_penalty_for(
        model.fifo_depth)
    assert check_pipeline_drift(model) == []
    assert drift_findings() == []


def test_cost_model_drift_is_caught():
    """A miscalibrated model cannot produce silently unsound bounds:
    every perturbed constant shows up as at least one drift message."""
    for field, value in (("fifo_depth", 3), ("mispredict_penalty", 5),
                         ("base_cpi", 5)):
        model = CostModel(**{field: value})
        drift = check_pipeline_drift(model)
        assert drift, "perturbing %s went undetected" % field
        findings = drift_findings(model)
        assert findings and all(d.code == "B2A205" for d in findings)


def test_block_cost_charges_control_transfers():
    model = CostModel()
    straight = model.block_cost(5, control_transfer=False)
    taken = model.block_cost(5, control_transfer=True)
    assert straight == 5 * model.base_cpi
    assert taken - straight == model.mispredict_penalty
    assert model.fill_cost(10) == 10 * model.fill_per_word


# -- committed budgets file ---------------------------------------------------


def test_budgets_file_parses():
    loop_bounds, apps = load_budgets(BUDGETS_PATH)
    assert loop_bounds["func.lan9250_drain"][0] == 380
    assert set(apps) == {"lightbulb", "doorlock"}
    for budget in apps.values():
        assert {"startup_cycles", "iteration_cycles", "stack_bytes"} <= set(budget)


# -- shipped apps -------------------------------------------------------------


@pytest.mark.parametrize("app", ["lightbulb", "doorlock"])
def test_shipped_app_proves_within_budgets(app):
    report, compiled, budget = _app_report(app)
    assert report.findings == []
    assert check_budgets(report, budget) == []
    # The event loop never returns: server-shaped program bounds.
    assert report.wcet_cycles is None
    assert 0 < report.startup_cycles <= budget["startup_cycles"]
    assert 0 < report.iteration_cycles <= budget["iteration_cycles"]
    # Interprocedural stack bound agrees exactly with the compiler's
    # own frame accounting -- two independent computations of the same
    # quantity.
    assert report.stack_bound == compiled.stack_bound
    assert report.stack_bound <= budget["stack_bytes"]


#: The proved shipped-app bounds, pinned exactly: a precision change
#: (tighter or looser) must show up here, not only against the budget
#: ceilings. Loop rows are (function, ordinal) -> (bound, source).
_SHIPPED_LOOPS = {
    ("_start", 0): (None, "spin"),
    ("func.lan9250_drain", 0): (380, "annotated"),
    ("func.lan9250_init", 0): (64, "inferred"),
    ("func.lan9250_wait_for_boot", 0): (64, "inferred"),
    ("func.main", 0): (None, "server"),
    ("func.spi_read", 0): (64, "inferred"),
    ("func.spi_write", 0): (64, "inferred"),
}
_SHIPPED_TIMING = {
    "lightbulb": (11353580, 33014643, 2240, {
        **_SHIPPED_LOOPS, ("func.lightbulb_service", 0): (None, "unbounded")}),
    "doorlock": (11353580, 33014799, 2272, {
        **_SHIPPED_LOOPS, ("func.doorlock_service", 0): (None, "unbounded")}),
}


@pytest.mark.parametrize("app", ["lightbulb", "doorlock"])
def test_shipped_app_timing_pinned(app):
    report, _, _ = _app_report(app)
    startup, iteration, stack, loops = _SHIPPED_TIMING[app]
    assert report.startup_cycles == startup
    assert report.iteration_cycles == iteration
    assert report.stack_bound == stack
    assert {(fn.name, lp.ordinal): (lp.bound, lp.source)
            for fn in report.functions.values() for lp in fn.loops} == loops


def test_lightbulb_drain_loop_uses_annotation():
    """The LAN9250 drain loop is data-dependent (bounded by the RX fifo,
    not a fuel counter); it must be priced from the committed flow fact,
    not guessed."""
    report, _, _ = _app_report("lightbulb")
    drain = report.functions["func.lan9250_drain"]
    annotated = [lp for lp in drain.loops if lp.source == ANNOTATED]
    assert [lp.bound for lp in annotated] == [380]


def test_shipped_app_to_json_round_trips():
    report, _, _ = _app_report("doorlock")
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["stack_bound"] == report.stack_bound
    assert doc["iteration_cycles"] == report.iteration_cycles
    assert set(doc["functions"]) == set(report.functions)


# -- rejection: no silent bounds ---------------------------------------------


def test_recursion_rejected():
    """Self-recursion in a hand-assembled binary (the compiler refuses
    to emit one) is rejected for both WCET and stack."""
    from repro.riscv.encode import encode_program
    from repro.riscv.insts import Instr

    image = encode_program([
        Instr("lui", rd=2, imm=0x10),   # _start: sp = 0x10000
        Instr("jal", rd=1, imm=4),      # call func.f
        Instr("jal", rd=1, imm=0),      # func.f: calls itself
    ])
    compiled = SimpleNamespace(image=image,
                               symbols={"_start": 0, "func.f": 8},
                               stack_top=STACK_TOP)
    config = TimingConfig(lint=BinaryLintConfig(ram=(0, STACK_TOP)),
                          model=pipeline_cost_model(strict=False))
    report = analyze_timing(compiled, config)
    codes = {d.code for d in report.findings}
    assert "B2A202" in codes
    assert report.wcet_cycles is None
    assert report.stack_bound is None


def test_data_dependent_loop_not_inferred():
    """A loop governed by memory the analyzer cannot bound must be
    B2A201, never a guessed bound."""
    from repro.bedrock2.ast_ import (ELoad, EVar, Function, SSkip,
                                     SStackalloc, SWhile)

    program = {"main": Function("main", (), (), SStackalloc(
        "p", 8, SWhile(ELoad(4, EVar("p")), SSkip())))}
    compiled = compile_program(program, stack_top=STACK_TOP)
    report = analyze_timing(compiled, _fuzz_config())
    assert "B2A201" in {d.code for d in report.findings}
    assert report.wcet_cycles is None


# -- fuel-loop ground truth ---------------------------------------------------


def _is_subsequence(sub, full):
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


def test_inferred_bounds_match_generator_ground_truth():
    """The generator records the fuel literal of every loop it emits
    (`fuel_bounds`). The analyzer's inferred bounds must match that
    ground truth exactly for most functions, and always be an ordered
    subsequence of it (dead loops -- ``if (0)`` arms -- are pruned by
    semantic reachability, never mis-bounded)."""
    config = _fuzz_config()
    exact = total = 0
    for seed in range(20):
        program = generate_program(seed)
        truth = fuel_bounds(program)
        compiled = compile_program(program, stack_top=STACK_TOP)
        report = analyze_timing(compiled, config)
        assert report.findings == [], (seed, report.findings)
        assert report.wcet_cycles is not None, seed
        assert report.stack_bound == compiled.stack_bound, seed
        for fn_name, bounds in truth.items():
            timing = report.functions["func." + fn_name]
            inferred = [lp.bound for lp in
                        sorted(timing.loops, key=lambda lp: lp.ordinal)
                        if lp.source == INFERRED]
            total += 1
            if inferred == bounds:
                exact += 1
            else:
                assert _is_subsequence(inferred, bounds), \
                    (seed, fn_name, inferred, bounds)
    assert total > 0
    assert exact >= 2 * total // 3, "only %d/%d exact" % (exact, total)


def test_fuel_bounds_records_only_loop_functions():
    program = generate_program(0)
    truth = fuel_bounds(program)
    assert truth  # seed 0 has at least one fuel loop
    for name, bounds in truth.items():
        assert name in program
        assert bounds and all(b > 0 for b in bounds)


# -- dynamic soundness --------------------------------------------------------


def test_bounds_sound_against_measured_execution():
    """For a deterministic seed sample, the oracle's wcet layer proves a
    bound and every dynamic measurement stays under it: pipeline cycles
    under the static WCET, stack watermark under the static bound."""
    from repro.fuzz.oracle import run_differential

    checked = 0
    for seed in range(6):
        result = run_differential(generate_program(seed))
        assert result["status"] == "ok", (seed, result.get("divergence"))
        wcet = result["wcet"]
        assert wcet["measured_cycles"] <= wcet["static_cycles"], seed
        assert wcet["measured_stack"] <= wcet["stack_bound"], seed
        # Not vacuous: the bound is within a small factor of reality.
        assert wcet["static_cycles"] < 4 * wcet["measured_cycles"], seed
        checked += 1
    assert checked == 6


def _count_analyses(monkeypatch):
    """Count CFG recoveries (in every namespace that binds
    `recover_cfg`) and functions binlint analyzes from here on."""
    from repro import analysis
    from repro.analysis import binlint, cfg, wcet
    from repro.obs import counter

    real = cfg.recover_cfg
    recoveries = []

    def counting(*args, **kwargs):
        recoveries.append(args)
        return real(*args, **kwargs)

    for module in (analysis, binlint, cfg, wcet):
        if hasattr(module, "recover_cfg"):
            monkeypatch.setattr(module, "recover_cfg", counting)
    functions = counter("analysis.binlint_functions")
    start = functions.value
    return recoveries, lambda: functions.value - start, real


def _analyzable_functions(real_recover_cfg, compiled):
    functions = real_recover_cfg(compiled.image, compiled.symbols).functions
    return sum(1 for fn in functions.values() if fn.blocks)


def test_one_analysis_per_fuzz_program(monkeypatch):
    """The oracle's binlint and wcet layers share one CFG recovery and
    one fixpoint per program."""
    from repro.fuzz.oracle import _STACK_TOP, run_differential

    program = generate_program(0)
    recoveries, analyzed, real = _count_analyses(monkeypatch)
    result = run_differential(program, layers=("interp", "binlint", "wcet"))
    assert result["status"] == "ok", result
    assert result["layers"] == ["interp", "binlint", "wcet"]
    assert len(recoveries) == 1
    compiled = compile_program(program, stack_top=_STACK_TOP)
    assert analyzed() == _analyzable_functions(real, compiled)


def test_one_analysis_per_app_in_lint_binary_timing(monkeypatch, capsys):
    """``lint --binary --timing`` lints, validates and times each
    shipped app from one CFG recovery and one fixpoint."""
    from repro.__main__ import main

    recoveries, analyzed, real = _count_analyses(monkeypatch)
    assert main(["lint", "--binary", "--timing", "--budgets",
                 BUDGETS_PATH]) == 0
    assert "no findings" in capsys.readouterr().out
    apps = [compiled_lightbulb(stack_top=STACK_TOP),
            compile_program(doorlock_program(), entry="main",
                            stack_top=STACK_TOP)]
    assert [args[0] for args in recoveries] == [c.image for c in apps]
    assert analyzed() == sum(_analyzable_functions(real, c) for c in apps)


def test_stack_watermark_reference_and_fast_agree():
    """Both engines track the sp low-water mark identically, and the
    measured depth respects the static bound."""
    from repro.fuzz.oracle import _MEM_SIZE, SyntheticDevice
    from repro.bedrock2 import word
    from repro.riscv.machine import RiscvMachine

    config = _fuzz_config()
    for seed in (0, 7):
        compiled = compile_program(generate_program(seed),
                                   stack_top=STACK_TOP)
        report = analyze_timing(compiled, config)
        marks = []
        for fast in (False, True):
            machine = RiscvMachine.with_program(
                compiled.image, base=0, pc=0, mem_size=_MEM_SIZE,
                mmio_bus=SyntheticDevice(), fast=fast)
            machine.run(500_000)
            marks.append(machine.sp_min)
        ref_min, fast_min = marks
        assert ref_min == fast_min, seed
        assert ref_min < word.MASK  # the program did touch the stack
        depth = STACK_TOP - ref_min
        assert 0 < depth <= report.stack_bound, seed


def test_watermark_tracks_all_sp_writers():
    """The watermark sees every write to x2, whichever instruction
    produced it -- not just addi sp, sp, -frame."""
    from repro.riscv.machine import RiscvMachine

    for fast in (False, True):
        machine = RiscvMachine.with_program(b"", base=0, pc=0,
                                            mem_size=4096, fast=fast)
        machine.set_register(2, 4000)
        machine.set_register(2, 1024)
        machine.set_register(2, 2048)  # raising sp must not raise the mark
        assert machine.sp_min == 1024
