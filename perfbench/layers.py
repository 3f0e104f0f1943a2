"""Per-layer attribution for the traced pass, from the benchmark's side.

`LayerTracer` patches the public entry point of each ``src/repro``
layer with a thin timing wrapper, keeps one span per wrapped call in
memory (name, start, end, parent, run id) and accumulates per-layer
*self time*: a span's duration minus the part of it covered by wrapped
child calls. Nothing inside the program changes; `uninstall` puts every
original attribute back, so the untraced pass runs the unmodified
functions.

Each wrapper sits on a per-call boundary (one `RiscvMachine.run`, one
`System.run`, one `prefix_of`), never on a per-instruction or per-rule
function, so its cost stays small next to the work it measures.
``obs.enable()`` is never called: it would switch the machine and the
Kami scheduler to their instrumented loops, a different program.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer key -> the self-time metric it feeds.
SELF_METRICS = {
    "riscv": "riscv.self_s",
    "kami": "kami.self_s",
    "traces.prefix": "traces.prefix_self_s",
    "traces.online": "traces.online_self_s",
    "compiler": "compiler.self_s",
    "analysis.binlint": "analysis.binlint_self_s",
    "analysis.wcet": "analysis.wcet_self_s",
    "analysis.prescreen": "analysis.prescreen_self_s",
    "bedrock2.vcgen": "bedrock2.vcgen_self_s",
    "bedrock2.interp": "bedrock2.interp_self_s",
    "logic": "logic.self_s",
    "net": "net.self_s",
    "fuzz.gen": "fuzz.gen_self_s",
    "fuzz": "fuzz.self_s",
    "core": "core.self_s",
    "sw": "sw.self_s",
}


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, layer key) for every patched entry point.

    A function imported by name into another module is patched in each
    namespace its callers look it up in (``from x import f`` binds at
    import time)."""
    from repro import compiler
    from repro.analysis import binlint, prescreen, wcet
    from repro.bedrock2 import semantics, smallstep, vcgen
    from repro.compiler import pipeline
    from repro.core import end2end
    from repro.fuzz import generator, oracle
    from repro.kami.framework import System
    from repro.logic import solver
    from repro.net import fleet, node
    from repro.net.sim import Simulator
    from repro.riscv.machine import RiscvMachine
    from repro.sw import doorlock_spec, program, specs, verify
    from repro.traces.online import OnlineChecker
    from repro.traces.predicates import TracePred

    return [
        (RiscvMachine, "run", "riscv"),
        (System, "run", "kami"),
        (TracePred, "prefix_of", "traces.prefix"),
        (OnlineChecker, "check", "traces.online"),
        (pipeline, "compile_program", "compiler"),
        (compiler, "compile_program", "compiler"),
        (program, "compile_program", "compiler"),
        (node, "compile_program", "compiler"),
        (oracle, "compile_program", "compiler"),
        (binlint, "lint_image", "analysis.binlint"),
        (wcet, "analyze_timing", "analysis.wcet"),
        (prescreen.Prescreener, "__call__", "analysis.prescreen"),
        (vcgen, "verify_function", "bedrock2.vcgen"),
        (verify, "verify_function", "bedrock2.vcgen"),
        (semantics, "run_function", "bedrock2.interp"),
        (smallstep, "run_function_smallstep", "bedrock2.interp"),
        (oracle, "run_function", "bedrock2.interp"),
        (oracle, "run_function_smallstep", "bedrock2.interp"),
        (solver, "check_valid", "logic"),
        (fleet, "run_fleet", "net"),
        (Simulator, "run_until", "net"),
        (generator, "generate_program", "fuzz.gen"),
        (oracle, "generate_program", "fuzz.gen"),
        (oracle, "run_fuzz_seed", "fuzz"),
        (end2end, "run_end_to_end", "core"),
        (verify, "run_verify_task", "sw"),
        (specs, "good_hl_trace", "sw"),
        (end2end, "good_hl_trace", "sw"),
        (node, "good_hl_trace", "sw"),
        (doorlock_spec, "good_lock_trace", "sw"),
        (node, "good_lock_trace", "sw"),
    ]


class LayerTracer:
    """Spans and per-layer self time for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # (span id, parent id or None, layer key, start s, end s)
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span id, layer key, start, child s]
        self._ids = itertools.count()
        self._saved: List[Tuple[object, str, object]] = []
        self._online_seen: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    # -- spans ----------------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._stack.append([next(self._ids), key, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, key, start, child = self._stack.pop()
        duration = end - start
        self.self_s[key] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, key, start, end))

    def root_s(self) -> float:
        """Total duration of the outermost spans."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent is None)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, key: str, fn: Callable) -> Callable:
        count = self._counter(key)

        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str) -> Callable:
        """Work counts taken at the same boundary as the span."""
        counts = self.counts

        def calls(args, result) -> None:
            counts[key + ".calls"] += 1

        if key == "kami":
            def kami(args, result) -> None:
                counts["kami.calls"] += 1
                counts["kami.steps"] += result
            return kami
        if key == "traces.prefix":
            def prefix(args, result) -> None:
                counts["traces.prefix.calls"] += 1
                counts["traces.events_scanned"] += len(args[1])
            return prefix
        if key == "traces.online":
            seen = self._online_seen

            def online(args, result) -> None:
                checker, trace = args[0], args[1]
                counts["traces.online.calls"] += 1
                counts["traces.online_events"] += (len(trace)
                                                   - seen.get(checker, 0))
                seen[checker] = len(trace)
            return online
        return calls

    def _wrap_riscv(self, fn: Callable) -> Callable:
        counts = self.counts

        def run(machine, *args, **kwargs):
            before = machine.instret
            self._enter("riscv")
            try:
                return fn(machine, *args, **kwargs)
            finally:
                self._exit()
                counts["riscv.calls"] += 1
                counts["riscv.instret"] += machine.instret - before

        run.__wrapped__ = fn
        return run

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attr, key in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = (self._wrap_riscv(original) if key == "riscv"
                       else self._wrap(key, original))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- export ---------------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write the spans as Chrome-trace B/E events (the format
        ``python -m repro report --trace`` renders); returns the span
        count. Span ids follow entry order, so replaying them with a
        stack reproduces the exact nesting."""
        origin = min((start for _, _, _, start, _ in self.spans), default=0.0)
        pid = os.getpid()

        def event(span, ph: str) -> str:
            span_id, parent, key, start, end = span
            return json.dumps({
                "name": key, "cat": key.split(".")[0], "ph": ph,
                "ts": ((start if ph == "B" else end) - origin) * 1e6,
                "pid": pid, "tid": 1,
                "args": {"id": span_id, "parent": parent,
                         "run": self.run_id}}) + "\n"

        with open(path, "w") as fh:
            open_spans: List[tuple] = []
            for span in sorted(self.spans):
                while open_spans and open_spans[-1][0] != span[1]:
                    fh.write(event(open_spans.pop(), "E"))
                fh.write(event(span, "B"))
                open_spans.append(span)
            while open_spans:
                fh.write(event(open_spans.pop(), "E"))
        return len(self.spans)
