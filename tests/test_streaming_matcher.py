"""Differential test: the streaming matcher against the residual engine.

`OnlineChecker` (repro.traces.online) must give ``spec.prefix_of``'s
verdict at every truncation of a trace. The residual engine in
`repro.traces.predicates` is the trusted reference. The traces are the
seed-1 end-to-end ISA and p4mm traces, a lightbulb and a doorlock fleet
node, the dead-device and flaky-device traces of the failure-arm tests,
200 seeded single-event mutants of the end-to-end traces, and
small-alphabet combinator edge cases.

Small traces are compared at every cut directly. On long traces one
`prefix_of` per cut would cost minutes, so the comparison uses that both
verdict sequences are monotone: a prefix of a prefix is a prefix (the
matcher's live set only shrinks; `prefix_of` is checked against brute
force in ``test_trace_predicates``). Each sequence is then a run of True
followed by a run of False, and the two agree at every cut exactly when
`prefix_of` agrees at the last True cut and the first False one. Those
two cuts are checked, plus a spread sample of the others.
"""

import itertools
import random

import pytest

from repro.core.end2end import run_end_to_end
from repro.fuzz.generator import adversarial_frames
from repro.net.node import DOORLOCK, LIGHTBULB, Node, spec_for
from repro.platform.net import lightbulb_packet, truncated_packet
from repro.sw import constants as C
from repro.sw.doorlock import DEFAULT_PIN, lock_packet
from repro.sw.program import make_platform
from repro.traces.online import OnlineChecker
from repro.traces.predicates import (Epsilon, Exists, Guard, Never, RepeatN,
                                     Star, capture, ld, st, union)

from .test_spec_failure_arms import run_service, transient_failure_trace

LIGHTBULB_SPEC = spec_for(LIGHTBULB)
DOORLOCK_SPEC = spec_for(DOORLOCK)


def streaming_verdicts(spec, trace):
    """The checker's verdict after each of ``0 .. len(trace)`` events,
    fed one event per `check` call as end2end and fleet nodes feed it."""
    checker, seen = OnlineChecker(spec), []
    verdicts = [checker.check(seen)]
    for event in trace:
        seen.append(event)
        verdicts.append(checker.check(seen))
    return verdicts


def assert_every_cut(spec, trace):
    """One `prefix_of` per cut: for short traces."""
    verdicts = streaming_verdicts(spec, trace)
    for cut, verdict in enumerate(verdicts):
        assert verdict == spec.prefix_of(trace[:cut]), (cut, trace[:cut])


def assert_agrees(spec, trace, checked_head=-1, samples=6):
    """Agreement at every cut, through monotonicity (module docstring).
    Cuts up to ``checked_head`` are cuts of a trace already checked (a
    mutant's unmutated head). Returns the last cut the spec accepts."""
    verdicts = streaming_verdicts(spec, trace)
    accepted = verdicts.index(False) - 1 if False in verdicts \
        else len(trace)
    assert not any(verdicts[accepted + 1:]), "streaming verdicts not monotone"
    assert accepted >= checked_head
    cuts = {accepted} if accepted > checked_head else set()
    if accepted < len(trace):
        cuts.add(accepted + 1)
    cuts.update(range(0, len(trace) + 1, max(1, len(trace) // samples))
                if samples else ())
    for cut in sorted(cuts):
        assert spec.prefix_of(trace[:cut]) == verdicts[cut], cut
    return accepted


# -- real traces ----------------------------------------------------------------


@pytest.fixture(scope="module")
def end2end_traces():
    """The seed-1 theorem legs: the adversarial stream of seed 1, one
    frame per checkpoint from a cut where each leg's NIC is receiving."""
    stream = adversarial_frames(1, 4)
    traces = {}
    for processor, units, first in (("isa", 24_000, 8),
                                    ("p4mm", 70_000, 22)):
        result = run_end_to_end(
            frames=[(first + i, frame) for i, frame in enumerate(stream)],
            processor=processor, max_units=units)
        assert result.ok, result.detail
        traces[processor] = result.trace
    return traces


@pytest.mark.parametrize("processor", ["isa", "p4mm"])
def test_end2end_traces(end2end_traces, processor):
    trace = end2end_traces[processor]
    assert assert_agrees(LIGHTBULB_SPEC, trace, samples=12) == len(trace)
    assert_every_cut(LIGHTBULB_SPEC, trace[:100])


def node_trace(kind, frames):
    node = Node(0, kind)
    node.run(20_000)
    for frame in frames:
        node.deliver(frame)
        node.run(10_000)
    return list(node.machine.trace)


def test_lightbulb_node_trace():
    trace = node_trace(LIGHTBULB, [lightbulb_packet(True),
                                   truncated_packet()])
    assert assert_agrees(LIGHTBULB_SPEC, trace) == len(trace)


def test_doorlock_node_trace():
    trace = node_trace(DOORLOCK, [lock_packet(DEFAULT_PIN, True),
                                  lock_packet(DEFAULT_PIN + 1, False)])
    assert assert_agrees(DOORLOCK_SPEC, trace) == len(trace)
    # The same trace against the lightbulb spec: the lock pin's GPIO
    # enable is out of spec from the first event on.
    assert assert_agrees(LIGHTBULB_SPEC, trace) == 0


def test_dead_device_trace():
    plat = make_platform()
    plat.spi.rx_latency = 10**9
    trace = run_service(plat)[2]
    assert assert_agrees(LIGHTBULB_SPEC, trace) == len(trace)


def test_flaky_device_trace():
    trace = transient_failure_trace()
    assert assert_agrees(LIGHTBULB_SPEC, trace) == len(trace)


# -- mutants --------------------------------------------------------------------


def mutate(trace, rng, addresses):
    """One seeded single-event mutation; returns the mutant and the
    length of its head shared with ``trace``."""
    pos = rng.randrange(len(trace))
    kind, addr, value = trace[pos]
    how = rng.choice(["bit", "swap", "addr", "drop", "dup"])
    if how == "drop":
        return trace[:pos] + trace[pos + 1:], pos
    if how == "dup":
        return trace[:pos + 1] + trace[pos:], pos + 1
    if how == "bit":
        event = (kind, addr, value ^ (1 << rng.randrange(32)))
    elif how == "swap":
        event = ("st" if kind == "ld" else "ld", addr, value)
    else:
        event = (kind, rng.choice([a for a in addresses if a != addr]),
                 value)
    return trace[:pos] + [event] + trace[pos + 1:], pos


def test_single_event_mutants(end2end_traces):
    rng = random.Random(2021)
    rejected = 0
    for trace in end2end_traces.values():
        addresses = sorted({addr for _, addr, _ in trace})
        for _ in range(100):
            mutant, head = mutate(trace, rng, addresses)
            accepted = assert_agrees(LIGHTBULB_SPEC, mutant,
                                     checked_head=head, samples=0)
            rejected += accepted < len(mutant)
    # Most single-event mutants leave the spec (some, such as an extra
    # busy poll, are legal traces).
    assert rejected > 100


# -- combinator edge cases over a small alphabet ----------------------------------

ALPHABET = [("ld", 1, 0), ("ld", 1, 3), ("st", 2, 0), ("st", 2, 1)]


def all_traces(max_len):
    return [list(events) for n in range(max_len + 1)
            for events in itertools.product(ALPHABET, repeat=n)]


EDGE_SPECS = {
    "never": Never(),
    "never after a step": ld(1) + Never(),
    "epsilon then never": Epsilon() + Never(),
    "union of nothing": union(),
    "empty exists domain": Exists("x", (), lambda v: ld(1)),
    "empty exists in a loop": Star(st(2) + Exists("x", (), lambda v: ld(1))),
    "repeat zero times": RepeatN(lambda env: 0, lambda i: ld(1)) + st(2),
    "repeat a captured count": ld(1, capture("n"))
    + RepeatN(lambda env: env["n"], lambda i: st(2)) + ld(1),
    "guard at the end": st(2) + Guard(lambda env: False),
    "guard on a capture": ld(1, capture("v"))
    + Guard(lambda env: env["v"] == 3) + st(2),
    "guard before anything": Guard(lambda env: False) + ld(1),
    "star of a nullable body": Star(union(Epsilon(), ld(1))) + st(2),
    "exists binding a guard": Star(Exists("b", (0, 1), lambda b: st(
        2, lambda v, env: env if v == env["b"] else None))),
}


@pytest.mark.parametrize("name", sorted(EDGE_SPECS))
def test_combinator_edge_cases(name):
    spec = EDGE_SPECS[name]
    for trace in all_traces(4):
        assert_every_cut(spec, trace)


# -- the device-fail drain arm ---------------------------------------------------

FLAG = 1 << 31


def xchg(byte, rx=0):
    return [("ld", C.SPI_TXDATA_ADDR, 0), ("st", C.SPI_TXDATA_ADDR, byte),
            ("ld", C.SPI_RXDATA_ADDR, rx)]


def readword(addr, word):
    events = [("st", C.SPI_CSMODE_ADDR, C.CSMODE_HOLD)]
    for byte in (C.CMD_FAST_READ, addr >> 8, addr & 0xFF, 0):
        events += xchg(byte)
    for i in range(4):
        events += xchg(0, (word >> (8 * i)) & 0xFF)
    return events + [("st", C.SPI_CSMODE_ADDR, C.CSMODE_AUTO)]


def drain_fail_trace(length):
    """Boot, then a frame of ``length`` bytes whose first data-FIFO read
    times out after the address: only DeviceFail's drain arm covers it,
    and only while fewer than ceil(length/4) words were read. Returns
    the trace and where the failing read starts."""
    plat = make_platform()
    head = (run_service(plat, loops=0)[2]
            + readword(C.LAN_RX_FIFO_INF, 1 << 16)
            + readword(C.LAN_RX_STATUS_FIFO, length << 16))
    failing = ([("st", C.SPI_CSMODE_ADDR, C.CSMODE_HOLD)]
               + xchg(C.CMD_FAST_READ) + xchg(C.LAN_RX_DATA_FIFO >> 8)
               + xchg(C.LAN_RX_DATA_FIFO & 0xFF)
               + [("ld", C.SPI_TXDATA_ADDR, FLAG)] * C.SPI_PATIENCE
               + [("st", C.SPI_CSMODE_ADDR, C.CSMODE_AUTO)])
    return head + failing, len(head)


@pytest.mark.parametrize("length", [0, 4])
def test_drain_fail_arm(length):
    trace, failing_read = drain_fail_trace(length)
    accepted = assert_agrees(LIGHTBULB_SPEC, trace)
    if length:
        assert accepted == len(trace)
    else:
        assert failing_read < accepted < len(trace)


def random_spec(rng, depth):
    """A random predicate over ALPHABET mixing every combinator, with
    captures that later guards, counts and bodies depend on."""
    choice = rng.randrange(12 if depth else 4)
    if choice < 3:
        kind, addr = rng.choice([("ld", 1), ("st", 2)])
        return (ld if kind == "ld" else st)(
            addr, capture("x") if choice == 0 else None)
    if choice == 3:
        return rng.choice([Epsilon(), Never(),
                           Guard(lambda env: env.get("x", 0) % 2 == 0)])
    parts = [random_spec(rng, depth - 1) for _ in range(3)]
    if choice < 6:
        return parts[0] + parts[1]
    if choice < 8:
        return union(*parts[:rng.randrange(4)])
    if choice < 10:
        return Star(parts[0])
    if choice == 10:
        return Exists("y", rng.choice([(), (0,), (0, 1)]),
                      lambda v: parts[v])
    return RepeatN(lambda env: (env.get("x", 0) + 1) % 3,
                   lambda i: parts[i])


def test_random_specs():
    rng = random.Random(1964)
    for _ in range(2000):
        spec = random_spec(rng, 3)
        trace = [rng.choice(ALPHABET) for _ in range(rng.randrange(7))]
        assert_every_cut(spec, trace)
