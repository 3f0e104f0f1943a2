"""Streaming prefix checking: the end-to-end theorem at every cut.

`TracePred.prefix_of` re-derives every parse of a trace from scratch.
`OnlineChecker` decides the same relation for every prefix of a growing
trace, one event at a time, by derivatives with environments (Brzozowski
1964; Might, Darais & Spiewak, *Parsing with Derivatives*, ICFP 2011).

It holds a deduplicated set of live configurations: a continuation (a
linked stack of pending predicates and ``Star``/``RepeatN`` frames) plus
the environment captured so far. An event expands each configuration
through the zero-width nodes to the ``Step`` nodes that could consume it
and runs each distinct ``Step.fn`` once. Guards run only when the next
event arrives, which is ``partial``'s permissiveness at the end of a
trace. After ``n > 0`` events the verdict is "the live set is non-empty";
the empty trace is decided by ``partial`` itself, at constant cost.
``Exists``/``RepeatN`` bodies are built once per (node, value), shared by
every checker of one spec object. `tests/test_streaming_matcher.py` holds
the verdicts equal to the residual engine, the trusted reference.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from .. import obs
from .predicates import (Concat, Epsilon, Event, Exists, Guard, Never,
                         RepeatN, Star, Step, Trace, TracePred, Union)

_EVENTS_MATCHED = obs.counter("traces.events_matched")
_LIVE_PEAK = obs.gauge("traces.live_peak")

# Continuation frames: re-enter a ``Star`` after a body iteration, and
# ``(_REPEAT, node, i, count)`` for iteration ``i`` of a ``RepeatN``.
_LOOP, _REPEAT = "loop", "repeat"

_BODIES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _body(node, value) -> TracePred:
    bodies = _BODIES.setdefault(node, {})
    if value not in bodies:
        build = node.body if type(node) is Exists else node.body_fn
        bodies[value] = build(value)
    return bodies[value]


class OnlineChecker:
    """``spec.prefix_of`` over a monotonically growing trace.

    ``check(trace)`` must be called with the same logical trace as before,
    possibly extended (fleet nodes pass the machine's live trace list).
    Passing a shorter trace raises: its events are already consumed.
    """

    def __init__(self, spec: TracePred):
        self.spec = spec
        self._checked = 0
        # After the spec comes Never: once it is complete, nothing follows.
        self._live: List[Tuple[tuple, dict]] = [((spec, (Never(), None)), {})]

    def check(self, trace: Trace) -> bool:
        """Equivalent to ``spec.prefix_of(trace)``; costs one matcher step
        per event added since the previous call."""
        n = len(trace)
        if n < self._checked:
            raise ValueError("trace shrank: OnlineChecker requires a "
                             "monotonically growing trace")
        if n > self._checked:
            _EVENTS_MATCHED.inc(n - self._checked)
            live, peak = self._live, _LIVE_PEAK.value
            for index in range(self._checked, n):
                live = _step(live, trace[index]) if live else live
                peak = max(peak, len(live))
            self._live, self._checked = live, n
            _LIVE_PEAK.set(peak)
        return bool(self._live) if n else self.spec.partial([], 0, {})


def _step(live: List[Tuple[tuple, dict]], event: Event) -> list:
    """The live set after ``event``."""
    heads: Dict[tuple, tuple] = {}
    fresh: Dict[int, tuple] = {}  # loop frames pushed for this event
    stack = list(live)
    while stack:
        cont, env = stack.pop()
        item, rest = cont
        while type(item) is Concat:
            item, rest = item.first, (item.second, rest)
        kind = type(item)
        if kind is Step:
            heads.setdefault((item, rest, frozenset(env.items())),
                             (item, rest, env))
        elif kind is Union:
            stack.extend(((arm, rest), env) for arm in item.arms)
        elif kind is Star:
            loop = ((_LOOP, item), rest)
            fresh[id(loop)] = loop
            stack += [(rest, env), ((item.body, loop), env)]
        elif kind is tuple and item[0] is _LOOP:
            # A body iteration must consume events: reaching its loop
            # frame again before this event means it consumed none.
            if id(cont) not in fresh:
                stack.append(((item[1], rest), env))
        elif kind is tuple:
            _, node, i, count = item
            stack.append((rest if i == count else (
                _body(node, i), ((_REPEAT, node, i + 1, count), rest)), env))
        elif kind is Exists:
            stack.extend(((_body(item, value), rest),
                          dict(env, **{item.name: value}))
                         for value in item.domain)
        elif kind is RepeatN:
            stack.append((((_REPEAT, item, 0, item.count_fn(env)), rest),
                          env))
        elif kind is Epsilon:
            stack.append((rest, env))
        elif isinstance(item, Guard):  # subclasses may rebind the env
            stack.extend((rest, env1)
                         for _, env1 in item.residuals((), 0, env))
        elif kind is not Never:
            raise TypeError("cannot step %s" % kind.__name__)
    out: Dict[tuple, tuple] = {}
    for step, rest, env in heads.values():
        env1 = step.fn(event, env)
        if env1 is not None:
            out.setdefault((rest, frozenset(env1.items())), (rest, env1))
    return list(out.values())
