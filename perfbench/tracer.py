"""Span tracing around the public entry points of each layer.

The tracer patches the program from the outside: it swaps each listed
function or method for a wrapper that records a span, and puts the
originals back when it is closed.  Nothing under ``src/`` knows it is
being traced.

A span has a name, a host start and end, its parent span and the id of
the mission it ran in.  Generator entry points (``deploy_ftm_pair``,
``Client.request``, ``Component.call``, ``AdaptationEngine.transition``,
``ScriptInterpreter.execute``) run in many slices as the event loop
resumes them; the wrapper times each resume on the host and records the
simulated clock (``world.now``) at the first and last resume.

Self time is measured online with a stack of open frames: a frame's
self time is its duration minus the part its child frames cover.
Whatever the event loop runs outside every wrapper lands in the
innermost open frame, which is ``run_solo`` for mission code: that is
the ``kernel`` layer.

Per-mission counters (events by source, network messages, trace
records, simulated time) are read in the
``release_world`` wrapper, *before* the original runs: ``World.trim``
empties the trace when the world goes back to its arena.
"""

from __future__ import annotations

import sys
import time
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional

#: Which layer each span's self time is charged to.
SPAN_LAYER = {
    "exp.run": "exp",
    "ResultStore.load_cells": "exp",
    "ResultStore.load_cell": "exp",
    "ResultStore.save_cell": "exp",
    "cell_hash": "exp",
    "run_solo": "kernel",
    "lease_world": "kernel",
    "release_world": "kernel",
    "deploy_ftm_pair": "ftm",
    "Client.request": "ftm",
    "Component.call": "components",
    "AdaptationEngine.transition": "core",
    "MonitoringEngine.emit": "core",
    "ScriptInterpreter.execute": "script",
    "FleetResilienceManager.evaluate_once": "fleet",
}

#: Layers in the order the Amdahl table lists them.
LAYERS = ("kernel", "components", "ftm", "core", "script", "fleet", "exp")


class Span:
    """One traced call: host interval, simulated interval, parent, mission."""

    __slots__ = ("sid", "name", "parent", "mission", "start", "end",
                 "sim_start", "sim_end", "host", "self_host", "resumes",
                 "outcome")

    def __init__(self, sid: int, name: str, parent: int, mission: int,
                 start: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.mission = mission
        self.start = start
        self.end = start
        self.sim_start: Optional[float] = None
        self.sim_end: Optional[float] = None
        self.host = 0.0       # inclusive host seconds (sum over resumes)
        self.self_host = 0.0  # host seconds not covered by child frames
        self.resumes = 0
        self.outcome: Any = None

    def as_row(self) -> Dict[str, Any]:
        """A JSON-safe record of the span (times in host seconds)."""
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "mission": self.mission, "start": self.start, "end": self.end,
            "sim_start": self.sim_start, "sim_end": self.sim_end,
            "host_s": self.host, "self_s": self.self_host,
            "resumes": self.resumes,
        }


class MissionCounters:
    """Kernel counters of one mission, read before its world is trimmed."""

    __slots__ = ("events", "messages_sent", "messages_dropped",
                 "trace_records", "sim_ms", "clients")

    def __init__(self) -> None:
        self.events: Dict[str, int] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.trace_records = 0
        self.sim_ms = 0.0
        self.clients: Dict[int, Any] = {}


class Tracer:
    """Patches the layer entry points and records spans until closed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missions: List[MissionCounters] = []
        self.mission = -1
        self._stack: List[List[Any]] = []  # [span, t0, child_seconds]
        self._restore: List[Callable[[], None]] = []
        self._clock = time.perf_counter

    # -- frames ------------------------------------------------------------

    def _open(self, span: Span) -> List[Any]:
        frame = [span, self._clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any]) -> None:
        end = self._clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span frames closed out of order")
        span, start, child = frame
        duration = end - start
        span.host += duration
        span.self_host += duration - child
        span.resumes += 1
        span.end = end
        if self._stack:
            self._stack[-1][2] += duration

    def _new_span(self, name: str) -> Span:
        parent = self._stack[-1][0].sid if self._stack else -1
        span = Span(len(self.spans), name, parent, self.mission,
                    self._clock())
        self.spans.append(span)
        return span

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, original: Callable,
                   before: Optional[Callable] = None,
                   after: Optional[Callable] = None) -> Callable:
        """A wrapper timing a plain (non-generator) call as one frame."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = tracer._new_span(name)
            frame = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.outcome = exc
                raise
            finally:
                tracer._close(frame)
            span.outcome = result
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def _wrap_gen(self, name: str, original: Callable,
                  clock_of: Callable[[tuple], Any],
                  before: Optional[Callable] = None) -> Callable:
        """A wrapper timing every resume of a generator entry point."""
        tracer = self

        def drive(gen, clock):
            span = None
            value = None
            pending: Optional[BaseException] = None
            while True:
                if span is None:
                    span = tracer._new_span(name)
                    span.sim_start = clock.now
                frame = tracer._open(span)
                try:
                    if pending is None:
                        out = gen.send(value)
                    else:
                        exc, pending = pending, None
                        out = gen.throw(exc)
                except StopIteration as stop:
                    tracer._close(frame)
                    span.sim_end = clock.now
                    span.outcome = stop.value
                    return stop.value
                except BaseException as exc:
                    tracer._close(frame)
                    span.sim_end = clock.now
                    span.outcome = exc
                    raise
                tracer._close(frame)
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded like ``yield from``
                    pending = exc
                    value = None

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            gen = original(*args, **kwargs)
            if type(gen) is not GeneratorType:
                return gen
            return drive(gen, clock_of(args))

        return traced

    # -- patching ----------------------------------------------------------

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind every module-level name bound to ``original``.

        Functions imported with ``from x import f`` live on under the
        importer's name too, so every loaded ``repro`` module is scanned.
        """
        bound = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, replacement)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def install(self) -> None:
        """Wrap every layer entry point the benchmark traces."""
        from repro import exp
        from repro.components.model import Component
        from repro.core.adaptation_engine import AdaptationEngine
        from repro.core.monitoring import MonitoringEngine
        from repro.exp import spec as spec_mod
        from repro.exp.store import ResultStore
        from repro.fleet.manager import FleetResilienceManager
        from repro.ftm.client import Client
        from repro.ftm.factory import deploy_ftm_pair
        from repro.kernel import coschedule
        from repro.script.interpreter import ScriptInterpreter

        self._patch_function(exp.run, self._wrap_call("exp.run", exp.run))
        self._patch_function(
            spec_mod.cell_hash, self._wrap_call("cell_hash", spec_mod.cell_hash)
        )
        for method in ("load_cells", "load_cell", "save_cell"):
            self._patch_attr(ResultStore, method, self._wrap_call(
                f"ResultStore.{method}", ResultStore.__dict__[method]
            ))
        self._patch_function(coschedule.run_solo, self._wrap_call(
            "run_solo", coschedule.run_solo
        ))
        self._patch_function(coschedule.lease_world, self._wrap_call(
            "lease_world", coschedule.lease_world,
            before=self._begin_mission,
        ))
        self._patch_function(coschedule.release_world, self._wrap_call(
            "release_world", coschedule.release_world,
            before=self._read_mission, after=self._end_mission,
        ))
        self._patch_function(deploy_ftm_pair, self._wrap_gen(
            "deploy_ftm_pair", deploy_ftm_pair, lambda args: args[0]
        ))
        self._patch_attr(Client, "request", self._wrap_gen(
            "Client.request", Client.__dict__["request"],
            lambda args: args[0].world, before=self._note_client,
        ))
        self._patch_attr(Component, "call", self._wrap_gen(
            "Component.call", Component.__dict__["call"],
            lambda args: args[0].sim,
        ))
        self._patch_attr(AdaptationEngine, "transition", self._wrap_gen(
            "AdaptationEngine.transition",
            AdaptationEngine.__dict__["transition"],
            lambda args: args[0].world,
        ))
        self._patch_attr(MonitoringEngine, "emit", self._wrap_call(
            "MonitoringEngine.emit", MonitoringEngine.__dict__["emit"]
        ))
        self._patch_attr(ScriptInterpreter, "execute", self._wrap_gen(
            "ScriptInterpreter.execute", ScriptInterpreter.__dict__["execute"],
            lambda args: args[0].runtime.context.sim,
        ))
        self._patch_attr(FleetResilienceManager, "evaluate_once",
                         self._wrap_call(
                             "FleetResilienceManager.evaluate_once",
                             FleetResilienceManager.__dict__["evaluate_once"],
                         ))

    def close(self) -> None:
        """Put every original back (in reverse patch order)."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- mission bookkeeping -------------------------------------------------

    def _begin_mission(self, args: tuple, kwargs: dict) -> None:
        self.mission = len(self.missions)
        self.missions.append(MissionCounters())

    def _current(self) -> MissionCounters:
        if self.mission < 0:
            raise RuntimeError("mission work traced outside any lease")
        return self.missions[self.mission]

    def _note_client(self, args: tuple, kwargs: dict) -> None:
        client = args[0]
        self._current().clients[id(client)] = client

    def _read_mission(self, args: tuple, kwargs: dict) -> None:
        if self.mission < 0:
            return  # a repeated release: the counters were read already
        world = args[0]
        counters = self._current()
        counters.events = world.sim.events_by_source
        counters.messages_sent = world.network.messages_sent
        counters.messages_dropped = world.network.messages_dropped
        counters.trace_records = len(world.trace.records)
        counters.sim_ms = world.now

    def _end_mission(self, span: Span, args: tuple, result: Any) -> None:
        self.mission = -1

    # -- summaries -----------------------------------------------------------

    def by_name(self) -> Dict[str, List[Span]]:
        """Spans grouped by boundary name."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(span)
        return grouped

    def layer_self_seconds(self) -> Dict[str, float]:
        """Host self time charged to each layer."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            totals[SPAN_LAYER[span.name]] += span.self_host
        return totals
