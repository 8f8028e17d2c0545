"""Per-layer metrics and the Amdahl table, derived from one traced run.

Counts are taken over the fixed traced iterations only, so they repeat
exactly for a seed; host times vary from run to run and are reported,
never gated.  ``per_layer`` returns the two kinds apart.  A layer that
does no work on a workload reports 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from tracer import LAYERS, Tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (0 < q <= 100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def check_tracer(tracer: Tracer, boundaries: Sequence[str],
                 executed: int, events: Dict[str, int]) -> List[str]:
    """Problems that make a traced run's numbers untrustworthy."""
    problems: List[str] = []
    counts = {name: len(spans) for name, spans in tracer.by_name().items()}
    for name in boundaries:
        if counts.get(name, 0) == 0:
            problems.append(f"boundary {name} never fired")
    if len(tracer.missions) != executed:
        problems.append(
            f"{len(tracer.missions)} leases traced, {executed} missions run"
        )
    traced_events: Dict[str, int] = {}
    for mission in tracer.missions:
        if mission.trace_records == 0:
            problems.append("a mission released an empty trace")
            break
        for key, value in mission.events.items():
            traced_events[key] = traced_events.get(key, 0) + value
    if executed and traced_events != events:
        problems.append(
            f"events read at release {traced_events} != runner {events}"
        )
    return problems


def per_layer(tracer: Tracer, executed: int, events: Dict[str, int],
              arena: Dict[str, int], store_roots: Sequence[str],
              contention: float
              ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every per-layer metric of one traced run, as (counts, host
    timings): counts repeat exactly for a seed, timings do not."""
    from repro.script.errors import ScriptException

    spans = tracer.by_name()

    def named(name: str) -> list:
        return spans.get(name, [])

    missions = executed
    total_events = sum(events.values())
    root = sum(s.host for s in named("exp.run"))
    layer_self = tracer.layer_self_seconds()
    m: Dict[str, float] = {}  # counts
    h: Dict[str, float] = {}  # host timings

    # kernel
    m["kernel.events_per_mission"] = _ratio(total_events, missions)
    for source in ("heartbeat", "timer", "request", "fault"):
        m[f"kernel.events.{source}"] = _ratio(events.get(source, 0), missions)
    h["kernel.host_us_per_event"] = _ratio(
        layer_self["kernel"] * 1e6, total_events
    )
    sent = sum(c.messages_sent for c in tracer.missions)
    m["kernel.messages_per_mission"] = _ratio(sent, missions)
    m["kernel.messages_dropped_frac"] = _ratio(
        sum(c.messages_dropped for c in tracer.missions), sent
    )
    m["kernel.trace_records_per_mission"] = _ratio(
        sum(c.trace_records for c in tracer.missions), missions
    )
    m["kernel.sim_s_per_mission"] = _ratio(
        sum(c.sim_ms for c in tracer.missions) / 1000.0, missions
    )
    m["kernel.arena_hit_ratio"] = _ratio(
        arena["hits"], arena["hits"] + arena["misses"]
    )

    # components
    requests = named("Client.request")
    calls = named("Component.call")
    m["components.calls_per_request"] = _ratio(len(calls), len(requests))
    h["components.call_host_us"] = _mean([s.self_host * 1e6 for s in calls])

    # ftm
    deploys = named("deploy_ftm_pair")
    m["ftm.deploys_per_mission"] = _ratio(len(deploys), missions)
    h["ftm.deploy_host_ms"] = _mean([s.host * 1e3 for s in deploys])
    retransmissions = sum(
        client.retransmissions
        for c in tracer.missions for client in c.clients.values()
    )
    m["ftm.client_attempts_per_request"] = _ratio(
        len(requests) + retransmissions, len(requests)
    )
    request_sim = [s.sim_end - s.sim_start for s in requests
                   if s.sim_end is not None]
    m["ftm.request_sim_ms_p50"] = percentile(request_sim, 50)
    m["ftm.request_sim_ms_p99"] = percentile(request_sim, 99)

    # core
    transitions = named("AdaptationEngine.transition")
    reports = [s.outcome for s in transitions
               if getattr(s.outcome, "success", False)]
    m["core.transitions_per_mission"] = _ratio(len(transitions), missions)
    m["core.transition_ok_ratio"] = _ratio(len(reports), len(transitions))
    m["core.transition_sim_ms"] = _mean([r.per_replica_ms for r in reports])
    h["core.transition_host_ms"] = _mean([s.host * 1e3 for s in transitions])
    m["core.triggers_per_mission"] = _ratio(
        len(named("MonitoringEngine.emit")), missions
    )

    # script
    scripts = named("ScriptInterpreter.execute")
    m["script.runs_per_transition"] = _ratio(len(scripts), len(transitions))
    m["script.rollbacks"] = float(sum(
        1 for s in scripts if isinstance(s.outcome, ScriptException)
    ))
    h["script.host_ms"] = _mean([s.host * 1e3 for s in scripts])

    # fleet
    evaluations = named("FleetResilienceManager.evaluate_once")
    m["fleet.evaluations_per_mission"] = _ratio(len(evaluations), missions)
    h["fleet.evaluate_host_us"] = _mean([s.host * 1e6 for s in evaluations])
    m["fleet.contention_decisions_per_mission"] = _ratio(contention, missions)

    # exp
    mission_host: Dict[int, float] = {}
    for name in ("lease_world", "run_solo"):
        for s in named(name):
            mission_host[s.mission] = mission_host.get(s.mission, 0.0) + s.host
    h["exp.runner_overhead_share"] = _ratio(
        root - sum(mission_host.values()), root
    )
    gets = named("ResultStore.load_cell")
    h["exp.store_get_us"] = _mean([s.host * 1e6 for s in gets])
    h["exp.store_put_us"] = _mean(
        [s.host * 1e6 for s in named("ResultStore.save_cell")]
    )
    m["exp.store_hit_ratio"] = _ratio(
        sum(1 for s in gets if s.outcome is not None), len(gets)
    )
    h["exp.cell_hash_us"] = _mean([s.host * 1e6 for s in named("cell_hash")])
    m["exp.bytes_per_cell"] = _cell_bytes(store_roots)

    for layer in LAYERS:
        h[f"{layer}.self_share"] = _ratio(layer_self[layer], root)

    # eval
    per_mission_ms = [host * 1e3 for host in mission_host.values()]
    h["eval.mission_host_ms_p50"] = percentile(per_mission_ms, 50)
    h["eval.mission_host_ms_p95"] = percentile(per_mission_ms, 95)
    m["eval.mission_samples"] = float(len(per_mission_ms))
    m["trace.spans"] = float(len(tracer.spans))
    return m, h


def _cell_bytes(store_roots: Sequence[str]) -> float:
    """Mean size of the cell files (manifests excluded) in the stores."""
    from repro.exp.store import MANIFEST_NAME

    sizes = [
        path.stat().st_size
        for root in store_roots
        for path in Path(root).rglob("*.json")
        if path.name != MANIFEST_NAME
    ]
    return _ratio(sum(sizes), len(sizes))


def amdahl(shares: Dict[str, float]) -> List[Dict[str, float]]:
    """Each layer's self-time share and the speed-up if it cost nothing."""
    rows = []
    for layer in LAYERS:
        share = shares[f"{layer}.self_share"]
        ceiling = 1.0 / (1.0 - share) if share < 1.0 else None
        rows.append({"layer": layer, "share": share, "ceiling": ceiling})
    return rows

