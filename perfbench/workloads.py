"""The benchmark's four workloads over the shipped experiment specs.

Every workload runs specs through ``repro.exp.run(spec, jobs=1,
store=...)``: one process, the inline serial path, every other option
at its default.  The load is a closed loop: one iteration (one or two
``exp.run`` calls) starts when the previous one has finished.

A workload has ``fixed_iterations`` slots.  Slot ``k`` of a run with
seed ``s`` uses ``base_seed = FAMILY_BASE + 1_000_000 * s + 10_000 * k``,
so one seed always gives the same inputs and no two slots share a
mission.  A run repeats passes over the slots, each iteration in a
fresh store; the simulated metrics and the traced run's counts are
taken over the first pass, which is what makes them repeat for a seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import exp
from repro.eval import campaign, fleet_campaign, gray, transition_matrix
from repro.kernel import clear_world_arena, release_world

#: blake2b(digest_size=16) of no input: the digest of an empty trace.
EMPTY_TRACE_DIGEST = "cae66941d9efbd404e4d88758ea67670"


def base_seed(family_base: int, seed: int, slot: int) -> int:
    """The ``base_seed`` a family's spec gets in one slot."""
    return family_base + 1_000_000 * seed + 10_000 * slot


@dataclass
class Iteration:
    """What one closed-loop iteration did and whether its outputs hold."""

    host_s: float = 0.0
    ref_s: float = 0.0         # host_s on the reference host (calibrate.py)
    missions: int = 0          # missions whose results were delivered
    executed: int = 0          # missions simulated (0 when served warm)
    cells: int = 0
    problems: List[str] = field(default_factory=list)
    events: Dict[str, int] = field(default_factory=dict)
    sim: Dict[str, float] = field(default_factory=dict)

    def add_run(self, result: "exp.ExperimentResult", host_s: float,
                missions: int) -> None:
        """Fold one ``exp.run`` result into the iteration."""
        self.host_s += host_s
        self.missions += missions
        self.executed += result.executed
        self.cells += len(result.results)
        for key, value in result.events_by_source.items():
            self.events[key] = self.events.get(key, 0) + value


def timed_run(spec, store) -> Tuple["exp.ExperimentResult", float]:
    """``exp.run`` on the serial path, timed on the host."""
    start = time.perf_counter()
    result = exp.run(spec, jobs=1, store=store)
    return result, time.perf_counter() - start


def _missions_checks(it: Iteration, expected: int) -> None:
    """Checks every mission workload shares: work ran and was simulated."""
    if it.executed != expected:
        it.problems.append(
            f"simulated {it.executed} missions, expected {expected}"
        )
    if it.events.get("request", 0) <= 0:
        it.problems.append("no request events were simulated")


def _digest_checks(it: Iteration, cells: Dict[str, Any]) -> None:
    """Every mission's recorded trace digest is a real, non-empty trace."""
    for key, cell in cells.items():
        digests = cell.get("trace_digests", [])
        if not digests:
            it.problems.append(f"cell {key}: no trace digests recorded")
        if any(d == EMPTY_TRACE_DIGEST for d in digests):
            it.problems.append(f"cell {key}: empty-trace digest recorded")


class Workload:
    """One workload: set-up, one closed-loop iteration, output checks."""

    name = ""
    unit = "missions"
    family_base = 0
    #: Slots per pass (the first pass gives the simulated metrics and
    #: the traced counts).
    fixed_iterations = 1
    #: Span names that must fire in a traced run of this workload.
    boundaries: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Callable[[], str]):
        self.seed = seed
        self.scratch = scratch  # makes a fresh empty directory

    def setup(self) -> None:
        """Spec build and first arena lease (and store fill, for replay)."""
        for step in self.setup_steps():
            step()

    def setup_steps(self) -> List[Callable[[], None]]:
        """Set-up as steps short enough to time one by one."""

        def lease():
            clear_world_arena()
            release_world(self.first_task().world)

        return [lease]

    def first_task(self):
        """Lease this family's first world (the task itself never runs)."""
        raise NotImplementedError

    def iterate(self, index: int, store) -> Iteration:
        """Run slot ``index`` once into ``store`` and check its outputs."""
        raise NotImplementedError

    def sim_metrics(self, iterations: List[Iteration]) -> Dict[str, float]:
        """Simulated end-to-end metrics over the fixed iterations."""
        return {}

    def seed_for(self, index: int) -> int:
        """This workload's ``base_seed`` for slot ``index``."""
        return base_seed(self.family_base, self.seed, index)


class Campaign(Workload):
    """``eval.campaign.sharded_spec``: PBR+TR missions, cold store writes."""

    name = "campaign"
    family_base = 5000
    missions = 24
    cell_size = 8
    fixed_iterations = 4
    boundaries = (
        "exp.run", "ResultStore.load_cells", "ResultStore.load_cell",
        "ResultStore.save_cell", "cell_hash", "run_solo", "lease_world",
        "release_world", "deploy_ftm_pair", "Client.request",
        "Component.call", "AdaptationEngine.transition",
        "ScriptInterpreter.execute",
    )

    def spec(self, index: int):
        return campaign.sharded_spec(
            missions=self.missions, base_seed=self.seed_for(index),
            cell_size=self.cell_size,
        )

    def first_task(self):
        self.spec(0)
        return campaign.mission_task(self.seed_for(0))

    def iterate(self, index: int, store) -> Iteration:
        it = Iteration()
        result, host_s = timed_run(self.spec(index), store)
        it.add_run(result, host_s, self.missions)
        data = campaign.from_shard_results(result.results)
        it.problems.extend(campaign.shard_shape_checks(data))
        _missions_checks(it, self.missions)
        if data["missions"] != self.missions:
            it.problems.append(f"aggregated {data['missions']} missions")
        return it


class Gray(Workload):
    """``eval.gray.spec``: the full limplock matrix, one mission per cell."""

    name = "gray"
    family_base = 41_000
    fixed_iterations = 4
    boundaries = Campaign.boundaries + ("MonitoringEngine.emit",)

    def spec(self, index: int):
        return gray.spec(missions=1, base_seed=self.seed_for(index))

    def first_task(self):
        self.spec(0)
        return gray.gray_task(self.seed_for(0))

    def iterate(self, index: int, store) -> Iteration:
        spec = self.spec(index)
        it = Iteration()
        result, host_s = timed_run(spec, store)
        it.add_run(result, host_s, len(spec.trials))
        data = gray.from_results(result.results)
        it.problems.extend(gray.shape_checks(data))
        _missions_checks(it, len(spec.trials))
        _digest_checks(it, result.results)
        if data["sent"] <= 0:
            it.problems.append("gray clients sent no requests")
        cells = data["cells"].values()
        it.sim = {
            "sent": data["sent"], "ok": data["ok"],
            "post_requests": sum(c["post_requests"] for c in cells),
            "slo_misses": data["slo_misses"],
            "detect_sum_ms": sum(c["detection_latency_sum_ms"] for c in cells),
            "detect_count": sum(c["detection_latency_count"] for c in cells),
        }
        return it

    def sim_metrics(self, iterations: List[Iteration]) -> Dict[str, float]:
        total = _sum_sim(iterations)
        return {
            "request_fail_frac": (total["sent"] - total["ok"]) / total["sent"],
            "slo_miss_frac": total["slo_misses"] / total["post_requests"],
            "detect_ms": total["detect_sum_ms"] / total["detect_count"],
        }


class Fleet(Workload):
    """``eval.fleet_campaign.spec`` at 12 hosts x 4 apps, churn {0, 2}."""

    name = "fleet"
    family_base = 9000
    hosts = 12
    apps = 4
    fixed_iterations = 4
    boundaries = (
        "exp.run", "ResultStore.load_cells", "ResultStore.load_cell",
        "ResultStore.save_cell", "cell_hash", "run_solo", "lease_world",
        "release_world", "deploy_ftm_pair", "Client.request",
        "Component.call", "FleetResilienceManager.evaluate_once",
    )

    def spec(self, index: int):
        return fleet_campaign.spec(
            missions=1, base_seed=self.seed_for(index),
            hosts=self.hosts, apps=self.apps, churn_rates=(0, 2),
        )

    def first_task(self):
        self.spec(0)
        return fleet_campaign.fleet_task(
            self.seed_for(0), hosts=self.hosts, apps=self.apps
        )

    def iterate(self, index: int, store) -> Iteration:
        spec = self.spec(index)
        it = Iteration()
        result, host_s = timed_run(spec, store)
        it.add_run(result, host_s, len(spec.trials))
        data = fleet_campaign.from_results(result.results)
        it.problems.extend(fleet_campaign.shape_checks(data))
        _missions_checks(it, len(spec.trials))
        _digest_checks(it, result.results)
        it.sim = {
            "attempted": data["sent"] + data["dropped"], "ok": data["ok"],
            "contention": data["contention_decisions"],
        }
        return it

    def sim_metrics(self, iterations: List[Iteration]) -> Dict[str, float]:
        total = _sum_sim(iterations)
        return {
            "request_fail_frac":
                (total["attempted"] - total["ok"]) / total["attempted"],
        }


class Replay(Workload):
    """Warm re-runs of the transition-matrix and gray specs."""

    name = "replay"
    unit = "cells"
    family_base = 7000
    gray_base = 41_000
    fixed_iterations = 10
    boundaries = ("exp.run", "ResultStore.load_cells",
                  "ResultStore.load_cell", "cell_hash")

    def __init__(self, seed: int, scratch: Callable[[], str]):
        super().__init__(seed, scratch)
        self.store: Optional[exp.ResultStore] = None
        self.cold: Dict[str, str] = {}

    def spec_builders(self) -> List[Callable[[], Any]]:
        return [
            lambda: transition_matrix.spec(runs=1, base_seed=self.seed_for(0)),
            lambda: gray.spec(
                missions=1, base_seed=base_seed(self.gray_base, self.seed, 0)
            ),
        ]

    def specs(self) -> list:
        return [build() for build in self.spec_builders()]

    def setup_steps(self) -> List[Callable[[], None]]:
        """A fresh store, then one step per spec that fills it cold."""

        def fresh_store():
            clear_world_arena()
            self.store = exp.ResultStore(self.scratch())
            self.cold = {}

        def fill(build):
            spec = build()
            result = exp.run(spec, jobs=1, store=self.store)
            problems = self.family_checks(spec, result.results)
            if problems or result.executed == 0:
                raise RuntimeError(
                    f"replay store fill for {spec.name} failed: {problems}"
                )
            self.cold[spec.name] = _canonical(result.results)

        return [fresh_store] + [lambda build=build: fill(build)
                                for build in self.spec_builders()]

    @staticmethod
    def family_checks(spec, results: Dict[str, Any]) -> List[str]:
        if spec.name.startswith("transition_matrix"):
            return transition_matrix.shape_checks(
                transition_matrix.from_results(results)
            )
        return gray.shape_checks(gray.from_results(results))

    def iterate(self, index: int, store) -> Iteration:
        it = Iteration()
        for spec in self.specs():
            result, host_s = timed_run(spec, self.store)
            cells = len(spec.trials)
            runs = sum(trial.runs for trial in spec.trials)
            it.add_run(result, host_s, runs)
            if result.executed or result.cells_cached != cells:
                it.problems.append(
                    f"{spec.name}: {result.executed} missions simulated, "
                    f"{result.cells_cached}/{cells} cells served"
                )
            if _canonical(result.results) != self.cold[spec.name]:
                it.problems.append(f"{spec.name}: warm bytes differ from cold")
            it.problems.extend(self.family_checks(spec, result.results))
        return it


def _canonical(results: Dict[str, Any]) -> str:
    """The bytes a result set compares by."""
    return json.dumps(results, sort_keys=True)


def _sum_sim(iterations: List[Iteration]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for it in iterations:
        for key, value in it.sim.items():
            total[key] = total.get(key, 0) + value
    return total


WORKLOADS = {cls.name: cls for cls in (Campaign, Gray, Fleet, Replay)}
