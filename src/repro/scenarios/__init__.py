"""Named workload scenarios and the cross-scenario sweep runner.

This package is the repo's answer to "as many scenarios as you can imagine": a
library of named, parameterized workload situations built on the workload
generators, plus :class:`ScenarioSweep`, which evaluates one deployment plan
across the whole library concurrently.

Quick use::

    from repro.scenarios import ScenarioSweep, default_scenarios, get_scenario

    sweep = ScenarioSweep(default_scenarios(duration=60.0))
    outcomes = sweep.evaluate(cluster, model, plan)
    print(ScenarioSweep.to_table(outcomes))

    rag = get_scenario("long-context-rag", request_rate=3.0, duration=30.0)
    trace = rag.build_trace(seed=0)
"""

from repro.scenarios.base import Scenario, scenario_slo, thinned_poisson_trace
from repro.scenarios.library import (
    DEFAULT_TIERS,
    LONG_PROMPT_RAG_WORKLOAD,
    RAG_WORKLOAD,
    AgenticCodingMixScenario,
    BurstySpikesScenario,
    DiurnalTrafficScenario,
    LongContextRAGScenario,
    LongPromptRAGScenario,
    MultiTenantSLOTiersScenario,
    SpotPreemptionScenario,
    TenantTier,
)
from repro.scenarios.registry import (
    default_scenarios,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.sweep import ScenarioOutcome, ScenarioSweep

__all__ = [
    "Scenario",
    "scenario_slo",
    "thinned_poisson_trace",
    "RAG_WORKLOAD",
    "LONG_PROMPT_RAG_WORKLOAD",
    "DEFAULT_TIERS",
    "TenantTier",
    "DiurnalTrafficScenario",
    "BurstySpikesScenario",
    "LongContextRAGScenario",
    "LongPromptRAGScenario",
    "AgenticCodingMixScenario",
    "MultiTenantSLOTiersScenario",
    "SpotPreemptionScenario",
    "register_scenario",
    "list_scenarios",
    "get_scenario",
    "default_scenarios",
    "ScenarioSweep",
    "ScenarioOutcome",
]
