"""The robustness tournament: policies x information modes, at scale.

:func:`run_tournament` drives the catalogue's ``tour-*`` grid — family x
chemistry x jitter x information mode (:mod:`repro.sim.imode`) — through
the simulation suite and reduces it with
:mod:`repro.analysis.tournament`: every policy's realised-sigma
degradation vs. the offline anchor, ranked per information mode.  The
exact-mode column doubles as the conformance control group: every
exact-mode record the engine produces is bit-identical to a direct
:class:`~repro.sim.Simulator` run built with no information mode at all
(``repro tournament --smoke`` gates exactly that in CI).

>>> from repro.experiments import run_tournament
>>> result = run_tournament(scenarios=["tour-g3-rakhmatov-j10-exact",
...                                    "tour-g3-rakhmatov-j10-blind"],
...                         policies=["greedy-energy"], replications=2)
>>> result.run.ok and len(result.rows()) == 2
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    TextTable,
    TournamentRow,
    TournamentStanding,
    compute_tournament,
    tournament_leaderboard,
    tournament_standings_table,
    tournament_table,
)
from ..engine import ResultStore, SimulationRun
from ..scenarios import ScenarioRegistry, ScenarioSpec, default_registry
from .simulate import SimulationSuiteResult, run_simulation_suite

__all__ = ["TournamentResult", "run_tournament", "tournament_markdown"]


@dataclass(frozen=True)
class TournamentResult:
    """Everything produced by one :func:`run_tournament` call."""

    suite: SimulationSuiteResult
    """The underlying simulation-suite result (jobs, records, anchors)."""

    @property
    def specs(self) -> Tuple[ScenarioSpec, ...]:
        return self.suite.specs

    @property
    def run(self) -> SimulationRun:
        return self.suite.run

    @property
    def offline_costs(self) -> Dict[str, float]:
        return self.suite.offline_costs

    def rows(self) -> List[TournamentRow]:
        """Per-(scenario, policy) cells annotated with tournament axes."""
        return compute_tournament(
            self.run.records,
            {spec.name: spec for spec in self.specs},
            self.offline_costs,
        )

    def standings(self) -> List[TournamentStanding]:
        """Policies ranked per information mode by mean degradation."""
        return tournament_leaderboard(self.rows())

    def rows_table(self) -> TextTable:
        """The per-cell tournament report."""
        return tournament_table(self.rows())

    def standings_table(self) -> TextTable:
        """The per-mode leaderboard as a report table."""
        return tournament_standings_table(self.standings())

    def summary(self) -> str:
        """One-line accounting summary (delegates to the engine run)."""
        return self.run.summary()


def run_tournament(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    replications: int = 3,
    seed: int = 0,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress=None,
    registry: Optional[ScenarioRegistry] = None,
    offline_algorithm: str = "iterative",
) -> TournamentResult:
    """Run the information-mode tournament over the ``tour-*`` grid.

    Parameters are exactly those of
    :func:`~repro.experiments.run_simulation_suite`, with one default
    changed: ``scenarios=None`` selects every catalogue scenario whose
    name starts with ``tour-`` (the tournament grid) instead of the
    stochastic tier.  The result is a pure function of the arguments —
    seeded perturbation streams, seeded belief streams, fsum-reduced
    statistics — so two runs of the same tournament produce byte-identical
    reports (which is what lets ``docs/tournament.md`` be committed).
    """
    registry = registry if registry is not None else default_registry()
    if scenarios is None:
        scenarios = [
            name for name in registry.names() if name.startswith("tour-")
        ]
    suite = run_simulation_suite(
        scenarios=scenarios,
        policies=policies,
        replications=replications,
        seed=seed,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
        registry=registry,
        offline_algorithm=offline_algorithm,
    )
    return TournamentResult(suite=suite)


def tournament_markdown(result: TournamentResult) -> str:
    """The tournament report page (the content of ``docs/tournament.md``)."""
    suite = result.suite
    rows = result.rows()
    modes = []
    for row in rows:
        if row.imode not in modes:
            modes.append(row.imode)
    lines = [
        "# Information-mode tournament",
        "",
        "<!-- Generated by `python -m repro.cli tournament --report` from",
        "     `repro.experiments.run_tournament` over the catalogue's",
        "     tour-* grid — do not edit by hand. -->",
        "",
        f"{len(suite.specs)} scenarios x {len(suite.policies)} policies "
        f"({', '.join(suite.policies)}) x {suite.replications} replications "
        f"(seed {suite.seed}); {len(result.run.failures())} failed jobs.",
        "",
        "Each cell simulates a policy that plans against *believed* task "
        "durations — mediated by the scenario's information mode "
        f"({', '.join(modes)}; see `repro.sim.imode`) — while the "
        "simulator draws the realised durations from the perturbation "
        "streams.  Degradation is the mean realised sigma relative to the "
        "offline-predicted sigma of the same scenario; the exact-mode "
        "column is the conformance control group, bit-identical to the "
        "same scenarios with no information mode set.",
        "",
        result.standings_table().to_text(markdown=True),
        "",
        result.rows_table().to_text(markdown=True),
        "",
        "Regenerate with:",
        "",
        "```sh",
        "python -m repro.cli tournament --report",
        "```",
        "",
    ]
    return "\n".join(lines)
