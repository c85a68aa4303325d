"""The scenario specification: one named benchmark instance as pure data.

A :class:`ScenarioSpec` fully determines one
:class:`~repro.scheduling.SchedulingProblem` — DAG family and parameters,
seed, platform model (where design points come from), battery chemistry
(what sigma means), and deadline tightness — without holding any built
object.  Specs are frozen, hashable, JSON-round-trippable and
content-hashable, so a catalogue of them can be diffed, stored, shipped to
worker processes, and rebuilt bit-identically anywhere.

>>> spec = ScenarioSpec(name="demo", family="chain", seed=3,
...                     family_params={"num_tasks": 4}, tightness=0.5)
>>> problem = spec.build_problem()
>>> problem.graph.num_tasks
4
>>> ScenarioSpec.from_dict(spec.to_dict()) == spec
True
>>> len(spec.content_hash()) == 16
True
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Tuple

from ..battery import CHEMISTRIES, PAPER_BETA, BatterySpec
from ..battery.parameters import freeze_params as _freeze_params
from ..canonical import _canonical, canonical_json
from ..errors import ConfigurationError
from ..scheduling import SchedulingProblem
from ..sim.imode import InformationMode
from ..sim.perturbation import PerturbationModel
from ..taskgraph import TaskGraph
from ..taskgraph.optimize import optimize_graph, parse_passes
from ..workloads.suite import problem_with_tightness
from .families import FAMILIES, build_family, family_names
from .platforms import PLATFORMS, make_platform, platform_names

__all__ = ["ScenarioSpec", "canonical_json", "problem_fingerprint"]

#: Frozen parameter mappings: sorted tuples of (key, value) pairs.
FrozenParams = Tuple[Tuple[str, Any], ...]

#: Human-readable deadline-tightness tiers (fractions of the
#: all-fastest..all-slowest makespan span).
TIGHTNESS_TIERS: Dict[str, float] = {"tight": 0.2, "mid": 0.5, "loose": 0.8}


def _thaw_value(value: Any) -> Any:
    """Inverse of :func:`_freeze_value` for JSON emission."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {key: _thaw_value(val) for key, val in value}
        return [_thaw_value(item) for item in value]
    return value


def _thaw_params(params: FrozenParams) -> Dict[str, Any]:
    """Frozen parameter pairs back to a plain dict."""
    return {key: _thaw_value(value) for key, value in params}


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def problem_fingerprint(problem: SchedulingProblem) -> str:
    """Content hash of a built problem instance.

    Covers everything that influences algorithm results — the full graph
    serialisation (tasks, design points, edges), the deadline and the
    battery description — and nothing presentational.  Two processes that
    build the same :class:`ScenarioSpec` must produce the same fingerprint;
    the scenario determinism tests assert exactly that.
    """
    battery = problem.battery
    graph = problem.graph.to_dict()
    graph["name"] = ""  # display label only — two same-content specs that
    # differ in name must fingerprint identically, like content_hash()
    payload = {
        "graph": graph,
        "deadline": problem.deadline,
        "battery": {
            "beta": battery.beta,
            "capacity": battery.capacity,
            "series_terms": battery.series_terms,
            "chemistry": battery.chemistry,
            "chemistry_params": dict(battery.chemistry_params),
        },
    }
    return _digest(canonical_json(payload))


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seeded, parameterized benchmark scenario.

    Attributes
    ----------
    name:
        Unique catalogue name (e.g. ``"layered-6x4-kibam"``).
    family:
        DAG family key from :mod:`repro.scenarios.families`.
    family_params:
        Family builder parameters (e.g. ``{"num_layers": 6}``); accepted as
        a mapping, stored as a sorted tuple of pairs.
    seed:
        Seed for graph structure and design-point synthesis.
    tightness:
        Deadline position in ``[0, 1]`` between the all-fastest (0) and
        all-slowest (1) makespans.
    platform:
        Platform model key from :mod:`repro.scenarios.platforms` — where
        design points come from.
    platform_params:
        Platform synthesis parameters (e.g. a voltage ladder).
    chemistry:
        Battery chemistry key from :data:`repro.battery.CHEMISTRIES` — the
        abstraction under which sigma is computed.
    chemistry_params:
        Chemistry parameters (e.g. the Peukert exponent).
    beta:
        Rakhmatov–Vrudhula diffusion parameter carried by the battery spec
        (used by the default chemistry).
    jitter, jitter_model, failure_rate:
        The optional **stochastic tier**: multiplicative duration jitter
        (spread and distribution — ``"lognormal"`` or ``"uniform"``) and a
        per-attempt failure probability, consumed by the runtime simulator
        (:mod:`repro.sim`).  All-default values mean a deterministic
        scenario; the offline problem built by :meth:`build_problem` is
        unaffected either way.
    imode, imode_rel_error, imode_seed:
        The optional **information mode** of the stochastic tier: what the
        online policies *believe* about task durations (``"exact"``,
        ``"blind"``, ``"mean"`` or ``"noisy"`` — see
        :mod:`repro.sim.imode`).  ``imode_rel_error``/``imode_seed``
        parameterise the ``noisy`` mode's seeded belief factors and must
        stay at their defaults otherwise.  The default ``"exact"`` mode is
        today's behaviour and stays out of :meth:`content_hash`, so all
        pre-imode hashes, stores and job keys are untouched.
    optimize:
        Optional **optimize-pass list** (e.g. ``"fuse"`` or ``"cull+fuse"``
        — see :mod:`repro.taskgraph.optimize`) applied to the built graph
        by :meth:`build_problem`.  Only the sigma-preserving passes are
        accepted.  The default empty string means no rewriting — today's
        behaviour — and stays out of :meth:`content_hash`, mirroring the
        imode pattern so pre-existing hashes, stores and job keys never
        move.
    description:
        One-line human description for the catalogue (presentational; not
        part of the content hash).
    """

    name: str
    family: str
    family_params: FrozenParams = ()
    seed: int = 0
    tightness: float = 0.5
    platform: str = "voltage-scaling"
    platform_params: FrozenParams = ()
    chemistry: str = "rakhmatov"
    chemistry_params: FrozenParams = ()
    beta: float = PAPER_BETA
    jitter: float = 0.0
    jitter_model: str = "lognormal"
    failure_rate: float = 0.0
    imode: str = "exact"
    imode_rel_error: float = 0.0
    imode_seed: int = 0
    optimize: str = ""
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be a non-empty string")
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown DAG family {self.family!r}; choose from {list(family_names())}"
            )
        if self.platform not in PLATFORMS:
            raise ConfigurationError(
                f"unknown platform model {self.platform!r}; "
                f"choose from {list(platform_names())}"
            )
        if self.chemistry not in CHEMISTRIES:
            raise ConfigurationError(
                f"unknown battery chemistry {self.chemistry!r}; "
                f"choose from {sorted(CHEMISTRIES)}"
            )
        if not (0.0 <= self.tightness <= 1.0):
            raise ConfigurationError(
                f"tightness must be within [0, 1], got {self.tightness!r}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.jitter_model not in ("lognormal", "uniform"):
            # Kept in sync with repro.sim.perturbation.JITTER_MODELS (not
            # imported here: scenarios sit below the sim layer).
            raise ConfigurationError(
                f"unknown jitter model {self.jitter_model!r}; "
                "choose from ('lognormal', 'uniform')"
            )
        if self.jitter_model == "uniform" and self.jitter >= 1.0:
            raise ConfigurationError(
                "uniform jitter must be < 1 (duration factors stay positive), "
                f"got {self.jitter!r}"
            )
        if not (0.0 <= self.failure_rate < 1.0):
            raise ConfigurationError(
                f"failure_rate must be within [0, 1), got {self.failure_rate!r}"
            )
        if self.imode not in ("exact", "blind", "mean", "noisy"):
            # Kept in sync with repro.sim.imode.INFORMATION_MODES (not
            # imported here: scenarios sit below the sim layer).
            raise ConfigurationError(
                f"unknown information mode {self.imode!r}; "
                "choose from ('exact', 'blind', 'mean', 'noisy')"
            )
        if self.imode == "noisy":
            if not self.imode_rel_error > 0:
                raise ConfigurationError(
                    "a noisy information mode needs imode_rel_error > 0, "
                    f"got {self.imode_rel_error!r}"
                )
        else:
            if self.imode_rel_error != 0.0:
                raise ConfigurationError(
                    "imode_rel_error only applies to the noisy information "
                    f"mode, not {self.imode!r}"
                )
            if self.imode_seed != 0:
                raise ConfigurationError(
                    "imode_seed only applies to the noisy information "
                    f"mode, not {self.imode!r}"
                )
        if self.optimize:
            parse_passes(self.optimize)  # raises ConfigurationError on junk
        if not FAMILIES[self.family].uses_synthesis:
            # Paper-graph families carry published design points; a platform
            # or seed on such a spec would describe an experiment different
            # from the one that actually runs.
            if self.platform != "voltage-scaling" or self.platform_params:
                raise ConfigurationError(
                    f"family {self.family!r} carries the paper's published "
                    "design points; a platform model has no effect on it — "
                    "remove platform/platform_params from the spec"
                )
            if self.seed != 0:
                raise ConfigurationError(
                    f"family {self.family!r} is fully determined by its "
                    "published data; a seed has no effect on it — remove it"
                )
        object.__setattr__(self, "family_params", _freeze_params(self.family_params))
        object.__setattr__(self, "platform_params", _freeze_params(self.platform_params))
        object.__setattr__(
            self, "chemistry_params", _freeze_params(self.chemistry_params)
        )

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build_graph(self) -> TaskGraph:
        """Build this scenario's task graph (deterministic for the spec).

        >>> ScenarioSpec(name="c", family="chain", seed=1,
        ...              family_params={"num_tasks": 3}).build_graph().num_tasks
        3
        """
        synthesis = make_platform(self.platform, dict(self.platform_params))
        return build_family(
            self.family,
            synthesis,
            self.seed,
            self.name,
            **_thaw_params(self.family_params),
        )

    def battery_spec(self) -> BatterySpec:
        """The battery description this scenario's problems carry."""
        return BatterySpec(
            beta=self.beta,
            chemistry=self.chemistry,
            chemistry_params=self.chemistry_params,
        )

    def build_problem(self) -> SchedulingProblem:
        """Build the complete scheduling problem instance.

        The deadline sits at ``tightness`` between the graph's all-fastest
        and all-slowest makespans (see
        :func:`repro.workloads.problem_with_tightness`), so every scenario
        is feasible by construction.
        """
        optimized = self.optimization()
        graph = self.build_graph() if optimized is None else optimized.graph
        return problem_with_tightness(
            graph,
            self.tightness,
            battery=self.battery_spec(),
            name=self.name,
        )

    @property
    def has_perturbation(self) -> bool:
        """True when the spec carries a non-trivial stochastic tier."""
        return self.jitter != 0.0 or self.failure_rate != 0.0

    @property
    def has_information_mode(self) -> bool:
        """True when policies see anything other than the exact durations."""
        return self.imode != "exact"

    @property
    def has_optimize(self) -> bool:
        """True when the spec carries a non-empty optimize-pass list."""
        return bool(self.optimize)

    def optimization(self):
        """The optimize-pass result for this spec's graph.

        Returns the :class:`~repro.taskgraph.OptimizedGraph` whose
        ``graph`` is what :meth:`build_problem` schedules and whose
        ``expand`` methods translate the final schedule back onto the
        unoptimized graph; ``None`` when no passes are set.
        """
        if not self.has_optimize:
            return None
        return optimize_graph(self.build_graph(), parse_passes(self.optimize))

    def perturbation(self):
        """The stochastic tier as a :class:`repro.sim.PerturbationModel`.

        Always returns a model — a null one for deterministic scenarios —
        so simulation call sites need no branching.
        """
        return PerturbationModel(
            jitter=self.jitter,
            jitter_model=self.jitter_model,
            failure_rate=self.failure_rate,
        )

    def information_mode(self):
        """The information tier as a :class:`repro.sim.InformationMode`.

        Like :meth:`perturbation`, always returns a mode — the exact one
        for full-information scenarios — so simulation call sites need no
        branching.  (The simulator treats an exact mode and no mode
        identically, bitwise.)
        """
        if self.imode == "noisy":
            return InformationMode.noisy(self.imode_rel_error, seed=self.imode_seed)
        return InformationMode(kind=self.imode)

    # ------------------------------------------------------------------
    # identity and serialisation
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable hash of everything that determines the built problem —
        plus, for stochastic scenarios, the perturbation tier (which
        determines the simulation workloads keyed on the spec).

        Excludes the presentational ``name``/``description`` fields: two
        differently named specs with equal content hash produce identical
        problems (up to the problem's display name).  The perturbation
        and information-mode fields enter the payload only when
        non-default, so the hashes of all deterministic / exact-mode
        scenarios are unchanged from before those tiers existed.
        """
        payload = {
            "family": self.family,
            "family_params": _thaw_params(self.family_params),
            "seed": self.seed,
            "tightness": self.tightness,
            "platform": self.platform,
            "platform_params": _thaw_params(self.platform_params),
            "chemistry": self.chemistry,
            "chemistry_params": _thaw_params(self.chemistry_params),
            "beta": self.beta,
        }
        if self.has_perturbation:
            payload["perturbation"] = {
                "jitter": self.jitter,
                "jitter_model": self.jitter_model,
                "failure_rate": self.failure_rate,
            }
        if self.has_information_mode:
            payload["imode"] = {
                "kind": self.imode,
                "rel_error": self.imode_rel_error,
                "seed": self.imode_seed,
            }
        if self.has_optimize:
            payload["optimize"] = self.optimize
        return _digest(canonical_json(payload))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (inverse of :meth:`from_dict`).

        The information-mode keys are emitted only when set — exact-mode
        dicts are byte-identical to pre-imode ones, which keeps every
        stored engine job key (hashed from this dict) stable.
        """
        data = {
            "name": self.name,
            "family": self.family,
            "family_params": _canonical(_thaw_params(self.family_params)),
            "seed": self.seed,
            "tightness": self.tightness,
            "platform": self.platform,
            "platform_params": _canonical(_thaw_params(self.platform_params)),
            "chemistry": self.chemistry,
            "chemistry_params": _canonical(_thaw_params(self.chemistry_params)),
            "beta": self.beta,
            "jitter": self.jitter,
            "jitter_model": self.jitter_model,
            "failure_rate": self.failure_rate,
            "description": self.description,
        }
        if self.has_information_mode:
            data["imode"] = self.imode
            data["imode_rel_error"] = self.imode_rel_error
            data["imode_seed"] = self.imode_seed
        if self.has_optimize:
            data["optimize"] = self.optimize
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        return cls(
            name=str(data["name"]),
            family=str(data["family"]),
            family_params=dict(data.get("family_params", {})),
            seed=int(data.get("seed", 0)),
            tightness=float(data.get("tightness", 0.5)),
            platform=str(data.get("platform", "voltage-scaling")),
            platform_params=dict(data.get("platform_params", {})),
            chemistry=str(data.get("chemistry", "rakhmatov")),
            chemistry_params=dict(data.get("chemistry_params", {})),
            beta=float(data.get("beta", PAPER_BETA)),
            jitter=float(data.get("jitter", 0.0)),
            jitter_model=str(data.get("jitter_model", "lognormal")),
            failure_rate=float(data.get("failure_rate", 0.0)),
            imode=str(data.get("imode", "exact")),
            imode_rel_error=float(data.get("imode_rel_error", 0.0)),
            imode_seed=int(data.get("imode_seed", 0)),
            optimize=str(data.get("optimize", "")),
            description=str(data.get("description", "")),
        )

    def with_tightness(self, tightness: float, name: str = "") -> "ScenarioSpec":
        """A copy at a different deadline tightness (optionally renamed)."""
        return replace(
            self, tightness=tightness, name=name or f"{self.name}@{tightness:.2f}"
        )

    def summary(self) -> str:
        """One-line catalogue description."""
        line = (
            f"{self.name}: {self.family} family, {self.platform} platform, "
            f"{self.chemistry} chemistry, tightness {self.tightness:.2f}"
        )
        if self.has_perturbation or self.has_information_mode or self.has_optimize:
            parts = []
            if self.jitter:
                parts.append(f"{self.jitter_model} jitter {self.jitter:g}")
            if self.failure_rate:
                parts.append(f"failure rate {self.failure_rate:g}")
            if self.has_information_mode:
                if self.imode == "noisy":
                    parts.append(
                        f"imode noisy({self.imode_rel_error:g},{self.imode_seed})"
                    )
                else:
                    parts.append(f"imode {self.imode}")
            if self.has_optimize:
                parts.append(f"optimize {self.optimize}")
            line += f" ({', '.join(parts)})"
        return line
