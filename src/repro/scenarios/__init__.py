"""Scenario catalogue: named, seeded, parameterized benchmark environments.

The ROADMAP's third axis — "handles as many scenarios as you can
imagine" — as a subsystem.  A :class:`ScenarioSpec` is pure data crossing
four dimensions:

* **DAG family** (:mod:`~repro.scenarios.families`) — estee-style seeded
  graph generators: chain, fork-join, layered, crossbar, map-reduce,
  series-parallel, random-Erdős, trees, diamonds, FFT, Gaussian
  elimination, plus serially replicated variants of the paper's G2/G3;
* **platform model** (:mod:`~repro.scenarios.platforms`) — where design
  points come from: the paper's voltage-scaling recipe, a physical DVS
  processor, or an FPGA bitstream library;
* **battery chemistry** (:data:`repro.battery.CHEMISTRIES`) — what sigma
  means: Rakhmatov–Vrudhula (the paper), Peukert, KiBaM, or ideal;
* **deadline tightness** — where the deadline sits between the
  all-fastest and all-slowest makespans.

Specs build :class:`~repro.scheduling.SchedulingProblem` instances
deterministically and carry a content hash, so catalogues can be
committed, diffed, and rebuilt bit-identically in any process.  The
default catalogue (:func:`default_registry`) is what
``python -m repro.cli suite`` runs and what ``docs/scenarios.md``
documents.

>>> from repro.scenarios import default_registry
>>> registry = default_registry()
>>> problem = registry.get("crossbar-4x3").build_problem()
>>> problem.graph.num_tasks
12
"""

from .. import _lazy_exports

__all__ = [
    "ScenarioSpec",
    "ScenarioRegistry",
    "default_registry",
    "build_catalog",
    "CORE_SCENARIOS",
    "FAMILIES",
    "FamilyInfo",
    "register_family",
    "family_names",
    "build_family",
    "PLATFORMS",
    "DvsSynthesis",
    "FpgaSynthesis",
    "platform_names",
    "make_platform",
    "problem_fingerprint",
    "canonical_json",
    "catalogue_table",
    "catalogue_markdown",
    "leaderboard_markdown",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".families": (
            "FAMILIES", "FamilyInfo", "build_family", "family_names", "register_family",
        ),
        ".platforms": (
            "PLATFORMS", "DvsSynthesis", "FpgaSynthesis", "make_platform",
            "platform_names",
        ),
        ".registry": ("ScenarioRegistry", "default_registry"),
        ".report": ("catalogue_markdown", "catalogue_table", "leaderboard_markdown"),
        ".spec": ("ScenarioSpec", "canonical_json", "problem_fingerprint"),
        ".catalog": ("CORE_SCENARIOS", "build_catalog"),
    },
)
