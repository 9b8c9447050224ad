"""Declarative scenario schema: validated YAML/JSON study configurations.

A **scenario document** is a small YAML (or JSON) mapping that pins one
fleet experiment — which study to run, with which parameters, under
which placement policies, optionally sweeping one field across a list
of values.  The library under ``scenarios/`` keeps two families:

``SYN-*``
    Synthetic single-variable stress: one knob moves (lane count, queue
    bound, host pressure, demand surge), everything else stays at
    defaults, so a metric shift is attributable to that knob.
``RL-*``
    Production-like mixes: heterogeneous demand, diurnal traces, shared
    hosts and migration — the regimes the paper's Sec. 5 economics
    argument actually lives in.

The loader validates *against the code, not a copy of it*: a parameter
is legal when it is a field of
:class:`~repro.experiments.multiplexing_study.FleetConfig` (placement
documents may also set that study's policy knobs), and the loader
builds the configuration of every run in the grid, so the config's own
rules reject a bad value or combination.  A scenario that drifts from
the study surface fails at load time with the offending field named —
never silently at run time.

Document shape::

    id: SYN-lane-ramp            # ^(SYN|RL)-... ; prefix is the family
    label: Lane-count ramp       # optional, defaults to the id
    description: ...             # optional free text
    study: fleet                 # fleet | placement
    seed: 0                      # optional, defaults to 0
    fleet:                       # params section, named after `study`
      hours: 6.0
      mix: scaleout
    sweep:                       # optional: one field, many values
      field: n_lanes
      values: [2, 4, 8]
    policies: [round_robin]      # optional; fleet needs n_hosts for it
    migration:                   # optional (fleet only): knobs for
      rebalance_every: 6         #   '+migrate'/'+consolidate' policies
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioSweep",
    "list_scenarios",
    "load_scenario",
    "parse_scenario",
    "scenario_paths",
]

SCENARIO_ID = re.compile(r"^(SYN|RL)-[A-Za-z0-9][A-Za-z0-9_-]*$")

#: Study name -> the entry point a document of that study runs.
STUDIES = {
    "fleet": "run_fleet_multiplexing_study",
    "placement": "run_placement_sensitivity_study",
}

#: The placement study's own knobs, legal beside the config fields.
PLACEMENT_KNOBS = frozenset(
    {"rebalance_every", "blackout_seconds", "blackout_theft"}
)

#: Parameters owned by the document's own top-level keys; a params
#: section naming one of these is rejected so a scenario cannot say two
#: different things about the same knob.
RESERVED_PARAMS = {
    "fleet": frozenset({"seed", "placement", "migration"}),
    "placement": frozenset({"seed", "policies", "placement", "migration"}),
}

#: Keys the optional ``migration:`` section may set — the knobs
#: :func:`~repro.experiments.placement_study.parse_policy_spec` accepts
#: for '+migrate' policy specs.
MIGRATION_KEYS = frozenset(
    {"rebalance_every", "blackout_seconds", "blackout_theft", "drain_headroom"}
)

_SCALARS = (str, int, float, bool)


class ScenarioError(ValueError):
    """A scenario document failed validation."""


@dataclass(frozen=True)
class ScenarioSweep:
    """One swept field: the scenario runs once per value."""

    field: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class Scenario:
    """A validated scenario document, ready for the runner."""

    id: str
    label: str
    description: str
    study: str
    seed: int
    params: Mapping[str, Any]
    policies: tuple[str, ...] = ()
    sweep: ScenarioSweep | None = None
    migration: Mapping[str, Any] = field(default_factory=dict)
    path: str | None = None

    @property
    def family(self) -> str:
        """``SYN`` or ``RL`` — the id prefix."""
        return self.id.partition("-")[0]


def _legal_params(study: str) -> frozenset[str]:
    from repro.experiments.multiplexing_study import FleetConfig

    fields = frozenset(f.name for f in dataclasses.fields(FleetConfig))
    return fields | PLACEMENT_KNOBS if study == "placement" else fields


def fleet_grid(scenario: "Scenario") -> list[tuple]:
    """A fleet scenario's runs: ``(sweep, policy, config)`` per
    (sweep value, policy spec), in run order.  ``sweep`` is the
    ``{"field", "value"}`` coordinate or ``None``; ``policy`` labels a
    run without policies ``round_robin`` on hosts, else ``dedicated``."""
    from repro.experiments.multiplexing_study import FleetConfig
    from repro.experiments.placement_study import parse_policy_spec

    sweeps = (
        [None]
        if scenario.sweep is None
        else [
            {"field": scenario.sweep.field, "value": value}
            for value in scenario.sweep.values
        ]
    )
    grid = []
    for sweep in sweeps:
        params = dict(scenario.params, seed=scenario.seed)
        if sweep is not None:
            params[sweep["field"]] = sweep["value"]
        for spec in scenario.policies or (None,):
            if spec is None:
                policy = (
                    "round_robin" if params.get("n_hosts") else "dedicated"
                )
                config = FleetConfig(**params)
            else:
                policy = spec
                name, migration = parse_policy_spec(spec, **scenario.migration)
                config = FleetConfig(
                    placement=name, migration=migration, **params
                )
            grid.append((sweep, policy, config))
    return grid


def _where(path: str | None) -> str:
    return f"{path}: " if path else ""


def _is_param_value(value: Any) -> bool:
    """Scalars, or flat lists of scalars — nothing nested or mapped."""
    if isinstance(value, _SCALARS) or value is None:
        return not isinstance(value, dict)
    if isinstance(value, (list, tuple)):
        return all(isinstance(item, _SCALARS) for item in value)
    return False


def parse_scenario(doc: Any, path: str | None = None) -> Scenario:
    """Validate a parsed document and build a :class:`Scenario`.

    Raises :class:`ScenarioError` naming the offending field for any
    deviation from the schema — unknown keys, parameters that do not
    exist on the study callable, malformed sweeps, bad policy specs.
    """
    where = _where(path)
    if not isinstance(doc, dict):
        raise ScenarioError(
            f"{where}scenario document must be a mapping, "
            f"got {type(doc).__name__}"
        )

    scenario_id = doc.get("id")
    if not isinstance(scenario_id, str) or not SCENARIO_ID.match(scenario_id):
        raise ScenarioError(
            f"{where}id must match {SCENARIO_ID.pattern!r} "
            f"(SYN-* synthetic stress or RL-* production-like), "
            f"got {scenario_id!r}"
        )

    study = doc.get("study")
    if study not in STUDIES:
        raise ScenarioError(
            f"{where}study must be one of {tuple(STUDIES)}, got {study!r}"
        )

    allowed_keys = {
        "id",
        "label",
        "description",
        "study",
        "seed",
        "policies",
        "sweep",
        study,  # the params section is named after the study
    }
    if study == "fleet":
        allowed_keys.add("migration")
    unknown = sorted(set(doc) - allowed_keys)
    if unknown:
        raise ScenarioError(
            f"{where}unknown top-level key(s) {unknown}; "
            f"allowed: {sorted(allowed_keys)}"
        )

    label = doc.get("label", scenario_id)
    if not isinstance(label, str) or not label:
        raise ScenarioError(f"{where}label must be a non-empty string")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(f"{where}description must be a string")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"{where}seed must be an integer, got {seed!r}")

    legal = _legal_params(study)
    reserved = RESERVED_PARAMS[study]
    params_doc = doc.get(study, {})
    if not isinstance(params_doc, dict):
        raise ScenarioError(
            f"{where}section {study!r} must be a mapping of study "
            f"parameters, got {type(params_doc).__name__}"
        )
    for name, value in params_doc.items():
        if name in reserved:
            raise ScenarioError(
                f"{where}parameter {name!r} is reserved (set it via the "
                f"scenario's own top-level keys), not in the {study!r} "
                "section"
            )
        if name not in legal:
            raise ScenarioError(
                f"{where}unknown {study!r} parameter {name!r}; "
                f"{STUDIES[study]} accepts {sorted(legal - reserved)}"
            )
        if not _is_param_value(value):
            raise ScenarioError(
                f"{where}parameter {name!r} must be a scalar or a flat "
                f"list of scalars, got {value!r}"
            )
    params = dict(params_doc)

    sweep_doc = doc.get("sweep")
    sweep = None
    if sweep_doc is not None:
        if not isinstance(sweep_doc, dict) or set(sweep_doc) != {
            "field",
            "values",
        }:
            raise ScenarioError(
                f"{where}sweep must be a mapping with exactly the keys "
                f"'field' and 'values', got {sweep_doc!r}"
            )
        sweep_field = sweep_doc["field"]
        if sweep_field in reserved or sweep_field not in legal:
            raise ScenarioError(
                f"{where}sweep field {sweep_field!r} is not a sweepable "
                f"{study!r} parameter; choose from "
                f"{sorted(legal - reserved)}"
            )
        if sweep_field in params:
            raise ScenarioError(
                f"{where}sweep field {sweep_field!r} is also set in the "
                f"{study!r} section; a swept field cannot have a fixed "
                "value"
            )
        values = sweep_doc["values"]
        if not isinstance(values, (list, tuple)) or not values:
            raise ScenarioError(
                f"{where}sweep values must be a non-empty list, "
                f"got {values!r}"
            )
        for value in values:
            if not _is_param_value(value):
                raise ScenarioError(
                    f"{where}sweep value {value!r} must be a scalar or a "
                    "flat list of scalars"
                )
        sweep = ScenarioSweep(field=sweep_field, values=tuple(values))

    policies_doc = doc.get("policies", [])
    if not isinstance(policies_doc, (list, tuple)) or not all(
        isinstance(p, str) and p for p in policies_doc
    ):
        raise ScenarioError(
            f"{where}policies must be a list of policy-spec strings, "
            f"got {policies_doc!r}"
        )
    policies = tuple(policies_doc)
    if policies:
        from repro.experiments.placement_study import parse_policy_spec

        for spec in policies:
            try:
                parse_policy_spec(spec)
            except ValueError as exc:
                raise ScenarioError(
                    f"{where}invalid policy spec {spec!r}: {exc}"
                ) from exc
        if study == "fleet" and "n_hosts" not in params:
            raise ScenarioError(
                f"{where}policies require shared hosts; set 'n_hosts' in "
                "the 'fleet' section (placement is meaningless on "
                "dedicated hardware)"
            )

    migration_doc = doc.get("migration", {})
    migration: dict[str, Any] = {}
    if migration_doc:
        if not isinstance(migration_doc, dict):
            raise ScenarioError(
                f"{where}migration must be a mapping, "
                f"got {type(migration_doc).__name__}"
            )
        unknown_migration = sorted(set(migration_doc) - MIGRATION_KEYS)
        if unknown_migration:
            raise ScenarioError(
                f"{where}unknown migration key(s) {unknown_migration}; "
                f"allowed: {sorted(MIGRATION_KEYS)}"
            )
        for name, value in migration_doc.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(
                    f"{where}migration key {name!r} must be numeric, "
                    f"got {value!r}"
                )
        if not any("+" in spec for spec in policies):
            raise ScenarioError(
                f"{where}migration settings given but no policy carries a "
                "'+migrate' or '+consolidate' suffix; they would be "
                "silently unused"
            )
        migration = dict(migration_doc)

    scenario = Scenario(
        id=scenario_id,
        label=label,
        description=description,
        study=study,
        seed=seed,
        params=params,
        policies=policies,
        sweep=sweep,
        migration=migration,
        path=path,
    )
    # Build every run's configuration now, so the config's own rules
    # reject a bad value or combination at load time.
    try:
        if study == "fleet":
            fleet_grid(scenario)
        else:
            from repro.experiments.placement_study import placement_configs

            placement_configs(
                **params,
                seed=seed,
                **({"policies": policies} if policies else {}),
            )
    except ValueError as exc:
        raise ScenarioError(f"{where}{exc}") from exc
    return scenario


def _parse_text(text: str, path: str | Path) -> Any:
    if Path(path).suffix.lower() == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - pyyaml is a dependency
        raise ScenarioError(
            f"{path}: PyYAML is unavailable in this environment; write "
            "the scenario as .json instead"
        ) from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one scenario document from disk."""
    return parse_scenario(
        _parse_text(Path(path).read_text(), path), path=str(path)
    )


def scenario_paths(directory: str | Path) -> list[Path]:
    """Scenario document paths under ``directory``, sorted by name."""
    base = Path(directory)
    return sorted(
        path
        for suffix in ("*.yaml", "*.yml", "*.json")
        for path in base.glob(suffix)
    )


def list_scenarios(directory: str | Path) -> list[Scenario]:
    """Load every scenario document under ``directory`` (sorted)."""
    return [load_scenario(path) for path in scenario_paths(directory)]
