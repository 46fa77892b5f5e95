"""Declarative campaign specifications.

A *campaign* names a whole study — a figure grid, an ablation, a
variant sweep — in one YAML/JSON file instead of one driver
``__main__`` per figure.  The file format converges on the shape both
related simulators settled on (savannah's ``inherits:`` deep-merge,
the 6tisch simulator's ``combination``/``numRuns``/``post``):

.. code-block:: yaml

    inherits: base          # recursive deep-merge from a sibling file
    name: fig3
    scale: medium           # Scale preset: h + warm-up/measure windows
    config:                 # SimulationConfig overrides (deep-merged)
      seed: 1
    combination:            # cartesian grid, declared order preserved
      routing: [min, pb, ofar, ofar-l]
      pattern: [UN]
      load: {saturating: 0.56, points: 7}   # = Scale.loads(...)
    replications: 3         # seeds base, base+1, base+2 (or seeds: [..])
    max_windows: 12         # windowed convergence instead of one window
    post: [series_table, summary, aggregate]  # figure/table emitters

The load shorthand also accepts ``max_windows`` inline —
``load: {saturating: 0.56, points: 7, max_windows: 12}`` — enabling
the windowed-convergence protocol for exactly the points it generates.

:func:`load_campaign` resolves inheritance (missing bases and cycles
are hard errors) and returns a frozen :class:`CampaignSpec`;
:meth:`CampaignSpec.expand` compiles it to a deterministic list of
:class:`CampaignPoint` — declared axis order outermost-first, seeds
innermost — whose steady points are ordinary
:class:`~repro.engine.runspec.RunSpec` values.  Everything downstream
(orchestrator workers, result-store caching, resume, telemetry,
``--snapshot-every``) therefore works on campaign points unchanged,
and a campaign point is *byte-identical* to the same point run through
a figure driver: same builder, same salts, same fingerprint.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.spec import ScenarioSpec
from repro.engine.config import SimulationConfig, ThresholdConfig
from repro.engine.runspec import RunSpec
from repro.experiments.common import Scale, get_scale

KINDS = ("steady", "transient", "scenario")

#: Axes with run-level (not SimulationConfig) meaning.
RUN_AXES = ("routing", "pattern", "load", "transition")

_KNOWN_KEYS = {
    "name", "description", "kind", "scale", "config", "combination",
    "seeds", "replications", "windows", "max_windows", "post",
    "scenario",
}
_WINDOW_KEYS = {"warmup", "measure", "transient_warmup", "transient_post"}

_CONFIG_FIELDS = {f.name for f in SimulationConfig.__dataclass_fields__.values()}


class CampaignError(ValueError):
    """A campaign file is malformed, unresolvable, or inconsistent."""


# ----------------------------------------------------------------------
# Loading: YAML/JSON + recursive ``inherits:`` deep-merge
# ----------------------------------------------------------------------

def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge: ``override`` wins, nested dicts merge.

    Non-dict values (scalars *and* lists) replace wholesale — an
    experiment file that overrides ``combination.routing`` supplies the
    complete new list, it never splices into the base's.
    """
    out = dict(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _parse_file(path: Path) -> dict:
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML present in dev envs
            raise CampaignError(
                f"{path}: reading YAML campaigns requires PyYAML; "
                "install it or use the JSON form"
            ) from None
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CampaignError(f"{path}: a campaign file must be a mapping")
    return data


def _resolve_inherits(parent: Path, name: str) -> Path:
    """Resolve an ``inherits:`` value relative to the inheriting file.

    A bare name (no suffix) tries ``<name>.yaml`` / ``.yml`` / ``.json``
    in the same directory, so campaigns can say ``inherits: base``.
    """
    candidate = parent / name
    if candidate.suffix:
        return candidate
    for suffix in (".yaml", ".yml", ".json"):
        trial = candidate.with_suffix(suffix)
        if trial.exists():
            return trial
    return candidate.with_suffix(".yaml")  # for the error message


def load_mapping(path: str | Path, _visiting: tuple = ()) -> dict:
    """The fully-merged raw mapping for a campaign file.

    Follows ``inherits:`` recursively (deepest base first), deep-merging
    each level's overrides on top.  A missing base file and an
    inheritance cycle are both :class:`CampaignError`.
    """
    path = Path(path).resolve()
    if path in _visiting:
        chain = " -> ".join(p.name for p in (*_visiting, path))
        raise CampaignError(f"campaign inheritance cycle: {chain}")
    if not path.is_file():
        if _visiting:
            raise CampaignError(
                f"{_visiting[-1].name}: inherited base campaign not found: {path}"
            )
        raise CampaignError(f"campaign file not found: {path}")
    data = _parse_file(path)
    inherits = data.pop("inherits", None)
    if inherits is None:
        return data
    if not isinstance(inherits, str):
        raise CampaignError(f"{path.name}: 'inherits' must be a file name")
    base_path = _resolve_inherits(path.parent, inherits)
    base = load_mapping(base_path, (*_visiting, path))
    return deep_merge(base, data)


def load_campaign(path: str | Path, scale: str | None = None) -> "CampaignSpec":
    """Load + inherit + validate a campaign file.

    ``scale`` overrides the file's scale preset (the ``--scale`` CLI
    flag), so one checked-in campaign serves every network size.
    """
    return CampaignSpec.from_mapping(load_mapping(path), scale=scale)


# ----------------------------------------------------------------------
# The compiled grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TransientPoint:
    """One pattern-switch measurement (Fig. 6 protocol) of a campaign."""

    config: SimulationConfig
    before: str
    after: str
    load: float
    warmup: int
    post: int
    bucket: int


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its coordinates and its executable form.

    ``coords`` lists the combination axes in declared order (pattern
    strings resolved, e.g. ``ADV+h`` -> ``ADV+3``) with the replication
    seed appended last, so expansion order and point identity are both
    readable straight off it.
    """

    coords: tuple[tuple[str, object], ...]
    replication: int
    spec: RunSpec | None = None  # steady campaigns
    transient: TransientPoint | None = None  # transient campaigns

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.coords)


def _resolve_pattern(spec: str, h: int) -> str:
    """``ADV+h`` -> ``ADV+<h>`` (the campaign-file form of Fig. 5/6's
    worst-case offset, which depends on the point's own network size)."""
    if isinstance(spec, str) and spec.endswith("+h"):
        return f"{spec[:-1]}{h}"
    return spec


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, frozen campaign: grid axes, seeds, windows, hooks."""

    name: str
    scale: Scale
    kind: str = "steady"
    description: str = ""
    config: dict = field(default_factory=dict)
    combination: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    warmup: int = 2_000
    measure: int = 2_000
    transient_warmup: int = 2_000
    transient_post: int = 2_500
    max_windows: int | None = None  # windowed convergence (steady only)
    scenario: ScenarioSpec | None = None  # cluster scenario (scenario kind)
    post: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, data: dict, scale: str | None = None) -> "CampaignSpec":
        if "backend" in data:
            raise CampaignError(
                "'backend' was removed: the simulator has one engine, so "
                "delete the key from the campaign file"
            )
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise CampaignError(f"unknown campaign keys: {sorted(unknown)}")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise CampaignError("a campaign needs a 'name'")
        kind = data.get("kind", "steady")
        if kind not in KINDS:
            raise CampaignError(f"unknown campaign kind {kind!r}; choose from {KINDS}")
        try:
            scale_obj = get_scale(scale or data.get("scale", "medium"))
        except ValueError as exc:
            raise CampaignError(str(exc)) from None

        config = data.get("config", {})
        if not isinstance(config, dict):
            raise CampaignError("'config' must be a mapping of SimulationConfig overrides")
        bad = set(config) - _CONFIG_FIELDS
        if bad:
            raise CampaignError(f"unknown config overrides: {sorted(bad)}")

        combination = data.get("combination")
        if not isinstance(combination, dict) or not combination:
            raise CampaignError("a campaign needs a non-empty 'combination' grid")
        combination = {
            key: value if isinstance(value, list) else [value]
            for key, value in combination.items()
        }
        if "seed" in combination:
            raise CampaignError(
                "'seed' cannot be a combination axis; use 'seeds:' or 'replications:'"
            )
        required = {
            "transient": ("routing", "transition"),
            # A scenario campaign's traffic comes from its ScenarioSpec;
            # the grid varies routing (and config fields), never the
            # workload itself — identical churn under every routing.
            "scenario": ("routing",),
            "steady": ("routing", "pattern", "load"),
        }[kind]
        for axis in required:
            if axis not in combination:
                raise CampaignError(f"{kind} campaigns need a {axis!r} axis in 'combination'")
        for axis in combination:
            if axis in RUN_AXES:
                continue
            if axis not in _CONFIG_FIELDS:
                raise CampaignError(
                    f"unknown combination axis {axis!r}: not one of {RUN_AXES} "
                    "and not a SimulationConfig field"
                )
        if kind != "transient" and "transition" in combination:
            raise CampaignError("'transition' is a transient-campaign axis")
        if kind == "scenario":
            for axis in ("pattern", "load"):
                if axis in combination:
                    raise CampaignError(
                        f"{axis!r} is not a scenario-campaign axis: the "
                        "traffic comes from the 'scenario' job mix"
                    )
        if kind == "transient":
            for t in combination["transition"]:
                if not isinstance(t, dict) or set(t) != {"before", "after", "load"}:
                    raise CampaignError(
                        "each 'transition' must be {before, after, load}, got "
                        f"{t!r}"
                    )
        max_windows = data.get("max_windows")
        if kind == "steady" and "load" in combination:
            loads = combination["load"]
            # The dict form mirrors Scale.loads(saturating, points): the
            # drivers' default sweep reaching past saturation.  An
            # inline max_windows turns on windowed convergence for the
            # points this shorthand generates.
            if len(loads) == 1 and isinstance(loads[0], dict):
                kw = dict(loads[0])
                if not set(kw) <= {"saturating", "points", "max_windows"}:
                    raise CampaignError(
                        "load grid spec must be {saturating, points"
                        f"[, max_windows]}}, got {kw!r}"
                    )
                inline = kw.pop("max_windows", None)
                if inline is not None:
                    max_windows = inline
                combination["load"] = scale_obj.loads(**kw)
        if kind == "steady":
            for load in combination["load"]:
                if not isinstance(load, (int, float)) or isinstance(load, bool):
                    raise CampaignError(f"loads must be numbers, got {load!r}")

        seeds = data.get("seeds")
        replications = data.get("replications")
        if seeds is not None and replications is not None:
            raise CampaignError("'seeds' and 'replications' are mutually exclusive")
        base_seed = config.get("seed", 1)
        if seeds is None:
            n = 1 if replications is None else replications
            if not isinstance(n, int) or n < 1:
                raise CampaignError(f"'replications' must be a positive int, got {n!r}")
            seeds = [base_seed + i for i in range(n)]
        if (not isinstance(seeds, list) or not seeds
                or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
            raise CampaignError(f"'seeds' must be a non-empty list of ints, got {seeds!r}")
        if len(set(seeds)) != len(seeds):
            raise CampaignError(f"duplicate seeds: {seeds}")

        windows = data.get("windows", {})
        if not isinstance(windows, dict) or not set(windows) <= _WINDOW_KEYS:
            raise CampaignError(f"'windows' keys must be among {sorted(_WINDOW_KEYS)}")

        scenario_data = data.get("scenario")
        scenario = None
        if kind == "scenario":
            if not isinstance(scenario_data, dict):
                raise CampaignError(
                    "scenario campaigns need a 'scenario' mapping "
                    "(ScenarioSpec JSON form)"
                )
            if windows:
                raise CampaignError(
                    "scenario campaigns run the scenario horizon; "
                    "'windows' does not apply"
                )
            try:
                scenario = ScenarioSpec.from_jsonable(scenario_data)
            except (ValueError, TypeError, KeyError) as exc:
                raise CampaignError(f"bad 'scenario' section: {exc}") from None
        elif scenario_data is not None:
            raise CampaignError("'scenario' applies to scenario campaigns only")

        if max_windows is not None:
            if kind != "steady":
                raise CampaignError(
                    "'max_windows' (windowed convergence) applies to steady "
                    "campaigns only"
                )
            if not isinstance(max_windows, int) or isinstance(max_windows, bool) \
                    or max_windows < 1:
                raise CampaignError(
                    f"'max_windows' must be a positive int, got {max_windows!r}"
                )

        post = data.get("post", [])
        if not isinstance(post, list) or not all(isinstance(p, str) for p in post):
            raise CampaignError("'post' must be a list of emitter names")

        return cls(
            name=name,
            scale=scale_obj,
            kind=kind,
            description=data.get("description", ""),
            config=config,
            combination=combination,
            seeds=tuple(seeds),
            warmup=windows.get("warmup", scale_obj.warmup),
            measure=windows.get("measure", scale_obj.measure),
            transient_warmup=windows.get("transient_warmup", scale_obj.transient_warmup),
            transient_post=windows.get("transient_post", scale_obj.transient_post),
            max_windows=max_windows,
            scenario=scenario,
            post=tuple(post),
        )

    # ------------------------------------------------------------------
    def _config_for(self, axis_overrides: dict, seed: int) -> SimulationConfig:
        """The point config: campaign overrides < axis values < seed."""
        overrides = {**self.config, **axis_overrides}
        overrides.pop("seed", None)
        routing = overrides.pop("routing")
        thresholds = overrides.get("thresholds")
        if isinstance(thresholds, dict):
            overrides["thresholds"] = ThresholdConfig(**thresholds)
        h = overrides.pop("h", None)
        try:
            if h is not None and not self.scale.paper_params:
                return SimulationConfig.small(h=h, routing=routing, seed=seed, **overrides)
            if h is not None:
                overrides["h"] = h
            return self.scale.config(routing, seed=seed, **overrides)
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"campaign {self.name!r}: bad point config: {exc}") from None

    def expand(self) -> list[CampaignPoint]:
        """The deterministic point grid.

        Ordering contract (pinned by tests, relied on by resume logs):
        axes iterate in their declared ``combination:`` order, first
        axis outermost, with the replication seeds innermost — so all
        replications of one grid coordinate are adjacent.
        """
        axes = list(self.combination.items())
        names = [name for name, _ in axes]
        points: list[CampaignPoint] = []
        for combo in itertools.product(*(values for _, values in axes)):
            named = dict(zip(names, combo))
            config_axes = {
                key: value for key, value in named.items() if key not in RUN_AXES
            }
            config_axes["routing"] = named["routing"]
            for replication, seed in enumerate(self.seeds):
                config = self._config_for(config_axes, seed)
                if self.kind == "transient":
                    t = named["transition"]
                    before = _resolve_pattern(t["before"], config.h)
                    after = _resolve_pattern(t["after"], config.h)
                    coords = tuple(
                        (k, f"{before}->{after}@{t['load']:g}" if k == "transition"
                         else named[k])
                        for k in names
                    ) + (("seed", seed),)
                    points.append(CampaignPoint(
                        coords=coords,
                        replication=replication,
                        transient=TransientPoint(
                            config=config,
                            before=before,
                            after=after,
                            load=t["load"],
                            warmup=self.transient_warmup,
                            post=self.transient_post,
                            bucket=max(10, self.transient_post // 100),
                        ),
                    ))
                elif self.kind == "scenario":
                    # The ScenarioSpec is shared by every point — same
                    # arrivals, same schedule, same faults — while the
                    # config (routing, seed, ...) varies, so the grid
                    # compares routings under *identical* churn.
                    coords = tuple(
                        (k, named[k]) for k in names
                    ) + (("seed", seed),)
                    points.append(CampaignPoint(
                        coords=coords,
                        replication=replication,
                        spec=RunSpec.for_scenario(config, self.scenario),
                    ))
                else:
                    pattern = _resolve_pattern(named["pattern"], config.h)
                    coords = tuple(
                        (k, pattern if k == "pattern" else named[k]) for k in names
                    ) + (("seed", seed),)
                    points.append(CampaignPoint(
                        coords=coords,
                        replication=replication,
                        spec=RunSpec(
                            config, pattern, named["load"], self.warmup, self.measure,
                            max_windows=self.max_windows,
                        ),
                    ))
        return points
