"""Declarative sweep specifications for design-space exploration.

A :class:`SweepSpec` names the axes of a campaign — which knobs vary and
over which grids — instead of the runs themselves.  Expansion turns it
into an ordered stream of :class:`SweepPoint` bindings with stable,
content-addressed ``point_id``\\ s, which the driver (:mod:`repro.exps.
dse.drive`) maps onto :class:`~repro.exps.engine.RunSpec` submissions.

Axes come in three value forms (explicit list, inclusive arithmetic
range, geometric/log grid) and two compositions:

* the spec's top-level groups combine by **product** (the full grid);
* a :class:`ZipAxes` group varies several axes **together** (paired
  values, like ``zip()``), and participates in the product as one group.

Parameters split into two tiers, mirroring what the campaign service can
content-address remotely:

* **cell tier** (``environment``, ``mode``, ``workloads``,
  ``workload_family``) — dimensions of one runner's (environment, mode)
  grid; these cross the JSON-lines wire (suite workloads by name,
  generated family members inline) and coalesce/dedupe through
  :func:`~repro.exps.cache.summary_key`.  A ``workload_family`` value is
  a ``name[:size[:seed]]`` reference (see :mod:`repro.workloads.
  families`) expanded to its deterministic members at drive time; it is
  mutually exclusive with ``workloads``.
* **runner tier** (``chips``, ``cores``, ``seed``, ``n_instructions``,
  ``fc_examples``, ``phi``, ``pe_max``) — knobs baked into a
  :class:`~repro.exps.runner.RunnerConfig` or
  :class:`~repro.calibration.Calibration`; sweeping them locally spins
  up one runner per binding, and they cannot be submitted to a remote
  daemon (whose runner is fixed server-side).

Wire format (``to_wire`` / ``from_wire`` / ``from_json``)::

    {
      "base": {"mode": "Exh-Dyn"},
      "axes": [
        {"param": "environment", "values": ["TS", "TS+ASV", "ALL"]},
        {"param": "phi", "logrange": {"start": 0.25, "stop": 1.0, "num": 3}},
        {"zip": [{"param": "chips", "values": [4, 8]},
                 {"param": "cores", "values": [1, 2]}]}
      ]
    }

Range sugar (``range`` / ``logrange``) is normalised to explicit values
at parse time, so ``from_wire(spec.to_wire())`` always round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ...core.environments import AdaptationMode, by_name
from ..cache import stable_hash

#: Parameters resolved per (environment, mode) cell — submittable to a
#: remote campaign daemon (suite workloads by name; a ``workload_family``
#: expands to generated profiles that cross the wire inline).
CELL_PARAMS = ("environment", "mode", "workloads", "workload_family")

#: Parameters baked into the runner (scale, seed, variation severity) or
#: the calibration (error-rate budget) — local sweeps only.
RUNNER_PARAMS = (
    "chips", "cores", "seed", "n_instructions", "fc_examples", "phi", "pe_max",
)

KNOWN_PARAMS = CELL_PARAMS + RUNNER_PARAMS


def _check_param(param: str) -> str:
    if param not in KNOWN_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r} "
            f"(cell tier: {list(CELL_PARAMS)}, "
            f"runner tier: {list(RUNNER_PARAMS)})"
        )
    return param


def _normalise_value(param: str, value: Any) -> Any:
    """Light per-parameter validation/coercion of one axis value."""
    if param == "environment":
        by_name(str(value))  # raises KeyError on unknown names
        return str(value)
    if param == "mode":
        return AdaptationMode(str(value)).value
    if param == "workloads":
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(name, str) for name in value
        ):
            raise ValueError(
                f"workloads axis values must be lists of names, got {value!r}"
            )
        return tuple(value)
    if param == "workload_family":
        if not isinstance(value, str):
            raise ValueError(
                f"workload_family axis values must be "
                f"'name[:size[:seed]]' references, got {value!r}"
            )
        # Canonicalise (fill in default size/seed) so equal families get
        # equal point ids; raises on unknown names / malformed refs.
        from ...workloads.families import canonical_family_ref

        try:
            return canonical_family_ref(value)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad workload_family value {value!r}: {exc}")
    if param in ("chips", "cores", "seed", "n_instructions", "fc_examples"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{param} values must be integers, got {value!r}")
        return int(value)
    # phi / pe_max: positive reals.
    number = float(value)
    if number <= 0.0:
        raise ValueError(f"{param} values must be positive, got {value!r}")
    return number


@dataclass(frozen=True)
class Axis:
    """One swept parameter and its ordered values."""

    param: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        _check_param(self.param)
        values = tuple(
            _normalise_value(self.param, value) for value in self.values
        )
        if not values:
            raise ValueError(f"axis {self.param!r} has no values")
        object.__setattr__(self, "values", values)

    # -- constructors ----------------------------------------------------
    @classmethod
    def of(cls, param: str, values: Iterable[Any]) -> "Axis":
        """An explicit-list axis."""
        return cls(param, tuple(values))

    @classmethod
    def range(
        cls, param: str, start: float, stop: float, step: float = 1
    ) -> "Axis":
        """An inclusive arithmetic grid: ``start, start+step, ... <= stop``."""
        if step <= 0:
            raise ValueError("range step must be positive")
        values: List[Any] = []
        value = start
        # Half-step tolerance keeps float grids inclusive of their stop.
        while value <= stop + step * 1e-9:
            values.append(value)
            value = value + step
        return cls(param, tuple(values))

    @classmethod
    def logrange(cls, param: str, start: float, stop: float, num: int) -> "Axis":
        """A geometric grid of ``num`` points from ``start`` to ``stop``."""
        if num < 1:
            raise ValueError("logrange needs num >= 1")
        if start <= 0 or stop <= 0:
            raise ValueError("logrange endpoints must be positive")
        if num == 1:
            return cls(param, (start,))
        ratio = (stop / start) ** (1.0 / (num - 1))
        return cls(
            param, tuple(start * ratio ** i for i in range(num))
        )

    # -- composition -----------------------------------------------------
    @property
    def params(self) -> Tuple[str, ...]:
        return (self.param,)

    def bindings(self) -> List[Dict[str, Any]]:
        """The per-value parameter bindings this axis contributes."""
        return [{self.param: value} for value in self.values]

    # -- wire ------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        return {
            "param": self.param,
            "values": [
                list(v) if isinstance(v, tuple) else v for v in self.values
            ],
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "Axis":
        """Parse one axis document (explicit, ``range`` or ``logrange``)."""
        try:
            param = doc["param"]
        except KeyError as exc:
            raise ValueError(f"axis document missing 'param': {doc!r}") from exc
        forms = [key for key in ("values", "range", "logrange") if key in doc]
        if len(forms) != 1:
            raise ValueError(
                f"axis {param!r} needs exactly one of "
                f"values/range/logrange, got {forms or 'none'}"
            )
        if "values" in doc:
            return cls.of(param, doc["values"])
        if "range" in doc:
            spec = doc["range"]
            return cls.range(
                param, spec["start"], spec["stop"], spec.get("step", 1)
            )
        spec = doc["logrange"]
        return cls.logrange(param, spec["start"], spec["stop"], spec["num"])


@dataclass(frozen=True)
class ZipAxes:
    """Several equal-length axes varied together (paired values)."""

    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) < 2:
            raise ValueError("zip group needs at least two axes")
        lengths = {len(axis.values) for axis in self.axes}
        if len(lengths) != 1:
            raise ValueError(
                "zip group axes must have equal lengths, got "
                + ", ".join(
                    f"{axis.param}={len(axis.values)}" for axis in self.axes
                )
            )
        params = [axis.param for axis in self.axes]
        if len(set(params)) != len(params):
            raise ValueError(f"zip group repeats parameters: {params}")

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(axis.param for axis in self.axes)

    def bindings(self) -> List[Dict[str, Any]]:
        length = len(self.axes[0].values)
        return [
            {axis.param: axis.values[i] for axis in self.axes}
            for i in range(length)
        ]

    def to_wire(self) -> Dict[str, Any]:
        return {"zip": [axis.to_wire() for axis in self.axes]}

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "ZipAxes":
        return cls(tuple(Axis.from_wire(inner) for inner in doc["zip"]))


AxisGroup = Union[Axis, ZipAxes]


@dataclass(frozen=True)
class SweepPoint:
    """One expanded binding of every swept + fixed parameter.

    ``point_id`` is a content hash of the parameter binding — stable
    across re-expansions, re-orderings of equal specs, and processes —
    so resuming a sweep or joining result tables never depends on the
    expansion index.
    """

    index: int
    point_id: str
    params: Mapping[str, Any]

    def runner_params(self) -> Dict[str, Any]:
        return {k: v for k, v in self.params.items() if k in RUNNER_PARAMS}


def point_id_for(params: Mapping[str, Any]) -> str:
    """The stable content-addressed id of one parameter binding."""
    return stable_hash({"kind": "dse-point", "params": dict(params)})[:16]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative DSE campaign: fixed ``base`` params × product of axes.

    ``axes`` groups combine by product in listed order (the last group
    varies fastest); ``base`` holds parameters fixed across every point
    (an axis may not rebind a base parameter).  ``expand()`` returns the
    ordered points.
    """

    axes: Tuple[AxisGroup, ...] = ()
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        base = {
            _check_param(str(key)): _normalise_value(str(key), value)
            for key, value in dict(self.base).items()
        }
        object.__setattr__(self, "base", base)
        seen = set(base)
        for group in self.axes:
            if not isinstance(group, (Axis, ZipAxes)):
                raise ValueError(f"not an axis or zip group: {group!r}")
            for param in group.params:
                if param in seen:
                    raise ValueError(f"parameter {param!r} bound twice")
                seen.add(param)
        if "environment" not in seen:
            raise ValueError("sweep binds no 'environment' (axis or base)")
        if "workloads" in seen and "workload_family" in seen:
            raise ValueError(
                "bind either 'workloads' or 'workload_family', not both"
            )

    # -- expansion -------------------------------------------------------
    def param_names(self) -> List[str]:
        """Every bound parameter, base first, then axes in spec order."""
        names = list(self.base)
        for group in self.axes:
            names.extend(group.params)
        return names

    def expand(self) -> List[SweepPoint]:
        """The ordered point stream (product over groups, last fastest)."""
        points: List[SweepPoint] = []
        defaults = {"mode": AdaptationMode.EXH_DYN.value}
        stack: List[List[Dict[str, Any]]] = [
            group.bindings() for group in self.axes
        ]

        def rec(depth: int, bound: Dict[str, Any]) -> None:
            if depth == len(stack):
                params = {**defaults, **bound}
                points.append(
                    SweepPoint(
                        index=len(points),
                        point_id=point_id_for(params),
                        params=params,
                    )
                )
                return
            for binding in stack[depth]:
                rec(depth + 1, {**bound, **binding})

        rec(0, dict(self.base))
        return points

    # -- wire ------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        base = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self.base.items()
        }
        return {
            "base": base,
            "axes": [group.to_wire() for group in self.axes],
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(doc, Mapping):
            raise ValueError(f"sweep document must be an object, got {doc!r}")
        groups: List[AxisGroup] = []
        for axis_doc in doc.get("axes", []):
            if "zip" in axis_doc:
                groups.append(ZipAxes.from_wire(axis_doc))
            else:
                groups.append(Axis.from_wire(axis_doc))
        return cls(axes=tuple(groups), base=dict(doc.get("base", {})))

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_wire(json.loads(text))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_wire(), indent=indent, sort_keys=True)


def dedupe_points(points: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Drop points whose parameter binding repeats an earlier one.

    Composed specs can legitimately revisit a binding (e.g. a zip group
    whose rows collide with a base override); executing it twice would
    only re-serve the same content-addressed cells, so the driver
    submits each distinct binding once.
    """
    seen: set = set()
    unique: List[SweepPoint] = []
    for point in points:
        if point.point_id in seen:
            continue
        seen.add(point.point_id)
        unique.append(point)
    return unique
