"""Power-network case files: parsing, validation, canonical serialization.

A case document is a single JSON object:

    {"buses": [{"id": 1}, ...],
     "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "flow_limit": 80.0}, ...],
     "generators": [{"bus": 1, "cost": 20.0, "p_min": 0.0, "p_max": 300.0}, ...],
     "nominal_load": [0.0, 50.0, ...]}

Bus ids in the file are arbitrary integers; at load time they are
normalized to contiguous 0-based indices (sorted by original id) and the
original id is kept as the bus label for reporting.  ``nominal_load`` is
aligned with the order of the ``buses`` array in the file.  Loads and
flow limits are in MW, susceptances per-unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "Bus",
    "Line",
    "Generator",
    "NetworkCase",
    "load_case",
    "load_case_file",
    "validate_case",
    "serialize",
    "validate_load",
]


@dataclass(frozen=True)
class Bus:
    id: int           # normalized, contiguous 0-based index
    label: int        # id as written in the case file


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    susceptance: float
    flow_limit: float


@dataclass(frozen=True)
class Generator:
    bus: int
    cost: float
    p_min: float
    p_max: float


@dataclass(frozen=True, eq=False)
class NetworkCase:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    nominal_load: np.ndarray = field(repr=False)

    def __post_init__(self):
        load = np.asarray(self.nominal_load, dtype=float).copy()
        load.flags.writeable = False
        object.__setattr__(self, "nominal_load", load)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_gens(self) -> int:
        return len(self.generators)


# Structural requirements mirrored by docs/case_schema.json.  Range and
# topology rules are deliberately absent here: the schema answers
# "is this a case document at all", validation answers "is it a sane one".
_LINE_KEYS = {"from": int, "to": int, "susceptance": (int, float), "flow_limit": (int, float)}
_GEN_KEYS = {"bus": int, "cost": (int, float), "p_min": (int, float), "p_max": (int, float)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _check_fields(obj, keys, where: str) -> None:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    for key, types in keys.items():
        _require(key in obj, f"{where}: missing key '{key}'")
        value = obj[key]
        _require(isinstance(value, types) and not isinstance(value, bool),
                 f"{where}: '{key}' has wrong type")
    extra = set(obj) - set(keys)
    _require(not extra, f"{where}: unknown keys {sorted(extra)}")


def _parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level: expected an object")
    required = {"buses", "lines", "generators", "nominal_load"}
    missing = required - set(doc)
    _require(not missing, f"top level: missing keys {sorted(missing)}")
    extra = set(doc) - required
    _require(not extra, f"top level: unknown keys {sorted(extra)}")
    for name in ("buses", "lines", "generators", "nominal_load"):
        _require(isinstance(doc[name], list), f"'{name}' must be an array")
    _require(len(doc["buses"]) >= 1, "'buses' must be non-empty")
    for i, bus in enumerate(doc["buses"]):
        _check_fields(bus, {"id": int}, f"buses[{i}]")
    for i, line in enumerate(doc["lines"]):
        _check_fields(line, _LINE_KEYS, f"lines[{i}]")
    for i, gen in enumerate(doc["generators"]):
        _check_fields(gen, _GEN_KEYS, f"generators[{i}]")
    for i, value in enumerate(doc["nominal_load"]):
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"nominal_load[{i}] must be a number")
    return doc


def _connected_components(n: int, edges) -> int:
    if n == 0:
        return 0
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
    return components


def _non_finite(where: str, item, fields) -> list[str]:
    return [f"{where} has non-finite {name} {getattr(item, name)}"
            for name in fields if not math.isfinite(getattr(item, name))]


def validate_case(case: NetworkCase) -> list[str]:
    """Return a list of invariant violations, empty when the case is valid."""
    violations: list[str] = []
    n = case.n_buses

    labels = [bus.label for bus in case.buses]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        violations.append(f"duplicate bus ids {dupes}")
    if [bus.id for bus in case.buses] != list(range(n)):
        violations.append("bus indices are not contiguous 0-based")

    for i, line in enumerate(case.lines):
        if not (0 <= line.from_bus < n) or not (0 <= line.to_bus < n):
            violations.append(f"line {i} references unknown bus")
            continue
        if line.from_bus == line.to_bus:
            violations.append(f"line {i} is a self-loop at bus {line.from_bus}")
        violations += _non_finite(f"line {i}", line, ("susceptance", "flow_limit"))
        if line.susceptance <= 0:
            violations.append(f"line {i} has nonpositive susceptance {line.susceptance}")
        if line.flow_limit <= 0:
            violations.append(f"line {i} has nonpositive flow limit {line.flow_limit}")

    for i, gen in enumerate(case.generators):
        if not (0 <= gen.bus < n):
            violations.append(f"generator {i} at unknown bus {gen.bus}")
        violations += _non_finite(f"generator {i}", gen, ("cost", "p_min", "p_max"))
        if gen.cost < 0:
            violations.append(f"generator {i} has negative cost {gen.cost}")
        if not (0 <= gen.p_min <= gen.p_max):
            violations.append(
                f"generator {i} violates 0 <= p_min <= p_max "
                f"({gen.p_min}, {gen.p_max})")

    if case.nominal_load.shape != (n,):
        violations.append(
            f"nominal_load has length {case.nominal_load.shape[0]}, expected {n}")
    else:
        non_finite = np.flatnonzero(~np.isfinite(case.nominal_load))
        if non_finite.size:
            violations.append(f"nominal_load non-finite at buses {non_finite.tolist()}")
        negative = np.flatnonzero(case.nominal_load < 0)
        if negative.size:
            violations.append(f"nominal_load negative at buses {negative.tolist()}")
        total_cap = sum(g.p_max for g in case.generators)
        total_load = float(case.nominal_load.sum())
        if total_cap < total_load:
            violations.append(
                f"total generation capacity {total_cap} below total nominal load {total_load}")

    edges = [(line.from_bus, line.to_bus) for line in case.lines
             if 0 <= line.from_bus < n and 0 <= line.to_bus < n
             and line.from_bus != line.to_bus]
    if _connected_components(n, edges) != 1:
        violations.append("network graph is disconnected")

    return violations


def load_case(text: str) -> NetworkCase:
    """Parse and validate a case document."""
    doc = _parse_document(text)

    labels = [bus["id"] for bus in doc["buses"]]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValidationError(f"duplicate bus ids {dupes}")
    if len(doc["nominal_load"]) != len(labels):
        raise ValidationError(
            f"nominal_load has length {len(doc['nominal_load'])}, "
            f"expected {len(labels)}")

    order = sorted(range(len(labels)), key=lambda i: labels[i])
    index_of = {labels[i]: rank for rank, i in enumerate(order)}
    buses = tuple(Bus(id=rank, label=labels[i]) for rank, i in enumerate(order))
    load = np.array([doc["nominal_load"][i] for i in order], dtype=float)

    unknown = [line["from"] for line in doc["lines"] if line["from"] not in index_of]
    unknown += [line["to"] for line in doc["lines"] if line["to"] not in index_of]
    unknown += [gen["bus"] for gen in doc["generators"] if gen["bus"] not in index_of]
    if unknown:
        raise ValidationError(f"references to unknown bus ids {sorted(set(unknown))}")

    lines = tuple(
        Line(from_bus=index_of[line["from"]], to_bus=index_of[line["to"]],
             susceptance=float(line["susceptance"]),
             flow_limit=float(line["flow_limit"]))
        for line in doc["lines"])
    generators = tuple(
        Generator(bus=index_of[gen["bus"]], cost=float(gen["cost"]),
                  p_min=float(gen["p_min"]), p_max=float(gen["p_max"]))
        for gen in doc["generators"])

    case = NetworkCase(buses=buses, lines=lines, generators=generators,
                       nominal_load=load)
    violations = validate_case(case)
    if violations:
        raise ValidationError(violations)
    return case


def load_case_file(path) -> NetworkCase:
    with open(path, "r", encoding="utf-8") as handle:
        return load_case(handle.read())


def serialize(case: NetworkCase) -> str:
    """Canonical JSON form; load_case(serialize(c)) reproduces c."""
    label_of = {bus.id: bus.label for bus in case.buses}
    doc = {
        "buses": [{"id": bus.label} for bus in case.buses],
        "lines": [{"from": label_of[line.from_bus], "to": label_of[line.to_bus],
                   "susceptance": line.susceptance, "flow_limit": line.flow_limit}
                  for line in case.lines],
        "generators": [{"bus": label_of[gen.bus], "cost": gen.cost,
                        "p_min": gen.p_min, "p_max": gen.p_max}
                       for gen in case.generators],
        "nominal_load": [float(v) for v in case.nominal_load],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def validate_load(values, n_buses: int) -> np.ndarray:
    """Check a load vector (length, finiteness, non-negativity) and return
    it as an array."""
    load = np.asarray(values, dtype=float)
    if load.shape != (n_buses,):
        raise ValidationError(
            f"load vector has shape {load.shape}, expected ({n_buses},)")
    if not np.isfinite(load).all():
        raise ValidationError("load vector has non-finite entries")
    if np.any(load < 0):
        raise ValidationError("load vector has negative entries")
    return load
