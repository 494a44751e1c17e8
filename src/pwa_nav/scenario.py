"""Scenario files: strict JSON schema, validation diagnostics that name the
offending field, and construction of the runtime objects."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import AffineField, ControlAffineField, TerrainField
from .geometry import GridPartition, OutOfDomainError
from .graph import WeightMode
from .sysid import IdentificationConfig, VelocityMode

TOP_LEVEL_KEYS = {
    "dynamics", "state_bounds", "grid", "control_box", "lipschitz",
    "gamma", "sysid", "initial_state", "target", "weight_mode",
}
SYSID_KEYS = {"N", "T", "input_scale", "velocity_mode", "seed"}
LIPSCHITZ_KEYS = {"L_df", "L_g"}


class ScenarioError(ValueError):
    """Malformed scenario; the message names the field."""


@dataclass
class Scenario:
    field: ControlAffineField
    partition: GridPartition
    control_box: np.ndarray
    L_df: float
    L_g: float
    gamma: float
    sysid: IdentificationConfig
    initial_state: np.ndarray
    target_cell: int
    weight_mode: WeightMode


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"field '{field}': {msg}")


def _numbers(value, field: str) -> np.ndarray:
    """A JSON number or rectangular nested list of numbers as a float array.
    Anything else (strings, booleans, null, ragged lists) and non-finite
    entries raise a ScenarioError naming the field."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ScenarioError(f"field '{field}': must be a rectangular list of numbers") from exc
    _require(arr.dtype.kind in "iuf", field, "must hold numbers only")
    arr = arr.astype(float)
    _require(bool(np.all(np.isfinite(arr))), field, "must be finite")
    return arr


def _number(value, field: str) -> float:
    arr = _numbers(value, field)
    _require(arr.ndim == 0, field, "must be a number")
    return float(arr)


def _is_integer(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, field: str) -> int:
    _require(_is_integer(value), field, "must be an integer")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    _require(isinstance(obj, dict), where, "must be a JSON object")
    unknown = set(obj) - allowed
    _require(not unknown, where, f"unknown keys {sorted(unknown)}")
    missing = allowed - set(obj)
    _require(not missing, where, f"missing keys {sorted(missing)}")


def _build_field(block, L_df: float, L_g: float) -> ControlAffineField:
    _require(isinstance(block, dict) and "type" in block, "dynamics", "must have a 'type'")
    kind = block["type"]
    if kind == "terrain":
        _require(set(block) == {"type"}, "dynamics", "terrain block takes no parameters")
        return TerrainField()
    if kind == "affine":
        _check_keys(block, {"type", "A", "B", "c"}, "dynamics")
        A, B, c = (_numbers(block[key], f"dynamics.{key}") for key in ("A", "B", "c"))
        n = len(A) if A.ndim else 0
        _require(A.shape == (n, n) and n >= 1, "dynamics.A", "must be a square matrix")
        _require(B.ndim == 2 and len(B) == n and B.shape[1] >= 1, "dynamics.B",
                 f"must be a matrix with {n} rows")
        _require(c.shape == (n,), "dynamics.c", f"must be a length-{n} vector")
        return AffineField(A, B, c, L_df, L_g)
    raise ScenarioError(f"field 'dynamics.type': unknown type '{kind}'")


def parse_scenario(data: dict) -> Scenario:
    _require(isinstance(data, dict), "<root>", "scenario must be a JSON object")
    _check_keys(data, TOP_LEVEL_KEYS, "<root>")

    bounds = _numbers(data["state_bounds"], "state_bounds")
    _require(bounds.ndim == 2 and bounds.shape[1] == 2, "state_bounds",
             "must be a list of [low, high] pairs")
    _require(bool(np.all(bounds[:, 0] < bounds[:, 1])), "state_bounds", "low must be < high")
    # The graph and the deviation radii take norms of distances between
    # states, which square coordinate differences up to the diagonal's.
    with np.errstate(over="ignore"):
        diagonal = bounds[:, 1] - bounds[:, 0]
        _require(bool(np.isfinite(diagonal @ diagonal)), "state_bounds",
                 "the squared length of the domain's diagonal must be a finite float")
    grid = data["grid"]
    _require(isinstance(grid, list) and len(grid) == len(bounds)
             and all(_is_integer(g) and g >= 1 for g in grid),
             "grid", "must be positive integer cell counts per dimension")
    partition = GridPartition(bounds, grid)

    control_box = _numbers(data["control_box"], "control_box")
    _require(control_box.ndim == 2 and control_box.shape[1] == 2, "control_box",
             "must be a list of [low, high] pairs")
    _require(bool(np.all(control_box[:, 0] <= control_box[:, 1])), "control_box",
             "low must be <= high")

    lip = data["lipschitz"]
    _check_keys(lip, LIPSCHITZ_KEYS, "lipschitz")
    L_df, L_g = _number(lip["L_df"], "lipschitz.L_df"), _number(lip["L_g"], "lipschitz.L_g")
    _require(L_df > 0 and L_g > 0, "lipschitz", "constants must be positive")

    gamma = _number(data["gamma"], "gamma")
    _require(gamma > 0, "gamma", "must be positive")

    sb = data["sysid"]
    _check_keys(sb, SYSID_KEYS, "sysid")
    try:
        vmode = VelocityMode(sb["velocity_mode"])
    except ValueError as exc:
        raise ScenarioError(
            f"field 'sysid.velocity_mode': must be one of "
            f"{[v.value for v in VelocityMode]}") from exc
    sysid = IdentificationConfig(_integer(sb["N"], "sysid.N"), _number(sb["T"], "sysid.T"),
                                 _number(sb["input_scale"], "sysid.input_scale"), vmode,
                                 _integer(sb["seed"], "sysid.seed"))
    _require(sysid.samples >= 1, "sysid.N", "must be positive")
    _require(sysid.seed >= 0, "sysid.seed", "must be non-negative")
    _require(sysid.time_step > 0, "sysid.T", "must be positive")
    _require(sysid.input_scale > 0, "sysid.input_scale", "must be positive")
    # Inputs are drawn from [-input_scale, input_scale], whose width must be
    # a finite float.
    _require(sysid.input_scale <= np.finfo(float).max / 2, "sysid.input_scale",
             "must be at most half the largest float")

    field = _build_field(data["dynamics"], L_df, L_g)
    _require(field.n == len(bounds), "state_bounds",
             f"dimension {len(bounds)} does not match dynamics state dimension {field.n}")
    _require(field.m == len(control_box), "control_box",
             f"dimension {len(control_box)} does not match dynamics input dimension {field.m}")

    initial_state = _numbers(data["initial_state"], "initial_state")
    _require(initial_state.shape == (field.n,), "initial_state",
             f"must be a length-{field.n} vector")
    try:
        partition.locate(initial_state)
    except OutOfDomainError as exc:
        raise ScenarioError(f"field 'initial_state': {exc}") from exc

    target = data["target"]
    if _is_integer(target):
        _require(0 <= target < partition.n_cells, "target",
                 f"cell id out of range [0, {partition.n_cells})")
        target_cell = target
    else:
        tstate = _numbers(target, "target")
        _require(tstate.shape == (field.n,), "target",
                 "must be a cell id or a state vector")
        try:
            target_cell = partition.locate(tstate)
        except OutOfDomainError as exc:
            raise ScenarioError(f"field 'target': {exc}") from exc

    try:
        weight_mode = WeightMode(data["weight_mode"])
    except ValueError as exc:
        raise ScenarioError(
            f"field 'weight_mode': must be one of {[w.value for w in WeightMode]}") from exc

    return Scenario(field, partition, control_box, L_df, L_g, gamma, sysid,
                    initial_state, target_cell, weight_mode)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_scenario(data)
