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


def _check_keys(obj: dict, allowed: set, where: str) -> None:
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
        try:
            return AffineField(np.array(block["A"], dtype=float),
                               np.array(block["B"], dtype=float),
                               np.array(block["c"], dtype=float),
                               L_df, L_g)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"field 'dynamics': bad affine block ({exc})") from exc
    raise ScenarioError(f"field 'dynamics.type': unknown type '{kind}'")


def parse_scenario(data: dict) -> Scenario:
    _require(isinstance(data, dict), "<root>", "scenario must be a JSON object")
    _check_keys(data, TOP_LEVEL_KEYS, "<root>")

    bounds = np.asarray(data["state_bounds"], dtype=float)
    _require(bounds.ndim == 2 and bounds.shape[1] == 2, "state_bounds",
             "must be a list of [low, high] pairs")
    _require(bool(np.all(bounds[:, 0] < bounds[:, 1])), "state_bounds", "low must be < high")
    grid = data["grid"]
    _require(isinstance(grid, list) and len(grid) == len(bounds)
             and all(isinstance(g, int) and g >= 1 for g in grid),
             "grid", "must be positive integer cell counts per dimension")
    partition = GridPartition(bounds, grid)

    control_box = np.asarray(data["control_box"], dtype=float)
    _require(control_box.ndim == 2 and control_box.shape[1] == 2, "control_box",
             "must be a list of [low, high] pairs")
    _require(bool(np.all(control_box[:, 0] <= control_box[:, 1])), "control_box",
             "low must be <= high")

    lip = data["lipschitz"]
    _check_keys(lip, LIPSCHITZ_KEYS, "lipschitz")
    L_df, L_g = float(lip["L_df"]), float(lip["L_g"])
    _require(L_df > 0 and L_g > 0, "lipschitz", "constants must be positive")

    gamma = float(data["gamma"])
    _require(gamma > 0, "gamma", "must be positive")

    sb = data["sysid"]
    _check_keys(sb, SYSID_KEYS, "sysid")
    try:
        vmode = VelocityMode(sb["velocity_mode"])
    except ValueError as exc:
        raise ScenarioError(
            f"field 'sysid.velocity_mode': must be one of "
            f"{[v.value for v in VelocityMode]}") from exc
    sysid = IdentificationConfig(int(sb["N"]), float(sb["T"]), float(sb["input_scale"]),
                                 vmode, int(sb["seed"]))
    _require(sysid.samples >= 1, "sysid.N", "must be positive")
    _require(sysid.time_step > 0, "sysid.T", "must be positive")
    _require(sysid.input_scale > 0, "sysid.input_scale", "must be positive")

    field = _build_field(data["dynamics"], L_df, L_g)
    _require(field.n == len(bounds), "state_bounds",
             f"dimension {len(bounds)} does not match dynamics state dimension {field.n}")
    _require(field.m == len(control_box), "control_box",
             f"dimension {len(control_box)} does not match dynamics input dimension {field.m}")

    initial_state = np.asarray(data["initial_state"], dtype=float)
    _require(initial_state.shape == (field.n,), "initial_state",
             f"must be a length-{field.n} vector")
    try:
        partition.locate(initial_state)
    except OutOfDomainError as exc:
        raise ScenarioError(f"field 'initial_state': {exc}") from exc

    target = data["target"]
    if isinstance(target, int):
        _require(0 <= target < partition.n_cells, "target",
                 f"cell id out of range [0, {partition.n_cells})")
        target_cell = target
    else:
        tstate = np.asarray(target, dtype=float)
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
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_scenario(data)
