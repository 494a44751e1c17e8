"""File emitters: trajectory CSV, graph JSON, mission JSON. All writes are
atomic (temp file in the target directory + rename). The CSV and the graph
JSON, the large ones, are written from text templates, in the bytes that
per-value f-strings and json.dumps write."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

from .geometry import GridPartition
from .graph import ReachGraph, ReachStatus
from .planner import MissionLog


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(path, trajectory, n: int, m: int) -> None:
    """One row per sample: t, x, u as %.17g, which round-trips a double
    (f"{v:.17g}" gives the same text), then the cell id. x and u are
    sequences of floats, as the planner's samples are."""
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)] + ["cell_id"]
    row = ",".join(["%.17g"] * (1 + n + m) + ["%s"])
    lines = [",".join(header)]
    lines += [row % (t, *x, *u, cid) for t, x, u, cid in trajectory]
    atomic_write_text(path, "\n".join(lines) + "\n")


_STATUS_JSON = {status: json.dumps(status.value) for status in ReachStatus}
# How json writes the floats that float.__repr__ spells inf, -inf and nan.
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _json_list(items: list[str]) -> str:
    """A list at indent level one of items already written at level two."""
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def write_graph_json(path, graph: ReachGraph, partition: GridPartition) -> None:
    """The graph as json.dumps(..., indent=1) writes {"nodes": [{"id",
    "center"}], "edges": [{"src", "dst", "status", "weight", "definitive"}]},
    edges in (src, dst) order, from one template per node and per edge."""
    nodes = [
        '  {\n   "id": %d,\n   "center": [\n    %s\n   ]\n  }'
        % (cid, ",\n    ".join(map(_json_float, partition.center(cid).tolist())))
        for cid in graph.nodes
    ]
    edges = [
        '  {\n   "src": %d,\n   "dst": %d,\n   "status": %s,\n   "weight": %s,\n'
        '   "definitive": %s\n  }'
        % (src, dst, _STATUS_JSON[edge.status], _json_float(float(edge.weight)),
           "true" if edge.definitive else "false")
        for (src, dst), edge in sorted(graph.edges.items())
    ]
    parts = ['{\n "nodes": ', _json_list(nodes), ',\n "edges": ', _json_list(edges), "\n}\n"]
    atomic_write_text(path, "".join(parts))


def write_mission_json(path, log: MissionLog) -> None:
    """The mission's outcome, its identified models and one record per
    iteration, each record as its IterationRecord fields in field order."""
    mission = {
        "status": log.status.value,
        "initial_cell": log.initial_cell,
        "target_cell": log.target_cell,
        "explored": list(log.models),
        "iterations": len(log.records),
        "models": {str(cid): {f.name: getattr(m, f.name).tolist() for f in dataclasses.fields(m)}
                   for cid, m in log.models.items()},
        "records": [dataclasses.asdict(r) for r in log.records],
    }
    atomic_write_text(path, json.dumps(mission, indent=1) + "\n")
