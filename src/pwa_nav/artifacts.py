"""File emitters: trajectory CSV, graph JSON, mission JSON. All writes are
atomic (temp file in the target directory + rename)."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .geometry import GridPartition
from .graph import ReachGraph
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path, trajectory, n: int, m: int) -> None:
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)] + ["cell_id"]
    lines = [",".join(header)]
    for t, x, u, cid in trajectory:
        lines.append(",".join(
            [_fmt(t)] + [_fmt(v) for v in x.tolist()] + [_fmt(v) for v in u.tolist()]
            + [str(cid)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def graph_to_dict(graph: ReachGraph, partition: GridPartition) -> dict:
    nodes = [{"id": cid, "center": [float(v) for v in partition.center(cid)]}
             for cid in graph.nodes]
    edges = [
        {
            "src": src,
            "dst": dst,
            "status": edge.status.value,
            "weight": float(edge.weight),
            "definitive": bool(edge.definitive),
        }
        for (src, dst), edge in sorted(graph.edges.items())
    ]
    return {"nodes": nodes, "edges": edges}


def write_graph_json(path, graph: ReachGraph, partition: GridPartition) -> None:
    atomic_write_text(path, json.dumps(graph_to_dict(graph, partition), indent=1) + "\n")


def mission_to_dict(log: MissionLog) -> dict:
    return {
        "status": log.status.value,
        "initial_cell": log.initial_cell,
        "target_cell": log.target_cell,
        "explored": list(log.models),
        "iterations": len(log.records),
        "models": {
            str(cid): {
                "A": np.asarray(m.A).tolist(),
                "B": np.asarray(m.B).tolist(),
                "c": np.asarray(m.c).tolist(),
                "center": np.asarray(m.center).tolist(),
            }
            for cid, m in log.models.items()
        },
        "records": [
            {
                "iteration": r.iteration,
                "cell": r.cell,
                "identified": r.identified,
                "path": r.path,
                "target_edge": list(r.target_edge) if r.target_edge else None,
                "outcome": r.outcome,
                "exit_facet": r.exit_facet,
                "intended_facet": r.intended_facet,
                "transit_time": r.transit_time,
                "residual_rms": r.residual_rms,
            }
            for r in log.records
        ],
    }


def write_mission_json(path, log: MissionLog) -> None:
    atomic_write_text(path, json.dumps(mission_to_dict(log), indent=1) + "\n")
