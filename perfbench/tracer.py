"""Outside-in instrumentation of pwa_nav for the benchmark.

Every hook replaces a function *as it is bound in the module that calls it*
(``pwa_nav.planner.update_graph``, ``pwa_nav.feasibility.linprog``, ...), so
the program's own source is untouched. Two kinds of hooks exist:

* ``StepClock`` takes timestamps only, one pair per planning step; the
  end-to-end runs use it.
* ``Tracer`` records a span per call (name, start, end, parent, trace id),
  keeps the spans in memory, and derives per-layer call counts, self time
  and the counters the per-layer metrics need.

Everything runs in one process and one thread, so a span's children are
exactly the spans opened while it is on top of the stack.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# Layer name -> (calling module, bound attribute names). The layer name is
# the module that defines the function; the binding is where it is looked up.
TRACED = {
    "cli.main": ("cli", ["main"]),
    "scenario.load_scenario": ("cli", ["load_scenario"]),
    "planner.run_mission": ("cli", ["run_mission"]),
    "artifacts.write": ("cli", ["write_trajectory_csv", "write_graph_json",
                                "write_mission_json"]),
    "render.svg": ("cli", ["render_trajectory_svg", "render_graph_svg"]),
    "graph.update_graph": ("planner", ["update_graph"]),
    "graph.shortest_path": ("planner", ["shortest_path"]),
    "sysid.identify": ("planner", ["identify"]),
    "dynamics.simulate_closed_loop": ("planner", ["simulate_closed_loop"]),
    "reach.decide_exit_facet": [("cli", ["decide_exit_facet"]),
                                ("graph", ["decide_exit_facet"]),
                                ("planner", ["decide_exit_facet"])],
    "reach.predict_exit_facet": ("graph", ["predict_exit_facet"]),
    "graph.uncertain_weight": ("graph", ["uncertain_weight"]),
    "reach.vertex_system": ("reach", ["vertex_constraint_system",
                                      "robust_vertex_system",
                                      "expanded_vertex_system"]),
    "feasibility.balance_witnesses_batch": ("reach", ["balance_witnesses_batch"]),
    "feasibility.decide_feasibility": [("reach", ["decide_feasibility"]),
                                       ("feasibility", ["decide_feasibility"])],
    "feasibility.screen_feasibility": ("feasibility", ["screen_feasibility"]),
    "feasibility.linprog": ("feasibility", ["linprog"]),
    "geometry.find_containing_simplex": ("reach", ["find_containing_simplex"]),
}


def _modules():
    import pwa_nav.cli
    import pwa_nav.feasibility
    import pwa_nav.graph
    import pwa_nav.planner
    import pwa_nav.reach

    return {"cli": pwa_nav.cli, "feasibility": pwa_nav.feasibility,
            "graph": pwa_nav.graph, "planner": pwa_nav.planner,
            "reach": pwa_nav.reach}


class StepClock:
    """Timestamp-only hooks for the end-to-end run.

    A planning step runs from the planner's ``update_graph`` call to the
    return of its ``shortest_path`` in the same iteration. The
    ``update_graph`` summaries are kept to count reach decisions.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.decisions = 0
        self._started = None

    def install(self) -> None:
        planner = _modules()["planner"]
        update_graph, shortest_path = planner.update_graph, planner.shortest_path
        clock = time.perf_counter

        def timed_update_graph(*args, **kwargs):
            self._started = clock()
            summary = update_graph(*args, **kwargs)
            self.decisions += summary["definitive"] + summary["predicted"]
            return summary

        def timed_shortest_path(*args, **kwargs):
            path = shortest_path(*args, **kwargs)
            self.steps.append(clock() - self._started)
            return path

        planner.update_graph = timed_update_graph
        planner.shortest_path = timed_shortest_path


class Tracer:
    """Span recorder and per-layer counters for one traced CLI run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, start, child time]

    def _wrap(self, name, fn, after=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [sid, name, clock(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - frame[2]
                self.spans[sid] = (sid, parent, name, frame[2], end)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[3]
                if self._stack:
                    self._stack[-1][3] += dur
            if after is not None:
                after(out)
            return out

        return traced

    def install(self) -> None:
        mods = _modules()
        after = {
            "planner.run_mission": self._after_mission,
            "reach.predict_exit_facet": self._after_predict,
            "feasibility.screen_feasibility": self._after_screen,
            "dynamics.simulate_closed_loop": self._after_transit,
        }
        for name, bindings in TRACED.items():
            if isinstance(bindings, tuple):
                bindings = [bindings]
            for mod_name, attrs in bindings:
                mod = mods[mod_name]
                for attr in attrs:
                    setattr(mod, attr, self._wrap(name, getattr(mod, attr), after.get(name)))
        # The audit needs the graph before and after each refresh, so it
        # wraps the already-traced update_graph once more.
        planner = mods["planner"]
        planner.update_graph = self._audited(planner.update_graph, mods["reach"].ReachStatus)

    def _audited(self, update_graph, status):
        conclusive = (status.EXISTS, status.ABSENT)

        def audited(graph, *args, **kwargs):
            predicted = {key: e.status for key, e in graph.edges.items()
                         if not e.definitive and e.ref_cell is not None
                         and e.status in conclusive}
            summary = update_graph(graph, *args, **kwargs)
            for key, before in predicted.items():
                edge = graph.edges[key]
                if edge.definitive:
                    self.counts["audit_agree" if edge.status is before
                                else "audit_contradict"] += 1
            for key in ("definitive", "predicted", "reweighted"):
                self.counts[f"summary_{key}"] += summary[key]
            self.counts["graph_edges"] = len(graph.edges)
            return summary

        return audited

    def _after_mission(self, log) -> None:
        self.counts["iterations"] += len(log.records)
        self.counts["identified_cells"] += len(log.models)

    def _after_predict(self, decision) -> None:
        self.counts[f"predict_{decision.status.value}"] += 1

    def _after_screen(self, out) -> None:
        if out is not None:
            self.counts["screen_conclusive"] += 1

    def _after_transit(self, record) -> None:
        self.counts["transit_samples"] += len(record.samples)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": self.trace_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of this run, by metric name."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        out["reach.predict_status.exists"] = c["predict_exists"]
        out["reach.predict_status.absent"] = c["predict_absent"]
        out["reach.predict_status.uncertain"] = c["predict_uncertain"]
        out["reach.predict_audit.agree"] = c["audit_agree"]
        out["reach.predict_audit.contradict"] = c["audit_contradict"]
        screens = self.calls["feasibility.screen_feasibility"]
        predictions = self.calls["reach.predict_exit_facet"]
        out["feasibility.screen_hit_ratio"] = c["screen_conclusive"] / screens if screens else 0.0
        out["feasibility.lp_per_prediction"] = (
            self.calls["feasibility.linprog"] / predictions if predictions else 0.0)
        out["graph.predicted_edges"] = c["summary_predicted"]
        out["graph.definitive_edges"] = c["summary_definitive"]
        out["graph.reweighted_edges"] = c["summary_reweighted"]
        out["graph.repredictions_per_edge"] = (
            c["summary_predicted"] / c["graph_edges"] if c["graph_edges"] else 0.0)
        out["planner.iterations"] = c["iterations"]
        out["planner.identified_cells"] = c["identified_cells"]
        out["dynamics.transit_samples"] = c["transit_samples"]
        return out
