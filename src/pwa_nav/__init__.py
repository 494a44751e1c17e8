"""Motion planning to a target region under unknown control-affine dynamics:
online affine identification, reach-control feasibility on grid cells,
predictive reachability via Lipschitz deviation bounds, and search over a
tri-state reachability graph."""

from .dynamics import (
    AffineField,
    AffineModel,
    ControlAffineField,
    ExitOutcome,
    ExitRecord,
    linearize_at,
    simulate_closed_loop,
    terrain_model,
)
from .feasibility import (
    FeasibilityResult,
    LinearConstraintSystem,
    decide_feasibility,
)
from .geometry import (
    GridPartition,
    Polytope,
    Simplex,
    build_grid_partition,
    common_facet,
    locate,
    triangulate,
)
from .graph import (
    EdgeRecord,
    ReachGraph,
    WeightMode,
    build_reach_graph,
    shortest_path,
    uncertain_weight,
    update_graph,
)
from .planner import MissionConfig, MissionLog, MissionStatus, run_mission
from .reach import (
    ControllerLaw,
    ModelDeviationBounds,
    ReachDecision,
    ReachStatus,
    decide_exit_facet,
    deviation_bounds,
    expanded_vertex_system,
    predict_exit_facet,
    robust_vertex_system,
    synthesize_controller,
    t0_upper_bound,
    vertex_constraint_system,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .sysid import IdentificationConfig, IdentificationError, VelocityMode, identify

__version__ = "0.1.0"
