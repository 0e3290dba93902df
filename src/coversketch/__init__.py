"""Coverage optimization via adaptive sampling sketches.

Submodules
----------
instance : data model, loaders, generators, and reductions
sketch   : hash source, sketch parameters, and sketch constructors
solvers  : greedy-family solvers and exact verification oracles
distsim  : simulated four-round MapReduce executor
cli      : command-line workflows (generate / sketch / solve / simulate /
           experiment)
"""

from .instance import (
    CoverageInstance,
    FractionalInstance,
    InstanceStats,
    ParseError,
    ProbabilisticInstance,
    WeightedInstance,
    feature_pairs_instance,
    generate_adversarial,
    generate_planted,
    khop_dominating_instance,
    load_edge_list,
    loads_edge_list,
    serialize_edge_list,
    stats,
)
from .sketch import (
    HashSource,
    Sketch,
    SketchParams,
    build_sketch,
    build_sketch_lazy,
    element_hash_array,
    practical_params,
    sketch_fractional,
    sketch_probabilistic,
    sketch_weighted,
    theory_params,
)
from .solvers import (
    BudgetExceededError,
    InfeasibleError,
    Solution,
    brute_force_kcover,
    brute_force_set_cover,
    coverage,
    coverage_fractional,
    coverage_probabilistic,
    coverage_weighted,
    greedy_kcover,
    lazy_greedy,
    set_cover_outliers,
    stochastic_greedy,
)
from .distsim import (
    Placement,
    SimReport,
    partition_input,
    run_kcover_mapreduce,
    run_setcover_mapreduce,
)

__version__ = "0.1.0"
