"""Recovery of planted partitions by recursive spectral projection, with
numerical verification of the bounds that make it work."""

from .baseline import baseline_common_neighbors
from .bounds import (
    BoundReport,
    Constants,
    admissible_c,
    check_concentration,
    check_fk_submatrices,
    check_good_column,
    check_norm_deviation,
    check_projector_deviation,
    check_purity,
    check_separation,
    check_weyl,
    centered_adjacency,
    cluster_unions,
    empirical_epsilon,
    theoretical_spectrum,
)
from .experiment import Cell, ExperimentConfig, TrialReport, run_grid, run_trial, trial_seed
from .model import (
    Graph,
    ModelParams,
    PlantedPartition,
    expectation_matrix,
    make_partition,
    permute_partition,
    sample_graph,
)
from .recovery import (
    RecoveryResult,
    all_candidate_sets,
    extract_cluster,
    identify_clusters,
    recover_with_trace,
    same_partition,
    select_pivot,
)
from .spectral import (
    Projector,
    SpectralDecomposition,
    eigh_descending,
    eigvals_descending,
    spectral_norm,
    submatrix_norms,
    top_projector,
)

__version__ = "0.1.0"
