"""Directed polymers in a Gaussian random environment: exact transfer-matrix
partition functions, exact Gibbs sampling, replica-overlap statistics,
quenched free-energy estimation, and constructive path-localization analysis
on Z^d."""

from .free_energy import (
    ConcentrationProfile,
    FreeEnergyEstimate,
    GapEstimate,
    annealed_bound,
    concentration_from_samples,
    concentration_profile,
    estimate_derivative,
    estimate_free_energies,
    estimate_free_energy,
    multi_temp_consistency,
    multi_temp_gap,
)
from .lattice import (
    Environment,
    LatticeParams,
    MemoryGuardError,
    PartitionScheme,
    SubPartition,
    as_path,
    derive_seed,
    gaussian_env,
    is_valid_path,
    make_partition,
    make_subpartition,
    perturb_env,
    reachable_cells_total,
    reachable_set,
    reachable_set_size,
    zero_env,
)
from .localization import (
    DistinguishedSet,
    InfeasibleConnectionError,
    LocalizationReport,
    build_distinguished_sets,
    cardinality_bound,
    concatenate,
    connecting_path,
    coverage_report,
    decode_path,
    default_refinement,
    encode_path,
    greedy_favorite_paths,
    meeting_time,
    min_window_overlap,
    splice_paths,
    step_feasible,
)
from .overlap import (
    IbpEstimate,
    OverlapEstimate,
    OverlapSweep,
    block_overlap,
    exact_two_replica_overlap,
    ibp_residual,
    mean_replica_overlap,
    overlap,
    overlap_count,
    restricted_overlap,
    sweep_overlaps,
)
from .transfer import (
    BetaProfile,
    LayerTable,
    backward_layers,
    forward_layers,
    forward_layers_and_ladder,
    layer_log_marginals,
    log_partition,
    log_partition_ladder,
    log_partitions,
    markov_split_logz,
    sample_paths,
)

__version__ = "0.1.0"
