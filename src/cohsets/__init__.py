"""Coherent-set identification in discrete stochastic transition data.

Two pipelines over the same estimated transition model: truncated SVD of the
rescaled transition matrix with clustering of singular-vector rows, and direct
likelihood ascent over hard input affiliations with a left-stochastic factor.
Projection identities tie the two views together and balancedness constants
turn likelihood gaps into Frobenius-norm bounds.
"""

from .bounds import (
    BoundConstants,
    bound_constants,
    coherence_lower_bound,
    frobenius_kl_bound,
)
from .dataio import (
    canonical_json,
    read_counts,
    read_json,
    read_labels,
    read_pairs,
    write_counts,
    write_json,
    write_labels,
    write_pairs,
)
from .dbmr import (
    DbmrTrace,
    ReducedModel,
    dbmr_run,
    multi_start,
    output_partition,
    reduce_with_affiliation,
    reduced_singular_values,
)
from .generators import (
    GyreConfig,
    advect,
    gen_double_gyre,
    gen_interval_map,
    gen_three_coherent,
    interval_map_counts,
    pairs_from_counts,
    perturb_pairs,
    three_coherent_counts,
)
from .model import (
    CountMatrix,
    PairDataset,
    Partition,
    TransitionModel,
    estimate,
    ingest_pairs,
    prune_empty,
)
from .projection import (
    pythagoras_check,
    verify_factorization,
)
from .report import (
    compare_experiment,
    multirun_experiment,
    render_matrix_image,
)
from .seeding import mix_seed, rng_for
from .svd import (
    ClassicalResult,
    SvdFactorization,
    classical_pipeline,
    full_svd,
    kmeans,
    match_partitions,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "ClassicalResult",
    "CountMatrix",
    "DbmrTrace",
    "GyreConfig",
    "PairDataset",
    "Partition",
    "ReducedModel",
    "SvdFactorization",
    "TransitionModel",
    "advect",
    "bound_constants",
    "canonical_json",
    "classical_pipeline",
    "coherence_lower_bound",
    "compare_experiment",
    "dbmr_run",
    "estimate",
    "frobenius_kl_bound",
    "full_svd",
    "gen_double_gyre",
    "gen_interval_map",
    "gen_three_coherent",
    "ingest_pairs",
    "interval_map_counts",
    "kmeans",
    "match_partitions",
    "mix_seed",
    "multi_start",
    "multirun_experiment",
    "output_partition",
    "pairs_from_counts",
    "perturb_pairs",
    "prune_empty",
    "pythagoras_check",
    "read_counts",
    "read_json",
    "read_labels",
    "read_pairs",
    "reduce_with_affiliation",
    "reduced_singular_values",
    "render_matrix_image",
    "rng_for",
    "three_coherent_counts",
    "verify_factorization",
    "write_counts",
    "write_json",
    "write_labels",
    "write_pairs",
]
