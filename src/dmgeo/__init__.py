"""Geometry of density matrices: purification, rank strata, Bloch chart.

The package treats a density matrix through its canonical purification
and the local-unitary action on the ancilla side: two purifications of
the same matrix are linked by a computable special unitary, fixed-rank
matrices form strata whose dimension mu(2N - mu) - 1 is verified
numerically, and the qubit case reduces to the familiar Bloch ball.
"""

from .core import (
    PHASE_EPS,
    RANK_TOL,
    DensityMatrix,
    PureState,
    SpectralDecomposition,
    Unitary,
    make_pure_state,
    make_unitary,
    numerical_rank,
    ray_distance,
    spectral_decompose,
    validate_density,
)
from .purification import (
    SchmidtDecomposition,
    apply_local_a,
    apply_local_b,
    connecting_unitary,
    partial_trace_b,
    purify,
    schmidt,
)
from .sampling import (
    random_density,
    random_generic_density,
    random_pure,
    random_unitary,
)
from .strata import (
    BlochVector,
    ConvexSplit,
    StratumInfo,
    bloch_rotation,
    bloch_vector,
    classify,
    convex_split,
    density_from_bloch,
    stabilizer_dimension,
    stratum_dimension,
    tangent_space_rank,
)

__version__ = "0.1.0"

__all__ = [
    "PHASE_EPS",
    "RANK_TOL",
    "BlochVector",
    "ConvexSplit",
    "DensityMatrix",
    "PureState",
    "SchmidtDecomposition",
    "SpectralDecomposition",
    "StratumInfo",
    "Unitary",
    "apply_local_a",
    "apply_local_b",
    "bloch_rotation",
    "bloch_vector",
    "classify",
    "connecting_unitary",
    "convex_split",
    "density_from_bloch",
    "make_pure_state",
    "make_unitary",
    "numerical_rank",
    "partial_trace_b",
    "purify",
    "random_density",
    "random_generic_density",
    "random_pure",
    "random_unitary",
    "ray_distance",
    "schmidt",
    "spectral_decompose",
    "stabilizer_dimension",
    "stratum_dimension",
    "tangent_space_rank",
    "validate_density",
]
