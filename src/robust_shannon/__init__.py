"""Gaussian Shannon limits, classical and worst-case over Bures-Wasserstein balls.

Classical: rate-distortion of a Gaussian vector source by reverse
waterfilling, capacity of a linear channel with Gaussian noise by
waterfilling after whitening. Worst-case: the same limits extremized over
all covariances within a Wasserstein-2 ball around a Gaussian nominal, with
the extremal covariance extracted. Verification: exact empirical optimal
transport on sample clouds and brute-force grid oracles.
"""

from .classical import (
    ChannelMatrix,
    GaussianCapacity,
    TestChannel,
    WaterfillAllocation,
    capacity_from_gains,
    gaussian_capacity,
    gaussian_mi,
    gaussian_rdf,
    rdf_from_spectrum,
    rdf_realization,
    reverse_waterfill,
)
from .compound import (
    CompoundCapacityRequest,
    CompoundRdfRequest,
    CompoundResult,
    SolverDiagnostics,
    SweepPoint,
    compound_capacity,
    compound_capacity_scalar,
    compound_rdf,
    compound_rdf_scalar,
    sweep_compound,
)
from .errors import (
    DegenerateMI,
    RobustShannonError,
    SingularCenter,
    SolverNoConverge,
    TooLargeForExact,
)
from .oracle import (
    GelbrichReport,
    SampleCloud,
    brute_force_compound,
    check_gelbrich,
    empirical_w2,
    sample_gaussian,
)
from .psd_geometry import (
    BwBall,
    GaussianLaw,
    SpdMatrix,
    bw_ball_project,
    bw_distance,
    bw_geodesic_point,
    gaussian_w2,
    matrix_sqrt,
    random_psd_in_ball,
    symmetric_eig,
    transport_map,
)

__version__ = "0.1.0"

__all__ = [
    "BwBall",
    "ChannelMatrix",
    "CompoundCapacityRequest",
    "CompoundRdfRequest",
    "CompoundResult",
    "DegenerateMI",
    "GaussianCapacity",
    "GaussianLaw",
    "GelbrichReport",
    "RobustShannonError",
    "SampleCloud",
    "SingularCenter",
    "SolverDiagnostics",
    "SolverNoConverge",
    "SpdMatrix",
    "SweepPoint",
    "TestChannel",
    "TooLargeForExact",
    "WaterfillAllocation",
    "brute_force_compound",
    "bw_ball_project",
    "bw_distance",
    "bw_geodesic_point",
    "capacity_from_gains",
    "check_gelbrich",
    "compound_capacity",
    "compound_capacity_scalar",
    "compound_rdf",
    "compound_rdf_scalar",
    "empirical_w2",
    "gaussian_capacity",
    "gaussian_mi",
    "gaussian_rdf",
    "gaussian_w2",
    "matrix_sqrt",
    "random_psd_in_ball",
    "rdf_from_spectrum",
    "rdf_realization",
    "reverse_waterfill",
    "sample_gaussian",
    "sweep_compound",
    "symmetric_eig",
    "transport_map",
]
