"""Numerical laboratory for hyperbolic maps of the 2-torus.

The package computes the statistical objects that connect orbit averages to
entropy for area-preserving hyperbolic toral maps and their small C1
perturbations: empirical measures and a concrete weak* metric, volume
estimates of the finite-time statistical basins A(eps, n) together with their
exponential decay rates, Lyapunov data along the unstable bundle, and cylinder
entropy over an Adler-Weiss Markov partition of the cat map.  The headline
check is the rate identity

    rate(mu) = h(mu) - integral of log |det Df restricted to F| d mu,

evaluated at desk scale by deterministic grid sweeps.
"""

from toruslab.dynamics import (
    HyperbolicToralMap,
    ConeReport,
    IterationDivergence,
    NotHyperbolic,
    torus_distance,
    verify_hyperbolicity,
    wrap,
)
from toruslab.weakstar import (
    LEBESGUE,
    DiscreteMeasure,
    FamilyMismatch,
    LebesgueMeasure,
    MomentVector,
    OrbitMeasure,
    TestFunctionFamily,
    invariance_defect,
    moments,
    weak_star_distance,
)
from toruslab.lyapunov import (
    DegenerateCocycle,
    LyapunovSpectrum,
    lyapunov_spectrum_qr,
    unstable_integral,
)
from toruslab.basin import (
    BasinCurve,
    InsufficientData,
    RateEstimate,
    SampleGrid,
    Verdict,
    basin_membership,
    curve_sweep,
    epsilon_sweep,
    pesin_defect,
    rate_estimate,
    rate_residual,
    weak_pseudo_physical_verdict,
)
from toruslab.markov import (
    ConstructionInvalid,
    CylinderTable,
    InsufficientSamples,
    LocationFailure,
    MarkovPartition,
    cat_map_partition,
    cylinder_count_rate,
    entropy_count_bound_check,
    entropy_rate_estimate,
    entropy_tables,
    locate,
    partition_entropy,
    weighted_merge,
)

__version__ = "0.1.0"
