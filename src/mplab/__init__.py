"""Multi-particle lattice models with random potentials.

Assembly of n-particle tight-binding Hamiltonians with on-site disorder and
short-range interactions on finite boxes, exact spectral quantities (Green
functions, eigenfunction correlators, dynamical kernels), and ensemble
diagnostics for localization (fractional moments, Wegner-type bounds,
finite-volume decay monitors), driven by a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .configspace import (
    SECTORS,
    Box,
    ConfigIndex,
    Configuration,
    diameter,
    hausdorff_dist,
    occupation,
    site_dist,
    symmetrized_dist,
)
from .diagnostics import (
    DecayFit,
    Estimate,
    RescalingReport,
    decay_fit,
    fractional_moment,
    probe_pairs,
    rescaling_check,
)
from .disorder import UNIFORM_HALF, DensitySpec, DisorderRealization, sample
from .errors import BudgetError, ContourGeometryError, SingularityError
from .harness import (
    ExperimentConfig,
    ResultTable,
    emit,
    load_config,
    run,
    validate,
)
from .operator import (
    InteractionSpec,
    OperatorSpec,
    OperatorTemplate,
    SparseHamiltonian,
    assemble,
    gershgorin_interval,
    kron_sum,
)
from .spectral import (
    EnergyInterval,
    KernelResult,
    SpectralData,
    composite_green_check,
    correlator,
    dynamical_kernel,
    green,
    green_block,
    spectral_data,
    subadditivity_check,
)
