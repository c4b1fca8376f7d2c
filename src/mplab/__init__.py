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
    BMonitorResult,
    DecayFit,
    Estimate,
    RescalingReport,
    WegnerReport,
    b_monitor,
    decay_fit,
    equivalence_probe,
    fractional_moment,
    probe_pairs,
    rescaling_check,
    wegner_check,
)
from .disorder import UNIFORM_HALF, DensitySpec, DisorderRealization, resample_at, sample
from .errors import BudgetError, ContourGeometryError, SingularityError
from .harness import (
    ExperimentConfig,
    ResultTable,
    emit,
    load_config,
    read_table,
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
    number_operator,
)
from .spectral import (
    EnergyInterval,
    KernelResult,
    SpectralData,
    composite_green_check,
    composite_spectral_data,
    correlator,
    dynamical_kernel,
    eig_green,
    green,
    green_block,
    green_entries,
    resolvent_weights,
    spectral_data,
    subadditivity_check,
)
