"""Desk-scale laboratory for temporal-difference policy evaluation with
lazily scaled and population-limit nonlinear approximators."""

from .mrp import (
    Backup,
    Mrp,
    contraction_modulus,
    cyclic_chain,
    exact_value,
    mu_inner,
    mu_norm,
    mu_projection,
    random_chain,
    stationary_measure,
    td_operator,
    td_resolvent,
)
from .models import (
    LinearModel,
    ReluNet,
    SpiralModel,
    TangentModel,
    ValueModel,
    finite_difference_jacobian,
)
from .dynamics import (
    TrainConfig,
    Trajectory,
    integrate,
    make_lazy_rhs,
    run_stochastic_td,
    sample_chain,
)
from .analysis import (
    DecayCertificate,
    FixedPointCertificate,
    LazyGeometry,
    SaveSeries,
    fit_exponential_rate,
    metric_drift,
    overparametrized_certificate,
    underparametrized_certificate,
)
from .meanfield import (
    EnsembleHistory,
    EnsembleModel,
    GaussianBumpFeatures,
    OptimalityReport,
    ParticleEnsemble,
    SeparationReport,
    doubled_ensemble,
    ensemble_value,
    fixed_point_optimality,
    g_profile,
    h1_profile,
    integrate_ensemble,
    separation_check,
)

__version__ = "0.1.0"
