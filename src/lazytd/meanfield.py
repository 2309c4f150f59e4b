"""Particle realization of the population (many-unit) training dynamics.

Each of the N particles carries an output weight omega0 and feature
parameters wbar; together they realize the empirical-measure approximator
V(s) = (1/N) sum_i omega0_i phi(s; wbar_i). Particles move along the
exactly averaged temporal-difference field of the finite chain, which is
the characteristic flow of the corresponding transport equation. The
module also ships the diagnostics that make the fixed-point optimality
statement testable at desk scale: the feature-space residual correlation,
the first-moment profile of the output weights, a coverage surrogate for
the support-separation condition, and an optimality report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import TrainConfig, Trajectory, integrate, make_lazy_rhs
from .errors import DimensionMismatch, DomainError
from .models import ValueModel
from .mrp import Mrp, exact_value, mu_norm


class GaussianBumpFeatures:
    """Radial bumps phi(s; c) = exp(-|s - c|^2 / 2 width^2), the particles'
    feature family phi(.; wbar) on a fixed finite state set.

    On a finite state set, bumps whose centers cover the states span all of
    value space, so the family is universal for our purposes (declared via
    ``universal_for_states``). Hinge particles need no family here: they
    are ``models.ReluNet`` run at alpha = 1 on particle time.

    ``phi_matrix`` is the one place the bump is written; asked for the
    gradient, it returns the bumps and their gradient in the centers from
    one pass, which is what ``EnsembleModel`` reads on every call.
    """

    def __init__(self, states: np.ndarray, width: float = 0.35):
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if not 0.0 < width < np.inf:
            raise DomainError(f"width must be positive and finite, got {width}")
        self.states = states
        self.width = float(width)
        self.d, self.wbar_dim = states.shape

    def phi_matrix(self, wbars, gradient: bool = False):
        """Columns phi(.; wbar_i) for a batch, F of shape (d, N).

        With ``gradient`` the same pass also returns the gradient in wbar,
        G of shape (N, d, k) with G[i, s] = phi(s; wbar_i) (s - wbar_i) /
        width^2, as (F, G). The pass takes the differences s - c once, one
        (d, N) array per coordinate, sums their squares in coordinate order,
        then divides by -2 width^2 and exponentiates in place. F and G come
        out C-contiguous: the model's products and its einsum pullback sum
        in memory order, so their layout fixes the rounding.
        """
        wbars = np.atleast_2d(np.asarray(wbars, dtype=float))
        if wbars.shape[1] != self.wbar_dim:
            raise DimensionMismatch(f"expected feature parameters of dimension {self.wbar_dim}")
        diff = self.states.T[:, :, None] - wbars.T[:, None, :]    # (k, d, N)
        F = diff[0] ** 2
        for coordinate in diff[1:]:
            F += coordinate**2
        F /= -2.0 * self.width**2
        np.exp(F, out=F)
        if not gradient:
            return F
        diff *= F
        return F, np.divide(diff.transpose(2, 1, 0), self.width**2, order="C")

    def universal_for_states(self, centers: np.ndarray) -> bool:
        """True when bumps at the given centers span value space on the
        states, with condition number below 1e12."""
        F = self.phi_matrix(centers)
        sv = np.linalg.svd(F, compute_uv=False)
        return bool(sv.size >= self.d and sv[self.d - 1] > sv[0] / 1e12)


@dataclass
class ParticleEnsemble:
    """N particles (omega0_i, wbar_i) realizing an empirical measure."""

    omega0: np.ndarray            # (N,)
    wbar: np.ndarray              # (N, wbar_dim)

    def __post_init__(self):
        self.omega0 = np.asarray(self.omega0, dtype=float)
        wbar = np.asarray(self.wbar, dtype=float)
        if wbar.ndim == 1:
            wbar = wbar[:, None]
        self.wbar = wbar
        if self.omega0.shape[0] != self.wbar.shape[0]:
            raise DimensionMismatch("one output weight per particle required")
        if self.omega0.shape[0] < 1:
            raise DomainError("an ensemble needs at least one particle")

    @property
    def n(self) -> int:
        return self.omega0.shape[0]

    def table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the CSV snapshot, one row per particle."""
        header = ["i", "omega0"] + [f"wbar_{j + 1}" for j in range(self.wbar.shape[1])]
        cols = np.column_stack([self.omega0, self.wbar]).tolist()
        return header, [[i, *row] for i, row in enumerate(cols)]


def doubled_ensemble(
    n_particles: int,
    wbar_sampler,
    rng: np.random.Generator | int,
) -> ParticleEnsemble:
    """Paired ensemble with mirrored output weights, so the value vanishes.

    The output weights omega0 are standard normal; ``wbar_sampler(count,
    rng)`` draws the shared feature parameters. Each draw appears twice,
    once with omega0 and once with -omega0.
    """
    if n_particles < 2 or n_particles % 2 != 0:
        raise DomainError(f"doubled ensemble needs an even particle count >= 2, got {n_particles}")
    rng = np.random.default_rng(rng)
    half = n_particles // 2
    omega0 = rng.standard_normal(half)
    wbar = np.atleast_2d(np.asarray(wbar_sampler(half, rng), dtype=float))
    if wbar.shape[0] != half:
        wbar = wbar.T
    return ParticleEnsemble(
        omega0=np.concatenate([omega0, -omega0]),
        wbar=np.vstack([wbar, wbar]),
    )


def ensemble_value(ensemble: ParticleEnsemble, features: GaussianBumpFeatures) -> np.ndarray:
    """Value vector (1/N) sum_i omega0_i phi(.; wbar_i)."""
    F = features.phi_matrix(ensemble.wbar)
    return F @ ensemble.omega0 / ensemble.n


class EnsembleModel(ValueModel):
    """A particle ensemble as a value model, so the shared drift and
    integrator drive it.

    Parameters pack as w = [omega0_1..omega0_N, wbar_1..wbar_N], the wbar
    rows raveled in particle order, and value(w) = (1/N) sum_i omega0_i
    phi(.; wbar_i): the width-normalized function a lazily scaled network
    computes, here run on the particle time scale (see ``_particle_system``).
    ``value_and_vjp`` and ``jacobian`` take the feature matrix F (d, N) and
    its gradient G (N, d, k) from one ``phi_matrix`` pass per call. The
    Jacobian's derivative in wbar_i is omega0_i / N times the bump's
    Hessian, unbounded in omega0, so the Jacobian has no Lipschitz constant.
    """

    def __init__(self, features: GaussianBumpFeatures, n: int):
        self.features = features
        self.n = int(n)
        self.d = features.d
        self.p = self.n * (1 + features.wbar_dim)

    def pack(self, ensemble: ParticleEnsemble) -> np.ndarray:
        return np.concatenate([ensemble.omega0, ensemble.wbar.ravel()])

    def unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output weights (N,) and feature parameters (N, wbar_dim) of w."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.p,):
            raise DimensionMismatch(f"expected parameter vector of length {self.p}")
        return w[: self.n], w[self.n:].reshape(self.n, self.features.wbar_dim)

    def value(self, w):
        return ensemble_value(ParticleEnsemble(*self.unpack(w)), self.features)

    def jacobian(self, w):
        omega0, wbar = self.unpack(w)
        F, G = self.features.phi_matrix(wbar, gradient=True)
        wbar_cols = (omega0[None, :, None] * np.moveaxis(G, 0, 1)).reshape(self.d, -1)
        return np.hstack([F, wbar_cols]) / self.n

    def value_and_vjp(self, w):
        """Value and J^T g = [F^T g, omega0 * sum_s G[:, s, :] g_s] / N."""
        omega0, wbar = self.unpack(w)
        F, G = self.features.phi_matrix(wbar, gradient=True)

        n = float(self.n)  # numpy divides by a float faster than by a Python int

        def vjp(g: np.ndarray) -> np.ndarray:
            wbar_part = np.einsum("ndk,d->nk", G, g)
            wbar_part *= omega0[:, None]
            return np.concatenate([F.T @ g, wbar_part.ravel()]) / n

        return F @ omega0 / n, vjp


def _averaged_residual(V: np.ndarray, mrp: Mrp) -> np.ndarray:
    """One-step backup residual rbar + gamma P V - V, the expected TD error."""
    return mrp.rbar + mrp.gamma * mrp.P @ V - V


def _particle_system(features: GaussianBumpFeatures, n: int, mrp: Mrp, mu: np.ndarray):
    """The model of an n-particle system, its particle velocity field and
    the divergence probe of that field, built once per system.

    The velocity is n times the averaged TD drift of ``EnsembleModel`` at
    lambda = 0 and alpha = 1: particle time runs n times faster than the
    flow time of the network dynamics. Unpacked, the omega0 component of
    particle i is the weighted correlation of its feature with the backup
    residual, and the wbar component is omega0_i times that correlation
    taken against the feature gradient, so particles with omega0 = 0 do not
    move in wbar.
    """
    model = EnsembleModel(features, n)
    drift = make_lazy_rhs(model, mrp, mu, 0.0, 1.0)
    scale = float(n)
    return model, lambda w: scale * drift(w), drift.scaled_value_norm


def _state_diagnostics(model: EnsembleModel, velocity, w: np.ndarray, mrp: Mrp,
                       mu: np.ndarray, vstar: np.ndarray) -> tuple[float, float, float]:
    """Maximal particle speed, weighted backup residual and weighted distance
    to the exact value function ``vstar`` at the packed state ``w``."""
    do, dw = model.unpack(velocity(w))
    speed = float(np.sqrt(do**2 + np.sum(dw**2, axis=1)).max())
    V = model.value(w)
    return speed, mu_norm(_averaged_residual(V, mrp), mu), mu_norm(V - vstar, mu)


@dataclass
class EnsembleHistory(Trajectory):
    """A particle run: the trajectory of packed states ``integrate``
    returned, with every saved state unpacked into a snapshot."""

    snapshots: list[ParticleEnsemble] = field(default_factory=list)

    @property
    def final(self) -> ParticleEnsemble:
        return self.snapshots[-1]


def integrate_ensemble(
    ensemble: ParticleEnsemble,
    features: GaussianBumpFeatures,
    mrp: Mrp,
    mu: np.ndarray,
    dt: float,
    horizon: float,
    save_every: int = 100,
) -> EnsembleHistory:
    """Classical fourth-order integration of the coupled particle system.

    The empirical measure of the integrated particles is, by construction,
    a solution of the underlying transport equation. The run is
    ``dynamics.integrate`` on the particle velocities, with its divergence
    handling: a run whose particles or value blow up stops early with
    ``diverged`` set. Every saved state carries the maximal particle speed,
    the weighted backup residual, and the distance to the exact value
    function, all from the run's own velocity field.
    """
    model, velocity, probe = _particle_system(features, ensemble.n, mrp, mu)
    run = integrate(velocity, model.pack(ensemble),
                    TrainConfig(dt=dt, horizon=horizon, save_every=save_every),
                    divergence_probe=probe)
    vstar = exact_value(mrp)
    series = np.array([_state_diagnostics(model, velocity, w, mrp, mu, vstar)
                       for w in run.params])
    history = EnsembleHistory(**vars(run),
                              snapshots=[ParticleEnsemble(*model.unpack(w)) for w in run.params])
    history.diagnostics.update(velocity_norm=series[:, 0], bellman_residual=series[:, 1],
                               optimality_gap=series[:, 2])
    return history


def g_profile(
    ensemble: ParticleEnsemble,
    features: GaussianBumpFeatures,
    mrp: Mrp,
    mu: np.ndarray,
    wbar_grid: np.ndarray,
) -> np.ndarray:
    """Feature-space correlation of the backup residual over a parameter grid.

    Its zeros characterize stationary output weights: where the profile is
    far from zero, a particle parked there would keep accelerating.
    """
    V = ensemble_value(ensemble, features)
    weighted = mu * _averaged_residual(V, mrp)
    grid = np.atleast_2d(np.asarray(wbar_grid, dtype=float))
    if grid.shape[1] != features.wbar_dim:
        grid = grid.T
    return features.phi_matrix(grid).T @ weighted


def h1_profile(ensemble: ParticleEnsemble, bin_edges) -> np.ndarray:
    """First moment of the output weights over a binning of feature space.

    Bin b receives (1/N) sum over particles in b of omega0_i, so the total
    over bins is the overall first moment. Two ensembles with the same
    profile realize the same approximator whenever features are constant
    within bins. ``bin_edges`` is one sequence of edges per feature
    dimension; a flat sequence of numbers is the edges of a single axis.
    """
    edges = [bin_edges] if np.ndim(bin_edges[0]) == 0 else bin_edges
    hist, _ = np.histogramdd(ensemble.wbar, bins=edges, weights=ensemble.omega0)
    return hist / ensemble.n


@dataclass
class SeparationReport:
    """Outcome of the discrete support-separation surrogate."""

    passed: bool
    r0: float
    max_abs_omega0: float
    resolution: float
    uncovered: np.ndarray        # witness grid points with no particle nearby


def separation_check(
    ensemble: ParticleEnsemble,
    r0: float,
    wbar_grid: np.ndarray,
    resolution: float,
) -> SeparationReport:
    """Coverage surrogate for the support-separation condition.

    The topological condition (the initial support separates the bottom of
    the output-weight cylinder from its top) cannot be decided from finitely
    many particles. The checkable surrogate: all output weights lie in
    [-r0, r0] and every point of the supplied feature-parameter grid has a
    particle within ``resolution``, so the union of particle neighborhoods
    projects onto the whole grid and forms an approximate barrier. Failure
    returns the uncovered grid points as a witness.
    """
    grid = np.atleast_2d(np.asarray(wbar_grid, dtype=float))
    if grid.shape[1] != ensemble.wbar.shape[1]:
        grid = grid.T
    dist = np.linalg.norm(grid[:, None, :] - ensemble.wbar[None, :, :], axis=2)
    covered = dist.min(axis=1) <= resolution
    max_abs = float(np.max(np.abs(ensemble.omega0)))
    passed = bool(np.all(covered) and max_abs <= r0)
    return SeparationReport(
        passed=passed,
        r0=float(r0),
        max_abs_omega0=max_abs,
        resolution=float(resolution),
        uncovered=grid[~covered],
    )


@dataclass
class OptimalityReport:
    """Fixed-point optimality diagnostics for one ensemble state."""

    velocity_norm: float
    bellman_residual: float
    optimality_gap: float
    stationary: bool             # velocity_norm <= eps
    separation_passed: bool
    features_universal: bool
    gap_tolerance: float | None  # gap bound implied when all hold
    implication_holds: bool | None


def fixed_point_optimality(
    ensemble: ParticleEnsemble,
    features: GaussianBumpFeatures,
    mrp: Mrp,
    mu: np.ndarray,
    eps: float,
    separation: SeparationReport | None = None,
    features_universal: bool = False,
    gap_constant: float | None = None,
) -> OptimalityReport:
    """Test the optimality-of-fixed-points statement at numerical tolerance.

    At an exact fixed point with separated support and a universal feature
    family the approximator equals the exact value function. The desk-scale
    surrogate: when the maximal particle speed is below ``eps`` and the
    separation surrogate passes, the optimality gap must fall below
    ``gap_constant * eps``. The constant is computed at the ensemble (see
    ``linearized_gap_bound``), never assumed; without one the implication
    is reported as unchecked (None).
    """
    model, velocity, _ = _particle_system(features, ensemble.n, mrp, mu)
    speed, bell, gap = _state_diagnostics(model, velocity, model.pack(ensemble), mrp, mu,
                                          exact_value(mrp))
    stationary = speed <= eps
    sep_ok = bool(separation.passed) if separation is not None else False
    tol = gap_constant * eps if gap_constant is not None else None
    implication = None
    if stationary and sep_ok and features_universal and tol is not None:
        implication = bool(gap <= tol)
    return OptimalityReport(
        velocity_norm=speed,
        bellman_residual=bell,
        optimality_gap=gap,
        stationary=stationary,
        separation_passed=sep_ok,
        features_universal=features_universal,
        gap_tolerance=tol,
        implication_holds=implication,
    )


def linearized_gap_bound(
    ensemble: ParticleEnsemble,
    features: GaussianBumpFeatures,
    mrp: Mrp,
    mu: np.ndarray,
) -> float:
    """Provable gap/velocity bound for the tangent reduction at an ensemble.

    Holding particle positions fixed, a value-space error e drives every
    particle linearly: the output weight at rate <phi_i, (gamma P - I)e>
    and the feature parameters at omega0_i times the gradient analogue.
    The worst ratio of weighted error norm to maximal particle speed is
    bounded by sqrt(N) over the smallest singular value of that stacked
    linear map, so gap <= bound * velocity holds for any error reachable
    by the tangent model at this configuration. The stacked map is
    N J^T Gamma (gamma P - I), J the Jacobian of ``EnsembleModel``.
    """
    model = EnsembleModel(features, ensemble.n)
    J = model.jacobian(model.pack(ensemble))
    drive = mu[:, None] * (mrp.gamma * mrp.P - np.eye(mrp.d))   # Gamma(gamma P - I)
    L = ensemble.n * J.T @ drive / np.sqrt(mu)[None, :]     # unit-mu-norm inputs
    sv = np.linalg.svd(L, compute_uv=False)
    smin = sv[min(mrp.d, sv.size) - 1]
    if smin <= 0:
        return float("inf")
    return float(np.sqrt(ensemble.n) / smin)
