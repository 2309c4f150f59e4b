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
from .mrp import Backup, Mrp, mu_norm


class GaussianBumpFeatures:
    """Radial bumps phi(s; c) = exp(-|s - c|^2 / 2 width^2), the particles'
    feature family phi(.; wbar) on a fixed finite state set.

    On a finite state set, bumps whose centers cover the states span all of
    value space, so the family is universal for our purposes (declared via
    ``universal_for_states``). Hinge particles need no family here: they
    are ``models.ReluNet`` run at alpha = 1 on particle time.

    ``phi_matrix`` is the one place the bump is written. It lays the bumps
    out in particle rows, one row of d feature values per particle, and,
    asked for the gradient, also returns the differences s - wbar from the
    same pass, which is what ``EnsembleModel`` reads on every call. The
    constants -1/(2 width^2) and 1/width^2 are fixed here once.
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
        self.exponent_scale = -1.0 / (2.0 * self.width**2)
        self.gradient_scale = 1.0 / self.width**2

    def phi_matrix(self, wbars, gradient: bool = False):
        """Rows phi(.; wbar_i) for a batch, F of shape (N, d) with
        F[i, s] = phi(s; wbar_i).

        With ``gradient`` the same pass also returns the differences
        D[i, s] = s - wbar_i, of shape (N, d, k), as (F, D). The gradient of
        F[i, s] in wbar_i is F[i, s] D[i, s] / width^2; the caller forms it
        from the two. The pass takes D once, sums the squares of its
        coordinates in coordinate order, multiplies by -1/(2 width^2) and
        exponentiates in place. F and D come out C-contiguous.
        """
        wbars = np.asarray(wbars, dtype=float)
        if wbars.ndim < 2:
            wbars = wbars.reshape(1, -1)
        if wbars.shape[1] != self.wbar_dim:
            raise DimensionMismatch(f"expected feature parameters of dimension {self.wbar_dim}")
        D = self.states - wbars[:, None, :]                      # (N, d, k)
        F = np.square(D[:, :, 0])
        for j in range(1, self.wbar_dim):
            F += np.square(D[:, :, j])
        F *= self.exponent_scale
        np.exp(F, out=F)
        return (F, D) if gradient else F

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
    return np.dot(ensemble.omega0, features.phi_matrix(ensemble.wbar)) / float(ensemble.n)


class EnsembleModel(ValueModel):
    """A particle ensemble as a value model, so the shared drift and
    integrator drive it.

    Parameters pack as w = [omega0_1..omega0_N, wbar_1..wbar_N], the wbar
    rows raveled in particle order, and value(w) = (1/N) sum_i omega0_i
    phi(.; wbar_i): the width-normalized function a lazily scaled network
    computes, here run on the particle time scale (see ``_particle_system``).
    Every evaluation is one ``phi_matrix`` pass in particle rows, the bumps
    F (N, d) and the differences D (N, d, k): the value is (omega0 . F) / N,
    and the pullback of g is [F g, omega0 * ((D_j * F) g)_j / width^2] / N,
    one matrix-vector product for the output weights and one per feature
    coordinate j, written into one output array. ``jacobian`` is the same
    pass, its rows the pullbacks of the one-hot vectors. The
    Jacobian's derivative in wbar_i is omega0_i / N times the bump's
    Hessian, unbounded in omega0, so the Jacobian has no Lipschitz constant.
    """

    def __init__(self, features: GaussianBumpFeatures, n: int):
        self.features = features
        self.n = int(n)
        self.d = features.d
        self.p = self.n * (1 + features.wbar_dim)
        self._count = float(self.n)  # numpy divides by a float faster than by a Python int

    def pack(self, ensemble: ParticleEnsemble) -> np.ndarray:
        return np.concatenate([ensemble.omega0, ensemble.wbar.ravel()])

    def unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output weights (N,) and feature parameters (N, wbar_dim) of w."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.p,):
            raise DimensionMismatch(f"expected parameter vector of length {self.p}")
        return w[: self.n], w[self.n:].reshape(self.n, self.features.wbar_dim)

    def value(self, w):
        omega0, wbar = self.unpack(w)
        return np.dot(omega0, self.features.phi_matrix(wbar)) / self._count

    def jacobian(self, w):
        """The rows J[s], the pullbacks of the one-hot vectors e_s."""
        _, vjp = self.value_and_vjp(w)
        return np.array([vjp(one_hot) for one_hot in np.eye(self.d)])

    def value_and_vjp(self, w):
        """Value and J^T g = [F g, omega0 * ((D_j * F) g)_j / width^2] / N,
        with g divided by N first."""
        omega0, wbar = self.unpack(w)
        F, DF = self.features.phi_matrix(wbar, gradient=True)
        DF *= F[:, :, None]
        scale = (omega0 * self.features.gradient_scale)[:, None]
        n, k, count = self.n, self.features.wbar_dim, self._count

        def vjp(g: np.ndarray) -> np.ndarray:
            g = g / count  # d entries to divide, not p
            out = np.empty(self.p)
            np.dot(F, g, out=out[:n])
            wbar_part = out[n:].reshape(n, k)
            for j in range(k):
                wbar_part[:, j] = np.dot(DF[:, :, j], g)
            wbar_part *= scale
            return out

        value = np.dot(omega0, F)
        value /= count
        return value, vjp


def _particle_system(features: GaussianBumpFeatures, n: int, mrp: Mrp, mu: np.ndarray):
    """The model of an n-particle system, its particle velocity field and
    the drift it scales, built once per system: the drift carries the
    divergence probe of the field and the chain's one-step ``Backup``.

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
    return model, lambda w: scale * drift(w), drift


def _state_diagnostics(model: EnsembleModel, velocity, w: np.ndarray,
                       backup: Backup) -> tuple[float, float, float]:
    """Maximal particle speed, weighted backup residual and weighted distance
    to the exact value function at the packed state ``w``."""
    do, dw = model.unpack(velocity(w))
    speed = float(np.sqrt(do**2 + np.sum(dw**2, axis=1)).max())
    V = model.value(w)
    return speed, mu_norm(backup.residual(V), backup.mu), mu_norm(V - backup.vstar, backup.mu)


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
    function, all from the run's own velocity field and its backup.
    """
    model, velocity, drift = _particle_system(features, ensemble.n, mrp, mu)
    run = integrate(velocity, model.pack(ensemble),
                    TrainConfig(dt=dt, horizon=horizon, save_every=save_every),
                    divergence_probe=drift.scaled_value_norm)
    series = np.array([_state_diagnostics(model, velocity, w, drift.backup)
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
    backup = Backup.of(mrp, mu)
    weighted = backup.mu * backup.residual(ensemble_value(ensemble, features))
    grid = np.atleast_2d(np.asarray(wbar_grid, dtype=float))
    if grid.shape[1] != features.wbar_dim:
        grid = grid.T
    return np.dot(features.phi_matrix(grid), weighted)


def h1_profile(ensemble: ParticleEnsemble, bin_edges) -> np.ndarray:
    """First moment of the output weights over a binning of feature space.

    Bin b receives (1/N) sum over particles in b of omega0_i, so the total
    over bins is the overall first moment. Two ensembles with the same
    profile realize the same approximator whenever features are constant
    within bins. ``bin_edges`` is one sequence of edges per feature
    dimension; a flat sequence of numbers is the edges of a single axis.
    Raises DomainError, naming the count, when a particle lies outside the
    first or last edge of an axis, since its weight would be dropped.
    """
    edges = [bin_edges] if np.ndim(bin_edges[0]) == 0 else bin_edges
    low, high = [e[0] for e in edges], [e[-1] for e in edges]
    outside = int(np.sum(~np.all((ensemble.wbar >= low) & (ensemble.wbar <= high), axis=1)))
    if outside:
        raise DomainError(f"{outside} of {ensemble.n} particles lie outside the bin edges")
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
    gap_constant: float          # gap/velocity bound of the tangent reduction at the ensemble
    gap_tolerance: float         # gap_constant * eps, the gap bound implied when all hold
    implication_holds: bool | None


def fixed_point_optimality(
    ensemble: ParticleEnsemble,
    features: GaussianBumpFeatures,
    mrp: Mrp,
    mu: np.ndarray,
    eps: float,
    separation: SeparationReport | None = None,
) -> OptimalityReport:
    """Test the optimality-of-fixed-points statement at numerical tolerance.

    At an exact fixed point with separated support and a universal feature
    family the approximator equals the exact value function. The desk-scale
    surrogate: when the maximal particle speed is below ``eps``, the
    separation surrogate passes and bumps at the states span value space,
    the gap must fall below ``gap_constant * eps``. The constant and the
    universality are computed at the ensemble, never assumed; without a
    premise the implication is None.

    The constant bounds gap/velocity for the tangent reduction: with the
    particle positions held fixed, a value-space error e moves the output
    weights at rates <phi_i, (gamma P - I)e> and the feature parameters at
    omega0_i times the gradient analogue, together the map N J^T drive (J
    the ``EnsembleModel`` Jacobian). So the gap, the weighted norm of any e
    the tangent model reaches, is at most the speed times sqrt(N) over the
    map's smallest singular value. All three read one particle system.
    """
    model, velocity, drift = _particle_system(features, ensemble.n, mrp, mu)
    w, backup = model.pack(ensemble), drift.backup
    speed, bell, gap = _state_diagnostics(model, velocity, w, backup)
    stationary = speed <= eps
    sep_ok = bool(separation.passed) if separation is not None else False
    universal = features.universal_for_states(features.states)
    L = ensemble.n * model.jacobian(w).T @ backup.drive / np.sqrt(backup.mu)  # unit-mu-norm inputs
    sv = np.linalg.svd(L, compute_uv=False)
    smin = sv[min(mrp.d, sv.size) - 1]
    constant = float("inf") if smin <= 0 else float(np.sqrt(ensemble.n) / smin)
    implication = bool(gap <= constant * eps) if stationary and sep_ok and universal else None
    return OptimalityReport(
        velocity_norm=speed,
        bellman_residual=bell,
        optimality_gap=gap,
        stationary=stationary,
        separation_passed=sep_ok,
        features_universal=universal,
        gap_constant=constant,
        gap_tolerance=constant * eps,
        implication_holds=implication,
    )
