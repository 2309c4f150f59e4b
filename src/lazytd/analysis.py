"""Diagnostics for lazily scaled training runs.

The central object is the geometry the model induces on value space at
initialization: the pseudo-inverse metric of the Jacobian outer product,
the norm it defines, its equivalence constant against the stationary
weighted norm, and the radius/threshold constants that the convergence
guarantees are stated in. One pass over a run's saved states computes
every per-save series (``SaveSeries``), and certificates check those
guarantees on them: exponential Lyapunov decay with a full-rank Jacobian,
convergence to a local fixed point with an error bound decaying like
1/alpha otherwise, displacement scaling, and drift of the metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import (
    DimensionMismatch,
    DomainError,
    InitNotZero,
    NotOverParametrized,
    NotUnderParametrized,
    RankCollapse,
)
from .models import ValueModel, numerical_rank
from .mrp import Backup, mu_norm, mu_projection, per_state

# the constants the guarantees are checked at
ENVELOPE_SLACK = 0.05             # allowed excess of the Lyapunov series over its envelope
R2_MIN = 0.95                     # fit quality of a clean exponential
TRANSIENT = 0.1                   # leading share of a series left out of rate fits
FIXED_POINT_TOL = 1e-6            # projected residual of a converged run
SLOPE_BOUND = -0.8                # largest log-log displacement slope that passes


def _linearized(drive: np.ndarray, J: np.ndarray) -> np.ndarray:
    """J^T drive J, or drive J J^T when there are fewer states than
    parameters: the two products share their nonzero spectrum."""
    return drive @ (J @ J.T) if J.shape[0] < J.shape[1] else J.T @ drive @ J


@dataclass(frozen=True)
class LazyGeometry:
    """Initialization geometry of a model on a fixed chain: the one
    decomposition of the Jacobian J0 at w0 that a run's rates, step sizes
    and certificates are read from.

    ``g0`` is the pseudo-inverse of J0 J0^T, the metric the model pushes
    forward onto value space at the anchor point; ``norm0`` is the norm it
    induces. ``kappa`` is the equivalence constant between that norm and
    the stationary weighted norm on the span of J0 (infinite for a zero
    Jacobian). ``radius_bound`` and ``alpha_threshold`` are the
    initialization-size bound and the minimal scaling under which the
    global exponential-decay guarantee applies, built from the model's
    ``jacobian_lipschitz``: a constant Jacobian gives an infinite radius
    and a zero threshold, a Jacobian with no Lipschitz constant a zero
    radius and an infinite threshold. Both are worst-case constants and
    very conservative, so certificates report them separately from the
    observed decay.

    ``backup`` is the run's ``Backup``, read here, never formed; its
    ``drive`` makes J^T drive J the matrix of the flow linearized at a
    point with Jacobian J (see ``linearized``).
    ``rate_fast`` and ``rate_slow`` are the fastest and the slowest nonzero
    decay rate of that flow at w0: minus the real parts of its eigenvalues,
    those within 1e-12 * max(fast, 1) of zero being the flat directions.
    Positive real parts beyond that make the linearization unstable; they
    play no part in the two decay rates and are ``rates_unstable``, largest
    first. The scaling drops out, so one geometry serves every alpha.
    """

    j0: np.ndarray
    g0: np.ndarray
    span: np.ndarray              # (d, rank) orthonormal basis of the column span
    rank: int
    sigma_min: float
    sigma_max: float
    kappa: float
    radius_bound: float
    alpha_threshold: float
    backup: Backup
    rate_fast: float
    rate_slow: float
    rates_unstable: np.ndarray

    @classmethod
    def from_model(cls, model: ValueModel, w0: np.ndarray, backup: Backup) -> "LazyGeometry":
        J0 = model.jacobian(w0)
        mu, vstar = per_state(backup.mu, J0.shape[0]), backup.vstar
        U, S, _ = np.linalg.svd(J0, full_matrices=False)
        smax = float(S[0]) if S.size else 0.0
        rank = numerical_rank(S)
        Ur, Sr = U[:, :rank], S[:rank]
        g0 = (Ur / Sr**2) @ Ur.T
        kappa = np.inf
        if rank:
            # Generalized extreme eigenvalues of the weighted norm against the
            # induced one on the span: ratios r(f) = <f,f>_mu / <f,f>_0.
            C = (Sr[:, None] * (Ur.T @ (mu[:, None] * Ur))) * Sr[None, :]
            ratios = np.linalg.eigvalsh((C + C.T) / 2.0)
            kappa = float(np.sqrt(max(ratios[-1], 1.0 / ratios[0])))
        lipschitz = model.jacobian_lipschitz
        sigma_min = float(Sr[-1]) if rank else 0.0
        radius_bound, alpha_threshold = np.inf, 0.0   # a constant Jacobian
        if lipschitz > 0:
            # zero when the Jacobian has no Lipschitz constant or no rank
            radius_bound = (1.0 - backup.gamma) ** 2 * sigma_min**2 / (
                192.0 * kappa**2 * lipschitz * smax
            ) if rank else 0.0
            # norm0(v*) over the radius; no scaling suffices for a zero radius
            size = np.sqrt(max(vstar @ g0 @ vstar, 0.0))
            alpha_threshold = size / radius_bound if radius_bound > 0 else np.inf
        re = np.linalg.eigvals(_linearized(backup.drive, J0)).real
        fast = float(-re.min())
        tol = 1e-12 * max(fast, 1.0)
        nonzero = -re[re < -tol]
        return cls(
            j0=J0,
            g0=g0,
            span=Ur,
            rank=rank,
            sigma_min=sigma_min,
            sigma_max=smax,
            kappa=kappa,
            radius_bound=float(radius_bound),
            alpha_threshold=float(alpha_threshold),
            backup=backup,
            rate_fast=fast,
            rate_slow=float(nonzero.min()) if nonzero.size else fast,
            rates_unstable=np.sort(re[re > tol])[::-1],
        )

    def linearized(self, J: np.ndarray) -> np.ndarray:
        """A matrix with the nonzero spectrum of the flow linearized at a
        point whose Jacobian is J."""
        return _linearized(self.backup.drive, J)

    def norm0(self, f: np.ndarray) -> float:
        """Norm of f in the initialization metric.

        When the model is rank deficient this is a pseudo-norm: only the
        component of f inside the span contributes.
        """
        f = np.asarray(f, dtype=float)
        return float(np.sqrt(max(f @ self.g0 @ f, 0.0)))

    def lyapunov(self, f: np.ndarray) -> float:
        """Squared distance to the target in the initialization norm."""
        return self.norm0(np.asarray(f, dtype=float) - self.backup.vstar) ** 2

    @property
    def rate_bound(self) -> float:
        """Guaranteed exponential decay rate of the Lyapunov value."""
        return (1.0 - self.backup.gamma) / (2.0 * self.kappa**2)


class SaveSeries:
    """Every per-save series of one spiral or network run, from one
    evaluation of each saved state w: its value V(w), scaled to alpha V(w),
    and its Jacobian J(w).

    Each state gives ``projected_error``, the weighted norm of the backup
    residual of alpha V(w) projected on the tangent space at w, which
    vanishes exactly at stationary points of the scaled averaged dynamics
    and so certifies convergence to a local fixed point, and
    ``value_error``, the weighted distance of alpha V(w) to the chain's
    exact value, both read from the run's ``backup``. The ``geometry`` of an
    over-parametrized run, built on that same backup (DomainError
    otherwise), adds ``lyapunov`` and the metric drift (see
    ``metric_drift``), which stops at the first state whose Jacobian has
    lost rank.

    ``record(w, t)`` evaluates the next saved state and returns its
    projected error, so that a run records each state as it saves it;
    ``spectral_radius`` reads the Jacobian of the state recorded last.
    ``attach(run)`` evaluates the states not yet recorded and writes the
    columns, with ``displacement`` from the first state, into
    ``run.diagnostics``, the values V(w) into ``run.values`` and the drift,
    or the RankCollapse that ended it, into ``run.drift``.
    """

    def __init__(self, model: ValueModel, backup: Backup, alpha: float,
                 geometry: LazyGeometry | None = None):
        if geometry is not None and geometry.backup is not backup:
            raise DomainError("the geometry was built on another backup than the series'")
        self.model, self.backup, self.alpha, self.geometry = model, backup, alpha, geometry
        self.values, self.rows, self.drift, self.collapse = [], [], [], None

    def record(self, w: np.ndarray, t: float = 0.0) -> float:
        value = self.model.value(w)
        V = self.alpha * value
        J = self.jacobian = self.model.jacobian(w)
        b = self.backup
        row = [mu_norm(mu_projection(J, b.mu, b.residual(V)), b.mu), mu_norm(V - b.vstar, b.mu)]
        g = self.geometry
        if g is not None:
            row.append(g.lyapunov(V))
            if self.collapse is None:
                rank = numerical_rank(np.linalg.svd(J, compute_uv=False))
                if rank < g.rank:
                    self.collapse = RankCollapse(f"rank dropped from {g.rank} to {rank} at t={t:g}")
                else:
                    M = g.span.T @ (g.g0 @ (J @ J.T) - np.eye(len(V))) @ g.span
                    self.drift.append(np.linalg.norm(M, ord=2))
        self.values.append(value)
        self.rows.append(row)
        return row[0]

    def spectral_radius(self, w: np.ndarray) -> float:
        """Spectral radius of the flow linearized at ``w``, the state recorded
        last (as ``integrate`` asks), from the Jacobian recorded there."""
        return float(np.abs(np.linalg.eigvals(self.geometry.linearized(self.jacobian))).max())

    def attach(self, run: Trajectory) -> None:
        done = len(self.rows)
        for w, t in zip(run.params[done:], run.times[done:]):
            self.record(w, t)
        names = ("projected_error", "value_error", "lyapunov")
        run.diagnostics.update((k, np.array(col)) for k, col in zip(names, zip(*self.rows)))
        run.diagnostics["displacement"] = np.linalg.norm(run.params - run.params[0], axis=1)
        run.values = np.array(self.values)
        if self.geometry is not None:
            run.drift = self.collapse or np.array(self.drift)


def fit_exponential_rate(times: np.ndarray, values: np.ndarray) -> tuple[float | None, float]:
    """Least-squares decay rate of log(values) after discarding the leading
    ``TRANSIENT`` share of the samples.

    Returns (rate, r_squared); rate is None when fewer than three positive
    samples remain. Callers decide what r_squared is acceptable.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    start = int(np.floor(TRANSIENT * len(times)))
    t, v = times[start:], values[start:]
    keep = v > 0
    t, v = t[keep], v[keep]
    if t.size < 3 or np.ptp(t) == 0:
        return None, 0.0
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


@dataclass
class DecayCertificate:
    """Outcome of checking the global exponential-decay guarantee on one run."""

    sigma_min_positive: bool
    init_within_radius: bool
    alpha_above_threshold: bool
    rate_bound: float
    envelope_margin: float
    envelope_ok: bool
    fitted_rate: float | None
    r_squared: float
    clean_exponential: bool
    rate_exceeds_bound: bool
    displacement: float
    passed: bool


def overparametrized_certificate(
    geometry: LazyGeometry,
    run: Trajectory,
    alpha: float,
) -> DecayCertificate:
    """Check the exponential Lyapunov envelope on an over-parametrized run,
    from the series its ``SaveSeries`` attached with ``geometry``.

    Passing requires the Lyapunov series to stay below its guaranteed
    envelope (up to ``ENVELOPE_SLACK``) at every saved time and to decay as
    a clean single exponential (R^2 of the log-linear fit at least
    ``R2_MIN``). The worst-case preconditions (initialization
    radius, scaling threshold) are reported but do not gate the pass, since
    they are loose by orders of magnitude at desk scale.
    """
    if geometry.rank < geometry.j0.shape[0]:
        raise NotOverParametrized(
            f"rank {geometry.rank} < {geometry.j0.shape[0]} states; decay certificate undefined"
        )
    U = run.diagnostics["lyapunov"]
    rate = geometry.rate_bound
    envelope = U[0] * np.exp(-rate * run.times)
    # against a zero envelope, a zero value holds it (ratio 1), a positive one does not
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(envelope > 0, U / envelope, np.where(U > 0, np.inf, 1.0))
    margin = float(np.max(ratios))
    envelope_ok = bool(margin <= 1.0 + ENVELOPE_SLACK) and not run.diverged

    fitted, r2 = fit_exponential_rate(run.times, U)
    clean = fitted is not None and r2 >= R2_MIN
    return DecayCertificate(
        sigma_min_positive=geometry.sigma_min > 0,
        init_within_radius=geometry.norm0(run.values[0]) < geometry.radius_bound,
        alpha_above_threshold=alpha > geometry.alpha_threshold,
        rate_bound=rate,
        envelope_margin=margin,
        envelope_ok=envelope_ok,
        fitted_rate=fitted if clean else None,
        r_squared=r2,
        clean_exponential=clean,
        rate_exceeds_bound=bool(clean and fitted >= rate),
        displacement=float(np.max(run.diagnostics["displacement"])),
        passed=bool(envelope_ok and clean),
    )


@dataclass
class FixedPointCertificate:
    """Outcome of checking local-fixed-point convergence over a scaling grid."""

    alphas: list[float]
    diverged: list[bool]
    projected_errors: list[float]
    converged: list[bool]
    value_errors: list[float]
    bound_base: float
    excesses: list[float]
    envelope_constant: float
    envelope_ok: bool
    passed: bool


def underparametrized_certificate(
    geometry: LazyGeometry,
    alphas: Sequence[float],
    runs: Sequence[Trajectory],
) -> FixedPointCertificate:
    """Check fixed-point convergence and the 1/alpha excess-error envelope
    on runs from the initialization of ``geometry``, from the series each
    run's ``SaveSeries`` attached at its scaling.

    For each run the projected backup residual at the final iterate must
    fall below ``FIXED_POINT_TOL``. The excess of the final value error over
    (1 - lam gamma)/(1 - gamma) times the best error in the span of J0, at
    the geometry's lam, must fit under C/alpha with the single constant C
    anchored at the smallest scaling in the grid; anchoring keeps the
    envelope test non-vacuous.
    """
    if len(alphas) == 0:
        raise DomainError("need at least one scaling value")
    if len(alphas) != len(runs):
        raise DimensionMismatch(f"need one run per scaling value, got {len(alphas)} "
                                f"values and {len(runs)} runs")
    if geometry.rank == geometry.j0.shape[0]:
        raise NotUnderParametrized("Jacobian has full row rank at initialization")
    if np.max(np.abs(runs[0].values[0])) > 1e-10:
        raise InitNotZero("initial value vector must vanish")

    b = geometry.backup
    factor = (1.0 - b.lam * b.gamma) / (1.0 - b.gamma)
    base = factor * mu_norm(mu_projection(geometry.j0, b.mu, b.vstar) - b.vstar, b.mu)

    order = np.argsort(alphas)
    diverged, proj_errors, value_errors, excesses, converged = [], [], [], [], []
    for run in runs:
        diverged.append(bool(run.diverged))
        pe, err = (float("inf"), float("inf")) if run.diverged else (
            float(run.diagnostics["projected_error"][-1]), float(run.diagnostics["value_error"][-1]))
        proj_errors.append(pe)
        value_errors.append(err)
        excesses.append(err - base)
        converged.append(pe <= FIXED_POINT_TOL)

    a_min = float(alphas[order[0]])
    C = max(excesses[order[0]] * a_min, 1e-12)
    envelope_ok = np.isfinite(C) and all(
        exc <= C / a + 1e-12 for a, exc in zip(alphas, excesses)
    )
    return FixedPointCertificate(
        alphas=[float(a) for a in alphas],
        diverged=diverged,
        projected_errors=proj_errors,
        converged=converged,
        value_errors=value_errors,
        bound_base=float(base),
        excesses=excesses,
        envelope_constant=float(C),
        envelope_ok=bool(envelope_ok),
        passed=bool(all(converged) and envelope_ok),
    )


def displacement_slope(alphas, displacements, diverged) -> tuple[float, bool]:
    """Log-log slope of displacement against alpha, and whether the scaling
    check passes: no run diverged, every displacement is positive and the
    slope is at most ``SLOPE_BOUND``. The slope is nan when a run diverged
    or did not move, or when there is one alpha, through which no line is
    determined."""
    ok = (len(alphas) >= 2 and not any(diverged)
          and all(d is not None and d > 0 for d in displacements))
    slope = float("nan")
    if ok:
        slope = float(np.polyfit(np.log(np.asarray(alphas, dtype=float)),
                                 np.log(np.asarray(displacements)), 1)[0])
    return slope, bool(ok and slope <= SLOPE_BOUND)


def metric_drift(run: Trajectory) -> np.ndarray:
    """Relative drift of the pushforward metric along a run, as its
    ``SaveSeries`` computed it: per saved time, the operator norm of
    g0 (J_w J_w^T) - I restricted to the initial span. The lazy regime
    keeps this below (1 - gamma)/4; a rank drop along the way raises
    RankCollapse, since the comparison is then meaningless."""
    if run.drift is None:
        raise DomainError("no metric drift on this run: attach a SaveSeries with its geometry")
    if isinstance(run.drift, RankCollapse):
        raise run.drift
    return run.drift
