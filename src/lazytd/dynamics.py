"""Training engines: sampled TD(lambda) with eligibility traces, the averaged
deterministic flow, and its lazily scaled variant, plus the fixed-step
integrators that drive them: Euler, classical RK4 and the damped
second-order Runge-Kutta-Chebyshev (RKC) step for stiff flows.

Time conventions: deterministic runs are parametrized by the time variable
of the scaled flow itself; sampled runs report the step count times the
constant step size as time, so that they line up with the averaged flow
they track. Every engine steps through one run loop (``_run``), which
owns the state buffers, the save schedule, the divergence rule,
``stop_when`` and the returned ``Trajectory``.
"""

from __future__ import annotations

import csv
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, NonFiniteState
from .models import ValueModel
from .mrp import Mrp, per_state, td_resolvent

INTEGRATORS = ("euler", "rk4", "rkc")
DIVERGENCE_THRESHOLD = 1e8        # a state or scaled value past this max-norm has diverged
RKC_DAMPING = 2.0                 # epsilon of the damped Chebyshev stages
RKC_MARGIN = 1.3                  # stability length over h times the spectral radius


@dataclass
class TrainConfig:
    """Knobs shared by all engines; see field comments for units."""

    lam: float = 0.0                 # trace parameter in [0, 1)
    alpha: float = 1.0               # lazy scaling factor, >= 1
    beta0: float = 1e-3              # constant step size of the sampled engine
    horizon: float = 1000.0          # step count (stochastic) or end time (ode)
    integrator: str = "rk4"
    dt: float = 1e-2                 # ode step
    save_every: int = 100            # record state every this many steps
    seed: int = 0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0.0 <= self.lam < 1.0:
            raise DomainError(f"lam must lie in [0,1), got {self.lam}")
        if not self.alpha >= 1.0:
            raise DomainError(f"alpha must be >= 1, got {self.alpha}")
        if self.integrator not in INTEGRATORS:
            raise DomainError(f"integrator must be one of {INTEGRATORS}")
        for name in ("dt", "horizon"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not self.beta0 > 0.0:
            raise DomainError(f"beta0 must be positive, got {self.beta0}")
        if not (isinstance(self.save_every, (int, np.integer)) and self.save_every >= 1):
            raise DomainError(f"save_every must be an integer >= 1, got {self.save_every!r}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps dt that reach the horizon (the ode engines)."""
        if not self.horizon / self.dt < np.inf:
            raise DomainError(f"horizon/dt = {self.horizon}/{self.dt} overflows the step count")
        return _at_least_one_step(int(round(self.horizon / self.dt)),
                                  f"horizon/dt = {self.horizon}/{self.dt}")

    @property
    def n_samples(self) -> int:
        """Number of sampled steps, the horizon rounded down (the sampled engine)."""
        return _at_least_one_step(int(self.horizon), f"horizon {self.horizon}")


def _at_least_one_step(steps: int, source: str) -> int:
    """The step count of a run, which must take at least one step."""
    if steps < 1:
        raise DomainError(f"{source} comes to {steps} steps; a run takes at least one")
    return steps


@dataclass
class Trajectory:
    """Saved states of one run plus whatever per-time diagnostics were attached."""

    times: np.ndarray
    params: np.ndarray               # (n_saved, p), all finite
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    diverged: bool = False
    diverged_at: float | None = None
    # what the run did: steps; integrate adds integrator, rhs_calls, stages_min, stages_max
    stats: dict = field(default_factory=dict)

    @property
    def final_params(self) -> np.ndarray:
        return self.params[-1]

    def table(self, include_params: bool = True) -> tuple[list[str], list[list[float]]]:
        """Header and rows of the CSV record, one row per saved time: time,
        parameter components, diagnostics in name order."""
        keys = sorted(self.diagnostics)
        header = ["time"]
        cols = [self.times[:, None]]
        if include_params:
            header += [f"w{j}" for j in range(self.params.shape[1])]
            cols.append(self.params)
        header += keys
        cols += [np.asarray(self.diagnostics[k])[:, None] for k in keys]
        return header, np.hstack(cols).tolist()


def _csv_cell(v) -> str:
    """Text of one CSV cell: empty for None, lower-case booleans, and the
    shortest round-tripping form of floats."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str | Path, header, rows) -> None:
    """The package's one CSV writer: the csv module's default dialect (CRLF
    line ends), every cell formatted by ``_csv_cell``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def sample_chain(mrp: Mrp, mu: np.ndarray, steps: int, rng: np.random.Generator | int) -> np.ndarray:
    """Sample a state path: s0 from the weights mu, then the chain."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    rng = np.random.default_rng(rng)
    cum = np.cumsum(mrp.P, axis=1)
    cum[:, -1] = 1.0
    # bisect on the rows as Python lists: a per-step np.searchsorted costs
    # microseconds of call overhead on rows of a few entries. The draws stay
    # an array, since a list of them would add a float object per step.
    rows = cum.tolist()
    draws = rng.random(steps)
    path = np.empty(steps, dtype=np.int64)
    cum_mu = np.cumsum(per_state(mu, mrp.d))
    cum_mu[-1] = 1.0
    s = int(np.searchsorted(cum_mu, draws[0], side="right"))
    path[0] = s
    for t, u in enumerate(draws[1:], start=1):
        s = bisect_right(rows[s], u)
        path[t] = s
    return path


def stochastic_td_step(
    value: np.ndarray,
    row,
    w: np.ndarray,
    z: np.ndarray,
    s: int,
    s_next: int,
    reward: float,
    beta: float,
    gamma: float,
    config: TrainConfig,
    out: np.ndarray,
) -> None:
    """One sampled TD(lambda) update with the recursive eligibility trace,
    from the model's value vector and Jacobian-row map at ``w`` (see
    ``ValueModel.value_and_row``).

    delta uses the alpha-scaled model and the parameter step carries the
    matching 1/alpha factor, so alpha = 1 is the plain unscaled update.
    The trace z is updated in place to gamma lam z + J(w)[s], and the next
    parameters, w + beta delta z / alpha, are written into ``out``.
    """
    alpha, lam = config.alpha, config.lam
    delta = reward + gamma * alpha * value[s_next] - alpha * value[s]
    z *= gamma * lam
    z += row(s)
    np.multiply(z, beta * delta, out)
    out /= alpha
    out += w


def run_stochastic_td(
    model: ValueModel,
    mrp: Mrp,
    mu: np.ndarray,
    config: TrainConfig,
    w0: np.ndarray,
) -> Trajectory:
    """Run sampled TD(lambda) for config.horizon steps along one chain path.

    The recursive trace accumulates gradients as they were at sampling time.
    Each accepted state's value and Jacobian-row map are evaluated once, by
    ``value_and_row``: the divergence probe reads the scaled value,
    alpha max|V|, and the next update uses both.
    """
    steps = config.n_samples
    path = sample_chain(mrp, mu, steps + 1, np.random.default_rng(config.seed)).tolist()
    rewards = mrp.rbar.tolist()
    beta, gamma = config.beta0, mrp.gamma
    z = np.zeros(model.p)
    at = [None, None]  # value and row map at the latest state

    def look(w):
        at[:] = model.value_and_row(w)
        return config.alpha * float(np.maximum.reduce(np.abs(at[0])))

    def advance(k, w, out):
        s = path[k]
        stochastic_td_step(*at, w, z, s, path[k + 1], rewards[s], beta, gamma, config, out)

    return _run(advance, look, w0, beta, steps, config.save_every)


def make_lazy_rhs(model: ValueModel, mrp: Mrp, mu: np.ndarray, lam: float, alpha: float):
    """Drift of the scaled dynamics, (1/alpha) J^T Gamma (T(alpha V) - alpha V);
    alpha = 1 is the averaged flow J^T Gamma (T V - V).

    With T V = r_lam + gamma P_lam V the drift is J^T (M V + c), where
    M = Gamma (gamma P_lam - I) and c = Gamma r_lam / alpha are folded once
    here, so each call asks the model for one value vector and one
    vector-Jacobian product and does no scaling by alpha.

    It also carries ``rhs.scaled_value_norm(w)``, the max-norm of the scaled
    value vector, alpha max|V|, for use as the divergence probe. When ``w``
    is the very array of the latest rhs call (as in ``integrate``, which
    evaluates the next step's first stage before probing), it reuses that
    call's value instead of evaluating the model again; ``w`` must not have
    been modified in place since.
    """
    if alpha < 1.0:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    mu = per_state(mu, mrp.d)
    r_lam, P_lam = td_resolvent(mrp, lam)
    M = mu[:, None] * (mrp.gamma * P_lam - np.eye(mrp.d))
    c = mu * r_lam / alpha
    latest = [None, None]  # the last rhs argument and its unscaled value

    def rhs(w: np.ndarray) -> np.ndarray:
        value, vjp = model.value_and_vjp(w)
        latest[0], latest[1] = w, value
        g = np.dot(M, value)
        g += c
        return vjp(g)

    def scaled_value_norm(w: np.ndarray) -> float:
        value = latest[1] if latest[0] is w else model.value(w)
        # equal to max|alpha V| exactly: scaling by alpha > 0 keeps the order
        return alpha * float(np.maximum.reduce(np.abs(value)))

    rhs.scaled_value_norm = scaled_value_norm
    return rhs


@functools.lru_cache(maxsize=None)
def rkc_scheme(s: int) -> tuple[float, float, tuple]:
    """The damped second-order Runge-Kutta-Chebyshev scheme of s >= 2
    stages (Sommeijer, Shampine & Verwer 1998), from the Chebyshev
    recurrences at w0 = 1 + RKC_DAMPING / s^2.

    Returns (beta, mu1, stages): the stability length along the negative
    real axis, beta(s) = (w0 + 1) T_s''(w0) / T_s'(w0); the first stage's
    factor, Y1 = Y0 + mu1 h F(Y0); and for j = 2..s the factors
    (1 - mu - nu, mu, nu, mu~, gamma~) of
    Yj = (1 - mu - nu) Y0 + mu Y(j-1) + nu Y(j-2) + h mu~ F(Y(j-1)) + h gamma~ F(Y0).
    """
    if s < 2:
        raise DomainError(f"an RKC scheme has at least 2 stages, got {s}")
    w0 = 1.0 + RKC_DAMPING / s**2
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        ddT.append(4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2])
    w1 = dT[s] / ddT[s]
    b = [ddT[j] / dT[j] ** 2 if j >= 2 else 0.0 for j in range(s + 1)]
    b[0] = b[1] = b[2]
    stages = []
    for j in range(2, s + 1):
        mu = 2.0 * w0 * b[j] / b[j - 1]
        nu = -b[j] / b[j - 2]
        mu_t = 2.0 * w1 * b[j] / b[j - 1]
        gamma_t = -(1.0 - b[j - 1] * T[j - 1]) * mu_t
        stages.append((1.0 - mu - nu, mu, nu, mu_t, gamma_t))
    return (w0 + 1.0) * ddT[s] / dT[s], b[1] * w1, tuple(stages)


def rkc_stage_count(h_rho: float) -> int:
    """The fewest RKC stages whose stability length is at least RKC_MARGIN
    times h rho, the step times the spectral radius."""
    if not 0.0 <= h_rho < np.inf:
        raise DomainError(f"h times the spectral radius must be finite and >= 0, got {h_rho}")
    s = 2
    while rkc_scheme(s)[0] < RKC_MARGIN * h_rho:
        s += 1
    return s


def integrate(
    rhs,
    w0: np.ndarray,
    config: TrainConfig,
    divergence_probe=None,
    stop_when=None,
    *,
    spectral_radius=None,
) -> Trajectory:
    """Fixed-step integration of dw/dt = rhs(w) up to config.horizon, on the
    run loop ``_run`` (divergence rule, saves, ``stop_when(w, t)``).

    Each accepted state's first-stage rhs is evaluated right away, before
    the divergence check, so a probe built on the rhs (see
    ``make_lazy_rhs``) finds that state's value already computed. A run of
    n steps makes 4n rhs calls with RK4 (n with Euler), plus at most one.
    The stages are written in place into buffers the step reuses, so rhs
    must not keep its argument past the call.

    The "rkc" integrator is meant for stiff flows whose fastest modes are
    real and decaying. Its stage count s is set at the start and at every
    save point, as the fewest stages whose stability length covers
    ``spectral_radius(w)`` times dt (see ``rkc_stage_count``); it must be
    given. A step of s stages makes s rhs calls. The returned trajectory's
    ``stats`` count the steps and rhs calls made and the stage counts used.
    """
    if config.integrator == "rkc" and spectral_radius is None:
        raise DomainError("the rkc integrator needs spectral_radius(w) to set its stage count")
    dt = config.dt
    half, sixth = 0.5 * dt, dt / 6.0
    stage = np.empty(np.shape(w0))
    k1 = None
    calls = 0
    stage_counts = {"rk4": {4}, "euler": {1}, "rkc": set()}[config.integrator]

    def f(w):
        nonlocal calls
        calls += 1
        return rhs(w)

    def look(w):
        nonlocal k1
        k1 = f(w)
        return 0.0 if divergence_probe is None else divergence_probe(w)

    def rk4(k, w, out):
        nonlocal stage  # for +=, which works in place
        np.multiply(k1, half, stage)
        stage += w
        k2 = f(stage)
        np.multiply(k2, half, stage)
        stage += w
        k3 = f(stage)
        np.multiply(k3, dt, stage)
        stage += w
        k4 = f(stage)
        # w + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in this order
        np.multiply(k2, 2.0, out)
        out += k1
        np.multiply(k3, 2.0, stage)
        out += stage
        out += k4
        out *= sixth
        out += w

    def euler(k, w, out):
        np.multiply(k1, dt, out)
        out += w

    scheme = None
    buffers = [np.empty(np.shape(w0)) for _ in range(3)]

    def rkc(k, w, out):
        nonlocal scheme
        if k % config.save_every == 0:
            s = rkc_stage_count(dt * float(spectral_radius(w)))
            stage_counts.add(s)
            scheme = rkc_scheme(s)
        _, mu1, stages = scheme
        np.multiply(k1, mu1 * dt, buffers[0])
        buffers[0] += w
        # the stages rotate through the three buffers: stage j reads the
        # latest two states and overwrites the one before them
        for j, (c0, mu, nu, mu_t, gamma_t) in enumerate(stages):
            prev, y = buffers[j % 3], buffers[(j + 1) % 3]
            prev2 = buffers[(j - 1) % 3] if j else w
            fj = f(prev)
            np.multiply(w, c0, y)
            np.multiply(prev, mu, stage)
            y += stage
            np.multiply(prev2, nu, stage)
            y += stage
            np.multiply(fj, mu_t * dt, stage)
            y += stage
            np.multiply(k1, gamma_t * dt, stage)
            y += stage
        np.copyto(out, y)

    advance = {"rk4": rk4, "euler": euler, "rkc": rkc}[config.integrator]
    run = _run(advance, look, w0, dt, config.n_steps, config.save_every, stop_when)
    run.stats.update(integrator=config.integrator, rhs_calls=calls,
                     stages_min=min(stage_counts), stages_max=max(stage_counts))
    return run


def _run(advance, look, w0: np.ndarray, h: float, n_steps: int, save_every: int,
         stop_when=None) -> Trajectory:
    """The one run loop of every engine: n_steps >= 1 steps of size h, the
    state after step k + 1 at time (k + 1) h, saved every save_every steps
    and at the last. The trajectory's ``stats`` count the steps taken, the
    one that diverged included.

    ``advance(k, w, out)`` writes the state after step k + 1 into ``out``;
    ``look(w)`` evaluates at each accepted state what the next step needs
    and returns the divergence probe's magnitude (0 for none). The run
    halts with the diverged flag as soon as the state's max-norm or the
    probe exceeds the divergence threshold (a NaN probe counts); only
    finite states are recorded. A non-finite state reached from an
    already-large one (within three orders of magnitude of the threshold)
    counts as divergence, since a single explosive step can overshoot
    straight past the threshold; otherwise it raises NonFiniteState.
    ``stop_when(w, t)`` is consulted at save points with the saved copy.
    """
    w = np.array(w0, dtype=float)
    w_new = np.empty_like(w)   # the state buffers swap roles after every accepted step
    times, saved = [0.0], [w.copy()]
    diverged_at = None
    # blowup is detected and classified below; let the steps overflow quietly
    with np.errstate(over="ignore", invalid="ignore"):
        last_mag = max(float(np.maximum.reduce(np.abs(w))), float(look(w)))
        for k in range(n_steps):
            advance(k, w, w_new)
            t = (k + 1) * h
            # one max-norm: nan or inf anywhere makes it non-finite
            mag = float(np.maximum.reduce(np.abs(w_new)))
            if not math.isfinite(mag):
                if last_mag > 1e-3 * DIVERGENCE_THRESHOLD:
                    diverged_at = t
                    break
                raise NonFiniteState(f"non-finite state at t={t:g}")
            # the probe first, so that max keeps a NaN probe and it fails
            mag = max(float(look(w_new)), mag)
            if not mag <= DIVERGENCE_THRESHOLD:
                diverged_at = t
                break
            w, w_new = w_new, w
            last_mag = mag
            if (k + 1) % save_every == 0 or k == n_steps - 1:
                times.append(t)
                saved.append(w.copy())
                if stop_when is not None and stop_when(saved[-1], t):
                    break
    return Trajectory(
        times=np.asarray(times),
        params=np.asarray(saved),
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        stats={"steps": k + 1},
    )
