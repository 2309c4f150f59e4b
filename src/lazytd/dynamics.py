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

A sampled run reads its chain path state by state, and a step reads the
model at the two states of its transition only; its divergence probe
reads the model's stated value bound instead of the value vector wherever
the bound is far below the threshold.
"""

from __future__ import annotations

import csv
import functools
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, DomainError, NonFiniteState
from .models import ValueModel
from .mrp import Backup, Mrp, state_weights

INTEGRATORS = ("euler", "rk4", "rkc")
DIVERGENCE_THRESHOLD = 1e8        # a state or scaled value past this max-norm has diverged
# below this max-norm a run is quiet: a non-finite state reached from a quiet
# state is a fault (NonFiniteState), and the sampled probe may return a stated
# value bound at or below it in place of the exact max|V|
QUIET = 1e-3 * DIVERGENCE_THRESHOLD
RKC_DAMPING = 2.0                 # epsilon of the damped Chebyshev stages
RKC_MARGIN = 1.3                  # stability length over h times the spectral radius
CHAIN_BLOCK = 4096                # uniforms sample_chain draws at a time


@dataclass
class TrainConfig:
    """Knobs of the engines; see field comments for units and the engine
    that reads each. ``integrate`` reads only the ode fields, horizon and
    save_every: the drift it steps carries its own lam and alpha."""

    lam: float = 0.0                 # trace parameter in [0, 1) (sampled)
    alpha: float = 1.0               # lazy scaling factor, >= 1 (sampled)
    beta0: float = 1e-3              # constant step size (sampled)
    horizon: float = 1000.0          # step count (sampled) or end time (ode)
    integrator: str = "rk4"          # (ode)
    dt: float = 1e-2                 # step (ode)
    save_every: int = 100            # record state every this many steps (both)
    seed: int = 0                    # of the chain path (sampled)

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
    # what the run did: steps and the stop reason; integrate adds integrator,
    # rhs_calls, stages_min, stages_max
    stats: dict = field(default_factory=dict)
    # set with the per-save series (analysis.SaveSeries): the model's value at
    # each saved state, and the metric drift or the RankCollapse that ended it
    values: np.ndarray | None = None
    drift: np.ndarray | Exception | None = None

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


def sample_chain(mrp: Mrp, mu: np.ndarray, steps: int,
                 rng: np.random.Generator | int) -> Iterator[int]:
    """A state path of ``steps`` states, yielded lazily: s0 from the weights
    mu, then the chain. The inputs are checked at the call. The uniforms
    are drawn ``CHAIN_BLOCK`` at a time, the same stream as one draw of all
    of them, so the path's memory does not grow with its length."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    rng = np.random.default_rng(rng)
    cum = np.cumsum(mrp.P, axis=1)
    cum[:, -1] = 1.0
    cum_mu = np.cumsum(state_weights(mu, mrp.d))
    cum_mu[-1] = 1.0
    # bisect on the rows as Python lists: a per-step np.searchsorted costs
    # microseconds of call overhead on rows of a few entries
    rows, first = cum.tolist(), cum_mu.tolist()

    def states():
        row = first
        for start in range(0, steps, CHAIN_BLOCK):
            for u in rng.random(min(CHAIN_BLOCK, steps - start)).tolist():
                s = bisect_right(row, u)
                yield s
                row = rows[s]

    return states()


def run_stochastic_td(
    model: ValueModel,
    mrp: Mrp,
    mu: np.ndarray,
    config: TrainConfig,
    w0: np.ndarray,
) -> Trajectory:
    """Run sampled TD(lambda) for config.horizon steps along one chain path,
    read state by state from ``sample_chain``.

    A step on s -> s' reads V_w(s), V_w(s') and the Jacobian row J(w)[s]
    by ``value_and_row``. The TD error delta = r(s) + gamma alpha V_w(s')
    - alpha V_w(s) and the step w + beta delta z / alpha carry the scaling
    (alpha = 1 is plain TD). The trace z = gamma lam z + J(w)[s] keeps the
    gradients as they were at sampling time; at lam = 0 it is the row
    itself, and z is not read.

    The divergence probe is alpha max|V|, except where the stated bound
    alpha ``value_bound(max|w|)`` is at most ``QUIET``: there it returns
    the bound, which lies below the threshold and at or below the run
    loop's non-finite margin, so every divergence decision is the exact
    probe's. w0's length is checked here, once per run.
    """
    steps = config.n_samples
    if np.shape(w0) != (model.p,):
        raise DimensionMismatch(f"expected parameter vector of length {model.p}, "
                                f"got shape {np.shape(w0)}")
    chain = sample_chain(mrp, mu, steps + 1, np.random.default_rng(config.seed))
    rewards = mrp.rbar.tolist()
    beta, gamma, alpha, lam = config.beta0, mrp.gamma, config.alpha, config.lam
    z = np.zeros(model.p)
    s = next(chain)

    def look(w, mag):
        bound = alpha * model.value_bound(mag)
        if bound <= QUIET:
            return bound
        return alpha * float(np.maximum.reduce(np.abs(model.value(w))))

    def advance(k, w, out):
        nonlocal s, z  # the chain's current state; z for *= and +=, which work in place
        s_next = next(chain)
        v_s, v_next, row = model.value_and_row(w, s, s_next)
        delta = rewards[s] + gamma * alpha * v_next - alpha * v_s
        if lam:
            z *= gamma * lam
            z += row
            row = z
        np.multiply(row, beta * delta, out)
        out /= alpha
        out += w
        s = s_next

    return _run(advance, look, w0, beta, steps, config.save_every)


def make_lazy_rhs(model: ValueModel, mrp: Mrp, mu: np.ndarray, lam: float, alpha: float):
    """Drift of the scaled dynamics, (1/alpha) J^T Gamma (T(alpha V) - alpha V);
    alpha = 1 is the averaged flow J^T Gamma (T V - V).

    With T V = r_lam + gamma P_lam V the drift is J^T (M V + c), where
    M = Gamma (gamma P_lam - I), the drive, and c = Gamma r_lam / alpha are
    read once here from the chain's ``Backup``, so each call asks the model
    for one value vector and one vector-Jacobian product and does no
    scaling by alpha. The drift carries that backup as ``rhs.backup``.

    It also carries ``rhs.scaled_value_norm(w)``, the max-norm of the scaled
    value vector, alpha max|V|, for use as the divergence probe. When ``w``
    is the very array of the latest rhs call (as in ``integrate``, which
    evaluates the next step's first stage before probing), it reuses that
    call's value instead of evaluating the model again; ``w`` must not have
    been modified in place since.
    """
    if not alpha >= 1.0:  # written so that NaN fails it
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    backup = Backup.of(mrp, mu, lam)
    M, c = backup.drive, backup.mu * backup.r_lam / alpha
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

    rhs.scaled_value_norm, rhs.backup = scaled_value_norm, backup
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
    must not keep its argument past the call. A step whose state is not
    finite counts as divergence when one of its stage states passed
    ``QUIET`` in max-norm or in the probe, or dt times one of its stage rhs
    values did in max-norm (NaN entries aside); ``_run`` asks this of the
    step only then, and the step runs again to answer.

    The "rkc" integrator is meant for stiff flows whose fastest modes are
    real and decaying. Its stage count s is set at w0 and at every saved
    state the run steps on from (right after ``stop_when`` reads it; at no
    other state), as the fewest stages whose stability length covers
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

    def look(w, mag):
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

    def overshot(k, w):
        # the step from w that went non-finite runs again, its stages through
        # an uncounted rhs that notes each stage state's max-norm and probe
        # and dt times its rhs's max-norm; the run ends here either way
        nonlocal f

        def largest(a):  # max|a| over the entries that are not NaN
            return float(np.fmax.reduce(np.abs(a)))
        sizes = [dt * largest(k1)]

        def f(x):
            kx = rhs(x)
            sizes.extend([largest(x), dt * largest(kx),
                          0.0 if divergence_probe is None else divergence_probe(x)])
            return kx
        advance(k, w, np.empty_like(w))
        return any(size > QUIET for size in sizes)

    advance = {"rk4": rk4, "euler": euler, "rkc": rkc}[config.integrator]
    run = _run(advance, look, w0, dt, config.n_steps, config.save_every, stop_when, overshot)
    run.stats.update(integrator=config.integrator, rhs_calls=calls,
                     stages_min=min(stage_counts), stages_max=max(stage_counts))
    return run


def _run(advance, look, w0: np.ndarray, h: float, n_steps: int, save_every: int,
         stop_when=None, overshot=None) -> Trajectory:
    """The one run loop of every engine: n_steps >= 1 steps of size h, the
    state after step k + 1 at time (k + 1) h, saved every save_every steps
    and at the last. The trajectory's ``stats`` count the steps taken, the
    one that diverged included, and name why the run ended as ``stop``:
    "horizon", "stop_when", "diverged:value" (the probe tripped) or
    "diverged:parameter" (the state's max-norm tripped, or the state went
    non-finite).

    ``advance(k, w, out)`` writes the state after step k + 1 into ``out``;
    ``look(w, mag)`` evaluates at each accepted state what the next step
    needs and returns the divergence probe's magnitude (0 for none), given
    the state's max-norm mag, which the loop computes anyway. The run
    halts with the diverged flag as soon as the state's max-norm or the
    probe exceeds the divergence threshold (a NaN probe counts); only
    finite states are recorded. A non-finite state counts as divergence
    when it is reached from an already-large one (past ``QUIET``, three
    orders of magnitude below the threshold) or when ``overshot(k, w)``
    says that the step from w passed ``QUIET`` on its way, since a single
    explosive step can overshoot straight past the threshold; otherwise it
    raises NonFiniteState. A non-finite w0 raises DomainError before any step.
    ``stop_when(w, t)`` is consulted at save points with the saved copy.
    """
    w = np.array(w0, dtype=float)
    w_new = np.empty_like(w)   # the state buffers swap roles after every accepted step
    times, saved = [0.0], [w.copy()]
    diverged_at = None
    stop = "horizon"
    # blowup is detected and classified below; let the steps overflow quietly
    with np.errstate(over="ignore", invalid="ignore"):
        mag = float(np.maximum.reduce(np.abs(w)))
        if not math.isfinite(mag):
            raise DomainError(f"the initial state must be finite, got max|w0| = {mag}")
        last_mag = max(mag, float(look(w, mag)))
        for k in range(n_steps):
            advance(k, w, w_new)
            t = (k + 1) * h
            # one max-norm: nan or inf anywhere makes it non-finite
            mag = float(np.maximum.reduce(np.abs(w_new)))
            if not math.isfinite(mag):
                if last_mag > QUIET or (overshot is not None and overshot(k, w)):
                    diverged_at, stop = t, "diverged:parameter"
                    break
                raise NonFiniteState(f"non-finite state at t={t:g}")
            # written so that a NaN probe fails it
            probe = float(look(w_new, mag))
            if not probe <= DIVERGENCE_THRESHOLD:
                diverged_at, stop = t, "diverged:value"
                break
            if not mag <= DIVERGENCE_THRESHOLD:
                diverged_at, stop = t, "diverged:parameter"
                break
            w, w_new = w_new, w
            last_mag = max(probe, mag)
            if (k + 1) % save_every == 0 or k == n_steps - 1:
                times.append(t)
                saved.append(w.copy())
                if stop_when is not None and stop_when(saved[-1], t):
                    stop = "stop_when"
                    break
    return Trajectory(
        times=np.asarray(times),
        params=np.asarray(saved),
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        stats={"steps": k + 1, "stop": stop},
    )
