"""Finite Markov reward processes and the associated evaluation operators.

Everything here is exact, dense linear algebra at desk scale: stationary
measures, value functions, the weighted inner product they induce, the
multi-step bootstrapped backup operator in closed (resolvent) form, and
weighted projections onto model tangent spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, FullSupportViolation, SolveFailure
from .models import RANK_CUTOFF

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Mrp:
    """A finite Markov reward process (transition matrix, rewards, discount).

    Rewards are carried as the state-conditional expectation ``rbar``; the
    sampled engine pays rbar(s) on every transition out of s.
    """

    P: np.ndarray
    rbar: np.ndarray
    gamma: float

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionMismatch(f"transition matrix must be square, got {P.shape}")
        # every check is written so that NaN fails it
        if not np.all(P >= 0):
            raise DomainError("transition matrix entries must be nonnegative numbers")
        if not np.max(np.abs(P.sum(axis=1) - 1.0)) <= ROW_SUM_TOL:
            raise DomainError("transition matrix rows must sum to 1")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"discount factor must lie in (0,1), got {self.gamma}")
        rbar = np.asarray(self.rbar, dtype=float)
        if rbar.shape != (P.shape[0],):
            raise DimensionMismatch("expected reward vector must have length d")
        if not np.all(np.isfinite(rbar)):
            raise DomainError("expected rewards must be finite")
        object.__setattr__(self, "rbar", rbar)

    @property
    def d(self) -> int:
        return self.P.shape[0]


def stationary_measure(mrp: Mrp) -> np.ndarray:
    """Invariant distribution of ``mrp.P`` as a float vector of length d:
    the weight of every mu-norm.

    One dense solve of (I - P^T) mu = 0 with its last equation replaced by
    sum(mu) = 1, nonsingular for every irreducible chain, periodic ones
    included, so mu is exact to rounding at O(d^3) cost. Raises
    FullSupportViolation for a reducible chain (some state cannot reach
    another, so no invariant measure has the full support all weighted
    norms rely on) or when the computed measure has an entry at or below
    1e-14.
    """
    # irreducible: a search from state 0 along P > 0 reaches every state,
    # and one along its transpose finds that every state reaches state 0
    for edges in (mrp.P > 0, (mrp.P > 0).T):
        seen = frontier = np.arange(mrp.d) == 0
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            raise FullSupportViolation("chain is reducible: some state cannot reach another")
    A = np.eye(mrp.d) - mrp.P.T
    A[-1] = 1.0
    b = np.zeros(mrp.d)
    b[-1] = 1.0
    try:
        mu = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # unreachable for an irreducible chain
        raise SolveFailure("stationary-measure system is singular") from exc
    if not mu.min() > 1e-14:
        raise FullSupportViolation("stationary measure lost full support")
    return mu


def exact_value(mrp: Mrp) -> np.ndarray:
    """Value function solving (I - gamma P) V = rbar; the solve's max-norm
    residual may reach 1e-10 of the reward scale max(1, max|rbar|)."""
    A = np.eye(mrp.d) - mrp.gamma * mrp.P
    try:
        v = np.linalg.solve(A, mrp.rbar)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid chain
        raise SolveFailure("value-function system is singular") from exc
    resid = np.max(np.abs(A @ v - mrp.rbar))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(mrp.rbar)))):
        raise SolveFailure(f"value-function residual {resid:.3e} too large")
    return v


def per_state(x, d: int) -> np.ndarray:
    """``x`` (state weights or a value vector) as a float vector with one
    entry for each of the d states; DimensionMismatch otherwise, never a
    broadcast."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DimensionMismatch(f"expected a vector over {d} states, got shape {x.shape}")
    return x


def state_weights(mu, d: int) -> np.ndarray:
    """``mu`` as ``per_state`` reads it, checked to be a weight, finite and
    positive, on every state; DomainError otherwise (NaN fails)."""
    mu = per_state(mu, d)
    if not np.all((mu > 0) & (mu < np.inf)):
        raise DomainError("state weights must be finite and positive")
    return mu


def mu_inner(a: np.ndarray, b: np.ndarray, mu) -> float:
    """Inner product sum_s a(s) b(s) mu(s) of two vectors over the states
    of the weights ``mu`` (checked by ``state_weights``)."""
    mu = state_weights(mu, np.size(mu))
    return float(np.sum(per_state(a, mu.size) * per_state(b, mu.size) * mu))


def mu_norm(a: np.ndarray, mu) -> float:
    return float(np.sqrt(mu_inner(a, a, mu)))


def contraction_modulus(gamma: float, lam: float) -> float:
    """Contraction factor gamma (1 - lambda) / (1 - gamma lambda) of the backup operator."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0,1), got {gamma}")
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"lambda must lie in [0,1), got {lam}")
    return gamma * (1.0 - lam) / (1.0 - gamma * lam)


def td_resolvent(mrp: Mrp, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pieces of the multi-step backup operator.

    Returns (r_lam, P_lam) with  T V = r_lam + gamma P_lam V,  where

        r_lam = (I - lam gamma P)^{-1} rbar
        P_lam = (1 - lam) P (I - lam gamma P)^{-1}.

    Both follow from resumming the defining double series: summing the
    geometric tail over trajectory length m at fixed horizon t turns the
    reward part into a resolvent applied to rbar, and the bootstrap part
    into the stated polynomial in P (which commutes with its resolvent).
    """
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"lambda must lie in [0,1), got {lam}")
    d = mrp.d
    A = np.eye(d) - lam * mrp.gamma * mrp.P
    try:
        r_lam = np.linalg.solve(A, mrp.rbar)
        P_lam = (1.0 - lam) * np.linalg.solve(A, mrp.P)
    except np.linalg.LinAlgError as exc:  # impossible for lam gamma < 1
        raise SolveFailure("backup resolvent is singular") from exc
    return r_lam, P_lam


def td_operator(mrp: Mrp, lam: float, V: np.ndarray) -> np.ndarray:
    """Apply the multi-step backup operator to a value vector in closed form."""
    r_lam, P_lam = td_resolvent(mrp, lam)
    return r_lam + mrp.gamma * P_lam @ np.asarray(V, dtype=float)


@dataclass(frozen=True)
class Backup:
    """The backup T V = r_lam + gamma P_lam V of one chain under weights mu,
    solved once for every reader: ``gP`` is gamma P_lam, ``vstar`` the exact
    value (T's fixed point at every lam) and ``drive`` Gamma (gamma P_lam - I),
    Gamma = diag(mu), so that drive (V - vstar) = Gamma (T V - V)."""

    gamma: float
    lam: float
    mu: np.ndarray
    vstar: np.ndarray
    r_lam: np.ndarray
    gP: np.ndarray
    drive: np.ndarray

    @classmethod
    def of(cls, mrp: Mrp, mu, lam: float = 0.0) -> "Backup":
        mu = state_weights(mu, mrp.d)
        r_lam, P_lam = td_resolvent(mrp, lam)
        gP = mrp.gamma * P_lam
        return cls(gamma=mrp.gamma, lam=lam, mu=mu, vstar=exact_value(mrp), r_lam=r_lam,
                   gP=gP, drive=mu[:, None] * (gP - np.eye(mrp.d)))

    def residual(self, V: np.ndarray) -> np.ndarray:
        """The backup residual T V - V, the expected TD error at V."""
        return self.r_lam + self.gP @ V - V


def mu_projection(J: np.ndarray, mu, W: np.ndarray) -> np.ndarray:
    """Weighted orthogonal projection of W onto the column space of J.

    Minimizes the mu-weighted distance; implemented as an ordinary least
    squares problem after scaling rows by sqrt(mu), with the package's rank
    rule (``models.RANK_CUTOFF``) deciding which singular values count as
    zero, so rank-deficient J is fine. J's rows, W and mu run over the same
    states (DimensionMismatch otherwise), and mu passes ``state_weights``.
    """
    J = np.asarray(J, dtype=float)
    W = per_state(W, J.shape[0])
    root = np.sqrt(state_weights(mu, J.shape[0]))
    A = J * root[:, None]
    y = W * root
    coef, *_ = np.linalg.lstsq(A, y, rcond=RANK_CUTOFF)
    return J @ coef


def cyclic_chain(d: int, orientation: str = "backward") -> np.ndarray:
    """Lazy cyclic random walk: stay with probability 1/2, else shift by one.

    ``orientation`` picks the shift direction. The two matrices are each
    other's transposes; "backward" is the orientation under which the
    3-state divergence experiment reproduces its reference reward vector
    (checked in the tests).
    """
    if d < 2:
        raise DomainError("cyclic chain needs at least 2 states")
    S = np.zeros((d, d))
    for i in range(d):
        S[i, (i + 1) % d] = 1.0
    P = (S + np.eye(d)) / 2.0
    if orientation == "forward":
        return P
    if orientation == "backward":
        return P.T.copy()
    raise DomainError(f"unknown orientation {orientation!r}")


def random_chain(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random row-stochastic matrix with strictly positive entries."""
    P = rng.uniform(0.1, 1.0, size=(d, d))
    return P / P.sum(axis=1, keepdims=True)
