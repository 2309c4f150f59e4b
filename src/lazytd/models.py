"""Differentiable value-function approximators with analytic Jacobians.

Four families are shipped: plain linear models, the 3-state spiral manifold
used in the classical divergence experiment, single-hidden-layer ReLU
networks with paired (sign-flipped) initialization, and the affine tangent
model of any base model at an anchor point.

Each model serves the averaged flow through ``value_and_vjp`` (the value
vector and the pullback g -> J^T g) and the sampled step through
``value_and_row(w, s, t)`` (V(s), V(t) and the row J[s]), and states what
it can of its own regularity: ``jacobian_lipschitz`` and ``value_bound``,
a bound on max_s |V_w(s)| from max|w|, both infinite where there is none.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionMismatch, DomainError, OddWidth

SPIRAL_A = np.array([10.0, -7.0, -3.0])
SPIRAL_B = np.array([2.3094, -9.815, 7.5056])
SPIRAL_GROWTH = 0.01
SPIRAL_FREQUENCY = 0.866
RANK_CUTOFF = 1e-10               # relative to the largest singular value
# (a_k, b_k) per state, and the same for the derivative:
# d/dth [e^{g th}(a cos - b sin)] = e^{g th}[(g a - f b) cos - (g b + f a) sin]
_SPIRAL_AB = list(zip(SPIRAL_A.tolist(), SPIRAL_B.tolist()))
_SPIRAL_DAB = list(zip((SPIRAL_GROWTH * SPIRAL_A - SPIRAL_FREQUENCY * SPIRAL_B).tolist(),
                       (SPIRAL_GROWTH * SPIRAL_B + SPIRAL_FREQUENCY * SPIRAL_A).tolist()))
# |V(theta)_k| <= e^{g |theta|} (|a_k| + |b_k|) + |a_k|: the two maxima over k
_SPIRAL_AB_MAX = float(np.max(np.abs(SPIRAL_A) + np.abs(SPIRAL_B)))
_SPIRAL_A_MAX = float(np.max(np.abs(SPIRAL_A)))


class ValueModel(ABC):
    """Parametric family w -> V_w with value vector and Jacobian over states.

    ``jacobian_lipschitz`` is the global Lipschitz constant of w -> J(w) in
    the operator norm, ``math.inf`` when there is none.
    """

    d: int
    p: int
    jacobian_lipschitz: float = math.inf

    @abstractmethod
    def value(self, w: np.ndarray) -> np.ndarray:
        """Value vector over the d states, shape (d,)."""

    @abstractmethod
    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """Derivative of the value vector in the parameters, shape (d, p)."""

    def value_bound(self, mag: float) -> float:
        """An upper bound on max_s |V_w(s)| over every w with max|w| <= mag,
        ``math.inf`` when the model states none."""
        return math.inf

    def value_and_vjp(self, w: np.ndarray):
        """Value vector and the vector-Jacobian product g -> J(w)^T g.

        This is all the TD drift needs of a model: one value vector per
        evaluation and one pullback of a d-vector into parameter space.
        Models whose Jacobian is costly to materialize override it.
        """
        J = self.jacobian(w)
        return self.value(w), lambda g: J.T @ g

    def value_and_row(self, w: np.ndarray, s: int, t: int):
        """V_w(s), V_w(t) and the Jacobian row J(w)[s]: all a sampled TD
        step on the transition s -> t needs of a model. Here the row is the
        pullback of a one-hot vector; models that can read the two states
        cheaper override it."""
        value, vjp = self.value_and_vjp(w)
        one_hot = np.zeros(len(value))
        one_hot[s] = 1.0
        return value[s], value[t], vjp(one_hot)


class LinearModel(ValueModel):
    jacobian_lipschitz = 0.0

    def __init__(self, features: np.ndarray):
        self.features = np.asarray(features, dtype=float)
        if self.features.ndim != 2:
            raise DimensionMismatch("feature matrix must be d x p")
        self.d, self.p = self.features.shape
        # max_s ||F[s]||_1, raised by the roundings of F[s] . w and of the bound
        self._row_l1 = (float(np.abs(self.features).sum(axis=1).max(initial=0.0))
                        * (1.0 + (self.p + 2) * np.finfo(float).eps))

    def value(self, w):
        return self.features @ np.asarray(w, dtype=float)

    def value_bound(self, mag):
        """max_s ||F[s]||_1 mag, up to a rounding allowance:
        |F[s] . w| <= ||F[s]||_1 max|w|."""
        return self._row_l1 * mag

    def jacobian(self, w):
        return self.features


class SpiralModel(ValueModel):
    """One-parameter spiral manifold in R^3.

    value(theta) = exp(g theta) (a cos(f theta) - b sin(f theta)) - a,
    with a = ``SPIRAL_A``, b = ``SPIRAL_B``, g = ``SPIRAL_GROWTH`` and
    f = ``SPIRAL_FREQUENCY``. The model vanishes at theta = 0 and the
    target value vector -a sits at the spiral's center (theta -> -inf). The
    slow outward growth rate g and winding frequency f are tuned so that,
    on the matching 3-state cyclic chain, the unscaled dynamics follow the
    spiral outward. The Jacobian grows like exp(g theta), so it has no
    Lipschitz constant.
    """

    d = 3
    p = 1

    @staticmethod
    def _trig(w) -> tuple[float, float, float]:
        """exp(g theta), cos(f theta) and sin(f theta): the one transcendental
        evaluation that value, Jacobian and pullback are built from."""
        th = float(np.asarray(w).reshape(()))
        g, f = SPIRAL_GROWTH, SPIRAL_FREQUENCY
        try:
            return math.exp(g * th), math.cos(f * th), math.sin(f * th)
        except (OverflowError, ValueError):
            # past the float range numpy's rules apply: exp overflows to inf
            # and cos, sin of inf are nan, which the divergence checks expect
            return float(np.exp(g * th)), float(np.cos(f * th)), float(np.sin(f * th))

    # the formulas below run on Python floats: each operation rounds exactly
    # as numpy's elementwise one does, at a fraction of the call cost on
    # 3-vectors
    @staticmethod
    def _value(e: float, cs: float, sn: float) -> np.ndarray:
        return np.array([e * (a * cs - b * sn) - a for a, b in _SPIRAL_AB])

    @staticmethod
    def _slope(e: float, cs: float, sn: float) -> list[float]:
        return [e * (da * cs - db * sn) for da, db in _SPIRAL_DAB]

    def value(self, w):
        return self._value(*self._trig(w))

    def jacobian(self, w):
        return np.array(self._slope(*self._trig(w)))[:, None]

    def value_and_vjp(self, w):
        """Value and g -> J^T g off one ``_trig`` call, bit for bit equal to
        ``value`` and to ``jacobian(w).T @ g``."""
        trig = self._trig(w)
        row = np.array([self._slope(*trig)])
        return self._value(*trig), lambda g: row @ g

    def value_bound(self, mag):
        """e^{g mag} max_k(|a_k| + |b_k|) + max_k |a_k|, inf once e^{g mag}
        overflows."""
        try:
            return math.exp(SPIRAL_GROWTH * mag) * _SPIRAL_AB_MAX + _SPIRAL_A_MAX
        except OverflowError:
            return math.inf


class ReluNet(ValueModel):
    """Width-normalized single-hidden-layer ReLU network on fixed input points.

    value(w)(s) = (1/N) sum_i a_i max(0, b_i . s - c_i), with parameters
    packed coordinate-major as w = [a, b_.1, ..., b_.m, c], each block over
    the N units (b_.k the units' weights on input coordinate k), so w is the
    (m + 2, N) rows a, b_.1, ..., b_.m, c raveled. The derivative of the
    hinge at its kink is taken to be 0, which keeps the Jacobian bounded;
    the Jacobian is therefore discontinuous across kink crossings, so it has
    no Lipschitz constant, and the smoothness assumed by the convergence
    theory holds only piecewise.
    """

    def __init__(self, n_units: int, states: np.ndarray):
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if not n_units >= 1:
            raise DomainError(f"a network needs at least one unit, got {n_units}")
        self.states = states
        self.n_units = int(n_units)
        self._n = float(self.n_units)
        self.d, self.m = states.shape
        self.p = self.n_units * (self.m + 2)
        # rows [s_1..s_m, -1]: pre-activations are [s, -1] @ [b^T; c]
        self._states_aug = np.hstack([states, -np.ones((self.d, 1))])  # (d, m + 1)
        self._states_aug_t = np.ascontiguousarray(self._states_aug.T)
        # value_bound's 1 + max_s ||s||_1, raised by the roundings of the value
        # (about N + m + 3) and of the bound, which matter where it is attained
        self._bound_factor = ((1.0 + float(np.abs(states).sum(axis=1).max(initial=0.0)))
                              * (1.0 + (self.n_units + self.m + 4) * np.finfo(float).eps))
        self._pairs = {}  # (s, t) -> rows s and t of the augmented states

    def _checked(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.p,):
            raise DimensionMismatch(f"expected parameter vector of length {self.p}")
        return w

    def unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Output weights (N,), input weights (N, m) and biases (N,) of w."""
        rows = self._rows(w)
        return rows[0], rows[1:-1].T, rows[-1]

    def pack(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The parameter vector of output weights a, input weights b (one row
        of m per unit) and biases c."""
        b = np.reshape(b, (self.n_units, self.m))
        return np.concatenate([np.ravel(a), b.T.ravel(), np.ravel(c)])

    def _rows(self, w: np.ndarray) -> np.ndarray:
        """Parameters as the (m + 2, N) rows a, b_.1, ..., b_.m, c, a view of w."""
        return self._checked(w).reshape(self.m + 2, self.n_units)

    def _forward(self, w):
        """Activations (d, N), output weights over N and the value vector."""
        rows = self._rows(w)
        # np.dot, not @: matmul takes a path several times slower on these
        # small operands
        act = np.dot(self._states_aug, rows[1:])
        np.maximum(act, 0.0, out=act)
        a_n = rows[0] / self._n
        return act, a_n, np.dot(act, a_n)

    def value(self, w):
        return self._forward(w)[2]

    def jacobian(self, w):
        return self.value_and_jacobian(w)[1]

    def value_and_jacobian(self, w):
        """Value and the full (d, p) Jacobian off one activation pass."""
        act, a_n, value = self._forward(w)
        scaled = (act > 0.0) * a_n                     # (d, N)
        N, m, d = self.n_units, self.m, self.d
        J = np.empty((d, self.p))
        J[:, :N] = act / N
        J[:, N:N + N * m] = (self.states[:, :, None] * scaled[:, None, :]).reshape(d, N * m)
        J[:, N + N * m:] = -scaled
        return value, J

    def value_and_vjp(self, w):
        """Value and J^T g off one activation pass, never forming J.

        The pullback contracts g against the activations and the hinge
        indicators directly: g @ act / N for the output weights,
        (g * s) @ ind * a/N for the input weights and (-g) @ ind * a/N for
        the biases, each block written as rows of one output array. A
        single row of the Jacobian is read cheaper by ``value_and_row``.
        """
        act, a_n, value = self._forward(w)
        ind = (act > 0.0).astype(float)
        N, m = self.n_units, self.m

        def vjp(g: np.ndarray) -> np.ndarray:
            out = np.empty((m + 2, N))
            np.divide(np.dot(g, act), N, out[0])
            # rows 1..m: (g * s_k) @ ind, row m + 1: (-g) @ ind
            np.multiply(np.dot(self._states_aug_t * g, ind), a_n, out[1:])
            return out.ravel()

        return value, vjp

    def value_bound(self, mag):
        """mag^2 (1 + max_s ||s||_1), up to a rounding allowance: each unit
        adds at most |a_i| |b_i . s - c_i| / N <= mag^2 (||s||_1 + 1) / N."""
        return mag * mag * self._bound_factor

    def value_and_row(self, w, s, t):
        """V(s), V(t) and J(w)[s] off one activation pass over the two
        states only, (2, m + 1) times (m + 1, N): with u = (a/N) [act[s] > 0]
        the row is act[s]/N for the output weights, s_k u for input
        coordinate k and -u for the biases, bit for bit ``jacobian(w)[s]``.
        The rows s and t of [s, -1] are cached per pair, so the cache holds
        at most the transitions a chain visits; a one-state net reads its one
        row, as ``_forward`` does, since numpy multiplies a one-row matrix by
        another path that may round apart. w is not checked: it must be a
        float array of length p (the sampled engine checks w0)."""
        pair = self._pairs.get((s, t))
        if pair is None:
            pair = self._pairs[s, t] = self._states_aug[[s, t][:self.d]]
        rows = w.reshape(self.m + 2, self.n_units)
        act = np.dot(pair, rows[1:])
        np.maximum(act, 0.0, out=act)
        a_n = rows[0] / self._n
        values = np.dot(act, a_n).tolist()
        v_s, v_t = values[0], values[-1]
        act_s = act[0]
        out = np.empty((self.m + 2, self.n_units))
        np.divide(act_s, self._n, out[0])
        # rows 1..m + 1: [s_1..s_m, -1] times u
        np.multiply(pair[0, :, None], (act_s > 0.0) * a_n, out[1:])
        return v_s, v_t, out.ravel()

    def init_doubled(self, rng: np.random.Generator | int) -> np.ndarray:
        """Paired Gaussian initialization forcing value(w0) = 0.

        The first half of the units draws a ~ N(0,1), each input weight
        ~ N(0, (1/sqrt(m))^2) and bias ~ N(0,1); the second half copies the
        input weights and biases and negates the output weights, so the two
        halves cancel exactly at every input.
        """
        if self.n_units % 2 != 0:
            raise OddWidth(f"doubled initialization needs even width, got {self.n_units}")
        rng = np.random.default_rng(rng)
        half = self.n_units // 2
        a = rng.standard_normal(half)
        b = rng.standard_normal((half, self.m)) / np.sqrt(self.m)
        c = rng.standard_normal(half)
        return self.pack(
            np.concatenate([a, -a]),
            np.vstack([b, b]),
            np.concatenate([c, c]),
        )


class TangentModel(ValueModel):
    """Affine model tangent to ``base`` at the anchor ``w0``.

    value(w) = V_{w0} + J_{w0} (w - w0) exactly, with constant Jacobian.
    """

    jacobian_lipschitz = 0.0

    def __init__(self, base: ValueModel, w0: np.ndarray):
        self.base = base
        self.w0 = np.asarray(w0, dtype=float)
        self.v0 = base.value(self.w0)
        self.j0 = base.jacobian(self.w0)
        self.d, self.p = self.j0.shape

    def value(self, w):
        return self.v0 + self.j0 @ (np.asarray(w, dtype=float) - self.w0)

    def jacobian(self, w):
        return self.j0


def finite_difference_jacobian(model: ValueModel, w: np.ndarray) -> np.ndarray:
    """Central finite differences of model.value with step 1e-6, the reference
    every analytic Jacobian is checked against."""
    w = np.asarray(w, dtype=float)
    cols = []
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = 1e-6
        cols.append((model.value(w + e) - model.value(w - e)) / 2e-6)
    return np.column_stack(cols)


def numerical_rank(sv: np.ndarray) -> int:
    """The package's one rank rule: the number of singular values (given in
    descending order) above ``RANK_CUTOFF`` times the largest one."""
    smax = float(sv[0]) if sv.size else 0.0
    return int(np.sum(sv > RANK_CUTOFF * smax)) if smax > 0 else 0
