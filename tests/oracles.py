"""Independent reference computations the package code is tested against.

Everything here deliberately avoids the closed forms used by the package:
series truncation, dense eigendecompositions, and hand-assembled sums.
"""

import numpy as np

from lazytd import EnsembleModel, random_chain

CHAIN_KINDS = ("dense", "bipartite", "cycle", "shift")


def eig_stationary(P):
    """Left eigenvector of P for eigenvalue 1 via dense eigendecomposition."""
    vals, vecs = np.linalg.eig(P.T)
    i = np.argmin(np.abs(vals - 1.0))
    mu = np.real(vecs[:, i])
    return mu / mu.sum()


def neumann_value(P, rbar, gamma, terms=201):
    """Truncated series sum_t gamma^t P^t rbar."""
    acc = np.zeros_like(rbar)
    term = rbar.copy()
    for _ in range(terms):
        acc += term
        term = gamma * P @ term
    return acc


def series_td_operator(P, rbar, gamma, lam, V, m_max=300):
    """Truncated double series defining the multi-step backup operator."""
    acc = np.zeros_like(V)
    reward_partial = np.zeros_like(rbar)
    Pt_r = rbar.copy()
    PV = P @ V
    for m in range(m_max + 1):
        reward_partial = reward_partial + Pt_r
        Pt_r = gamma * P @ Pt_r
        boot = (gamma ** (m + 1)) * PV
        acc = acc + (lam ** m) * (reward_partial + boot)
        PV = P @ PV
    return (1.0 - lam) * acc


def series_td_components(P, rbar, gamma, lam, m_max=400):
    """(r_lam, P_lam) assembled from their defining series."""
    d = P.shape[0]
    r_acc = np.zeros(d)
    reward_partial = np.zeros(d)
    Pt_r = rbar.copy()
    P_acc = np.zeros((d, d))
    Pm1 = P.copy()
    for m in range(m_max + 1):
        reward_partial = reward_partial + Pt_r
        Pt_r = gamma * P @ Pt_r
        r_acc = r_acc + (lam ** m) * reward_partial
        P_acc = P_acc + ((lam * gamma) ** m) * Pm1
        Pm1 = P @ Pm1
    return (1.0 - lam) * r_acc, (1.0 - lam) * P_acc


def linear_td_fixed_point(features, mu_vec, P, rbar, gamma, lam):
    """Parameters solving the weighted stationarity condition of a linear model,
    with the backup pieces built by series truncation."""
    r_lam, P_lam = series_td_components(P, rbar, gamma, lam)
    G = features.T @ (mu_vec[:, None] * ((gamma * P_lam - np.eye(P.shape[0])) @ features))
    b = features.T @ (mu_vec * r_lam)
    return np.linalg.solve(G, -b)


def irreducible_chain(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """An irreducible chain on d states with transition weights in [0.1, 1]
    before normalization. "dense": every transition. "bipartite": two
    nonempty classes, each moving only into the other (period 2). "cycle":
    a random cyclic order of the states plus some random shortcuts, periodic
    with period d when none are drawn. "shift": the deterministic cyclic
    shift i -> i + 1, periodic with period d."""
    W = np.zeros((d, d))
    if kind == "dense":
        return random_chain(d, rng)
    if kind == "shift":
        return np.roll(np.eye(d), 1, axis=1)
    if kind == "bipartite":
        side = rng.permutation(d) < int(rng.integers(1, d))
        W[np.ix_(side, ~side)] = rng.uniform(0.1, 1.0, (side.sum(), (~side).sum()))
        W[np.ix_(~side, side)] = rng.uniform(0.1, 1.0, ((~side).sum(), side.sum()))
    else:
        order = rng.permutation(d)
        W[order, np.roll(order, -1)] = rng.uniform(0.1, 1.0, d)
        W += (rng.random((d, d)) < 0.2) * rng.uniform(0.1, 1.0, (d, d))
    return W / W.sum(axis=1, keepdims=True)


def column_bumps(states, wbars, width, gradient=False):
    """The bump pass in column layout: F (d, N) with F[s, i] = phi(s; wbar_i)
    and, with ``gradient``, G (N, d, k) with G[i, s] = F[s, i] (s - wbar_i) /
    width^2, the latter a C-order copy of the transposed product."""
    diff = states.T[:, :, None] - wbars.T[:, None, :]    # (k, d, N)
    F = diff[0] ** 2
    for coordinate in diff[1:]:
        F += coordinate**2
    F /= -2.0 * width**2
    np.exp(F, out=F)
    if not gradient:
        return F
    diff *= F
    return F, np.divide(diff.transpose(2, 1, 0), width**2, order="C")


class ColumnEnsembleModel(EnsembleModel):
    """``EnsembleModel`` computed in column layout: ``column_bumps`` per
    call, the value F omega0 / N and the pullback
    [F^T g, omega0 * einsum("ndk,d->nk", G, g)] / N."""

    def value(self, w):
        omega0, wbar = self.unpack(w)
        return column_bumps(self.features.states, wbar, self.features.width) @ omega0 / self.n

    def jacobian(self, w):
        omega0, wbar = self.unpack(w)
        F, G = column_bumps(self.features.states, wbar, self.features.width, gradient=True)
        wbar_cols = (omega0[None, :, None] * np.moveaxis(G, 0, 1)).reshape(self.d, -1)
        return np.hstack([F, wbar_cols]) / self.n

    def value_and_vjp(self, w):
        omega0, wbar = self.unpack(w)
        F, G = column_bumps(self.features.states, wbar, self.features.width, gradient=True)
        n = float(self.n)

        def vjp(g):
            wbar_part = np.einsum("ndk,d->nk", G, g)
            wbar_part *= omega0[:, None]
            return np.concatenate([F.T @ g, wbar_part.ravel()]) / n

        return F @ omega0 / n, vjp
