"""Gain-margin bracketing for the unit-delay prediction error loop.

The loop tolerates an output-feedback perturbation of slope gamma_m if a
descriptor-form matrix inequality W < 0 admits a solution; the analytic
ceiling is the trailing design gain, because a constant perturbation of that
slope parks a characteristic root at the origin. Feasibility of W < 0 at a
given slope is decided by minimizing the largest eigenvalue of a block
diagonal of W and the positivity constraints, a convex nonsmooth problem.
The solver runs a log-sum-exp smoothing continuation under L-BFGS from one
start per query. Every "feasible" answer ships the variables and is
re-verified by a plain symmetric eigenvalue check before being believed;
a negative answer is reported as unknown, never as a proof.

W is written once, in assemble_W. The stacked matrix M(theta) is affine in
the packed variables, so each query builds M0 = M(0) and a matrix J whose
column k is vec(M(e_k) - M0) from assemble_W itself; the solver's oracles
are then one eigh of M0 + J theta and the smoothed gradient
J' vec(V diag(w) V').

scipy is loaded on the first L-BFGS call, not on import, so subcommands
that never query the LMI never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import minimize
from .synthesis import gain_star, sigma_star
from .tradeoff import _injection_matrix, _kronecker_lyapunov, check_lipschitz, closed_loop_matrix

__all__ = [
    "LmiVariables",
    "MarginBracket",
    "ChainDesign",
    "assemble_W",
    "lmi_feasible",
    "verify_certificate",
    "max_gain_margin",
    "upper_bound_gamma",
    "design_chain",
]

MAX_MARGIN_DIMENSION = 8
# Halvings per bisection: the default tol needs about 10, and a bracket
# whose lower end stays 0 would otherwise halve towards the denormals.
MAX_BISECTION_STEPS = 64


@dataclass(frozen=True)
class LmiVariables:
    P: np.ndarray
    R: np.ndarray
    S: np.ndarray
    P2: np.ndarray
    P3: np.ndarray
    P4: np.ndarray


@dataclass(frozen=True)
class MarginBracket:
    n: int
    lower: float
    upper: float
    certificate: LmiVariables | None
    eps: float = 1e-6  # strictness margin the certificate was verified at


@dataclass(frozen=True)
class ChainDesign:
    """Cascade sizing: threshold gain, stage count, per-stage gain."""

    gamma_phi: float
    h: float
    lambda_star: float
    N: int
    lam: float
    sigma_star_per_t: float


def assemble_W(n, gain, h, gamma_m, variables):
    """The 4x4-block descriptor matrix; symmetric by construction."""
    if h <= 0:
        raise ValueError("delay must be positive")
    p, r, s = variables.P, variables.R, variables.S
    p2, p3, p4 = variables.P2, variables.P3, variables.P4
    for mat in (p, r, s, p2, p3, p4):
        if mat.shape != (n, n):
            raise ValueError("all variables must be n x n")
    a = np.eye(n, k=1)
    a1 = -_injection_matrix(gain)
    eye = np.eye(n)
    w11 = a.T @ p2 + p2.T @ a + s - r + gamma_m ** 2 * eye
    w12 = p - p2.T + a.T @ p3
    w13 = p2.T @ a1 + r
    w14 = p2.T + a.T @ p4
    w22 = -p3 - p3.T + h ** 2 * r
    w23 = p3.T @ a1
    w24 = p3.T - p4
    w33 = -s - r
    w34 = a1.T @ p4
    w44 = p4.T + p4 - eye
    return np.block(
        [
            [w11, w12, w13, w14],
            [w12.T, w22, w23, w24],
            [w13.T, w23.T, w33, w34],
            [w14.T, w24.T, w34.T, w44],
        ]
    )


def _default_eps(gamma_m):
    return 1e-6 * (1.0 + gamma_m ** 2)


def verify_certificate(n, gain, h, gamma_m, variables, eps):
    """Independent eigenvalue check of a feasibility certificate."""
    w = assemble_W(n, gain, h, gamma_m, variables)
    if np.max(np.linalg.eigvalsh((w + w.T) / 2)) > -eps / 2:
        return False
    for mat in (variables.P, variables.R, variables.S):
        if np.min(np.linalg.eigvalsh((mat + mat.T) / 2)) < eps / 2:
            return False
    return True


class _Packing:
    """Flat parameter vector <-> (P, R, S, P2, P3, P4)."""

    def __init__(self, n):
        self.n = n
        self.tri = [(i, j) for i in range(n) for j in range(i + 1)]
        self.d_sym = len(self.tri)
        self.d_full = n * n
        self.dim = 3 * self.d_sym + 3 * self.d_full

    def unpack(self, theta):
        n = self.n
        mats = []
        off = 0
        for _ in range(3):
            m = np.zeros((n, n))
            for idx, (i, j) in enumerate(self.tri):
                m[i, j] = theta[off + idx]
                m[j, i] = theta[off + idx]
            mats.append(m)
            off += self.d_sym
        for _ in range(3):
            mats.append(theta[off : off + self.d_full].reshape(n, n).copy())
            off += self.d_full
        return LmiVariables(*mats)

    def pack(self, variables):
        parts = []
        for m in (variables.P, variables.R, variables.S):
            parts.append(np.array([m[i, j] for i, j in self.tri]))
        for m in (variables.P2, variables.P3, variables.P4):
            parts.append(np.asarray(m, dtype=float).reshape(-1))
        return np.concatenate(parts)


def _affine_stack(packing, n, gain, h, gamma_m, eps):
    """M0 and J with M(theta) = M0 + (J @ theta).reshape(7n, 7n), where
    M(theta) = blkdiag(W + eps I, eps I - P, eps I - R, eps I - S).

    M is affine in the packed variables, so it is read off assemble_W at
    zero and at each basis vector: column k of J is vec(M(e_k) - M0).
    """
    eye = np.eye(n)

    def stacked(theta):
        v = packing.unpack(theta)
        m = np.zeros((7 * n, 7 * n))
        m[: 4 * n, : 4 * n] = assemble_W(n, gain, h, gamma_m, v) + eps * np.eye(4 * n)
        for k, mat in enumerate((v.P, v.R, v.S), start=4):
            m[k * n : (k + 1) * n, k * n : (k + 1) * n] = eps * eye - mat
        return m

    m0 = stacked(np.zeros(packing.dim))
    jac = np.column_stack([(stacked(e) - m0).reshape(-1) for e in np.eye(packing.dim)])
    return m0, jac


def _eigensystem(theta, m0, jac):
    return np.linalg.eigh(m0 + (jac @ theta).reshape(m0.shape))


def _smoothed_value_grad(theta, mu, m0, jac):
    """Log-sum-exp smoothing of the largest eigenvalue with exact gradient
    J' vec(V diag(w) V'), w the softmax weights of the eigenvalues."""
    vals, vecs = _eigensystem(theta, m0, jac)
    vmax = vals[-1]
    weights = np.exp((vals - vmax) / mu)
    total = np.sum(weights)
    f = vmax + mu * math.log(total)
    weights /= total
    return f, jac.T @ ((vecs * weights) @ vecs.T).reshape(-1)


def _initial_variables(n, gain):
    """Heuristic start: delay-free Lyapunov shape with heavy multipliers.

    Certificates sit with the descriptor multipliers one to two orders of
    magnitude above the Lyapunov blocks, and with the delayed-state weight
    nearly vanishing; starting in that regime is what lets the smoothed
    descent reach the thin feasible needle at dimensions above three.
    """
    p0 = _kronecker_lyapunov(closed_loop_matrix(gain))
    p0 = p0 / max(np.max(np.abs(p0)), 1.0)
    eye = np.eye(n)
    return LmiVariables(
        P=2.0 * p0,
        R=0.1 * eye,
        S=0.01 * eye,
        P2=20.0 * p0,
        P3=15.0 * p0,
        P4=15.0 * eye,
    )


_SMOOTHING_LADDER = (
    (1e-1, 300),
    (1e-2, 300),
    (1e-3, 300),
    (1e-4, 300),
    (1e-5, 600),
    (1e-6, 1500),
    (2e-7, 4000),
    (5e-8, 4000),
    (1e-8, 4000),
    (2e-9, 4000),
)


def _solve_feasibility(theta0, m0, jac, eps):
    """Smoothed quasi-Newton continuation from theta0.

    The smoothing stage supplies curvature information that carries the
    iterate down the thin feasibility needle. Stops as soon as the exact
    objective is safely negative, and bails out of the expensive
    deep-smoothing stages when progress clearly died while still far from
    feasibility.
    """
    target = -0.25 * eps

    def exact(theta):
        vals, _ = _eigensystem(theta, m0, jac)
        return vals[-1]

    theta = theta0.copy()
    best_theta, best_f = theta.copy(), exact(theta)
    start_warm = best_f < 1e-3
    slow_stages = 0
    for mu, iters in _SMOOTHING_LADDER:
        if start_warm and mu > 1e-4:
            continue
        if mu < max(eps * 0.01, 1e-12):
            break
        res = minimize(
            lambda th: _smoothed_value_grad(th, mu, m0, jac),
            theta,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": iters, "ftol": 1e-18, "gtol": 1e-14, "maxcor": 30},
        )
        theta = res.x
        f = exact(theta)
        improved = f < 0.5 * best_f
        if f < best_f:
            best_theta, best_f = theta.copy(), f
        if best_f < target:
            return best_theta, best_f
        if not improved and best_f > 100.0 * eps:
            slow_stages += 1
            if slow_stages >= 2:
                break
        else:
            slow_stages = 0
    return best_theta, best_f


def lmi_feasible(n, gain, h, gamma_m, eps=None, warm_start=None):
    """Search for a feasibility certificate of W < 0 at slope gamma_m.

    One smoothing continuation runs, from warm_start (one LmiVariables)
    when given, else from the heuristic start. Returns (True, LmiVariables)
    only when the certificate passes the independent eigenvalue
    verification; otherwise (False, "unknown"). The negative answer is
    never a proof of infeasibility.
    """
    if gamma_m < 0:
        raise ValueError("gain-margin slope must be nonnegative")
    if eps is None:
        eps = _default_eps(gamma_m)
    packing = _Packing(n)
    m0, jac = _affine_stack(packing, n, gain, h, gamma_m, eps)
    start = warm_start if warm_start is not None else _initial_variables(n, gain)
    theta, f = _solve_feasibility(packing.pack(start), m0, jac, eps)
    if f < 0.0:
        variables = packing.unpack(theta)
        if verify_certificate(n, gain, h, gamma_m, variables, eps):
            return True, variables
    return False, "unknown"


def upper_bound_gamma(n):
    """Analytic ceiling: the trailing design gain.

    A constant output perturbation of this slope shifts the characteristic
    equation to D(s) - l_n = 0, which is solved by s = 0, so no larger
    slope can leave the loop asymptotically stable.
    """
    return gain_star(n).l[-1]


def max_gain_margin(n, tol=None):
    """Bisection bracket for the certified gain margin at unit delay.

    tol is the absolute bisection resolution, finite and positive; by default
    it scales with the analytic upper bound so small-margin dimensions still
    resolve, and the bisection also stops at float resolution or after
    MAX_BISECTION_STEPS halvings, whichever comes first. The
    strictness margin likewise shrinks with the expected slope magnitude:
    certificates for higher dimensions are intrinsically ill-conditioned
    (the attainable interior slack falls roughly with the square of the
    margin itself), and a fixed strictness would reject them wholesale.
    The returned lower bound always carries a verified certificate, except
    in the degenerate case where even slope 0 could not be certified,
    reported as lower 0 with no certificate.
    """
    if not 1 <= n <= MAX_MARGIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_MARGIN_DIMENSION)
    gain = gain_star(n)
    upper = gain.l[-1]
    if tol is None:
        tol = 1e-3 * upper
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    eps = min(1e-6, max(1e-2 * upper ** 2, 1e-11))
    ok, best = lmi_feasible(n, gain, 1.0, 0.0, eps=eps)
    if not ok:
        return MarginBracket(n=n, lower=0.0, upper=upper, certificate=None, eps=eps)
    lo, hi = 0.0, upper
    for _ in range(MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:  # adjacent floats: below resolution
            break
        ok, result = lmi_feasible(n, gain, 1.0, mid, eps=eps, warm_start=best)
        if ok:
            lo, best = mid, result
        else:
            hi = mid
    return MarginBracket(n=n, lower=lo, upper=upper, certificate=best, eps=eps)


def design_chain(n, gamma_phi, h, gamma_m):
    """Size the sub-predictor cascade from the margin and the nonlinearity.

    Threshold gain max(gamma_phi/gamma_m, 1); stage count the integer
    ceiling of threshold times delay (at least one stage); per-stage scalar
    gain N/h, which puts every stage exactly at the unit normalized delay
    the gains were designed for.
    """
    if not 0 < gamma_m < math.inf:
        raise ValueError("gain margin must be finite and positive")
    check_lipschitz(gamma_phi)
    if not 0 < h < math.inf:
        raise ValueError("delay must be finite and positive")
    lambda_star = max(gamma_phi / gamma_m, 1.0)
    stages = max(1, math.ceil(lambda_star * h))
    lam = stages / h
    return ChainDesign(
        gamma_phi=float(gamma_phi),
        h=float(h),
        lambda_star=lambda_star,
        N=stages,
        lam=lam,
        sigma_star_per_t=sigma_star(n) * lam,
    )
