"""Gain-margin bracketing for the unit-delay prediction error loop.

The loop tolerates an output-feedback perturbation of slope gamma_m if
M = blkdiag(W + eps I, eps I - P, eps I - R, eps I - S) < 0 admits a
solution, W the descriptor-form matrix written once in assemble_W; the
analytic ceiling is the trailing design gain, because a constant perturbation
of that slope parks a characteristic root at the origin. M is affine in the
packed variables and in t = gamma_m^2, so the largest certifiable margin is
one semidefinite program, solved by a log-barrier method (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 11.6). Every "feasible" answer
ships the variables and is re-verified by a plain symmetric eigenvalue check
before being believed; a negative answer is unknown, never a proof.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

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
    "minimize",
    "design_chain",
]

MAX_MARGIN_DIMENSION = 8
MAX_NEWTON_STEPS = 200  # for phase I and II together; n = 1..8 take 47 to 122
_TAU_GROWTH = 20.0  # barrier weight growth between centerings
_CENTERED = 1e-6  # squared Newton decrement that counts as centered
_MIN_STEP = 2.0 ** -20  # a shorter line-search step is a stall
_RADIUS = 1e2  # ball on the packed variables; certificates have norms near 20


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
    """Flat parameter vector <-> (P, R, S, P2, P3, P4): the lower triangles
    of the symmetric three, row by row, then the other three whole."""

    def __init__(self, n):
        self.n = n
        self.tri = np.tril_indices(n)
        self.dim = 3 * len(self.tri[0]) + 3 * n * n

    def unpack(self, theta):
        n, k = self.n, len(self.tri[0])
        sym = np.zeros((3, n, n))
        sym[:, self.tri[0], self.tri[1]] = theta[: 3 * k].reshape(3, k)
        sym[:, self.tri[1], self.tri[0]] = theta[: 3 * k].reshape(3, k)
        return LmiVariables(*sym, *theta[3 * k :].reshape(3, n, n).copy())

    def pack(self, variables):
        sym = [m[self.tri] for m in (variables.P, variables.R, variables.S)]
        full = [np.ravel(m) for m in (variables.P2, variables.P3, variables.P4)]
        return np.concatenate(sym + full)


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


def _initial_variables(n, gain):
    """Heuristic start: delay-free Lyapunov shape with heavy multipliers.

    Certificates sit with the descriptor multipliers one to two orders of
    magnitude above the Lyapunov blocks, and with the delayed-state weight
    nearly vanishing; phase I starts in that regime. The packed start has
    norm below 50 for every n up to MAX_MARGIN_DIMENSION, inside _RADIUS.
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


class _Budget:
    """Newton steps left to one solve; every centering draws on it."""

    def __init__(self):
        self.left = MAX_NEWTON_STEPS


# nfev counts Newton steps; stalled, a line search that found no decrease
_Centered = namedtuple("_Centered", "x nfev stalled")


def _with_column(m0, jac, extra):
    """Basis F of M(x) = m0 + sum_k x_k F[k]: the packed variables of
    _affine_stack, then one more variable whose matrix is extra."""
    return np.concatenate([jac.T, extra.reshape(1, -1)]).reshape(-1, *m0.shape)


def _barrier(x, tau, cost, m0, basis):
    """tau c'x - log det(-M(x)) - log(R^2 - |theta|^2), inf outside its
    domain; M(x) = m0 + sum_k x_k basis[k], theta = x[:-1], R = _RADIUS. The
    ball bounds the barrier below: -M grows without bound along some
    directions of the multipliers P2, P3, P4."""
    slack = _RADIUS ** 2 - x[:-1] @ x[:-1]
    try:
        factor = np.linalg.cholesky(-(m0 + np.tensordot(x, basis, 1)))
    except np.linalg.LinAlgError:
        return math.inf
    if not slack > 0:
        return math.inf
    return tau * (cost @ x) - 2.0 * np.sum(np.log(np.diag(factor))) - math.log(slack)


def _barrier_derivatives(x, tau, cost, m0, basis):
    """Gradient and Hessian of _barrier inside its domain.

    With Z = (-M)^-1 the log det term contributes J' vec(Z) and
    H_jk = tr(Z F_j Z F_k): one batched product Z F and one GEMM.
    """
    dim = len(x)
    inv = np.linalg.inv(np.linalg.cholesky(-(m0 + np.tensordot(x, basis, 1))))
    z = inv.T @ inv
    grad = tau * cost + basis.reshape(dim, -1) @ z.reshape(-1)
    zf = np.matmul(z, basis)
    hess = zf.reshape(dim, -1) @ zf.transpose(0, 2, 1).reshape(dim, -1).T
    theta = x[:-1]
    ball = 2.0 / (_RADIUS ** 2 - theta @ theta)
    grad[:-1] += ball * theta
    hess[:-1, :-1] += ball * np.eye(dim - 1) + ball ** 2 * np.outer(theta, theta)
    return grad, hess


def minimize(x, tau, cost, m0, basis, max_steps, until=None):
    """Damped Newton centering of _barrier from a point x of its domain.

    A backtracking line search keeps each iterate inside the domain.
    Ends when the squared Newton decrement is at most _CENTERED, after
    max_steps steps, when the line search stalls, or once until(x).
    """
    f = _barrier(x, tau, cost, m0, basis)
    for steps in range(max_steps):
        if until is not None and until(x):
            return _Centered(x, steps, False)
        grad, hess = _barrier_derivatives(x, tau, cost, m0, basis)
        scale = 1.0 / np.sqrt(np.diag(hess))  # Jacobi scaling: variables span decades
        step = -scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
        decrement = -(grad @ step)
        if decrement <= _CENTERED:
            return _Centered(x, steps + 1, False)
        length = 1.0
        trial = _barrier(x + step, tau, cost, m0, basis)
        while not trial <= f - 0.25 * length * decrement:
            length *= 0.5
            if length < _MIN_STEP:
                return _Centered(x, steps + 1, True)
            trial = _barrier(x + length * step, tau, cost, m0, basis)
        x, f = x + length * step, trial
    return _Centered(x, max_steps, False)


def _central_path(x, tau, cost, m0, basis, budget, until=None):
    """Yield (x, gap) at each centered point while the budget lasts, gap the
    bound m / tau on c'x - min c'x with m = 7n + 1 (log det and the ball)."""
    order = m0.shape[0] + 1
    while budget.left > 0:
        centered = minimize(x, tau, cost, m0, basis, budget.left, until)
        budget.left -= centered.nfev
        x = centered.x
        yield x, order / tau
        if centered.stalled:
            return
        tau *= _TAU_GROWTH


def lmi_feasible(n, gain, h, gamma_m, eps=None, budget=None):
    """Phase I: minimise s s.t. M(theta) <= s I from the heuristic start,
    stopping as soon as s < 0. Gives up once the gap shows s stays above 0,
    or when the Newton budget (a fresh one unless the caller shares its
    own) is spent. Returns (True, LmiVariables) only for a certificate that
    passes verify_certificate; otherwise (False, "unknown").
    """
    if gamma_m < 0:
        raise ValueError("gain-margin slope must be nonnegative")
    if eps is None:
        eps = 1e-6 * (1.0 + gamma_m ** 2)
    packing = _Packing(n)
    m0, jac = _affine_stack(packing, n, gain, h, gamma_m, eps)
    size = m0.shape[0]
    basis = _with_column(m0, jac, -np.eye(size))
    theta = packing.pack(_initial_variables(n, gain))
    s = np.linalg.eigvalsh(m0 + np.tensordot(theta, basis[:-1], 1))[-1] + 1.0
    cost = np.append(np.zeros(len(theta)), 1.0)
    path = _central_path(
        np.append(theta, s), size / max(s, 1.0), cost, m0, basis,
        budget or _Budget(), until=lambda x: x[-1] < 0,
    )
    for x, gap in path:
        if x[-1] < 0:
            variables = packing.unpack(x[:-1])
            if verify_certificate(n, gain, h, gamma_m, variables, eps):
                return True, variables
            break
        if x[-1] > gap:  # the least s is at least s - gap > 0
            break
    return False, "unknown"


def max_gain_margin(n, tol=None):
    """Certified gain-margin bracket at unit delay: max t s.t. M(theta, t) < 0.

    Phase I (lmi_feasible) certifies slope 0; phase II follows the central
    path of -tau t - log det(-M) from there, verifying each centered point.
    It stops once the gap, converted to gamma, is at most min(tol, 1e-4
    upper), so lower is within tol of the LMI optimum over the ball; or
    with the best verified point when the line search stalls or the shared
    MAX_NEWTON_STEPS is spent. The strictness eps shrinks with the margin,
    whose attainable interior slack falls roughly with its square. Lower 0
    with no certificate means even slope 0 went uncertified.
    """
    if not 1 <= n <= MAX_MARGIN_DIMENSION:
        raise ValueError("dimension must be in 1..%d" % MAX_MARGIN_DIMENSION)
    gain = gain_star(n)
    upper = gain.l[-1]
    if tol is None:
        tol = 1e-4 * upper
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    tol = min(tol, 1e-4 * upper)
    eps = min(1e-6, max(1e-2 * upper ** 2, 1e-11))
    budget = _Budget()
    ok, best = lmi_feasible(n, gain, 1.0, 0.0, eps=eps, budget=budget)
    if not ok:
        return MarginBracket(n=n, lower=0.0, upper=upper, certificate=None, eps=eps)
    packing = _Packing(n)
    m0, jac = _affine_stack(packing, n, gain, 1.0, 0.0, eps)
    slope_block = np.diag((np.arange(7 * n) < n) * 1.0)  # t I in W's (1,1) block
    cost = np.append(np.zeros(packing.dim), -1.0)
    lower = 0.0
    path = _central_path(
        np.append(packing.pack(best), 0.0), 7 * n / upper ** 2, cost, m0,
        _with_column(m0, jac, slope_block), budget,
    )
    for x, gap in path:
        t = max(x[-1], 0.0)
        gamma = math.sqrt(t)
        if gamma > lower:
            variables = packing.unpack(x[:-1])
            if verify_certificate(n, gain, 1.0, gamma, variables, eps):
                lower, best = gamma, variables
        if math.sqrt(t + gap) - gamma <= tol:  # the optimal t is at most t + gap
            break
    return MarginBracket(n=n, lower=lower, upper=upper, certificate=best, eps=eps)


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
