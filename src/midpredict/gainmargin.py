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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .synthesis import gain_star
from .tradeoff import _injection_matrix, _kronecker_lyapunov, closed_loop_matrix

__all__ = [
    "LmiVariables",
    "MarginBracket",
    "assemble_W",
    "lmi_feasible",
    "verify_certificate",
    "max_gain_margin",
    "minimize",
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
    solver: dict | None = None  # the barrier solve's counts, _Budget.summary()


def assemble_W(n, gain, h, gamma_m, variables):
    """The 4x4-block descriptor matrix; symmetric by construction.

    The variables may be equal stacks of n x n matrices, (..., n, n), which
    give the stack of matrices W, (..., 4n, 4n).
    """
    if h <= 0:
        raise ValueError("delay must be positive")
    p, r, s = variables.P, variables.R, variables.S
    p2, p3, p4 = variables.P2, variables.P3, variables.P4
    for mat in (p, r, s, p2, p3, p4):
        if mat.shape[-2:] != (n, n):
            raise ValueError("all variables must be n x n")
    a = np.eye(n, k=1)
    a1 = -_injection_matrix(gain)
    eye = np.eye(n)

    def tr(mat):
        return np.swapaxes(mat, -1, -2)

    w11 = a.T @ p2 + tr(p2) @ a + s - r + gamma_m ** 2 * eye
    w12 = p - tr(p2) + a.T @ p3
    w13 = tr(p2) @ a1 + r
    w14 = tr(p2) + a.T @ p4
    w22 = -p3 - tr(p3) + h ** 2 * r
    w23 = tr(p3) @ a1
    w24 = tr(p3) - p4
    w33 = -s - r
    w34 = a1.T @ p4
    w44 = tr(p4) + p4 - eye
    rows = (
        (w11, w12, w13, w14),
        (tr(w12), w22, w23, w24),
        (tr(w13), tr(w23), w33, w34),
        (tr(w14), tr(w24), tr(w34), w44),
    )
    return np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2)


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
        """The variables of theta; a stack of vectors, (..., dim), gives
        stacks of matrices, (..., n, n)."""
        n, k = self.n, len(self.tri[0])
        batch = theta.shape[:-1]
        lower = theta[..., : 3 * k].reshape(batch + (3, k))
        sym = np.zeros(batch + (3, n, n))
        sym[..., self.tri[0], self.tri[1]] = lower
        sym[..., self.tri[1], self.tri[0]] = lower
        full = theta[..., 3 * k :].reshape(batch + (3, n, n)).copy()
        return LmiVariables(*np.moveaxis(sym, -3, 0), *np.moveaxis(full, -3, 0))

    def pack(self, variables):
        sym = [m[self.tri] for m in (variables.P, variables.R, variables.S)]
        full = [np.ravel(m) for m in (variables.P2, variables.P3, variables.P4)]
        return np.concatenate(sym + full)


@functools.lru_cache(maxsize=1)
def _affine_stack(n, gain, h, gamma_m, eps):
    """M0 and J with M(theta) = M0 + (J @ theta).reshape(7n, 7n), where
    M(theta) = blkdiag(W + eps I, eps I - P, eps I - R, eps I - S) over the
    packed variables theta of _Packing(n).

    M is affine in the packed variables, so it is read off one stacked
    assemble_W call at zero and at each basis vector: column k of J is
    vec(M(e_k) - M0). max_gain_margin's phase II asks for the stack its
    phase I query built, so the last one is kept; both arrays are read-only.
    """
    packing = _Packing(n)
    v = packing.unpack(np.vstack([np.zeros(packing.dim), np.eye(packing.dim)]))
    m = np.zeros((packing.dim + 1, 7 * n, 7 * n))
    m[:, : 4 * n, : 4 * n] = assemble_W(n, gain, h, gamma_m, v) + eps * np.eye(4 * n)
    eye = np.eye(n)
    for k, mat in enumerate((v.P, v.R, v.S), start=4):
        m[:, k * n : (k + 1) * n, k * n : (k + 1) * n] = eps * eye - mat
    m0 = m[0].copy()
    # C order: _with_column's basis inherits J's layout, which sets the
    # summation order of the solver's products and so their last bits
    jac = np.ascontiguousarray((m[1:] - m0).reshape(packing.dim, -1).T)
    m0.flags.writeable = jac.flags.writeable = False
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
    """Newton steps left to one solve, which every centering draws on, and
    the solve's counts for its manifest: Cholesky factorizations, Newton
    steps and centerings per central path (phase I, then phase II), and
    phase I's s and gap where it ended: s above the gap shows that no s
    below 0 exists over the ball."""

    def __init__(self):
        self.left = MAX_NEWTON_STEPS
        self.choleskys = 0
        self.paths = []  # [Newton steps, centerings] of each central path
        self.phase_one_end = None  # (s, gap)

    def summary(self):
        """The counts as the manifest's "solver" entry."""
        out = {"choleskys": self.choleskys, "newton_steps_left": self.left}
        for k, (steps, centerings) in enumerate(self.paths, start=1):
            out["phase_%d" % k] = {"newton_steps": steps, "centerings": centerings}
        if self.phase_one_end is not None:
            out["phase_1"]["final_s"], out["phase_1"]["final_gap"] = self.phase_one_end
        return out


# nfev counts Newton steps; stalled, a line search that found no decrease;
# factor, the Cholesky factor of -M(x)
_Centered = namedtuple("_Centered", "x nfev stalled factor")

# M(x) = m0 + sum_k x_k basis[k] of one barrier solve, with flat the basis
# as rows and eye the identity on the packed variables, made once per path
_Lmi = namedtuple("_Lmi", "m0 basis flat eye")


def _with_column(m0, jac, extra):
    """The _Lmi of the packed variables of _affine_stack, then one more
    variable whose matrix is extra."""
    flat = np.concatenate([jac.T, extra.reshape(1, -1)])
    return _Lmi(m0, flat.reshape(-1, *m0.shape), flat, np.eye(len(flat) - 1))


def _affine(x, m0, flat):
    """m0 + sum_k x_k F[k], flat = F.reshape(len(F), -1): the very np.dot
    that numpy's one-axis tensor product of x and F calls once it has
    reshaped them, so the same bits without its Python wrapper."""
    return m0 + np.dot(x.reshape(1, -1), flat).reshape(m0.shape)


def _barrier(x, tau, cost, lmi, factor=None):
    """(value, factor): the value of tau c'x - log det(-M(x)) - log(R^2 -
    |theta|^2) and the Cholesky factor of -M(x), or (inf, None) outside the
    domain; theta = x[:-1], R = _RADIUS. A factor given is taken for -M(x)'s,
    as an earlier call at this x returned it: M(x) does not depend on tau.
    The ball bounds the barrier below: -M grows without bound along some
    directions of the multipliers P2, P3, P4."""
    slack = _RADIUS ** 2 - x[:-1] @ x[:-1]
    if factor is None:
        try:
            factor = np.linalg.cholesky(-_affine(x, lmi.m0, lmi.flat))
        except np.linalg.LinAlgError:
            return math.inf, None
    if not slack > 0:
        return math.inf, None
    value = tau * (cost @ x) - 2.0 * np.log(factor.diagonal()).sum() - math.log(slack)
    return value, factor


def _barrier_derivatives(x, tau, cost, lmi, factor):
    """Gradient and Hessian of _barrier at a point x of its domain, from the
    Cholesky factor of -M(x) that _barrier returned there.

    With Z = (-M)^-1 the log det term contributes J' vec(Z) and
    H_jk = tr(Z F_j Z F_k): one batched product Z F and one GEMM.
    """
    dim = len(x)
    inv = np.linalg.inv(factor)
    z = inv.T @ inv
    grad = tau * cost + lmi.flat @ z.reshape(-1)
    zf = np.matmul(z, lmi.basis)
    hess = zf.reshape(dim, -1) @ zf.transpose(0, 2, 1).reshape(dim, -1).T
    theta = x[:-1]
    ball = 2.0 / (_RADIUS ** 2 - theta @ theta)
    grad[:-1] += ball * theta
    hess[:-1, :-1] += ball * lmi.eye + ball ** 2 * (theta[:, None] * theta)
    return grad, hess


def minimize(x, tau, cost, lmi, budget, until=None, factor=None):
    """Damped Newton centering of _barrier from a point x of its domain,
    factor the Cholesky factor of -M(x) if an earlier centering left one.

    A backtracking line search keeps each iterate inside the domain, and
    the factor of the trial it accepts serves the next Newton step. Ends
    when the squared Newton decrement is at most _CENTERED, after
    budget.left steps, when the line search stalls, or once until(x). Books
    its Cholesky factorizations on budget; the caller books its steps.
    """
    budget.choleskys += factor is None
    f, factor = _barrier(x, tau, cost, lmi, factor)
    for steps in range(budget.left):
        if until is not None and until(x):
            return _Centered(x, steps, False, factor)
        grad, hess = _barrier_derivatives(x, tau, cost, lmi, factor)
        scale = 1.0 / np.sqrt(hess.diagonal())  # Jacobi scaling: variables span decades
        step = -scale * np.linalg.solve(hess * (scale[:, None] * scale), scale * grad)
        decrement = -(grad @ step)
        if decrement <= _CENTERED:
            return _Centered(x, steps + 1, False, factor)
        length = 1.0
        budget.choleskys += 1
        trial, trial_factor = _barrier(x + step, tau, cost, lmi)
        while not trial <= f - 0.25 * length * decrement:
            length *= 0.5
            if length < _MIN_STEP:
                return _Centered(x, steps + 1, True, factor)
            budget.choleskys += 1
            trial, trial_factor = _barrier(x + length * step, tau, cost, lmi)
        x, f, factor = x + length * step, trial, trial_factor
    return _Centered(x, budget.left, False, factor)


def _central_path(x, tau, cost, lmi, budget, until=None):
    """Yield (x, gap) at each centered point while the budget lasts, gap the
    bound m / tau on c'x - min c'x with m = 7n + 1 (log det and the ball).
    Each centering starts from the factor of the point the last one ended
    at, so an iterate is factored once, and books its Newton steps, and the
    path its centerings, on budget."""
    order = lmi.m0.shape[0] + 1
    counts = [0, 0]
    budget.paths.append(counts)
    factor = None
    while budget.left > 0:
        centered = minimize(x, tau, cost, lmi, budget, until, factor)
        budget.left -= centered.nfev
        counts[0] += centered.nfev
        counts[1] += 1
        x, factor = centered.x, centered.factor
        yield x, order / tau
        if centered.stalled:
            return
        tau *= _TAU_GROWTH


def lmi_feasible(n, gain, h, gamma_m, eps=None, budget=None):
    """Phase I: minimise s s.t. M(theta) <= s I from the heuristic start,
    stopping as soon as s < 0. Gives up once the gap shows s stays above 0,
    or when the Newton budget (a fresh one unless the caller shares its
    own) is spent. Returns (True, LmiVariables) only for a certificate that
    passes verify_certificate; otherwise (False, "unknown"). The budget
    keeps the s and the gap where phase I ended.
    """
    if gamma_m < 0:
        raise ValueError("gain-margin slope must be nonnegative")
    if eps is None:
        eps = 1e-6 * (1.0 + gamma_m ** 2)
    packing = _Packing(n)
    m0, jac = _affine_stack(n, gain, h, gamma_m, eps)
    size = m0.shape[0]
    lmi = _with_column(m0, jac, -np.eye(size))
    theta = packing.pack(_initial_variables(n, gain))
    s = np.linalg.eigvalsh(_affine(theta, m0, lmi.flat[:-1]))[-1] + 1.0
    cost = np.append(np.zeros(len(theta)), 1.0)
    budget = budget or _Budget()
    path = _central_path(
        np.append(theta, s), size / max(s, 1.0), cost, lmi, budget,
        until=lambda x: x[-1] < 0,
    )
    for x, gap in path:
        budget.phase_one_end = float(x[-1]), float(gap)
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
        return MarginBracket(n=n, lower=0.0, upper=upper, certificate=None, eps=eps,
                             solver=budget.summary())
    packing = _Packing(n)
    m0, jac = _affine_stack(n, gain, 1.0, 0.0, eps)
    slope_block = np.diag((np.arange(7 * n) < n) * 1.0)  # t I in W's (1,1) block
    cost = np.append(np.zeros(packing.dim), -1.0)
    lower = 0.0
    path = _central_path(
        np.append(packing.pack(best), 0.0), 7 * n / upper ** 2, cost,
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
    return MarginBracket(n=n, lower=lower, upper=upper, certificate=best, eps=eps,
                         solver=budget.summary())
