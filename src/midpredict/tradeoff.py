"""Competing small-gain style sufficient conditions for delayed observers.

Two published tuning recipes for high-gain predictors bound the admissible
delay through Lyapunov matrices of the delay-free loop. Both collapse
quickly as the delay or the scalar gain grows; the operations here evaluate
their inequalities verbatim, for comparison against the cascade sizing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .margins import hurwitz_check
from .synthesis import delay_free_poly

__all__ = [
    "TradeoffVerdict",
    "lyapunov_solve",
    "ahmed_conditions",
    "check_lipschitz",
    "lei_conditions",
    "closed_loop_matrix",
]


@dataclass(frozen=True)
class TradeoffVerdict:
    method: str  # "ahmed" | "lei" | "ours"
    satisfied: bool
    details: dict  # per-inequality residuals, positive means satisfied
    derived: dict  # named intermediate quantities


def _injection_matrix(gain):
    """L C: the gains in the first column, C = e1' reading the first state."""
    lc = np.zeros((gain.n, gain.n))
    lc[:, 0] = gain.l
    return lc


def closed_loop_matrix(gain):
    """A - L C: companion form with characteristic polynomial from the gains."""
    return np.eye(gain.n, k=1) - _injection_matrix(gain)


def _kronecker_lyapunov(m):
    """Symmetrised solution P of P m + m'P = -I, via the vectorized linear system."""
    eye = np.eye(m.shape[0])
    kron = np.kron(eye, m.T) + np.kron(m.T, eye)
    p = np.linalg.solve(kron, -eye.reshape(-1)).reshape(m.shape)
    return (p + p.T) / 2


def lyapunov_solve(gain):
    """Unique symmetric positive definite P with
    P(A-LC) + (A-LC)'P = -I, via the vectorized linear system.

    The residual is checked relative to the right-hand side -I: its
    Frobenius norm may be at most 1e-6 |I| = 1e-6 sqrt(n). That keeps
    P(A-LC) + (A-LC)'P negative definite, and it admits the growth of the
    solve's rounding with P, whose entries grow steeply with n.
    """
    if not hurwitz_check(delay_free_poly(gain)):
        raise ValueError("A - LC must be Hurwitz for this condition")
    m = closed_loop_matrix(gain)
    p = _kronecker_lyapunov(m)
    residual = np.linalg.norm(p @ m + m.T @ p + np.eye(gain.n))
    if residual > 1e-6 * math.sqrt(gain.n):
        raise RuntimeError("Lyapunov residual %.2e exceeds tolerance" % residual)
    return p


def _spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def check_lipschitz(gamma_phi):
    """ValueError unless the Lipschitz constant gamma_phi is finite and nonnegative."""
    if not 0 <= gamma_phi < math.inf:
        raise ValueError("Lipschitz constant must be finite and nonnegative")


def ahmed_conditions(gain, lam, h, gamma_phi):
    """First recipe: two inequalities built on a scaled Lyapunov solution.

    The Lyapunov inequality is met with equality by P = h*lam**2 * P0 where
    P0 solves the unit-right-hand-side equation; that is the most favorable
    standard choice, and the verdict reports the P actually used.
    """
    if not (0 < lam < math.inf and 0 <= h < math.inf):
        raise ValueError("gain must be finite and positive, delay finite and nonnegative")
    check_lipschitz(gamma_phi)
    p0 = lyapunov_solve(gain)
    p = h * lam ** 2 * p0
    norm_p = _spectral_norm(p)
    norm_m = _spectral_norm(closed_loop_matrix(gain))
    lhs1 = h * lam ** 3 / 2.0
    rhs1 = 2.0 * norm_p * gamma_phi + h * lam ** 2 * (norm_m + 2.0 * norm_p * gamma_phi) ** 2
    norm_l = float(np.linalg.norm(gain.l))
    lhs2 = 1.0
    rhs2 = 2.0 * norm_l ** 2 * (norm_p ** 2 + h ** 2 * lam ** 4)
    details = {
        "decay_dominance": lhs1 - rhs1,
        "injection_smallness": lhs2 - rhs2,
    }
    return TradeoffVerdict(
        method="ahmed",
        satisfied=bool(lhs1 > rhs1 and lhs2 > rhs2),
        details=details,
        derived={"P_norm": norm_p, "A_minus_LC": norm_m, "L": norm_l},
    )


def lei_conditions(gain, lam, h):
    """Second recipe: sigma * h * lam <= 1 with sigma built from the
    Lyapunov solution P of the delay-free loop. derived holds the spectral
    norms sigma is built from, P's condition number and sigma."""
    if not (0 < lam < math.inf and 0 <= h < math.inf):
        raise ValueError("gain must be finite and positive, delay finite and nonnegative")
    p = lyapunov_solve(gain)
    lc = _injection_matrix(gain)
    eigs = np.linalg.eigvalsh(p)
    derived = {
        "A_minus_LC": _spectral_norm(closed_loop_matrix(gain)),
        "L": float(np.linalg.norm(gain.l)),
        "LC": _spectral_norm(lc),
        "PLC": _spectral_norm(p @ lc),
        "P_cond_ratio": float(eigs[-1] / eigs[0]),
    }
    sigma = max(
        8.0 * derived["A_minus_LC"] ** 2 * eigs[-1] / eigs[0],
        8.0 * derived["PLC"] ** 2,
        2.0 * math.sqrt(2.0) * derived["LC"],
    )
    derived["sigma"] = sigma
    return TradeoffVerdict(
        method="lei",
        satisfied=bool(sigma * h * lam <= 1.0),
        details={"contraction": 1.0 - sigma * h * lam},
        derived=derived,
    )
