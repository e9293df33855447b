"""Reference values computed apart from mstl, with numpy only.

* The bundled bump: two non-commuting positive semidefinite Gaussian bumps,
  written out here from its published definition.
* Reflectionless scalar potentials with two bound states: the Hirota form
  q = -2 (log f)'' with f = 1 + e^{eta_1} + e^{eta_2} + a_12 e^{eta_1 + eta_2},
  e^{eta_k} = c_k e^{-2 tau_k x} / (2 tau_k) and a_12 = ((tau_1 - tau_2) /
  (tau_1 + tau_2))^2.  Every term of f is an exponential of a line in x, so
  log f is a log-sum-exp and (log f)'' is the variance of the slopes under
  the softmax weights: no cancellation, no overflow.  Under the KdV flow each
  weight grows as c_k e^{8 tau_k^3 t}.  A rank-one weight c_k v v* gives the
  scalar potential times the projector v v*.
"""

from __future__ import annotations

import numpy as np

_M1 = np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 0.7]])
_M2 = np.array([[0.5, -0.2j], [0.2j, 0.9]])


def bump(xs) -> np.ndarray:
    """0.8 g1(x) M1 + 0.6 g2(x) M2 with Gaussians centred at 0.6 and -0.8."""
    xs = np.asarray(xs, dtype=float)
    g1 = np.exp(-((xs - 0.6) ** 2) / (2 * 0.7**2))
    g2 = np.exp(-((xs + 0.8) ** 2) / (2 * 0.9**2))
    return 0.8 * g1[:, None, None] * _M1 + 0.6 * g2[:, None, None] * _M2


def reflectionless_scalar(xs, taus, weights, t: float = 0.0) -> np.ndarray:
    """Scalar potential with bound states i tau_k and norming constants c_k.

    One state gives -2 tau^2 sech^2(tau (x - x_0)); two give the Hirota
    two-soliton.  ``t`` is the KdV time.
    """
    xs = np.asarray(xs, dtype=float)
    taus = [float(tau) for tau in taus]
    logs = [np.log(c / (2.0 * tau)) + 8.0 * tau**3 * t for tau, c in zip(taus, weights)]
    # terms of f as (log coefficient, slope in x)
    terms = [(0.0, 0.0)] + [(lg, -2.0 * tau) for lg, tau in zip(logs, taus)]
    if len(taus) == 2:
        (t1, t2), (l1, l2) = taus, logs
        a12 = ((t1 - t2) / (t1 + t2)) ** 2
        terms.append((np.log(a12) + l1 + l2, -2.0 * (t1 + t2)))
    elif len(taus) != 1:
        raise ValueError("one or two bound states")
    expo = np.array([lg + s * xs for lg, s in terms])
    slopes = np.array([s for _, s in terms])[:, None]
    p = np.exp(expo - expo.max(axis=0))
    p /= p.sum(axis=0)
    mean = (p * slopes).sum(axis=0)
    var = (p * (slopes - mean) ** 2).sum(axis=0)
    return -2.0 * var


def projector(direction) -> np.ndarray:
    v = np.asarray(direction, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def reflectionless_matrix(xs, taus, weights, direction, t: float = 0.0) -> np.ndarray:
    """Rank-one weights c_k v v*: the scalar potential times v v*."""
    q = reflectionless_scalar(xs, taus, weights, t)
    return q[:, None, None] * projector(direction)
