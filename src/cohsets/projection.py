"""Projections induced by an affiliation and exactness checks for reduction.

An affiliation of input categories induces a transition-matrix projection
whose rescaled form is an orthogonal projection. The reduced model factors
through it exactly, which yields a Pythagoras identity for the squared
Frobenius gap and entrywise singular-value dominance for the projected matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _frob_gap_sq, _Nonzeros
from .dbmr import ReducedModel
from .model import Partition, TransitionModel


@dataclass(frozen=True)
class InducedProjection:
    """Column-stochastic projection matrix with its rescaled symmetric form."""

    matrix: np.ndarray
    rescaled: np.ndarray
    active: tuple[int, ...]
    eigenvectors: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class FactorizationResiduals:
    """Max-norm residuals of the exact-factorization identities."""

    factorization: float
    input_fixed: float
    output_marginal: float

    def max(self) -> float:
        return max(self.factorization, self.input_fixed, self.output_marginal)


def build_projection(input_dist: np.ndarray, affiliation: Partition) -> InducedProjection:
    """Projection averaging over affiliation classes, weighted by ``input_dist``.

    Entry (i, j) is input_dist[i] / (class mass of i) when i and j share a
    latent state and 0 otherwise. The rescaled form conjugates by the square
    root of ``input_dist`` and is symmetric idempotent. Eigenvectors with
    eigenvalue 1 are the input distribution restricted to each active class,
    listed in increasing label order.
    """
    p = np.asarray(input_dist, dtype=np.float64)
    if p.ndim != 1 or p.size != affiliation.size:
        raise ValueError(f"input_dist must be 1-d of length {affiliation.size}")
    if (p <= 0.0).any():
        raise ValueError("input_dist must be strictly positive")
    labels0 = affiliation.labels - 1
    masses = np.bincount(labels0, weights=p, minlength=affiliation.n_clusters)
    same = labels0[:, np.newaxis] == labels0[np.newaxis, :]
    matrix = np.where(same, (p / masses[labels0])[:, np.newaxis], 0.0)
    root_p = np.sqrt(p)
    rescaled = matrix * (root_p[np.newaxis, :] / root_p[:, np.newaxis])
    eigenvectors = tuple(
        np.where(labels0 == k - 1, p, 0.0) for k in affiliation.active
    )
    return InducedProjection(
        matrix=matrix,
        rescaled=rescaled,
        active=affiliation.active,
        eigenvectors=eigenvectors,
    )


def verify_factorization(
    model: TransitionModel, reduced: ReducedModel
) -> FactorizationResiduals:
    """Check that the reduced model is the transition matrix times the projection.

    Holds exactly when the factor came from the maximum-likelihood update for
    its affiliation; residuals are reported in the max norm.

    Column j of the projected matrix P Pi is column k_j of P W, where W is
    the (inputs x latent) matrix with entry p_j / mass_k when input j lies
    in class k; so the residuals need only class averages, never Pi itself.
    """
    p, affiliation = model.input_dist, reduced.affiliation
    if affiliation.size != p.size:
        raise ValueError(f"affiliation covers {affiliation.size} of {p.size} inputs")
    labels0 = affiliation.labels - 1
    masses = np.bincount(labels0, weights=p, minlength=affiliation.n_clusters)
    weights = np.zeros((p.size, affiliation.n_clusters))
    weights[np.arange(p.size), labels0] = p / masses[labels0]
    active = np.unique(labels0)
    factorization = float(
        np.abs(reduced.factor - model.matrix @ weights)[:, active].max()
    )
    input_fixed = float(np.abs(weights @ masses - p).max())
    output_marginal = float(np.abs(reduced.factor @ masses - model.output_dist).max())
    return FactorizationResiduals(
        factorization=factorization,
        input_fixed=input_fixed,
        output_marginal=output_marginal,
    )


def pythagoras_check(model: TransitionModel, reduced: ReducedModel) -> tuple[float, float]:
    """Return (squared gap, squared-norm difference) of the rescaled matrices;
    equal when the reduction factors through the induced projection.

    The gap is the bound chain's, from the nonzeros of P and the factor; the
    rescaled reduction's squared norm is sum_ik F_ik^2 mass_k / q_i, with
    mass_k the input mass of latent state k.
    """
    F, labels = reduced.factor, reduced.affiliation.labels
    if F.shape[0] != model.shape[0] or labels.size != model.shape[1]:
        raise ValueError(f"reduction of {F.shape[0]} x {labels.size} for a {model.shape} model")
    masses = np.bincount(labels - 1, weights=model.input_dist, minlength=reduced.n_latent)
    reduced_norm_sq = float(np.sum(F * F / model.output_dist[:, np.newaxis] * masses))
    gap = _frob_gap_sq(_Nonzeros.of(model, reduced), model, reduced)
    return gap, model.rescaled_norm_sq - reduced_norm_sq


def singular_value_dominance(
    rescaled: np.ndarray, projection_rescaled: np.ndarray
) -> list[tuple[float, float]]:
    """Pair each singular value of the projected matrix with the full one.

    Projecting cannot increase any singular value, so within each pair the
    first entry is at most the second.
    """
    rescaled = np.asarray(rescaled, dtype=np.float64)
    projected = rescaled @ np.asarray(projection_rescaled, dtype=np.float64)
    sigma_projected = np.linalg.svd(projected, compute_uv=False)
    sigma_full = np.linalg.svd(rescaled, compute_uv=False)
    return [(float(a), float(b)) for a, b in zip(sigma_projected, sigma_full)]
