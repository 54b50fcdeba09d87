"""Exactness checks of a reduction against the projection its affiliation induces.

An affiliation of input categories induces a transition-matrix projection Pi
(entry (i, j) is p_i over the input mass of i's class when i and j share a
class) whose rescaled form is an orthogonal projection. The maximum-likelihood
reduction is P Pi, which yields a Pythagoras identity for the squared
Frobenius gap. The checks here measure both without building Pi.
"""

from __future__ import annotations

import numpy as np

from .dbmr import ReducedModel


def verify_factorization(reduced: ReducedModel) -> dict[str, float]:
    """Check that the reduced model is the transition matrix times the projection.

    Holds exactly when the factor came from the maximum-likelihood update for
    its affiliation; returns the report's ``factorization_residuals``
    section, each residual in the max norm.

    Column j of the projected matrix P Pi is column k_j of P W, where W is
    the (inputs x latent) matrix with entry p_j / mass_k when input j lies
    in class k; so the residuals need only class averages, never Pi itself.
    """
    model, nz, masses = reduced.model, reduced.nonzero_view, reduced.masses
    p, labels0 = model.input_dist, nz.labels0
    # The one nonzero W_jk of row j of W.
    weights = p / masses[labels0]
    # Entry (i, j) of P adds P_ij W_jk to (i, k_j) of P W.
    class_averages = np.bincount(
        nz.at_label, nz.values * weights[nz.cols], model.shape[0] * reduced.n_latent
    ).reshape(-1, reduced.n_latent)
    active = np.unique(labels0)
    return {
        "factorization": float(np.abs(reduced.factor - class_averages)[:, active].max()),
        "input_fixed": float(np.abs(weights * masses[labels0] - p).max()),
        "output_marginal": float(np.abs(reduced.factor @ masses - model.output_dist).max()),
    }


def pythagoras_check(reduced: ReducedModel) -> tuple[float, float]:
    """Return (squared gap, squared-norm difference) of the rescaled matrices;
    equal when the reduction factors through the induced projection.

    The gap is the bound chain's, ``reduced.frob_gap_sq``; the rescaled
    reduction's squared norm is sum_ik F_ik^2 mass_k / q_i, with mass_k the
    input mass of latent state k.
    """
    F, model = reduced.factor, reduced.model
    reduced_norm_sq = float(np.sum(F * F / model.output_dist[:, np.newaxis] * reduced.masses))
    return reduced.frob_gap_sq, model.rescaled_norm_sq - reduced_norm_sq
