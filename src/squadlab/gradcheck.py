"""Central finite-difference gradient checking used by tests and selftest."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

# the central-difference step
H = 1e-5


def numerical_gradient(fn, tensor: Tensor) -> np.ndarray:
    """Central differences of a scalar-valued fn w.r.t. one tensor's data."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        plus = float(fn().data)
        flat[i] = orig - H
        minus = float(fn().data)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * H)
    return grad


def check_gradients(fn, params: dict, rtol: float = 1e-6) -> dict:
    """Compare autograd gradients of scalar fn() against central differences.

    Returns name -> relative error; raises AssertionError past rtol.
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = {name: np.zeros_like(p.data) if p.grad is None  # unreached
                else p.grad.copy() for name, p in params.items()}
    numeric = {name: numerical_gradient(fn, p)
               for name, p in params.items()}
    # normalize by the gradient scale of the whole check so parameters
    # whose true gradient vanishes are not judged on fd noise alone
    scale = max(
        max((float(np.abs(g).max()) for g in numeric.values()), default=0.0),
        max((float(np.abs(g).max()) for g in analytic.values()), default=0.0),
        1e-8,
    )
    errors = {}
    for name in params:
        err = float(np.abs(analytic[name] - numeric[name]).max()) / scale
        errors[name] = err
        if not err < rtol:  # an explicit raise: ``python -O`` keeps it
            raise AssertionError(f"gradient mismatch for {name}: relative "
                                 f"error {err:.3e} >= {rtol:.0e}")
    return errors
