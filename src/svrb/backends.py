"""Posterior backends: the contract "given a stack of parameters, return
their potentials and gradients".

The sampler hands every backend the whole particle stack ``thetas`` of
shape ``(M, d)``: ``evaluate(thetas)`` returns ``(etas[M], grads[M, d])``
and ``potential(thetas, budget=inf)`` returns ``etas[M]``.  A failure at
any row raises; a stack with a non-coercive row raises before any row is
solved.  ``budget`` bounds the sum of the potentials the caller still
cares about: a backend whose potentials are never negative may return
``np.full(M, np.inf)`` as soon as the rows it has evaluated already sum to
``budget`` or more, since the whole sum can only be larger.  Any backend
may ignore it and evaluate every row.  ``n_evaluations`` counts the rows a
backend has evaluated and ``descriptor`` names it.  Backends only compute
and count; the sampler times its phases itself (:func:`svrb.svgd.svgd_run`).

Three production implementations (high-fidelity, fixed reduced basis,
adaptive reduced basis -- the last two share :class:`RBBackend`, the
adaptive driver mutates the model between sweeps) plus an analytic
Gaussian backend for sampler tests.  The reduced and Gaussian backends
evaluate a stack in one pass; the high-fidelity backend needs one sparse
factorization per parameter and loops.
"""

import numpy as np

from . import hifi


class HiFiBackend:
    """Full finite-element evaluations; one factorization per parameter.

    Both methods guard the whole stack once (``problem.check_coercive``),
    then loop over its rows and stop at the first failure.  A
    high-fidelity potential is a noise-weighted sum of squares, so
    :meth:`potential` honours its ``budget``: it stops, and returns
    all-infinite potentials, once the rows so far sum to at least
    ``budget``, and evaluates no row if ``budget <= 0``.
    """

    descriptor = "hifi"

    def __init__(self, problem):
        self.problem = problem
        self.n_evaluations = 0

    def evaluate(self, thetas):
        self.problem.check_coercive(thetas)
        etas, grads = np.empty(len(thetas)), np.empty(np.shape(thetas))
        for i, theta in enumerate(thetas):
            ev = hifi.evaluate(self.problem, theta)
            etas[i], grads[i] = ev.eta, ev.grad_eta
            self.n_evaluations += 1
        return etas, grads

    def potential(self, thetas, budget=np.inf):
        self.problem.check_coercive(thetas)
        etas = np.empty(len(thetas))
        total = 0.0
        for i, theta in enumerate(thetas):
            if not total < budget:  # a NaN total or budget stops too
                return np.full(len(thetas), np.inf)
            etas[i], _ = hifi.potential(self.problem, theta)
            self.n_evaluations += 1
            total += etas[i]
        return etas


class RBBackend:
    """Reduced-basis evaluations of the corrected potential and gradient.

    The same instance serves both the fixed and the adaptive pipeline; the
    adaptive driver enriches ``self.model`` between sweeps.  Each method
    runs the model's online pass on the whole stack, which guards the
    stack itself, and counts its rows.  The stack is evaluated in one
    pass, so :meth:`potential` ignores its ``budget``; a corrected reduced
    potential can be negative, which would void it anyway.
    """

    def __init__(self, problem, model, adaptive=False):
        self.problem = problem
        self.model = model
        self.descriptor = "rb-adaptive" if adaptive else "rb-fixed"
        self.n_evaluations = 0

    def evaluate(self, thetas):
        ev = self.model.evaluate(self.problem, thetas)
        self.n_evaluations += len(thetas)
        return ev.eta_delta, ev.grad_eta_delta

    def potential(self, thetas, budget=np.inf):
        _, eta_delta, _, _ = self.model.potential(self.problem, thetas)
        self.n_evaluations += len(thetas)
        return eta_delta


class GaussianBackend:
    """Analytic Gaussian potential ``0.5 * ||theta - mean||^2`` for tests."""

    descriptor = "gaussian-toy"

    def __init__(self, mean):
        self.mean = np.asarray(mean, dtype=float)
        self.n_evaluations = 0

    def evaluate(self, thetas):
        diff = thetas - self.mean
        self.n_evaluations += len(diff)
        return 0.5 * np.einsum("mi,mi->m", diff, diff), diff

    def potential(self, thetas, budget=np.inf):
        return self.evaluate(thetas)[0]
