"""Posterior backends: the contract "given a stack of parameters, return
their potentials and gradients".

The sampler hands every backend the whole particle stack ``thetas`` of
shape ``(M, d)``: ``evaluate_batch(thetas)`` returns ``(etas[M],
grads[M, d])`` and ``potential_batch(thetas)`` returns ``etas[M]``.  A
failure at any row raises.

Three production implementations (high-fidelity, fixed reduced basis,
adaptive reduced basis -- the last two share :class:`RBBackend`, the
adaptive driver mutates the model between sweeps) plus an analytic
Gaussian backend for sampler tests.  The reduced and Gaussian backends
evaluate a stack in one pass; the high-fidelity backend needs one sparse
factorization per parameter and loops.
"""

import time

import numpy as np

from . import hifi


class HiFiBackend:
    """Full finite-element evaluations; one factorization per parameter.

    :meth:`evaluate` and :meth:`potential` take one parameter; the batch
    methods call them row by row and stop at the first failure.
    """

    descriptor = "hifi"

    def __init__(self, problem):
        self.problem = problem
        self.timers = {"hifi_solve": 0.0}
        self.n_evaluations = 0

    def evaluate(self, theta):
        t0 = time.perf_counter()
        ev = hifi.evaluate(self.problem, theta)
        self.timers["hifi_solve"] += time.perf_counter() - t0
        self.n_evaluations += 1
        return ev.eta, ev.grad_eta

    def potential(self, theta):
        t0 = time.perf_counter()
        eta, _ = hifi.potential(self.problem, theta)
        self.timers["hifi_solve"] += time.perf_counter() - t0
        self.n_evaluations += 1
        return eta

    def evaluate_batch(self, thetas):
        etas, grads = zip(*(self.evaluate(theta) for theta in thetas))
        return np.array(etas), np.array(grads)

    def potential_batch(self, thetas):
        return np.array([self.potential(theta) for theta in thetas])


class _Broadcasting:
    """Backends whose :meth:`evaluate` and :meth:`potential` take a whole stack.

    The batch methods look the single methods up at call time, so a wrapper
    installed on the class sees every batch.
    """

    def evaluate_batch(self, thetas):
        return self.evaluate(np.atleast_2d(thetas))

    def potential_batch(self, thetas):
        return self.potential(np.atleast_2d(thetas))


class RBBackend(_Broadcasting):
    """Reduced-basis evaluations of the corrected potential and gradient.

    The same instance serves both the fixed and the adaptive pipeline; the
    adaptive driver enriches ``self.model`` between sweeps.  ``evaluate``
    and ``potential`` take one parameter or a stack, and both first pass
    the stack through :meth:`~svrb.fem.AffineParametricProblem.check_coercive`;
    the guard and the online pass share one coefficient evaluation.
    """

    def __init__(self, problem, model, adaptive=False):
        self.problem = problem
        self.model = model
        self.descriptor = "rb-adaptive" if adaptive else "rb-fixed"
        self.timers = {"rb_online": 0.0}
        self.n_evaluations = 0

    def _online(self, method, theta):
        """Guard the stack, then run the model's ``method`` on it, timed and counted."""
        thetas = np.atleast_2d(theta)
        coeffs = self.problem.eval_coefficients(thetas)
        self.problem.check_coercive(thetas, coeffs)
        t0 = time.perf_counter()
        out = method(self.problem, theta, coeffs)
        self.timers["rb_online"] += time.perf_counter() - t0
        self.n_evaluations += len(thetas)
        return out

    def evaluate(self, theta):
        ev = self._online(self.model.evaluate, theta)
        return ev.eta_delta, ev.grad_eta_delta

    def potential(self, theta):
        return self._online(self.model.potential, theta)[1]  # the corrected potential


class GaussianBackend(_Broadcasting):
    """Analytic Gaussian potential ``0.5 * ||theta - mean||^2`` for tests."""

    descriptor = "gaussian-toy"

    def __init__(self, mean):
        self.mean = np.asarray(mean, dtype=float)
        self.timers = {}

    def evaluate(self, theta):
        diff = np.asarray(theta, dtype=float) - self.mean
        return 0.5 * np.einsum("...i,...i->...", diff, diff), diff

    def potential(self, theta):
        return self.evaluate(theta)[0]
