"""The reduced model hands out its last online pass again for the same
problem and a bitwise-equal parameter stack, and that reuse changes no result;
the first pass on its held stack after enrichments grows that stack's factors
by the new columns, and a grown pass is bitwise a fresh one."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svrb import adaptive, hifi, reduced
from svrb.adaptive import AdaptiveConfig, build_fixed_rb, greedy_sweep, run_svrb
from svrb.backends import RBBackend
from svrb.reduced import RBSolveFailed, ReducedModel
from svrb.svgd import SVGDConfig, svgd_run
from svrb.verify import build_small_rb, draw_coercive

from test_hifi import _count_calls

_ARRAYS = ("basis_u", "basis_psi", "Au", "Ap", "Aup", "fu", "fp", "Ou", "Op")
_EVALUATION = ("u_r", "psi_r", "u_hat", "psi_hat", "eta_r", "delta", "eta_delta",
               "grad_eta_r", "grad_eta_delta")


def fresh(rm, cls=ReducedModel):
    """A model with the bases and blocks of ``rm`` and no pass held."""
    return cls(**{name: getattr(rm, name) for name in _ARRAYS}, provenance=list(rm.provenance))


def count_passes(rm):
    """Count the online passes ``rm`` builds: each one computes ``dwr`` once."""
    calls = []
    dwr = rm.dwr

    def counting(*args, **kwargs):
        calls.append(1)
        return dwr(*args, **kwargs)

    rm.dwr = counting
    return calls


def assert_same_evaluation(a, b):
    for name in _EVALUATION:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def count_factorizations(monkeypatch):
    """Count the fresh factorizations of operator stacks, one per system
    (state or adjoint) factored, over every model."""
    calls = []
    factor = reduced._Factors._factor

    def counting(self, *args):
        calls.append(self.what)
        return factor(self, *args)

    monkeypatch.setattr(reduced._Factors, "_factor", counting)
    return calls


def orders(rm):
    return [factors.order for factors in rm._factors]


@pytest.fixture(scope="module", params=["uniform4", "gaussian9"])
def case(request, uniform4_8, gaussian9_9):
    """A problem, a small reduced model on it and a coercive parameter stack."""
    p = uniform4_8 if request.param == "uniform4" else gaussian9_9
    rng = np.random.default_rng(5)
    return p, build_small_rb(p, rng, 4), draw_coercive(p, rng, 6)


class TestHeldPass:
    def test_hit_is_bitwise_a_fresh_pass(self, case):
        p, base, thetas = case
        rm = fresh(base)
        passes = count_passes(rm)
        pot = rm.potential(p, thetas)
        ev = rm.evaluate(p, thetas.copy())  # a new array with the same bytes
        again = rm.potential(p, thetas.copy())
        assert len(passes) == 1
        assert_same_evaluation(ev, fresh(base).evaluate(p, thetas))
        for got, ref in zip((*pot, *again), 2 * fresh(base).potential(p, thetas)):
            assert np.array_equal(got, ref)

    def test_other_stack_misses(self, case):
        p, base, thetas = case
        rm = fresh(base)
        passes = count_passes(rm)
        rm.potential(p, thetas)
        moved = thetas.copy()
        moved[2, 0] = np.nextafter(moved[2, 0], np.inf)
        for stack in (thetas[::-1], thetas[:3], moved, thetas[0]):
            assert_same_evaluation(rm.evaluate(p, stack), fresh(base).evaluate(p, stack))
        assert len(passes) == 5

    def test_enrich_grows_the_held_pass(self, case, monkeypatch):
        p, base, thetas = case
        rm = fresh(base)
        rm.potential(p, thetas)
        theta = draw_coercive(p, np.random.default_rng(9), 1)[0]
        ev = hifi.evaluate(p, theta)
        factorizations = count_factorizations(monkeypatch)
        assert rm.enrich(p, ev.u, ev.psi, theta) == (True, True)
        passes = count_passes(rm)
        after = rm.evaluate(p, thetas)
        assert len(passes) == 1 and after.u_r.shape[1] == base.n_state + 1
        assert not factorizations  # the held factors gained a row and a column
        assert_same_evaluation(after, fresh(rm).evaluate(p, thetas))

    def test_other_problem_object_misses(self, case):
        p, base, thetas = case
        rm = fresh(base)
        q = dataclasses.replace(p, y=p.y + 0.1)
        on_p = rm.potential(p, thetas)
        on_q = rm.potential(q, thetas)
        assert not np.array_equal(on_p[0], on_q[0])
        for got, ref in zip(on_q, fresh(base).potential(q, thetas)):
            assert np.array_equal(got, ref)

    def test_held_arrays_reject_writes(self, case):
        p, base, thetas = case
        rm = fresh(base)
        on = rm._solve_online(p, thetas)
        held = [*on.coeffs] + [getattr(on, name) for name in on._fields if name != "coeffs"]
        eta_r, _, u_r, psi_r = rm.potential(p, thetas)  # the corrected sum is a new array
        held += [eta_r, u_r, psi_r]
        ev = rm.evaluate(p, thetas)
        held += [ev.u_r, ev.psi_r, ev.eta_r, ev.delta]
        for array in held:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


class NoReuse(ReducedModel):
    """Drops the held stack and pass before every online pass, so every call is fresh."""

    def _solve_online(self, problem, thetas):
        self._held_stack = self._held_pass = None
        return super()._solve_online(problem, thetas)


def run_record(log):
    return [{k: v for k, v in vars(r).items() if k not in ("timers", "sweep_timers", "timestamp")}
            for r in log.records]


class TestSamplerUnchanged:
    """The sampler gives bitwise the same particles and records with the
    reuse as with a model that never reuses a pass, and builds fewer passes."""

    SVGD = SVGDConfig(n_particles=8, max_steps=7, tol=1e-12, seed=1, alpha_init=0.05)

    @staticmethod
    def _count_class_passes(monkeypatch):
        calls = []
        dwr = ReducedModel.dwr

        def counting(self, *args, **kwargs):
            calls.append(1)
            return dwr(self, *args, **kwargs)

        monkeypatch.setattr(ReducedModel, "dwr", counting)
        return calls

    def test_run_svrb(self, uniform4_8, monkeypatch):
        acfg = AdaptiveConfig(eps0=0.01, update_every=3)
        passes = self._count_class_passes(monkeypatch)
        ens, rm, log = run_svrb(uniform4_8, self.SVGD, acfg)
        reused = len(passes)
        passes.clear()
        monkeypatch.setattr(adaptive, "ReducedModel", NoReuse)
        ens_ref, rm_ref, log_ref = run_svrb(uniform4_8, self.SVGD, acfg)
        assert isinstance(rm_ref, NoReuse) and reused < len(passes)
        assert np.array_equal(ens.particles, ens_ref.particles)
        assert run_record(log) == run_record(log_ref)
        assert log.meta["evaluations"] == log_ref.meta["evaluations"]
        for name in _ARRAYS:
            assert np.array_equal(getattr(rm, name), getattr(rm_ref, name))

    def test_svgd_run_on_a_fixed_model(self, uniform4_8, monkeypatch):
        rm, _ = build_fixed_rb(uniform4_8, self.SVGD, 1e-3)
        passes = self._count_class_passes(monkeypatch)
        ens, log = svgd_run(RBBackend(uniform4_8, fresh(rm)), uniform4_8.prior, self.SVGD)
        reused = len(passes)
        passes.clear()
        ens_ref, log_ref = svgd_run(RBBackend(uniform4_8, fresh(rm, NoReuse)),
                                    uniform4_8.prior, self.SVGD)
        assert reused < len(passes)
        assert np.array_equal(ens.particles, ens_ref.particles)
        assert run_record(log) == run_record(log_ref)


def test_sampler_guards_each_stack_once(uniform4_8, monkeypatch):
    """The model evaluates the coefficients of a stack and guards it once: a
    call on the stack of the call before costs neither, and that covers the
    line search's reference merit and the evaluation at the accepted trial."""
    p, cfg = uniform4_8, TestSamplerUnchanged.SVGD
    backend = RBBackend(p, fresh(build_fixed_rb(p, cfg, 1e-3)[0]))
    counts = {name: _count_calls(monkeypatch, type(p), name)
              for name in ("eval_coefficients", "check_coercive")}
    calls = []
    for name in ("evaluate", "potential"):
        def logged(thetas, *args, _method=getattr(backend, name), _name=name):
            before = [c["n"] for c in counts.values()]
            try:
                return _method(thetas, *args)
            finally:
                cost = [c["n"] - b for c, b in zip(counts.values(), before)]
                calls.append((_name, thetas.tobytes(), cost))
        monkeypatch.setattr(backend, name, logged)
    _, log = svgd_run(backend, p.prior, cfg)
    previous = [None] + [stack for _, stack, _ in calls[:-1]]
    repeated = [stack == prev for (_, stack, _), prev in zip(calls, previous)]
    for (_, _, cost), again in zip(calls, repeated):
        assert cost == ([0, 0] if again else [1, 1])
    kinds = [(name, again) for (name, _, _), again in zip(calls, repeated)]
    # every reference merit repeats its evaluation's stack, as some
    # evaluations at the accepted trial's particles do
    assert kinds.count(("potential", True)) == len(log.records) > 0
    assert kinds.count(("evaluate", True)) > 0


@pytest.fixture(scope="module")
def interleaved(uniform4_8):
    p = uniform4_8
    rng = np.random.default_rng(17)
    base = build_small_rb(p, rng, 3)
    stack = draw_coercive(p, rng, 5)
    moved = stack.copy()
    moved[1] += 1e-3
    stacks = [stack, stack.copy(), stack[::-1], stack[:2], stack[0], moved]
    return p, base, stacks


class TestInterleaved:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(st.sampled_from(["potential", "evaluate", "enrich"]),
                                  st.integers(0, 5)), min_size=1, max_size=12))
    def test_every_call_matches_a_fresh_model(self, interleaved, seed, ops):
        """Bitwise, also where a pass on the held stack reads factors grown
        by the enrichments."""
        p, base, stacks = interleaved
        rng = np.random.default_rng(seed)
        rm = fresh(base)
        for op, k in ops:
            if op == "enrich":
                rm.enrich(p, rng.normal(size=p.n_dofs), rng.normal(size=p.n_dofs), stacks[0][0])
            elif op == "potential":
                for got, ref in zip(rm.potential(p, stacks[k]),
                                    fresh(rm).potential(p, stacks[k])):
                    assert np.array_equal(got, ref)
            else:
                assert_same_evaluation(rm.evaluate(p, stacks[k]), fresh(rm).evaluate(p, stacks[k]))


class TestGrownFactors:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(1, 9), n=st.integers(2, 40),
           rows=st.integers(1, 8), data=st.data())
    def test_grown_factors_are_fresh_factors(self, seed, n_terms, n, rows, data):
        """Factors fit at a lower order and grown to order n are bitwise the
        factors of a fresh fit at order n, for SPD blocks and positive
        coefficients."""
        start = data.draw(st.integers(1, n - 1), label="start")
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n_terms, n, n))
        B = g @ g.transpose(0, 2, 1) + n * np.eye(n)
        cA = rng.uniform(0.1, 2.0, size=(rows, n_terms))
        grown, ref = reduced._Factors("state"), reduced._Factors("state")
        grown.fit(cA, np.ascontiguousarray(B[:, :start, :start]))
        grown._factor = None  # the factors grow: a refactor would fail here
        grown.fit(cA, B)
        ref.fit(cA, B)
        size = n * (n + 1) // 2
        assert grown.order == ref.order == n
        assert np.array_equal(grown.buf[:rows, :size], ref.buf[:rows, :size])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(st.sampled_from(["enrich", "potential", "evaluate"]),
                                  st.integers(0, 3)), min_size=1, max_size=10))
    def test_grown_pass_matches_a_fresh_pass(self, case, seed, ops):
        """High-fidelity snapshots interleaved with passes on the held stack
        and on other stacks: every field of every pass, grown or not, is
        bitwise a fresh model's."""
        p, base, thetas = case
        moved = thetas.copy()
        moved[2] += 1e-3
        stacks = [thetas, thetas[::-1], thetas[:3], moved]
        rng = np.random.default_rng(seed)
        rm = fresh(base)
        for op, k in ops:
            if op == "enrich":
                theta = draw_coercive(p, rng, 1)[0]
                ev = hifi.evaluate(p, theta)
                held = orders(rm)
                rm.enrich(p, ev.u, ev.psi, theta)
                assert orders(rm) == held  # an enrichment leaves the factors to the next pass
            elif op == "potential":
                for got, ref in zip(rm.potential(p, stacks[k]), fresh(rm).potential(p, stacks[k])):
                    assert np.array_equal(got, ref)
            else:
                assert_same_evaluation(rm.evaluate(p, stacks[k]), fresh(rm).evaluate(p, stacks[k]))
            if op != "enrich":  # a pass brings both systems' factors up to date
                assert orders(rm) == [rm.n_state, rm.n_adjoint]

    def test_one_pass_grows_by_two_enrichments(self, case, monkeypatch):
        p, base, thetas = case
        rm = fresh(base)
        rm.potential(p, thetas)
        rng = np.random.default_rng(11)
        for theta in draw_coercive(p, rng, 2):  # no pass between the two
            ev = hifi.evaluate(p, theta)
            assert rm.enrich(p, ev.u, ev.psi, theta) == (True, True)
        assert orders(rm) == [base.n_state, base.n_adjoint]
        factorizations = count_factorizations(monkeypatch)
        after = rm.evaluate(p, thetas)
        assert orders(rm) == [base.n_state + 2, base.n_adjoint + 2]
        assert not factorizations
        assert_same_evaluation(after, fresh(rm).evaluate(p, thetas))

    def test_sweep_factors_only_its_first_pass(self, uniform4_8, monkeypatch):
        p = uniform4_8
        rng = np.random.default_rng(4)
        rm = fresh(build_small_rb(p, rng, 1))
        particles = draw_coercive(p, rng, 12)
        factorizations = count_factorizations(monkeypatch)
        sweep = greedy_sweep(rm, p, particles, tol=1e-6, max_basis=8)
        assert sweep.n_enriched >= 3 and not sweep.skipped
        assert len(sweep.history) == sweep.n_enriched + 1
        assert factorizations == ["state", "adjoint"]

    def test_pivot_that_is_not_positive_drops_the_factors(self, case, monkeypatch):
        """A grown pivot ``d^2 <= 0`` drops the held factors of its system:
        the pass refactors that system in full and fails as a fresh model's
        pass does."""
        p, base, thetas = case
        rm = fresh(base)
        rm.potential(p, thetas)
        theta = draw_coercive(p, np.random.default_rng(9), 1)[0]
        ev = hifi.evaluate(p, theta)
        products = p.block_products
        # the new state column of every block negated: its diagonal entry is negative
        monkeypatch.setattr(p, "block_products", lambda x: -products(x))
        rm._append(p, rm._orthogonalize(p, ev.u, rm.basis_u), "state")
        monkeypatch.undo()
        factorizations = count_factorizations(monkeypatch)
        with pytest.raises(RBSolveFailed, match="state: .*not positive definite") as grown:
            rm.potential(p, thetas)
        assert factorizations == ["state"] and orders(rm)[0] == 0
        with pytest.raises(RBSolveFailed) as direct:
            fresh(rm).potential(p, thetas)
        assert str(grown.value) == str(direct.value)

    def test_solve_needs_one_row_per_factor(self, case):
        p, base, thetas = case
        rm = fresh(base)
        u_r = rm.potential(p, thetas)[2]
        state = rm._factors[0]
        assert np.array_equal(state.solve(p.eval_coefficients(thetas)[1] @ rm.fu), u_r)
        for rows in (len(thetas) - 1, len(thetas) + 1):  # not silently truncated
            with pytest.raises(ValueError, match="zip"):
                state.solve(np.ones((rows, rm.n_state)))
