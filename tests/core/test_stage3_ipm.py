"""The Stage-3 primal-dual core: arrow solve, KKT certificate, SLSQP oracle."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import stage3_ipm
from repro.core.config import paper_config
from repro.core.quhe import QuHE
from repro.core.stage2 import BranchAndBoundSolver
from repro.core.stage3 import Stage3Solver
from repro.core.stage3_ipm import (
    factor_arrow,
    solve_arrow,
    solve_stage3_batch,
    stack_stage3_constants,
)
from repro.errors import SolverError
from repro.serve.protocol import ConfigSpec

#: Fig.-6 sweep knobs as (ConfigSpec field, low, high), the panel ranges of
#: ``repro.experiments.fig6_sweeps.PAPER_SWEEPS``.
KNOBS = (
    ("total_bandwidth_hz", 0.5e7, 1.5e7),
    ("max_power_w", 0.2, 1.0),
    ("client_max_frequency_hz", 0.3e10, 1.5e10),
    ("total_frequency_hz", 2.0e10, 3.0e10),
)


# -- the arrow-structured Newton solve -----------------------------------------


def random_arrow(rng, k, n):
    """Random SPD blocks, delay-row gradients and inverse row weights."""
    a = rng.normal(size=(k, n, 4, 4))
    blocks = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(4)
    jac = rng.normal(size=(k, n, 4))
    delay_inv = 10.0 ** rng.uniform(-8, 3, size=(k, n))
    budget_inv = 10.0 ** rng.uniform(-8, 3, size=(k, 2))
    return blocks, jac, delay_inv, budget_inv


def dense_arrow(blocks, jac, delay_inv, budget_inv):
    """The ``(K, 4n+1, 4n+1)`` matrix ``factor_arrow`` represents, in the
    variable-major ``(p, b~, f_c~, f_s~, T~)`` layout."""
    k, n = jac.shape[:2]
    dim = 4 * n + 1
    out = np.zeros((k, dim, dim))
    ones_b = np.zeros(dim)
    ones_b[n:2 * n] = 1.0
    ones_f = np.zeros(dim)
    ones_f[3 * n:4 * n] = 1.0
    for j in range(k):
        for i in range(n):
            idx = [i, n + i, 2 * n + i, 3 * n + i]
            out[j][np.ix_(idx, idx)] += blocks[j, i]
            row = np.zeros(dim)
            row[idx] = jac[j, i]
            row[4 * n] = 1.0
            out[j] += np.outer(row, row) / delay_inv[j, i]
        out[j] += np.outer(ones_b, ones_b) / budget_inv[j, 0]
        out[j] += np.outer(ones_f, ones_f) / budget_inv[j, 1]
    return out


def to_dense(dv, dt):
    k = dv.shape[0]
    return np.concatenate([np.swapaxes(dv, 1, 2).reshape(k, -1), dt[:, None]], 1)


class TestArrowSolve:
    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("n", [1, 4, 6, 32])
    def test_matches_dense_solve(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        parts = random_arrow(rng, k, n)
        dense = dense_arrow(*parts)
        factor = factor_arrow(*parts)
        # Two right-hand sides against one factorisation, as the predictor
        # and corrector use it.
        for _ in range(2):
            rhs_v = rng.normal(size=(k, n, 4))
            rhs_t = rng.normal(size=k)
            rhs = to_dense(rhs_v, rhs_t)
            expected = np.linalg.solve(dense, rhs[..., None])[..., 0]
            got = to_dense(*solve_arrow(factor, rhs_v, rhs_t))
            # Backward stable like the dense LU, and as accurate as the
            # conditioning of the system allows.
            residual = np.einsum("kij,kj->ki", dense, got) - rhs
            scale = np.abs(dense).max(axis=(1, 2)) * np.abs(got).max(axis=1)
            assert np.all(np.abs(residual).max(axis=1) <= 1e-13 * scale)
            error = np.abs(got - expected).max(axis=1) / np.abs(expected).max(axis=1)
            assert np.all(error <= 1e-14 * np.linalg.cond(dense))

    def test_singular_block_takes_ridge_fallback_alone(self, monkeypatch):
        """A rank-deficient block is ridged; its batch companions are not."""
        rng = np.random.default_rng(7)
        blocks, jac, delay_inv, budget_inv = random_arrow(rng, 3, 4)
        u = rng.normal(size=4)
        blocks[1, 2] = np.outer(u, u)  # rank one: Cholesky fails
        rhs_v = rng.normal(size=(3, 4, 4))
        rhs_t = rng.normal(size=3)
        calls = []
        ridge = stage3_ipm._ridge_cholesky

        def spy(scaled):
            calls.append(scaled.shape)
            return ridge(scaled)

        monkeypatch.setattr(stage3_ipm, "_ridge_cholesky", spy)
        dv, dt = solve_arrow(factor_arrow(blocks, jac, delay_inv, budget_inv), rhs_v, rhs_t)
        assert calls, "the ridge fallback was not reached"
        assert np.all(np.isfinite(dv)) and np.all(np.isfinite(dt))
        for j in (0, 2):
            alone = solve_arrow(
                factor_arrow(
                    blocks[j:j + 1], jac[j:j + 1], delay_inv[j:j + 1],
                    budget_inv[j:j + 1],
                ),
                rhs_v[j:j + 1], rhs_t[j:j + 1],
            )
            np.testing.assert_array_equal(dv[j], alone[0][0])
            np.testing.assert_array_equal(dt[j], alone[1][0])

    def test_ill_conditioned_block_ridged_solution_still_solves(self):
        """A block singular in one direction that a budget term restores."""
        rng = np.random.default_rng(11)
        blocks, jac, delay_inv, budget_inv = random_arrow(rng, 1, 4)
        blocks[0, 0] = np.diag([1.0, 1.0, 1.0, 0.0])  # f_s curvature only via budget
        budget_inv[0, 1] = 1.0
        rhs_v = rng.normal(size=(1, 4, 4))
        rhs_t = rng.normal(size=1)
        dense = dense_arrow(blocks, jac, delay_inv, budget_inv)
        expected = np.linalg.solve(dense, to_dense(rhs_v, rhs_t)[..., None])[..., 0]
        got = to_dense(*solve_arrow(factor_arrow(blocks, jac, delay_inv, budget_inv), rhs_v, rhs_t))
        # The 1e-12 ridge on the singular direction costs accuracy there.
        assert np.allclose(got, expected, rtol=1e-3, atol=1e-3 * np.abs(expected).max())

    def test_indefinite_block_raises_after_escalation(self):
        rng = np.random.default_rng(3)
        blocks, jac, delay_inv, budget_inv = random_arrow(rng, 2, 2)
        blocks[1, 0] = 0.0
        blocks[1, 0, 0, 1] = blocks[1, 0, 1, 0] = 1e6  # eigenvalues ±1e6
        with pytest.raises(SolverError, match="ridge escalation"):
            factor_arrow(blocks, jac, delay_inv, budget_inv)


# -- certificate and batched ≡ scalar ------------------------------------------


@lru_cache(maxsize=None)
def waxman16(seed):
    from repro.sim.routing import RouteController
    from repro.sim.topology import config_for_topology, make_topology

    topo = make_topology("waxman", num_nodes=16, num_clients=4, seed=seed)
    routes = RouteController(topo, k=3, policy="proactive").initial_routes()
    return config_for_topology(topo, routes, seed=seed)


def stage3_inputs(configs):
    """Stage-3 start points: the AA allocation of each config."""
    allocs = [QuHE(cfg).initial_allocation() for cfg in configs]
    return (
        stack_stage3_constants(configs),
        np.stack([c.server_cycle_demand(a.lam) for c, a in zip(configs, allocs)]),
        *(np.stack([getattr(a, f) for a in allocs]) for f in ("p", "b", "f_c", "f_s")),
    )


def assert_certified(result):
    residuals = np.stack(
        [result.kkt_primal, result.kkt_complementarity, result.kkt_stationarity]
    )
    assert np.all(np.isfinite(residuals)) and np.all(residuals >= 0.0)
    ok = result.converged
    assert np.all(residuals[:, ok] <= result.gap_tol[ok])


class TestCertificate:
    @pytest.mark.parametrize("k", [1, 7, 64])
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=2**16),
        waxman=st.booleans(),
    )
    def test_residuals_bounded_and_iterations_match_scalar(self, k, seed, waxman):
        if waxman:
            configs = [waxman16(seed + i) for i in range(min(k, 7))]
            configs = (configs * (k // len(configs) + 1))[:k]
        else:
            configs = [paper_config(seed=seed + i) for i in range(k)]
        inputs = stage3_inputs(configs)
        batched = solve_stage3_batch(*inputs)
        assert_certified(batched)
        for j in sorted({0, k // 2, k - 1}):
            scalar = solve_stage3_batch(
                inputs[0].subset(np.array([j])),
                *(arr[j:j + 1] for arr in inputs[1:]),
            )
            assert_certified(scalar)
            assert scalar.newton_iterations[0] == batched.newton_iterations[j]
            assert scalar.outer_iterations[0] == batched.outer_iterations[j]
            assert abs(scalar.value[0] - batched.value[j]) <= 1e-9

    def test_cold_solve_newton_count_on_record(self, monkeypatch):
        """The summed Stage-3 Newton iterations of a cold paper solve are
        deterministic, so a regression shows without timing noise."""
        counts = []
        core = stage3_ipm.solve_stage3_batch

        def counting(*args, **kwargs):
            result = core(*args, **kwargs)
            counts.append(int(result.newton_iterations.sum()))
            return result

        monkeypatch.setattr(stage3_ipm, "solve_stage3_batch", counting)
        result = QuHE(paper_config(seed=2)).solve()
        assert result.converged
        assert len(counts) >= 1
        assert sum(counts) <= 150


# -- the SLSQP reference oracle -------------------------------------------------


knob = st.sampled_from(KNOBS).flatmap(
    lambda spec: st.tuples(
        st.just(spec[0]), st.floats(min_value=spec[1], max_value=spec[2])
    )
)


def oracle_config(kind, seed, knob_value):
    if kind == "waxman":
        return waxman16(seed)
    name, value = knob_value
    return ConfigSpec(seed=seed, **{name: value}).build()


class TestSlsqpOracle:
    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(["paper", "waxman"]),
        seed=st.integers(min_value=1, max_value=2**16),
        knob_value=knob,
    )
    def test_p5_value_at_least_slsqp(self, kind, seed, knob_value):
        cfg = oracle_config(kind, seed, knob_value)
        alloc = QuHE(cfg).initial_allocation()
        alloc = alloc.with_updates(lam=BranchAndBoundSolver(cfg).solve(alloc).lam)
        ipm = Stage3Solver(cfg).solve(alloc)
        slsqp = Stage3Solver(cfg, inner="slsqp").solve(alloc)
        assert ipm.value >= slsqp.value - cfg.tolerance * max(1.0, abs(slsqp.value))

    @settings(max_examples=4, deadline=None)
    @given(
        kind=st.sampled_from(["paper", "waxman"]),
        seed=st.integers(min_value=1, max_value=2**16),
        knob_value=knob,
    )
    # Seed 0 has a deep fade (one gain ~1e-16): T is set by that client and
    # the other clients' variables sit in nearly flat directions.
    @example(kind="paper", seed=0, knob_value=("total_bandwidth_hz", 1e7))
    def test_alg4_picks_the_same_lambda(self, kind, seed, knob_value):
        cfg = oracle_config(kind, seed, knob_value)
        ipm = QuHE(cfg).solve()
        slsqp = QuHE(cfg, stage3_solver=Stage3Solver(cfg, inner="slsqp")).solve()
        assert ipm.converged
        np.testing.assert_array_equal(ipm.allocation.lam, slsqp.allocation.lam)
        assert ipm.objective >= slsqp.objective - 10 * cfg.tolerance * max(
            1.0, abs(slsqp.objective)
        )
