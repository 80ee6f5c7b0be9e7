"""Tests for the exact discretization engine (Eq. 20-28)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from repro.meanfield.analytic import (
    mm1b_drop_rate,
    mm1b_stationary_distribution,
)
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    ExactPropagator,
    TabulatedPropagator,
    birth_death_generator,
    epoch_update,
    extended_generator,
    per_state_arrival_rates,
    propagate_state,
)


def uniformization_transition_matrix(
    arrival: float,
    service: float,
    num_states: int,
    delta_t: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """Epoch transition matrix via uniformization: the independent oracle.

    ``P(Δt) = Σ_k e^{-ΛΔt} (ΛΔt)^k / k! · U^k`` with
    ``U = I + G/Λ`` and ``Λ ≥ max_i |G_ii|``. Every term is
    non-negative, so nothing cancels. Truncates the Poisson sum once the
    remaining mass falls below ``tol``.
    """
    g = birth_death_generator(arrival, service, num_states)
    lam_unif = float(max(-g.diagonal().min(), 1e-12))
    u = np.eye(num_states) + g / lam_unif
    mean_jumps = lam_unif * delta_t
    weight = np.exp(-mean_jumps)
    term = np.eye(num_states)
    total = weight * term
    accumulated = weight
    k = 0
    # Poisson tail bound: stop when remaining probability mass < tol.
    while 1.0 - accumulated > tol and k < 100_000:
        k += 1
        term = term @ u
        weight = weight * mean_jumps / k
        total += weight * term
        accumulated += weight
    # Renormalize the truncated sum so rows are exactly stochastic.
    total /= total.sum(axis=1, keepdims=True)
    return total


def _expm_rows(rates, service, delta_t, num_states):
    """Rows and drops from ``scipy.linalg.expm`` of every slice's
    extended generator (Eq. 28 as written)."""
    rates = np.asarray(rates, dtype=np.float64)
    exp = expm(
        extended_generator(rates, np.asarray(service)[..., None], num_states)
        * delta_t
    )
    z = np.arange(num_states)
    rows = exp[..., z, z, :]
    return rows[..., :num_states], rows[..., num_states]


class TestGenerators:
    def test_rows_sum_to_zero(self):
        g = birth_death_generator(0.7, 1.3, 6)
        assert np.allclose(g.sum(axis=1), 0.0)

    def test_structure(self):
        g = birth_death_generator(0.7, 1.3, 4)
        assert g[0, 1] == 0.7 and g[1, 0] == 1.3
        assert g[2, 3] == 0.7 and g[3, 2] == 1.3
        # no arrival transition out of the full state (drops don't move it)
        assert g[3, 3] == -1.3
        assert g[0, 0] == -0.7

    def test_extended_generator_drop_column(self):
        ext = extended_generator(0.7, 1.3, 4)
        assert ext.shape == (5, 5)
        assert ext[3, 4] == 0.7  # drop flux only from the full state
        assert np.all(ext[4, :] == 0.0)
        assert np.allclose(ext[:4, :4], birth_death_generator(0.7, 1.3, 4))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            birth_death_generator(-0.1, 1.0, 4)
        with pytest.raises(ValueError):
            birth_death_generator(0.1, 1.0, 1)


class TestPerStateArrivalRates:
    def test_mass_identity_random_rules(self, rng):
        """Σ_z ν(z) λ(ν,z) = λ — Poisson thinning conserves mass."""
        s, d = 6, 2
        for _ in range(10):
            rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
            nu = rng.dirichlet(np.ones(s))
            rates = per_state_arrival_rates(nu, rule, 0.9)
            assert abs(nu @ rates - 0.9) < 1e-12

    def test_mass_identity_d3(self, rng):
        s, d = 4, 3
        rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
        nu = rng.dirichlet(np.ones(s))
        rates = per_state_arrival_rates(nu, rule, 0.6)
        assert abs(nu @ rates - 0.6) < 1e-12

    def test_rnd_rule_gives_uniform_rates(self, rng):
        """Under MF-RND every queue sees exactly λ regardless of ν."""
        s = 6
        rule = DecisionRule.uniform(s, 2)
        nu = rng.dirichlet(np.ones(s))
        rates = per_state_arrival_rates(nu, rule, 0.8)
        assert np.allclose(rates, 0.8)

    def test_jsq_concentrates_on_minimum(self):
        """With mass on states {0, 5}, JSQ sends everything to state 0."""
        s = 6
        rule = DecisionRule.join_shortest(s, 2)
        nu = np.zeros(s)
        nu[0], nu[5] = 0.5, 0.5
        rates = per_state_arrival_rates(nu, rule, 1.0)
        # state-0 queues: chosen unless both samples landed on state 5
        # rate = λ/ν(0) * P(chosen queue in state 0) = (1 - 0.25)/0.5
        assert rates[0] == pytest.approx((1 - 0.25) / 0.5)
        # state-5 queues get the rest
        assert rates[5] == pytest.approx(0.25 / 0.5)
        # λ(z) is defined for *hypothetical* occupancies too: a queue in an
        # intermediate state would beat state-5 samples and lose to state-0
        # ones, so it would see exactly λ·(2·ν(5)·1 + 2·ν(0)·0)/... = 1.0.
        assert np.allclose(rates[1:5], 1.0)
        # the mass identity only weighs occupied states
        assert nu @ rates == pytest.approx(1.0)

    def test_rate_bounded_by_d_lambda(self, rng):
        """Section 3 uses λ_t(ν,z) ≤ d·λ_t."""
        s, d, lam = 5, 2, 0.9
        for _ in range(20):
            rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
            nu = rng.dirichlet(np.ones(s) * rng.uniform(0.2, 3.0))
            rates = per_state_arrival_rates(nu, rule, lam)
            assert rates.max() <= d * lam + 1e-9
            assert rates.min() >= -1e-15

    def test_empty_state_rate_well_defined(self):
        """ν(z) = 0 must not blow up (cancelled form of Eq. 22)."""
        s = 4
        rule = DecisionRule.join_shortest(s, 2)
        nu = np.zeros(s)
        nu[3] = 1.0
        rates = per_state_arrival_rates(nu, rule, 1.0)
        assert np.all(np.isfinite(rates))
        assert rates[3] == pytest.approx(1.0)

    def test_shape_validation(self):
        rule = DecisionRule.uniform(4, 2)
        with pytest.raises(ValueError):
            per_state_arrival_rates(np.ones(5) / 5, rule, 1.0)
        with pytest.raises(ValueError):
            per_state_arrival_rates(np.ones(4) / 4, rule, -1.0)


class TestPropagateState:
    def test_rows_are_distributions(self):
        trans, drops = propagate_state(np.linspace(0, 1.8, 6), 1.0, 2.0, 6)
        assert trans.shape == (6, 6)
        assert np.allclose(trans.sum(axis=1), 1.0)
        assert np.all(trans >= -1e-12)
        assert np.all(drops >= 0)

    def test_matches_uniformization(self):
        for lam, dt in [(0.3, 1.0), (1.5, 5.0), (0.0, 2.0)]:
            trans, _ = propagate_state(np.full(5, lam), 1.0, dt, 5)
            for z in range(5):
                uni = uniformization_transition_matrix(lam, 1.0, 5, dt)
                assert np.allclose(trans[z], uni[z], atol=1e-9)

    def test_drops_match_ode_integration(self):
        """Cross-check drops against direct integration of Eq. (25)."""
        s, lam, alpha, dt = 5, 1.2, 1.0, 3.0
        g = birth_death_generator(lam, alpha, s)

        def rhs(_t, y):
            p, _cum = y[:s], y[s]
            return np.concatenate([p @ g, [lam * p[s - 1]]])

        _, drops = propagate_state(np.full(s, lam), alpha, dt, s)
        for z in range(s):
            y0 = np.zeros(s + 1)
            y0[z] = 1.0
            sol = solve_ivp(rhs, (0, dt), y0, rtol=1e-10, atol=1e-12)
            assert drops[z] == pytest.approx(sol.y[s, -1], rel=1e-6)

    def test_zero_delta_t_rejected(self):
        with pytest.raises(ValueError):
            propagate_state(np.ones(4), 1.0, 0.0, 4)

    def test_short_epoch_is_near_identity(self):
        trans, drops = propagate_state(np.full(6, 0.9), 1.0, 1e-6, 6)
        assert np.allclose(trans, np.eye(6), atol=1e-5)
        assert drops.max() < 1e-5

    def test_long_epoch_reaches_stationarity(self):
        lam, alpha = 0.8, 1.0
        trans, _ = propagate_state(np.full(6, lam), alpha, 500.0, 6)
        pi = mm1b_stationary_distribution(lam, alpha, 5)
        for z in range(6):
            assert np.allclose(trans[z], pi, atol=1e-8)


#: The closed-form gate grid: λ → 0, the paper's range and large λ/α.
_GATE_RATES = (0.0, 1e-12, 1e-8, 1e-5, 1e-3, 0.02, 0.1, 0.5, 1.0, 1.8, 5.0, 30.0, 300.0)


class TestClosedForm:
    """The eigendecomposition rows with their per-slice ``expm`` fallback."""

    @pytest.mark.parametrize("num_states", [2, 6, 11])
    @pytest.mark.parametrize("service", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("dt", [1e-2, 1.0, 5.0, 100.0])
    def test_grid_gate_against_expm(self, num_states, service, dt):
        """Rows within 1e-12 absolute and drops within 1e-12 relative to
        their scale λΔt of ``expm`` of the extended generator. The
        tightest points (λΔt = 3e4 at S = 2, 9.4e-13) are ``expm``'s own
        round-off: 60-digit arithmetic puts the closed form within 2e-16
        there."""
        rates = np.repeat(np.asarray(_GATE_RATES)[:, None], num_states, axis=1)
        trans, drops = propagate_state(rates, service, dt, num_states)
        ref_trans, ref_drops = _expm_rows(rates, service, dt, num_states)
        assert np.abs(trans - ref_trans).max() <= 1e-12
        assert np.all(
            np.abs(drops - ref_drops)
            <= 1e-12 * np.maximum(np.abs(ref_drops), rates * dt)
        )

    def test_gate_grid_exercises_both_branches(self):
        """The grid runs the closed form on most of the paper's range and
        falls back where the closed form would miss the gate: λ ≤ 1e-3 at
        the far end of an S = 6 buffer, and λ ≥ 30 with α = 0.1."""
        from repro.meanfield.discretization import _closed_form_slices

        def closed(lam, alpha, z, s):
            return bool(
                _closed_form_slices(
                    np.array([lam]), np.array([alpha]), np.array([z]), s
                )[0]
            )

        for lam in np.linspace(0.07, 1.8, 36):
            assert all(closed(lam, 1.0, z, 6) for z in range(6))
        assert not closed(1e-3, 1.0, 5, 6)
        assert closed(1e-3, 1.0, 0, 6)  # no growth towards z = 0
        assert not closed(30.0, 0.1, 0, 6)
        assert not closed(0.0, 1.0, 0, 6)
        assert not closed(1.0, 0.0, 3, 6)

    def test_extreme_rate_ratios_stay_finite(self):
        """Closed-form slices at λ/α from a denormal to 1e30 (z = 0 at the
        low end, z = B at the high end) stay finite and stochastic,
        without overflow warnings."""
        import warnings

        for lam in (5e-324, 1e-200, 1e-30, 1e30):
            for s in (2, 6, 21):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    trans, drops = propagate_state(np.full(s, lam), 1.0, 2.0, s)
                assert np.abs(trans.sum(axis=-1) - 1.0).max() <= 1e-9
                assert np.all(drops >= 0.0) and np.all(drops <= 2.0 * lam * (1 + 1e-9))

    def test_matches_uniformization_at_paper_shapes(self):
        """Against the non-negative uniformization series (nothing
        cancels there): S = 6, α = 1, the paper's rate range and Δt."""
        for dt in (0.5, 1.0, 2.0, 5.0, 10.0):
            for lam in np.linspace(0.05, 1.8, 15):
                trans, _ = propagate_state(np.full(6, lam), 1.0, dt, 6)
                oracle = uniformization_transition_matrix(lam, 1.0, 6, dt, tol=1e-15)
                assert np.abs(trans - oracle).max() <= 1e-12

    def test_mixed_stack_equals_per_law_calls(self):
        """A stack mixing closed-form and fallback slices equals its
        per-law calls bit for bit: the branch is chosen per slice."""
        from repro.meanfield.discretization import _closed_form_slices

        rates = np.array(
            [
                [1.2, 0.9, 0.7, 0.5, 0.3, 0.2],  # closed form throughout
                [1.5, 1.1, 0.6, 0.2, 1e-4, 0.0],  # fallback at z = 4, 5
                [0.4, 0.8, 1.0, 1.3, 1.6, 1.8],
            ]
        )
        service = np.array([1.0, 1.0, 0.5])
        closed = _closed_form_slices(
            rates.ravel(), np.repeat(service, 6), np.tile(np.arange(6), 3), 6
        ).reshape(3, 6)
        assert closed[0].all() and closed[2].all() and not closed[1].all()
        trans, drops = propagate_state(rates, service, 5.0, 6)
        for law in range(3):
            own_trans, own_drops = propagate_state(rates[law], service[law], 5.0, 6)
            assert np.array_equal(trans[law], own_trans)
            assert np.array_equal(drops[law], own_drops)


class TestNonFiniteInputs:
    """The kernel names a non-finite input instead of returning NaN."""

    def test_rejects_nan_arrival_rates(self):
        with pytest.raises(ValueError, match="arrival_rates must be finite"):
            propagate_state(np.full(6, np.nan), 1.0, 5.0, 6)

    def test_rejects_nan_service(self):
        with pytest.raises(ValueError, match="service must be finite"):
            propagate_state(np.full(6, 0.5), np.nan, 5.0, 6)

    def test_rejects_nan_delta_t(self):
        with pytest.raises(ValueError, match="delta_t must be finite"):
            propagate_state(np.full(6, 0.5), 1.0, np.nan, 6)

    def test_rejects_infinite_delta_t(self):
        with pytest.raises(ValueError, match="delta_t must be finite"):
            propagate_state(np.full(6, 0.5), 1.0, np.inf, 6)

    def test_rejects_nan_lambda(self):
        rule = DecisionRule.uniform(6, 2)
        with pytest.raises(ValueError, match="lam must be finite"):
            per_state_arrival_rates(np.full(6, 1 / 6), rule, np.nan)


class TestStackedRatesAndPropagators:
    def test_stacked_rates_equal_single_law_calls(self, rng):
        """Stacked laws and rules, a shared rule over many laws and one
        intensity per law: every row equals its single-law call."""
        s, d, e = 6, 2, 5
        rules = [DecisionRule.from_raw(rng.random(s**d * d), s, d) for _ in range(e)]
        probs = np.stack([r.probs for r in rules])
        nus = rng.dirichlet(np.ones(s), size=e)
        lams = rng.uniform(0.3, 0.9, size=e)
        stacked = per_state_arrival_rates(nus, probs, lams)
        shared = per_state_arrival_rates(nus, rules[0], 0.7)
        assert stacked.shape == shared.shape == (e, s)
        for i in range(e):
            assert np.array_equal(
                stacked[i], per_state_arrival_rates(nus[i], rules[i], lams[i])
            )
            assert np.array_equal(
                shared[i], per_state_arrival_rates(nus[i], rules[0], 0.7)
            )

    def test_stacked_rates_validate_pairing(self, rng):
        probs = np.stack([DecisionRule.uniform(4, 2).probs] * 3)
        with pytest.raises(ValueError):
            per_state_arrival_rates(np.full((2, 4), 0.25), probs, 1.0)
        with pytest.raises(ValueError):
            per_state_arrival_rates(np.full(4, 0.25), probs, 1.0)

    @pytest.mark.parametrize("kind", ["exact", "tabulated"])
    def test_propagators_take_stacks(self, rng, kind):
        s = 6
        prop = (
            ExactPropagator(s, 1.0, 2.0)
            if kind == "exact"
            else TabulatedPropagator(s, 1.0, 2.0, max_arrival=1.8)
        )
        nus = rng.dirichlet(np.ones(s), size=4)
        rates = rng.uniform(0.0, 1.8, size=(4, s))
        nu_next, drops = prop.propagate(nus, rates)
        assert nu_next.shape == (4, s) and drops.shape == (4,)
        for i in range(4):
            own_nu, own_drops = prop.propagate(nus[i], rates[i])
            assert np.array_equal(nu_next[i], own_nu)
            assert drops[i] == own_drops


class TestEpochUpdate:
    def test_preserves_simplex(self, rng):
        s, d = 6, 2
        nu = rng.dirichlet(np.ones(s))
        rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
        nu_next, drops = epoch_update(nu, rule, 0.9, 1.0, 2.0)
        assert nu_next.shape == (s,)
        assert np.all(nu_next >= 0)
        assert nu_next.sum() == pytest.approx(1.0)
        assert drops >= 0

    def test_rnd_constant_lambda_converges_to_mm1b(self):
        s, lam, alpha, dt = 6, 0.8, 1.0, 1.0
        rule = DecisionRule.uniform(s, 2)
        nu = np.zeros(s)
        nu[0] = 1.0
        for _ in range(2000):
            nu, drops = epoch_update(nu, rule, lam, alpha, dt)
        pi = mm1b_stationary_distribution(lam, alpha, s - 1)
        assert np.allclose(nu, pi, atol=1e-10)
        assert drops == pytest.approx(mm1b_drop_rate(lam, alpha, s - 1) * dt, rel=1e-8)

    def test_drops_bounded_by_offered_load(self, rng):
        """D_t ≤ d·λ·Δt (can't drop more than the max arriving mass)."""
        s, d, lam, dt = 6, 2, 0.9, 5.0
        for _ in range(10):
            rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
            nu = rng.dirichlet(np.ones(s))
            _, drops = epoch_update(nu, rule, lam, 1.0, dt)
            assert 0.0 <= drops <= d * lam * dt + 1e-9

    def test_jsq_beats_join_longest(self):
        """Sanity ordering: routing to full queues must drop more."""
        s = 6
        jsq = DecisionRule.join_shortest(s, 2)
        jlq = DecisionRule.join_longest(s, 2)
        nu = np.full(s, 1 / s)
        _, d_jsq = epoch_update(nu, jsq, 0.9, 1.0, 1.0)
        _, d_jlq = epoch_update(nu, jlq, 0.9, 1.0, 1.0)
        assert d_jsq < d_jlq


class TestPropagators:
    def test_exact_propagator_matches_epoch_update(self, rng):
        s, d = 6, 2
        nu = rng.dirichlet(np.ones(s))
        rule = DecisionRule.from_raw(rng.random(s**d * d), s, d)
        lam = 0.9
        rates = per_state_arrival_rates(nu, rule, lam)
        prop = ExactPropagator(s, 1.0, 2.0)
        nu_a, drops_a = prop.propagate(nu, rates)
        nu_b, drops_b = epoch_update(nu, rule, lam, 1.0, 2.0)
        assert np.allclose(nu_a, nu_b)
        assert drops_a == pytest.approx(drops_b)

    def test_tabulated_close_to_exact(self, rng):
        s = 6
        tab = TabulatedPropagator(s, 1.0, 2.0, max_arrival=1.8, grid_size=257)
        exact = ExactPropagator(s, 1.0, 2.0)
        for _ in range(20):
            nu = rng.dirichlet(np.ones(s))
            rates = rng.uniform(0, 1.8, size=s)
            nu_t, d_t = tab.propagate(nu, rates)
            nu_e, d_e = exact.propagate(nu, rates)
            assert np.abs(nu_t - nu_e).max() < 1e-3
            assert abs(d_t - d_e) < 1e-3

    def test_tabulated_stays_on_simplex(self, rng):
        tab = TabulatedPropagator(6, 1.0, 5.0, max_arrival=1.8, grid_size=17)
        for _ in range(20):
            nu = rng.dirichlet(np.ones(6))
            rates = rng.uniform(0, 1.8, size=6)
            nu_t, d_t = tab.propagate(nu, rates)
            assert np.all(nu_t >= 0) and nu_t.sum() == pytest.approx(1.0)
            assert d_t >= 0

    def test_tabulated_error_shrinks_with_grid(self):
        coarse = TabulatedPropagator(6, 1.0, 2.0, 1.8, grid_size=9)
        fine = TabulatedPropagator(6, 1.0, 2.0, 1.8, grid_size=129)
        assert fine.max_interpolation_error(25) < coarse.max_interpolation_error(25)

    def test_tabulated_rejects_out_of_range(self):
        tab = TabulatedPropagator(4, 1.0, 1.0, max_arrival=1.0)
        with pytest.raises(ValueError):
            tab.propagate(np.full(4, 0.25), np.array([0.0, 0.5, 0.9, 1.5]))

    def test_exact_grid_points_are_exact(self):
        tab = TabulatedPropagator(4, 1.0, 1.5, max_arrival=1.0, grid_size=11)
        rates = np.array([0.0, 0.1, 0.5, 1.0])  # all on the grid
        exact = ExactPropagator(4, 1.0, 1.5)
        nu = np.full(4, 0.25)
        nu_t, d_t = tab.propagate(nu, rates)
        nu_e, d_e = exact.propagate(nu, rates)
        assert np.allclose(nu_t, nu_e, atol=1e-12)
        assert d_t == pytest.approx(d_e, abs=1e-12)


@given(
    num_states=st.integers(2, 21),
    num_laws=st.integers(1, 3),
    dt=st.floats(1e-2, 1e2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_propagator_row_is_distribution_property(num_states, num_laws, dt, data):
    """The batched kernel over extreme but valid inputs (buffer B = 1 up
    to 20, Δt from 1e-2 to 1e2, ρ up to 1e4, one service rate per law):
    each law equals its own unbatched call bit for bit, rows are
    stochastic up to round-off, and drops are non-negative and at most
    λΔt up to round-off."""
    size = num_laws * num_states
    rates = np.reshape(
        data.draw(st.lists(st.floats(0.0, 1e3), min_size=size, max_size=size)),
        (num_laws, num_states),
    )
    service = np.asarray(
        data.draw(
            st.lists(st.floats(0.1, 1.0), min_size=num_laws, max_size=num_laws)
        )
    )
    trans, drops = propagate_state(rates, service, dt, num_states)
    for law in range(num_laws):
        own_trans, own_drops = propagate_state(
            rates[law], service[law], dt, num_states
        )
        assert np.array_equal(trans[law], own_trans)
        assert np.array_equal(drops[law], own_drops)
    assert np.abs(trans.sum(axis=-1) - 1.0).max() <= 1e-9
    assert trans.min() >= -1e-12
    assert np.all(drops >= 0.0)
    assert np.all(drops <= rates * dt + 1e-9)


def test_drops_non_negative_at_vanishing_rates():
    """expm round-off leaves the drop integral at -1e-323 here (S = 8,
    Δt = 0.01, rate 1.2e-38); the kernel clamps it to zero."""
    _, drops = propagate_state(np.full(8, 1.2e-38), 0.1, 0.01, 8)
    assert np.all(drops >= 0.0)
