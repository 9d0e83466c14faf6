import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from fbreg.frbinom import (
    _pmf_rows,
    _unique_triples,
    BRUTE_FORCE_MAX_N,
    FbParams,
    FbParamsNatural,
    FeasibilityError,
    LINK_EPS,
    OnesSet,
    PmfTable,
    c_max,
    config_prob,
    joint_ones_prob,
    mean,
    pmf,
    pmf_batch,
    pmf_bruteforce,
    pmf_row_exact,
    sample,
    to_constrained,
    variance_asymptotic,
    variance_exact,
)

from conftest import grid_triples

# interior parameter strategies for property tests
p_interior = st.floats(min_value=0.05, max_value=0.95)
h_interior = st.floats(min_value=0.05, max_value=0.95)
cc_interior = st.floats(min_value=0.0, max_value=0.99)
unit_wide = st.floats(min_value=0.01, max_value=0.99)


def natural(p, H, cc):
    return to_constrained(FbParamsNatural(p=p, H=H, c_circ=cc))


class TestFeasibilityBound:
    def test_both_branches_evaluated_independently(self):
        # high-precision reference values for min{1-p, formula branch}
        assert c_max(0.5, 0.5) == pytest.approx(0.30901699437494745, abs=1e-15)
        # (0.2, 0.8): formula branch 0.6171250312974931 < 1-p = 0.8
        assert c_max(0.2, 0.8) == pytest.approx(0.6171250312974931, abs=1e-15)
        # (0.9, 0.9): formula branch 0.08841998590481262 < 1-p = 0.1
        assert c_max(0.9, 0.9) == pytest.approx(0.08841998590481262, abs=1e-15)

    def test_bound_vanishes_as_p_approaches_one(self):
        # both branches collapse to zero at p = 1 (the formula branch is a
        # perfect square there); the bound stays positive but tends to 0
        values = [c_max(1.0 - eps, 0.7) for eps in (1e-3, 1e-6, 1e-9)]
        assert all(0.0 < v <= eps for v, eps in zip(values, (1e-3, 1e-6, 1e-9)))
        assert values[0] > values[1] > values[2]

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(FeasibilityError):
                c_max(bad, 0.5)
            with pytest.raises(FeasibilityError):
                c_max(0.5, bad)

    def test_vectorized_matches_scalar(self):
        ps = np.array([0.1, 0.5, 0.9])
        hs = np.array([0.2, 0.5, 0.8])
        vec = c_max(ps, hs)
        for i in range(3):
            assert vec[i] == c_max(float(ps[i]), float(hs[i]))

    @given(p=p_interior, H=h_interior)
    @settings(max_examples=200, deadline=None)
    def test_strictly_positive_on_open_square(self, p, H):
        assert c_max(p, H) > 0.0


class TestParams:
    def test_boundary_rejected(self):
        bound = c_max(0.4, 0.6)
        with pytest.raises(FeasibilityError):
            FbParams(p=0.4, H=0.6, c=bound)
        FbParams(p=0.4, H=0.6, c=np.nextafter(bound, 0.0))  # strictly inside is fine

    def test_negative_c_rejected(self):
        with pytest.raises(FeasibilityError):
            FbParams(p=0.4, H=0.6, c=-1e-12)

    def test_c_circ_zero_allowed(self):
        params = to_constrained(FbParamsNatural(p=0.5, H=0.5, c_circ=0.0))
        assert params.c == 0.0

    def test_c_circ_one_rejected(self):
        with pytest.raises(FeasibilityError):
            FbParamsNatural(p=0.5, H=0.5, c_circ=1.0)

    def test_to_constrained_reference_value(self):
        params = natural(0.5, 0.5, 0.5)
        assert params.c == pytest.approx(0.15450849718747373, abs=1e-15)
        assert params.c == 0.5 * c_max(0.5, 0.5)

    @given(p=p_interior, H=h_interior, cc=st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_recovers_c_circ(self, p, H, cc):
        params = natural(p, H, cc)
        assert params.c / c_max(p, H) == pytest.approx(cc, abs=1e-12)


class TestOnesSet:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            OnesSet((3, 3))
        with pytest.raises(ValueError):
            OnesSet((5, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OnesSet((0, 1))

    def test_empty_allowed(self):
        assert len(OnesSet(())) == 0


class TestJointOnesProb:
    def test_singleton_is_marginal(self):
        params = natural(0.37, 0.8, 0.5)
        assert joint_ones_prob((5,), params) == params.p

    def test_independence_at_c_zero(self):
        params = FbParams(p=0.5, H=0.7, c=0.0)
        assert joint_ones_prob((1, 2), params) == pytest.approx(0.25, abs=1e-15)

    def test_gap_two_reference_value(self):
        # p * (p + c * 2**(2H-2)) with (p, H, c) = (0.5, 0.75, 0.2)
        params = FbParams(p=0.5, H=0.75, c=0.2)
        assert joint_ones_prob((1, 3), params) == pytest.approx(
            0.3207106781186547, abs=1e-15
        )

    def test_empty_set_probability_one(self):
        assert joint_ones_prob((), natural(0.3, 0.5, 0.5)) == 1.0

    @given(
        gaps=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
        shift=st.integers(min_value=0, max_value=50),
        p=p_interior,
        H=h_interior,
        cc=cc_interior,
    )
    @settings(max_examples=150, deadline=None)
    def test_stationarity_exact(self, gaps, shift, p, H, cc):
        # probability depends on positions only through gaps: equality is exact
        params = natural(p, H, cc)
        base = [1]
        for g in gaps:
            base.append(base[-1] + g)
        shifted = [i + shift for i in base]
        assert joint_ones_prob(base, params) == joint_ones_prob(shifted, params)


class TestConfigProb:
    def test_single_zero_is_complement(self):
        params = natural(0.42, 0.6, 0.3)
        assert config_prob((), (4,), params) == pytest.approx(1.0 - params.p, abs=1e-15)

    def test_reference_value(self):
        # P(xi1=1) - P(xi1=1, xi2=1) = 0.5 - 0.5*(0.5+0.2)
        params = FbParams(p=0.5, H=0.75, c=0.2)
        assert config_prob((1,), (2,), params) == pytest.approx(0.15, abs=1e-15)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            config_prob((1, 2), (2, 3), natural(0.5, 0.5, 0.5))

    def test_law_of_total_probability(self):
        import itertools

        params = natural(0.3, 0.8, 0.75)
        n = 6
        total = 0.0
        for ones_count in range(n + 1):
            for ones in itertools.combinations(range(1, n + 1), ones_count):
                zeros = tuple(i for i in range(1, n + 1) if i not in ones)
                total += config_prob(ones, zeros, params)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPmf:
    def test_n1_is_bernoulli(self):
        params = natural(0.3, 0.8, 0.75)
        table = pmf(1, params)
        np.testing.assert_allclose(table.probs, [1 - params.p, params.p], atol=1e-15)

    def test_c_zero_is_binomial(self):
        for p in (0.1, 0.5, 0.9):
            params = FbParams(p=p, H=0.7, c=0.0)
            table = pmf(12, params)
            ref = binom.pmf(np.arange(13), 12, p)
            np.testing.assert_allclose(table.probs, ref, atol=1e-12)

    def test_top_entry_closed_form(self):
        for p, H, cc in [(0.3, 0.8, 0.5), (0.7, 0.3, 0.99), (0.5, 0.5, 0.25)]:
            params = natural(p, H, cc)
            table = pmf(15, params)
            expected = params.p * (params.p + params.c) ** 14
            assert table.probs[15] == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_spot(self):
        for p, H, cc in [(0.3, 0.8, 0.5), (0.9, 0.1, 0.99), (0.1, 0.9, 0.75)]:
            params = natural(p, H, cc)
            exact = pmf(10, params)
            brute = pmf_bruteforce(10, params)
            np.testing.assert_allclose(exact.probs, brute.probs, atol=1e-10)

    def test_zero_entry_matches_config_prob(self):
        params = natural(0.3, 0.8, 0.5)
        table = pmf(10, params)
        direct = config_prob((), tuple(range(1, 11)), params)
        assert table.probs[0] == pytest.approx(direct, abs=1e-10)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pmf(0, natural(0.5, 0.5, 0.5))

    @given(p=p_interior, H=h_interior, cc=cc_interior, N=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_normalized_and_nonnegative(self, p, H, cc, N):
        table = pmf(N, natural(p, H, cc))
        assert np.all(table.probs >= 0.0)
        assert float(table.probs.sum()) == pytest.approx(1.0, abs=1e-8)

    def test_zero_mass_nondecreasing_in_c(self):
        # dependence inflates the zero count: pmf[0] grows with c_circ
        for p, H in [(0.3, 0.7), (0.5, 0.9), (0.7, 0.6)]:
            zero_masses = [
                pmf(10, natural(p, H, cc)).probs[0] for cc in (0.0, 0.25, 0.5, 0.75, 0.99)
            ]
            diffs = np.diff(zero_masses)
            assert np.all(diffs >= -1e-12)


class TestBruteforce:
    def test_n1(self):
        params = natural(0.25, 0.6, 0.5)
        table = pmf_bruteforce(1, params)
        np.testing.assert_allclose(table.probs, [0.75, 0.25], atol=1e-15)

    def test_n2_independent(self):
        params = FbParams(p=0.3, H=0.5, c=0.0)
        table = pmf_bruteforce(2, params)
        np.testing.assert_allclose(table.probs, [0.49, 0.42, 0.09], atol=1e-14)

    def test_top_entry_is_single_configuration(self):
        params = natural(0.4, 0.8, 0.6)
        table = pmf_bruteforce(8, params)
        assert table.probs[8] == pytest.approx(
            joint_ones_prob(tuple(range(1, 9)), params), abs=1e-12
        )

    def test_size_limit(self):
        with pytest.raises(ValueError):
            pmf_bruteforce(BRUTE_FORCE_MAX_N + 1, natural(0.5, 0.5, 0.5))

    def test_against_literal_inclusion_exclusion(self):
        # third, fully literal route: sum config_prob over every configuration
        import itertools

        params = natural(0.35, 0.75, 0.8)
        n = 6
        table = pmf_bruteforce(n, params)
        for k in range(n + 1):
            acc = 0.0
            for ones in itertools.combinations(range(1, n + 1), k):
                zeros = tuple(i for i in range(1, n + 1) if i not in ones)
                acc += config_prob(ones, zeros, params)
            assert table.probs[k] == pytest.approx(acc, abs=1e-10)


class TestMoments:
    def test_mean(self):
        assert mean(10, natural(0.3, 0.8, 0.5)) == pytest.approx(3.0)

    def test_variance_c_zero_binomial(self):
        params = FbParams(p=0.3, H=0.8, c=0.0)
        assert variance_exact(10, params) == pytest.approx(10 * 0.3 * 0.7, abs=1e-14)

    def test_variance_matches_bruteforce_second_moment(self):
        params = FbParams(p=0.3, H=0.8, c=0.1)
        table = pmf_bruteforce(10, params)
        k = np.arange(11, dtype=float)
        second_central = float(k**2 @ table.probs) - mean(10, params) ** 2
        assert variance_exact(10, params) == pytest.approx(second_central, abs=1e-8)

    def test_variance_matches_pmf_moment_on_grid_sample(self):
        for p, H, cc in [(0.1, 0.9, 0.99), (0.5, 0.5, 0.5), (0.9, 0.3, 0.25)]:
            params = natural(p, H, cc)
            table = pmf(20, params)
            k = np.arange(21, dtype=float)
            second_central = float(k**2 @ table.probs) - (20 * params.p) ** 2
            assert variance_exact(20, params) == pytest.approx(second_central, abs=1e-8)

    def test_asymptotic_low_h_c_zero(self):
        params = FbParams(p=0.3, H=0.3, c=0.0)
        assert variance_asymptotic(50, params) == pytest.approx(50 * 0.3 * 0.7, abs=1e-12)

    def test_asymptotic_h_half_formula(self):
        params = FbParams(p=0.3, H=0.5, c=0.1)
        expected = 2 * 0.3 * 0.1 * 40 * math.log(40)
        assert variance_asymptotic(40, params) == pytest.approx(expected, abs=1e-12)

    def test_asymptotic_ratio_trend_high_h(self):
        # exact/asymptotic ratio approaches 1 from above as N grows (H > 1/2)
        params = FbParams(p=0.3, H=0.8, c=0.1)
        ratios = [
            variance_exact(N, params) / variance_asymptotic(N, params)
            for N in (50, 100, 200)
        ]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[0] < 1.4


class TestSampling:
    def test_count_zero(self):
        out = sample(10, natural(0.5, 0.5, 0.5), 0, seed=1)
        assert out.shape == (0,)

    def test_deterministic(self):
        params = natural(0.3, 0.8, 0.75)
        a = sample(10, params, 500, seed=42)
        b = sample(10, params, 500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_support(self):
        out = sample(7, natural(0.6, 0.7, 0.9), 2000, seed=3)
        assert out.min() >= 0 and out.max() <= 7

    def test_binomial_mean_band(self):
        params = FbParams(p=0.4, H=0.5, c=0.0)
        draws = sample(10, params, 20000, seed=11)
        band = 3 * math.sqrt(10 * 0.4 * 0.6 / 20000)
        assert abs(float(draws.mean()) - 4.0) <= band

    def test_empirical_matches_table(self):
        params = natural(0.3, 0.8, 0.75)
        table = pmf(6, params)
        draws = sample(6, params, 40000, seed=7)
        freq = np.bincount(draws, minlength=7) / 40000
        assert np.abs(freq - table.probs).max() < 0.01


class TestBatchLane:
    def test_matches_exact_row(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.05, 0.95, 50)
        H = rng.uniform(0.05, 0.95, 50)
        cc = rng.uniform(0.0, 0.99, 50)
        rows = pmf_batch(10, p, H, cc)
        for i in range(50):
            ref = pmf_row_exact(10, p[i], H[i], cc[i])
            np.testing.assert_allclose(rows[i], ref, atol=1e-13)

    # the oracle's own error doubles with each level of its superset
    # transform and passes 1e-13 from N = 10 on at p >= 0.9
    @given(p=unit_wide, H=unit_wide, cc=cc_interior, N=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, p, H, cc, N):
        rows = pmf_batch(N, [p], [H], [cc])
        np.testing.assert_allclose(
            rows[0], pmf_bruteforce(N, natural(p, H, cc)).probs, rtol=0, atol=1e-13
        )

    @given(p=unit_wide, H=unit_wide, cc=cc_interior, N=st.integers(1, 100))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_route(self, p, H, cc, N):
        rows = pmf_batch(N, [p], [H], [cc])
        np.testing.assert_allclose(rows[0], pmf(N, natural(p, H, cc)).probs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cc", [0.0, 0.5, 0.99])
    def test_study_row_at_n24(self, cc):
        rows = pmf_batch(24, [0.961], [0.074], [cc])
        np.testing.assert_allclose(
            rows[0], pmf(24, natural(0.961, 0.074, cc)).probs, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("N", [5, 24, 50])
    def test_edges_of_the_unit_cube(self, N):
        ends = (LINK_EPS, 1.0 - LINK_EPS)
        for p in ends:
            for H in ends:
                for cc in (0.0, 1.0 - LINK_EPS):
                    rows = pmf_batch(N, [p], [H], [cc])
                    np.testing.assert_allclose(
                        rows[0], pmf(N, natural(p, H, cc)).probs, rtol=0, atol=1e-13
                    )

    def test_batch_composition_does_not_change_rows(self):
        p = np.array([0.3, 0.6, 0.3])
        H = np.array([0.8, 0.4, 0.8])
        cc = np.array([0.5, 0.2, 0.5])
        full = pmf_batch(10, p, H, cc)
        solo = pmf_batch(10, p[:1], H[:1], cc[:1])
        np.testing.assert_array_equal(full[0], solo[0])
        np.testing.assert_array_equal(full[0], full[2])
        rng = np.random.default_rng(12)
        for N in (10, 50):
            many = rng.uniform(0.05, 0.95, (3, 40))
            rows = pmf_batch(N, *many)
            for i in (0, 17, 39):
                np.testing.assert_array_equal(rows[i], pmf_batch(N, *many[:, i : i + 1])[0])

    def test_large_n_matches_exact_route(self):
        rows = pmf_batch(30, [0.3], [0.8], [0.5])
        assert rows.shape == (1, 31)
        np.testing.assert_allclose(rows[0], pmf(30, natural(0.3, 0.8, 0.5)).probs, atol=1e-13)

    def test_rows_normalized_on_grid(self):
        triples = np.array(list(grid_triples()))
        rows = pmf_batch(20, triples[:, 0], triples[:, 1], triples[:, 2])
        assert np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-8)


class TestTangentLane:
    @pytest.mark.parametrize("N", [1, 2, 6, 17, 40])
    def test_matches_central_differences_of_pmf_batch(self, N):
        rng = np.random.default_rng(N)
        p, H, cc = rng.uniform(0.02, 0.98, (3, 25))
        rows, drows = _pmf_rows(N, p, H, cc, tangents=True)
        np.testing.assert_array_equal(rows, pmf_batch(N, p, H, cc))
        h = 1e-6
        for k in range(3):
            step = np.zeros((3, 1))
            step[k] = h
            up = pmf_batch(N, *(np.array([p, H, cc]) + step))
            down = pmf_batch(N, *(np.array([p, H, cc]) - step))
            np.testing.assert_allclose(drows[k], (up - down) / (2 * h), rtol=0, atol=1e-7)

    def test_root_branch_of_c_max_binds_on_the_open_square(self):
        # the tangent lane differentiates only the root branch of the min
        p, H = np.meshgrid(np.linspace(1e-6, 1 - 1e-6, 201), np.linspace(1e-6, 1 - 1e-6, 201))
        assert np.all(c_max(p, H) < 1.0 - p)

    def test_clipped_inputs_have_zero_tangent(self):
        _, drows = _pmf_rows(5, [1.5, 0.3], [0.4, -0.2], [0.5, 1.2], tangents=True)
        assert np.all(drows[0, 0] == 0.0)
        assert np.all(drows[1, 1] == 0.0)
        assert np.all(drows[2, 1] == 0.0)
        assert np.any(drows[2, 0] != 0.0)


class TestUniqueTriples:
    def test_same_as_row_wise_unique(self):
        rng = np.random.default_rng(4)
        pool = rng.uniform(0.05, 0.95, (3, 8))
        pool[0, 3] = pool[0, 2]  # ties in the leading key, p
        pool[:2, 5] = pool[:2, 4]  # ties in p and H
        pick = rng.integers(0, 8, 540)
        p, H, cc = pool[:, pick]
        cc[:7] = 0.0
        up, uh, uc, inv = _unique_triples(p, H, cc)
        uniq, ref_inv = np.unique(np.column_stack([p, H, cc]), axis=0, return_inverse=True)
        np.testing.assert_array_equal(np.column_stack([up, uh, uc]), uniq)
        np.testing.assert_array_equal(inv, ref_inv.ravel())


class TestPmfTableInvariants:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PmfTable(N=1, probs=np.array([1.2, -0.2]), params=natural(0.5, 0.5, 0.5))

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            PmfTable(N=1, probs=np.array([0.7, 0.7]), params=natural(0.5, 0.5, 0.5))

    def test_rejects_mean_identity_violation(self):
        # normalized but mean 0.9 instead of p = 0.5
        with pytest.raises(ValueError):
            PmfTable(N=1, probs=np.array([0.1, 0.9]), params=natural(0.5, 0.5, 0.5))

    def test_probs_read_only(self):
        table = pmf(5, natural(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            table.probs[0] = 0.5
