"""Statistical kernels against independent oracles.

The Mann-Whitney oracle counts a-beats-b pairs directly and enumerates label
assignments of the pooled values, no ranks involved.  The Student-t oracle
integrates the t density with adaptive Simpson quadrature.  Both are slower
and structurally unrelated to the shipped implementations.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from sleeplog.stats import (
    EXACT_PRODUCT_LIMIT,
    CorrelationResult,
    DegenerateSampleError,
    MwuMethod,
    TestResult as UStatResult,
    _approx_p,
    _exact_p,
    _ranks_and_ties,
    exact_u_distribution,
    hour_histogram,
    log2_bin,
    mann_whitney_u,
    normal_sf,
    pearson,
    quartile_split,
    regularized_incomplete_beta,
    t_sf,
)


# --- Oracles ----------------------------------------------------------------------

def brute_u(a, b) -> float:
    """U by direct pair counting: 1 per a>b pair, 0.5 per tie."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def brute_exact_p(a, b) -> float:
    """Exact two-sided p by enumerating which pooled values belong to a."""
    pooled = list(a) + list(b)
    n1 = len(a)
    u_obs = brute_u(a, b)
    le = ge = total = 0
    indices = range(len(pooled))
    for chosen in combinations(indices, n1):
        chosen_set = set(chosen)
        sample_a = [pooled[i] for i in chosen]
        sample_b = [pooled[i] for i in indices if i not in chosen_set]
        u = brute_u(sample_a, sample_b)
        total += 1
        if u <= u_obs + 1e-12:
            le += 1
        if u >= u_obs - 1e-12:
            ge += 1
    return 2.0 * min(le / total, ge / total, 0.5)


def t_density(x: float, df: int) -> float:
    ln = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(x * x / df)
    )
    return math.exp(ln)


def _simpson(f, lo, hi, flo, fmid, fhi, eps, depth):
    mid = (lo + hi) / 2.0
    lmid, rmid = (lo + mid) / 2.0, (mid + hi) / 2.0
    flmid, frmid = f(lmid), f(rmid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flmid + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frmid + fhi)
    if depth <= 0 or abs(left + right - whole) < 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    return _simpson(f, lo, mid, flo, flmid, fmid, eps / 2.0, depth - 1) + _simpson(
        f, mid, hi, fmid, frmid, fhi, eps / 2.0, depth - 1
    )


def integrate(f, lo, hi, eps=1e-13):
    mid = (lo + hi) / 2.0
    return _simpson(f, lo, hi, f(lo), f(mid), f(hi), eps, 60)


def t_sf_by_quadrature(t: float, df: int) -> float:
    """P(T >= t) as 0.5 minus the integral of the density over [0, t]."""
    return 0.5 - integrate(lambda x: t_density(x, df), 0.0, t)


def index_sort_ranks(values) -> tuple[list[float], list[int]]:
    """Midranks and tie sizes by sorting the indices and walking runs of equal values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    ties = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        if j > i:
            ties.append(j - i + 1)
        i = j + 1
    return ranks, ties


# Few distinct values, so that ties are common, and the ones that compare equal across types.
RANKED_VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False).map(lambda v: round(v, 1)),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, 2**53, 2**53 + 1, float(2**53), 1e300, -math.inf]),
)


def draw_tie_free(rng: random.Random, n1: int, n2: int) -> tuple[list, list]:
    values = rng.sample(range(1, 13), n1 + n2)
    return [float(v) for v in values[:n1]], [float(v) for v in values[n1:]]


# --- Ranks and the exact distribution ---------------------------------------------

class TestRanks:
    def test_midranks_hand_case(self):
        assert _ranks_and_ties([3.0, 1.0, 4.0, 1.0, 5.0]) == ([3.0, 1.5, 4.0, 1.5, 5.0], [2])

    def test_midranks_all_tied(self):
        assert _ranks_and_ties([7.0, 7.0, 7.0]) == ([2.0, 2.0, 2.0], [3])

    @settings(deadline=None)
    @given(st.lists(RANKED_VALUES, max_size=60))
    def test_ranks_and_ties_match_the_index_sort(self, values):
        ranks, ties = index_sort_ranks(values)
        got, got_ties = _ranks_and_ties(values)
        assert [type(r) for r in got] == [float] * len(values)
        assert [r.hex() for r in got] == [r.hex() for r in ranks]
        assert sorted(got_ties) == sorted(ties)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 1439), min_size=1, max_size=40),
           st.lists(st.integers(1, 1439), min_size=1, max_size=40))
    @example([1, 5, 9], [2, 3])  # EXACT
    @example([1, 5, 9], [5, 3])  # NORMAL_APPROX
    def test_mann_whitney_on_ints_equals_it_on_the_same_floats(self, a, b):
        # duration_by_start_bin tests the logs' own ints.
        as_ints = mann_whitney_u(a, b)
        as_floats = mann_whitney_u([float(v) for v in a], [float(v) for v in b])
        assert repr(as_ints) == repr(as_floats)

    def test_exact_distribution_sums_to_binomial(self):
        for n1, n2 in [(1, 1), (2, 3), (4, 4), (5, 6)]:
            assert sum(exact_u_distribution(n1, n2)) == math.comb(n1 + n2, n1)

    def test_exact_distribution_matches_counted_arrangements(self):
        for n1, n2 in [(0, 3), (1, 4), (3, 3), (2, 6), (5, 4), (4, 5)]:
            counts = [0] * (n1 * n2 + 1)
            for chosen in combinations(range(n1 + n2), n1):
                counts[sum(chosen) - n1 * (n1 - 1) // 2] += 1
            assert exact_u_distribution(n1, n2) == counts

    def test_exact_distribution_is_symmetric(self):
        counts = exact_u_distribution(4, 5)
        assert counts == counts[::-1]


class TestMannWhitneyExact:
    def test_u_statistic_is_pair_count(self):
        rng = random.Random(3)
        for _ in range(50):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            a, b = draw_tie_free(rng, n1, n2)
            assert mann_whitney_u(a, b).u_statistic == brute_u(a, b)

    def test_exact_p_matches_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            a, b = draw_tie_free(rng, n1, n2)
            result = mann_whitney_u(a, b)
            assert result.method is MwuMethod.EXACT
            assert result.p_two_sided == pytest.approx(brute_exact_p(a, b), abs=1e-12)

    def test_antisymmetry(self):
        rng = random.Random(23)
        for _ in range(30):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            a, b = draw_tie_free(rng, n1, n2)
            fwd = mann_whitney_u(a, b)
            rev = mann_whitney_u(b, a)
            assert fwd.method is rev.method is MwuMethod.EXACT
            assert fwd.u_statistic + rev.u_statistic == n1 * n2
            assert fwd.p_two_sided == pytest.approx(rev.p_two_sided, abs=1e-12)

    def test_extreme_separation_known_p(self):
        # a entirely above b: U = 9, p = 2 / C(6,3) = 0.1
        result = mann_whitney_u([7.0, 8.0, 9.0], [1.0, 2.0, 3.0])
        assert result.method is MwuMethod.EXACT
        assert result.u_statistic == 9.0
        assert result.p_two_sided == pytest.approx(0.1, abs=1e-12)

    def test_exact_p_for_a_large_sample_needs_no_recursion(self):
        # n1 = 1: each U in 0..2000 has one arrangement, and U = 1 here.
        assert _exact_p(1, 2000, 1.0) == 2 * (2 / 2001)

    def test_identical_samples_p_is_one(self):
        result = mann_whitney_u([5.0, 5.0], [5.0, 5.0])
        assert result.method is MwuMethod.NORMAL_APPROX
        assert result.p_two_sided == pytest.approx(1.0)
        assert result.degenerate_d is True
        assert result.cohens_d == 0.0


class TestMannWhitneyModes:
    def test_auto_exact_at_product_limit(self):
        a = [float(i) for i in range(20)]
        b = [float(i) + 0.5 for i in range(20)]
        assert len(a) * len(b) == EXACT_PRODUCT_LIMIT
        assert mann_whitney_u(a, b).method is MwuMethod.EXACT

    def test_auto_approx_beyond_product_limit(self):
        a = [float(i) for i in range(20)]
        b = [float(i) + 0.5 for i in range(21)]
        assert mann_whitney_u(a, b).method is MwuMethod.NORMAL_APPROX

    def test_auto_approx_when_tied(self):
        result = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
        assert result.method is MwuMethod.NORMAL_APPROX

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_forced_approx(self):
        # a entirely above b, tie-free 3x3: U = 9, mu = 4.5, var = 9 * 7 / 12 = 5.25
        assert _approx_p(9.0, 3, 3, []) == 2 * normal_sf((9.0 - 4.5 - 0.5) / math.sqrt(5.25))
        assert _approx_p(9.0, 3, 3, []) == pytest.approx(0.0808555983700523, abs=1e-15)

    def test_large_tie_free_samples_take_the_approximation(self):
        # 2000 x 2000 is far past EXACT_PRODUCT_LIMIT, so no exact distribution is built.
        result = mann_whitney_u(range(2000), range(2000, 4000))
        assert result.method is MwuMethod.NORMAL_APPROX
        assert result.u_statistic == 0.0
        assert result.p_two_sided < 1e-300


class TestNormalApproximation:
    def test_tie_corrected_variance_hand_case(self):
        # pooled [1,2,2,2,3,4]: tie group of 3, var = 4.65, u = 1, mu = 4.5
        # z = (3.5 - 0.5)/sqrt(4.65), p = 2*normal_sf(z)
        result = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
        assert result.method is MwuMethod.NORMAL_APPROX
        assert result.u_statistic == 1.0
        assert result.p_two_sided == pytest.approx(0.16415972847851523, abs=1e-15)

    def test_approx_close_to_exact_for_moderate_n(self):
        rng = random.Random(5)
        a = [float(v) for v in rng.sample(range(1, 100), 12)]
        b = [float(v) for v in rng.sample(range(101, 200), 12)]
        exact = mann_whitney_u(a, b)
        assert exact.method is MwuMethod.EXACT
        approx = _approx_p(exact.u_statistic, len(a), len(b), [])
        assert approx == pytest.approx(exact.p_two_sided, abs=0.02)

    def test_all_values_equal_gives_p_one(self):
        result = mann_whitney_u([3.0] * 4, [3.0] * 4)
        assert result.method is MwuMethod.NORMAL_APPROX
        assert result.p_two_sided == 1.0

    def test_mean_diff_and_d_sign(self):
        result = mann_whitney_u([10.0, 12.0, 14.0], [1.0, 2.0, 3.0])
        assert result.mean_diff == pytest.approx(10.0)
        assert result.cohens_d > 0
        rev = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 12.0, 14.0])
        assert rev.cohens_d < 0

    def test_result_validates_bounds(self):
        with pytest.raises(ValueError):
            UStatResult(u_statistic=-1.0, p_two_sided=0.5, n1=2, n2=2,
                       method=MwuMethod.EXACT, mean_diff=0.0, cohens_d=0.0)
        with pytest.raises(ValueError):
            UStatResult(u_statistic=1.0, p_two_sided=1.5, n1=2, n2=2,
                       method=MwuMethod.EXACT, mean_diff=0.0, cohens_d=0.0)


class TestNormalSf:
    def test_known_values(self):
        assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_sf(1.959963984540054) == pytest.approx(0.025, abs=1e-12)
        assert normal_sf(3.0902323061678132) == pytest.approx(0.001, abs=1e-12)

    def test_symmetry(self):
        for z in (0.3, 1.1, 2.7):
            assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-15)


class TestStudentT:
    def test_df1_closed_form(self):
        for t in (0.0, 0.4, 1.7, 6.0):
            assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-13)

    def test_df2_closed_form(self):
        for t in (0.0, 1.0, 2.5, 9.0):
            expected = 0.5 - t / (2.0 * math.sqrt(2.0 + t * t))
            assert t_sf(t, 2) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 300])
    def test_matches_quadrature(self, df):
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert t_sf(t, df) == pytest.approx(t_sf_by_quadrature(t, df), abs=1e-9)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            t_sf(-0.1, 5)

    def test_beta_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_beta_symmetry_identity(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.5, 0.12)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_beta_uniform_case(self):
        # a = b = 1 is the uniform distribution: I_x(1,1) = x
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    # Exact bits, so any reordering of the continued fraction's float operations
    # shows.  The comment gives the side of the x < (a+1)/(a+b+2) switch and the
    # number of Lentz steps the fraction takes there.
    @pytest.mark.parametrize("a, b, x, expected", [
        (2.0, 5.0, 0.1, "0.11426500000000024"),  # direct, 5
        (2.0, 5.0, 0.6, "0.9590399999999999"),  # swapped, 2
        (0.5, 0.5, 0.3, "0.36901011956554497"),  # direct, 7
        (0.5, 0.5, 0.7, "0.6309898804344553"),  # swapped, 7
        (10.0, 1.5, 0.12, "2.1624215525123284e-09"),  # direct, 4
        (1.5, 10.0, 0.95, "0.999999999999647"),  # swapped, 3
        (480.0, 470.0, 0.49, "0.1733693009310249"),  # direct, 34
        (480.0, 470.0, 0.52, "0.8181689134027593"),  # swapped, 34
        (500.0, 500.0, 0.5, "0.5000000000001927"),  # on the switch, so swapped, 43
        (3.5, 400.0, 0.01, "0.6731332850452469"),  # direct, 10
        (400.0, 3.5, 0.99, "0.32686671495468544"),  # swapped, 10
        (250.0, 0.5, 0.995, "0.1135743483406203"),  # swapped, 8
        (123.5, 321.0, 0.27, "0.3611866828138526"),  # direct, 26
    ])
    def test_beta_bits_are_pinned(self, a, b, x, expected):
        assert repr(regularized_incomplete_beta(a, b, x)) == expected

    @pytest.mark.parametrize("t, df, expected", [
        (0.3, 5, "0.3881245211316374"),
        (2.1, 30, "0.02212123563116163"),
        (1.0, 998, "0.1587764513766084"),
        (4.5, 200, "5.759390631437699e-06"),
        (0.05, 1000, "0.4800661865359735"),
        (12.0, 3, "0.0006225079003946676"),
    ])
    def test_t_sf_bits_are_pinned(self, t, df, expected):
        assert repr(t_sf(t, df)) == expected


class TestPearson:
    def test_perfect_positive(self):
        result = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert result == CorrelationResult(r=1.0, p_two_sided=0.0, n=3)

    def test_perfect_negative(self):
        result = pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0])
        assert result.r == -1.0 and result.p_two_sided == 0.0

    def test_exact_rational_hand_case(self):
        # sums: dx.dy = 8, ss_x = ss_y = 10, so r = 0.8 exactly
        result = pearson([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 3.0, 5.0, 4.0])
        assert result.r == pytest.approx(0.8, abs=1e-15)
        expected_p = 2.0 * t_sf_by_quadrature(2.3094010767585034, 3)
        assert result.p_two_sided == pytest.approx(expected_p, abs=1e-9)

    def test_zero_correlation(self):
        result = pearson([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, -1.0, 1.0])
        assert result.r == pytest.approx(0.0, abs=1e-15)
        assert result.p_two_sided == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 30, 300])
    def test_p_matches_quadrature(self, n):
        rng = random.Random(n)
        x = [rng.gauss(0.0, 1.0) for _ in range(n)]
        y = [0.4 * v + rng.gauss(0.0, 1.0) for v in x]
        result = pearson(x, y)
        t = abs(result.r) * math.sqrt((n - 2) / (1.0 - result.r**2))
        assert result.p_two_sided == pytest.approx(
            2.0 * t_sf_by_quadrature(t, n - 2), abs=1e-6
        )

    def test_p_bits_are_pinned(self):
        x = [float(i) for i in range(60)]
        y = [float((i * 37) % 23) + 0.25 * i for i in range(60)]
        result = pearson(x, y)
        assert (repr(result.r), repr(result.p_two_sided)) == (
            "0.5730986280281286", "1.7053044119610588e-06"
        )

    def test_constant_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])


class TestQuartileSplit:
    def test_hand_case_one_through_eight(self):
        metric = {chr(ord("a") + i): float(i + 1) for i in range(8)}
        split = quartile_split(metric)
        assert split == {"a": "Q1", "b": "Q1", "c": "Q2", "d": "Q2",
                         "e": "Q3", "f": "Q3", "g": "Q4", "h": "Q4"}

    def test_threshold_ties_go_low(self):
        metric = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 2.0}
        split = quartile_split(metric)
        assert all(split[k] == "Q1" for k in "abcd")
        assert split["e"] != "Q1"

    def test_too_few_raises(self):
        with pytest.raises(ValueError):
            quartile_split({"a": 1.0, "b": 2.0, "c": 3.0})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=4, max_size=40))
    def test_partition_properties(self, values):
        metric = {f"k{i}": v for i, v in enumerate(values)}
        split = quartile_split(metric)
        assert set(split) == set(metric)
        assert set(split.values()) <= {"Q1", "Q2", "Q3", "Q4"}
        rank = {"Q1": 0, "Q2": 1, "Q3": 2, "Q4": 3}
        for k1 in metric:
            for k2 in metric:
                if metric[k1] < metric[k2]:
                    assert rank[split[k1]] <= rank[split[k2]]
                elif metric[k1] == metric[k2]:
                    assert split[k1] == split[k2]


class TestHistograms:
    def test_hour_histogram_counts(self):
        from datetime import datetime
        moments = [datetime(2015, 10, 24, h) for h in (23, 23, 6, 0)]
        bins = hour_histogram(moments)
        assert bins[23] == 2 / 4 and bins[6] == 1 / 4 and bins[0] == 1 / 4
        assert bins.count(0.0) == 21

    def test_hour_histogram_normalized(self):
        from datetime import time
        bins = hour_histogram([time(5), time(5), time(7), time(9)])
        assert bins[5] == pytest.approx(0.5)
        assert sum(bins) == pytest.approx(1.0)

    def test_hour_histogram_empty(self):
        assert hour_histogram([]) == [0.0] * 24

    @pytest.mark.parametrize("count, label", [
        (1, "1"), (2, "2-3"), (3, "2-3"), (4, "4-7"), (7, "4-7"),
        (8, "8-15"), (255, "128-255"), (256, "256+"), (100000, "256+"),
    ])
    def test_log2_bin(self, count, label):
        assert log2_bin(count) == label

    def test_log2_bin_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_bin(0)


# --- Sums are exactly rounded, so the order of the inputs does not matter ------------

# Magnitudes far apart, so that adding in another order rounds differently, and a few
# small integers, so that ties are common.
SUMMED_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e16, 1e16))


def with_a_permutation(elements, min_size: int, max_size: int):
    """A list of `elements` drawn together with one of its permutations."""
    return st.lists(elements, min_size=min_size, max_size=max_size).flatmap(
        lambda values: st.tuples(st.just(values), st.permutations(values))
    )


@settings(deadline=None)
@given(with_a_permutation(SUMMED_VALUES, 1, 6), with_a_permutation(SUMMED_VALUES, 1, 6))
@example(([1e16, 1.0, -1e16], [-1e16, 1.0, 1e16]), ([0.0, 0.5], [0.5, 0.0]))  # EXACT
@example(([1e16, 0.5, -1e16], [-1e16, 0.5, 1e16]), ([0.0, 0.5], [0.5, 0.0]))  # NORMAL_APPROX
def test_mann_whitney_ignores_the_order_of_each_sample(a, b):
    assert repr(mann_whitney_u(a[1], b[1])) == repr(mann_whitney_u(a[0], b[0]))


@settings(deadline=None)
@given(with_a_permutation(st.tuples(SUMMED_VALUES, SUMMED_VALUES), 3, 12))
@example(([(1e16, 0.0), (1.0, 1.0), (-1e16, 3.0)], [(-1e16, 3.0), (1.0, 1.0), (1e16, 0.0)]))
def test_pearson_ignores_the_order_of_the_pairs(pairs):
    def result(pairs):
        try:
            return pearson([x for x, _ in pairs], [y for _, y in pairs])
        except DegenerateSampleError as exc:
            return exc.args

    assert repr(result(pairs[1])) == repr(result(pairs[0]))
