"""Self-contained statistical kernels used by the cohort analyses.

Only the standard library is used.  The Mann-Whitney p is exact when the
pooled sample has no ties and n1*n2 <= EXACT_PRODUCT_LIMIT, from the exact U
distribution built iteratively as a Gaussian binomial polynomial; otherwise
it is the tie-corrected normal approximation.  The Student-t tail needed for
correlation p-values comes from a continued-fraction evaluation of the
regularized incomplete beta function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Sequence


class DegenerateSampleError(ValueError):
    """A sample without variation where variation is required."""


class MwuMethod(Enum):
    EXACT = "EXACT"
    NORMAL_APPROX = "NORMAL_APPROX"


@dataclass(frozen=True)
class TestResult:
    u_statistic: float
    p_two_sided: float
    n1: int
    n2: int
    method: MwuMethod
    mean_diff: float
    cohens_d: float
    degenerate_d: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.u_statistic <= self.n1 * self.n2:
            raise ValueError("u_statistic out of [0, n1*n2]")
        if not 0.0 <= self.p_two_sided <= 1.0:
            raise ValueError("p_two_sided out of [0, 1]")

    def to_record(self) -> dict:
        return {**asdict(self), "method": self.method.value}


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_two_sided: float
    n: int

    def to_record(self) -> dict:
        return asdict(self)


def _ranks_and_ties(values: Sequence[float]) -> tuple[list[float], list[int]]:
    """Ranks 1..n with ties sharing their average rank, and the size of each tie."""
    # One average rank per distinct value, found by sorting the values themselves.
    ordered = sorted(values)
    rank_of = {}
    ties = []
    i = 0
    while i < len(ordered):
        j = bisect_right(ordered, ordered[i], i) - 1  # the last of the values equal to ordered[i]
        rank_of[ordered[i]] = (i + j) / 2 + 1
        if j > i:
            ties.append(j - i + 1)
        i = j + 1
    return [rank_of[value] for value in values], ties


def exact_u_distribution(n1: int, n2: int) -> list[int]:
    """Counts of arrangements for each U in 0..n1*n2 (tie-free samples).

    These are the coefficients of the Gaussian binomial, the product of
    (1 - q^(j+i)) / (1 - q^i) for i = 1..k (k, j = min, max of n1, n2),
    applied in place as power series truncated at degree n1*n2.
    """
    k, j = min(n1, n2), max(n1, n2)
    counts = [1] + [0] * (n1 * n2)
    for i in range(1, k + 1):
        for u in range(n1 * n2, j + i - 1, -1):
            counts[u] -= counts[u - j - i]
        for u in range(i, n1 * n2 + 1):
            counts[u] += counts[u - i]
    return counts


def _two_sided_from_tails(tail_le: float, tail_ge: float) -> float:
    return 2.0 * min(tail_le, tail_ge, 0.5)


def _exact_p(n1: int, n2: int, u: float) -> float:
    counts = exact_u_distribution(n1, n2)
    total = math.comb(n1 + n2, n1)
    le = sum(c for v, c in enumerate(counts) if v <= u)
    ge = sum(c for v, c in enumerate(counts) if v >= u)
    return _two_sided_from_tails(le / total, ge / total)


def normal_sf(z: float) -> float:
    return math.erfc(z / math.sqrt(2.0)) / 2.0


def _approx_p(u: float, n1: int, n2: int, tie_groups: Iterable[int]) -> float:
    """Tie-corrected normal approximation with continuity correction 0.5."""
    total = n1 + n2
    mu = n1 * n2 / 2.0
    correction = sum(t**3 - t for t in tie_groups)
    variance = n1 * n2 / 12.0 * (total + 1 - correction / (total * (total - 1)))
    if variance <= 0.0:
        return 1.0
    z = (abs(u - mu) - 0.5) / math.sqrt(variance)
    return _two_sided_from_tails(normal_sf(z), 1.0)


def _sample_sd(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


EXACT_PRODUCT_LIMIT = 400


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney U test; u_statistic counts pairs a > b.

    The p is exact when the pooled sample is tie-free and n1*n2 <=
    EXACT_PRODUCT_LIMIT, and the tie-corrected normal approximation otherwise;
    `method` says which.
    """
    n1, n2 = len(a), len(b)
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")
    ranks, tie_groups = _ranks_and_ties(list(a) + list(b))
    u = math.fsum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    if not tie_groups and n1 * n2 <= EXACT_PRODUCT_LIMIT:
        method, p = MwuMethod.EXACT, _exact_p(n1, n2, u)
    else:
        method, p = MwuMethod.NORMAL_APPROX, _approx_p(u, n1, n2, tie_groups)

    mean_a = math.fsum(a) / n1
    mean_b = math.fsum(b) / n2
    mean_diff = mean_a - mean_b
    sd_a, sd_b = _sample_sd(a), _sample_sd(b)
    df = n1 + n2 - 2
    pooled_var = ((n1 - 1) * sd_a**2 + (n2 - 1) * sd_b**2) / df if df > 0 else 0.0
    degenerate = pooled_var <= 0.0
    cohens_d = 0.0 if degenerate else mean_diff / math.sqrt(pooled_var)

    return TestResult(
        u_statistic=u,
        p_two_sided=min(p, 1.0),
        n1=n1,
        n2=n2,
        method=method,
        mean_diff=mean_diff,
        cohens_d=cohens_d,
        degenerate_d=degenerate,
    )


# --- Student-t tail via the regularized incomplete beta function ---------

_BETA_EPS = 1e-15
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 500


def _clamped(v: float) -> float:
    """`v`, or _BETA_TINY where `v` is so near zero that dividing by it would overflow."""
    return _BETA_TINY if abs(v) < _BETA_TINY else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _clamped(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # Term m has an even and an odd coefficient; each is one Lentz step.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _clamped(1.0 + aa * d)
            c = _clamped(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """P(T >= t) for Student's t with df degrees of freedom, t >= 0."""
    if t < 0:
        raise ValueError("t_sf expects t >= 0")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x) / 2.0


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson correlation with a two-sided p from the exact t transform."""
    n = len(x)
    if n != len(y):
        raise ValueError("samples must have equal length")
    if n < 3:
        raise ValueError("need at least 3 paired observations")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    ss_x = math.fsum(v * v for v in dx)
    ss_y = math.fsum(v * v for v in dy)
    if ss_x <= 0.0 or ss_y <= 0.0:
        raise DegenerateSampleError("zero variance in at least one sample")
    # Two tiny sums of squares (under ~1e-162 each) multiply to 0.0: take the roots apart then.
    spread = math.sqrt(ss_x * ss_y) or math.sqrt(ss_x) * math.sqrt(ss_y)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / spread
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return CorrelationResult(r=r, p_two_sided=0.0, n=n)
    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * t_sf(t, n - 2)
    return CorrelationResult(r=r, p_two_sided=min(p, 1.0), n=n)


# --- Grouping helpers ------------------------------------------------------

QUARTILE_LABELS = ("Q1", "Q2", "Q3", "Q4")


def quartile_split(metric: dict[str, float]) -> dict[str, str]:
    """Assign Q1..Q4 by nearest-rank thresholds; threshold ties go low.

    Thresholds are the values at ranks ceil(n/4), ceil(n/2), ceil(3n/4) of
    the sorted metric (1-indexed).
    """
    n = len(metric)
    if n < 4:
        raise ValueError(f"need at least 4 keyed values, got {n}")
    ordered = sorted(metric.values())
    thresholds = [ordered[math.ceil(share * n) - 1] for share in (0.25, 0.50, 0.75)]
    # The number of thresholds strictly below a value picks its quartile.
    return {key: QUARTILE_LABELS[bisect_left(thresholds, v)] for key, v in metric.items()}


def hour_histogram(moments: Iterable) -> list[float]:
    """Share of moments per local hour, 24 bins summing to 1 (empty: zeros)."""
    bins = [0.0] * 24
    total = 0
    for moment in moments:
        bins[moment.hour] += 1
        total += 1
    return [b / total for b in bins] if total else bins


LOG2_BIN_LABELS = (
    "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128-255", "256+",
)


def log2_bin(count: int) -> str:
    """Label of the power-of-two bucket holding count (>= 256 saturates)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count >= 256:
        return LOG2_BIN_LABELS[-1]
    return LOG2_BIN_LABELS[count.bit_length() - 1]
