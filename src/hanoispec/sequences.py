"""Matching pairs and compatible sequences of resistance ratios.

A matching pair (r, rho) satisfies (5/3)*r + rho = 1, which makes the
one-level refinement of the unit-resistance triangle electrically
equivalent to the unrefined triangle.  A compatible sequence of such
pairs determines all cell resistances delta_m = r_1*...*r_m and line
resistances gamma_m = r_1*...*r_{m-1}*rho_m of the graph approximations,
and through its limit behaviour the predicted spectral and resistance
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, UnsupportedFamilyError

R_SUP = 3.0 / 5.0       # open upper bound for a single ratio
R_LIMIT_INF = 1.0 / 3.0  # lower bound required of declared limits

# The parameter fields of each sequence kind: besides "kind", the keys a
# config object of that kind may hold and the keys its serialised form has.
KIND_KEYS = {
    "constant": ("r",),
    "geometric_to_limit": ("r_limit", "q"),
    "explicit": ("values", "tail"),
}


@dataclass(frozen=True)
class MatchingPair:
    """A resistance ratio r and the line factor rho = 1 - (5/3) r."""

    r: float
    rho: float

    def __post_init__(self):
        if not (0.0 < self.r < R_SUP):
            raise DomainError(
                f"resistance ratio r must lie in the open interval (0, 3/5), got {self.r!r}"
            )
        if self.rho <= 0.0:
            raise DomainError(f"line factor rho must be positive, got {self.rho!r}")
        if abs((5.0 / 3.0) * self.r + self.rho - 1.0) > 1e-12:
            raise DomainError(
                f"(5/3)*r + rho = 1 violated: r={self.r!r}, rho={self.rho!r}"
            )


def make_pair(r: float) -> MatchingPair:
    """Build the matching pair for ratio r, with rho = 1 - (5/3) r.

    Raises DomainError unless 0 < r < 3/5 (r = 3/5 would give a degenerate
    line conductance).
    """
    return MatchingPair(r, 1.0 - (5.0 / 3.0) * r)


@dataclass(frozen=True)
class MatchingSequence:
    """A declared family of matching pairs (r_i, rho_i), i >= 1.

    Supported kinds:
      * ``constant``: r_i = r for all i.
      * ``geometric_to_limit``: r_i = r_limit * (1 - q**i), approaching
        r_limit monotonically from below.
      * ``explicit``: a finite list of ratios with a declared tail rule
        ("cycle", "repeat_last", or None for diagnostics-only prefixes).
    """

    kind: str
    r: Optional[float] = None
    r_limit: Optional[float] = None
    q: Optional[float] = None
    values: Optional[tuple[float, ...]] = None
    tail: Optional[str] = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.r is None:
                raise DomainError("constant sequence needs a ratio r")
            make_pair(self.r)
        elif self.kind == "geometric_to_limit":
            if self.r_limit is None or self.q is None:
                raise DomainError("geometric_to_limit sequence needs r_limit and q")
            if not (0.0 < self.r_limit <= R_SUP):
                raise DomainError(
                    f"declared limit must lie in (0, 3/5], got {self.r_limit!r}"
                )
            if not (0.0 < self.q < 1.0):
                raise DomainError(f"decay base q must lie in (0, 1), got {self.q!r}")
        elif self.kind == "explicit":
            if not self.values:
                raise DomainError("explicit sequence needs at least one ratio")
            if self.tail not in (None, "cycle", "repeat_last"):
                raise DomainError(f"unknown tail rule {self.tail!r}")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise DomainError(f"unknown sequence kind {self.kind!r}")

    # -- generation ---------------------------------------------------------

    def ratio(self, i: int) -> float:
        """The i-th ratio r_i (1-based)."""
        if i < 1:
            raise DomainError(f"pair index must be >= 1, got {i}")
        if self.kind == "constant":
            return self.r
        if self.kind == "geometric_to_limit":
            return self.r_limit * (1.0 - self.q ** i)
        vals = self.values
        if i <= len(vals):
            return vals[i - 1]
        if self.tail == "cycle":
            return vals[(i - 1) % len(vals)]
        if self.tail == "repeat_last":
            return vals[-1]
        raise DomainError(
            f"explicit sequence of length {len(vals)} has no tail rule; cannot produce r_{i}"
        )

    def pair(self, i: int) -> MatchingPair:
        try:
            return make_pair(self.ratio(i))
        except DomainError as exc:
            raise DomainError(f"pair {i}: {exc}") from None

    def pairs(self, m: int) -> list[MatchingPair]:
        return [self.pair(i) for i in range(1, m + 1)]

    # -- declared limit behaviour -------------------------------------------

    @property
    def limit_r(self) -> Optional[float]:
        """Declared limit of r_i, or None when only limsup/liminf exist."""
        if self.kind == "constant":
            return self.r
        if self.kind == "geometric_to_limit":
            return self.r_limit
        if self.tail == "repeat_last":
            return self.values[-1]
        if self.tail == "cycle" and len(set(self.values)) == 1:
            return self.values[0]
        return None

    @property
    def limsup_r(self) -> Optional[float]:
        if self.limit_r is not None:
            return self.limit_r
        if self.tail == "cycle":
            return max(self.values)
        return None

    @property
    def liminf_r(self) -> Optional[float]:
        if self.limit_r is not None:
            return self.limit_r
        if self.tail == "cycle":
            return min(self.values)
        return None

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant(r={self.r:g})"
        if self.kind == "geometric_to_limit":
            return f"geometric_to_limit(r_limit={self.r_limit:g}, q={self.q:g})"
        tail = self.tail or "none"
        vals = ",".join(f"{v:g}" for v in self.values)
        return f"explicit([{vals}], tail={tail})"


def constant(r: float) -> MatchingSequence:
    return MatchingSequence(kind="constant", r=r)


def geometric_to_limit(r_limit: float, q: float) -> MatchingSequence:
    return MatchingSequence(kind="geometric_to_limit", r_limit=r_limit, q=q)


def explicit(values: Sequence[float], tail: Optional[str] = None) -> MatchingSequence:
    return MatchingSequence(kind="explicit", values=tuple(values), tail=tail)


# ---------------------------------------------------------------------------
# Scale factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleFactors:
    """Resistance scale factors of the first m refinement levels.

    delta[k] = r_1*...*r_k (delta[0] = 1) and gamma[k-1] = delta[k-1]*rho_k.
    When the family declares a limit r, partial_products[k-1] holds
    a_k = prod_{i<=k} r_i / r, whose extremes kappa1, kappa2 realize the
    two-sided bound kappa1 * r**k <= delta_k <= kappa2 * r**k.
    """

    m: int
    delta: np.ndarray
    gamma: np.ndarray
    partial_products: Optional[np.ndarray]
    kappa1: Optional[float]
    kappa2: Optional[float]


def scale_factors(seq: MatchingSequence, m: int) -> ScaleFactors:
    """Compute delta_0..delta_m and gamma_1..gamma_m for the sequence."""
    if m < 1:
        raise DomainError(f"level count m must be >= 1, got {m}")
    delta = np.empty(m + 1)
    gamma = np.empty(m)
    delta[0] = 1.0
    for k in range(1, m + 1):
        p = seq.pair(k)
        delta[k] = delta[k - 1] * p.r
        gamma[k - 1] = delta[k - 1] * p.rho
    r = seq.limit_r
    if r is not None:
        a = delta[1:] / r ** np.arange(1, m + 1)
        kappa1 = float(a.min())
        kappa2 = float(a.max())
        return ScaleFactors(m, delta, gamma, a, kappa1, kappa2)
    return ScaleFactors(m, delta, gamma, None, None, None)


# ---------------------------------------------------------------------------
# Condition diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Finite-prefix diagnostics for the convergence conditions.

    A finite prefix can never prove convergence, so the verdict combines
    the closed-form tail rule of the declared family with the prefix
    numbers.  Explicit sequences without a tail rule are classified as
    "diagnostics only".
    """

    family: str
    prefix_len: int
    limit_r: Optional[float]
    limsup_r: Optional[float]
    liminf_r: Optional[float]
    sum_abs_deviation: Optional[float]
    sum_rho: float
    monotone_increasing: bool
    sum_above_limsup: Optional[float]
    sum_below_liminf: Optional[float]
    kappa_star: Optional[float]
    kappa_lower_star: Optional[float]
    verdict: str
    warnings: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return "hold" in self.verdict


def validate_conditions(seq: MatchingSequence, prefix_len: int) -> ConditionReport:
    """Evaluate the summability and monotonicity diagnostics on a prefix."""
    if prefix_len < 1:
        raise DomainError(f"prefix_len must be >= 1, got {prefix_len}")
    warnings = []
    if seq.kind == "explicit" and seq.tail is None and prefix_len > len(seq.values):
        warnings.append(
            f"prefix truncated to the {len(seq.values)} declared ratios (no tail rule)"
        )
        prefix_len = len(seq.values)
    ratios = np.array([seq.ratio(i) for i in range(1, prefix_len + 1)])
    rhos = 1.0 - (5.0 / 3.0) * ratios
    bad = np.nonzero((ratios <= 0.0) | (ratios >= R_SUP))[0]
    invalid_pair = None
    if bad.size:
        invalid_pair = int(bad[0]) + 1
        warnings.append(
            f"pair {invalid_pair}: ratio {ratios[bad[0]]:g} outside (0, 3/5), "
            "matching pair undefined"
        )

    limit = seq.limit_r
    limsup = seq.limsup_r
    liminf = seq.liminf_r

    sum_abs = float(np.abs(limit - ratios).sum()) if limit is not None else None
    sum_rho = float(rhos.sum())
    monotone = bool(np.all(np.diff(ratios) >= 0)) if prefix_len > 1 else True

    sum_above = sum_below = kappa_star = kappa_lower = None
    if limsup is not None and liminf is not None:
        above = ratios > limsup
        below = ratios < liminf
        sum_above = float((1.0 - ratios[above] / limsup).sum())
        sum_below = float((1.0 - ratios[below] / liminf).sum())
        prod_above = np.cumprod(np.where(above, ratios / limsup, 1.0))
        prod_below = np.cumprod(np.where(below, ratios / liminf, 1.0))
        kappa_star = float(prod_above.max())
        kappa_lower = float(prod_below.min())

    if invalid_pair is not None:
        verdict = f"conditions violated (invalid pair {invalid_pair})"
    elif limit is not None:
        if limit < R_LIMIT_INF:
            warnings.append(
                f"declared limit {limit:g} is below 1/3; the two-sided spectral "
                "estimates are only available for limits in [1/3, 3/5]"
            )
            verdict = "conditions violated (limit below 1/3)"
        elif limit == R_SUP:
            # tail must be summable in rho and monotone in r
            tail_ok = seq.kind == "geometric_to_limit"
            if not monotone:
                verdict = "conditions violated (r_i not monotone for limit 3/5)"
            elif tail_ok:
                verdict = "r = 3/5 conditions hold"
            else:
                verdict = "diagnostics only"
                warnings.append("limit 3/5 with no closed-form rho tail rule")
        else:
            # constant, geometric, or repeat_last tails converge by construction
            verdict = "conditions hold"
    elif limsup is not None:
        if limsup >= R_SUP:
            verdict = "conditions violated (limsup must be < 3/5)"
        elif liminf < R_LIMIT_INF:
            verdict = "conditions violated (liminf must be >= 1/3)"
        else:
            # cyclic tails only take finitely many values, so both tail sums
            # are finite by construction
            verdict = "limsup/liminf conditions hold"
    else:
        verdict = "diagnostics only"
        warnings.append("explicit sequence without tail rule; prefix numbers only")
        limsup = float(ratios.max())
        liminf = float(ratios.min())

    return ConditionReport(
        family=seq.describe(),
        prefix_len=prefix_len,
        limit_r=limit,
        limsup_r=limsup,
        liminf_r=liminf,
        sum_abs_deviation=sum_abs,
        sum_rho=sum_rho,
        monotone_increasing=monotone,
        sum_above_limsup=sum_above,
        sum_below_liminf=sum_below,
        kappa_star=kappa_star,
        kappa_lower_star=kappa_lower,
        verdict=verdict,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Predicted dimensions
# ---------------------------------------------------------------------------

def spectral_dimension(r: float) -> float:
    """ln 9 / (ln 3 - ln r)."""
    return math.log(9.0) / (math.log(3.0) - math.log(r))


def resistance_dimension(r: float) -> float:
    """ln 3 / (-ln r)."""
    return math.log(3.0) / (-math.log(r))


@dataclass(frozen=True)
class PredictionSet:
    """Predicted spectral/resistance dimensions for a declared family.

    ``kind`` is "limit" when the sequence declares a limit r (then d_s and
    dim_h are point predictions), or "band" when only limsup/liminf exist
    (then the d_s_* and dim_* pairs bound the true values).
    relation_check holds 2*dim/(dim+1), which must equal d_s.
    """

    kind: str
    d_s: Optional[float] = None
    dim_h: Optional[float] = None
    relation_check: Optional[float] = None
    d_s_lower: Optional[float] = None
    d_s_upper: Optional[float] = None
    dim_lower: Optional[float] = None
    dim_upper: Optional[float] = None

    @property
    def half_exponent(self):
        """Counting-function exponent(s): d_s/2 or the (lower, upper) pair."""
        if self.kind == "limit":
            return 0.5 * self.d_s
        return (0.5 * self.d_s_lower, 0.5 * self.d_s_upper)


def predicted_dimensions(seq: MatchingSequence) -> PredictionSet:
    """Dimension predictions from the declared limit or limsup/liminf."""
    limit = seq.limit_r
    if limit is not None:
        dim = resistance_dimension(limit)
        return PredictionSet(
            kind="limit",
            d_s=spectral_dimension(limit),
            dim_h=dim,
            relation_check=2.0 * dim / (dim + 1.0),
        )
    limsup, liminf = seq.limsup_r, seq.liminf_r
    if limsup is None or liminf is None:
        raise UnsupportedFamilyError(
            f"sequence {seq.describe()} declares neither a limit nor limsup/liminf"
        )
    return PredictionSet(
        kind="band",
        d_s_lower=spectral_dimension(liminf),
        d_s_upper=spectral_dimension(limsup),
        dim_lower=resistance_dimension(liminf),
        dim_upper=resistance_dimension(limsup),
    )
