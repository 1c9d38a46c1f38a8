"""Reference bound formulas and the improvement-region polygon.

Every formula fixes implied constants and sub-polynomial factors to 1; the
harness therefore reports ratios and asserts only frozen regression
baselines, never the unfalsifiable asymptotic statements themselves.

Formula table (A = residue weights, W = character weights, M = support
size, N = interval length):

    trivial   ||A||_1 * N * max|K_q|        (sqrt(q) if no max supplied)
    fkm       ||A||_1 * q                   (prime modulus)
    bfkmm     (||A||_1 ||A||_2)^(1/2) * M^(1/12) N^(7/12) q^(3/4),
              applicable when M*N <= q^(3/2) and M <= N^2 (prime modulus)
    shpzha    ||A||_2 * N^(1/2) * q         (prime modulus)
    combined  ||A||_inf * min(M N sqrt(q), M q,
                              M^(5/6) N^(7/12) q^(3/4), sqrt(M N) q)
    thm21     (||A||_1 ||A||_2)^(1/2) * (N^(1/8) q + N^(1/2) q^(3/4))
    simple21  ||A||_inf * M^(3/4) * (N^(1/8) q + N^(1/2) q^(3/4))
    thm22     ||A||_1^(1-1/r) ||A||_2^(1/r)
              * (q + N^(1/2) q^(1/2 + 1/(2r))) * q^eps     (r >= 2, eps > 0)
    thm23     (||W||_1 ||W||_2)^(1/2) * (q + N^(1/2) q^(3/4))
    thm24     as thm22 with the W norms
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BOUND_NAMES = (
    "trivial",
    "fkm",
    "bfkmm",
    "shpzha",
    "combined",
    "thm21",
    "thm22",
    "thm23",
    "thm24",
    "simple21",
)

_PARAMETRIC = ("thm22", "thm24")

#: slack used to separate strict inequality from equality for float inputs
REGION_TOL = 1e-9


@dataclass(frozen=True)
class BoundSpec:
    """A named bound formula, with (r, epsilon) where the formula needs them."""

    name: str
    r: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.name not in BOUND_NAMES:
            raise ValueError(f"unknown bound {self.name!r}; expected one of {BOUND_NAMES}")
        if self.name in _PARAMETRIC:
            if self.r is None or self.epsilon is None:
                raise ValueError(f"{self.name} requires both r and epsilon")
            if self.r < 2:
                raise ValueError(f"{self.name} requires r >= 2, got {self.r}")
            if not 0 < self.epsilon < math.inf:
                raise ValueError(f"{self.name} requires finite epsilon > 0, got {self.epsilon}")
        else:
            if self.r is not None or self.epsilon is not None:
                raise ValueError(f"{self.name} takes no (r, epsilon) parameters")


def bound_value(
    spec: BoundSpec,
    q: int,
    M: int,
    N: int,
    norm1: float,
    norm2: float,
    norm_inf: float,
    max_term: float | None = None,
) -> float:
    """Evaluate the named formula with all constants set to 1.

    ``max_term`` feeds the exact form of the trivial bound (the computed
    maximum of |K_q| or |G_q| over the relevant arguments); when omitted the
    sqrt(q) placeholder is used.  ``bfkmm`` and ``combined``'s bfkmm
    candidate are evaluated whether or not the bfkmm side condition,
    M*N <= q^(3/2) and M <= N^2, holds.
    """
    if q < 1 or M < 0 or N < 1:
        raise ValueError(f"need q >= 1, M >= 0, N >= 1; got q={q}, M={M}, N={N}")
    if min(norm1, norm2, norm_inf) < 0:
        raise ValueError("norms must be non-negative")
    name = spec.name
    if name == "trivial":
        scale = max_term if max_term is not None else math.sqrt(q)
        return norm1 * N * scale
    if name == "fkm":
        return norm1 * q
    if name == "bfkmm":
        return math.sqrt(norm1 * norm2) * M ** (1 / 12) * N ** (7 / 12) * q**0.75
    if name == "shpzha":
        return norm2 * math.sqrt(N) * q
    if name == "combined":
        bfkmm = M ** (5 / 6) * N ** (7 / 12) * q**0.75
        return norm_inf * min(M * N * math.sqrt(q), M * q, math.sqrt(M * N) * q, bfkmm)
    if name == "thm21":
        return math.sqrt(norm1 * norm2) * (N ** 0.125 * q + math.sqrt(N) * q**0.75)
    if name == "simple21":
        return norm_inf * M**0.75 * (N ** 0.125 * q + math.sqrt(N) * q**0.75)
    if name == "thm22" or name == "thm24":
        r, eps = spec.r, spec.epsilon
        body = q + math.sqrt(N) * q ** (0.5 + 0.5 / r)
        return norm1 ** (1 - 1 / r) * norm2 ** (1 / r) * body * q**eps
    if name == "thm23":
        return math.sqrt(norm1 * norm2) * (q + math.sqrt(N) * q**0.75)
    raise AssertionError(name)


def region_slacks(mu: float, nu: float) -> list[float]:
    """Signed slack of each polygon inequality at (mu, nu), in the order
    2mu+7nu >= 4, 2mu+11nu >= 6, 1+mu >= 2nu, 3nu >= 2mu, 2mu >= nu, mu <= 1."""
    return [
        2 * mu + 7 * nu - 4,
        2 * mu + 11 * nu - 6,
        1 + mu - 2 * nu,
        3 * nu - 2 * mu,
        2 * mu - nu,
        1 - mu,
    ]


def improvement_region(mu: float, nu: float) -> str:
    """Classify the exponent pair (M, N) = (q^mu, q^nu) against the polygon
    where the M^(3/4)-scale bound beats every earlier formula.

    Returns "interior", "boundary", or "outside".  Equality is detected with
    a 1e-9 slack so vertices with non-dyadic coordinates (1/3, 3/7, ...)
    classify correctly from float inputs; intended for 0 <= mu, nu <= 1.
    A NaN or infinite exponent raises ValueError.
    """
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise ValueError(f"exponents must be finite, got mu={mu}, nu={nu}")
    slacks = region_slacks(mu, nu)
    if any(s < -REGION_TOL for s in slacks):
        return "outside"
    if all(s > REGION_TOL for s in slacks):
        return "interior"
    return "boundary"


#: polygon vertices in the (mu, nu) exponent plane
REGION_VERTICES = (
    (0.25, 0.5),
    (1 / 3, 2 / 3),
    (1.0, 1.0),
    (1.0, 2 / 3),
    (9 / 14, 3 / 7),
)
