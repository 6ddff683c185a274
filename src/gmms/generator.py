"""Random-instance generation and parameterized worked-example fixtures.

Random draws are quantized to a fixed number of decimal digits and converted
to exact rationals, so downstream arithmetic stays exact. Same spec, same
instance, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .algorithms import TieBreakPolicy
from .core import Allocation, InputError, Instance, _check_int

RNG_NAME = "numpy-pcg64"  # np.random.default_rng; recorded for reproducibility

DISTRIBUTIONS = ("uniform", "gaussian")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance draw."""

    num_agents: int
    num_goods: int
    distribution: str = "uniform"  # uniform on [0,1] or gaussian(1/2, 1/10)
    sop: bool = False              # same-order preferences: sort rows descending
    seed: int = 0
    digits: int = 6

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise InputError(f"unknown distribution {self.distribution!r}")
        _check_int("num_agents", self.num_agents, 1)
        _check_int("num_goods", self.num_goods, 0)
        # a double carries no more than 17 significant digits, and past
        # about 300 the quantizing product overflows
        _check_int("digits", self.digits, 0, 17)
        _check_int("seed", self.seed, 0)


def generate(spec: GenSpec) -> Instance:
    """Draw an instance for the given parameters; gaussian draws are clamped
    at zero."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.num_agents, spec.num_goods)
    if spec.distribution == "uniform":
        raw = rng.random(shape)
    else:
        raw = np.clip(rng.normal(0.5, 0.1, shape), 0.0, None)
    scale = 10 ** spec.digits
    # rint rounds half to even, as round() does, on the same float64
    # products; int() keeps the rounded floats exact at any magnitude
    rows = []
    for quantized in np.rint(raw * scale).tolist():
        units = [int(x) for x in quantized]
        if spec.sop:  # every value shares the denominator, so ints sort alike
            units.sort(reverse=True)
        rows.append(tuple([Fraction(u, scale) for u in units]))
    return Instance(spec.num_agents, spec.num_goods, tuple(rows))


# ---------------------------------------------------------------------------
# Worked-example fixtures. Each returns (instance, reference allocation or
# None); good indexing follows the construction order described with it.


def single_good_two_agents() -> Tuple[Instance, Allocation]:
    """Two agents, one good both value at 1; agent 0 holds it."""
    inst = Instance.from_rows([[1], [1]])
    return inst, Allocation.from_lists([[0], []])


def mms_not_ef1() -> Tuple[Instance, Allocation]:
    """Three agents, five unit-value goods; the 3/1/1 split clears every
    maximin share yet leaves irreparable envy."""
    inst = Instance.from_rows([[1] * 5] * 3)
    return inst, Allocation.from_lists([[0, 1, 2], [3], [4]])


def kwise_boundary(k: int, n: int) -> Tuple[Instance, Allocation]:
    """An allocation that is t-wise fair for every t < k but not k-wise fair.

    3k-4 goods: k-1 "large" at 3k-7, k-2 "medium" at 3, k-1 "small" at 1,
    all for agent 0. Agent 0 keeps one large good; the next k-2 agents take
    a large and a medium each; one agent takes all small goods; everyone
    else gets nothing. The other agents value every good at 0, which makes
    them trivially fair for every group size (any positive constant row
    would break t-wise fairness for the empty-handed agents).
    """
    if k < 4:
        raise InputError(f"need k >= 4, got {k}")
    if n <= 3 * k - 4:
        raise InputError(f"need n > 3k-4 = {3 * k - 4}, got {n}")
    m = 3 * k - 4
    row0 = [3 * k - 7] * (k - 1) + [3] * (k - 2) + [1] * (k - 1)
    rows = [row0] + [[0] * m for _ in range(n - 1)]
    bundles = [[0]]
    for j in range(1, k - 1):  # large good j with medium good (k-1)+(j-1)
        bundles.append([j, k - 2 + j])
    bundles.append(list(range(2 * k - 3, 3 * k - 4)))  # all small goods
    bundles.extend([] for _ in range(n - k))
    return Instance.from_rows(rows), Allocation.from_lists(bundles)


def mms_not_gmms(n: int, big: Fraction, eps: Fraction) -> Tuple[Instance, Allocation]:
    """n agents, n+3 goods: the reference allocation clears every maximin
    share but leaves the last agent with an unsatisfactorily small bundle
    that a pooled two-agent share exposes.

    Goods in order: the first n-1 agents value the first n-3 goods at `big`,
    the next two at big/2, then alternating big/2 - eps and big/2 + eps; the
    last agent values the first n-1 goods at `big`, two at 0, and the final
    two at eps.
    """
    big, eps = Fraction(big), Fraction(eps)
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    if not 0 < eps < big / 2:
        raise InputError(f"need 0 < eps < big/2, got eps={eps}, big={big}")
    half = big / 2
    front = [half, half, half - eps, half + eps, half - eps, half + eps]
    shared = [big] * (n - 3) + front
    last = [big] * (n - 1) + [Fraction(0), Fraction(0), eps, eps]
    rows = [shared] * (n - 1) + [last]
    bundles = [[i] for i in range(n - 3)]
    bundles += [[n - 3, n - 2], [n - 1, n], [n + 1, n + 2]]
    return Instance.from_rows(rows), Allocation.from_lists(bundles)


def efl_tight(n: int) -> Tuple[Instance, Allocation]:
    """The worst-case family for the envy-graph allocator: 3n-2 goods on
    which its output only reaches a factor n/(2n-1) of agent 0's share.

    Goods: n "large" at 1, n-1 "medium" at (n-1)/n, n-1 "small" at 1/n for
    agent 0. The other agents value the first large good at 2, each small
    good at 1, and everything else at 1/2 - 1/n. Reference allocation:
    agent 0 keeps the first large good; agent j takes large j, medium j and
    small j.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    med, small, low = Fraction(n - 1, n), Fraction(1, n), Fraction(1, 2) - Fraction(1, n)
    row0 = [Fraction(1)] * n + [med] * (n - 1) + [small] * (n - 1)
    other = [Fraction(2)] + [low] * (n - 1) + [low] * (n - 1) + [Fraction(1)] * (n - 1)
    rows = [row0] + [other] * (n - 1)
    bundles = [[0]]
    for j in range(1, n):
        bundles.append([j, n + j - 1, 2 * n - 2 + j])
    return Instance.from_rows(rows), Allocation.from_lists(bundles)


def efl_tight_policy(n: int) -> TieBreakPolicy:
    """Scripted tie-breaks steering the allocator to the reference allocation:
    the medium goods must be taken before the equally valued large ones."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    goods = [None] * n + list(range(n, 2 * n - 1)) + [None] * (n - 1)
    return TieBreakPolicy(sources=None, goods=tuple(goods))


FIXTURES = {
    "single_good_two_agents": single_good_two_agents,
    "mms_not_ef1": mms_not_ef1,
    "kwise_boundary": kwise_boundary,
    "mms_not_gmms": mms_not_gmms,
    "efl_tight": efl_tight,
}


def fixture(name: str, **params) -> Tuple[Instance, Optional[Allocation]]:
    """Dispatch a named fixture; unknown names raise InputError."""
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[name](**params)
