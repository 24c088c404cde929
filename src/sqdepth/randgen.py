"""Seeded random instances for property sweeps."""

from __future__ import annotations

import random

from .ideals import IdealPair, MonomialIdeal, minimalize


def random_monomial(rng: random.Random, n: int, min_degree: int = 1) -> int:
    """The mask of a random squarefree monomial of degree min_degree..n."""
    degree = rng.randint(min_degree, n)
    return sum(1 << b for b in rng.sample(range(n), degree))


def random_proper_ideal(rng: random.Random, n: int, max_gens: int = 6) -> MonomialIdeal:
    """A nonzero ideal with nonconstant generators (never zero, never unit)."""
    count = rng.randint(1, max_gens)
    return minimalize((random_monomial(rng, n) for _ in range(count)), n)


def random_quotient_pair(rng: random.Random, n: int) -> IdealPair:
    """S/I for a random proper nonzero ideal."""
    return IdealPair.quotient(random_proper_ideal(rng, n))


def random_module_pair(rng: random.Random, n: int) -> IdealPair:
    """A random proper nonzero ideal viewed as a module."""
    return IdealPair.module(random_proper_ideal(rng, n))


def random_pair(rng: random.Random, n: int, max_attempts: int = 100) -> IdealPair:
    """A valid pair I < J with J proper or unit and I possibly zero."""
    for _ in range(max_attempts):
        if rng.random() < 0.3:
            upper = MonomialIdeal.unit(n)
        else:
            upper = random_proper_ideal(rng, n)
        gens = []
        for _ in range(rng.randint(0, 4)):
            if upper.is_unit:
                gens.append(random_monomial(rng, n))
            else:
                base = rng.choice(upper.generators)
                gens.append(base | random_monomial(rng, n, min_degree=0))
        lower = minimalize(gens, n)
        if lower != upper:
            return IdealPair(lower, upper)
    raise RuntimeError("failed to draw a valid pair")
