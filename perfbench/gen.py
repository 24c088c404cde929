"""Seeded problem texts for the benchmark workloads.

The benchmark keeps its own generator, separate from ``sqdepth.randgen``,
so that a change to the package's sweep generator cannot silently change a
workload.  The program only ever sees the texts produced here.

Each workload draws on a fixed base set of pairs: every (n, kind) stratum
holds the same number of problems, generated from a constant seed and sent
in one fixed interleaved order.  The workload seed renames the variables
of every problem and shuffles the generators inside each ideal.  Renaming
changes every text but none of the invariants, so any seed does the same
mathematical work and its answers can be checked against one reference
recorded per base problem.  Drawing the pairs themselves from the seed
would let a handful of expensive pairs drawn or not drawn swing a run, and
a per-seed order would move peak memory, which depends on the order in
which large tables are allocated and freed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

KINDS = ("quotient", "module", "general")
BASE_SEED = 20231019


@dataclass(frozen=True)
class Shape:
    """Random ideals with `min_gens`..`max_gens` generators (before removing
    multiples) of degree `min_degree`..`max_degree`, at most n - 3 so that a
    general pair can always extend a generator by two variables."""

    min_gens: int
    max_gens: int
    min_degree: int
    max_degree: int

    def draw(self, rng: random.Random, n: int) -> tuple[int, ...]:
        count = rng.randint(self.min_gens, self.max_gens)
        return _antichain(_random_mask(rng, n, self.min_degree, min(self.max_degree, n - 3))
                          for _ in range(count))


@dataclass(frozen=True)
class Family:
    """A stratified base set: `per_stratum` pairs for every n and kind.

    `quotient` shapes the ideal I of a quotient S/I, `upper` the ideal J of
    a module (0, J) or of a general pair I < J.
    """

    name: str
    n_values: tuple[int, ...]
    per_stratum: int
    quotient: Shape
    upper: Shape


# One family per workload kind; depth-qq and depth-gf share "depth", so
# each of their requests can be compared across the two fields.  The shapes
# keep a pass of 100+ requests at a few seconds: invariants cost 2^n
# whatever the shape; for skeletons, many quadrics in J keep the gamma
# side small; for depth, many small generators keep the complex of I small
# and few large ones keep the faces of J few, within exact-homology reach.
FAMILIES = {
    "invariants": Family("invariants", (18, 19, 20, 21, 22), 8,
                         Shape(6, 28, 2, 3), Shape(2, 6, 3, 6)),
    "skeleton": Family("skeleton", (11, 12, 13, 14), 9,
                       Shape(6, 28, 2, 3), Shape(20, 40, 2, 2)),
    "depth": Family("depth", (7, 8, 9, 10), 9,
                    Shape(8, 18, 2, 3), Shape(1, 4, 4, 7)),
}


@dataclass(frozen=True)
class BaseProblem:
    """One pair of the base set, as generator masks over variables 0..n-1."""

    index: int
    n: int
    kind: str
    upper: tuple[int, ...]  # J; () with kind "quotient" means the unit ideal
    lower: tuple[int, ...]  # I; () with kind "module" means the zero ideal

    def text(self, perm=None, rng=None, label=None) -> str:
        """The problem file, with variable i renamed to perm[i] and the
        generators of each ideal in an order drawn from rng."""
        upper = "unit" if self.kind == "quotient" else _ideal_text(self.upper, perm, rng)
        lower = "zero" if self.kind == "module" else _ideal_text(self.lower, perm, rng)
        label = label or f"{self.kind} n={self.n} base={self.index}"
        return f"n: {self.n}\nlabel: {label}\nJ: {upper}\nI: {lower}\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()[:16]


def _ideal_text(masks, perm, rng) -> str:
    masks = sorted(masks, key=lambda m: (m.bit_count(), m))
    if rng is not None:
        rng.shuffle(masks)
    names = []
    for m in masks:
        bits = [i for i in range(m.bit_length()) if m >> i & 1]
        if perm is not None:
            bits = sorted(perm[i] for i in bits)
        names.append("*".join(f"x{i + 1}" for i in bits))
    return ", ".join(names)


def _random_mask(rng: random.Random, n: int, lo: int, hi: int) -> int:
    return sum(1 << b for b in rng.sample(range(n), rng.randint(lo, hi)))


def _antichain(masks) -> tuple[int, ...]:
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def _base_problem(family: Family, index: int, n: int, kind: str,
                  rng: random.Random) -> BaseProblem:
    if kind == "quotient":
        return BaseProblem(index, n, kind, (), family.quotient.draw(rng, n))
    gens = family.upper.draw(rng, n)
    if kind == "module":
        return BaseProblem(index, n, kind, gens, ())
    # Every generator of I is a proper multiple of a generator of J, so I
    # lies in J, and I differs from J because J is an antichain.
    multiples = []
    for _ in range(rng.randint(1, 4)):
        base = rng.choice(gens)
        outside = [b for b in range(n) if not base >> b & 1]
        extra = rng.sample(outside, rng.randint(1, 2))
        multiples.append(base | sum(1 << b for b in extra))
    return BaseProblem(index, n, kind, gens, _antichain(multiples))


def base_problems(family: Family) -> list[BaseProblem]:
    """The fixed base set of a family, in stratum order."""
    rng = random.Random(f"{BASE_SEED}:{family.name}")
    problems = []
    for n in family.n_values:
        for kind in KINDS:
            for _ in range(family.per_stratum):
                problems.append(_base_problem(family, len(problems), n, kind, rng))
    return problems


def seeded_requests(family: Family, seed: int) -> list[tuple[BaseProblem, str]]:
    """The family's base set in request order, renamed by the workload seed.

    Returns (base problem, problem text) pairs.
    """
    order = base_problems(family)
    random.Random(f"{BASE_SEED}:{family.name}:order").shuffle(order)
    rng = random.Random(f"{seed}:{family.name}")
    out = []
    for problem in order:
        perm = list(range(problem.n))
        rng.shuffle(perm)
        label = f"{family.name} seed={seed} base={problem.index}"
        out.append((problem, problem.text(perm, rng, label)))
    return out
