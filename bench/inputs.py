"""Seeded input generators owned by the benchmark.

Everything here is plain stdlib data (lists of ints or Fractions, label
strings), so the inputs do not depend on the library under test or on the
test suite's helpers: changing either cannot shift what a seed generates.
``digest`` fingerprints a workload's inputs so runs can prove they saw the
same ones.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def subset_sums(weights):
    sums = [0] * (1 << len(weights))
    for s in range(1, len(sums)):
        low = s & -s
        sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
    return sums


# Submodular by construction, integer valued ----------------------------------

def coverage(rng: random.Random, m: int) -> list[int]:
    """Weighted coverage: v(A) = weight of the union of the sets of A."""
    universe = m + 3
    weights = [rng.randint(0, 6) for _ in range(universe)]
    covers = [sum(1 << u for u in range(universe) if rng.random() < 0.5)
              for _ in range(m)]
    union = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        union[s] = union[s ^ low] | covers[low.bit_length() - 1]
    return [sum(weights[u] for u in range(universe) if c >> u & 1) for c in union]


def capped_sum(rng: random.Random, m: int) -> list[int]:
    """Sum of capped measures min(c_k, nu_k(A))."""
    values = [0] * (1 << m)
    for _ in range(rng.randint(1, 3)):
        sums = subset_sums([rng.randint(0, 5) for _ in range(m)])
        cap = rng.randint(4, 12)
        values = [v + min(cap, s) for v, s in zip(values, sums)]
    return values


def modular(rng: random.Random, m: int) -> list[int]:
    return subset_sums([rng.randint(0, 8) for _ in range(m)])


SUBMODULAR_KINDS = {"coverage": coverage, "capped": capped_sum,
                    "modular": modular}


# Generic monotone: almost never submodular ---------------------------------

def generic_monotone(rng: random.Random, m: int,
                     rational: bool) -> list[Fraction]:
    """Grow each subset over its largest child by a random bump."""
    values = [Fraction(0)] * (1 << m)
    for s in range(1, 1 << m):
        floor = max(values[s ^ (1 << i)] for i in range(m) if s >> i & 1)
        bump = Fraction(rng.randint(0, 9))
        if rational:
            bump += Fraction(rng.randint(0, 3), rng.randint(1, 4))
        values[s] = floor + bump
    return values


def integrand(rng: random.Random, m: int, lo: int = 0,
              hi: int = 9) -> list[Fraction]:
    return [Fraction(rng.randint(lo, hi)) for _ in range(m)]


# Weighted spaces -------------------------------------------------------------

def uniform_space(rng: random.Random, m: int):
    """Uniform reference weights, pairwise distinct integer densities.

    Integer densities keep the cost of enumerating rearrangements the same
    from seed to seed."""
    weight = Fraction(rng.randint(1, 3))
    return [weight] * m, [Fraction(x) for x in rng.sample(range(1, 60), m)]


def general_space(rng: random.Random, m: int):
    """Non-uniform reference weights, densities drawn from three tied levels."""
    nu = [Fraction(rng.randint(1, 4)) for _ in range(m)]
    levels = [Fraction(x) for x in rng.sample(range(1, 10), 3)]
    return nu, [rng.choice(levels) for _ in range(m)]


def distinct_space(rng: random.Random, m: int):
    """Non-uniform reference weights, pairwise distinct densities."""
    nu = [Fraction(rng.randint(1, 3)) for _ in range(m)]
    return nu, [Fraction(x) for x in rng.sample(range(1, 4 * m), m)]


def comonotone_partner(rng: random.Random, density) -> list[Fraction]:
    """Nonnegative f that never orders two elements against the density."""
    order = sorted(range(len(density)), key=lambda i: (density[i], i))
    f = [Fraction(0)] * len(density)
    acc = Fraction(rng.randint(0, 3))
    for i in order:
        f[i] = acc
        acc += rng.randint(0, 4)
    return f


# Documents -------------------------------------------------------------------

def labels(m: int) -> list[str]:
    return [str(i + 1) for i in range(m)]


def subset_key(mask: int, m: int) -> str:
    return ",".join(str(i + 1) for i in range(m) if mask >> i & 1)


def set_function_doc(values) -> dict:
    m = (len(values) - 1).bit_length()
    return {"ground_set": labels(m),
            "values": {subset_key(s, m): str(x) for s, x in enumerate(values)}}


def space_doc(nu, density) -> dict:
    return {"ground_set": labels(len(nu)), "nu": [str(x) for x in nu],
            "density": [str(x) for x in density]}


def f_arg(f) -> str:
    return ",".join(str(x) for x in f)


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (Fractions as strings)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()
