"""Seeded random instance generation for self-checks and test suites."""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .linalg import VectorFamily

_NUMERATORS = (-2, -1, 0, 1, 2, 3)
_DENOMINATORS = (1, 1, 1, 2, 3)


def random_vector(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
        for _ in range(dim)
    )


def random_family(
    rng: random.Random, n: int, dim: int, adversarial: bool = False
) -> VectorFamily:
    """A random family; adversarial mode mixes in repeats and zero vectors."""
    vectors = [random_vector(rng, dim) for _ in range(n)]
    if adversarial and n > 1:
        for _ in range(rng.randrange(n)):
            choice = rng.random()
            i = rng.randrange(n)
            if choice < 0.5:
                vectors[i] = vectors[rng.randrange(n)]
            elif choice < 0.75:
                vectors[i] = tuple(Fraction(0) for _ in range(dim))
            else:
                scale = Fraction(rng.choice((-2, -1, 2, 3)))
                vectors[i] = tuple(scale * x for x in vectors[rng.randrange(n)])
    return VectorFamily(dim, tuple(vectors))


def scaled_family(
    rng: random.Random, base: VectorFamily, unit_product: bool
) -> VectorFamily:
    """Scale each vector by a nonzero rational.

    With unit_product the scalars multiply to 1, which preserves the
    symmetrized tensor for every shape; otherwise the product is forced
    away from 1.
    """
    n = len(base)
    scalars = [
        Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2))) for _ in range(n)
    ]
    product = math.prod(scalars)
    if unit_product:
        scalars[-1] /= product
    elif product == 1:
        scalars[-1] *= 2
    return VectorFamily(
        base.dim,
        tuple(
            tuple(s * x for x in v) for s, v in zip(scalars, base.vectors)
        ),
    )


def shifted_family(base: VectorFamily) -> VectorFamily:
    """u = g.v for g the cyclic shift of coordinates, the new first one
    negated when dim is even, so that det g = 1.

    g is no rescaling, so v's and u's eliminations swap different rows,
    yet for every shape (k^dim) the symmetrized tensors are equal: g acts
    on that isotypic component by det(g)^k.
    """
    sign = -1 if base.dim % 2 == 0 else 1
    return VectorFamily(
        base.dim, tuple((sign * v[-1], *v[:-1]) for v in base.vectors)
    )
