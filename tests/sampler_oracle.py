"""The original ``lattice.random_subspace``, kept as an oracle.

``_random_rational`` and ``random_subspace`` are copied verbatim from the
sampler that built a ``Fraction`` and a ``Scalar`` for every entry and then
took them apart with ``_integer_row``, before it came to draw integer rows
directly.  Tests check that the integer sampler returns the same Subspace
and leaves its RNG in the same state.
"""

import random

from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, Subspace, _canonical
from ortholab.linalg import Rational, Scalar, _integer_row

_NUMERATOR_BOUND = 3
_DENOMINATORS = (1, 2, 3)


def _random_rational(rng: random.Random):
    return Rational(rng.randint(-_NUMERATOR_BOUND, _NUMERATOR_BOUND), rng.choice(_DENOMINATORS))


def random_subspace(rng: random.Random, space_dim: int, field: str = GAUSSIAN_RATIONAL) -> Subspace:
    """Draw a proper subspace: dimension uniform in 1..space_dim-1, small
    rational entries, resampled until the requested rank is hit."""
    if space_dim < 2:
        raise ValueError("need space_dim >= 2 to sample a proper subspace")
    if field not in (GAUSSIAN_RATIONAL, RATIONAL_REAL):
        raise ValueError(f"unknown scalar field {field!r}")
    gaussian = field == GAUSSIAN_RATIONAL
    k = rng.randint(1, space_dim - 1)
    while True:
        rows = []
        for _ in range(k):
            row = []
            for _ in range(space_dim):
                re = _random_rational(rng)
                im = _random_rational(rng) if gaussian else 0
                row.append(Scalar(re, im))
            rows.append(_integer_row(row)[0])
        candidate = _canonical(rows, space_dim)
        if candidate.dim == k:
            return candidate
