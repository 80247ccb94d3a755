"""Differential test: ``lattice.random_subspace`` against the original sampler.

The sampler draws integer rows directly; the oracle (``sampler_oracle``)
builds a Fraction and a Scalar per entry as it used to.  On 2,100 seeded
substreams, over dimensions 2-8 and both scalar fields, both must return an
equal Subspace, make the same number of ``randint`` calls and leave the
RNG in the same state, so every seed keeps reproducing its draws.  Some
substreams draw a rank-deficient set of rows and resample; those are
pinned below, so the test always covers the resample loop.
"""

import random

import pytest
from sampler_oracle import random_subspace as oracle_random_subspace

from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, random_subspace

DIMS = range(2, 9)
FIELDS = (GAUSSIAN_RATIONAL, RATIONAL_REAL)
TRIALS = 150  # per dimension and field

# (dim, field) -> trial indices whose first draw is rank-deficient: every one
# below TRIALS, and the first four of the Gaussian dimension-2 substreams
RESAMPLING = {
    (2, GAUSSIAN_RATIONAL): (2713, 3450, 4896, 7067),
    (2, RATIONAL_REAL): (6, 19, 79, 84, 130),
    (3, RATIONAL_REAL): (24, 41, 43),
}


class CountingRandom(random.Random):
    """A Random that counts its ``randint`` calls."""

    def __init__(self, seed):
        self.randints = 0
        super().__init__(seed)

    def randint(self, a, b):
        self.randints += 1
        return super().randint(a, b)


def _draw_both(dim, field, trial) -> bool:
    """Draw from one substream with both samplers, assert they agree; True if it resampled."""
    seed = f"sampler-oracle/{dim}/{field}:{trial}"
    rng, oracle_rng = CountingRandom(seed), CountingRandom(seed)
    got = random_subspace(rng, dim, field)
    expected = oracle_random_subspace(oracle_rng, dim, field)
    assert got == expected and got.rows == expected.rows
    assert rng.getstate() == oracle_rng.getstate()
    assert rng.randints == oracle_rng.randints
    # one randint for the dimension, then one per part drawn
    parts = dim * (2 if field == GAUSSIAN_RATIONAL else 1)
    return rng.randints > 1 + got.dim * parts


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("dim", DIMS)
def test_sampler_matches_the_oracle(dim, field):
    resampled = [trial for trial in range(TRIALS) if _draw_both(dim, field, trial)]
    assert resampled == [t for t in RESAMPLING.get((dim, field), ()) if t < TRIALS]


@pytest.mark.parametrize("dim, field", sorted(RESAMPLING))
def test_resampled_draws_match_the_oracle(dim, field):
    for trial in RESAMPLING[dim, field]:
        assert _draw_both(dim, field, trial)
