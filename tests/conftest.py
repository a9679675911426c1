"""Hypothesis profiles of the test suite.

The default profile is derandomized and keeps no example database:
every run of the suite draws the same examples, so a failure reproduces
on the next run and a rare draw is not charged to whatever change
happens to be under test. The search for rare defects runs apart, in
the "long" profile, which draws fresh random examples, LONG_FACTOR
times as many per property test:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=long

Property tests take their example count from examples(n), and tests
that a function leaves its input untouched hand it arrays in_layout.
"""

import numpy as np
from hypothesis import settings

LONG_FACTOR = 20

# "long" first: it inherits hypothesis' own defaults, the example database too
settings.register_profile("long", deadline=None)
settings.register_profile("default", derandomize=True, database=None, deadline=None)
# the hypothesis plugin loads a profile named by --hypothesis-profile
# when pytest is configured; without one, load the re-registered default
if settings.get_current_profile_name() == "default":
    settings.load_profile("default")


def examples(n: int) -> int:
    """max_examples for a property test: n, or n * LONG_FACTOR under "long"."""
    return n * LONG_FACTOR if settings.get_current_profile_name() == "long" else n


LAYOUTS = ("C", "Fortran", "sliced")


def in_layout(x, layout: str):
    """x's values as a C-ordered copy, a Fortran-ordered copy, or a view
    taking every other element of each axis of a larger array."""
    if layout == "Fortran":
        return np.asfortranarray(x)
    if layout == "sliced":
        wide = np.full(tuple(2 * n for n in x.shape), np.nan)
        view = wide[tuple(slice(None, None, 2) for _ in x.shape)]
        view[...] = x
        return view
    return np.array(x, order="C")
