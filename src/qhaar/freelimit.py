"""Moment oracles for free semicircular and free circular families.

These are the N -> infinity limits of the normalized generator families.
All free cumulants beyond order 2 vanish for (semi)circular variables, so
joint moments are plain counts of non-crossing pairings whose pairs join
equal labels (and, in the circular case, a 1 with a *): the same pairing
list and label filter as the finite-N moments, counted instead of summed
against Wg, since N^{k/2} Wg tends to the identity.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from . import pairings

Label = tuple[int, int]


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def semicircular_moment(labels: Sequence[Label]) -> int:
    """tau(s_{l1} s_{l2} ... s_{lk}) for a free semicircular family.

    Counts non-crossing pairings joining equal labels; 0 for odd length.
    """
    plist = pairings.word_pairings(len(labels))
    return len(pairings.compatible_indices(plist, labels))


def circular_moment(letters: Sequence[tuple[Label, str]]) -> int:
    """phi(c^eps1 ... c^epsk) for a free circular family.

    Pairs must join equal labels and opposite star flags; 0 when the counts
    of 1 and * differ.
    """
    plist = pairings.enumerate_nc_pairings(len(letters))
    labels = list(zip((label for label, _ in letters),
                      pairings._parity([e for _, e in letters])))
    return len(pairings.compatible_indices(plist, labels))

