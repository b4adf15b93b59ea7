"""Sparseness-significance ranking measures (SSRM / SSRMt).

Both variants transform the pair to the frequency domain, rank coefficient
magnitudes and score the agreement of the two rankings, weighting each
coefficient by its share of the reference magnitude mass (the sparseness
significance). Per-coefficient agreement is 1 - |rank_ref - rank_dist|/(n-1)
with mid-ranks for ties, so the score lies in [0,1] and equals 1 for
identical inputs or any positive rescaling of the reference.

SSRM scores the DC coefficient separately (as the ratio of the smaller to
the larger DC magnitude) and blends it with the AC ranking score by the DC
magnitude share; SSRMt ranks the DC term together with all other
coefficients.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from ..errors import DegenerateReference
from .params import from_ref_scratch, from_scratch
from .pointwise import _as_pair


def _spectral_ranks(img: np.ndarray):
    """FFT magnitudes of one image and their descending mid-ranks."""
    a = np.abs(np.fft.fft2(np.asarray(img, dtype=np.complex128))).ravel()
    return a, rankdata(-a, method="average")


def _pair_ranks(ref, dist, scratch, ref_scratch):
    """Magnitudes and mid-ranks of a pair, shared by ssrm and ssrmt through
    the pair ``scratch``; the reference's half comes from ``ref_scratch``."""
    def compute():
        r, d, _ = _as_pair(ref, dist)
        a_ref, r_ref = from_ref_scratch(ref_scratch, "spectrum",
                                        lambda: _spectral_ranks(r))
        a_dist, r_dist = _spectral_ranks(d)
        return a_ref, a_dist, r_ref, r_dist
    return from_scratch(scratch, "spectral_ranks", compute)


def _ac_ranks(a: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Mid-ranks of -a[1:] from those of -a: dropping DC lowers each smaller
    magnitude's rank by 1 and each tied one's by 1/2 (exact: half-integers)."""
    dc, ac = a[0], a[1:]
    return ranks[1:] - (dc > ac) - 0.5 * (dc == ac)


def _rank_agreement(a_ref: np.ndarray, r_ref: np.ndarray, r_dist: np.ndarray) -> float:
    """Significance-weighted agreement of two rankings of the magnitudes a_ref."""
    total = a_ref.sum()
    if total == 0.0:
        raise DegenerateReference("zero-energy reference spectrum")
    n = a_ref.size
    if n == 1:
        return 1.0
    agreement = 1.0 - np.abs(r_ref - r_dist) / (n - 1)
    # normalize the weighted sum by the total mass at the end so identical
    # rankings score exactly 1
    return float(np.sum(a_ref * agreement) / total)


def ssrm(ref, dist, scratch: dict | None = None,
         ref_scratch: dict | None = None) -> float:
    """SSRM: DC term scored separately, blended by its magnitude share."""
    a_ref, a_dist, r_ref, r_dist = _pair_ranks(ref, dist, scratch, ref_scratch)
    dc_ref, dc_dist = a_ref[0], a_dist[0]
    ac_ref = a_ref[1:]
    if a_ref.sum() == 0.0:
        raise DegenerateReference("zero-energy reference spectrum")
    if dc_ref == 0.0 and dc_dist == 0.0:
        dc_score = 1.0
    else:
        dc_score = float(min(dc_ref, dc_dist) / max(dc_ref, dc_dist))
    if ac_ref.size == 0 or ac_ref.sum() == 0.0:
        ac_score, alpha = 1.0, 1.0
    else:
        ac_score = _rank_agreement(ac_ref, _ac_ranks(a_ref, r_ref),
                                   _ac_ranks(a_dist, r_dist))
        alpha = float(dc_ref / a_ref.sum())
    if dc_score == ac_score:
        return dc_score
    return alpha * dc_score + (1.0 - alpha) * ac_score


def ssrmt(ref, dist, scratch: dict | None = None,
          ref_scratch: dict | None = None) -> float:
    """SSRMt: the DC term is ranked just like any other coefficient."""
    a_ref, _, r_ref, r_dist = _pair_ranks(ref, dist, scratch, ref_scratch)
    return _rank_agreement(a_ref, r_ref, r_dist)
