"""The scratch lookups shared by the metrics."""

from __future__ import annotations


def from_scratch(scratch: dict | None, key, compute):
    """Intermediate ``key`` of the pair ``scratch`` belongs to, computed by
    ``compute()`` on a miss. A miss first drops the one entry the scratch
    held, so sharing never keeps two intermediates of a pair alive."""
    if scratch is None:
        return compute()
    if key not in scratch:
        scratch.clear()
        scratch[key] = compute()
    return scratch[key]


def from_ref_scratch(ref_scratch: dict | None, key, compute):
    """Reference-only intermediate ``key`` of the reference ``ref_scratch``
    belongs to, computed by ``compute()`` on a miss. Nothing is evicted: the
    scratch lives for one reference plane, view or complex crop and holds at
    most one entry per key (a list entry may grow), for the distorted
    versions scored against it."""
    if ref_scratch is None:
        return compute()
    if key not in ref_scratch:
        ref_scratch[key] = compute()
    return ref_scratch[key]
