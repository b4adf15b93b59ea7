"""The per-pair scratch lookup shared by the metrics."""

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
