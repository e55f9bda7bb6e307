"""Exception types shared across the package.

Plain argument mistakes (bad vertex index, malformed file, overlapping
partition blocks) raise ValueError.  The classes below mark the three
outcomes that callers are expected to branch on.
"""
from typing import Iterable


class SizeCapError(Exception):
    """An exact/brute-force routine was asked to exceed its size cap.

    Raised instead of silently approximating.  Most caps can be lifted
    explicitly via a ``max_n`` style argument; doing so is slow.
    """


def _check_cap(name: str, value: int, cap: int):
    """Raise SizeCapError when ``value`` exceeds ``cap``."""
    if value > cap:
        raise SizeCapError(f"{name}: size {value} exceeds cap {cap}; pass max_n to override (slow)")


def _check_radius(r: int, least: int = 0):
    """Raise ValueError when the radius ``r`` is below ``least``.

    This is the package's one radius rule: every routine taking a radius
    needs r >= 0, and a routine that needs at least one step (``least=1``:
    domination, duality, closures, kernels) needs r >= 1.
    """
    if r < least:
        raise ValueError("radius must be nonnegative" if least == 0
                         else f"radius must be at least {least}")


def _check_vertices(n: int, vertices: Iterable[int]):
    """Raise ValueError naming the first of ``vertices``, in their
    iteration order, outside ``0..n-1``, if any."""
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")


class InfeasibleError(Exception):
    """The requested object cannot exist for this instance.

    Examples: a red-blue instance where some red vertex is not dominated
    by any blue vertex, or a strongly connected dominating set of a graph
    that is not strongly connected.
    """


class InternalInvariantError(Exception):
    """A postcondition that the algorithm guarantees failed to hold.

    This always indicates a bug, never bad input.
    """
