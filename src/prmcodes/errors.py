"""The guard exception and the default of every overridable guard."""

POINT_GUARD = 10 ** 5      # points in one affine or projective point list
ORACLE_GUARD = 1 << 24     # codewords one exhaustive walk may visit
WITNESS_GUARD = 10 ** 7    # form tuples, incidence tuples or flag pairs
RANK_LEN_GUARD = 400       # code length up to which a sweep builds and ranks G


class GuardExceeded(ValueError):
    """An enumeration or construction would exceed its desk-scale guard.

    Guards are explicit parameters with the defaults above; they are never
    raised silently and callers may widen them deliberately.  The message
    names the guard, the value needed and the limit, e.g.
    ``oracle guard: 3^20 codewords > 16777216``.
    """

    def __init__(self, guard: str, needed: str, limit: int):
        super().__init__(f"{guard} guard: {needed} > {limit}")
