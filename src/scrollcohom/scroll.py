"""Scroll data and Picard-lattice arithmetic.

A scroll is the projectivization X = P(O(a_0) + ... + O(a_n)) of a sum of
line bundles over P^m.  Its Picard group is generated by H, the relatively
ample class O_X(1), and F, the pullback of the hyperplane class from the
base.  Everything downstream (cohomology, regularity, splitting checks)
speaks in integer pairs p*H + q*F.

All values here are immutable after construction and can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass


def json_int(value, what: str) -> int:
    """An integer field of a JSON descriptor.  Floats, strings and booleans
    are refused rather than truncated or coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, order=True)
class DivClass:
    """A divisor class p*H + q*F, stored as a plain integer pair."""

    p: int
    q: int

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "DivClass":
        return DivClass(-self.p, -self.q)

    def to_json(self) -> list[int]:
        return [self.p, self.q]

    @staticmethod
    def from_json(data) -> "DivClass":
        if not (isinstance(data, (list, tuple)) and len(data) == 2):
            raise ValueError(f"divisor class must be a two-element array, got {data!r}")
        return DivClass(*(json_int(v, "divisor class entry") for v in data))


ZERO = DivClass(0, 0)

# Every cohomology table holds dim + 1 cells, and line cohomology sums over
# all m + 1 of the base's: cost is linear in dim, with no other bound.  On
# P(O(1)+O(2)) over P^{10^6}, `cohom` of O took 0.7 s CPU, of O(H) 0.9 s, and
# `table` at one twist 0.8 s (Python 3.11, 2-vCPU VM); at m = 10^19 a table
# cannot be allocated at all.
TABLE_CELL_BUDGET = 10**6


@dataclass(frozen=True)
class Scroll:
    """The pair (base dimension m, fiber dimension n, twists a_0 <= ... <= a_n).

    Twists are sorted on construction; c = sum(a) is derived.  A point
    (m = n = 0) is rejected, and so is a scroll whose cohomology tables,
    dim + 1 cells, exceed TABLE_CELL_BUDGET: every scroll is built here, so
    no command meets one.  Negative twists are accepted here; operations
    that need positivity enforce it themselves.
    """

    m: int
    n: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.m + self.n < 1:
            raise ValueError("degenerate point: need m + n >= 1")
        if self.dim + 1 > TABLE_CELL_BUDGET:
            raise ValueError(f"a scroll of dimension {self.dim} has cohomology tables of {self.dim + 1} cells, "
                             f"over the budget of {TABLE_CELL_BUDGET}")
        if len(self.a) != self.n + 1:
            raise ValueError(f"need {self.n + 1} twists for fiber dimension {self.n}, got {len(self.a)}")
        object.__setattr__(self, "a", tuple(sorted(int(x) for x in self.a)))

    @property
    def c(self) -> int:
        return sum(self.a)

    @property
    def dim(self) -> int:
        return self.m + self.n

    @property
    def is_positive(self) -> bool:
        return self.a[0] > 0

    @property
    def is_semipositive(self) -> bool:
        return self.a[0] >= 0

    def normalize_class(self, d: DivClass) -> DivClass:
        """Canonical form of a class: q = 0 when m = 0 (F is trivial), and
        (0, p*c + q) when n = 0 (H = c*F)."""
        if self.m == 0:
            return DivClass(d.p, 0)
        if self.n == 0:
            return DivClass(0, d.p * self.c + d.q)
        return d

    def divclass(self, p: int, q: int) -> DivClass:
        return self.normalize_class(DivClass(p, q))

    def canonical_class(self) -> DivClass:
        """K_X = -(n+1)H + (c-1-m)F."""
        return self.normalize_class(DivClass(-(self.n + 1), self.c - 1 - self.m))

    def relative_canonical(self) -> DivClass:
        """The relative dualizing class over the base: -(n+1)H + cF."""
        return self.normalize_class(DivClass(-(self.n + 1), self.c))

    def serre_dual_twist(self, d: DivClass) -> DivClass:
        return self.normalize_class(self.canonical_class() - d)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "a": list(self.a)}

    @staticmethod
    def from_json(data) -> "Scroll":
        try:
            return make_scroll(json_int(data["m"], "scroll 'm'"), json_int(data["n"], "scroll 'n'"),
                               [json_int(x, "scroll twist") for x in data["a"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"scroll descriptor must look like {{'m':1,'n':1,'a':[1,2]}}: {exc}")

    def __str__(self) -> str:
        return f"P(O({')+O('.join(str(x) for x in self.a)})) over P^{self.m}"


def make_scroll(m: int, n: int, a) -> Scroll:
    return Scroll(m, n, tuple(a))


@dataclass(frozen=True)
class TwistMap:
    """Basis change produced by re-twisting the defining bundle by O(w).

    The new scroll has twists a_i + w and H' = H + wF, so a class written
    as (p, q) in the old basis reads (p, q - w*p) in the new one.  Line
    bundle cohomology is invariant under this translation.
    """

    w: int

    def apply(self, d: DivClass) -> DivClass:
        return DivClass(d.p, d.q - self.w * d.p)

    def invert(self, d: DivClass) -> DivClass:
        return DivClass(d.p, d.q + self.w * d.p)


def normalize_twist(x: Scroll, w: int) -> tuple[Scroll, TwistMap]:
    """Re-twist the defining bundle by O(w) and return the class translation."""
    return Scroll(x.m, x.n, tuple(ai + w for ai in x.a)), TwistMap(w)
