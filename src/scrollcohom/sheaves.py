"""Catalog sheaves and their cohomology.

A SheafSpec is a direct sum of pieces Omega^i(T), twisted exterior powers
of the relative cotangent bundle, stored as the sorted tuple of its pairs
(i, T); i = 0 is the line bundle O(T), so a split bundle is its line
pieces.  These are exactly the sheaves the engines compute, and they are
closed under twists and duals, piece by piece: O(T)^dual = O(-T) and

    (Omega^i)^dual = Omega^{n-i} <n+1, -c>,

so the dual of Omega^i(T) is Omega^{n-i}((n+1, -c) - T).  Only the JSON and
the printed name keep the spelling, split or omega, a sheaf was given in; a
sum with an Omega piece that is not spelled omega is written as its pieces,
{"pieces": [[i, [p, q]], ...]}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cohomology import SplitBundle, add_tables, check_omega_index, omega_cohom
from .scroll import ZERO, DivClass, Scroll, json_int


@dataclass(frozen=True)
class SheafSpec:
    pieces: tuple[tuple[int, DivClass], ...]
    spelled_omega: bool = False  # given as {"omega": ...}, so one piece

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a split bundle needs at least one summand")
        object.__setattr__(self, "pieces", tuple(sorted(self.pieces)))

    @staticmethod
    def from_split(summands) -> "SheafSpec":
        return SheafSpec(tuple((0, DivClass(p, q)) for p, q in summands))

    @staticmethod
    def from_omega(i: int, twist: DivClass = ZERO) -> "SheafSpec":
        return SheafSpec(((i, twist),), True)

    # read-only views in the split/omega spelling, None for the other one
    @property
    def split(self) -> SplitBundle | None:
        if self.spelled_omega or any(i for i, _ in self.pieces):
            return None
        return SplitBundle(tuple(t for _, t in self.pieces))

    @property
    def omega_i(self) -> int | None:
        return self.pieces[0][0] if self.spelled_omega else None

    @property
    def omega_twist(self) -> DivClass | None:
        return self.pieces[0][1] if self.spelled_omega else None

    def dual(self, x: Scroll) -> "SheafSpec":
        """Piece by piece; the dual of Omega^0 or Omega^n is spelled split."""
        pieces = []
        for i, t in self.pieces:
            check_omega_index(x, i)
            pieces.append((0, -t) if i == 0 else (x.n - i, DivClass(x.n + 1, -x.c) - t))
        return SheafSpec(tuple(pieces), self.spelled_omega and pieces[0][0] > 0)

    def describe(self) -> str:
        return "+".join(f"Omega^{i}({t.p},{t.q})" if self.spelled_omega or i else f"O({t.p},{t.q})"
                        for i, t in self.pieces)

    def to_json(self) -> dict:
        if self.spelled_omega:
            return {"omega": {"i": self.omega_i, "twist": self.omega_twist.to_json()}}
        if self.split is None:
            return {"pieces": [[i, t.to_json()] for i, t in self.pieces]}
        return {"split": [t.to_json() for _, t in self.pieces]}

    @staticmethod
    def from_json(data) -> "SheafSpec":
        try:
            if "split" in data:
                return SheafSpec(tuple((0, DivClass.from_json(s)) for s in data["split"]))
            if "pieces" in data:
                return SheafSpec(tuple(_piece(piece) for piece in data["pieces"]))
            return SheafSpec.from_omega(json_int(data["omega"]["i"], "omega 'i'"),
                                        DivClass.from_json(data["omega"]["twist"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"sheaf descriptor must look like {{'split':[[0,0]]}}, "
                             f"{{'omega':{{'i':1,'twist':[0,0]}}}} or {{'pieces':[[1,[0,0]],[0,[1,0]]]}}: {exc}")


def _piece(data) -> tuple[int, DivClass]:
    """One [i, [p, q]] entry of a {"pieces": ...} descriptor."""
    if not (isinstance(data, list) and len(data) == 2):
        raise ValueError(f"a sheaf piece must be an [i, [p, q]] pair, got {data!r}")
    return json_int(data[0], "piece index i"), DivClass.from_json(data[1])


@lru_cache(maxsize=2**14)
def sheaf_cohom(x: Scroll, spec: SheafSpec, t: DivClass = ZERO) -> tuple[int, ...]:
    """Cohomology table of the catalog sheaf twisted by t: the entrywise sum
    of :func:`omega_cohom` over its pieces."""
    table = None
    for i, s in spec.pieces:
        piece = omega_cohom(x, i, s + t)
        table = piece if table is None else add_tables(table, piece)
    return table


def sheaf_h(x: Scroll, spec: SheafSpec, k: int, t: DivClass = ZERO) -> int:
    if k < 0 or k > x.dim:
        return 0
    return sheaf_cohom(x, spec, t)[k]
