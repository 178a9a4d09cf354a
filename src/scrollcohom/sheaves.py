"""Catalog sheaf descriptions and cohomology dispatch.

A SheafSpec is either a split bundle (finite multiset of line bundle
classes) or a twist of an exterior power of the relative cotangent bundle,
Omega^i(T).  These are exactly the sheaves whose cohomology the engines can
compute, and the two kinds are closed under duals and twists:

    (Omega^i)^dual = Omega^{n-i} <n+1, -c>

so the dual of omega(i, T) is omega(n-i, (n+1, -c) - T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cohomology import SplitBundle, bundle_cohom, check_omega_index, omega_cohom
from .scroll import ZERO, DivClass, Scroll, json_int


@dataclass(frozen=True)
class SheafSpec:
    kind: str  # "split" | "omega"
    split: SplitBundle | None = None
    omega_i: int | None = None
    omega_twist: DivClass | None = None

    @staticmethod
    def from_split(summands) -> "SheafSpec":
        return SheafSpec("split", split=SplitBundle(tuple(DivClass(p, q) for p, q in summands)))

    @staticmethod
    def from_omega(i: int, twist: DivClass = ZERO) -> "SheafSpec":
        return SheafSpec("omega", omega_i=i, omega_twist=twist)

    def dual(self, x: Scroll) -> "SheafSpec":
        if self.kind == "split":
            return SheafSpec("split", split=self.split.dual())
        check_omega_index(x, self.omega_i)
        dual_twist = DivClass(x.n + 1, -x.c) - self.omega_twist
        return SheafSpec("omega", omega_i=x.n - self.omega_i, omega_twist=dual_twist)

    def describe(self) -> str:
        if self.kind == "split":
            return "+".join(f"O({s.p},{s.q})" for s in self.split.summands)
        t = self.omega_twist
        return f"Omega^{self.omega_i}({t.p},{t.q})"

    def to_json(self) -> dict:
        if self.kind == "split":
            return self.split.to_json()
        return {"omega": {"i": self.omega_i, "twist": self.omega_twist.to_json()}}

    @staticmethod
    def from_json(data) -> "SheafSpec":
        try:
            if "split" in data:
                return SheafSpec("split", split=SplitBundle.from_json(data["split"]))
            return SheafSpec.from_omega(json_int(data["omega"]["i"], "omega 'i'"),
                                        DivClass.from_json(data["omega"]["twist"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"sheaf descriptor must look like {{'split':[[0,0]]}} or "
                             f"{{'omega':{{'i':1,'twist':[0,0]}}}}: {exc}")


@lru_cache(maxsize=2**14)
def sheaf_cohom(x: Scroll, spec: SheafSpec, t: DivClass = ZERO) -> tuple[int, ...]:
    """Cohomology table of the catalog sheaf twisted by t."""
    if spec.kind == "split":
        return bundle_cohom(x, spec.split, t)
    return omega_cohom(x, spec.omega_i, spec.omega_twist + t)


def sheaf_h(x: Scroll, spec: SheafSpec, k: int, t: DivClass = ZERO) -> int:
    if k < 0 or k > x.dim:
        return 0
    return sheaf_cohom(x, spec, t)[k]
