"""Monomial complexes of line bundles and their hypercohomology.

The hypercohomology of the two resolutions of Omega^i is the second route
to the closed-form tables of :mod:`scrollcohom.cohomology`, run by the
verify suites and the tests; no production module imports this one or
:mod:`scrollcohom.linalg`.

The exact sequences used downstream (the dual relative Euler sequence, its
exterior powers, the two resolutions of Omega^i by sums of line bundles,
and the pullbacks of Koszul complexes from the base) all have differentials
whose entries are signed monomials in the total coordinate ring.  Such a
complex decomposes as a direct sum over torus characters, and per character
the Cech complex of the affine chart cover U_{ij} = {x_i != 0, y_j != 0}
is finite dimensional.  Hypercohomology is computed per character class by
exact integer rank computation on the total complex, then summed.

Conventions fixed here:

* Exponent vectors have length (m+1)+(n+1), base exponents first.
* Every summand carries a divisor representative, an exponent vector whose
  class equals the summand's class.  A differential entry is admissible
  only if its monomial equals the target representative minus the source
  representative, which is what makes the decomposition by characters
  valid: entries of equal class but different monomials (x_0 vs x_1, say)
  would otherwise be conflated.
* Subset-indexed terms, over a block of variables v (the base coordinates
  x or the fiber coordinates y), use representatives -sum_{i in I} e_{v_i}
  plus a fixed shift per builder, so contraction entries v_i match
  representative differences on the nose.
* The chart cover is the product of the base and fiber covers; per summand
  and character the Cech complex is the tensor product of the two sign
  complexes, with membership of the (S, T) component decided by
  nonnegativity of the exponents outside S and T.
* Total differential: the term-to-term map plus (-1)^position times the
  Cech differential.  d o d = 0 is asserted on every newly assembled
  complex shape.

A character class that contributes no cohomology to any single summand has
exact columns, hence contributes nothing to the total complex; only classes
with at least one contributing character are assembled.  The test suite
spot-checks this on excluded classes.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .characters import enumerate_contributing, valid_rows
# omega_cohom is re-exported: bench/tracer.py wraps it as complexes.omega_cohom
from .cohomology import check_omega_index, omega_cohom, zero_table  # noqa: F401
from .linalg import rank_int
from .scroll import DivClass, Scroll


class Summand(NamedTuple):
    cls: DivClass
    rep: tuple[int, ...]


class MonomialComplex(NamedTuple):
    """A bounded complex of sums of line bundles with signed monomial maps.

    terms[k] maps to terms[k+1]; term k sits in cohomological degree
    start_pos + k.  diffs[k] is a tuple of entries
    (src_index, tgt_index, sign, exponent_vector).
    """

    x: Scroll
    start_pos: int
    terms: tuple[tuple[Summand, ...], ...]
    diffs: tuple[tuple[tuple[int, int, int, tuple[int, ...]], ...], ...] = ()

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self.start_pos + k for k in range(len(self.terms)))

    def twist(self, t: DivClass) -> "MonomialComplex":
        shift = rep_for_class(self.x, t)
        new_terms = tuple(
            tuple(Summand(s.cls + t, tuple(r + d for r, d in zip(s.rep, shift))) for s in term)
            for term in self.terms
        )
        return MonomialComplex(self.x, self.start_pos, new_terms, self.diffs)

    def shape_key(self) -> tuple:
        """Everything the per-character matrices depend on; twisting a
        complex does not change its shape."""
        return (
            self.x.m,
            self.x.n,
            self.start_pos,
            tuple(len(t) for t in self.terms),
            self.diffs,
        )

    def to_json(self) -> dict:
        """Debug dump: terms with classes and representatives, entries with
        signs and monomial exponents."""
        return {
            "scroll": self.x.to_json(),
            "positions": list(self.positions),
            "terms": [[{"class": s.cls.to_json(), "rep": list(s.rep)} for s in term]
                      for term in self.terms],
            "diffs": [[{"src": src, "tgt": tgt, "sign": sign, "monomial": list(expo)}
                       for src, tgt, sign, expo in entries]
                      for entries in self.diffs],
        }


def expo_class(x: Scroll, expo: tuple[int, ...]) -> DivClass:
    """Class of the monomial with the given exponent vector."""
    alpha = expo[: x.m + 1]
    beta = expo[x.m + 1:]
    return DivClass(sum(beta), sum(alpha) - sum(aj * bj for aj, bj in zip(x.a, beta)))


def _unit(x: Scroll, *idx: int) -> tuple[int, ...]:
    """Exponent vector of the product of the variables at the given indices."""
    vec = [0] * (x.m + 1 + x.n + 1)
    for i in idx:
        vec[i] += 1
    return tuple(vec)


def rep_for_class(x: Scroll, d: DivClass) -> tuple[int, ...]:
    """Canonical representative p*(D_{y_0} + a_0 D_{x_0}) + q*D_{x_0}."""
    vec = [0] * (x.m + 1 + x.n + 1)
    vec[0] = d.p * x.a[0] + d.q
    vec[x.m + 1] = d.p
    return tuple(vec)


def single_term_complex(x: Scroll, d: DivClass) -> MonomialComplex:
    return MonomialComplex(x, 0, ((Summand(d, rep_for_class(x, d)),),))


def _koszul_terms(x: Scroll, off: int, count: int, sizes, base, cls) -> tuple[tuple, tuple]:
    """Terms indexed by subsets I of the variable block off..off+count-1 (the
    base coordinates at offset 0, or the fiber coordinates at offset m+1) of
    the given sizes, listed in map order so consecutive sizes differ by -1,
    with contraction differentials e_I -> sum +- v_i e_{I - i}.  The summand
    of I has class cls(|I|, I) and representative base - sum_{i in I} e_{v_i}."""
    terms = []
    index_of = []
    for size in sizes:
        subsets = list(itertools.combinations(range(count), size))
        index_of.append({s: k for k, s in enumerate(subsets)})
        row = []
        for sub in subsets:
            rep = list(base)
            for i in sub:
                rep[off + i] -= 1
            row.append(Summand(cls(size, sub), tuple(rep)))
        terms.append(tuple(row))
    diffs = []
    for k in range(len(sizes) - 1):
        assert sizes[k + 1] == sizes[k] - 1
        entries = []
        for sub, src in index_of[k].items():
            for pos, i in enumerate(sub):
                sign = -1 if pos % 2 else 1
                entries.append((src, index_of[k + 1][sub[:pos] + sub[pos + 1:]], sign, _unit(x, off + i)))
        diffs.append(tuple(entries))
    return tuple(terms), tuple(diffs)


def _subset_terms(x: Scroll, sizes, h_shift: bool) -> tuple[tuple, tuple]:
    """Koszul terms over the fiber block.  With h_shift the classes are
    <1-|I|, a_I> (exterior powers of the Euler term twisted back by H),
    otherwise <-|I|, a_I>."""
    p_off = 1 if h_shift else 0
    return _koszul_terms(x, x.m + 1, x.n + 1, sizes, rep_for_class(x, DivClass(p_off, 0)),
                         lambda size, sub: DivClass(p_off - size, sum(x.a[i] for i in sub)))


def euler_complex(x: Scroll) -> MonomialComplex:
    """The right half of the dual relative Euler sequence,
    (+) O(a_i F) -> O(H); its hypercohomology is H^*(Omega^1(H))."""
    if x.n < 1:
        raise ValueError("the Euler presentation needs fiber dimension >= 1")
    return MonomialComplex(x, 0, *_subset_terms(x, [1, 0], h_shift=True))


def exterior_complex(x: Scroll) -> MonomialComplex:
    """The full exterior power sequence O<-n,c> -> ... -> B -> O(H); exact."""
    if x.n < 1:
        raise ValueError("needs fiber dimension >= 1")
    return MonomialComplex(x, 0, *_subset_terms(x, range(x.n + 1, -1, -1), h_shift=True))


def cotangent_resolution_left(x: Scroll, i: int) -> MonomialComplex:
    """O<-(n+1),c> -> ... -> (+)_{|I|=i+1} O<-(i+1),a_I>, exact onto Omega^i.

    Placed in degrees -(n-i)..0, so hypercohomology computes H^*(Omega^i).
    """
    check_omega_index(x, i)
    return MonomialComplex(x, -(x.n - i), *_subset_terms(x, range(x.n + 1, i, -1), h_shift=False))


def cotangent_resolution_right(x: Scroll, i: int) -> MonomialComplex:
    """(+)_{|I|=i} O<-i,a_I> -> ... -> O, exact under Omega^i.

    Placed in degrees 0..i, so hypercohomology computes H^*(Omega^i).
    """
    check_omega_index(x, i)
    return MonomialComplex(x, 0, *_subset_terms(x, range(i, -1, -1), h_shift=False))


def koszul_pullback(x: Scroll) -> MonomialComplex:
    """Pullback of the Koszul complex of the base coordinates twisted by
    O(F): O(-mF) -> ... -> O^{m+1} -> O(F).  Exact."""
    return MonomialComplex(x, 0, *_koszul_terms(x, 0, x.m + 1, range(x.m + 1, -1, -1),
                                                rep_for_class(x, DivClass(0, 1)),
                                                lambda size, sub: DivClass(0, 1 - size)))


def koszul_pullback_spliced(x: Scroll) -> MonomialComplex:
    """The base Koszul resolution of O<-n,c> spliced into the exterior power
    sequence: O<-n,c-m-1> -> ... -> O^{e_1}<-n,c-1> -> (+)_{|I|=n} O<1-n,a_I>
    -> ... -> B -> O(H).  Exact."""
    if x.n < 1:
        raise ValueError("needs fiber dimension >= 1")
    # representative of O<-n,c>, the leftmost exterior term: a_0 D_{x_0} - sum_{j>=1} D_{y_j}
    base = [0] * (x.m + 1 + x.n + 1)
    base[0] = x.a[0]
    for j in range(1, x.n + 1):
        base[x.m + 1 + j] = -1
    kos_terms, kos_diffs = _koszul_terms(x, 0, x.m + 1, range(x.m + 1, 0, -1), base,
                                         lambda size, sub: DivClass(-x.n, x.c - size))
    ext_terms, ext_diffs = _subset_terms(x, range(x.n, -1, -1), h_shift=True)
    # x_l * y_i from the base subset (l,) at index l to the fiber subset
    # {0..n} - {i} at index n - i, with the sign of contracting y_i
    splice = tuple((l, x.n - i, -1 if i % 2 else 1, _unit(x, l, x.m + 1 + i))
                   for l in range(x.m + 1) for i in range(x.n + 1))
    return MonomialComplex(x, 0, kos_terms + ext_terms, kos_diffs + (splice,) + ext_diffs)


def validate_complex(c: MonomialComplex) -> list[str]:
    """Check class/representative/monomial compatibility and d o d = 0.
    Returns a list of violation descriptions; empty means valid."""
    x = c.x
    problems = []
    for term_idx, term in enumerate(c.terms):
        for s_idx, s in enumerate(term):
            if expo_class(x, s.rep) != s.cls:
                problems.append(f"term {term_idx} summand {s_idx}: representative class "
                                f"{expo_class(x, s.rep)} != {s.cls}")
    for k, entries in enumerate(c.diffs):
        src_term, tgt_term = c.terms[k], c.terms[k + 1]
        for src, tgt, sign, expo in entries:
            if sign not in (1, -1):
                problems.append(f"diff {k} entry ({src},{tgt}): sign {sign}")
            if any(e < 0 for e in expo):
                problems.append(f"diff {k} entry ({src},{tgt}): negative exponent {expo}")
            if expo_class(x, expo) != tgt_term[tgt].cls - src_term[src].cls:
                problems.append(f"diff {k} entry ({src},{tgt}): monomial class mismatch")
            if tuple(r - s for r, s in zip(tgt_term[tgt].rep, src_term[src].rep)) != expo:
                problems.append(f"diff {k} entry ({src},{tgt}): representative difference mismatch")
    for k in range(len(c.diffs) - 1):
        acc: dict[tuple[int, int], int] = {}
        first = {}
        for src, tgt, sign, _ in c.diffs[k]:
            first.setdefault(src, []).append((tgt, sign))
        for mid, tgt, sign2, _ in c.diffs[k + 1]:
            for src, pairs in first.items():
                for t1, sign1 in pairs:
                    if t1 == mid:
                        key = (src, tgt)
                        acc[key] = acc.get(key, 0) + sign1 * sign2
        for key, total in acc.items():
            if total != 0:
                problems.append(f"d o d != 0 at terms {k}->{k+2}, summands {key}: {total}")
    return problems


# ---------------------------------------------------------------------------
# per-character hypercohomology

_PROFILE_CACHE: dict[tuple, dict[int, int]] = {}
_PROFILE_CACHE_MAX = 2**14  # entries; the cache is cleared when full


def _neg_masks(x: Scroll, expo: tuple[int, ...]) -> tuple[int, int]:
    bx = 0
    for i in range(x.m + 1):
        if expo[i] < 0:
            bx |= 1 << i
    by = 0
    for j in range(x.n + 1):
        if expo[x.m + 1 + j] < 0:
            by |= 1 << j
    return bx, by


def _supersets(mask: int, nbits: int) -> list[int]:
    free = [i for i in range(nbits) if not mask & (1 << i)]
    out = []
    for bits in range(1 << len(free)):
        s = mask
        for k, i in enumerate(free):
            if bits & (1 << k):
                s |= 1 << i
        if s:
            out.append(s)
    return out


def _profile_dims(c: MonomialComplex, shape, profile) -> dict[int, int]:
    """Cohomology dimensions of the per-character total complex whose
    summand sign pattern is `profile` (one (negx, negy) mask pair per
    summand, in global order)."""
    x = c.x
    cached = _PROFILE_CACHE.get((shape, profile))
    if cached is not None:
        return cached
    positions = c.positions
    glob = []  # (term_idx, local_idx)
    for v, term in enumerate(c.terms):
        for s_idx in range(len(term)):
            glob.append((v, s_idx))
    basis: dict[int, list[tuple[int, int, int]]] = {}
    index: dict[tuple[int, int, int], int] = {}
    for g, (v, _) in enumerate(glob):
        bx, by = profile[g]
        for smask in _supersets(bx, x.m + 1):
            for tmask in _supersets(by, x.n + 1):
                deg = positions[v] + smask.bit_count() + tmask.bit_count() - 2
                index[(g, smask, tmask)] = len(basis.setdefault(deg, []))
                basis[deg].append((g, smask, tmask))
    local_of = {}
    glob_of = {}
    for g, (v, s_idx) in enumerate(glob):
        local_of[g] = (v, s_idx)
        glob_of[(v, s_idx)] = g
    diff_by_src: list[dict[int, list[tuple[int, int]]]] = []
    for entries in c.diffs:
        m: dict[int, list[tuple[int, int]]] = {}
        for src, tgt, sign, _ in entries:
            m.setdefault(src, []).append((tgt, sign))
        diff_by_src.append(m)

    matrices: dict[int, list[dict[int, int]]] = {}
    for deg, elts in basis.items():
        rows = []
        for g, smask, tmask in elts:
            v, s_idx = local_of[g]
            row: dict[int, int] = {}
            if v < len(c.diffs):
                for tgt, sign in diff_by_src[v].get(s_idx, ()):  # term map
                    col = index[(glob_of[(v + 1, tgt)], smask, tmask)]
                    row[col] = row.get(col, 0) + sign
            pref = -1 if positions[v] % 2 else 1
            for i in range(x.m + 1):
                bit = 1 << i
                if not smask & bit:
                    new = smask | bit
                    sgn = -1 if (new & (bit - 1)).bit_count() % 2 else 1
                    col = index[(g, new, tmask)]
                    row[col] = row.get(col, 0) + pref * sgn
            fib_pref = pref * (-1 if (smask.bit_count() - 1) % 2 else 1)
            for j in range(x.n + 1):
                bit = 1 << j
                if not tmask & bit:
                    new = tmask | bit
                    sgn = -1 if (new & (bit - 1)).bit_count() % 2 else 1
                    col = index[(g, smask, new)]
                    row[col] = row.get(col, 0) + fib_pref * sgn
            rows.append(row)
        matrices[deg] = rows
    # total differential squares to zero on this shape
    for deg in sorted(matrices):
        nxt = matrices.get(deg + 1)
        if not nxt:
            continue
        for row in matrices[deg]:
            acc: dict[int, int] = {}
            for mid, c1 in row.items():
                for tgt, c2 in nxt[mid].items():
                    acc[tgt] = acc.get(tgt, 0) + c1 * c2
            assert all(v == 0 for v in acc.values()), "total differential does not square to zero"
    ranks = {deg: rank_int(rows) for deg, rows in matrices.items()}
    dims = {}
    for deg, elts in basis.items():
        h = len(elts) - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
        if h:
            dims[deg] = h
    if len(_PROFILE_CACHE) >= _PROFILE_CACHE_MAX:
        _PROFILE_CACHE.clear()
    _PROFILE_CACHE[(shape, profile)] = dims
    return dims


def _contributing_keys(c: MonomialComplex) -> set[tuple[int, ...]]:
    x = c.x
    keys = set()
    for term in c.terms:
        for s in term:
            for row in valid_rows(x):
                for ch in enumerate_contributing(x, s.cls, row):
                    expo = ch.alpha + ch.beta
                    keys.add(tuple(e - r for e, r in zip(expo, s.rep)))
    return keys


def _key_profile(c: MonomialComplex, key: tuple[int, ...]):
    x = c.x
    prof = []
    for term in c.terms:
        for s in term:
            expo = tuple(k + r for k, r in zip(key, s.rep))
            prof.append(_neg_masks(x, expo))
    return tuple(prof)


def per_key_dims(c: MonomialComplex, key: tuple[int, ...]) -> dict[int, int]:
    """Hypercohomology contribution of a single character class (testing hook)."""
    return _profile_dims(c, c.shape_key(), _key_profile(c, key))


def hypercohom(x: Scroll, c: MonomialComplex) -> tuple[int, ...]:
    """Total hypercohomology table of a monomial complex, degrees 0..n+m.

    Raises if the complex has cohomology outside that range (the built
    complexes never do: they are either exact or quasi-isomorphic to a
    sheaf placed in degree zero).
    """
    if c.x != x:
        raise ValueError("complex was built on a different scroll")
    shape = c.shape_key()
    totals: dict[int, int] = {}
    for key in sorted(_contributing_keys(c)):
        for deg, h in _profile_dims(c, shape, _key_profile(c, key)).items():
            totals[deg] = totals.get(deg, 0) + h
    table = list(zero_table(x))
    for deg, h in totals.items():
        if h and not 0 <= deg <= x.dim:
            raise ValueError(f"hypercohomology in unexpected degree {deg}")
        table[deg] = h
    return tuple(table)

