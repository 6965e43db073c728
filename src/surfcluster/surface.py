"""Bordered surfaces with marked points: validation and classification.

A surface is described by its genus, the multiset of marked-point counts on
its boundary components, and its number of punctures. Validation applies the
exclusion list for surfaces that admit no (or only one) triangulation; the
classifier reports rank, arc finiteness, growth class of the flip graph, and
the homotopy type of the tagged arc complex.
"""

from __future__ import annotations

from collections import namedtuple

from .mutation import _is_int_list


class ExcludedSurface(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EmptyMarking(ValueError):
    pass


class MarkedSurface(namedtuple("MarkedSurface", "genus boundary punctures")):
    """Validated bordered surface with marked points.

    boundary holds one entry per boundary component (marked points on it),
    sorted descending so homeomorphic surfaces compare equal.
    """

    __slots__ = ()

    @property
    def num_boundary(self) -> int:
        return len(self.boundary)

    @property
    def boundary_points(self) -> int:
        return sum(self.boundary)

    @property
    def rank(self) -> int:
        g, b, p, c = self.genus, self.num_boundary, self.punctures, self.boundary_points
        return 6 * g + 3 * b + 3 * p + c - 6

    def is_closed(self) -> bool:
        return not self.boundary

    def is_polygon(self) -> bool:
        return self.genus == 0 and self.num_boundary == 1 and self.punctures == 0

    def is_once_punctured_polygon(self) -> bool:
        return self.genus == 0 and self.num_boundary == 1 and self.punctures == 1

    def to_json(self) -> dict:
        return {"genus": self.genus, "boundary": list(self.boundary), "punctures": self.punctures}

    @staticmethod
    def from_json(data: dict) -> "MarkedSurface":
        """Read outside JSON: integer genus and punctures, a list of integer boundary counts."""
        if type(data) is not dict:
            raise ValueError("a surface must be a JSON object {genus, boundary, punctures}")
        genus = data.get("genus", 0)
        boundary = data.get("boundary", [])
        punctures = data.get("punctures", 0)
        if not (type(genus) is int and type(punctures) is int and _is_int_list(boundary)):
            raise ValueError("genus and punctures must be JSON integers and boundary a list of them")
        return validate_surface(genus=genus, boundary=boundary, punctures=punctures)


# the excluded surfaces, all of genus 0, keyed by (boundary counts, punctures)
_EXCLUDED = {
    ((), 1): "once-punctured sphere",
    ((), 2): "twice-punctured sphere",
    ((), 3): "thrice-punctured sphere",
    ((1,), 0): "unpunctured monogon",
    ((2,), 0): "unpunctured digon",
    ((3,), 0): "unpunctured triangle",
    ((1,), 1): "once-punctured monogon",
}


def validate_surface(genus: int = 0, boundary=(), punctures: int = 0) -> MarkedSurface:
    """Validate a raw descriptor, naming the violated exclusion on rejection."""
    g = int(genus)
    p = int(punctures)
    cs = tuple(int(c) for c in boundary)
    if g < 0 or p < 0 or any(c < 0 for c in cs):
        raise ValueError("genus, boundary counts and punctures must be nonnegative")
    if any(c == 0 for c in cs):
        raise EmptyMarking("every boundary component needs at least one marked point")
    c = sum(cs)
    if c + p == 0:
        raise EmptyMarking("the set of marked points is empty")
    if g == 0 and (cs, p) in _EXCLUDED:
        raise ExcludedSurface(_EXCLUDED[cs, p])
    return MarkedSurface(genus=g, boundary=tuple(sorted(cs, reverse=True)), punctures=p)


# family: A | D | AffineA | AffineD | Gamma2 | Gamma3 | Exponential
class Growth(namedtuple("Growth", "family params", defaults=((),))):
    """Growth class of the flip graph; params identify the named family."""

    __slots__ = ()

    def __str__(self):
        if self.family == "Exponential":
            return "Exponential"
        return f"{self.family}({','.join(str(p) for p in self.params)})"


# kind: sphere | contractible
class Homotopy(namedtuple("Homotopy", "kind dim", defaults=(None,))):
    __slots__ = ()

    def __str__(self):
        return f"S^{self.dim}" if self.kind == "sphere" else "contractible"


class SurfaceClassification(namedtuple("SurfaceClassification", "rank finite_arcs growth homotopy note",
                                       defaults=(None,))):
    __slots__ = ()

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "finite_arcs": self.finite_arcs,
            "growth": str(self.growth),
            "homotopy": str(self.homotopy),
        }
        if self.note:
            out["note"] = self.note
        return out


# Cartan labels that coincide across surface shapes: classify reports the
# note as a comment, never as the primary family, and catalog_type gives
# the type catalog's tag (A1 x A1 has no catalog entry).
_CARTAN_NOTES = {
    "D(2)": ("Cartan type A1 x A1", "Unknown"),
    "D(3)": ("Cartan type A3", "A(3)"),
    "AffineD(3)": ("Cartan type AffineA(2,2)", "AffineA(2,2)"),
}


def classify(s: MarkedSurface) -> SurfaceClassification:
    """Rank, arc finiteness, growth family and arc-complex homotopy type."""
    g, b, p = s.genus, s.num_boundary, s.punctures
    cs = s.boundary
    n = s.rank

    finite_arcs = s.is_polygon() or s.is_once_punctured_polygon()

    if g == 0 and b + p <= 3 and b >= 1:
        if b == 1 and p == 0:
            growth = Growth("A", (n,))
        elif b == 1 and p == 1:
            growth = Growth("D", (n,))
        elif b == 1 and p == 2:
            growth = Growth("AffineD", (n - 1,))
        elif b == 2 and p == 0:
            growth = Growth("AffineA", (cs[0], cs[1]))
        elif b == 2 and p == 1:
            growth = Growth("Gamma2", (cs[0], cs[1]))
        else:  # b == 3, p == 0
            growth = Growth("Gamma3", (cs[0], cs[1], cs[2]))
    else:
        growth = Growth("Exponential")

    if finite_arcs:
        homotopy = Homotopy("sphere", n - 1)
    elif s.is_closed():
        homotopy = Homotopy("sphere", p - 1)
    else:
        homotopy = Homotopy("contractible")

    note = _CARTAN_NOTES.get(str(growth), (None,))[0]
    return SurfaceClassification(rank=n, finite_arcs=finite_arcs, growth=growth, homotopy=homotopy, note=note)


def catalog_type(growth: Growth) -> str:
    """The type catalog's tag for a growth class; "Unknown" for exponential growth."""
    if growth.family == "Exponential":
        return "Unknown"
    return _CARTAN_NOTES.get(str(growth), (None, str(growth)))[1]
