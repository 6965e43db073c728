"""Exact Laurent-polynomial seeds with trivial coefficients.

Cluster variables are sparse Laurent polynomials over the integers in the
initial cluster variables; seed mutation applies the two-term exchange
relation and divides exactly. Denominator vectors and the tropical
recurrence that governs them live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._explore import explore
from .mutation import ExchangeMatrix, mutate


class NonLaurentResult(ArithmeticError):
    pass


class ZeroElement(ValueError):
    pass


class LaurentPoly:
    """Sparse Laurent polynomial: exponent vector -> integer coefficient."""

    __slots__ = ("nvars", "terms", "_key")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(exp)] = coeff
        self.terms = clean
        self._key = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def variable(nvars: int, i: int) -> "LaurentPoly":
        exp = [0] * nvars
        exp[i] = 1
        return LaurentPoly(nvars, {tuple(exp): 1})

    @staticmethod
    def constant(nvars: int, c: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple([0] * nvars): c} if c else {})

    @staticmethod
    def monomial(nvars: int, exp, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(nvars, {tuple(exp): coeff})

    # -- basics --------------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.key() == other.key()

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via div_exact")
        result = LaurentPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            raise ZeroElement("the zero element has no exponents")
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def shifted(self, offset) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {tuple(a + b for a, b in zip(e, offset)): c
                                        for e, c in self.terms.items()})

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact Laurent division; raises NonLaurentResult when inexact."""
        if not other:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self:
            return LaurentPoly.constant(self.nvars, 0)
        # shift both to honest polynomials, divide, shift back
        sp = self.min_exponents()
        so = other.min_exponents()
        P = dict(self.shifted(tuple(-x for x in sp)).terms)
        Q = other.shifted(tuple(-x for x in so))
        lt_q = max(Q.terms)
        lc_q = Q.terms[lt_q]
        quot: dict[tuple, int] = {}
        while P:
            lt_p = max(P)
            if any(a < b for a, b in zip(lt_p, lt_q)):
                raise NonLaurentResult("leading monomial not divisible")
            c = P[lt_p]
            if c % lc_q:
                raise NonLaurentResult("leading coefficient not divisible")
            qe = tuple(a - b for a, b in zip(lt_p, lt_q))
            qc = c // lc_q
            quot[qe] = quot.get(qe, 0) + qc
            for e2, c2 in Q.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                nc = P.get(e, 0) - qc * c2
                if nc:
                    P[e] = nc
                else:
                    P.pop(e, None)
        shift = tuple(a - b for a, b in zip(sp, so))
        return LaurentPoly(self.nvars, quot).shifted(shift)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"x{i}^{e}" if e != 1 else f"x{i}"
                            for i, e in enumerate(exp) if e)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "terms": [[list(e), c] for e, c in self.key()]}


@dataclass(frozen=True)
class Seed:
    """A cluster of Laurent polynomials plus the exchange matrix, aligned."""

    cluster: tuple[LaurentPoly, ...]
    matrix: ExchangeMatrix

    @staticmethod
    def initial(B: ExchangeMatrix) -> "Seed":
        n = B.n
        return Seed(tuple(LaurentPoly.variable(n, i) for i in range(n)), B)

    def dedup_key(self):
        return tuple(sorted(p.key() for p in self.cluster))


def mutate_seed(s: Seed, k: int) -> Seed:
    """Exchange relation with trivial coefficients, via exact division."""
    B = s.matrix
    n = B.n
    if not 0 <= k < n:
        raise IndexError(f"seed mutation index {k} out of range")
    nvars = s.cluster[0].nvars
    plus = LaurentPoly.constant(nvars, 1)
    minus = LaurentPoly.constant(nvars, 1)
    for i in range(n):
        b = B[i, k]
        if b > 0:
            plus = plus * s.cluster[i] ** b
        elif b < 0:
            minus = minus * s.cluster[i] ** (-b)
    new_var = (plus + minus).div_exact(s.cluster[k])
    cluster = tuple(new_var if i == k else s.cluster[i] for i in range(n))
    return Seed(cluster, mutate(B, k))


def denominator_vector(z: LaurentPoly) -> tuple[int, ...]:
    """Negated minimal exponents: d(x_i | z) per initial variable."""
    return tuple(-e for e in z.min_exponents())


def tropical_mutate(D, B: ExchangeMatrix, k: int):
    """Tropical exchange step on a list of denominator vectors.

    D[i] is the vector of the i-th current cluster variable w.r.t. the fixed
    initial cluster; only position k is replaced.
    """
    n = B.n
    nv = len(D[0])
    plus = [0] * nv
    minus = [0] * nv
    for u in range(n):
        b = B[u, k]
        if b > 0:
            plus = [p + b * d for p, d in zip(plus, D[u])]
        elif b < 0:
            minus = [m - b * d for m, d in zip(minus, D[u])]
    new = tuple(-d + max(p, m) for d, p, m in zip(D[k], plus, minus))
    return [new if i == k else D[i] for i in range(n)]


def initial_denominator_vectors(n: int):
    """d(x|x) = -1 on the diagonal, 0 elsewhere."""
    return [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]


@dataclass(frozen=True)
class VariableCensus:
    variables: tuple[LaurentPoly, ...]
    seeds_seen: int
    complete: bool


def all_cluster_variables(B: ExchangeMatrix, limit: int = 1000) -> VariableCensus:
    """BFS over seeds from the initial one, deduplicated by cluster multiset.

    At most `limit` seeds are visited; truncation follows `_explore.explore`.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    seeds, _, _, complete = explore(
        Seed.initial(B), lambda s: (mutate_seed(s, k) for k in range(B.n)), Seed.dedup_key, limit)
    variables = {p for s in seeds for p in s.cluster}
    ordered = tuple(sorted(variables, key=lambda p: p.key()))
    return VariableCensus(ordered, len(seeds), complete)
