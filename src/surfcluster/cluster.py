"""Exact Laurent-polynomial seeds with trivial coefficients.

Cluster variables are sparse Laurent polynomials over the integers in the
initial cluster variables; seed mutation applies the two-term exchange
relation and divides exactly. Denominator vectors and the tropical
recurrence that governs them live here too.

A polynomial keys each term by its exponent vector packed into one int
(Kronecker substitution). Each variable owns a field of `EXPONENT_BITS`
bits that holds the exponent plus a bias, with two guard bits above it,
and variable 0 is the most significant field. A monomial product is then
one addition, integer order on keys is lex order on exponent vectors, and
one AND with the guard mask shows whether an exponent left its field
(divisibility tests by guard and borrow masks as in Monagan & Pearce,
*Sparse polynomial division using a heap*, J. Symbolic Comput. 46 (2011)).
A seed census interns its variables: each distinct polynomial gets a small
int id, and a census seed is a tuple of ids, deduplicated by its sorted
ids. Within one call it divides once per exchange: the quotient depends only
on x_k and the multiset of pairs (x_i, b_ik), b_ik != 0, so it is memoized
under those ids. A seed's matrix is made from its parent's when the seed is
expanded, so refused successors never mutate a matrix. The census makes
each exchange from one end only (`_explore.explore_exchange`) and asks its
search for no edges: it reports variables and a seed count, not the
exchange graph.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple

from ._explore import explore_exchange
from .mutation import ExchangeMatrix, mutate


class NonLaurentResult(ArithmeticError):
    pass


class ZeroElement(ValueError):
    pass


EXPONENT_BITS = 16
_GUARD_BITS = 2
_STRIDE = EXPONENT_BITS + _GUARD_BITS
_BIAS = 1 << (EXPONENT_BITS - 1)
_FIELD = (1 << EXPONENT_BITS) - 1
_RANGE = f"exponent outside the packed range {-_BIAS}..{_BIAS - 1}"


class _Layout:
    """Packed-key constants for one number of variables.

    `bias`, `high` and `guard` repeat one field's value in every field: the
    bias (so `bias` is the zero exponent vector), the top guard bit, and
    both guard bits.
    """

    __slots__ = ("nvars", "shifts", "bias", "high", "guard")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shifts = tuple(_STRIDE * (nvars - 1 - i) for i in range(nvars))
        self.bias = sum(_BIAS << s for s in self.shifts)
        self.high = sum(1 << (_STRIDE - 1) << s for s in self.shifts)
        self.guard = sum(((1 << _GUARD_BITS) - 1) << EXPONENT_BITS << s for s in self.shifts)

    def pack(self, exp) -> int:
        if len(exp) != self.nvars:
            raise ValueError(f"exponent vector {tuple(exp)} does not have {self.nvars} entries")
        key = 0
        for e in exp:
            if not -_BIAS <= e < _BIAS:
                raise OverflowError(_RANGE)
            key = (key << _STRIDE) | (e + _BIAS)
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple(((key >> s) & _FIELD) - _BIAS for s in self.shifts)

    def settle(self, keys) -> None:
        """Raise OverflowError unless every key is a valid packed key.

        The keys are sums of packed keys and offsets whose fields, once
        `high` is added, stay within their field and guard bits, so that no
        field borrows from or carries into the next. Such a key is valid
        exactly when each field of key + `high` has the top guard bit set
        and the guard bit below it clear.
        """
        high, guard = self.high, self.guard
        for k in keys:
            if (k + high) & guard != high:
                raise OverflowError(_RANGE)


_layout = functools.lru_cache(maxsize=None)(_Layout)


class LaurentPoly:
    """Sparse Laurent polynomial: exponent vector -> integer coefficient.

    Terms are kept under packed keys (see the module docstring): every
    exponent must lie in -2**15 .. 2**15 - 1 (`EXPONENT_BITS` = 16 bits per
    variable). Building, multiplying, shifting or dividing to an exponent
    outside that range raises OverflowError, and so does a division whose
    remainder leaves the range on the way; nothing wraps into the next
    variable. Operands with different `nvars`, and exponent vectors of the
    wrong length, raise ValueError. `terms` decodes the keys for reading.
    """

    __slots__ = ("_lay", "_t", "_pk", "_mk")

    def __init__(self, nvars: int, terms=None):
        lay = _layout(nvars)
        self._lay = lay
        self._t = {lay.pack(exp): coeff for exp, coeff in (terms or {}).items() if coeff}
        self._pk = self._mk = None

    @staticmethod
    def _make(lay: _Layout, t: dict) -> "LaurentPoly":
        p = object.__new__(LaurentPoly)
        p._lay = lay
        p._t = t
        p._pk = p._mk = None
        return p

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

    @property
    def nvars(self) -> int:
        return self._lay.nvars

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        unpack = self._lay.unpack
        return {unpack(k): c for k, c in self._t.items()}

    def _packed_key(self):
        """The terms as sorted (packed key, coefficient) pairs, cached."""
        if self._pk is None:
            self._pk = tuple(sorted(self._t.items()))
        return self._pk

    def key(self):
        unpack = self._lay.unpack
        return tuple((unpack(k), c) for k, c in self._packed_key())

    def _same(self, other: "LaurentPoly") -> _Layout:
        if other._lay is not self._lay:
            raise ValueError(f"operands in {self.nvars} and {other.nvars} variables")
        return self._lay

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._lay is other._lay and self._t == other._t

    def __hash__(self):
        return hash((self.nvars, self._packed_key()))

    def __bool__(self):
        return bool(self._t)

    def __add__(self, other):
        lay = self._same(other)
        out = dict(self._t)
        get = out.get
        for k, c in other._t.items():
            out[k] = get(k, 0) + c
        return LaurentPoly._make(lay, {k: c for k, c in out.items() if c})

    def __neg__(self):
        return LaurentPoly._make(self._lay, {k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._make(self._lay, {k: c * other for k, c in self._t.items()} if other else {})
        lay = self._same(other)
        outer, inner = self._t, other._t
        if len(outer) < len(inner):
            outer, inner = inner, outer
        bias = lay.bias
        inner = [(k - bias, c) for k, c in inner.items()]
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in outer.items():
            for k2, c2 in inner:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        lay.settle(out)
        return LaurentPoly._make(lay, {k: c for k, c in out.items() if c})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via div_exact")
        if k == 0:
            return LaurentPoly.constant(self.nvars, 1)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def _min_key(self) -> int:
        """The packed vector of minimal exponents; cached.

        All fields are compared at once: each field of (m | high) - k keeps
        its top guard bit exactly when m's exponent is >= k's, and that bit,
        spread over the field, selects k's field into the running minimum.
        """
        if self._mk is None:
            high = self._lay.high
            keys = iter(self._t)
            m = next(keys)
            for k in keys:
                ge = ((m | high) - k) & high
                m ^= (m ^ k) & ((ge >> (_STRIDE - 1)) * _FIELD)
            self._mk = m
        return self._mk

    def min_exponents(self) -> tuple[int, ...]:
        if not self._t:
            raise ZeroElement("the zero element has no exponents")
        return self._lay.unpack(self._min_key())

    def shifted(self, offset) -> "LaurentPoly":
        lay = self._lay
        if len(offset) != lay.nvars:
            raise ValueError(f"offset {tuple(offset)} does not have {lay.nvars} entries")
        if not self._t:
            return self
        delta = 0
        for o in offset:
            if not -_FIELD <= o <= _FIELD:  # every shifted exponent would leave its field
                raise OverflowError(_RANGE)
            delta = (delta << _STRIDE) + o
        out = {k + delta: c for k, c in self._t.items()}
        lay.settle(out)
        return LaurentPoly._make(lay, out)

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact Laurent division; raises NonLaurentResult when inexact.

        This is polynomial division of x^-sp * self by x^-so * other, with
        sp and so their minimal exponents, in lex order, run on the unshifted
        keys. The leading monomial of the remainder is divisible exactly
        when every field of lt_p - lt_q - (sp - so) is nonnegative, that is,
        keeps its top guard bit after adding `high`; the quotient term is
        x^(lt_p - lt_q).
        """
        lay = self._same(other)
        if not other:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self:
            return LaurentPoly.constant(self.nvars, 0)
        high, guard, bias = lay.high, lay.guard, lay.bias
        P = dict(self._t)
        Q = other._t
        lt_q = max(Q)
        lc_q = Q[lt_q]
        borrow = high - lt_q - self._min_key() + other._min_key()
        inner = [(k - bias, c) for k, c in Q.items()]
        quot: dict[int, int] = {}
        while P:
            lt_p = max(P)
            if (lt_p + borrow) & high != high:
                raise NonLaurentResult("leading monomial not divisible")
            c = P[lt_p]
            if c % lc_q:
                raise NonLaurentResult("leading coefficient not divisible")
            qk = lt_p - lt_q + bias
            if (qk + high) & guard != high:
                raise OverflowError(_RANGE)
            qc = c // lc_q
            quot[qk] = qc
            for k2, c2 in inner:
                k = qk + k2
                old = P.get(k)
                if old is None:
                    if (k + high) & guard != high:
                        raise OverflowError(_RANGE)
                    P[k] = -qc * c2
                elif old != qc * c2:
                    P[k] = old - qc * c2
                else:
                    del P[k]
        return LaurentPoly._make(lay, quot)

    def __str__(self):
        if not self._t:
            return "0"
        unpack = self._lay.unpack
        bits = []
        for k, c in sorted(self._t.items(), reverse=True):
            mono = "*".join(f"x{i}^{e}" if e != 1 else f"x{i}"
                            for i, e in enumerate(unpack(k)) if e)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


class Seed(namedtuple("Seed", "cluster matrix")):
    """A cluster of Laurent polynomials plus the exchange matrix, aligned."""

    __slots__ = ()

    @staticmethod
    def initial(B: ExchangeMatrix) -> "Seed":
        n = B.n
        return Seed(tuple(LaurentPoly.variable(n, i) for i in range(n)), B)

    def dedup_key(self):
        return tuple(sorted(p._packed_key() for p in self.cluster))


def _exchanged(cluster, rows, k: int) -> LaurentPoly:
    """The new x_k: the exchange relation at k divided exactly by x_k."""
    factors = ([], [])  # x_i^b_ik over b_ik > 0, then over b_ik < 0
    for x, row in zip(cluster, rows):
        b = row[k]
        if b:
            factors[b < 0].append(x ** abs(b))
    one = LaurentPoly.constant(cluster[0].nvars, 1)
    plus, minus = (functools.reduce(operator.mul, f) if f else one for f in factors)
    return (plus + minus).div_exact(cluster[k])


def mutate_seed(s: Seed, k: int) -> Seed:
    """Exchange relation with trivial coefficients, via exact division."""
    B = s.matrix
    if not 0 <= k < B.n:
        raise IndexError(f"seed mutation index {k} out of range")
    new_var = _exchanged(s.cluster, B.rows, k)
    return Seed(s.cluster[:k] + (new_var,) + s.cluster[k + 1:], mutate(B, k))


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


VariableCensus = namedtuple("VariableCensus", "variables seeds_seen complete")


def all_cluster_variables(B: ExchangeMatrix, limit: int = 1000) -> VariableCensus:
    """BFS over seeds from the initial one, deduplicated by cluster multiset.

    At most `limit` seeds are visited; truncation follows `_explore.explore`.
    A node is (variable ids, matrix, made_at): the initial seed holds B and
    made_at None, any other seed holds its parent's matrix until it is
    expanded. The key, its sorted ids, identifies a seed with its cluster;
    positions are named by their ids, so each exchange is made from one end
    (`_explore.explore_exchange`).
    Quotients are memoized by exchange within this call only; a failed
    division is never memoized, so it fails where `mutate_seed` would.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = B.n
    variables = [LaurentPoly.variable(n, i) for i in range(n)]  # id -> variable
    ids = {x._packed_key(): i for i, x in enumerate(variables)}
    quotients = {}  # (id of x_k, sorted (id_i, b_ik) over b_ik != 0) -> id

    def moves(node, skip):
        cluster, matrix, made_at = node
        if made_at is not None:
            matrix = mutate(matrix, made_at)
        rows = matrix.rows
        for k in range(n):
            if k in skip:
                continue
            key = (cluster[k], tuple(sorted((x, row[k]) for x, row in zip(cluster, rows) if row[k])))
            new = quotients.get(key)
            if new is None:
                p = _exchanged([variables[x] for x in cluster], rows, k)
                new = quotients[key] = ids.setdefault(p._packed_key(), len(variables))
                if new == len(variables):
                    variables.append(p)
            yield (cluster[:k] + (new,) + cluster[k + 1:], matrix, k), k

    seeds, _, _, complete = explore_exchange(
        (tuple(range(n)), B, None), moves, lambda node: (tuple(sorted(node[0])), node[0]), limit)
    admitted = {x for cluster, _, _ in seeds for x in cluster}
    ordered = tuple(sorted((variables[x] for x in admitted), key=LaurentPoly._packed_key))
    return VariableCensus(ordered, len(seeds), complete)
