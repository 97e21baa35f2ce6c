"""Exact Smith normal form over the integers and finitely generated
abelian groups presented by their invariant factors.

All arithmetic uses Python integers, so there is no overflow at any size.
:func:`smith_normal_form` and :func:`group_from_relations` check their rows,
then eliminate sparsely on ``{column: entry}`` rows in one loop that pivots
on a unit where a row has one, else on an entry that divides its row and
its column (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001);
``topology.first_homology`` hands the rows it builds to
:func:`group_from_relations` with ``checked=False``, straight to the same
elimination.  What is left, usually nothing for relation matrices, goes
to the dense elimination :func:`snf_with_column_transform`,
which chooses pivots of minimal absolute value to keep entries small.  The
covering solver calls it directly, since its matrices have few columns, and
uses the column transform ``V`` it also returns: the solutions are
combinations of the columns of ``V`` whose factor shares a divisor with the
degree, so ``V`` fixes their order.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import index
from typing import Sequence

from gemkit._value import Value


class HomologyGroup(Value):
    """A finitely generated abelian group Z^rank + Z/d1 + ... + Z/dk.

    The torsion coefficients are the invariant factors: each is at least 2
    and divides the next.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        rank = index(rank)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        torsion = tuple(index(d) for d in torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion coefficients must be at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def snf_with_column_transform(mat: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(factors, rank, V)`` where the factors are the positive
    diagonal entries in divisibility order and ``V`` is the accumulated
    column transform, with ``U * mat * V`` diagonal for some unimodular
    ``U``.  So ``x = V y`` converts solutions of the diagonal system back
    to the original variables (also modulo any n).
    """
    A = _dense_rows(mat)
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    factors = []
    t = 0
    while t < nrows and t < ncols:
        # locate a minimal-magnitude nonzero entry in the working submatrix
        best = None
        pi = pj = -1
        for i in range(t, nrows):
            row = A[i]
            for j in range(t, ncols):
                a = row[j]
                if a and (best is None or -best < a < best):
                    best = abs(a)
                    pi, pj = i, j
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A + V:
                row[t], row[pj] = row[pj], row[t]
        while True:
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            piv = A[t][t]
            # clear the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot
            col_clean = True
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // piv
                    if q:
                        Ai, At = A[i], A[t]
                        for j in range(t, ncols):
                            Ai[j] -= q * At[j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        col_clean = False
                        break
            if not col_clean:
                continue
            # clear the pivot row the same way
            row_clean = True
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // piv
                    if q:
                        for i in range(t, nrows):
                            A[i][j] -= q * A[i][t]
                        for row in V:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A + V:
                            row[t], row[j] = row[j], row[t]
                        row_clean = False
                        break
            if not row_clean:
                continue
            # force the divisibility chain: fold any offending row into the
            # pivot row and keep reducing
            piv = A[t][t]
            offender = -1
            for i in range(t + 1, nrows):
                Ai = A[i]
                for j in range(t + 1, ncols):
                    if Ai[j] % piv:
                        offender = i
                        break
                if offender >= 0:
                    break
            if offender < 0:
                break
            At, Ao = A[t], A[offender]
            for j in range(t, ncols):
                At[j] += Ao[j]
        factors.append(A[t][t])
        t += 1
    return tuple(factors), len(factors), V


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix.

    The factors are positive, each divides the next, and their product for a
    nonsingular square matrix equals the absolute determinant.  The rows
    are checked, then eliminated as the module docstring describes.
    """
    return _sparse_snf([{j: x for j, x in enumerate(r) if x} for r in _dense_rows(mat)])


def _dense_rows(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix's rows as new lists of integers read through ``index``;
    the rows must have equal lengths."""
    rows = []
    for r in mat:
        if isinstance(r, dict):
            raise TypeError("a {column: entry} row goes to group_from_relations")
        rows.append([index(x) for x in r])
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


def _sparse_snf(rows: list[dict[int, int]]) -> tuple[tuple[int, ...], int]:
    """:func:`smith_normal_form` of the matrix with these ``{column: entry}``
    rows, which hold no zero entries and are used up."""
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    found: list[int] = []  # |pivot| of each pivot, then the dense phase's factors
    done = -1
    # each round pops the non-empty rows shortest first, and a grown row goes
    # back in.  A row with no pivot waits for the next round: a column can
    # lose the entry that blocked it.
    while done < len(found):
        done = len(found)
        heap = [(len(r), i) for i, r in enumerate(rows) if r]
        heapify(heap)
        while heap:
            length, p = heappop(heap)
            prow = rows[p]
            if len(prow) > length:
                heappush(heap, (len(prow), p))
                continue
            # the row's unit in its sparsest column, else its least entry if
            # that divides the row, in its sparsest column that it divides
            q = fill = None
            for j, x in prow.items():
                if (x == 1 or x == -1) and (fill is None or len(cols[j]) < fill):
                    q, fill = j, len(cols[j])
            if q is None and prow:
                least = min(map(abs, prow.values()))
                if any(x % least for x in prow.values()):
                    continue
                for j, x in prow.items():
                    if (x == least or x == -least) and (fill is None or len(cols[j]) < fill):
                        if all(rows[i][j] % least == 0 for i in cols[j]):
                            q, fill = j, len(cols[j])
            if q is None:
                continue
            # clear column q with the pivot, which divides all of row p, then
            # retire row p and column q
            for j in prow:
                cols[j].discard(p)
            x = prow.pop(q)
            for i in cols.pop(q):
                row = rows[i]
                f = row.pop(q) // x
                for j, y in prow.items():
                    z = row.get(j, 0) - f * y
                    if z:
                        row[j] = z
                        cols[j].add(i)
                    else:
                        del row[j]
                        cols[j].discard(i)
            prow.clear()
            found.append(abs(x))
    if any(rows):
        keep = sorted(j for j, members in cols.items() if members)
        rest = [[row.get(j, 0) for j in keep] for row in rows if row]
        found += snf_with_column_transform(rest)[0]
    torsion = sorted(d for d in found if d > 1)
    if any(b % a for a, b in zip(torsion, torsion[1:])):
        diagonal = Counter(torsion)
        # restore the chain: trade t copies each of two values that do not
        # divide each other for t of their gcd and t of their lcm (same prime
        # exponents)
        while ab := next(((a, b) for a in diagonal for b in diagonal if a < b and b % a), None):
            a, b = ab
            t = min(diagonal[a], diagonal[b])
            diagonal -= Counter({a: t, b: t})
            diagonal += Counter({gcd(a, b): t, lcm(a, b): t})
        del diagonal[1]
        torsion = sorted(diagonal.elements())
    return (1,) * (len(found) - len(torsion)) + tuple(torsion), len(found)


def group_from_relations(num_generators: int, rows, *, checked: bool = True) -> HomologyGroup:
    """The abelian group on ``num_generators`` generators modulo the rows.

    A row is a sequence of ``num_generators`` integers or a sparse
    ``{column: entry}`` dict whose columns lie in ``range(num_generators)``.
    With ``checked=False`` the rows must already be ``{column: entry}``
    dicts of nonzero integers in range, as ``topology.first_homology``'s
    are; they go to the sparse elimination as they are and are used up.
    """
    if checked:
        sparse = []
        for r in rows:
            if not isinstance(r, dict):
                if len(r) != num_generators:
                    raise ValueError("relation rows must match the generator count")
                r = dict(enumerate(r))
            sparse.append(dict(zip(map(index, r), map(index, r.values()))))
        cols = set().union(*sparse)
        if cols and not (0 <= min(cols) and max(cols) < num_generators):
            raise ValueError("relation columns must lie in range(num_generators)")
        rows = [{j: x for j, x in r.items() if x} if 0 in r.values() else r for r in sparse]
    factors, rank = _sparse_snf(rows)
    return HomologyGroup(num_generators - rank, tuple(d for d in factors if d > 1))
