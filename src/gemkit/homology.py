"""Exact Smith normal form over the integers and finitely generated
abelian groups presented by their invariant factors.

All arithmetic uses Python integers, so there is no overflow at any size.
:func:`smith_normal_form` eliminates unit pivots sparsely first and hands
what is left to the dense elimination :func:`snf_with_column_transform`,
which chooses pivots of minimal absolute value to keep entries small.  The
covering solver calls the dense elimination directly, since its matrices
have few columns, and uses the column transform ``V`` it also returns: the
solutions are combinations of the columns of ``V`` whose factor shares a
divisor with the degree, so ``V`` fixes their order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import index
from typing import Sequence


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group Z^rank + Z/d1 + ... + Z/dk.

    The torsion coefficients are the invariant factors: each is at least 2
    and divides the next.
    """

    rank: int
    torsion: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if index(self.rank) < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(index(d) for d in self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be at least 2")

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
    A = [[index(x) for x in row] for row in mat]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    for row in A:
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
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
    nonsingular square matrix equals the absolute determinant.

    A sparse phase first pivots on units, each taken from a shortest row and
    the sparsest of that row's columns to keep the Markowitz fill cost low
    (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001); row
    operations clear its column and it counts one factor 1.  What is left,
    usually nothing for relation matrices, goes to the dense elimination.
    """
    if any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows have unequal lengths")
    rows = [{j: x for j, x in enumerate(map(index, r)) if x} for r in mat]
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    # a row is pushed again whenever it changes; stale entries are skipped
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    units = 0
    while heap:
        length, p = heappop(heap)
        prow = rows[p]
        pivots = [j for j, x in prow.items() if x == 1 or x == -1]
        if length != len(prow) or not pivots:
            continue
        q = min(pivots, key=lambda j: len(cols[j]))
        unit = prow[q]
        touched, cols[q] = cols[q], set()
        touched.discard(p)
        for i in touched:
            row = rows[i]
            f = row[q] * unit
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            heappush(heap, (len(row), i))
        for j in prow:
            cols[j].discard(p)
        rows[p] = {}
        units += 1
    keep = sorted(j for j, members in cols.items() if members)
    rest = [[row.get(j, 0) for j in keep] for row in rows if row]
    factors, rank, _ = snf_with_column_transform(rest)
    return (1,) * units + factors, units + rank


def group_from_relations(num_generators: int, rows: Sequence[Sequence[int]]) -> HomologyGroup:
    """The abelian group on ``num_generators`` generators modulo the rows."""
    if any(len(r) != num_generators for r in rows):
        raise ValueError("relation rows must match the generator count")
    factors, rank = smith_normal_form(rows)
    torsion = tuple(d for d in factors if d > 1)
    return HomologyGroup(num_generators - rank, torsion)
