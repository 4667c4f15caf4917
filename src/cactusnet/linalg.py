"""Dense exact-rational matrices and one elimination kernel.

Everything is a ``Fraction``; no floating point enters this module.  An
entry that is already a ``Fraction`` is kept as it is, any other is
converted, and a ``float`` is refused.  Matrices are small (a few
hundred rows at most), so a single Gauss-Jordan routine over Fraction
serves rank, determinant (the signed product of its pivots) and solving
with any number of right-hand sides.  Products skip zero entries of
both factors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a float is refused, since it is not exact."""
    if isinstance(x, float):
        raise TypeError(f"float entry {x!r}; use an int, a Fraction or a string")
    return Fraction(x)


class RationalMatrix:
    """A rectangular matrix of Fractions."""

    def __init__(self, rows):
        self.rows = [[x if type(x) is Fraction else _exact(x) for x in r]
                     for r in rows]
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"RationalMatrix[{body}]"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(map(list, zip(*self.rows)))) if self.rows \
            else RationalMatrix([])

    def _entrywise(self, op, other) -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return RationalMatrix([list(map(op, r1, r2))
                               for r1, r2 in zip(self.rows, other.rows)])

    def __add__(self, other) -> "RationalMatrix":
        return self._entrywise(operator.add, other)

    def __sub__(self, other) -> "RationalMatrix":
        return self._entrywise(operator.sub, other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "RationalMatrix":
        c = _exact(c)
        return RationalMatrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other) -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # row i of the product sums a * (row k of other) over the nonzero
        # entries a = self[i][k], each row of other read as its nonzeros
        terms = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        zero, width = Fraction(0), other.ncols
        out = []
        for row in self.rows:
            acc = [zero] * width
            for a, kterms in zip(row, terms):
                if a:
                    for j, b in kterms:
                        acc[j] += a * b
            out.append(acc)
        return RationalMatrix(out)

    def matvec(self, v):
        """The product with the column vector v, whose float entries are refused."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        terms = [(k, x) for k, x in enumerate(map(_exact, v)) if x]
        zero = Fraction(0)
        return [sum((row[k] * x for k, x in terms), zero) for row in self.rows]

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i)
        )

    def is_skew_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def determinant(self) -> Fraction:
        """Determinant: the signed product of the elimination pivots."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots, sign, product = _eliminate([r[:] for r in self.rows], self.ncols)
        return sign * product if len(pivots) == self.nrows else Fraction(0)

    def rank(self) -> int:
        return len(_eliminate([r[:] for r in self.rows], self.ncols)[0])


def _eliminate(rows, ncols: int):
    """Gauss-Jordan elimination in place on the first ``ncols`` columns.

    ``rows`` becomes reduced row echelon form in those columns; any
    further columns (right-hand sides) undergo the same row operations.
    Returns the pivot columns, the sign of the row swaps and the product
    of the pivots, so a square matrix of full rank has determinant
    ``sign * product``.
    """
    pivots = []
    sign, product = 1, Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        product *= p
        # columns left of c are zero in the pivot row, so only the tail moves
        tail = rows[r][c:] = [x / p if x else x for x in rows[r][c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [x - f * y if y else x for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return pivots, sign, product


def block_rank(rows) -> int:
    """Rank of a matrix given as sparse rows: dicts from column keys (any
    sortable values) to entries.

    Rows that share a column are connected; the rank is the sum of the
    ranks of the connected blocks, each eliminated densely on its own
    columns, so the whole matrix is never built.
    """
    parent = {}

    def find(c):
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    for row in rows:
        first = find(next(iter(row), None))
        for c in row:
            parent[find(c)] = first
    blocks = {}
    for row in rows:
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    zero = Fraction(0)
    rank = 0
    for block in blocks.values():
        cols = sorted({c for row in block for c in row})
        rank += RationalMatrix([[row.get(c, zero) for c in cols]
                                for row in block]).rank()
    return rank


@dataclass
class Inconsistent:
    """Certificate y with y^T A = 0 but y^T b != 0."""

    certificate: list


@dataclass
class Solutions:
    """One particular solution per right-hand side, plus a kernel basis."""

    particulars: list
    nullspace: list


def solve_many(a: RationalMatrix, rhs_columns):
    """Solve A x = b exactly for every b in ``rhs_columns`` at once.

    One elimination of ``[A | b_1 ... b_k]`` gives :class:`Solutions`: per
    column the particular solution whose free variables are zero, and a
    nullspace basis of A.  If some b_k is not in the column space, returns
    an :class:`Inconsistent` certificate for the first such column.
    """
    nr, nc = a.nrows, a.ncols
    cols = [[x if type(x) is Fraction else _exact(x) for x in b]
            for b in rhs_columns]
    if any(len(b) != nr for b in cols):
        raise ValueError("rhs length mismatch")
    m = [row + [b[i] for b in cols] for i, row in enumerate(a.rows)]
    pivots = _eliminate(m, nc)[0]
    rank = len(pivots)
    bad = next((k for k in range(len(cols))
                if any(m[i][nc + k] for i in range(rank, nr))), None)
    if bad is not None:
        # redo the same row operations on an identity block to record them
        m = [row + [cols[bad][i]] + [Fraction(int(i == j)) for j in range(nr)]
             for i, row in enumerate(a.rows)]
        _eliminate(m, nc)
        cert = next(row[nc + 1:] for row in m[rank:] if row[nc])
        return Inconsistent(certificate=cert)
    particulars = []
    for k in range(len(cols)):
        x = [Fraction(0)] * nc
        for row, c in zip(m, pivots):
            x[c] = row[nc + k]
        particulars.append(x)
    nullspace = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[fc]
        nullspace.append(v)
    return Solutions(particulars=particulars, nullspace=nullspace)


def _sparse_ratio(u: dict, v: dict):
    """The rational t with v = t * u for two sparse vectors, or None.

    Keys missing from a dict, and explicit zero entries, are zeros.  Zero
    vectors are proportional to nothing.
    """
    u = {k: x for k, x in u.items() if x}
    v = {k: x for k, x in v.items() if x}
    if not u or u.keys() != v.keys():
        return None
    k0 = next(iter(u))
    t = v[k0] / u[k0]
    return t if all(v[k] == t * x for k, x in u.items()) else None
