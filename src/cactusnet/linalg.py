"""Exact-rational matrices and one sparse, fraction-free elimination kernel.

Where integers end: the kernel ``_reduce`` takes rows of ints as they
are (the scaled Laplacian, the signed rows of a chart) and leaves each a
primitive integer row over a scale it returns, so its callers read the
rows directly and build one Fraction per entry they hand out; its
Fraction edges are ``RationalMatrix`` and ``solve_many``.  A matrix
entry that is already a ``Fraction`` is kept as it is, any other is
converted, and a ``float`` is refused.  Matrices are stored dense, but
what the package eliminates is sparse (a Laplacian row holds a vertex
and its neighbours, a contraction row at most n entries).  So one
elimination over rows held as dicts of their nonzero entries, each pivot
on the shortest candidate row, serves rank, determinant (the signed
product of its pivots) and solving with any number of right-hand sides.
Each row is held as a primitive integer row and a rational scale, in the
manner of Bareiss's integer-preserving elimination, so an update costs
integer products and one gcd rather than a Fraction per entry.  Products
skip zero entries of both factors.
"""

import math
import operator
from fractions import Fraction

from .combinat import Record


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a float is refused, since it is not exact."""
    if isinstance(x, float):
        raise TypeError(f"float entry {x!r}; use an int, a Fraction or a string")
    return Fraction(x)


def _common_denominator(rows) -> tuple:
    """``(d, integer rows)``: rows of Fractions (or ints) brought to d, the
    lcm of their denominators, so that each true entry is its integer
    over d."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*{q for row in ratios for _, q in row})
    return d, [[p * (d // q) for p, q in row] for row in ratios]


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

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def determinant(self) -> Fraction:
        """Determinant: the pivot product, signed by the permutation that
        takes each pivot row to its pivot column."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots = _reduce(_sparse(self.rows))[0]
        if len(pivots) < self.nrows:
            return Fraction(0)
        cols = [c for _, c, _ in sorted(pivots)]      # in row order
        swaps = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
        return (-1) ** swaps * math.prod((p for _, _, p in pivots), start=Fraction(1))

    def rank(self) -> int:
        return len(_reduce(_sparse(self.rows))[0])


def _sparse(rows) -> list:
    """Rows as dicts from column index to nonzero Fraction or int, the
    entries the kernel takes; a row may be a list or already such a dict,
    and a float entry is refused."""
    return [{j: x for j, x in ((j, x if type(x) in (Fraction, int) else _exact(x))
                               for j, x in (r.items() if isinstance(r, dict)
                                            else enumerate(r))) if x}
            for r in rows]


def _fits(vectors, sparse, width) -> bool:
    """Every vector is ``width`` long: a list by its length, a dict by its
    keys (``sparse`` holds the vectors as dicts)."""
    return all(all(0 <= j < width for j in d) if isinstance(v, dict)
               else len(v) == width for v, d in zip(vectors, sparse))


def _reduce(rows, ncols=None, diagonal=None) -> tuple:
    """Sparse elimination in place on rows given as dicts from column to
    nonzero entry (a Fraction or an int); the one elimination kernel of
    the package.

    With ``ncols``, the pivot columns run left to right over ``0 ..
    ncols - 1`` and each pivot column is cleared from every other row
    (Gauss-Jordan), so those columns end in reduced row echelon form and
    any further keys (right-hand sides) undergo the same row operations.
    Without it, each pivot is taken on the shortest row, in its column
    held by the fewest rows, and the pivot row then leaves the
    elimination: enough for a rank or a determinant.  With ``diagonal``,
    row indices, too, only those rows take pivots, each on its diagonal,
    and the other rows end as the Schur complement of the pivot block
    (Kron reduction of a Laplacian).  Either way a pivot is taken on the
    shortest candidate row, which keeps the fill small, and rows that
    share no column are never mixed.

    The arithmetic is fraction-free.  Each row is held as a primitive
    integer row (its entries share no factor) and a rational scale m / d
    in lowest terms, the true row being the integer row times m / d.
    Clearing column c of a target t with the pivot row r is ``p * t -
    t[c] * r`` for the pivot entry p, divided by its content g, and the
    scale of t becomes m * g / (d * p), reduced: integer work only, where
    the same update over Fractions builds one per entry.  The zero
    pattern, and so every pivot choice, is that of the same elimination
    over Fractions.  Returns ``(pivots, scales)``: the pivots as (row,
    column, value before scaling) in the order taken, and per row the
    scale (m, d) of the primitive integer row it is left holding.  A
    pivot row's scale is (1, its pivot entry), so its true row is 1 at
    its pivot; any other row's true row is ``rows[i] * m / d``.
    """
    holders = {}                                  # column -> rows holding it
    scales = []                                   # row i is rows[i] * m / d
    for i, row in enumerate(rows):
        d = math.lcm(*(x.denominator for x in row.values()))
        ints = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
        g = math.gcd(*ints.values())
        if g > 1:
            ints = {j: x // g for j, x in ints.items()}
        rows[i] = ints
        scales.append((g or 1, d))
        for c in ints:
            holders.setdefault(c, set()).add(i)
    live = set(range(len(rows)))                  # rows not yet pivots
    pool = range(len(rows)) if diagonal is None else diagonal
    if ncols is None:
        by_size = {}                              # length -> pool rows that long
        for i in pool:
            if rows[i]:
                by_size.setdefault(len(rows[i]), set()).add(i)
    columns = iter(range(ncols or 0))
    pivots = []
    while True:
        if ncols is None:                         # shortest row, rarest column
            size = min((s for s, held in by_size.items() if held), default=None)
            if size is None:
                break
            i = min(by_size[size])
            by_size[size].discard(i)
            c = min(rows[i], key=lambda c: len(holders[c])) if diagonal is None else i
            if c not in rows[i]:                  # no diagonal entry, no pivot
                continue
        else:                                     # next column with a candidate
            c = next((c for c in columns if not live.isdisjoint(holders.get(c, ()))),
                     None)
            if c is None:
                break
            i = min(live.intersection(holders[c]), key=lambda i: (len(rows[i]), i))
        live.discard(i)
        row, p = rows[i], rows[i][c]
        m, d = scales[i]
        pivots.append((i, c, Fraction(p * m, d)))
        if ncols is None:
            for j in row:
                holders[j].discard(i)
        for t in [t for t in holders[c] if t != i]:
            target = rows[t]
            if ncols is None and t in pool:
                by_size[len(target)].discard(t)
            f = target.pop(c)
            holders[c].discard(t)
            if p != 1:
                target = {j: p * x for j, x in target.items()}
            for j, y in row.items():
                if j == c:
                    continue
                x = target.get(j)
                if x is None:
                    target[j] = -f * y
                    holders[j].add(t)
                else:
                    x -= f * y
                    if x:
                        target[j] = x
                    else:
                        del target[j]
                        holders[j].discard(t)
            g = math.gcd(*target.values())
            if g > 1:
                target = {j: x // g for j, x in target.items()}
            rows[t] = target
            if target and t in live:
                m, d = scales[t]
                m, d = m * g, d * p
                h = math.gcd(m, d)
                scales[t] = m // h, d // h
                if ncols is None and t in pool:
                    by_size.setdefault(len(target), set()).add(t)
    # a pivot row's true row is 1 at its pivot
    for i, c, _ in pivots:
        scales[i] = (1, rows[i][c])
    return pivots, scales


class Inconsistent(Record):
    """Certificate y with y^T A = 0 but y^T b != 0."""

    _fields = ("certificate",)

    def __init__(self, certificate: list):
        self.certificate = certificate


class Solutions(Record):
    """One particular solution per right-hand side, plus a kernel basis."""

    _fields = ("particulars", "nullspace")

    def __init__(self, particulars: list, nullspace: list):
        self.particulars = particulars
        self.nullspace = nullspace


def solve_many(a, rhs_columns, ncols=None):
    """Solve A x = b exactly for every b in ``rhs_columns`` at once.

    ``a`` is a RationalMatrix, or a list of rows ``ncols`` columns wide;
    a row, like a right-hand side b, is a list or a sparse dict from index
    to entry.  One elimination of ``[A | b_1 ... b_k]`` gives
    :class:`Solutions`: per column the particular solution whose free
    variables are zero, and a nullspace basis of A.  If some b_k is not
    in the column space, returns an :class:`Inconsistent` certificate for
    the first such column.
    """
    if isinstance(a, RationalMatrix):
        a, ncols = a.rows, a.ncols
    elif ncols is None:
        raise TypeError("sparse rows need ncols")
    rows, cols = _sparse(a), _sparse(rhs_columns)
    nr, nc = len(rows), ncols
    if not _fits(a, rows, nc):
        raise ValueError("row width mismatch")
    if not _fits(rhs_columns, cols, nr):
        raise ValueError("rhs length mismatch")
    for k, b in enumerate(cols):
        for i, x in b.items():
            rows[i][nc + k] = x
    pivots, scales = _reduce(rows, nc)
    rest = set(range(nr)).difference(i for i, _, _ in pivots)
    # the rows without a pivot keep only right-hand side keys
    bad = min((min(rows[i]) for i in rest if rows[i]), default=None)
    zero = Fraction(0)
    if bad is not None:
        # redo the same row operations on an identity block to record them
        rows = _sparse(a)
        for i, row in enumerate(rows):
            row[nc + 1 + i] = 1
        for i, x in cols[bad - nc].items():
            rows[i][nc] = x
        pivots, scales = _reduce(rows, nc)
        rest = set(range(nr)).difference(i for i, _, _ in pivots)
        r = min(i for i in rest if nc in rows[i])
        (m, d), cert = scales[r], rows[r]
        return Inconsistent(certificate=[Fraction(cert.get(nc + 1 + i, 0) * m, d)
                                         for i in range(nr)])
    # one Fraction per entry returned, each pivot row over its pivot entry
    particulars = []
    for k in range(nc, nc + len(cols)):
        x = [zero] * nc
        for i, c, _ in pivots:
            x[c] = Fraction(rows[i].get(k, 0), scales[i][1])
        particulars.append(x)
    nullspace = []
    free = sorted(set(range(nc)).difference(c for _, c, _ in pivots))
    for fc in free:
        v = [zero] * nc
        v[fc] = Fraction(1)
        for i, c, _ in pivots:
            v[c] = Fraction(-rows[i].get(fc, 0), scales[i][1])
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
