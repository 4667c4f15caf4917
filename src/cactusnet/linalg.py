"""Exact-rational matrices and one sparse, fraction-free elimination kernel.

Where integers end: a ``RationalMatrix`` is held as integer rows over
one denominator, the least common one of its entries.  The library builds
its matrices from integer rows (``_of``) and reads ``denom`` and ``ints``,
so only the ``rows`` view, ``__getitem__`` and ``determinant`` build
Fractions.  An entry given to ``RationalMatrix`` may be anything exact; a
``float`` is refused.  The kernel ``_reduce`` takes rows of ints as they
are (the scaled Laplacian, the signed rows of a chart) and leaves each a
primitive integer row over a scale it returns, so its callers read the
rows directly.

Matrices are stored dense, but what the package eliminates is sparse (a
Laplacian row holds a vertex and its neighbours, a contraction row at
most n entries).  So one elimination over rows held as dicts of their
nonzero entries, each pivot on the shortest candidate row, serves rank,
determinant (the signed product of its pivots) and solving with any
number of right-hand sides.  Each row is held as a primitive integer row
and a rational scale, in the manner of Bareiss's integer-preserving
elimination, so an update costs integer products and one gcd rather than
a Fraction per entry.  Products skip zero entries of both factors.
"""

import math
from fractions import Fraction


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a float is refused, since it is not exact."""
    if isinstance(x, float):
        raise TypeError(f"float entry {x!r}; use an int, a Fraction or a string")
    return Fraction(x)


class RationalMatrix:
    """A rectangular matrix of rationals: entry (i, j) is ``ints[i][j] /
    denom``, ``ints`` a list of integer rows and ``denom`` the least
    common denominator of the entries, a positive int.  Being the least,
    it makes ``(denom, ints)`` unique, so equality compares it directly."""

    def __init__(self, rows):
        rows = [[x if type(x) is Fraction else _exact(x) for x in r] for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        denom = math.lcm(*(x.denominator for r in rows for x in r))
        self.denom = denom
        self.ints = [[x.numerator * (denom // x.denominator) for x in r] for r in rows]

    @classmethod
    def _of(cls, denom: int, ints: list) -> "RationalMatrix":
        """The matrix of the integer rows ``ints`` over the positive
        ``denom``, the rows taken as they are; their common factor with
        ``denom`` is divided out."""
        g = math.gcd(denom, *(x for r in ints for x in r)) if denom > 1 else 1
        if g > 1:
            denom, ints = denom // g, [[x // g for x in r] for r in ints]
        m = cls.__new__(cls)
        m.denom, m.ints = denom, ints
        return m

    @property
    def rows(self) -> list:
        """The entries as Fractions, a new list of rows on each read."""
        d = self.denom
        return [[Fraction(x, d) for x in r] for r in self.ints]

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def ncols(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.ints[i][j], self.denom)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and \
            (self.denom, self.ints) == (other.denom, other.ints)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"RationalMatrix[{body}]"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of(self.denom, list(map(list, zip(*self.ints))))

    def __matmul__(self, other) -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # row i of the product sums a * (row k of other) over the nonzero
        # entries a = self[i][k], each row of other read as its nonzeros
        terms = [[(j, b) for j, b in enumerate(row) if b] for row in other.ints]
        width = other.ncols
        out = []
        for row in self.ints:
            acc = [0] * width
            for a, kterms in zip(row, terms):
                if a:
                    for j, b in kterms:
                        acc[j] += a * b
            out.append(acc)
        return RationalMatrix._of(self.denom * other.denom, out)

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        ints = self.ints
        return RationalMatrix._of(self.denom, [[ints[i][j] for j in col_idx]
                                               for i in row_idx])

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    # determinant and rank stay methods, though rank has no library caller:
    # benchmarks/spans.py wraps both by name through the class __dict__
    def determinant(self) -> Fraction:
        """Determinant: the pivot product of the integer rows, signed by
        the permutation that takes each pivot row to its pivot column,
        over ``denom`` to the n-th power."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots = _reduce(_sparse(self.ints))[0]
        if len(pivots) < n:
            return Fraction(0)
        cols = [c for _, c, _ in sorted(pivots)]      # in row order
        swaps = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
        det = math.prod((p for _, _, p in pivots), start=Fraction((-1) ** swaps))
        return det / self.denom ** n

    def rank(self) -> int:
        return len(_reduce(_sparse(self.ints))[0])


def _sparse(rows) -> list:
    """Integer rows as dicts from column index to nonzero entry, the form
    the kernel takes."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


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
