"""Exterior algebra, the isotropic Grassmannian, and network charts.

Vectors in the (n+1)-st exterior power of R^{2n} are stored sparsely
over column positions 0..2n-1 in the interleaved order 1, 1~, 2, 2~,
..., n, n~ (see combinat).  A network's measurement vector maps to such
an exterior vector whose coefficients, read in a basis of concordant
wedges, are the Plucker coordinates of an isotropic point of Gr(n+1, 2n).
``lam_map`` reads the measurements by name (``GroveMeasurements.named``),
each partition's blocks parsed back from its name, and builds no
partition.

Where integers end: an ``ExteriorVector`` is held in integer form, each
coordinate an integer over one denominator, keyed by the bitmask of its
positions (bit p for position p).  ``lam_map``, ``kappa`` and
``is_totally_nonnegative`` work on that form; ``coords`` reads it as
Fractions keyed by tuples.  The charts, ``extract_symmetric`` and the
contraction read a ``RationalMatrix``'s integer rows and denominator,
and the charts and the extraction hand back integer rows over one
denominator, so none of them builds a Fraction.
"""

import itertools
import math
from fractions import Fraction

from .combinat import KrewerasPair, _kreweras_tilde_blocks, _name_blocks, circle_position
from .groves import GroveMeasurements
from .linalg import RationalMatrix, _exact, _reduce, _sparse_ratio


class ExteriorVector:
    """Sparse element of wedge^k R^{2n}: coordinate ``terms[mask] /
    denom`` on the k positions in 0 .. 2n - 1 of each bitmask, every term
    a nonzero int and ``denom`` a positive int.  ``coords`` is keyed by
    tuples of k strictly increasing positions."""

    def __init__(self, n: int, degree: int, coords=None):
        top = 2 * n
        values = {}
        for key, val in (coords or {}).items():
            # degree positions, strictly increasing, in 0 .. 2n - 1
            if len(key) != degree or list(key) != sorted(set(key)) or \
                    key and (key[0] < 0 or key[-1] >= top):
                raise ValueError(f"bad key {key} for degree {degree}, n = {n}")
            if type(val) is not Fraction:
                val = _exact(val)
            if val:
                values[sum(1 << p for p in key)] = val
        denom = math.lcm(*(v.denominator for v in values.values()))
        self.n, self.degree, self.denom = n, degree, denom
        self.terms = {mask: v.numerator * (denom // v.denominator)
                      for mask, v in values.items()}

    @classmethod
    def _of(cls, n: int, degree: int, denom: int, terms: dict):
        """The vector of ``(denom, terms)``, taken as they are: the terms
        must be nonzero and their masks have ``degree`` bits below 2n."""
        vec = cls.__new__(cls)
        vec.n, vec.degree, vec.denom, vec.terms = n, degree, denom, terms
        return vec

    @property
    def coords(self) -> dict:
        """The coordinates as Fractions, keyed by sorted position tuples."""
        positions = range(2 * self.n)
        return {tuple(p for p in positions if mask >> p & 1): Fraction(t, self.denom)
                for mask, t in self.terms.items()}

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.terms.get(sum(1 << p for p in key), 0), self.denom)

    def __add__(self, other) -> "ExteriorVector":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("cannot add vectors of different n or degree")
        denom = math.lcm(self.denom, other.denom)
        a, b = denom // self.denom, denom // other.denom
        out = {mask: a * t for mask, t in self.terms.items()}
        for mask, t in other.terms.items():
            out[mask] = out.get(mask, 0) + b * t
        return ExteriorVector._of(self.n, self.degree, denom,
                                  {mask: t for mask, t in out.items() if t})

    def scale(self, c) -> "ExteriorVector":
        c = _exact(c)
        terms = {mask: c.numerator * t for mask, t in self.terms.items()} if c else {}
        return ExteriorVector._of(self.n, self.degree, self.denom * c.denominator, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorVector)
            and (self.n, self.degree) == (other.n, other.degree)
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.coords.items()))
        return f"ExteriorVector({self.n}, {self.degree}, {{{inner}}})"


def proportionality_factor(v1: ExteriorVector, v2: ExteriorVector):
    """The rational t with v2 = t * v1, or None (zero vectors excluded)."""
    if (v1.n, v1.degree) != (v2.n, v2.degree):
        return None
    return _sparse_ratio(v1.coords, v2.coords)


def _position_bits(n: int) -> list:
    """bits[x]: the bitmask of the circle position of label x (0 unused)."""
    return [0] + [1 << circle_position(n, x) for x in range(1, 2 * n + 1)]


def _concordant_masks(bits, blocks) -> list:
    """Bitmasks of the wedges concordant with the blocks, one label from
    every block, in product order; ``bits`` from ``_position_bits``."""
    base, sums = 0, [0]
    for b in blocks:
        if len(b) == 1:
            base |= bits[b[0]]
        else:
            sums = [s | bits[x] for s in sums for x in b]
    return [base | s for s in sums]


def f_sigma(pair: KrewerasPair) -> ExteriorVector:
    """Sum of basis wedges over index pairs concordant with the pair."""
    masks = _concordant_masks(_position_bits(pair.n), pair.all_blocks())
    return ExteriorVector._of(pair.n, pair.n + 1, 1, dict.fromkeys(masks, 1))


def lam_map(measurements: GroveMeasurements) -> ExteriorVector:
    """Exterior vector of a measurement vector: sum of Lambda_sigma
    f_sigma, over the lcm of the Lambda denominators.  Each sigma's
    blocks are read back from its name."""
    n, named = measurements.n, measurements.named()
    denom = math.lcm(*(q for _, q in named.values()))
    bits = _position_bits(n)
    out, cache = {}, {}
    for name, (p, q) in named.items():
        weight = p * (denom // q)
        blocks = _name_blocks(name, cache)
        for mask in _concordant_masks(bits, blocks + _kreweras_tilde_blocks(n, blocks)):
            out[mask] = out.get(mask, 0) + weight
    return ExteriorVector._of(n, n + 1, denom, {mask: t for mask, t in out.items() if t})


def plucker(m: RationalMatrix) -> ExteriorVector:
    """Plucker coordinates (maximal minors) of a (n+1) x 2n matrix."""
    ncols = m.ncols
    if ncols % 2 or m.nrows != ncols // 2 + 1:
        raise ValueError("matrix must be (n+1) x 2n")
    n = ncols // 2
    rows = range(m.nrows)
    coords = {}
    for cols in itertools.combinations(range(ncols), n + 1):
        coords[cols] = m.submatrix(rows, cols).determinant()
    return ExteriorVector(n, n + 1, coords)


# ---------------------------------------------------------------------------
# The bilinear forms
# ---------------------------------------------------------------------------

def _negate_even_labels(rows, n: int):
    """Right multiplication by the diagonal sign matrix, whose two columns
    of label i carry (-1)^(i-1), in place: negate both columns of every
    even label."""
    cols = [circle_position(n, lbl) for i in range(2, n + 1, 2)
            for lbl in (i, n + i)]
    for row in rows:
        for c in cols:
            row[c] = -row[c]
    return rows


def omega(n: int) -> RationalMatrix:
    """Gram matrix of the skew form whose isotropic planes have nonnegative
    Plucker coordinates exactly on network images."""
    m = [[0] * (2 * n) for _ in range(2 * n)]

    def put(p, q, v):
        m[p][q] += v
        m[q][p] -= v

    for i in range(1, n + 1):
        put(circle_position(n, i), circle_position(n, n + i), 1)
    for j in range(1, n):
        put(circle_position(n, j + 1), circle_position(n, n + j), 1)
    put(circle_position(n, 1), circle_position(n, 2 * n), (-1) ** n)
    return RationalMatrix._of(1, m)


def omega_kernel(n: int):
    """Basis of the radical: alternating sign vectors on each parity."""
    v1 = [Fraction(0)] * (2 * n)
    v2 = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        v2[circle_position(n, i)] = Fraction((-1) ** (i - 1))
        v1[circle_position(n, n + i)] = Fraction((-1) ** (i - 1))
    return [v1, v2]


# ---------------------------------------------------------------------------
# Contraction with the form, isotropy, kernel dimension
# ---------------------------------------------------------------------------

def _pairs(form: RationalMatrix):
    """(F, pairs): the form's denominator F and, for each nonzero entry
    form[p][q] with p < q, the triple (bitmask of p and q, bitmask of the
    positions strictly between them, F * form[p][q]).  Contraction reads
    only these upper entries."""
    return form.denom, [((1 << p) | (1 << q), (1 << q) - (2 << p), x)
                        for p, row in enumerate(form.ints)
                        for q, x in enumerate(row) if q > p and x]


def _contract(pairs, terms: dict) -> dict:
    """The contraction of the vector ``{mask: t}`` with the form of
    ``pairs``, as ``{mask: total}``, zero totals kept.  A basis wedge with
    positions p < q at indices i < j contributes (-1)^(i+j-1) times the
    form's entry on them: the sign flips with each of its positions
    between p and q."""
    out = {}
    get = out.get
    for mask, t in terms.items():
        for pq, between, w in pairs:
            if mask & pq == pq:
                rest = mask ^ pq
                out[rest] = get(rest, 0) + (
                    -w * t if (mask & between).bit_count() & 1 else w * t)
    return out


def kappa(form: RationalMatrix, vec: ExteriorVector) -> ExteriorVector:
    """Contract a vector of wedge^k R^{2n} with a 2n x 2n skew form: degree
    k - 2 over ``F * vec.denom``, F the form's denominator."""
    if (form.nrows, form.ncols) != (2 * vec.n,) * 2:
        raise ValueError(f"form must be {2 * vec.n} x {2 * vec.n}")
    fdenom, pairs = _pairs(form)
    out = _contract(pairs, vec.terms)
    return ExteriorVector._of(vec.n, vec.degree - 2, fdenom * vec.denom,
                              {rest: t for rest, t in out.items() if t})


def is_isotropic(m: RationalMatrix, form: RationalMatrix) -> bool:
    """True iff the row span of m is isotropic: m form m^T = 0."""
    return (m @ form @ m.transpose()).is_zero()


def kernel_dimension_of_kappa(n: int, form: RationalMatrix = None) -> int:
    """Dimension of the kernel of the contraction on wedge^(n+1) R^{2n}.

    Equals the Catalan number Cat_n for either boundary form.
    """
    if form is None:
        form = omega(n)
    if (form.nrows, form.ncols) != (2 * n,) * 2:
        raise ValueError(f"form must be {2 * n} x {2 * n}")
    # one basis wedge contracts to distinct keys, so a row has no repeated
    # column; scaling the form by its denominator does not change the rank,
    # and the kernel takes the integer rows as they are
    _, pairs = _pairs(form)
    src = [sum(1 << p for p in key)
           for key in itertools.combinations(range(2 * n), n + 1)]
    rows = [_contract(pairs, {mask: 1}) for mask in src]
    return len(src) - len(_reduce(rows)[0])


def is_totally_nonnegative(vec: ExteriorVector) -> bool:
    """Nonzero, and all coefficients share one sign (projectively TNN)."""
    return len({t > 0 for t in vec.terms.values()}) == 1


# ---------------------------------------------------------------------------
# Charts: response / dual-response matrices to representing matrices
# ---------------------------------------------------------------------------

def _chart_columns(n: int, plain_pivots: bool):
    """(pivot columns, other columns) of a chart, in label order."""
    plain = [circle_position(n, i) for i in range(1, n + 1)]
    tilde = [circle_position(n, n + i) for i in range(1, n + 1)]
    return (plain, tilde) if plain_pivots else (tilde, plain)


def _chart(denom: int, sums, plain_pivots: bool) -> RationalMatrix:
    """Representing matrix of a chart from its cumulative sums, integers
    over ``denom``.

    Row pattern: a top row of ones on the non-pivot columns, then one row
    per label j with a 1 in the pivot column of j and ``sums[j][i]`` in
    the other column of label i, everything multiplied by the sign matrix.
    The pattern is built over ``denom`` and signed in integers.
    """
    n = len(sums)
    pivot_cols, other_cols = _chart_columns(n, plain_pivots)
    rows = [[0] * (2 * n) for _ in range(n + 1)]
    for c in other_cols:
        rows[0][c] = denom
    for row, pc, sums_j in zip(rows[1:], pivot_cols, sums):
        row[pc] = denom
        for c, s in zip(other_cols, sums_j):
            row[c] = s
    return RationalMatrix._of(denom, _negate_even_labels(rows, n))


def chart_from_response(resp: RationalMatrix) -> RationalMatrix:
    """Representing matrix of the isotropic plane of a response matrix.

    Pivots on the plain columns; the tilde entries of row j are the
    cumulative sums S(j, i) = L(i+1, j) + ... + L(n, j), so S(j, n) = 0.
    """
    if resp.nrows != resp.ncols:
        raise ValueError("response matrix must be square")
    return _chart(
        resp.denom,
        [list(itertools.accumulate(reversed(col[1:]), initial=0))[::-1]
         for col in zip(*resp.ints)],
        plain_pivots=True,
    )


def chart_from_lstar(lstar: RationalMatrix) -> RationalMatrix:
    """Representing matrix of the isotropic plane of a dual response.

    Pivots on the tilde columns; the plain entries of row j are the
    cumulative sums T(j, i) = L*(1, j) + ... + L*(i-1, j), so T(j, 1) = 0
    and T(j, i+1) - T(j, i) = L*(i, j).
    """
    if lstar.nrows != lstar.ncols:
        raise ValueError("dual response matrix must be square")
    return _chart(
        lstar.denom,
        [list(itertools.accumulate(col[:-1], initial=0)) for col in zip(*lstar.ints)],
        plain_pivots=False,
    )


def extract_symmetric(m: RationalMatrix, mode: str) -> RationalMatrix:
    """Recover the symmetric difference matrix from a representing matrix.

    ``mode`` is "response" (pivots on plain columns, differences of the
    tilde entries give the response matrix) or "dual" (the other way
    around).  Fails with ValueError if the plane is outside the chart.
    """
    n = m.ncols // 2
    if m.nrows != n + 1 or m.ncols != 2 * n:
        raise ValueError("matrix must be (n+1) x 2n")
    if mode not in ("response", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    # m over its denominator, which cancels in the differences below, its
    # pivot columns first: one Gauss-Jordan pass clears them
    md = _negate_even_labels([row[:] for row in m.ints], n)
    pivot_cols, other_cols = _chart_columns(n, mode == "response")
    cols = list(enumerate(pivot_cols + other_cols))
    rows = [{k: row[c] for k, c in cols if row[c]} for row in md]
    pivots, _ = _reduce(rows, n)
    # the one row left without a pivot is the constant top row, up to scale
    taken = {i for i, _, _ in pivots}
    top = next(row for i, row in enumerate(rows) if i not in taken)
    if len(pivots) != n or len(top) != n or len(set(top.values())) != 1:
        raise ValueError("plane is not in this chart")
    # the pivot row of label j, over its pivot entry, is the chart row of j
    # plus a multiple of the constant top row, whatever representative m
    # is: only differences of its entries are invariants of the plane
    step = -1 if mode == "response" else 1
    # over the lcm of the pivot entries
    by_label = [rows[i] for _, i in sorted((c, i) for i, c, _ in pivots)]
    denom = math.lcm(*(row[j] for j, row in enumerate(by_label)))
    return RationalMatrix._of(denom, [
        [(row.get(n + (i + step) % n, 0) - row.get(n + i, 0)) * (denom // row[j])
         for j, row in enumerate(by_label)] for i in range(n)])
