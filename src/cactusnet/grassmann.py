"""Exterior algebra, the isotropic Grassmannian, and network charts.

Vectors in the (n+1)-st exterior power of R^{2n} are stored sparsely,
keyed by sorted tuples of column positions 0..2n-1 in the interleaved
order 1, 1~, 2, 2~, ..., n, n~ (see combinat).  A network's measurement
vector maps to such an exterior vector whose coefficients, read in a
basis of concordant wedges, are the Plucker coordinates of an isotropic
point of Gr(n+1, 2n).
"""

import itertools
import math
from fractions import Fraction

from .combinat import (
    KrewerasPair,
    NoncrossingPartition,
    circle_position,
    kreweras_complement,
)
from .groves import GroveMeasurements
from .linalg import (
    Inconsistent,
    RationalMatrix,
    _exact,
    _reduce,
    _sparse_ratio,
    solve_many,
)


class ExteriorVector:
    """Sparse element of wedge^k R^{2n}, keyed by tuples of k strictly
    increasing positions in 0 .. 2n - 1."""

    def __init__(self, n: int, degree: int, coords=None):
        self.n = n
        self.degree = degree
        self.coords = {}
        top = 2 * n
        for key, val in (coords or {}).items():
            # degree positions, strictly increasing, in 0 .. 2n - 1
            if len(key) != degree or list(key) != sorted(set(key)) or \
                    key and (key[0] < 0 or key[-1] >= top):
                raise ValueError(f"bad key {key} for degree {degree}, n = {n}")
            if type(val) is not Fraction:
                val = _exact(val)
            if val:
                self.coords[tuple(key)] = val

    @classmethod
    def _built(cls, n: int, degree: int, coords: dict) -> "ExteriorVector":
        """The vector of ``coords`` as given: nonzero Fractions on keys
        that this module built valid, so no key is checked again."""
        vec = cls.__new__(cls)
        vec.n, vec.degree, vec.coords = n, degree, coords
        return vec

    def __getitem__(self, key) -> Fraction:
        return self.coords.get(tuple(key), Fraction(0))

    def __add__(self, other) -> "ExteriorVector":
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, Fraction(0)) + v
        return ExteriorVector(self.n, self.degree, out)

    def scale(self, c) -> "ExteriorVector":
        c = _exact(c)
        return ExteriorVector(
            self.n, self.degree, {k: c * v for k, v in self.coords.items()}
        )

    def is_zero(self) -> bool:
        return not self.coords

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


def positions_of(n: int, labels) -> tuple:
    """Sorted circle positions of a set of labels (tilde stored as n+k)."""
    return tuple(sorted(circle_position(n, x) for x in labels))


def _concordant_keys(pair: KrewerasPair) -> list:
    """Position tuples of the basis wedges concordant with the pair.

    One label from every block of sigma and of its complement, in the
    product order of ``concordant_index_pairs``.
    """
    n = pair.n
    placed = [tuple(circle_position(n, x) for x in b) for b in pair.all_blocks()]
    return [tuple(sorted(c)) for c in itertools.product(*placed)]


def f_sigma(pair: KrewerasPair) -> ExteriorVector:
    """Sum of basis wedges over index pairs concordant with the pair."""
    return ExteriorVector(
        pair.n, pair.n + 1, dict.fromkeys(_concordant_keys(pair), Fraction(1)))


def lam_map(measurements: GroveMeasurements) -> ExteriorVector:
    """Exterior vector of a measurement vector: sum of Lambda_sigma f_sigma.

    The sums are exact integers over the lcm of the Lambda denominators.
    """
    values = [(sigma, val) for sigma, val in measurements.values.items() if val]
    denom = math.lcm(*(val.denominator for _, val in values))
    out = {}
    for sigma, val in values:
        weight = val.numerator * (denom // val.denominator)
        for key in _concordant_keys(KrewerasPair.of(sigma)):
            out[key] = out.get(key, 0) + weight
    n = measurements.n
    return ExteriorVector._built(n, n + 1, {
        key: Fraction(total, denom) for key, total in out.items() if total})


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

def d_matrix(n: int) -> RationalMatrix:
    """Diagonal sign matrix: both columns of label i carry (-1)^(i-1)."""
    diag = []
    for i in range(1, n + 1):
        diag += [Fraction((-1) ** (i - 1))] * 2
    return RationalMatrix(
        [[diag[p] if p == q else Fraction(0) for q in range(2 * n)]
         for p in range(2 * n)]
    )


def _negate_even_labels(rows, n: int):
    """Right multiplication by ``d_matrix(n)``, in place: negate both
    columns of every even label."""
    cols = [circle_position(n, lbl) for i in range(2, n + 1, 2)
            for lbl in (i, n + i)]
    for row in rows:
        for c in cols:
            row[c] = -row[c]
    return rows


def omega(n: int) -> RationalMatrix:
    """Gram matrix of the skew form whose isotropic planes have nonnegative
    Plucker coordinates exactly on network images."""
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]

    def put(p, q, v):
        m[p][q] += v
        m[q][p] -= v

    for i in range(1, n + 1):
        put(circle_position(n, i), circle_position(n, n + i), 1)
    for j in range(1, n):
        put(circle_position(n, j + 1), circle_position(n, n + j), 1)
    put(circle_position(n, 1), circle_position(n, 2 * n), Fraction((-1) ** n))
    return RationalMatrix(m)


def omega_d(n: int) -> RationalMatrix:
    """The sign-simplified conjugate form: D Omega D."""
    return d_matrix(n) @ omega(n) @ d_matrix(n)


def omega_kernel(n: int):
    """Basis of the radical: alternating sign vectors on each parity."""
    v1 = [Fraction(0)] * (2 * n)
    v2 = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        v2[circle_position(n, i)] = Fraction((-1) ** (i - 1))
        v1[circle_position(n, n + i)] = Fraction((-1) ** (i - 1))
    return [v1, v2]


def omega_d_kernel(n: int):
    v1 = [Fraction(0)] * (2 * n)
    v2 = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        v1[circle_position(n, i)] = Fraction(1)
        v2[circle_position(n, n + i)] = Fraction(1)
    return [v1, v2]


# ---------------------------------------------------------------------------
# Contraction with the form, isotropy, kernel dimension
# ---------------------------------------------------------------------------

def _partners(form: RationalMatrix):
    """(F, partners): the lcm F of the form's denominators and, for each
    position p, the pairs (q, F * form[p][q]) over q > p with a nonzero
    entry.  Contraction reads only these upper entries."""
    rows = form.rows
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return denom, [
        [(q, x.numerator * (denom // x.denominator))
         for q, x in enumerate(row) if q > p and x]
        for p, row in enumerate(rows)
    ]


def _contractions(partners, key):
    """Terms (key without positions p < q, +-weight) of contracting one
    basis wedge; the sign is (-1)^(i+j-1) for the indices i < j of p, q."""
    index = {p: i for i, p in enumerate(key)}
    for i, p in enumerate(key):
        for q, w in partners[p]:
            j = index.get(q)
            if j is not None:
                yield key[:i] + key[i + 1:j] + key[j + 1:], w if (i + j) % 2 else -w


def kappa(form: RationalMatrix, vec: ExteriorVector) -> ExteriorVector:
    """Contract a degree-(n+1) vector with a skew form, degree drops by 2.

    The terms are exact integers over F * V, the lcm of the form's
    denominators times the lcm of the vector's.
    """
    denom, partners = _partners(form)
    vdenom = math.lcm(*(val.denominator for val in vec.coords.values()))
    out = {}
    for key, val in vec.coords.items():
        scaled = val.numerator * (vdenom // val.denominator)
        for rest, w in _contractions(partners, key):
            out[rest] = out.get(rest, 0) + w * scaled
    denom *= vdenom
    return ExteriorVector._built(vec.n, vec.degree - 2, {
        rest: Fraction(total, denom) for rest, total in out.items() if total})


def is_isotropic(m: RationalMatrix, form: RationalMatrix) -> bool:
    """True iff the row span of m is isotropic: m form m^T = 0."""
    return (m @ form @ m.transpose()).is_zero()


def kernel_dimension_of_kappa(n: int, form: RationalMatrix = None) -> int:
    """Dimension of the kernel of the contraction on wedge^(n+1) R^{2n}.

    Equals the Catalan number Cat_n for either boundary form.
    """
    if form is None:
        form = omega(n)
    # one basis wedge contracts to distinct keys, so a row has no repeated
    # column; scaling the form by its denominator does not change the rank,
    # and the kernel takes the integer rows as they are
    _, partners = _partners(form)
    src = list(itertools.combinations(range(2 * n), n + 1))
    rows = [dict(_contractions(partners, key)) for key in src]
    return len(src) - len(_reduce(rows))


def is_totally_nonnegative(vec: ExteriorVector) -> bool:
    """Nonzero, and all coefficients share one sign (projectively TNN)."""
    if vec.is_zero():
        return False
    signs = {v > 0 for v in vec.coords.values()}
    return len(signs) == 1


# ---------------------------------------------------------------------------
# Cyclic shift
# ---------------------------------------------------------------------------

def shift(n: int) -> RationalMatrix:
    """Row-vector action of the cyclic shift: position p moves to p - 1,
    position 0 wraps to 2n - 1 with sign (-1)^n."""
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    m[0][2 * n - 1] = Fraction((-1) ** n)
    for p in range(1, 2 * n):
        m[p][p - 1] = Fraction(1)
    return RationalMatrix(m)


def shift_exterior(vec: ExteriorVector) -> ExteriorVector:
    """The induced shift on wedge^(n+1); all signs cancel in this degree."""
    n = vec.n
    out = {}
    for key, val in vec.coords.items():
        new = tuple(sorted((p - 1) % (2 * n) for p in key))
        # moving position 0 to the back costs (-1)^n which the wrap
        # coefficient (-1)^n cancels, so the sign is always +1
        out[new] = out.get(new, Fraction(0)) + val
    return ExteriorVector(n, n + 1, out)


def cyclic_shift(m: RationalMatrix) -> RationalMatrix:
    """Column action of the shift on a representing matrix."""
    return m @ shift(m.ncols // 2)


def shift_partition(sigma: NoncrossingPartition) -> NoncrossingPartition:
    """Relabel of the Kreweras complement matching the exterior shift."""
    return kreweras_complement(sigma)


# ---------------------------------------------------------------------------
# Charts: response / dual-response matrices to representing matrices
# ---------------------------------------------------------------------------

def _chart_columns(n: int, plain_pivots: bool):
    """(pivot columns, other columns) of a chart, in label order."""
    plain = [circle_position(n, i) for i in range(1, n + 1)]
    tilde = [circle_position(n, n + i) for i in range(1, n + 1)]
    return (plain, tilde) if plain_pivots else (tilde, plain)


def _chart(sums, plain_pivots: bool) -> RationalMatrix:
    """Representing matrix of a chart from its cumulative sums.

    Row pattern: a top row of ones on the non-pivot columns, then one row
    per label j with a 1 in the pivot column of j and ``sums[j][i]`` in
    the other column of label i, everything multiplied by the sign matrix.
    """
    n = len(sums)
    pivot_cols, other_cols = _chart_columns(n, plain_pivots)
    rows = [[Fraction(0)] * (2 * n) for _ in range(n + 1)]
    for c in other_cols:
        rows[0][c] = Fraction(1)
    for row, pc, sums_j in zip(rows[1:], pivot_cols, sums):
        row[pc] = Fraction(1)
        for c, s in zip(other_cols, sums_j):
            row[c] = s
    return RationalMatrix(_negate_even_labels(rows, n))


def chart_from_response(resp: RationalMatrix) -> RationalMatrix:
    """Representing matrix of the isotropic plane of a response matrix.

    Pivots on the plain columns; the tilde entries of row j are the
    cumulative sums S(j, i) = L(i+1, j) + ... + L(n, j), so S(j, n) = 0.
    """
    return _chart(
        [list(itertools.accumulate(reversed(col[1:]), initial=Fraction(0)))[::-1]
         for col in resp.transpose().rows],
        plain_pivots=True,
    )


def chart_from_lstar(lstar: RationalMatrix) -> RationalMatrix:
    """Representing matrix of the isotropic plane of a dual response.

    Pivots on the tilde columns; the plain entries of row j are the
    cumulative sums T(j, i) = L*(1, j) + ... + L*(i-1, j), so T(j, 1) = 0
    and T(j, i+1) - T(j, i) = L*(i, j).
    """
    return _chart(
        [list(itertools.accumulate(col[:-1], initial=Fraction(0)))
         for col in lstar.transpose().rows],
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
    md = RationalMatrix(_negate_even_labels([r[:] for r in m.rows], n))
    pivot_cols, other_cols = _chart_columns(n, mode == "response")
    # one solve of piv^T x = e_j for every label j; its nullspace is the
    # left kernel of the pivot block, the residual top row direction
    rows = range(n + 1)
    sol = solve_many(md.submatrix(rows, pivot_cols).transpose(),
                     RationalMatrix.identity(n).rows)
    if isinstance(sol, Inconsistent) or len(sol.nullspace) != 1:
        raise ValueError("plane is not in this chart")
    top, *entries = (RationalMatrix(sol.nullspace + sol.particulars)
                     @ md.submatrix(rows, other_cols)).rows
    if len(set(top)) != 1 or top[0] == 0:
        raise ValueError("plane is not in this chart")
    # entries[j] is the chart row of label j plus a multiple of the
    # constant top row, whatever representative m is: only differences
    # of its entries are invariants of the plane
    step = -1 if mode == "response" else 1
    return RationalMatrix(
        [[row[(i + step) % n] - row[i] for row in entries]
         for i in range(n)]
    )


def extreme_coordinates(vec: ExteriorVector):
    """The two families of extreme Plucker coordinates.

    Returns (not_shorted, connected): coefficients on "all plain columns
    plus one tilde column" and "one plain column plus all tilde".  Each
    family is constant on isotropic network images.
    """
    plain, tilde = _chart_columns(vec.n, plain_pivots=True)
    not_shorted = [vec[tuple(sorted(plain + [tk]))] for tk in tilde]
    connected = [vec[tuple(sorted([p] + tilde))] for p in plain]
    if len(set(not_shorted)) != 1 or len(set(connected)) != 1:
        raise ValueError("extreme coordinates differ; vector is not an image")
    return not_shorted[0], connected[0]
