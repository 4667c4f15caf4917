"""Response matrices, effective resistance, and the dual response.

Sign convention for the response matrix L: off-diagonal entries are
nonnegative and rows sum to zero, so the diagonal is nonpositive.  With
this convention a potential vector V and the net currents out of the
boundary satisfy current = -L V, and effective resistance comes out
positive: solving L V = e_u - e_v gives R(u, v) = V[v] - V[u].
L is the Kron reduction of the quotient Laplacian: eliminating the
internal vertices, each on its own diagonal, leaves the Schur complement
-L in the boundary rows (one forward pass of ``linalg._reduce``).
Resistances are not computed from L, though: one Gauss-Jordan pass over
the quotient Laplacian with boundary block 0 grounded gives them all.

Where integers end: ``laplacian`` builds integer rows, each over its own
positive scale, and the kernel takes them as they are and leaves its rows
in integers, each over a scale it returns.  The response brings the
boundary rows over the lcm of their least denominators; R reads its
solution from the pivot rows over the lcm of their pivot entries, and R
and L* sum in integers.  Each hands its integer rows and their
denominator to ``RationalMatrix._of``, so no Fraction is built.
"""

import math

from .linalg import RationalMatrix, _reduce
from .network import CactusNetwork, QuotientGraph, quotient_graph


def laplacian(qg: QuotientGraph) -> tuple:
    """The weighted graph Laplacian as ``(rows, scales)``, in
    ``qg.vertices`` order.  Row k maps k and each neighbour of vertex k to
    an integer; the true row is that row over ``scales[k]``, the lcm of
    the denominators of the conductances at vertex k.  The quotient keeps
    no loops and conductances are positive, so no entry is zero."""
    order = {v: k for k, v in enumerate(qg.vertices)}
    ends = [(order[u], order[v], c) for _, u, v, c in qg.edges]
    scales = [1] * len(order)
    for u, v, c in ends:
        scales[u] = math.lcm(scales[u], c.denominator)
        scales[v] = math.lcm(scales[v], c.denominator)
    rows = [{} for _ in order]
    for u, v, c in ends:
        for i, j in ((u, v), (v, u)):
            x = c.numerator * (scales[i] // c.denominator)
            rows[i][i] = rows[i].get(i, 0) + x
            rows[i][j] = rows[i].get(j, 0) - x
    return rows, scales


def response_matrix(net: CactusNetwork) -> RationalMatrix:
    """The boundary response matrix L (negated Schur complement).

    Rows and columns follow the canonical order of the shape blocks.
    Internal vertices must all be connected to the boundary: one cut off
    from it is left without a pivot by the Kron reduction.
    """
    qg = quotient_graph(net)
    lap, scales = laplacian(qg)
    nb = len(qg.boundary)
    internal = range(nb, len(lap))
    pivots, kept = _reduce(lap, diagonal=internal)
    if len(pivots) < len(internal):
        raise ValueError("an internal vertex is isolated from the boundary")
    # scaling the internal rows leaves the Schur complement as it is, so
    # boundary row a, over its kept scale m / d, is scales[a] times -L's
    # row a: L's row a is p / q = -m / (d * scales[a]) times that primitive
    # row, so q is the least denominator of the row
    ratios = []
    for (m, d), s in zip(kept[:nb], scales):
        q = d * s
        h = math.gcd(m, q) if q > 0 else -math.gcd(m, q)  # so that q // h > 0
        ratios.append((-m // h, q // h))
    denom = math.lcm(*(q for _, q in ratios))
    return RationalMatrix._of(denom, [
        [row.get(b, 0) * p * (denom // q) for b in range(nb)]
        for row, (p, q) in zip(lap[:nb], ratios)])


def resistance_matrix(net: CactusNetwork) -> RationalMatrix:
    """Effective resistances between boundary labels, as an n x n matrix.

    Block 0 of the quotient Laplacian is grounded and one elimination
    solves for a unit current into every other boundary block; with G
    that solution (G = 0 on the ground), R(u, v) = G_uu + G_vv - 2 G_uv,
    summed in integers over the common denominator of G.  Labels glued
    by the shape are at distance zero.  Every boundary block must
    connect to block 0 (otherwise some resistance is infinite) and every
    internal vertex to the boundary.
    """
    qg = quotient_graph(net)
    nb, size = len(qg.boundary), len(qg.vertices)
    lap, scales = laplacian(qg)
    nc = size - 1
    rows = [{j - 1: x for j, x in row.items() if j} for row in lap[1:]]
    # each unit current is scaled with its row, which keeps the solution
    for k in range(nb - 1):
        rows[k][nc + k] = scales[k + 1]
    pivots, _ = _reduce(rows, nc)
    rest = set(range(nc)).difference(i for i, _, _ in pivots)
    # a row without a pivot keeps only current keys
    if any(rows[i] for i in rest):
        raise ValueError(
            "boundary components are disconnected; resistance is infinite"
        )
    if rest:
        raise ValueError("an internal vertex is isolated from the boundary")
    # G_uv is the pivot row of u at current v over its pivot entry; the
    # boundary rows are brought to the lcm of their pivot entries
    by_col = {c: rows[i] for i, c, _ in pivots}
    denom = math.lcm(*(by_col[u][u] for u in range(nb - 1)))
    g = [[0] * nb] + [[0] + [by_col[u].get(nc + v, 0) * (denom // by_col[u][u])
                             for v in range(nb - 1)] for u in range(nb - 1)]
    block_of = {i: k for k, b in enumerate(qg.boundary) for i in b}
    ks = [block_of[i] for i in range(1, net.n + 1)]
    return RationalMatrix._of(denom, [[g[u][u] + g[v][v] - 2 * g[u][v] for v in ks]
                                      for u in ks])


def lstar_from_resistance(r: RationalMatrix) -> RationalMatrix:
    """The dual response built from second differences of resistance.

    Off-diagonal entries are half the alternating sum of R over the four
    cyclically shifted index pairs; diagonals make the rows sum to zero.
    The sums are taken in integers over the common denominator of R.
    """
    if r.nrows != r.ncols:
        raise ValueError("resistance matrix must be square")
    n = r.nrows
    denom, ri = r.denom, r.ints
    nxt = [*range(1, n), 0]                       # cyclic successor
    m = [[ri[i][j] + ri[nxt[i]][nxt[j]] - ri[nxt[i]][j] - ri[i][nxt[j]]
          if i != j else 0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(m):
        row[i] = -sum(row)
    return RationalMatrix._of(2 * denom, m)
