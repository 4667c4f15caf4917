"""Response matrices, effective resistance, and the dual response.

Sign convention for the response matrix L: off-diagonal entries are
nonnegative and rows sum to zero, so the diagonal is nonpositive.  With
this convention a potential vector V and the net currents out of the
boundary satisfy current = -L V, and effective resistance comes out
positive: solving L V = e_u - e_v gives R(u, v) = V[v] - V[u].
L is the Kron reduction of the quotient Laplacian: eliminating the
internal vertices, each on its own diagonal, leaves the Schur complement
-L in the boundary rows (one forward pass of ``linalg._reduce``).
Resistances are not computed from L, though: one solve on the quotient
Laplacian with boundary block 0 grounded gives them all.
"""

from fractions import Fraction

from .linalg import Inconsistent, RationalMatrix, _reduce, solve_many
from .network import CactusNetwork, QuotientGraph, quotient_graph, require_valid


def laplacian(qg: QuotientGraph) -> list:
    """Weighted graph Laplacian as sparse rows, in ``qg.vertices`` order:
    row k maps k and each neighbour of vertex k to its entry.  The
    quotient keeps no loops, so no entry is zero."""
    order = {v: k for k, v in enumerate(qg.vertices)}
    rows = [{} for _ in order]
    zero = Fraction(0)
    for _, u, v, c in qg.edges:
        for i, j in ((order[u], order[v]), (order[v], order[u])):
            rows[i][i] = rows[i].get(i, zero) + c
            rows[i][j] = rows[i].get(j, zero) - c
    return rows


def response_matrix(net: CactusNetwork) -> RationalMatrix:
    """The boundary response matrix L (negated Schur complement).

    Rows and columns follow the canonical order of the shape blocks.
    Internal vertices must all be connected to the boundary: one cut off
    from it is left without a pivot by the Kron reduction.
    """
    require_valid(net)
    qg = quotient_graph(net)
    lap = laplacian(qg)
    nb = len(qg.boundary)
    internal = range(nb, len(lap))
    if len(_reduce(lap, diagonal=internal)) < len(internal):
        raise ValueError("an internal vertex is isolated from the boundary")
    zero = Fraction(0)
    return RationalMatrix([[-row.get(b, zero) for b in range(nb)]
                           for row in lap[:nb]])


def resistance_matrix(net: CactusNetwork) -> RationalMatrix:
    """Effective resistances between boundary labels, as an n x n matrix.

    Block 0 of the quotient Laplacian is grounded and one elimination
    solves for a unit current into every other boundary block; with G
    that solution (G = 0 on the ground), R(u, v) = G_uu + G_vv - 2 G_uv.
    Labels glued by the shape are at distance zero.  Every boundary
    block must connect to block 0 (otherwise some resistance is
    infinite) and every internal vertex to the boundary.
    """
    require_valid(net)
    qg = quotient_graph(net)
    nb, size = len(qg.boundary), len(qg.vertices)
    grounded = [{j - 1: x for j, x in row.items() if j}
                for row in laplacian(qg)[1:]]
    units = [{k: 1} for k in range(nb - 1)]
    sol = solve_many(grounded, units, ncols=size - 1)
    if isinstance(sol, Inconsistent):
        raise ValueError(
            "boundary components are disconnected; resistance is infinite"
        )
    if sol.nullspace:
        raise ValueError("an internal vertex is isolated from the boundary")
    g = [[Fraction(0)] * nb] + [[Fraction(0)] + x[:nb - 1] for x in sol.particulars]
    block_of = {i: k for k, b in enumerate(qg.boundary) for i in b}
    ks = [block_of[i] for i in range(1, net.n + 1)]
    return RationalMatrix(
        [[g[u][u] + g[v][v] - 2 * g[u][v] for v in ks] for u in ks]
    )


def lstar_from_resistance(r: RationalMatrix) -> RationalMatrix:
    """The dual response built from second differences of resistance.

    Off-diagonal entries are half the alternating sum of R over the four
    cyclically shifted index pairs; diagonals make the rows sum to zero.
    """
    n = r.nrows

    def rr(i, j):  # 1-based, cyclic
        i = (i - 1) % n + 1
        j = (j - 1) % n + 1
        return r[(i - 1, j - 1)]

    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            m[i - 1][j - 1] = (
                rr(i, j) + rr(i + 1, j + 1) - rr(i + 1, j) - rr(i, j + 1)
            ) / 2
    for i in range(n):
        m[i][i] = -sum(m[i][j] for j in range(n) if j != i)
    return RationalMatrix(m)
