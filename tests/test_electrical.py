"""Response, resistance, and dual response, with a floating-point oracle."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    dense_laplacian,
    dense_response_matrix,
    dense_solve_many,
    fraction_chart_from_lstar,
    fraction_chart_from_response,
    fraction_extract_symmetric,
    fraction_lstar_from_resistance,
    fraction_resistance,
    is_concordant,
    is_symmetric,
    make_both_faults,
    make_delta,
    make_disconnected,
    make_edgeless,
    make_glued_tree,
    make_grid,
    make_grid4,
    make_isolated_vertex,
    make_shorted,
    make_single_edge,
    make_two_hubs,
    make_y,
    one_block,
    oracle_networks,
    outcome,
    random_planar_net,
    sympy_response,
    two_solve_resistance,
)
from cactusnet.combinat import (
    NoncrossingPartition,
    enumerate_noncrossing,
)
from cactusnet.electrical import (
    laplacian,
    lstar_from_resistance,
    resistance_matrix,
    response_matrix,
)
from cactusnet import electrical
from cactusnet.grassmann import chart_from_lstar, chart_from_response, extract_symmetric
from cactusnet.groves import lambda_vector
from cactusnet.linalg import RationalMatrix
from cactusnet.network import CactusNetwork, dual, quotient_graph


def float_response(qg):
    """Schur complement onto the boundary, in floating point."""
    lap = np.zeros((len(qg.vertices),) * 2)
    rows, scales = laplacian(qg)
    for i, (row, scale) in enumerate(zip(rows, scales)):
        for j, x in row.items():
            lap[i, j] = x / scale
    nb = len(qg.boundary)
    if lap.shape[0] == nb:
        return -lap
    a = lap[:nb, :nb]
    b = lap[:nb, nb:]
    d = lap[nb:, nb:]
    return -(a - b @ np.linalg.solve(d, b.T))


def test_laplacian_structure():
    """Sparse integer rows with no zero entry, each over a positive
    scale, equal to the dense oracle: symmetric with zero row sums, on
    glued, shorted and disconnected shapes too."""
    for net in (make_y(1, 2, 3), make_glued_tree(), make_grid4(), make_shorted(),
                make_disconnected(), make_two_hubs()):
        qg = quotient_graph(net)
        rows, scales = laplacian(qg)
        dense = dense_laplacian(qg)
        assert all(x and type(x) is int for row in rows for x in row.values())
        assert all(type(s) is int and s > 0 for s in scales)
        assert RationalMatrix([[Fraction(row.get(j, 0), s) for j in range(len(rows))]
                               for row, s in zip(rows, scales)]) == dense
        assert is_symmetric(dense)
        assert all(sum(row.values()) == 0 for row in rows)


def test_response_y_exact():
    L = response_matrix(make_y(1, 2, 3))
    assert L.rows == [
        [Fraction(-5, 6), Fraction(1, 3), Fraction(1, 2)],
        [Fraction(1, 3), Fraction(-4, 3), Fraction(1)],
        [Fraction(1, 2), Fraction(1), Fraction(-3, 2)],
    ]


def test_resistance_y_exact():
    R = resistance_matrix(make_y(1, 2, 3))
    assert R[(0, 1)] == Fraction(3, 2)
    assert R[(0, 2)] == Fraction(4, 3)
    assert R[(1, 2)] == Fraction(5, 6)
    assert all(R[(i, i)] == 0 for i in range(3))


def test_response_matches_float_oracle(rng):
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        net = random_planar_net(rng, n, connected=True)
        qg = quotient_graph(net)
        exact = response_matrix(net)
        approx = float_response(qg)
        got = np.array([[float(x) for x in row] for row in exact.rows])
        assert np.allclose(got, approx, atol=1e-9)


def test_response_properties(rng):
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5])
        net = random_planar_net(rng, n)
        L = response_matrix(net)
        assert is_symmetric(L)
        for i in range(L.nrows):
            assert sum(L[(i, j)] for j in range(L.ncols)) == 0
            for j in range(L.ncols):
                if i != j:
                    assert L[(i, j)] >= 0
                else:
                    assert L[(i, i)] <= 0


def test_resistance_matches_pseudoinverse(rng):
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        net = random_planar_net(rng, n, connected=True)
        R = resistance_matrix(net)
        minus_l = -np.array(
            [[float(x) for x in row] for row in response_matrix(net).rows])
        pinv = np.linalg.pinv(minus_l)
        part = NoncrossingPartition.from_blocks(net.n, net.shape)
        for bi, bu in enumerate(part.blocks):
            for bj, bv in enumerate(part.blocks):
                expect = pinv[bi, bi] + pinv[bj, bj] - 2 * pinv[bi, bj]
                got = float(R[(bu[0] - 1, bv[0] - 1)])
                assert abs(got - expect) < 1e-9


def test_resistance_zero_inside_glued_block():
    R = resistance_matrix(make_glued_tree())
    assert R[(1, 2)] == 0   # labels 2 and 3 are the same terminal
    assert R[(3, 5)] == 0   # labels 4 and 6
    assert R[(1, 4)] == Fraction(11, 6)


def test_response_requires_grounded_internal():
    """An internal vertex without edges passes validation and fails the
    response's own precondition, as does the resistance."""
    net = make_isolated_vertex()
    for compute in (response_matrix, resistance_matrix):
        with pytest.raises(ValueError, match="an internal vertex is isolated"):
            compute(net)


def test_resistance_requires_connected_boundary():
    with pytest.raises(ValueError):
        resistance_matrix(make_disconnected())


def test_lstar_properties(rng):
    for _ in range(15):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        Ls = lstar_from_resistance(resistance_matrix(net))
        assert is_symmetric(Ls)
        for i in range(n):
            assert sum(Ls[(i, j)] for j in range(n)) == 0


def test_lstar_is_dual_response():
    for net in (make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge(),
                make_glued_tree()):
        Ls = lstar_from_resistance(resistance_matrix(net))
        assert Ls == response_matrix(dual(net))


def test_response_from_measurement_ratios(rng):
    """L_ij equals the measurement of the pairing {i,j} divided by the
    all-singletons measurement."""
    for _ in range(10):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        lam = lambda_vector(net)
        L = response_matrix(net)
        sing = lam[NoncrossingPartition.singletons(n)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                blocks = [(i, j)] + [
                    (k,) for k in range(1, n + 1) if k not in (i, j)]
                sigma = NoncrossingPartition.from_blocks(n, blocks)
                assert L[(i - 1, j - 1)] == lam[sigma] / sing


def test_resistance_from_concordant_sums(rng):
    """R_ij equals the sum of measurements over partitions for which
    {i,j} is concordant, divided by the one-block measurement."""
    for _ in range(10):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        lam = lambda_vector(net)
        R = resistance_matrix(net)
        top = lam[one_block(n)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                tot = sum(
                    (lam[s] for s in enumerate_noncrossing(n)
                     if is_concordant((i, j), s.blocks)),
                    Fraction(0),
                )
                assert R[(i - 1, j - 1)] == tot / top


def per_pair_resistance(net):
    """Exact oracle: one solve of L V = e_u - e_v per pair of blocks,
    R(u, v) = V[v] - V[u]; None when some pair is disconnected."""
    part = NoncrossingPartition.from_blocks(net.n, net.shape)
    resp = response_matrix(net)
    nb = resp.nrows
    rows = [[Fraction(0)] * net.n for _ in range(net.n)]
    for bu in range(nb):
        for bv in range(bu + 1, nb):
            rhs = [Fraction(0)] * nb
            rhs[bu], rhs[bv] = Fraction(1), Fraction(-1)
            sol = dense_solve_many(resp, [rhs])
            if sol is None:
                return None
            (v,), _ = sol
            r = v[bv] - v[bu]
            for i in part.blocks[bu]:
                for j in part.blocks[bv]:
                    rows[i - 1][j - 1] = rows[j - 1][i - 1] = r
    return RationalMatrix(rows)


def test_grounded_resistance_matches_per_pair_oracle(rng):
    nets = [make_glued_tree(), make_y(1, 2, 3), make_disconnected()]
    nets += [random_planar_net(rng, rng.randint(2, 7), connected=rng.random() < 0.5)
             for _ in range(40)]
    disconnected = 0
    for net in nets:
        expect = per_pair_resistance(net)
        if expect is None:
            disconnected += 1
            with pytest.raises(ValueError, match="disconnected"):
                resistance_matrix(net)
        else:
            assert resistance_matrix(net) == expect
    assert disconnected >= 2


def test_response_matches_the_dense_oracle():
    """The sparse response equals the dense Schur complement, or fails
    with the same error."""
    failures = set()
    for net in oracle_networks():
        try:
            expect = dense_response_matrix(net)
        except ValueError as exc:
            failures.add(str(exc))
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                response_matrix(net)
        else:
            got = response_matrix(net)
            assert got == expect
            assert all(type(x) is Fraction for row in got.rows for x in row)
    assert failures == {"an internal vertex is isolated from the boundary"}


def test_resistance_matches_two_solve_oracle():
    """One grounded Laplacian solve gives the matrix, or the error, that
    the response matrix followed by a grounded inverse gives."""
    nets = oracle_networks()
    failures = set()
    for net in nets:
        try:
            expect = two_solve_resistance(net)
        except ValueError as exc:
            failures.add(str(exc))
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                resistance_matrix(net)
        else:
            assert resistance_matrix(net) == expect
    assert len(failures) == 2   # one disconnected, one isolated


def test_disconnection_outranks_isolation():
    """A network with an isolated terminal and a floating internal
    component is reported as disconnected; the two-solve oracle, which
    eliminates the internal block first, reports it as isolated."""
    net = make_both_faults()
    with pytest.raises(ValueError, match="isolated"):
        two_solve_resistance(net)
    with pytest.raises(ValueError, match="disconnected"):
        resistance_matrix(net)


def test_electrical_entry_points_refuse_invalid_networks():
    crossing = make_edgeless(4).replace(shape=((1, 3), (2, 4)))
    for compute in (response_matrix, resistance_matrix):
        with pytest.raises(ValueError, match="invalid network"):
            compute(crossing)


def test_one_solve_per_matrix(monkeypatch):
    """The response is one forward pass of ``_reduce`` over the sparse
    integer Laplacian that pivots only on the internal rows; the
    resistance is one Gauss-Jordan ``_reduce`` call on the Laplacian with
    block 0 grounded and a unit current per other boundary block, and
    never calls ``response_matrix``.  Every row holds only integers, at
    its vertex and its neighbours (and its current), and no dense matrix
    is passed."""
    reductions, responses = [], []
    reduce = electrical._reduce

    def reducing(rows, ncols=None, diagonal=None):
        assert all(type(row) is dict for row in rows)
        assert all(type(x) is int for row in rows for x in row.values())
        inside = sum(j < (ncols or len(rows)) for row in rows for j in row)
        pool = None if diagonal is None else list(diagonal)
        reductions.append((len(rows), ncols, pool, inside,
                           sum(map(len, rows)) - inside))
        return reduce(rows, ncols, diagonal)

    monkeypatch.setattr(electrical, "_reduce", reducing)
    net = random_planar_net(random.Random(3), 6, connected=True)
    response_matrix(net)
    # six labels and the hub, the only pivot row: 7 diagonals, 10 edges
    assert reductions == [(7, None, [6], 7 + 2 * 10, 0)]
    reductions.clear()
    response_matrix(make_grid4())
    # 8 labels and the inner square: 12 diagonals, 12 edges
    assert reductions == [(12, None, [8, 9, 10, 11], 12 + 2 * 12, 0)]
    reductions.clear()
    response_matrix(make_delta(1, 2, 3))
    assert reductions == [(3, None, [], 3 + 2 * 3, 0)]   # no pivot row
    reductions.clear()
    response = electrical.response_matrix
    monkeypatch.setattr(electrical, "response_matrix",
                        lambda net: responses.append(net) or response(net))
    resistance_matrix(net)
    # block 0 grounded, a current into each of the five other labels
    assert [r[:3] + r[4:] for r in reductions] == [(6, 6, None, 5)]
    reductions.clear()
    resistance_matrix(make_grid4())
    # 11 diagonals, both ends of the 11 edges that avoid the ground b1,
    # and 7 currents
    assert reductions == [(11, 11, None, 11 + 2 * 11, 7)]
    assert responses == []


def response_networks():
    """The oracle networks, an isolated internal vertex, 200 random wheels
    with n = 2..7, and grids with 30-bit conductances for k = 4..7."""
    rng = random.Random(20)
    nets = oracle_networks() + [make_isolated_vertex()]
    nets += [random_planar_net(rng, rng.randint(2, 7), connected=rng.random() < 0.5)
             for _ in range(200)]
    nets += [make_grid(k, rng, bits=30) for k in range(4, 8)]
    return nets


def test_kron_response_matches_the_sympy_oracle():
    """The Kron-reduced response equals the response of one sympy solve
    on the internal block and the dense Schur complement, or fails with
    the same error as both."""
    failures = 0
    for net in response_networks():
        try:
            expect = sympy_response(net)
        except ValueError as exc:
            failures += 1
            for compute in (dense_response_matrix, response_matrix):
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    compute(net)
        else:
            got = response_matrix(net)
            assert got == expect == dense_response_matrix(net)
            assert all(type(x) is Fraction for row in got.rows for x in row)
    assert failures == 2   # the floating triangle and the isolated vertex


def test_integer_electrical_layer_matches_the_fraction_oracles():
    """The integer Laplacian equals the dense one row by row, each row over
    the lcm of the denominators of its conductances.  R equals the
    ``fraction_reduce`` solve summed over Fractions and the two-solve
    oracle, or fails with the same error as the first; L* equals its
    second differences over Fractions, and the charts and extractions of
    L and L* equal their Fraction oracles."""
    outcomes = {"resistance": 0, "response": 0}
    for net in response_networks():
        qg = quotient_graph(net)
        rows, scales = laplacian(qg)
        dense = dense_laplacian(qg).rows
        for k, v in enumerate(qg.vertices):
            assert scales[k] == math.lcm(*(c.denominator for _, a, b, c in qg.edges
                                           if v in (a, b)))
            assert [Fraction(rows[k].get(j, 0), scales[k])
                    for j in range(len(rows))] == dense[k]
        try:
            expect = fraction_resistance(net)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                resistance_matrix(net)
        else:
            outcomes["resistance"] += 1
            r = resistance_matrix(net)
            assert r == expect == two_solve_resistance(net)
            lstar = lstar_from_resistance(r)
            assert lstar == fraction_lstar_from_resistance(r)
            chart = chart_from_lstar(lstar)
            assert chart == fraction_chart_from_lstar(lstar)
            assert extract_symmetric(chart, "dual") == lstar
            for mode in ("dual", "response"):
                assert outcome(extract_symmetric, chart, mode) == \
                    outcome(fraction_extract_symmetric, chart, mode)
        try:
            resp = dense_response_matrix(net)
        except ValueError:
            continue
        outcomes["response"] += 1
        chart = chart_from_response(response_matrix(net))
        assert chart == fraction_chart_from_response(resp)
        assert extract_symmetric(chart, "response") == resp
        for mode in ("dual", "response"):
            assert outcome(extract_symmetric, chart, mode) == \
                outcome(fraction_extract_symmetric, chart, mode)
    assert outcomes["resistance"] > 100 and outcomes["response"] > 200


def test_lstar_matches_the_fraction_oracle_on_any_square_matrix(rng):
    """Second differences in integers over one denominator equal them over
    Fractions, for matrices that are no resistance matrix too."""
    for n in range(0, 8):
        for _ in range(10):
            r = RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                                 for _ in range(n)] for _ in range(n)])
            assert lstar_from_resistance(r) == fraction_lstar_from_resistance(r)
