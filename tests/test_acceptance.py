"""Acceptance criteria: one test per criterion, reported line by line.

Every check is an exact rational equality unless stated as proportional,
meaning equality up to a nonzero rational factor.
"""

import random
from fractions import Fraction

from conftest import (
    conductance_product,
    cyclic_shift,
    d_matrix,
    dense_solve_many,
    electrically_equivalent,
    extreme_coordinates,
    is_concordant,
    make_delta,
    make_disconnected,
    make_glued_tree,
    make_shorted,
    make_single_edge,
    make_y,
    omega_d,
    one_block,
    positions_of,
    random_planar_net,
)
from cactusnet.combinat import (
    KrewerasPair,
    NoncrossingPartition,
    catalan,
    enumerate_noncrossing,
    kreweras_complement,
)
from cactusnet.electrical import (
    lstar_from_resistance,
    resistance_matrix,
    response_matrix,
)
from cactusnet.grassmann import (
    chart_from_lstar,
    chart_from_response,
    extract_symmetric,
    f_sigma,
    is_isotropic,
    is_totally_nonnegative,
    kappa,
    kernel_dimension_of_kappa,
    lam_map,
    omega,
    plucker,
    proportionality_factor,
)
from cactusnet.groves import equivalence_factor, lambda_vector
from cactusnet.linalg import RationalMatrix
from cactusnet.network import dual, is_minimal, medial_pairing, validate, ydelta


def delta_coord(vec, plains, tildes):
    """Plucker coordinate indexed by plain labels and tilde labels."""
    n = vec.n
    return vec[positions_of(n, list(plains) + [n + k for k in tildes])]


def test_criterion_01_star_invariants_exact():
    """Measurements, response, and resistance of the 1-2-3 star."""
    net = make_y(1, 2, 3)
    lam = lambda_vector(net)
    expected = {
        "{1},{2},{3}": 6, "{1},{2,3}": 6, "{1,3},{2}": 3,
        "{1,2},{3}": 2, "{1,2,3}": 6,
    }
    for sigma in enumerate_noncrossing(3):
        assert lam[sigma] == expected[str(sigma)]
    assert response_matrix(net).rows == [
        [Fraction(-5, 6), Fraction(1, 3), Fraction(1, 2)],
        [Fraction(1, 3), Fraction(-4, 3), Fraction(1)],
        [Fraction(1, 2), Fraction(1), Fraction(-3, 2)],
    ]
    R = resistance_matrix(net)
    assert (R[(0, 1)], R[(0, 2)], R[(1, 2)]) == (
        Fraction(3, 2), Fraction(4, 3), Fraction(5, 6))


def test_criterion_02_reference_representatives_coherent():
    """Two hand-written representative matrices for the star's plane:
    one in the not-shorted gauge, one in the connected gauge."""
    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    s = a + b + c
    x = RationalMatrix([
        [0, s, 0, -s, 0, s],
        [1, a * b / s, 0, 0, 0, -a * c / s],
        [0, -a * b / s, -1, -b * c / s, 0, 0],
        [0, 0, 0, b * c / s, 1, a * c / s],
    ])
    xt = RationalMatrix([
        [a * b * c, 0, -a * b * c, 0, a * b * c, 0],
        [1 / a, 1, 1 / b, 0, 0, 0],
        [0, 0, -1 / b, -1, -1 / c, 0],
        [-1 / a, 0, 0, 0, 1 / c, 1],
    ])
    vec = lam_map(lambda_vector(make_y(1, 2, 3)))
    t = proportionality_factor(vec, plucker(x))
    assert t is not None and t > 0
    t2 = proportionality_factor(vec, plucker(xt))
    assert t2 is not None and abs(t2) == abs(t)  # same up to global sign
    om, omd, dd = omega(3), omega_d(3), d_matrix(3)
    assert is_isotropic(x, om) and is_isotropic(xt, om)
    assert is_isotropic(x @ dd, omd) and is_isotropic(xt @ dd, omd)


def test_criterion_03_images_isotropic_and_nonnegative():
    """Forward direction: every network image is killed by the
    contraction and has Plucker coordinates of one sign."""
    rng = random.Random(101)
    nets = [make_y(1, 2, 3), make_glued_tree()]
    while len(nets) < 27:
        nets.append(random_planar_net(rng, rng.choice([2, 3, 4])))
    for net in nets:
        vec = lam_map(lambda_vector(net))
        assert kappa(omega(net.n), vec).is_zero()
        assert is_totally_nonnegative(vec)


def test_criterion_04_converse_from_symmetric_matrices():
    """Charts of symmetric zero-row-sum matrices with nonnegative
    off-diagonal land in the span of the basis vectors with nonnegative
    coefficients and zero residual.

    Samples are drawn where realizability is guaranteed: arbitrary such
    matrices at n = 3 (every one is the response of a triangle), and
    response matrices of random planar networks at n = 4.
    """
    rng = random.Random(202)
    samples = []
    for _ in range(8):
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                rows[i][j] = rows[j][i] = Fraction(
                    rng.randint(0, 6), rng.randint(1, 3))
        for i in range(3):
            rows[i][i] = -sum(rows[i][j] for j in range(3) if j != i)
        samples.append((3, RationalMatrix(rows)))
    while len(samples) < 12:
        net = random_planar_net(rng, 4, connected=True)
        samples.append((4, response_matrix(net)))
    for n, sym in samples:
        rep = chart_from_response(sym)
        assert is_isotropic(rep, omega(n))
        vec = plucker(rep)
        # expand exactly in the basis indexed by noncrossing partitions
        sigmas = enumerate_noncrossing(n)
        basis = [f_sigma(KrewerasPair.of(s)) for s in sigmas]
        keys = sorted({k for v in basis for k in v.coords} | set(vec.coords))
        mat = RationalMatrix(
            [[b[k] for b in basis] for k in keys])
        sol = dense_solve_many(mat, [[vec[k] for k in keys]])
        assert sol is not None  # residual is zero
        (coefs,), nullspace = sol
        assert not nullspace
        # representatives are scaled projectively, so the coefficients
        # are nonnegative up to one global sign
        nonzero = [coef for coef in coefs if coef != 0]
        assert nonzero
        assert all(coef > 0 for coef in nonzero) or all(
            coef < 0 for coef in nonzero)


def test_criterion_05_contraction_kernel_dimensions():
    assert [kernel_dimension_of_kappa(n) for n in (2, 3, 4)] == [2, 5, 14]
    assert [catalan(n) for n in (2, 3, 4)] == [2, 5, 14]


def test_criterion_06_chart_extraction_round_trips():
    rng = random.Random(303)
    nets = [make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge()]
    nets += [random_planar_net(rng, rng.choice([3, 4]), connected=True)
             for _ in range(8)]
    for net in nets:
        L = response_matrix(net)
        Ls = lstar_from_resistance(resistance_matrix(net))
        assert extract_symmetric(chart_from_response(L), "response") == L
        assert extract_symmetric(chart_from_lstar(Ls), "dual") == Ls


def test_criterion_07_star_triangle_invariance():
    y = make_y(1, 2, 3)
    tri = make_delta(Fraction(1, 3), 1, Fraction(1, 2))
    assert equivalence_factor(y, tri) == 6
    rng = random.Random(404)
    applied = 0
    for _ in range(60):
        net = random_planar_net(rng, rng.choice([3, 4]), connected=True)
        for site in net.internal_vertices:
            if len(net.rotations[site]) != 3:
                continue
            out = ydelta(net, site, "ytod")
            assert validate(out).ok
            assert electrically_equivalent(net, out)
            applied += 1
        if applied >= 8:
            break
    assert applied >= 8
    back = ydelta(ydelta(y, "v", "ytod"), "b1,b2,b3", "dtoy")
    assert electrically_equivalent(y, back)


def test_criterion_08_duality():
    rng = random.Random(505)
    nets = [make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge(),
            make_glued_tree()]
    nets += [random_planar_net(rng, rng.choice([2, 3]), connected=True)
             for _ in range(4)]
    for net in nets:
        lam = lambda_vector(net)
        lam_d = lambda_vector(dual(net))
        prod = conductance_product(net)
        for sigma in enumerate_noncrossing(net.n):
            assert lam_d[kreweras_complement(sigma)] == lam[sigma] / prod
        if lam[NoncrossingPartition.singletons(net.n)] == 0:
            continue  # plane lies outside the not-shorted chart
        rep = chart_from_response(response_matrix(net))
        lhs = plucker(cyclic_shift(rep))
        rhs = lam_map(lam_d)
        assert proportionality_factor(rhs, lhs) is not None


def test_criterion_09_glued_fixture_reconstruction():
    net = make_glued_tree()
    assert response_matrix(net).rows == [
        [Fraction(-4), Fraction(3), Fraction(1), Fraction(0)],
        [Fraction(3), Fraction(-3), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(-3), Fraction(2)],
        [Fraction(0), Fraction(0), Fraction(2), Fraction(-2)],
    ]
    assert resistance_matrix(net)[(1, 4)] == Fraction(11, 6)
    assert medial_pairing(net).pairs == (
        (1, 7), (2, 6), (3, 12), (4, 5), (8, 10), (9, 11))
    assert is_minimal(net)


def test_criterion_10_cross_formula_identities():
    rng = random.Random(606)
    nets = [make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge(),
            make_glued_tree()]
    nets += [random_planar_net(rng, rng.choice([3, 4]), connected=True)
             for _ in range(5)]
    checked_l = checked_r = 0
    for net in nets:
        n = net.n
        lam = lambda_vector(net)
        vec = lam_map(lam)
        L = response_matrix(net)
        R = resistance_matrix(net)
        part = net.shape_partition()
        sing = lam[NoncrossingPartition.singletons(n)]
        top = lam[one_block(n)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                bi = part.blocks.index(part.block_of(i))
                bj = part.blocks.index(part.block_of(j))
                if bi == bj:
                    continue
                # measurement-ratio form of the response entries
                if sing != 0:
                    blocks = [(i, j)] + [
                        (k,) for k in range(1, n + 1) if k not in (i, j)]
                    pairing = NoncrossingPartition.from_blocks(n, blocks)
                    assert L[(bi, bj)] == lam[pairing] / sing
                # concordant-sum form of the resistance entries
                assert R[(i - 1, j - 1)] == sum(
                    (lam[s] for s in enumerate_noncrossing(n)
                     if is_concordant((i, j), s.blocks)), Fraction(0)) / top
                # minor-ratio forms on the two charts
                den = delta_coord(vec, range(1, n + 1), [i])
                if den != 0:
                    prev = i - 1 if i > 1 else n
                    num = delta_coord(
                        vec, [x for x in range(1, n + 1) if x != j], [prev, i])
                    assert L[(bi, bj)] == num / den
                    checked_l += 1
                den2 = delta_coord(vec, [i], range(1, n + 1))
                if den2 != 0:
                    num2 = sum(
                        delta_coord(vec, [i, j],
                                    [k for k in range(1, n + 1) if k != m])
                        for m in range(i, j))
                    assert R[(i - 1, j - 1)] == num2 / den2
                    checked_r += 1
    assert checked_l >= 15 and checked_r >= 15


def test_criterion_11_extreme_coordinate_behavior():
    rng = random.Random(707)
    nets = [make_y(1, 2, 3), make_delta(1, 2, 3), make_glued_tree()]
    nets += [random_planar_net(rng, rng.choice([2, 3, 4]))
             for _ in range(10)]
    for net in nets:
        lam = lambda_vector(net)
        ns, co = extreme_coordinates(lam_map(lam))  # asserts constancy
        assert ns == lam[NoncrossingPartition.singletons(net.n)]
        assert co == lam[one_block(net.n)]
    ns, co = extreme_coordinates(lam_map(lambda_vector(make_shorted())))
    assert ns == 0 and co != 0
    ns, co = extreme_coordinates(lam_map(lambda_vector(make_disconnected())))
    assert ns != 0 and co == 0
