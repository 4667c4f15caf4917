"""Exterior algebra, the two bilinear forms, charts, and extraction."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from conftest import (
    block_vector_matrix,
    chart_from_lstar_via_d,
    chart_from_response_via_d,
    concordant_keys_oracle,
    cyclic_shift,
    d_matrix,
    dense_kappa_kernel_dimension,
    extract_symmetric_via_d,
    extreme_coordinates,
    fraction_chart_from_lstar,
    fraction_chart_from_response,
    fraction_extract_symmetric,
    identity_matrix,
    is_skew_symmetric,
    make_delta,
    make_disconnected,
    make_glued_tree,
    make_shorted,
    make_single_edge,
    make_y,
    matvec,
    omega_d,
    omega_d_kernel,
    one_block,
    oracle_networks,
    outcome,
    pair_loop_kappa,
    random_planar_net,
    scaled,
    shift,
    shift_exterior,
    shift_partition,
    tuple_kappa,
    tuple_lam_map,
    tuple_route_document,
)
from cactusnet import grassmann, netfile
from cactusnet.cli import main
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
    ExteriorVector,
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
    omega_kernel,
    plucker,
    proportionality_factor,
)
from cactusnet.groves import lambda_vector
from cactusnet.linalg import RationalMatrix
from cactusnet.network import dual


def random_rational_matrix(rng, rows, cols):
    return RationalMatrix([
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ])


def test_plucker_against_sympy_minors():
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(5):
            m = random_rational_matrix(rng, n + 1, 2 * n)
            sm = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row]
                 for row in m.rows])
            vec = plucker(m)
            for cols in itertools.combinations(range(2 * n), n + 1):
                minor = sm[:, list(cols)].det()
                got = vec[cols]
                assert sympy.Rational(got.numerator, got.denominator) == minor


def test_exterior_vector_basics():
    v = ExteriorVector(2, 3, {(0, 1, 2): Fraction(1)})
    w = ExteriorVector(2, 3, {(0, 1, 2): Fraction(-1), (0, 1, 3): Fraction(2)})
    s = v + w
    assert s[(0, 1, 2)] == 0
    assert s[(0, 1, 3)] == 2
    assert not s.is_zero()
    assert s.scale(Fraction(1, 2))[(0, 1, 3)] == 1


def test_exterior_vector_refuses_floats():
    with pytest.raises(TypeError):
        ExteriorVector(2, 3, {(0, 1, 2): 0.5})
    with pytest.raises(TypeError):
        ExteriorVector(2, 3, {(0, 1, 2): Fraction(1)}).scale(0.5)
    third = Fraction(1, 3)
    assert ExteriorVector(2, 3, {(0, 1, 2): third}).coords[(0, 1, 2)] == third
    assert ExteriorVector(2, 3, {(0, 1, 2): "1/3"})[(0, 1, 2)] == third


def test_exterior_vector_keys_are_checked():
    """Every key, a zero-valued one too, holds ``degree`` strictly
    increasing positions in 0 .. 2n - 1."""
    for key in ((0, 0, 1), (0, 1, 1), (0, 1, 9), (0, 1, 4), (-1, 0, 1),
                (2, 1, 0), (0, 1), (0, 1, 2, 3)):
        for val in (1, 0):
            with pytest.raises(ValueError, match="bad key"):
                ExteriorVector(2, 3, {key: val})
    assert ExteriorVector(2, 3, {(0, 1, 3): 0, (1, 2, 3): 2}).coords == {
        (1, 2, 3): 2}
    assert ExteriorVector(1, 0, {(): 5})[()] == 5
    with pytest.raises(ValueError, match="bad key"):
        ExteriorVector(1, 0, {(0,): 5})


def test_exterior_vector_arithmetic_against_fraction_dicts():
    """__getitem__, __add__, scale and __eq__ on the integer form against
    the same operations on dicts of Fractions: distinct denominators, sums
    that cancel in part or to zero, scale(0) and negative scales."""
    rng = random.Random(25)
    for trial in range(240):
        n = rng.randint(1, 4)
        keys = list(itertools.combinations(range(2 * n), n + 1))

        def fractions(picked):
            return {key: Fraction(rng.randint(-6, 6), rng.randint(1, 9))
                    for key in picked}

        a = fractions(rng.sample(keys, rng.randint(0, len(keys))))
        b = fractions(rng.sample(keys, rng.randint(0, len(keys))))
        if trial % 3 == 1:  # cancel a on some of its keys
            b.update({k: -v for k, v in a.items() if rng.random() < 0.5})
        elif trial % 3 == 2:  # cancel to zero
            b = {k: -v for k, v in a.items()}
        c = (0, -1, Fraction(rng.randint(-7, -1), rng.randint(2, 5)),
             Fraction(rng.randint(1, 7), rng.randint(1, 5)))[trial % 4]
        va, vb = ExteriorVector(n, n + 1, a), ExteriorVector(n, n + 1, b)
        total = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
        cases = ((va, a), (vb, b), (va + vb, total), (vb + va, total),
                 (va.scale(c), {k: c * v for k, v in a.items()}),
                 ((va + vb).scale(c), {k: c * v for k, v in total.items()}))
        plain_a = {k: v for k, v in a.items() if v}
        for vec, oracle in cases:
            nonzero = {k: v for k, v in oracle.items() if v}
            assert vec.coords == nonzero
            assert vec.is_zero() is not nonzero
            assert all(vec[k] == oracle.get(k, 0) for k in keys)
            assert type(vec.denom) is int and vec.denom > 0
            assert all(type(t) is int and t for t in vec.terms.values())
            assert vec == ExteriorVector(n, n + 1, nonzero)
            assert (vec == va) is (nonzero == plain_a)
        # one value over two denominators compares equal
        halved = va.scale(2).scale(Fraction(1, 2))
        assert halved == va and halved.denom == 2 * va.denom


def test_mismatched_operands_are_refused():
    """A sum of vectors of different n or degree, and a contraction with a
    form that is not 2n x 2n, raise instead of returning a vector."""
    v2 = ExteriorVector(2, 3, {(0, 1, 2): 1})
    v3 = ExteriorVector(3, 3, {(0, 1, 2): 1})
    low = ExteriorVector(2, 2, {(0, 1): 1})
    for a, b in ((v2, v3), (v3, v2), (v2, low), (low, v2)):
        with pytest.raises(ValueError, match="different n or degree"):
            a + b
    for form in (omega(3), omega(1), RationalMatrix([[0] * 4] * 3)):
        with pytest.raises(ValueError, match="form must be 4 x 4"):
            kappa(form, v2)
    assert kappa(omega(2), v2) == pair_loop_kappa(omega(2), v2)


def test_lam_map_and_kappa_build_valid_keys(rng):
    """The vectors that lam_map and kappa build without the key check
    pass it."""
    for n in (2, 3, 4, 5):
        vec = lam_map(lambda_vector(random_planar_net(rng, n, connected=True)))
        contracted = kappa(omega(n), vec)
        for v in (vec, contracted):
            assert ExteriorVector(v.n, v.degree, v.coords) == v
            assert all(type(x) is Fraction and x for x in v.coords.values())


def test_proportionality_factor_exterior():
    v = ExteriorVector(2, 3, {(0, 1, 2): Fraction(2), (1, 2, 3): Fraction(4)})
    w = v.scale(Fraction(-3, 2))
    assert proportionality_factor(v, w) == Fraction(-3, 2)
    u = ExteriorVector(2, 3, {(0, 1, 2): Fraction(2), (1, 2, 3): Fraction(5)})
    assert proportionality_factor(v, u) is None


def test_omega_structure():
    for n in (2, 3, 4):
        om = omega(n)
        omd = omega_d(n)
        dd = d_matrix(n)
        assert is_skew_symmetric(om)
        assert is_skew_symmetric(omd)
        assert om.rank() == 2 * n - 2
        assert omd.rank() == 2 * n - 2
        assert omd == dd @ om @ dd
        assert dd @ dd == identity_matrix(2 * n)
        for v in omega_kernel(n):
            assert all(x == 0 for x in matvec(om, v))
        for v in omega_d_kernel(n):
            assert all(x == 0 for x in matvec(omd, v))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kappa_kernel_dimension_is_catalan(n):
    assert kernel_dimension_of_kappa(n) == catalan(n)
    assert kernel_dimension_of_kappa(n, omega_d(n)) == catalan(n)


def test_kernel_dimension_refuses_a_form_of_another_size():
    """The form must be 2n x 2n, as ``kappa`` requires of its form."""
    for n, form in ((3, omega(4)), (4, omega(3)), (2, RationalMatrix([[0] * 4] * 3))):
        with pytest.raises(ValueError, match=f"form must be {2 * n} x {2 * n}"):
            kernel_dimension_of_kappa(n, form)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_dimension_matches_the_dense_oracle(n):
    """Sparse rank against one dense matrix of pair-loop contractions,
    for both boundary forms and random skew forms whose blocks differ."""
    rng = random.Random(40 + n)
    forms = [omega(n), omega_d(n)]
    forms += [random_skew_form(rng, n, density)
              for density in ((0.1, 0.2) if n == 5 else (0.1, 0.3, 0.5))]
    for form in forms:
        assert kernel_dimension_of_kappa(n, form) == \
            dense_kappa_kernel_dimension(n, form)


def random_skew_form(rng, n, density=0.5):
    """A skew 2n x 2n form, about ``density`` of it nonzero, mostly
    non-integer."""
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for p, q in itertools.combinations(range(2 * n), 2):
        if rng.random() < density:
            m[p][q] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            m[q][p] = -m[p][q]
    return RationalMatrix(m)


def test_kappa_matches_the_pair_loop_oracle(rng):
    """The sparse integer contraction against the Fraction pair loop, on
    the empty vector, random vectors with rational coefficients, a network
    image (every term cancels under omega) and an image plus noise."""
    nonzero = 0
    for n in (2, 3, 4):
        forms = [omega(n), omega_d(n)] + [random_skew_form(rng, n) for _ in range(3)]
        keys = list(itertools.combinations(range(2 * n), n + 1))
        vecs = [ExteriorVector(n, n + 1)]
        for _ in range(4):
            vecs.append(ExteriorVector(n, n + 1, {
                key: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for key in rng.sample(keys, min(len(keys), 8))}))
        image = lam_map(lambda_vector(random_planar_net(rng, n, connected=True)))
        vecs += [image, image + vecs[1]]
        for form in forms:
            for vec in vecs:
                got = kappa(form, vec)
                assert got == pair_loop_kappa(form, vec)
                nonzero += not got.is_zero()
        assert kappa(omega(n), image).is_zero()
    assert nonzero > 50


@pytest.mark.parametrize("n", range(1, 8))
def test_concordant_keys_match_the_oracle(n):
    """The bitmasks that f_sigma and lam_map sum, against the concordant
    index pairs: no mask twice, and the same keys."""
    bits = grassmann._position_bits(n)
    for sigma in enumerate_noncrossing(n):
        pair = KrewerasPair.of(sigma)
        got = grassmann._concordant_masks(bits, pair.all_blocks())
        assert len(set(got)) == len(got)
        keys = f_sigma(pair).coords
        assert len(keys) == len(got)
        assert set(keys) == set(concordant_keys_oracle(pair))


def test_f_sigma_spans_kernel_of_kappa():
    for n in (2, 3):
        om = omega(n)
        vecs = [f_sigma(KrewerasPair.of(s)) for s in enumerate_noncrossing(n)]
        for v in vecs:
            assert kappa(om, v).is_zero()
        # linear independence: coordinate matrix has full row rank
        keys = sorted({k for v in vecs for k in v.coords})
        mat = RationalMatrix([[v[k] for k in keys] for v in vecs])
        assert mat.rank() == catalan(n)


def test_block_vector_wedge_matches_f_sigma():
    for n in (2, 3):
        for s in enumerate_noncrossing(n):
            pair = KrewerasPair.of(s)
            pv = plucker(block_vector_matrix(pair))
            t = proportionality_factor(f_sigma(pair), pv)
            assert t in (Fraction(1), Fraction(-1))


def test_lam_map_images(rng):
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        net = random_planar_net(rng, n)
        vec = lam_map(lambda_vector(net))
        assert is_totally_nonnegative(vec)
        assert kappa(omega(n), vec).is_zero()


def test_lam_map_is_the_sum_of_scaled_f_sigma(rng):
    """The one-dict lam_map against the sum over every partition of
    Lambda(sigma) f_sigma, added one exterior vector at a time."""
    nets = [make_glued_tree(), make_shorted(), make_disconnected()]
    nets += [random_planar_net(rng, rng.choice([2, 3, 4, 5])) for _ in range(10)]
    for net in nets:
        lam = lambda_vector(net)
        expect = ExteriorVector(net.n, net.n + 1)
        for sigma in enumerate_noncrossing(net.n):
            expect = expect + f_sigma(KrewerasPair.of(sigma)).scale(lam[sigma])
        assert lam_map(lam) == expect


def plucker_networks():
    """The oracle networks (glued, shorted, disconnected and over-cap ones
    included) and random networks with n = 2 .. 7."""
    rng = random.Random(21)
    return oracle_networks() + [random_planar_net(rng, n, connected=connected)
                                for n in range(2, 8) for connected in (True, False)]


def test_plucker_family_documents_match_the_tuple_route(tmp_path, capsys):
    """The CLI's plucker (with and without --check-isotropy), tnn and
    isotropy output, computed on integer bitmask coordinates, against
    the documents of the tuple-keyed route, byte for byte; a network the
    grove search refuses exits 2 on every command."""
    commands = (["plucker"], ["plucker", "--check-isotropy"], ["tnn"],
                ["isotropy"])
    compared = 0
    for k, net in enumerate(plucker_networks()):
        path = str(tmp_path / f"net{k}.json")
        netfile.save_network(net, path)
        try:
            vec = tuple_lam_map(lambda_vector(net))
        except ValueError:
            vec = None
        for argv in commands:
            code = main([argv[0], path] + argv[1:])
            out = capsys.readouterr().out
            if vec is None:
                assert (code, out) == (2, "")
                continue
            assert code == 0
            assert out == netfile.dump_document(tuple_route_document(argv, vec)) + "\n"
            compared += 1
    assert compared >= 4 * 60


def test_plucker_kernels_match_the_oracles():
    """On the same networks: lam_map against the sum of Lambda(sigma)
    f_sigma and the tuple-keyed sums, its integer form against the vector
    rebuilt from its Fractions, and kappa with omega against the pair
    loop and the partner lists."""
    for net in plucker_networks():
        try:
            lam = lambda_vector(net)
        except ValueError:
            continue
        n = net.n
        total = {}
        for sigma, val in lam.values.items():
            for key, one in f_sigma(KrewerasPair.of(sigma)).coords.items():
                total[key] = total.get(key, 0) + one * val
        vec = lam_map(lam)
        assert vec == ExteriorVector(n, n + 1, total) == tuple_lam_map(lam)
        assert ExteriorVector(n, n + 1, vec.coords) == vec
        contracted = kappa(omega(n), vec)
        assert contracted == pair_loop_kappa(omega(n), vec) == tuple_kappa(omega(n), vec)
        assert contracted.is_zero()


def test_kappa_off_the_image(rng):
    """Random vectors that are not isotropic: kappa gives nonzero integer
    terms whose vector is the oracles' contraction."""
    nonzero = tried = 0
    for n in range(2, 7):
        keys = list(itertools.combinations(range(2 * n), n + 1))
        for _ in range(6):
            vec = ExteriorVector(n, n + 1, {
                key: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for key in rng.sample(keys, min(len(keys), 10))})
            assert ExteriorVector(n, n + 1, vec.coords) == vec
            for form in (omega(n), omega_d(n), random_skew_form(rng, n)):
                got = kappa(form, vec)
                assert all(got.terms.values()) and got.denom > 0
                assert ExteriorVector(n, n - 1, got.coords) == got
                assert got == pair_loop_kappa(form, vec) == tuple_kappa(form, vec)
                tried += 1
                nonzero += not got.is_zero()
    assert nonzero >= tried - 3


def test_totally_nonnegative_on_mixed_signs_and_zero():
    """Signs read from the integer terms over a positive denominator: one
    sign, either one, is nonnegative; mixed signs and zero vectors are
    not."""
    pos = ExteriorVector(2, 3, {(0, 1, 2): 1, (0, 1, 3): Fraction(1, 2)})
    neg = ExteriorVector(2, 3, {(0, 1, 2): -3, (1, 2, 3): Fraction(-5, 7)})
    mixed = ExteriorVector(2, 3, {(0, 1, 2): 1, (1, 2, 3): Fraction(-1, 3)})
    zero = ExteriorVector(2, 3, {(0, 1, 2): 0})
    assert is_totally_nonnegative(pos)
    assert is_totally_nonnegative(pos.scale(-2))
    assert is_totally_nonnegative(neg)
    assert is_totally_nonnegative(neg.scale(Fraction(-1, 4)))
    assert not is_totally_nonnegative(mixed)
    assert not is_totally_nonnegative(mixed.scale(-1))
    assert not is_totally_nonnegative(zero)
    assert not is_totally_nonnegative(ExteriorVector(2, 3))
    assert not is_totally_nonnegative(pos + pos.scale(-1))
    assert not is_totally_nonnegative(pos.scale(0))


def test_chart_round_trips_random_symmetric(rng):
    """Charts are one-sided inverses of extraction on arbitrary
    symmetric zero-row-sum matrices."""
    for _ in range(15):
        n = rng.choice([3, 4])
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        for i in range(n):
            m[i][i] = -sum(m[i][j] for j in range(n) if j != i)
        sym = RationalMatrix(m)
        assert extract_symmetric(chart_from_response(sym), "response") == sym
        assert extract_symmetric(chart_from_lstar(sym), "dual") == sym


def test_charts_refuse_non_square_matrices():
    """A chart, and L* from R, are built from an n x n matrix only."""
    for m in (RationalMatrix([[1, 2, 3], [4, 5, 6]]),
              RationalMatrix([[1, 2], [3, 4], [5, 6]]), RationalMatrix([[]])):
        for chart in (chart_from_response, chart_from_lstar, lstar_from_resistance):
            with pytest.raises(ValueError, match="must be square"):
                chart(m)


def random_symmetric(rng, n, zero_row_sums):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        m[i][j] = m[j][i] = Fraction(rng.randint(-4, 5), rng.randint(1, 3))
    if zero_row_sums:
        for i in range(n):
            m[i][i] = -sum(m[i][j] for j in range(n) if j != i)
    return RationalMatrix(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_charts_and_extract_match_the_sign_matrix_oracle(rng, n):
    """Sign flips give exactly the charts and extractions of the products
    with d_matrix(n), also for matrices outside a chart."""
    for _ in range(6):
        sym = random_symmetric(rng, n, zero_row_sums=rng.random() < 0.5)
        charts = [chart_from_response(sym), chart_from_lstar(sym)]
        assert charts == [chart_from_response_via_d(sym),
                          chart_from_lstar_via_d(sym)]
        charts.append(random_rational_matrix(rng, n + 1, 2 * n))
        for m in charts:
            for mode in ("response", "dual"):
                assert outcome(extract_symmetric, m, mode) == \
                    outcome(extract_symmetric_via_d, m, mode)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_integer_charts_and_extract_match_the_fraction_oracles(rng, n):
    """The integer charts equal the Fraction sums signed entry by entry,
    and the integer extraction equals the one by
    ``RationalMatrix.__matmul__``: on symmetric and on any square
    matrices, on other representatives of a chart's plane, and on points
    outside the chart, which raise the same ValueError."""
    outside = 0
    for _ in range(8):
        sym = random_symmetric(rng, n, zero_row_sums=rng.random() < 0.5)
        for m in (sym, random_rational_matrix(rng, n, n)):
            assert chart_from_response(m) == fraction_chart_from_response(m)
            assert chart_from_lstar(m) == fraction_chart_from_lstar(m)
        charts = [chart_from_response(sym), chart_from_lstar(sym)]
        # off each chart: a top row that the other rows span, so that the
        # row left without a pivot is zero, and (n > 1) a top row that is
        # not constant on one of the other columns
        off = []
        for chart, mode in zip(charts, ("response", "dual")):
            spanned = [[sum(col) for col in zip(*chart.rows[1:])]] + chart.rows[1:]
            off.append((RationalMatrix(spanned), mode))
            if n > 1:
                uneven = [row[:] for row in chart.rows]
                c = next(c for c, x in enumerate(uneven[0]) if x)
                uneven[0][c] *= 2
                off.append((RationalMatrix(uneven), mode))
        for m, mode in off:
            assert outcome(extract_symmetric, m, mode) == \
                (ValueError, "plane is not in this chart")
        a = random_rational_matrix(rng, n + 1, n + 1)
        charts += [a @ chart for chart in charts] + [m for m, _ in off]
        # a random point, and one whose pivot column of label 1 is zero
        charts.append(random_rational_matrix(rng, n + 1, 2 * n))
        for c in (0, 1):
            singular = random_rational_matrix(rng, n + 1, 2 * n).rows
            for row in singular:
                row[c] = Fraction(0)
            charts.append(RationalMatrix(singular))
        for m in charts:
            for mode in ("response", "dual"):
                got = outcome(extract_symmetric, m, mode)
                assert got == outcome(fraction_extract_symmetric, m, mode)
                outside += got == (ValueError, "plane is not in this chart")
    assert outside >= 8 * 3


def test_extract_depends_on_the_plane_not_the_representative(rng):
    """Extraction from A @ chart gives L (response) and L* (dual) for every
    invertible A: a scalar, one row added to another, random matrices."""
    for n in (1, 2, 3, 4, 5):
        add = identity_matrix(n + 1).rows
        add[0][1] += 1  # row 1 added to row 0
        bases = [scaled(identity_matrix(n + 1), 2), RationalMatrix(add)]
        while len(bases) < 6:
            a = random_rational_matrix(rng, n + 1, n + 1)
            if a.determinant() != 0:
                bases.append(scaled(a, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        for _ in range(3):
            sym = random_symmetric(rng, n, zero_row_sums=True)
            for chart, mode in ((chart_from_response(sym), "response"),
                                (chart_from_lstar(sym), "dual")):
                for a in bases:
                    assert extract_symmetric(a @ chart, mode) == sym
                    assert extract_symmetric_via_d(a @ chart, mode) == sym


def test_charts_do_not_multiply_by_the_sign_matrix(monkeypatch):
    def refuse(n):
        raise AssertionError("d_matrix called")

    # the sign matrix lives in the tests; one bound in the module again
    # would still be caught, and so is any matrix product: extraction
    # multiplies integer rows
    monkeypatch.setattr(grassmann, "d_matrix", refuse, raising=False)
    products = []
    matmul = RationalMatrix.__matmul__
    monkeypatch.setattr(RationalMatrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    resp = response_matrix(make_y(1, 2, 3))
    chart = chart_from_response(resp)
    assert products == []
    assert extract_symmetric(chart, "dual") == \
        lstar_from_resistance(resistance_matrix(make_y(1, 2, 3)))
    assert products == []


def test_chart_isotropy_random_symmetric(rng):
    for _ in range(10):
        n = rng.choice([3, 4])
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(
                    rng.randint(-3, 5), rng.randint(1, 3))
        for i in range(n):
            rows[i][i] = -sum(rows[i][j] for j in range(n) if j != i)
        sym = RationalMatrix(rows)
        assert is_isotropic(chart_from_response(sym), omega(n))
        assert is_isotropic(chart_from_lstar(sym), omega(n))


def test_charts_agree_on_networks(rng):
    """Both charts of the same network represent the same plane."""
    for _ in range(10):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        L = response_matrix(net)
        Ls = lstar_from_resistance(resistance_matrix(net))
        p1 = plucker(chart_from_response(L))
        p2 = plucker(chart_from_lstar(Ls))
        assert proportionality_factor(p1, p2) is not None
        # cross-chart extraction recovers the other matrix exactly
        assert extract_symmetric(chart_from_lstar(Ls), "response") == L
        assert extract_symmetric(chart_from_response(L), "dual") == Ls


def test_chart_plucker_proportional_to_lam_image(rng):
    for _ in range(10):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        vec = lam_map(lambda_vector(net))
        rep = chart_from_response(response_matrix(net))
        t = proportionality_factor(vec, plucker(rep))
        assert t is not None and t != 0


def test_extract_rejects_unknown_mode():
    m = chart_from_response(response_matrix(make_y(1, 2, 3)))
    with pytest.raises(ValueError):
        extract_symmetric(m, "sideways")


def test_shift_sends_basis_vectors_to_basis_vectors():
    for n in (2, 3, 4):
        for s in enumerate_noncrossing(n):
            lhs = shift_exterior(f_sigma(KrewerasPair.of(s)))
            rhs = f_sigma(KrewerasPair.of(shift_partition(s)))
            assert lhs == rhs


def test_shift_matrix_consistent_with_exterior(rng):
    for n in (2, 3):
        m = random_rational_matrix(rng, n + 1, 2 * n)
        assert plucker(m @ shift(n)) == shift_exterior(plucker(m))
        assert plucker(cyclic_shift(m)) == shift_exterior(plucker(m))


def test_shift_partition_relabels_complement():
    sigma = NoncrossingPartition.from_blocks(3, [(1, 2), (3,)])
    shifted = shift_partition(sigma)
    assert shifted == kreweras_complement(sigma)


def test_extreme_coordinates_match_measurements():
    for net in (make_y(1, 2, 3), make_delta(1, 2, 3), make_glued_tree(),
                make_single_edge(), make_shorted(), make_disconnected()):
        lam = lambda_vector(net)
        ns, co = extreme_coordinates(lam_map(lam))
        assert ns == lam[NoncrossingPartition.singletons(net.n)]
        assert co == lam[one_block(net.n)]


def test_extreme_coordinates_rejects_nonconstant():
    v = ExteriorVector(2, 3, {(0, 1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        extreme_coordinates(v)


def test_duality_via_cyclic_shift(rng):
    for _ in range(8):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        rep = chart_from_response(response_matrix(net))
        lhs = plucker(cyclic_shift(rep))
        rhs = lam_map(lambda_vector(dual(net)))
        assert proportionality_factor(rhs, lhs) is not None


def test_extract_solves_once(monkeypatch):
    """Extraction is one Gauss-Jordan ``_reduce`` over the chart's n + 1
    integer rows, pivot columns first."""
    calls = []
    reduce = grassmann._reduce

    def reducing(rows, ncols=None, diagonal=None):
        assert all(type(x) is int for row in rows for x in row.values())
        calls.append((len(rows), ncols, diagonal, sum(map(len, rows))))
        return reduce(rows, ncols, diagonal)

    monkeypatch.setattr(grassmann, "_reduce", reducing)
    resp = response_matrix(make_y(1, 2, 3))
    assert extract_symmetric(chart_from_response(resp), "response") == resp
    # the top row of ones and three rows of a pivot and three sums, one
    # of them zero
    assert calls == [(4, 3, None, 3 + 3 * 3)]
