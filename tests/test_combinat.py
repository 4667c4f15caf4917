"""Noncrossing partitions, complements, concordance, matchings."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blocks_cross,
    grown_noncrossing_blocks,
    is_concordant,
    is_noncrossing_on_circle,
    matching_partner,
    one_block,
    pairwise_kreweras_tilde_blocks,
    partition_name,
    unit_name_runs,
    unit_noncrossing_blocks,
)
from cactusnet import combinat
from cactusnet.combinat import (
    KrewerasPair,
    Matching,
    NoncrossingPartition,
    _crossing,
    _kreweras_tilde_blocks,
    canonical_blocks,
    catalan,
    circle_position,
    concordant_index_pairs,
    enumerate_noncrossing,
    format_element,
    is_noncrossing,
    is_partition,
    kreweras_complement,
    noncrossing_names,
    noncrossing_runs,
)


def all_set_partitions(items):
    """Every partition of a list, by recursive block placement."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [sub[k] + [first]] + sub[k + 1:]
        yield [[first]] + sub


def crossing_by_definition(blocks):
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(sorted(b1), 2):
            for b, d in itertools.combinations(sorted(b2), 2):
                if a < b < c < d:
                    return True
    return False


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(n):
    brute = {
        canonical_blocks(p)
        for p in all_set_partitions(range(1, n + 1))
        if not crossing_by_definition(p)
    }
    listed = {s.blocks for s in enumerate_noncrossing(n)}
    assert listed == brute
    assert len(listed) == catalan(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_matches_the_grown_and_sorted_oracle(n):
    assert [s.blocks for s in enumerate_noncrossing(n)] == grown_noncrossing_blocks(n)


@pytest.mark.parametrize("n", range(1, 12))
def test_names_follow_the_enumeration(n):
    blocks = grown_noncrossing_blocks(n)
    assert unit_noncrossing_blocks(n) == blocks
    names = list(noncrossing_names(n))
    assert names == [partition_name(b) for b in blocks]
    assert names == [str(s) for s in enumerate_noncrossing(n)]
    assert names == [partition_name(s.blocks) for s in enumerate_noncrossing(n)]


@pytest.mark.parametrize("n", range(1, 12))
def test_runs_hold_the_names_by_block_of_1(n):
    """One run for each block of 1, in order; its first part is that block
    and the flat runs are the names."""
    runs = list(noncrossing_runs(n))
    assert len(runs) == 2 ** (n - 1)
    assert [first + r for first, rests in runs for r in rests] == [
        str(s) for s in enumerate_noncrossing(n)]
    firsts = [first for first, _ in runs]
    assert firsts == [partition_name([(1,) + rest]) for rest in
                      sorted(c for k in range(n) for c in
                             itertools.combinations(range(2, n + 1), k))]
    assert all(r == "" or r.startswith(",{") for _, rests in runs for r in rests)


@pytest.mark.parametrize("n", range(1, 14))
def test_runs_match_the_tuple_walk(n):
    """Run by run, the name walk gives the first block and the rests of the
    walk it replaced, which built block tuples and named them."""
    runs = noncrossing_runs(n)
    count = 0
    for (first, rests), (want_first, want_rests) in itertools.zip_longest(
            runs, unit_name_runs(n), fillvalue=(None, None)):
        assert first == want_first
        assert rests == want_rests
        count += len(rests)
    assert count == catalan(n)


@pytest.mark.parametrize("n", range(1, 12))
def test_enumeration_matches_the_tuple_walk(n):
    assert [s.blocks for s in enumerate_noncrossing(n)] == unit_noncrossing_blocks(n)


def test_name_count_is_catalan():
    for n in range(1, 13):
        assert len(list(noncrossing_names(n))) == catalan(n)
    for names in (noncrossing_names, noncrossing_runs):
        with pytest.raises(ValueError):
            names(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_linear_crossing_scan_matches_pairwise(n):
    seen = 0
    for p in all_set_partitions(range(1, n + 1)):
        canon = canonical_blocks(p)
        pairwise = any(blocks_cross(b1, b2)
                       for b1, b2 in itertools.combinations(canon, 2))
        assert _crossing(n, canon) == pairwise
        assert is_noncrossing(n, [set(b) for b in reversed(p)]) == (not pairwise)
        if pairwise:
            seen += 1
            with pytest.raises(ValueError, match="crossing"):
                NoncrossingPartition.from_blocks(n, p)
        else:
            assert NoncrossingPartition.from_blocks(n, p).blocks == canon
    assert seen == len(list(all_set_partitions(range(n)))) - catalan(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_circle_crossing_matches_pairwise(n):
    """Blocks of arbitrary labels at arbitrary distinct circle positions."""
    rng = random.Random(n)
    for p in all_set_partitions(range(1, n + 1)):
        spots = dict(zip(range(1, n + 1), rng.sample(range(100), n)))
        placed = [sorted(spots[x] for x in b) for b in p]
        pairwise = any(blocks_cross(b1, b2)
                       for b1, b2 in itertools.combinations(placed, 2))
        assert is_noncrossing_on_circle(p, spots.get) == (not pairwise)


def test_is_noncrossing_rejects_non_partitions():
    with pytest.raises(ValueError):
        is_noncrossing(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        is_noncrossing(3, [(1,), (3,)])


def test_catalan_values():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert catalan(7) == comb(14, 7) // 8


def test_enumeration_is_deterministic():
    assert enumerate_noncrossing(4) == enumerate_noncrossing(4)


def refines(fine, coarse):
    return all(
        any(set(b) <= set(c) for c in coarse) for b in fine
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_kreweras_complement_coarsest_compatible(n):
    """Brute-force characterization: among the noncrossing partitions of
    the tilde labels whose union with sigma stays noncrossing on the
    interleaved circle, the complement is the coarsest one."""
    pos = lambda lbl: circle_position(n, lbl)
    for sigma in enumerate_noncrossing(n):
        compatible = []
        for tau in enumerate_noncrossing(n):
            tilde = tuple(tuple(x + n for x in blk) for blk in tau.blocks)
            if is_noncrossing_on_circle(sigma.blocks + tilde, pos):
                compatible.append(canonical_blocks(tilde))
        kc = kreweras_complement(sigma)
        expected = canonical_blocks(
            tuple(tuple(x + n for x in blk) for blk in kc.blocks)
        )
        assert expected in compatible
        assert all(refines(tau, expected) for tau in compatible)


@pytest.mark.parametrize("n", range(1, 10))
def test_kreweras_matches_the_pairwise_oracle(n):
    """The one-pass cycle reading against the pairwise "same face of the
    disc" union-find, for every noncrossing partition of [n]."""
    for sigma in enumerate_noncrossing(n):
        assert _kreweras_tilde_blocks(n, sigma.blocks) == pairwise_kreweras_tilde_blocks(sigma)


def test_kreweras_checks_raise(monkeypatch):
    # the blocks of a crossing sigma have too few complement blocks
    with pytest.raises(AssertionError, match="block count"):
        _kreweras_tilde_blocks(4, ((1, 3), (2, 4)))
    # the union scan is a guard against a wrong complement: force it
    monkeypatch.setattr(combinat, "_crossing_scan", lambda block_of, left: True)
    with pytest.raises(AssertionError, match="crosses"):
        _kreweras_tilde_blocks(3, ((1,), (2,), (3,)))


def test_kreweras_complement_is_bijective():
    for n in range(1, 5):
        image = {kreweras_complement(s) for s in enumerate_noncrossing(n)}
        assert len(image) == catalan(n)


def test_kreweras_block_count():
    # block counts of sigma and its complement always sum to n + 1
    for n in range(1, 6):
        for s in enumerate_noncrossing(n):
            pair = KrewerasPair.of(s)
            assert len(s.blocks) + len(pair.tilde_blocks) == n + 1


def test_complement_extremes():
    n = 4
    sing = NoncrossingPartition.singletons(n)
    top = one_block(n)
    assert kreweras_complement(sing) == top
    assert kreweras_complement(top) == sing


def test_circle_positions_interleave():
    n = 3
    assert [circle_position(n, i) for i in range(1, 7)] == [0, 2, 4, 1, 3, 5]
    assert format_element(n, 2) == "2"
    assert format_element(n, 5) == "2~"


def test_is_partition_rejects():
    assert is_partition(3, [(1, 2), (3,)])
    assert not is_partition(3, [(1, 2), (2, 3)])
    assert not is_partition(3, [(1,), (3,)])
    assert not is_partition(3, [(1, 2), (3, 4)])
    assert not is_partition(3, [(1,), (2,), (3,), ()])
    with pytest.raises(ValueError, match="not a partition"):
        NoncrossingPartition.from_blocks(3, [(1,), (2,), (3,), ()])


def test_is_noncrossing_examples():
    assert is_noncrossing(4, [(1, 4), (2, 3)])
    assert not is_noncrossing(4, [(1, 3), (2, 4)])


def test_concordance_definition():
    blocks = ((1, 2), (3,))
    assert is_concordant((1, 3), blocks)
    assert is_concordant((2, 3), blocks)
    assert not is_concordant((1, 2), blocks)
    assert not is_concordant((3,), blocks)


@pytest.mark.parametrize("n", range(2, 5))
def test_concordant_pairs_definition(n):
    """Every returned index set meets each block exactly once, and
    nothing concordant is missed."""
    for sigma in enumerate_noncrossing(n):
        pair = KrewerasPair.of(sigma)
        got = concordant_index_pairs(pair)
        assert len(got) == len(set(got))
        for sel, tsel in got:
            assert is_concordant(sel, sigma.blocks)
            assert is_concordant(tsel, pair.tilde_blocks)
            assert len(sel) + len(tsel) == n + 1
        brute = {
            (tuple(sorted(sel)), tuple(sorted(tsel)))
            for sel in itertools.combinations(
                range(1, n + 1), len(sigma.blocks))
            for tsel in itertools.combinations(
                range(n + 1, 2 * n + 1), len(pair.tilde_blocks))
            if is_concordant(sel, sigma.blocks)
            and is_concordant(tsel, pair.tilde_blocks)
        }
        assert set(got) == brute


def test_matching_partner_involution():
    m = Matching.from_pairs(3, [(1, 4), (2, 5), (3, 6)])
    for t in range(1, 7):
        assert matching_partner(m, matching_partner(m, t)) == t


def test_matching_rejects_bad_pairs():
    with pytest.raises(ValueError):
        Matching.from_pairs(2, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Matching.from_pairs(2, [(1, 2)])


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_blocks_idempotent(n, data):
    labels = list(range(1, n + 1))
    blocks = []
    while labels:
        k = data.draw(st.integers(1, len(labels)))
        blk = data.draw(
            st.lists(st.sampled_from(labels), min_size=k, max_size=k,
                     unique=True)
        )
        blocks.append(tuple(blk))
        labels = [x for x in labels if x not in blk]
    canon = canonical_blocks(blocks)
    assert canonical_blocks(canon) == canon
    assert sorted(x for b in canon for x in b) == list(range(1, n + 1))
    assert list(canon) == sorted(canon, key=lambda b: b[0])
