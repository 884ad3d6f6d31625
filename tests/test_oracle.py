"""The enumeration is the ground truth, so it gets tested hardest:
membership, no duplicates, placement invariance, and agreement with
values computed by hand.
"""

import itertools

import pytest

from rbpa import oracle


def test_fubini_numbers_by_generation():
    got = [oracle.enumerate_preferential_arrangements(n) for n in range(7)]
    assert got == [1, 1, 3, 13, 75, 541, 4683]


def test_ordered_partitions_of_two_listed_exactly():
    got = set(oracle.ordered_set_partitions((1, 2)))
    assert got == {
        (frozenset({1}), frozenset({2})),
        (frozenset({2}), frozenset({1})),
        (frozenset({1, 2}),),
    }


def test_block_order_matters():
    # 13 ordered vs 5 unordered partitions of a 3-set; a canonicalizing
    # generator would give the Bell number instead
    assert sum(1 for _ in oracle.ordered_set_partitions(range(3))) == 13


def test_partition_stream_has_no_duplicates_and_covers():
    elems = (1, 2, 3, 4)
    seen = list(oracle.ordered_set_partitions(elems))
    assert len(seen) == len(set(seen)) == 75
    for part in seen:
        assert all(part[i] for i in range(len(part)))
        union = set().union(*part) if part else set()
        assert union == set(elems)
        assert sum(len(b) for b in part) == len(elems)


def test_enumerate_rbpa_hand_counts():
    # one free section is the plain preferential arrangement count
    assert [oracle.enumerate_rbpa(n, 0, 1) for n in range(5)] == [1, 1, 3, 13, 75]
    # one restricted, one free: rows verified against the recurrence by hand
    assert [oracle.enumerate_rbpa(n, 1, 1) for n in range(4)] == [1, 2, 6, 26]
    assert [oracle.enumerate_rbpa(n, 2, 1) for n in range(5)] == [1, 3, 11, 51, 299]
    # no sections at all: only n = 0 has an (empty) arrangement
    assert oracle.enumerate_rbpa(0, 0, 0) == 1
    assert oracle.enumerate_rbpa(1, 0, 0) == 0
    # restricted only: each element picks a section, nothing else varies
    assert oracle.enumerate_rbpa(3, 2, 0) == 8


def test_enumerate_rbpa_validates():
    with pytest.raises(oracle.SizeLimitError):
        oracle.enumerate_rbpa(oracle.MAX_N + 1, 1, 1)
    with pytest.raises(ValueError):
        oracle.enumerate_rbpa(-1, 1, 1)
    with pytest.raises(ValueError):
        oracle.enumerate_rbpa(2, -1, 1)


def test_iter_rbpa_matches_count_and_is_duplicate_free():
    for kinds in [("free",), ("restricted", "free"), ("free", "restricted", "free")]:
        r = kinds.count("restricted")
        j = kinds.count("free")
        for n in range(5):
            structures = list(oracle.iter_rbpa(n, kinds))
            assert len(structures) == len(set(structures))
            assert len(structures) == oracle.enumerate_rbpa(n, r, j)


def test_restricted_sections_hold_at_most_one_block():
    for structure in oracle.iter_rbpa(4, ("restricted", "free")):
        assert len(structure[0]) <= 1


def test_restricted_placement_does_not_change_the_count():
    # moving the restricted section around the section tuple cannot
    # matter; the generating function argument silently assumes this
    for n in range(5):
        counts = {
            kinds: sum(1 for _ in oracle.iter_rbpa(n, kinds))
            for kinds in set(
                itertools.permutations(("restricted", "free", "free"))
            )
        }
        assert len(set(counts.values())) == 1


def test_iter_rbpa_rejects_unknown_kind():
    with pytest.raises(ValueError):
        list(oracle.iter_rbpa(2, ("free", "mystery")))


def test_with_empty_hand_counts():
    # three bars, four restricted sections, sections 0 and 1 marked:
    # n = 1 leaves 4^1 - placements hitting both = 4; n = 2 gives 14
    assert oracle.enumerate_rbpa_with_empty(1, 3, 0, 1) == 4
    assert oracle.enumerate_rbpa_with_empty(2, 3, 0, 1) == 14
    assert oracle.enumerate_rbpa_with_empty(0, 3, 0, 1) == 1


def test_with_empty_symmetric_in_the_marked_pair():
    for n in range(4):
        values = {
            oracle.enumerate_rbpa_with_empty(n, 3, i, jj)
            for i in range(4)
            for jj in range(4)
            if i != jj
        }
        assert len(values) == 1


def test_with_empty_matches_a_per_pair_filter():
    # the shared tally must give what filtering every assignment per
    # pair gives, for every ordered pair of distinct sections
    for n in range(6):
        for bars in range(5):
            k = bars + 1
            assignments = list(itertools.product(range(k), repeat=n))
            for i, jj in itertools.permutations(range(k), 2):
                naive = sum(
                    1 for a in assignments if i not in a or jj not in a
                )
                assert oracle.enumerate_rbpa_with_empty(n, bars, i, jj) == naive


def test_with_empty_validates():
    with pytest.raises(IndexError):
        oracle.enumerate_rbpa_with_empty(2, 3, 0, 4)
    with pytest.raises(ValueError):
        oracle.enumerate_rbpa_with_empty(2, 3, 1, 1)
    with pytest.raises(oracle.SizeLimitError):
        oracle.enumerate_rbpa_with_empty(oracle.MAX_N + 1, 3, 0, 1)


def test_union_count_small_values():
    # j = 1, the single section marked: structures whose one section has
    # at most one block, i.e. the empty or single-block partitions
    assert oracle.count_some_section_at_most_one_block(0, 1, 1) == 1
    assert oracle.count_some_section_at_most_one_block(3, 1, 1) == 1
    # nothing marked means an empty union
    assert oracle.count_some_section_at_most_one_block(3, 2, 0) == 0
    with pytest.raises(ValueError):
        oracle.count_some_section_at_most_one_block(2, 1, 2)
