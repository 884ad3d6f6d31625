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


def _no_enumeration(*args, **kwargs):
    raise AssertionError("enumerated")


@pytest.mark.parametrize("n, r, j", [
    (9, 100, 0),      # 10^18 assignments
    (0, 10**9, 0),    # one assignment, but a billion section counters
    (6, 10, 1),       # 11^7 is just over the bound
])
def test_enumerate_rbpa_refuses_a_large_run_at_once(monkeypatch, n, r, j):
    monkeypatch.setattr(oracle.itertools, "product", _no_enumeration)
    with pytest.raises(oracle.SizeLimitError, match="work limit"):
        oracle.enumerate_rbpa(n, r, j)


def test_enumerate_rbpa_runs_at_the_work_bound(monkeypatch):
    # 10^(6+1) is allowed; an empty product stands in for the enumeration
    assert oracle.ORACLE_WORK_MAX == 10**7
    monkeypatch.setattr(oracle.itertools, "product", lambda *a, **k: iter(()))
    assert oracle.enumerate_rbpa(6, 3, 7) == 0


@pytest.mark.parametrize("count", [
    oracle.enumerate_preferential_arrangements,
    lambda n: oracle.enumerate_rbpa(n, 0, 1),
], ids=["preferential", "rbpa"])
def test_partition_listings_are_refused_past_the_structure_bound(
        monkeypatch, count):
    # 1^(n+1) assignment work always passes, but one free section lists
    # every ordered set partition of {1..n}: 545,835 at n = 8 and
    # 7,087,261 at n = 9 are refused before the first, 47,293 at n = 7 run
    oracle.clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "ordered_set_partitions", _no_enumeration)
        for n in (8, 9):
            with pytest.raises(oracle.SizeLimitError, match="arrangements"):
                count(n)
    assert count(7) == 47293


def test_iter_rbpa_and_with_empty_refuse_a_large_run_at_once(monkeypatch):
    monkeypatch.setattr(oracle.itertools, "product", _no_enumeration)
    with pytest.raises(oracle.SizeLimitError, match="work limit"):
        next(oracle.iter_rbpa(9, ("free",) * 6))
    with pytest.raises(oracle.SizeLimitError, match="work limit"):
        next(oracle.iter_rbpa(6, ("mystery",) * 11))  # before the kinds
    with pytest.raises(oracle.SizeLimitError, match="work limit"):
        oracle.enumerate_rbpa_with_empty(9, 5, 0, 1)


def test_iter_rbpa_refuses_too_many_structures_at_once(monkeypatch):
    # 5^10 assignment work passes, but p^0_5(9) structures would not
    monkeypatch.setattr(oracle.itertools, "product", _no_enumeration)
    with pytest.raises(oracle.SizeLimitError, match="arrangements"):
        next(oracle.iter_rbpa(9, ("free",) * 5))
    with pytest.raises(oracle.SizeLimitError, match="arrangements"):
        oracle.count_some_section_at_most_one_block(9, 2, 1)


def test_iter_rbpa_refuses_just_above_the_structure_bound(monkeypatch):
    # the structure bound sits below the assignment-work bound, which
    # stays 10^7; 10 free sections at n = 5 make p^0_10(5) = 446,500
    # structures, 5 free at n = 6 make p^0_5(6) = 507,035 and 9
    # restricted at n = 6 make 9^6 = 531,441, each within 10^7 of work
    assert oracle.ORACLE_STRUCTURES_MAX == 5 * 10**5
    assert oracle.ORACLE_WORK_MAX == 10**7
    oracle._check_arrangements(5, ("free",) * 10)
    monkeypatch.setattr(oracle.itertools, "product", _no_enumeration)
    with pytest.raises(oracle.SizeLimitError, match="more than 500000 arr"):
        oracle.count_some_section_at_most_one_block(6, 5, 1)
    with pytest.raises(oracle.SizeLimitError, match="more than 500000 arr"):
        next(oracle.iter_rbpa(6, ("restricted",) * 9))


@pytest.mark.parametrize("kinds", [
    (), ("free",), ("restricted",), ("free", "free"),
    ("restricted", "free"), ("free", "restricted", "free"),
    ("restricted", "restricted", "free"),
])
def test_iter_rbpa_bound_counts_exactly_the_structures(monkeypatch, kinds):
    for n in range(6):
        count = sum(1 for _ in oracle.iter_rbpa(n, kinds))
        monkeypatch.setattr(oracle, "ORACLE_STRUCTURES_MAX", max(count, 1))
        oracle._check_arrangements(n, kinds)  # exactly at the bound
        if count > 1:
            monkeypatch.setattr(oracle, "ORACLE_STRUCTURES_MAX", count - 1)
            with pytest.raises(oracle.SizeLimitError, match="arrangements"):
                oracle._check_arrangements(n, kinds)
        monkeypatch.undo()


def test_iter_rbpa_yields_in_product_order_of_listed_forms():
    def listed(n, kinds):
        for assignment in itertools.product(range(len(kinds)), repeat=n):
            forms = []
            for sec, kind in enumerate(kinds):
                members = [e for e, s in zip(range(1, n + 1), assignment) if s == sec]
                if kind == "free":
                    forms.append(list(oracle.ordered_set_partitions(members)))
                else:
                    forms.append([(frozenset(members),) if members else ()])
            yield from itertools.product(*forms)

    for kinds in [("free", "free"), ("restricted", "free", "free"),
                  ("free", "restricted", "free")]:
        for n in range(6):
            assert list(oracle.iter_rbpa(n, kinds)) == list(listed(n, kinds))


def test_iter_rbpa_generates_a_wide_section_as_used(monkeypatch):
    # listing the 47293 ordered set partitions of 7 elements to yield
    # the first structure would pass through every level of them
    made = []
    generate = oracle.ordered_set_partitions

    def counted(elements):
        for form in generate(elements):
            made.append(form)
            yield form

    monkeypatch.setattr(oracle, "ordered_set_partitions", counted)
    first = next(oracle.iter_rbpa(7, ("free", "restricted")))
    assert first == (tuple(frozenset({e}) for e in range(1, 8)), ())
    assert len(made) < 100


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


@pytest.mark.parametrize("bars", [-1, -5])
def test_with_empty_refuses_negative_bars(bars):
    with pytest.raises(ValueError) as exc:
        oracle.enumerate_rbpa_with_empty(2, bars, 0, 1)
    assert str(exc.value) == "bars must be >= 0"
