"""Ground truth by explicit construction.

Builds restricted barred preferential arrangements of small sets
outright and counts them. A structure is a tuple of sections; each
section is a tuple of disjoint nonempty blocks (frozensets) whose
order matters. Restricted sections hold at most one block, free
sections hold any ordered set partition of their elements.

Everything here is deliberately naive. These counts are the reference
that the generating-function and recurrence routes are judged against,
so no closed form from those routes may leak in. The one concession to
speed is sharing a pass: the or-empty counts for every section pair of
one (n, sections) read a single cached enumeration of the assignments,
tallied by the set of sections each one uses, instead of enumerating
the assignments again per pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

Block = frozenset
Section = tuple  # tuple of Blocks, order significant
Structure = tuple  # tuple of Sections

MAX_N = 9  # count grows super-exponentially past this
# An enumeration over k sections visits k^n assignments and fills k
# section counters for each, so its work is about k^(n+1); more than
# this is refused before anything is allocated or enumerated.
ORACLE_WORK_MAX = 10**7


class SizeLimitError(ValueError):
    """Ground set too large to enumerate exhaustively."""


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_N:
        raise SizeLimitError(f"n = {n} exceeds enumeration limit {MAX_N}")


def _check_work(n: int, sections: int) -> None:
    """Refuse sections^(n+1) > ORACLE_WORK_MAX; n must have passed _check_size."""
    if sections ** (n + 1) > ORACLE_WORK_MAX:
        raise SizeLimitError(
            f"{sections} sections at n = {n} exceed the enumeration work "
            f"limit {ORACLE_WORK_MAX}"
        )


def _check_arrangements(n: int, kinds: Sequence[str]) -> None:
    """Refuse more than ORACLE_WORK_MAX structures from iter_rbpa(n, kinds).

    The count only gates the run and never enters a result. It is taken
    section by section over labelled elements: r restricted sections
    take m elements in r^m ways, one block or none each, and each free
    section takes t of them in a(t) ways, a(t) the ordered set
    partitions of t elements counted by their leading block, the way
    `ordered_set_partitions` lists them. Adding a free section never
    lowers the count, so the loop stops once the limit is passed.
    """
    if n == 0:
        return  # one structure, whatever the sections
    free = sum(kind == "free" for kind in kinds)
    restricted = len(kinds) - free
    osp = [1]
    for t in range(1, n + 1):
        osp.append(sum(math.comb(t, s) * osp[t - s] for s in range(1, t + 1)))
    ways = [restricted**m for m in range(n + 1)]
    for _ in range(free):
        if ways[n] > ORACLE_WORK_MAX:
            break
        ways = [
            sum(math.comb(m, t) * osp[t] * ways[m - t] for t in range(m + 1))
            for m in range(n + 1)
        ]
    if ways[n] > ORACLE_WORK_MAX:
        raise SizeLimitError(
            f"more than {ORACLE_WORK_MAX} arrangements at n = {n} over "
            f"{len(kinds)} sections exceed the enumeration work limit"
        )


def ordered_set_partitions(elements: Sequence[int]) -> Iterator[Section]:
    """All ordered set partitions of elements into nonempty blocks.

    Recursive on the leading block, which ranges over every nonempty
    subset; block order is significant, so the leading block must NOT
    be canonicalized to contain the first element (that would collapse
    each ordering class to one representative). The empty sequence
    yields the empty partition once.
    """
    elems = tuple(elements)
    if not elems:
        yield ()
        return
    for k in range(1, len(elems) + 1):
        for chosen in itertools.combinations(elems, k):
            first = frozenset(chosen)
            remainder = tuple(e for e in elems if e not in first)
            for tail in ordered_set_partitions(remainder):
                yield (first,) + tail


@lru_cache(maxsize=None)
def _osp_count(m: int) -> int:
    return sum(1 for _ in ordered_set_partitions(range(m)))


def enumerate_preferential_arrangements(n: int) -> int:
    """Number of ordered set partitions of {1..n}, by direct generation."""
    _check_size(n)
    return sum(1 for _ in ordered_set_partitions(range(1, n + 1)))


def enumerate_rbpa(n: int, r: int, j: int) -> int:
    """Count arrangements of {1..n} into r restricted + j free sections.

    Canonical construction: a base-(r+j) counter assigns each element a
    section; a restricted section contributes one arrangement (all its
    elements in a single block), a free section contributes one per
    ordered set partition of its elements.
    """
    _check_size(n)
    if r < 0 or j < 0:
        raise ValueError("r and j must be >= 0")
    k = r + j
    _check_work(n, k)
    total = 0
    for assignment in itertools.product(range(k), repeat=n):
        sizes = [0] * k
        for sec in assignment:
            sizes[sec] += 1
        ways = 1
        for sec in range(r, k):
            ways *= _osp_count(sizes[sec])
        total += ways
    return total


def _section_forms(kind: str, members: list[int]) -> Iterator[Section]:
    """The forms one section takes on its members, generated as used.

    A restricted section holds its members as one block (or nothing),
    a free section any ordered set partition of them.
    """
    if kind == "free":
        return ordered_set_partitions(members)
    return iter(((frozenset(members),) if members else (),))


def iter_rbpa(n: int, kinds: Sequence[str]) -> Iterator[Structure]:
    """Materialize every arrangement of {1..n} over the given sections.

    kinds is a sequence of "restricted" / "free" markers, one per
    section, in section order. Exists so tests can hash structures for
    duplicates and permute the restricted-section placement. A run whose
    k^(n+1) assignment work over k sections, or whose number of
    structures, exceeds ORACLE_WORK_MAX is refused before the first is
    built.

    Structures come in the order of itertools.product over the
    sections' forms, built one at a time. Within one assignment a
    section holding all but at most one element is the only one with
    more than one form, and its forms are generated as they are used;
    otherwise every section holds at most n - 2 <= 7 elements, so at
    most 47293 forms, and they are listed.
    """
    _check_size(n)
    k = len(kinds)
    _check_work(n, k)
    for kind in kinds:
        if kind not in ("restricted", "free"):
            raise ValueError(f"unknown section kind {kind!r}")
    _check_arrangements(n, kinds)
    if k == 0:
        if n == 0:
            yield ()
        return
    elements = range(1, n + 1)
    for assignment in itertools.product(range(k), repeat=n):
        members: list[list[int]] = [[] for _ in range(k)]
        for elem, sec in zip(elements, assignment):
            members[sec].append(elem)
        per_section = [
            _section_forms(kind, group) for kind, group in zip(kinds, members)
        ]
        wide = max(range(k), key=lambda sec: len(members[sec]))
        if len(members[wide]) >= n - 1:
            head = tuple(next(forms) for forms in per_section[:wide])
            tail = tuple(next(forms) for forms in per_section[wide + 1:])
            for form in per_section[wide]:
                yield (*head, form, *tail)
        else:
            yield from itertools.product(*map(list, per_section))


@lru_cache(maxsize=None)
def _assignments_by_used_sections(n: int, k: int) -> tuple:
    """(used sections, how many assignments) over every map {1..n} -> 0..k-1."""
    used = Counter(map(frozenset, itertools.product(range(k), repeat=n)))
    return tuple(used.items())


def enumerate_rbpa_with_empty(n: int, bars: int, i: int, jj: int) -> int:
    """All-restricted arrangements where section i or section jj is empty.

    bars bars give bars+1 restricted sections, indexed 0..bars. Counted
    by filtering every assignment directly; with every section
    restricted an assignment IS the arrangement. The assignments are
    enumerated once per (n, bars), grouped by the sections they use,
    and each pair filters those groups.
    """
    _check_size(n)
    if bars < 0:
        raise ValueError("bars must be >= 0")
    k = bars + 1
    _check_work(n, k)
    if not (0 <= i < k and 0 <= jj < k):
        raise IndexError(f"section indices must lie in 0..{k - 1}")
    if i == jj:
        raise ValueError("section indices must differ")
    return sum(
        count
        for used, count in _assignments_by_used_sections(n, k)
        if i not in used or jj not in used
    )


def count_some_section_at_most_one_block(n: int, j: int, marked: int) -> int:
    """Arrangements with j free sections where some marked section is small.

    Counts structures over j free sections in which at least one of the
    first `marked` sections holds at most one block. Used to pin down
    what an alternating inclusion-exclusion sum actually counts.
    """
    _check_size(n)
    if not 0 <= marked <= j:
        raise ValueError("marked must lie in 0..j")
    total = 0
    for structure in iter_rbpa(n, ("free",) * j):
        if any(len(structure[t]) <= 1 for t in range(marked)):
            total += 1
    return total


def clear_caches() -> None:
    """Empty every cache this module keeps, as at import."""
    _osp_count.cache_clear()
    _assignments_by_used_sections.cache_clear()
