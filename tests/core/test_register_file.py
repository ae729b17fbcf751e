"""Differential test: the heap-backed Belady register file against the
linear-scan victim rule it replaced.

The oracle evicts ``max(objects, key=(next_use, -words))``: the furthest
next use, then the fewest words, and on a full tie the first resident in
dict (insertion) order.  Overwriting a resident name releases its old
words before any eviction, keeps the name's dict position, and never
picks the old value as a victim.  ``_RegisterFile`` must pick the same
victims in the same order and track the same ``used`` and ``peak`` under
any mix of inserts (fresh names and overwrites of resident names),
next-use updates and drops.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.simulator import _RegisterFile


class LinearScanRegisterFile:
    """Reference Belady store: scans every resident for each victim."""

    def __init__(self, capacity_words: float):
        self.capacity = capacity_words
        self.objects: dict[str, list] = {}  # name -> [words, next_use]
        self.used = 0.0
        self.peak = 0.0

    def insert(self, obj: str, words: float, next_use: float) -> list:
        evicted = []
        if words > self.capacity:
            return evicted
        if obj in self.objects:
            self.used -= self.objects[obj][0]
        while self.used + words > self.capacity:
            victim = max((o for o in self.objects if o != obj),
                         key=lambda o: (self.objects[o][1],
                                        -self.objects[o][0]))
            record = self.objects.pop(victim)
            self.used -= record[0]
            evicted.append((victim, record[0], record[1]))
        self.objects[obj] = [words, next_use]
        self.used += words
        self.peak = max(self.peak, self.used)
        return evicted

    def set_next_use(self, obj: str, next_use: float) -> None:
        self.objects[obj][1] = next_use

    def drop(self, obj: str) -> None:
        record = self.objects.pop(obj, None)
        if record is not None:
            self.used -= record[0]


NAMES = [f"v{i}" for i in range(6)]
# Few distinct values so that next_use and words ties are common.
next_uses = st.one_of(st.integers(0, 6), st.just(math.inf))
word_sizes = st.sampled_from([1.0, 2.0, 3.0, 5.0])

actions = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(NAMES), word_sizes,
                  next_uses),
        st.tuples(st.just("rekey"), st.sampled_from(NAMES), next_uses),
        st.tuples(st.just("drop"), st.sampled_from(NAMES)),
    ),
    max_size=120)


def _apply_oracle(oracle, action) -> list:
    kind, obj, *args = action
    if kind == "insert":
        return oracle.insert(obj, *args)
    if kind == "rekey":
        if obj in oracle.objects:
            oracle.set_next_use(obj, args[0])
    else:
        oracle.drop(obj)
    return []


def _apply(rf, action) -> list:
    kind, obj, *args = action
    if kind == "insert":
        words, next_use = args
        return [(name, r.words, r.next_use)
                for name, r in rf.insert(obj, words, "interm", True,
                                         next_use)]
    if kind == "rekey":
        if obj in rf.objects:
            rf.set_next_use(obj, rf.objects[obj], args[0])
    else:
        rf.drop(obj)
    return []


class EagerlyCompactedRegisterFile(_RegisterFile):
    """Rebuilds its heap after every push, so short scripts exercise the
    stale-entry compaction."""

    def _push(self, obj, record):
        super()._push(obj, record)
        self._compact()


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from([4.0, 7.0, 12.0]), script=actions,
       store=st.sampled_from([_RegisterFile, EagerlyCompactedRegisterFile]))
# Overwrites: "a" holds 4 of 10 words, not 8, so "b" evicts nothing; and
# growing "v0" in place evicts "v1", never the old copy of "v0".
@example(capacity=10.0, store=_RegisterFile, script=[
    ("insert", "a", 4.0, 1), ("insert", "a", 4.0, 2),
    ("insert", "b", 4.0, 3)])
@example(capacity=8.0, store=_RegisterFile, script=[
    ("insert", "v0", 4.0, math.inf), ("insert", "v1", 4.0, 1),
    ("insert", "v0", 6.0, 2)])
def test_heap_victims_match_linear_scan(capacity, script, store):
    oracle = LinearScanRegisterFile(capacity)
    rf = store(capacity)
    for action in script:
        want = _apply_oracle(oracle, action)
        assert _apply(rf, action) == want
        assert list(rf.objects) == list(oracle.objects)
        assert rf.used == oracle.used
        assert rf.peak == oracle.peak


def test_tie_goes_to_first_inserted_resident():
    rf = _RegisterFile(8.0)
    for name in ("a", "b", "c"):
        rf.insert(name, 2.0, "interm", True, math.inf)
    # Re-keying "a" away and back keeps its place ahead of "b" and "c".
    rf.set_next_use("a", rf.objects["a"], 3)
    rf.set_next_use("a", rf.objects["a"], math.inf)
    # So does overwriting "b" (a non-SSA result reusing a resident name).
    rf.insert("b", 2.0, "interm", True, math.inf)
    victims = rf.insert("d", 8.0, "interm", True, 1)
    assert [name for name, _ in victims] == ["a", "b", "c"]

