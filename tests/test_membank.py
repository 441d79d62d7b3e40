import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilkit.autodiff import ContractError
from dilkit.datagen import LabeledSet
from dilkit.membank import MemoryBank, quotas
from dilkit.seeding import substream


def _domain(t, n=500, dim=3, seed=0):
    rng = np.random.default_rng(seed + t)
    return LabeledSet(rng.random((n, dim)), rng.integers(0, 2, size=n), t)


def test_quotas_examples():
    assert quotas(400, 2) == [200, 200]
    assert quotas(500, 3) == [167, 167, 166]
    assert quotas(10, 4) == [3, 3, 2, 2]


def test_even_division_after_two_domains():
    bank = MemoryBank(capacity=400)
    bank.update_after_domain(_domain(1), 1, seed=0)
    bank.update_after_domain(_domain(2), 2, seed=0)
    assert bank.sizes() == {1: 200, 2: 200}


def test_near_equal_partition_of_500_by_3():
    bank = MemoryBank(capacity=500)
    for t in (1, 2, 3):
        bank.update_after_domain(_domain(t, n=600), t, seed=1)
    assert bank.sizes() == {1: 167, 2: 167, 3: 166}


@pytest.mark.parametrize("capacity", [200, 400, 800])
def test_twenty_domain_invariants(capacity):
    bank = MemoryBank(capacity=capacity)
    for t in range(1, 21):
        bank.update_after_domain(_domain(t, n=900), t, seed=3)
        sizes = list(bank.sizes().values())
        assert bank.total() <= capacity
        assert max(sizes) - min(sizes) <= 1
        assert sorted(bank.buckets) == list(range(1, t + 1))


def test_shortfall_recorded_and_stores_all():
    bank = MemoryBank(capacity=100)
    small = _domain(1, n=30)
    bank.update_after_domain(small, 1, seed=0)
    assert bank.sizes() == {1: 30}
    assert bank.shortfalls == {1: 70}
    bank.update_after_domain(_domain(2, n=500), 2, seed=0)
    assert bank.sizes()[2] == 50


def test_wrong_order_rejected():
    bank = MemoryBank(capacity=10)
    with pytest.raises(ContractError, match="expects t=1, got 2"):
        bank.update_after_domain(_domain(1), 2, seed=0)
    bank.update_after_domain(_domain(1), 1, seed=0)
    with pytest.raises(ContractError, match="expects t=2, got 1"):
        bank.update_after_domain(_domain(1), 1, seed=0)
    with pytest.raises(ContractError, match="expects t=2, got 3"):
        bank.update_after_domain(_domain(3), 3, seed=0)


def test_domain_count_lives_in_the_buckets():
    """The next expected domain is read off the buckets; the bank keeps no
    separate counter that could disagree with them."""
    assert [f.name for f in dataclasses.fields(MemoryBank)] == [
        "capacity", "buckets", "shortfalls"]


def test_exemplars_come_from_current_without_replacement():
    bank = MemoryBank(capacity=40)
    d = _domain(1, n=200)
    bank.update_after_domain(d, 1, seed=5)
    b = bank.buckets[1]
    # every stored row appears in the source and rows are distinct
    for row in b.x:
        assert np.any(np.all(d.x == row, axis=1))
    assert len(np.unique(b.x, axis=0)) == len(b.x)


def test_sample_past_contracts():
    bank = MemoryBank(capacity=60)
    assert bank.sample_past(32, np.random.default_rng(0)) == {}
    bank.update_after_domain(_domain(1, n=100), 1, seed=0)
    bank.update_after_domain(_domain(2, n=100), 2, seed=0)
    got = bank.sample_past(32, np.random.default_rng(1))
    assert sorted(got) == [1, 2]
    assert all(len(ix) == 30 for ix in got.values())  # bucket size 30 < 32
    small = bank.sample_past(7, np.random.default_rng(2))
    assert all(len(ix) == 7 for ix in small.values())
    for i, ix in small.items():  # distinct rows of bucket i
        assert len(np.unique(ix)) == len(ix)
        assert 0 <= ix.min() and ix.max() < len(bank.buckets[i])


def test_retained_indices_reproducible():
    def build():
        bank = MemoryBank(capacity=90)
        for t in (1, 2, 3):
            bank.update_after_domain(_domain(t, n=120), t, seed=42)
        return bank

    a, b = build(), build()
    for i in (1, 2, 3):
        assert np.array_equal(a.buckets[i].x, b.buckets[i].x)
        assert np.array_equal(a.buckets[i].y, b.buckets[i].y)


def test_sample_past_deterministic_given_rng():
    bank = MemoryBank(capacity=50)
    bank.update_after_domain(_domain(1, n=80), 1, seed=7)
    s1 = bank.sample_past(10, substream(7, "sampling", 1))
    s2 = bank.sample_past(10, substream(7, "sampling", 1))
    assert np.array_equal(s1[1], s2[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 12))
def test_quota_partition_property(capacity, t):
    q = quotas(capacity, t)
    assert sum(q) == capacity
    assert max(q) - min(q) <= 1
    assert q == sorted(q, reverse=True)
