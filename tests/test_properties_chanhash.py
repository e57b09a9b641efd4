"""Property-based tests: counter-hash randomness (determinism, independence)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.chanhash import (
    derive_key,
    directed_code,
    hashed_uniform,
    link_normal,
    link_radius,
    pair_code,
    splitmix64,
)
from repro.radio.shadowing import HashedShadowing, NoShadowing

keys = st.integers(min_value=0, max_value=2**63 - 1)
salts = st.integers(min_value=0, max_value=2**63 - 1).map(np.uint64)
code_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64
).map(lambda xs: np.array(xs, dtype=np.uint64))


@settings(deadline=None, max_examples=40)
@given(code_arrays, keys, salts)
def test_hashed_uniform_is_deterministic(codes, key, salt):
    sub = derive_key(key, salt)
    a = hashed_uniform(codes, sub)
    b = hashed_uniform(codes.copy(), derive_key(key, salt))
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=40)
@given(code_arrays, keys, salts)
def test_hashed_uniform_in_unit_interval(codes, key, salt):
    u = hashed_uniform(codes, derive_key(key, salt))
    assert ((u >= 0.0) & (u < 1.0)).all()


@settings(deadline=None, max_examples=40)
@given(code_arrays, keys, salts)
def test_hashed_uniform_is_elementwise(codes, key, salt):
    """Evaluation order/layout is irrelevant: a permutation permutes values."""
    sub = derive_key(key, salt)
    full = hashed_uniform(codes, sub)
    perm = np.random.default_rng(int(key) % 2**32).permutation(codes.size)
    assert np.array_equal(hashed_uniform(codes[perm], sub), full[perm])
    # and one-at-a-time evaluation matches the vectorized draw
    singles = [float(hashed_uniform(c, sub)) for c in codes]
    assert np.array_equal(np.array(singles), full)


@settings(deadline=None, max_examples=40)
@given(keys, salts, salts)
def test_key_independence_across_salts(key, salt_a, salt_b):
    """Different subkeys give unrelated streams over the same codes."""
    if salt_a == salt_b:
        return
    codes = np.arange(256, dtype=np.uint64)
    a = hashed_uniform(codes, derive_key(key, salt_a))
    b = hashed_uniform(codes, derive_key(key, salt_b))
    assert not np.array_equal(a, b)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.5


@settings(deadline=None, max_examples=40)
@given(keys, keys)
def test_key_independence_across_keys(key_a, key_b):
    if key_a == key_b:
        return
    codes = np.arange(256, dtype=np.uint64)
    salt = np.uint64(0x1234)
    a = hashed_uniform(codes, derive_key(key_a, salt))
    b = hashed_uniform(codes, derive_key(key_b, salt))
    assert not np.array_equal(a, b)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pair_code_is_symmetric_directed_is_not(i, j):
    iu = np.uint64(i)
    ju = np.uint64(j)
    assert pair_code(iu, ju) == pair_code(ju, iu)
    if i != j:
        assert directed_code(iu, ju) != directed_code(ju, iu)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_splitmix64_has_no_local_collisions(start):
    """Consecutive counters never collide (splitmix64 is a bijection)."""
    zs = np.arange(start, start + 512, dtype=np.uint64)
    hashed = splitmix64(zs)
    assert np.unique(hashed).size == zs.size


id_arrays = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=64
).map(lambda xs: np.array(xs, dtype=np.int64))


@settings(deadline=None, max_examples=60)
@given(keys, id_arrays, id_arrays)
def test_link_radius_bounds_the_normal(key, i, j):
    m = min(i.size, j.size)
    i, j = i[:m], j[:m]
    z = link_normal(key, i, j)
    r = link_radius(key, i, j)
    assert (np.abs(z) <= r).all()
    assert np.array_equal(r, link_radius(key, j, i))


@settings(deadline=None, max_examples=60)
@given(
    keys,
    id_arrays,
    id_arrays,
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.05, max_value=4.0),
)
def test_gain_bound_covers_every_shadow_gain(key, i, j, sigma, clip):
    """``−link_db ≤ gain_bound_db`` holds bitwise, with no rounding slack;
    a small clip puts many draws at the clip, where the bound is met."""
    m = min(i.size, j.size)
    i, j = i[:m], j[:m]
    shadowing = HashedShadowing(sigma, key, clip_sigma=clip)
    gain = -shadowing.link_db(i, j)
    bound = shadowing.gain_bound_db(i, j)
    assert (gain <= bound).all()
    at_clip = link_normal(key, i, j) <= -clip
    assert np.array_equal(gain[at_clip], bound[at_clip])
    assert np.array_equal(
        NoShadowing().gain_bound_db(i, j), np.zeros(m)
    )
