"""The probe stream: SplitMix64 keyed by (seed, row, round).

``maps._uniforms`` computes the stream on uint64 arrays; the oracle in
``reference.maps_pointwise`` computes it in Python ints, one body at a
time.  The oracle's plain generator is held to the published SplitMix64
values, and the array stream to the oracle, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsel import maps
from reference.maps_pointwise import splitmix64, uniforms


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_the_oracle_generator_gives_the_published_values():
    # SplitMix64 from the state 1234567, as in the reference implementation
    assert splitmix64(1234567, 3) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_the_array_mix_is_the_oracle_mix():
    states = [(1234567 + n * 0x9E3779B97F4A7C15) % 2**64 for n in (1, 2, 3)]
    got = maps._mix(np.array(states, dtype=np.uint64)).tolist()
    assert got == splitmix64(1234567, 3)


seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**200),
    st.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**128]),
)


@settings(max_examples=200, deadline=None)
@given(seeds, st.lists(st.integers(0, 2**20), min_size=1, max_size=6),
       st.integers(0, 40), st.integers(0, 300))
def test_the_array_stream_is_the_oracle_bit_for_bit(seed, rows, round_, count):
    got = maps._uniforms(seed, np.array(rows, dtype=np.intp), round_, count)
    assert got.shape == (len(rows), count)
    assert bits(got) == bits([uniforms(seed, row, round_, count) for row in rows])


def test_a_body_stream_does_not_depend_on_the_other_rows():
    alone = maps._uniforms(7, np.array([5]), 3, 40)
    among = maps._uniforms(7, np.array([0, 5, 9]), 3, 40)
    assert bits(alone[0]) == bits(among[1])
    assert bits(alone[0, :10]) == bits(maps._uniforms(7, np.array([5]), 3, 10)[0])


def test_the_doubles_lie_in_the_unit_interval():
    u = maps._uniforms(0, np.arange(64), 0, 1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


@pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1])
def test_seeds_that_agree_mod_2_64_draw_apart(seed):
    rows = np.arange(4)
    for other in (seed + 2**64, seed + 2**70, seed + 2**128):
        assert bits(maps._uniforms(seed, rows, 0, 8)) != bits(maps._uniforms(other, rows, 0, 8))


def test_rows_and_rounds_draw_apart():
    streams = {
        tuple(bits(maps._uniforms(11, np.array([row]), round_, 4)[0]))
        for row in range(20) for round_ in range(41)
    }
    assert len(streams) == 20 * 41


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        maps._uniforms(-1, np.arange(2), 0, 4)
    with pytest.raises(TypeError):
        maps._uniforms(1.5, np.arange(2), 0, 4)
