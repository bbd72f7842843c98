"""acscheck's own PCG64 streams against numpy's, bit for bit.

`acscheck._pcg64.Streams` computes the draws of `np.random.default_rng`
for many entropies at once.  numpy is the oracle: every draw, and each
stream's state after its draws, must equal those of one numpy generator per
entropy that makes the same calls.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from acscheck import _pcg64
from acscheck._pcg64 import Streams
from acscheck.geometry import random_conjugation_acs

WORD = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**70))
ENTROPY = st.one_of(st.integers(0, 2**130 - 1), st.lists(WORD, min_size=1, max_size=6))
SHAPE = st.lists(st.integers(0, 5), max_size=3).map(tuple)
BOUNDS = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2).map(sorted)


@given(
    entropies=st.lists(ENTROPY, min_size=1, max_size=5),
    rounds=st.lists(st.tuples(st.lists(st.booleans(), min_size=5, max_size=5), SHAPE, BOUNDS), max_size=4),
)
def test_draws_equal_numpy(entropies, rounds):
    streams = Streams(entropies)
    oracles = [np.random.default_rng(e) for e in entropies]
    for r, rng in enumerate(oracles):
        assert oracle.pcg64_state(streams, r) == rng.bit_generator.state["state"]
    for chosen, shape, (low, high) in rounds:
        rows = [r for r in range(len(entropies)) if chosen[r]]  # the others do not draw
        for cols, x in streams._raw(np.array(rows, dtype=int), int(np.prod(shape))):
            for row, r in zip(x, rows):
                assert row.tolist() == oracles[r].bit_generator.random_raw(cols.stop - cols.start).tolist()
        draws = streams.uniform(low, high, shape)
        assert draws.shape == (len(entropies), *shape)
        for row, rng in zip(draws, oracles):
            assert row.tobytes() == rng.uniform(low, high, shape).tobytes()
    seeds = streams.integers63()
    assert seeds == [int(rng.integers(0, 2**63 - 1)) for rng in oracles]
    for r, rng in enumerate(oracles):
        assert oracle.pcg64_state(streams, r) == rng.bit_generator.state["state"]


def test_long_draws_span_several_blocks():
    entropies = [[7, 2, i] for i in range(3)]
    streams, k = Streams(entropies), 2 * _pcg64._BLOCK // 3 + 5
    draws = streams.uniform(0.0, 1.0, (k,))
    for e, row in zip(entropies, draws):
        assert row.tobytes() == np.random.default_rng(e).uniform(0.0, 1.0, k).tobytes()


def test_integers_redraws_a_rejected_output():
    # the state whose next output is 0: Lemire's method rejects it and draws again
    mult = int(_pcg64._A[0, 0]) << 64 | int(_pcg64._A[1, 0])
    streams = Streams([0])
    inc = oracle.pcg64_state(streams, 0)["inc"]
    state = -inc * pow(mult, -1, 2**128) % 2**128
    streams.s[:, 0] = state >> 64, state % 2**64
    bits = np.random.PCG64()
    full = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    bits.state = full
    assert bits.random_raw() == 0
    bits.state = full
    rng = np.random.Generator(bits)
    assert streams.integers63() == [int(rng.integers(0, 2**63 - 1))]
    assert oracle.pcg64_state(streams, 0) == rng.bit_generator.state["state"]
    second = (state * mult + inc) * mult + inc
    assert oracle.pcg64_state(streams, 0)["state"] == second % 2**128  # two draws, not one


@pytest.mark.parametrize("seed", [-1, 1.5, "3", [1, -1], [1.5], np.float64(2.0)])
def test_seed_refusals_are_numpys(seed):
    with pytest.raises((TypeError, ValueError)) as ref:
        np.random.default_rng(seed)
    with pytest.raises(ref.type) as new:
        random_conjugation_acs(4, 2, seed)
    assert str(new.value) == str(ref.value)


def test_seed_refusal_messages():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        random_conjugation_acs(4, 2, -1)
    for seed in (1.5, "3", None):  # numpy draws fresh entropy for None; acscheck refuses it
        with pytest.raises(TypeError, match=f"^SeedSequence expects int or sequence of ints for entropy not {seed}$"):
            random_conjugation_acs(4, 2, seed)
    with pytest.raises(TypeError, match="^seed must be integer$"):
        random_conjugation_acs(4, 2, [2, "3"])  # numpy reads a string in a list; acscheck refuses it


def test_accepted_seeds_equal_numpys():
    assert random_conjugation_acs(4, 2, True) == random_conjugation_acs(4, 2, 1)
    assert random_conjugation_acs(4, 2, np.uint64(3)) == random_conjugation_acs(4, 2, 3)
    for entropy in ([], [[1, 2], 3], (4, 5), range(3), np.array([6, 2**40])):
        draw = Streams([entropy]).uniform(-1.0, 1.0, (4,))[0]
        assert draw.tobytes() == np.random.default_rng(entropy).uniform(-1.0, 1.0, 4).tobytes()
