"""Play value order, increments, and the integer codec."""

import random

import pytest
from hypothesis import given, strategies as st

from oracle_reference import EQUAL, GREATER, LESS, add_priority, compare
from sinkgames.playvalues import NEG_INF, POS_INF, PlayValue, ValueCodec


def pv(mapping):
    return PlayValue.finite(mapping)


class TestCompare:
    def test_higher_even_priority_decides(self):
        # {4:1} against {2:1, 6:1}: priority 6 decides, more of it is better
        assert compare(pv({4: 1}), pv({2: 1, 6: 1})) == LESS

    def test_equal_vectors(self):
        assert compare(pv({3: 2, 6: 1}), pv({3: 2, 6: 1})) == EQUAL

    def test_more_of_an_odd_priority_is_worse(self):
        assert compare(pv({3: 1}), pv({})) == LESS

    def test_infinities_are_extremes(self):
        assert compare(NEG_INF, pv({9: 5})) == LESS
        assert compare(pv({9: 5}), POS_INF) == LESS
        assert compare(NEG_INF, POS_INF) == LESS
        assert compare(POS_INF, POS_INF) == EQUAL
        assert compare(NEG_INF, NEG_INF) == EQUAL

    def test_odd_tie_breaks_downward(self):
        # same top count, next differing priority is odd: fewer is better
        assert compare(pv({6: 1, 3: 1}), pv({6: 1})) == LESS
        assert compare(pv({6: 1}), pv({6: 1, 3: 1})) == GREATER


finite_values = st.dictionaries(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=9), max_size=6
).map(PlayValue.finite)
any_values = st.one_of(finite_values, st.just(NEG_INF), st.just(POS_INF))


class TestOrderLaws:
    @given(any_values, any_values)
    def test_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(any_values)
    def test_reflexive(self, a):
        assert compare(a, a) == EQUAL

    @given(any_values, any_values, any_values)
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0

    @given(finite_values, finite_values, st.integers(min_value=0, max_value=12))
    def test_translation_invariant(self, a, b, q):
        assert compare(a, b) == compare(add_priority(a, q), add_priority(b, q))

    @given(any_values, any_values)
    def test_total_and_consistent_with_equality(self, a, b):
        order = compare(a, b)
        assert order in (LESS, EQUAL, GREATER)
        assert (order == EQUAL) == (a == b)


class TestAddPriority:
    def test_unit_increment(self):
        assert add_priority(pv({}), 3) == pv({3: 1})

    def test_disjoint_increment(self):
        assert add_priority(pv({4: 1}), 6) == pv({4: 1, 6: 1})

    def test_repeated_increment_accumulates(self):
        assert add_priority(add_priority(pv({}), 4), 4) == pv({4: 2})

    def test_infinities_pass_through(self):
        assert add_priority(POS_INF, 7) is POS_INF
        assert add_priority(NEG_INF, 2) is NEG_INF

    def test_counts_stay_positive_and_sorted(self):
        value = pv({})
        for q in (5, 1, 5, 9, 0, 5):
            value = add_priority(value, q)
        assert value.counts == ((9, 1), (5, 3), (1, 1), (0, 1))


class TestPlayValueType:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            PlayValue(0, ((3, 0),))

    def test_rejects_unsorted_counts(self):
        with pytest.raises(ValueError):
            PlayValue(0, ((2, 1), (5, 1)))

    def test_count_lookup(self):
        value = pv({7: 2, 3: 1})
        assert value.count(7) == 2
        assert value.count(4) == 0


class TestCodec:
    def test_roundtrip_random(self):
        rng = random.Random(7)
        priorities = [0, 1, 2, 3, 5, 8, 11]
        codec = ValueCodec(priorities, max_count=30)
        for _ in range(2000):
            counts = {
                q: rng.randint(1, 30) for q in rng.sample(priorities, rng.randint(0, 5))
            }
            value = pv(counts)
            code = codec.encode(value)
            assert codec.decode(code) == value
            assert [codec.digit(code, q) for q in priorities] == [
                value.count(q) for q in priorities
            ]

    def test_order_isomorphism(self):
        rng = random.Random(11)
        priorities = [0, 1, 2, 3, 4, 6, 9]
        codec = ValueCodec(priorities, max_count=25)
        values = [POS_INF, NEG_INF]
        for _ in range(300):
            counts = {
                q: rng.randint(1, 25) for q in rng.sample(priorities, rng.randint(0, 5))
            }
            values.append(pv(counts))
        for _ in range(4000):
            a, b = rng.choice(values), rng.choice(values)
            ca, cb = codec.encode(a), codec.encode(b)
            assert compare(a, b) == (ca > cb) - (ca < cb)

    def test_weights_are_signed_powers_of_the_base(self):
        # about as many priorities as the reduction of a 5,000-node game
        rng = random.Random(13)
        priorities = rng.sample(range(-50, 12000), 4000)
        codec = ValueCodec(priorities, max_count=9)
        assert codec.priorities == tuple(sorted(priorities))
        for rank, q in enumerate(codec.priorities):
            assert codec.weight(q) == (-1) ** (q % 2) * codec.base**rank, q
        assert codec.pos_code == codec.base ** (len(priorities) + 1)
        assert codec.neg_code == -codec.pos_code

    def test_sentinels(self):
        codec = ValueCodec([1, 2], max_count=5)
        assert codec.decode(codec.encode(POS_INF)) is POS_INF
        assert codec.decode(codec.encode(NEG_INF)) is NEG_INF
        assert codec.encode(pv({})) == 0

    def test_decode_refuses_a_remainder_below_every_weight(self):
        # no priorities: only 0 and the sentinels (+-base) are codes
        with pytest.raises(ValueError, match="code 5 is not a valid encoding"):
            ValueCodec([], 5).decode(5)

    def test_decode_refuses_a_negative_count(self):
        # base 14, weights -1 at priority 1 and 14 at priority 2: 7 is -7
        # times the weight of priority 1
        with pytest.raises(
            ValueError, match="code 7 decodes to a negative count at priority 1"
        ):
            ValueCodec([1, 2], 5).decode(7)
