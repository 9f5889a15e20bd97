import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdfkalc import (
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    candidate_degrees,
    componentwise_min,
    degree,
    grlex_sorted,
    leq_q,
    unit,
)
from oracles import reference_grlex_key

small_degrees = st.builds(
    lambda coords: Degree.of(enumerate(coords, start=1)),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=4),
)
# sparse vectors over six coordinates: zeros are common, so supports often overlap
# only partly or not at all
WIDTH = 6
dense_vectors = st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=WIDTH, max_size=WIDTH)


def from_dense(vector):
    return Degree.of(enumerate(vector, start=1))


# sparse degrees with negative entries at indices up to 8
sparse_degrees = st.dictionaries(st.integers(1, 8), st.integers(-3, 3), max_size=4).map(Degree.of)


def in_reference_order(degrees, width):
    return sorted(degrees, key=lambda d: reference_grlex_key(d, width))


def dense_box(lo, hi, width):
    """Every degree g with lo <= g <= hi on coordinates 1..width, by brute force over the dense box."""
    ranges = [range(a, b + 1) for a, b in zip(lo.dense(width), hi.dense(width))]
    return [from_dense(vector) for vector in itertools.product(*ranges)]


small_q = st.builds(
    lambda coords: Degree.of(enumerate(coords, start=1)),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)


class TestDegree:
    def test_canonical_form_drops_zeros(self):
        assert degree(1, 0, -1).entries == ((1, 1), (3, -1))
        assert degree(0, 0) == ZERO

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            Degree(((1, 0),))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            Degree(((2, 1), (1, 1)))

    def test_arithmetic(self):
        assert degree(1, 2) + degree(0, -2) == unit(1)
        assert degree(1, 2) - degree(1, 2) == ZERO
        assert -degree(1, -1) == degree(-1, 1)
        assert degree(1, 1).scaled(3) == degree(3, 3)

    def test_json_encoding(self):
        d = Degree.of({1: 2, 3: -1})
        assert d.to_json() == [[1, 2], [3, -1]]
        assert str(d) == "2e1-e3"


class TestAgainstDenseVectors:
    @given(dense_vectors, dense_vectors)
    def test_sum_and_difference(self, a, b):
        g, h = from_dense(a), from_dense(b)
        assert (g + h).dense(WIDTH) == tuple(x + y for x, y in zip(a, b))
        assert (g - h).dense(WIDTH) == tuple(x - y for x, y in zip(a, b))
        assert (g + h) == from_dense([x + y for x, y in zip(a, b)])
        assert (g - h) == from_dense([x - y for x, y in zip(a, b)])

    @given(dense_vectors, dense_vectors)
    def test_order_and_minimum(self, a, b):
        g, h = from_dense(a), from_dense(b)
        assert leq_q(g, h) == all(x <= y for x, y in zip(a, b))
        assert componentwise_min(g, h) == from_dense([min(x, y) for x, y in zip(a, b)])

    @given(dense_vectors)
    def test_cancellation_to_zero(self, a):
        g = from_dense(a)
        assert g - g == ZERO and (g - g).entries == ()
        assert g + from_dense([-x for x in a]) == ZERO
        assert leq_q(g - g, ZERO) and leq_q(ZERO, g - g)

    def test_disjoint_supports(self):
        odd, even = degree(2, 0, -1, 0, 3), degree(0, -1, 0, 4)
        assert (odd + even).entries == ((1, 2), (2, -1), (3, -1), (4, 4), (5, 3))
        assert (odd - even).entries == ((1, 2), (2, 1), (3, -1), (4, -4), (5, 3))
        assert (even - odd).entries == ((1, -2), (2, -1), (3, 1), (4, 4), (5, -3))
        assert not leq_q(odd, even) and not leq_q(even, odd)
        assert leq_q(degree(0, -1), degree(2)) and not leq_q(degree(2), degree(0, 1))
        assert componentwise_min(odd, even) == degree(0, -1, -1, 0, 0)


class TestOrder:
    def test_examples(self):
        assert leq_q(degree(1, 0), degree(1, 2))
        assert leq_q(ZERO, degree(2, 0, 5))
        assert leq_q(degree(1, -1), degree(1, 0))
        assert not leq_q(degree(1, -1), ZERO)

    @given(small_degrees)
    def test_reflexive(self, g):
        assert leq_q(g, g)

    @given(small_degrees, small_degrees)
    def test_antisymmetric(self, g, h):
        if leq_q(g, h) and leq_q(h, g):
            assert g == h

    @given(small_degrees, small_degrees, small_degrees)
    def test_transitive(self, g, h, k):
        if leq_q(g, h) and leq_q(h, k):
            assert leq_q(g, k)

    @given(small_degrees, small_degrees, small_degrees)
    def test_translation_invariance(self, g, h, u):
        if leq_q(g, h):
            assert leq_q(g + u, h + u)

    @given(small_degrees, small_degrees)
    def test_componentwise_min_is_a_lower_bound(self, g, h):
        m = componentwise_min(g, h)
        assert leq_q(m, g) and leq_q(m, h)


def downset(u):
    """All of Q below u, as the candidate degrees of the full cone under the one ceiling u."""
    return candidate_degrees(SupportDescriptor.of([ZERO]), Window.of([u]))


class TestDownset:
    def test_unit_box(self):
        got = downset(degree(1, 1))
        assert got == [ZERO, degree(0, 1), degree(1, 0), degree(1, 1)]

    def test_negative_component_gives_empty(self):
        assert downset(degree(-1, 0)) == []

    def test_single_axis(self):
        assert downset(degree(2)) == [ZERO, degree(1), degree(2)]

    def test_matches_bruteforce_box(self):
        u = degree(2, 1, 2)
        expected = {
            degree(a, b, c) for a in range(3) for b in range(2) for c in range(3)
        }
        assert set(downset(u)) == expected

    @given(small_q)
    def test_cardinality_and_membership(self, u):
        down = downset(u)
        size = 1
        for _, c in u.entries:
            size *= c + 1
        assert len(down) == size
        assert all(leq_q(d, u) for d in down)

    @given(small_q)
    def test_graded_lex_order(self, u):
        down = downset(u)
        assert down == in_reference_order(down, u.max_index())
        totals = [d.total() for d in down]
        assert totals == sorted(totals)


class TestGradedLexOrder:
    """The library's orders against the graded-lex key on dense coordinates in ``oracles``."""

    @given(st.lists(sparse_degrees, max_size=12), st.integers(0, 3))
    def test_grlex_sorted_matches_the_reference_at_every_width(self, degrees, extra):
        width = max((d.max_index() for d in degrees), default=0) + extra
        assert grlex_sorted(degrees) == in_reference_order(degrees, width)

    @given(
        st.lists(st.lists(st.integers(-2, 1), min_size=3, max_size=3).map(from_dense), min_size=1, max_size=3),
        st.lists(st.lists(st.integers(-1, 3), min_size=3, max_size=3).map(from_dense), min_size=1, max_size=3),
    )
    def test_candidates_are_the_box_filtered_in_reference_order(self, bounds, ceilings):
        support, window = SupportDescriptor.of(bounds), Window.of(ceilings)
        lo = from_dense([min(b.coeff(i) for b in bounds) for i in (1, 2, 3)])
        hi = from_dense([max(u.coeff(i) for u in ceilings) for i in (1, 2, 3)])
        inside = [g for g in dense_box(lo, hi, 3) if support.contains(g) and window.contains(g)]
        assert candidate_degrees(support, window) == in_reference_order(inside, 3)


class TestSupportDescriptor:
    def test_sum_of_origin_cones(self):
        q = SupportDescriptor.of([ZERO])
        assert (q + q).lower_bounds == (ZERO,)

    def test_sum_of_translates(self):
        a = SupportDescriptor.of([degree(-1, 0)])
        b = SupportDescriptor.of([degree(0, -1)])
        assert (a + b).lower_bounds == (degree(-1, -1),)

    def test_minkowski_sum_of_incomparable_bounds(self):
        a = SupportDescriptor.of([degree(2, 0), degree(0, 2)])
        b = SupportDescriptor.of([degree(1, 1)])
        assert set((a + b).lower_bounds) == {degree(3, 1), degree(1, 3)}

    def test_dominated_bounds_are_redundant(self):
        s = SupportDescriptor.of([ZERO, degree(1, 1)])
        assert s.lower_bounds == (ZERO,)
        assert s.contains(degree(1, 1))

    @given(small_degrees, small_degrees)
    def test_sum_contains_sums(self, g, h):
        a = SupportDescriptor.of([g])
        b = SupportDescriptor.of([h])
        total = a + b
        for p in downset(degree(1, 1)):
            assert total.contains(g + h + p)


class TestWindow:
    def test_membership_and_covering(self):
        w = Window.of([degree(2, 1)])
        assert w.contains(degree(2, 1))
        assert w.contains(degree(-5, 0))
        assert not w.contains(degree(0, 2))
        assert w.covers(Window.of([degree(1, 1)]))
        assert not w.covers(Window.of([degree(3, 0)]))

    def test_intersection_is_exact(self):
        a = Window.of([degree(2, 0), degree(0, 2)])
        b = Window.of([degree(1, 1)])
        both = a.intersect(b)
        for g in [degree(1, 0), degree(0, 1), degree(1, 1), degree(2, 0)]:
            assert both.contains(g) == (a.contains(g) and b.contains(g))

    def test_candidates_enumerate_cone_in_region(self):
        support = SupportDescriptor.of([degree(1, 0)])
        window = Window.of([degree(2, 1)])
        got = candidate_degrees(support, window)
        assert got == in_reference_order(got, 2)
        assert set(got) == {degree(1, 0), degree(2, 0), degree(1, 1), degree(2, 1)}

