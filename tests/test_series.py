import json
import random
import time

import pytest

from bdfkalc import (
    ZERO,
    FreeModule,
    LaurentSeries,
    Monomial,
    MonomialQuotient,
    NotInvertibleError,
    QSeries,
    RingSpec,
    ShiftedModule,
    SupportDescriptor,
    Window,
    WindowError,
    add,
    degree,
    eq_on_window,
    hilbert,
    invert,
    monomial_series,
    mul,
    mul_q,
    negate,
    one_series,
    ring_hilbert,
    series_from_terms,
    truncate,
    zero_series,
)
from oracles import convolve, inverse_by_geometric_sum, lazy_mul_q, random_degree, random_series, random_window

W33 = Window.of([degree(3, 3)])


def poly(terms):
    return series_from_terms(terms, W33)


class TestQSeries:
    def test_reads_outside_the_quadrant_are_zero(self):
        calls = []

        def oracle(g):
            calls.append(g)
            return 7

        q = QSeries(oracle)
        assert q.coeff(degree(-1, 2)) == 0
        assert calls == []  # the oracle is never consulted off the quadrant

    def test_memoized_reads_are_stable(self):
        counter = iter(range(100))
        q = QSeries(lambda g: next(counter))
        first = q.coeff(degree(1))
        assert q.coeff(degree(1)) == first

    def test_from_terms_rejects_negative_support(self):
        with pytest.raises(ValueError):
            QSeries.from_terms({degree(-1): 1})


class TestLaurentSeries:
    def test_rejects_out_of_window_terms(self):
        with pytest.raises(ValueError):
            series_from_terms({degree(4, 0): 1}, W33)

    def test_rejects_out_of_support_terms(self):
        with pytest.raises(ValueError):
            LaurentSeries(W33, SupportDescriptor.of([degree(1, 1)]), {ZERO: 1})

    def test_reading_outside_window_is_an_error(self):
        s = poly({ZERO: 1})
        with pytest.raises(WindowError):
            s.coeff(degree(4, 0))

    def test_missing_inside_window_is_zero(self):
        assert poly({ZERO: 1}).coeff(degree(1, 1)) == 0

    def test_json_round_shape(self):
        s = poly({degree(1, 1): -1, ZERO: 1})
        payload = s.to_json()
        assert payload["coeffs"] == [[[], 1], [[[1, 1], [2, 1]], -1]]
        # graded-lex order of coeffs makes the serialization canonical
        assert json.dumps(payload, sort_keys=True) == json.dumps(payload, sort_keys=True)


class TestAdd:
    def test_additive_identity(self):
        a = poly({degree(1, 0): 2, degree(2, 1): -1})
        total = add(a, zero_series(W33))
        assert eq_on_window(total, a, W33)

    def test_additive_inverse(self):
        a = poly({degree(1, 0): 2, degree(2, 1): -1})
        assert add(a, negate(a)).is_zero

    def test_disjoint_monomials(self):
        left = poly({ZERO: 1, degree(1): 1})
        right = poly({ZERO: 1, degree(0, 1): 1})
        expected = poly({ZERO: 2, degree(1): 1, degree(0, 1): 1})
        assert eq_on_window(add(left, right), expected, W33)

    def test_window_is_intersection(self):
        a = series_from_terms({ZERO: 1}, Window.of([degree(3, 0)]))
        b = series_from_terms({ZERO: 1}, Window.of([degree(0, 3)]))
        total = add(a, b)
        assert total.window == Window.of([ZERO])
        assert total.coeff(ZERO) == 2


class TestMul:
    def test_telescoping(self):
        w = Window.of([degree(3)])
        left = series_from_terms({ZERO: 1, degree(1): -1}, w)
        right = series_from_terms({ZERO: 1, degree(1): 1, degree(2): 1}, w)
        result = mul(left, right)
        expected = series_from_terms({ZERO: 1, degree(3): -1}, result.window)
        assert eq_on_window(result, expected, result.window)

    def test_matches_dense_convolution(self):
        rng = random.Random(7)
        for _ in range(60):
            w = random_window(rng, 3, 2)
            a = random_series(rng, w, 3)
            b = random_series(rng, w, 3)
            result = mul(a, b)
            full = convolve(dict(a.terms), dict(b.terms))
            for g, c in result.terms:
                assert full.get(g, 0) == c
            for g, c in full.items():
                if result.window.contains(g):
                    assert result.coeff(g) == c

    def test_support_soundness(self):
        rng = random.Random(11)
        for _ in range(40):
            w = random_window(rng, 3, 2)
            a = random_series(rng, w, 3)
            b = random_series(rng, w, 3)
            result = mul(a, b)
            assert all(result.support.contains(g) for g, _ in result.terms)

    def test_associative_on_common_window(self):
        rng = random.Random(13)
        for _ in range(40):
            w = random_window(rng, 3, 2)
            a, b, c = (random_series(rng, w, 3) for _ in range(3))
            left = mul(mul(a, b), c)
            right = mul(a, mul(b, c))
            common = left.window.intersect(right.window)
            if not common.is_empty:
                assert eq_on_window(left, right, common)

    def test_commutative(self):
        rng = random.Random(17)
        for _ in range(40):
            w = random_window(rng, 3, 2)
            a = random_series(rng, w, 3)
            b = random_series(rng, w, 3)
            assert eq_on_window(mul(a, b), mul(b, a), mul(a, b).window)

    def test_distributive(self):
        rng = random.Random(19)
        for _ in range(40):
            w = random_window(rng, 3, 2)
            a = random_series(rng, w, 3)
            b = random_series(rng, w, 3)
            c = random_series(rng, w, 3)
            left = mul(a, add(b, c))
            right = add(mul(a, b), mul(a, c))
            common = left.window.intersect(right.window)
            if not common.is_empty:
                assert eq_on_window(left, right, common)

    def test_unit_element(self):
        a = poly({degree(1, 1): 4, degree(2, 0): -2})
        result = mul(a, one_series(W33))
        assert eq_on_window(result, a, result.window)


class TestMulQ:
    def test_identity_oracle(self):
        b = poly({degree(1, 2): 5, ZERO: -1})
        assert eq_on_window(mul_q(QSeries.one(), b), b, W33)

    def test_exact_on_full_window(self):
        # mul_q must stay exact out to the window ceiling, unlike mul
        geom = invert(QSeries.from_terms({ZERO: 1, degree(1): -1}))
        w = Window.of([degree(4)])
        shifted = monomial_series(degree(2), w)
        result = mul_q(geom, shifted)
        assert result.window == w
        assert [c for _, c in result.terms] == [1, 1, 1]


class TestMulQMatchesPerDegreeOracle:
    """``mul_q`` against its per-degree definition, term for term."""

    LAZY = invert(QSeries.from_terms({ZERO: 1, degree(1): -1, degree(0, 1): -2, degree(1, 1): 1}))
    POLYNOMIAL = QSeries.from_terms({ZERO: 1, degree(1): -1, degree(0, 1): -1, degree(2, 1): 3})

    def test_lazy_and_polynomial_factors_on_random_series(self):
        # random supports have lower bounds with negative components
        rng = random.Random(29)
        for _ in range(60):
            w = random_window(rng, 2, 3)
            s = random_series(rng, w, 2, max_terms=5)
            for q in (self.LAZY, self.POLYNOMIAL):
                assert mul_q(q, s) == lazy_mul_q(q, s)

    def test_window_with_two_ceilings(self):
        w = Window.of([degree(4, 1), degree(1, 3)])
        s = series_from_terms({ZERO: 2, degree(1, 1): -1, degree(3, 0): 4, degree(0, 3): 1}, w)
        assert len(w.ceiling) == 2
        for q in (self.LAZY, self.POLYNOMIAL):
            assert mul_q(q, s) == lazy_mul_q(q, s)

    def test_supports_with_nonzero_lower_bounds(self):
        ring = RingSpec.standard(2)
        xy = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])
        w = Window.of([degree(4, 3), degree(2, 4)])
        modules = [
            FreeModule.of([degree(1, 0), degree(0, 2), degree(1, 1)]),
            FreeModule.of([degree(-1, 0), degree(2, -1)]),
            ShiftedModule(xy, degree(1, 2)),
            ShiftedModule(xy, degree(-2, 1)),
        ]
        for module in modules:
            s = hilbert(module, ring, w)
            assert s.support.lower_bounds != (ZERO,)
            for q in (self.LAZY, self.POLYNOMIAL):
                assert mul_q(q, s) == lazy_mul_q(q, s)


class TestTruncate:
    def test_a_polynomial_keeps_its_terms_inside_the_window(self):
        rng = random.Random(53)
        for _ in range(40):
            w = random_window(rng, 2, 3)
            table = {random_degree(rng, 2, 0, 4): rng.choice([-2, -1, 1, 3]) for _ in range(5)}
            lazy = QSeries(lambda g: table.get(g, 0))
            assert truncate(QSeries.from_terms(table), w) == truncate(lazy, w)

    def test_a_polynomial_on_a_window_too_large_to_list(self):
        # the window below (10^6, 10^6) holds about 10^12 degrees; only the two terms are read
        far = degree(10**6)
        started = time.perf_counter()
        got = truncate(QSeries.from_terms({ZERO: 1, far: -1}), Window.of([degree(10**6, 10**6)]))
        elapsed = time.perf_counter() - started
        assert got.terms == ((ZERO, 1), (far, -1))
        assert elapsed < 0.1, f"truncate took {elapsed:.3f}s (budget 0.1s)"


class TestInvert:
    def test_geometric_series(self):
        inv = invert(QSeries.from_terms({ZERO: 1, degree(1): -1}))
        for n in range(8):
            assert inv.coeff(degree(n) if n else ZERO) == 1

    def test_identity(self):
        inv = invert(QSeries.one())
        assert inv.coeff(ZERO) == 1
        assert inv.coeff(degree(2, 1)) == 0

    def test_two_variable_geometric(self):
        # (1-t1)(1-t2) inverts to the all-ones table on the quadrant
        q = QSeries.from_terms(
            {ZERO: 1, degree(1): -1, degree(0, 1): -1, degree(1, 1): 1}
        )
        inv = invert(q)
        for a in range(4):
            for b in range(4):
                assert inv.coeff(degree(a, b)) == 1

    def test_rejects_nonunit_constant_term(self):
        with pytest.raises(NotInvertibleError):
            invert(QSeries.from_terms({ZERO: 2}))
        with pytest.raises(NotInvertibleError):
            invert(QSeries.from_terms({degree(1): 1}))

    @pytest.mark.parametrize(
        "lazy",
        [ring_hilbert(RingSpec.standard(2)), QSeries(lambda g: 1 if g == ZERO else 0)],
        ids=["ring_hilbert", "oracle"],
    )
    def test_rejects_a_series_without_a_table(self, lazy):
        # constant term 1, but only a polynomial's finite table can be inverted
        assert lazy.coeff(ZERO) == 1
        with pytest.raises(NotInvertibleError, match="only a polynomial"):
            invert(lazy)

    def test_round_trip_random(self):
        rng = random.Random(23)
        w = Window.of([degree(3, 3)])
        for _ in range(25):
            terms = {ZERO: 1}
            for _ in range(rng.randint(0, 5)):
                g = degree(rng.randint(0, 3), rng.randint(0, 3))
                if g != ZERO:
                    terms[g] = rng.choice([-2, -1, 1, 2])
            q = QSeries.from_terms(terms)
            product = mul_q(q, truncate(invert(q), w))
            assert eq_on_window(product, one_series(w), w)


class TestInvertMatchesGeometricSum:
    """``truncate(invert(q), w)`` against the sum of the powers of 1 - q, term for term."""

    @pytest.mark.parametrize("ceilings", [1, 2])
    def test_random_polynomials(self, ceilings):
        rng = random.Random(31 + ceilings)
        for _ in range(40):
            coords = rng.randint(1, 3)
            window = Window.of([])
            while len(window.ceiling) < ceilings:
                window = Window.of(random_degree(rng, coords, 0, 4) for _ in range(ceilings))
            terms = {ZERO: 1}
            for _ in range(rng.randint(0, 5)):
                g = random_degree(rng, coords, 0, 3)
                if g != ZERO:
                    terms[g] = rng.choice([-2, -1, 1, 2])
            got = truncate(invert(QSeries.from_terms(terms)), window)
            assert dict(got.terms) == inverse_by_geometric_sum(terms, window)


class TestEqOnWindow:
    def test_reflexive_and_perturbed(self):
        a = poly({ZERO: 1, degree(2, 2): 3})
        assert eq_on_window(a, a, W33)
        bumped = add(a, monomial_series(degree(1, 1), W33))
        assert not eq_on_window(a, bumped, W33)

    def test_window_exceeding_valid_region_raises(self):
        a = series_from_terms({ZERO: 1}, Window.of([degree(1, 1)]))
        with pytest.raises(WindowError):
            eq_on_window(a, a, W33)

    def test_terms_outside_the_comparison_window_are_ignored(self):
        # KClass equality compares on the common window of two classes
        a = poly({ZERO: 1, degree(1, 1): 2})
        b = poly({ZERO: 1, degree(1, 1): 2, degree(3, 3): 5})
        small = Window.of([degree(2, 2)])
        assert eq_on_window(a, b, small)
        assert not eq_on_window(a, b, W33)

    def test_two_truncations_agree(self):
        q = invert(QSeries.from_terms({ZERO: 1, degree(1, 1): -1}))
        small = Window.of([degree(2, 2)])
        assert eq_on_window(truncate(q, W33), truncate(q, small), small)
