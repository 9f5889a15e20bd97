import itertools
import json
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdfkalc import (
    RING_MODULE,
    MonomialIdeal,
    ZERO,
    Degree,
    DirectSum,
    FreeModule,
    KClass,
    Monomial,
    MonomialQuotient,
    RingSpec,
    ShiftedModule,
    Window,
    class_of,
    degree,
    free_from_series,
    kseries,
    leq_q,
    monomial_series,
    one_series,
    product,
    serre_product,
    series_from_terms,
    unit,
    variable_quotient,
)
from bdfkalc import cli, homology, modules
from oracles import (
    convolve,
    essential_set,
    flat_serre_series,
    grothendieck_series,
    schubert_generators,
    schubert_ring,
    schubert_window,
    taylor_kpolynomial,
)

KXY = RingSpec.standard(2)
W33 = Window.of([degree(3, 3)])
XY = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])


def kclass_from_terms(terms, window=W33):
    return KClass(series_from_terms(terms, window), "literal")


class TestClassOf:
    def test_ring_is_the_unit(self):
        assert class_of(RING_MODULE, KXY, W33) == KClass(one_series(W33))

    def test_shifted_ring_is_a_monomial(self):
        g = degree(2, 1)
        assert class_of(FreeModule.of([g]), KXY, W33) == kclass_from_terms({g: 1})

    def test_additive_over_direct_sums(self):
        m = XY
        n = FreeModule.of([unit(1)])
        both = class_of(DirectSum.of([m, n]), KXY, W33)
        expected_terms = {}
        for part in (class_of(m, KXY, W33), class_of(n, KXY, W33)):
            for g, c in part.series.terms:
                expected_terms[g] = expected_terms.get(g, 0) + c
        assert both == kclass_from_terms(expected_terms)


class TestProduct:
    def test_monomials_multiply(self):
        g, h = degree(1, 0), degree(0, 2)
        result = product(
            kclass_from_terms({g: 1}), kclass_from_terms({h: 1})
        )
        assert result == KClass(monomial_series(g + h, result.series.window))

    def test_unit_law(self):
        a = class_of(XY, KXY, W33)
        assert product(a, KClass(one_series(W33))) == a

    def test_koszul_relation_for_the_residue_field(self):
        # (1-t1)(1-t2) is the class of k[x,y]/(x,y)
        factor1 = kclass_from_terms({ZERO: 1, unit(1): -1})
        factor2 = kclass_from_terms({ZERO: 1, unit(2): -1})
        k = class_of(variable_quotient(KXY, (1, 2)), KXY, W33)
        assert product(factor1, factor2) == k


class TestSerreProduct:
    def test_transverse_quotients(self):
        rx = variable_quotient(KXY, (1,))
        ry = variable_quotient(KXY, (2,))
        result = serre_product(rx, ry, KXY, W33)
        expected = kclass_from_terms(
            {ZERO: 1, unit(1): -1, unit(2): -1, degree(1, 1): 1}
        )
        assert result == expected

    def test_self_intersection_squares_the_class(self):
        # hand expansion: (1 - t1)^2 = 1 - 2 t1 + t1^2
        rx = variable_quotient(KXY, (1,))
        result = serre_product(rx, rx, KXY, W33)
        assert result == kclass_from_terms({ZERO: 1, unit(1): -2, degree(2, 0): 1})

    def test_flat_unit(self):
        for n in (XY, FreeModule.of([unit(2)]), variable_quotient(KXY, (1, 2))):
            result = serre_product(RING_MODULE, n, KXY, W33)
            assert result == class_of(n, KXY, W33)

    def test_free_left_factor(self):
        left = FreeModule.of([unit(1), unit(1)])
        result = serre_product(left, XY, KXY, W33)
        expected = product(class_of(left, KXY, W33), class_of(XY, KXY, W33))
        assert result == expected

    def test_shifted_free_left_factor(self):
        left = ShiftedModule(FreeModule.of([ZERO, unit(2)]), unit(1))
        result = serre_product(left, RING_MODULE, KXY, W33)
        assert result == class_of(left, KXY, W33)

    def test_agreement_with_the_ring_product(self):
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations((1, 2), n) for n in range(3)
            )
        )
        for A, B in itertools.product(subsets, repeat=2):
            m, n = variable_quotient(KXY, A), variable_quotient(KXY, B)
            lhs = serre_product(m, n, KXY, W33)
            rhs = product(class_of(m, KXY, W33), class_of(n, KXY, W33))
            assert lhs == rhs, (A, B)

    def test_free_left_factors_match_the_flat_oracle(self):
        # the same window, support and terms as the tensor product's Hilbert series
        ring = RingSpec.standard(3)
        window = Window.of([degree(2, 2, 2)])
        lefts = [
            (FreeModule.of([ZERO, unit(2)]), [ZERO, unit(2)]),
            (ShiftedModule(FreeModule.of([unit(1)]), degree(0, 1, 1)), [degree(1, 1, 1)]),
            (
                DirectSum.of(
                    [FreeModule.of([unit(3)]), ShiftedModule(RING_MODULE, degree(1, 0, 1)), FreeModule.of([ZERO, ZERO])]
                ),
                [unit(3), degree(1, 0, 1), ZERO, ZERO],
            ),
        ]
        quotient = MonomialQuotient.of([Monomial(((1, 1), (2, 1))), Monomial(((2, 2), (3, 1)))])
        rights = [
            quotient,
            MonomialIdeal.of([Monomial(((1, 2),)), Monomial(((2, 1), (3, 1)))]),
            FreeModule.of([degree(-1, 0, 0), unit(2)]),
            DirectSum.of([variable_quotient(ring, (2,)), ShiftedModule(quotient, unit(3))]),
        ]
        for left, shifts in lefts:
            for right in rights:
                expected = flat_serre_series(shifts, right, ring, window)
                for characteristic in (0, 3):
                    got = serre_product(left, right, ring, window, characteristic).series
                    assert (got.window, got.support, got.terms) == (
                        expected.window,
                        expected.support,
                        expected.terms,
                    ), (left, right, characteristic)

    def test_shifted_and_summed_quotients_match_the_ring_product(self):
        ring = RingSpec.standard(3)
        window = Window.of([degree(3, 3, 3)])
        rx1, r = variable_quotient(ring, (1,)), RING_MODULE
        lefts = [
            ShiftedModule(rx1, unit(2)),
            DirectSum.of([rx1, r]),
            DirectSum.of(
                [
                    variable_quotient(ring, (1, 2)),
                    ShiftedModule(variable_quotient(ring, (3,)), degree(1, 0, 1)),
                    FreeModule.of([unit(2)]),
                ]
            ),
        ]
        rights = [
            MonomialQuotient.of([Monomial(((1, 1), (2, 1))), Monomial(((2, 2), (3, 1)))]),
            MonomialIdeal.of([Monomial(((1, 2),)), Monomial(((2, 1), (3, 1)))]),
            FreeModule.of([degree(-1, 0, 0), unit(3)]),
            DirectSum.of([variable_quotient(ring, (2,)), ShiftedModule(rx1, unit(3))]),
        ]
        for left in lefts:
            for right in rights:
                expected = product(class_of(left, ring, window), class_of(right, ring, window))
                for characteristic in (0, 2):
                    result = serre_product(left, right, ring, window, characteristic)
                    assert result == expected, (left, right, characteristic)

    def test_unsupported_left_factor(self):
        # R/(x1*x2) on the left is read through its graded pieces
        assert serre_product(XY, RING_MODULE, KXY, W33) == class_of(XY, KXY, W33)


# (ring, number of grading components, right factors): unit degrees, and two variables sharing a degree
SERRE_RINGS = [
    (
        RingSpec.standard(2),
        2,
        [XY, MonomialIdeal.of([Monomial(((1, 2),)), Monomial(((2, 1),))]), FreeModule.of([degree(-1, 0)])],
    ),
    (
        RingSpec.standard(3),
        3,
        [
            MonomialQuotient.of([Monomial(((1, 1), (2, 1))), Monomial(((3, 2),))]),
            DirectSum.of([variable_quotient(RingSpec.standard(3), (2,)), ShiftedModule(RING_MODULE, unit(3))]),
        ],
    ),
    (RingSpec.matrix_ring([2, 1]), 2, [MonomialQuotient.of([Monomial(((1, 1), (3, 1)))]), RING_MODULE]),
]


def _shifts(width):
    return st.lists(st.integers(-1, 1), min_size=width, max_size=width).map(lambda c: degree(*c))


@st.composite
def koszul_lefts(draw, ring, width, depth=2):
    """Free modules, shifts, sums and quotients by variable subsets: the trees a Koszul complex resolves."""
    kind = draw(st.sampled_from(["free", "quotient"] + (["shift", "sum"] if depth else [])))
    if kind == "free":
        return FreeModule.of(draw(st.lists(_shifts(width), max_size=2)))
    if kind == "shift":
        return ShiftedModule(draw(koszul_lefts(ring, width, depth - 1)), draw(_shifts(width)))
    if kind == "sum":
        return DirectSum.of(draw(st.lists(koszul_lefts(ring, width, depth - 1), min_size=1, max_size=2)))
    return variable_quotient(ring, draw(st.sets(st.integers(1, len(ring.variables)))))


@st.composite
def generated_leaves(draw, ring):
    """A quotient or an ideal by up to three reduced monomials, with exponents up to 2."""
    exponents = st.dictionaries(st.integers(1, len(ring.variables)), st.integers(1, 2), min_size=1, max_size=2)
    drawn = {Degree.of(e) for e in draw(st.lists(exponents, max_size=3))}
    gens = [m for m in drawn if not any(o != m and leq_q(o, m) for o in drawn)]
    return draw(st.sampled_from([MonomialQuotient, MonomialIdeal])).of(gens)


@st.composite
def nonkoszul_leaves(draw, ring):
    """A monomial ideal, or a quotient with a generator of total degree at least 2."""
    leaf = draw(generated_leaves(ring))
    assume(type(leaf) is MonomialIdeal or any(gen.total() > 1 for gen in leaf.gens))
    return leaf


@st.composite
def lefts_holding(draw, ring, width, leaf, depth=2):
    """A left factor tree with ``leaf`` somewhere in it and every other leaf from ``koszul_lefts``."""
    kind = draw(st.sampled_from(["leaf", "shift", "sum"] if depth else ["leaf"]))
    if kind == "leaf":
        return leaf
    inner = draw(lefts_holding(ring, width, leaf, depth - 1))
    if kind == "shift":
        return ShiftedModule(inner, draw(_shifts(width)))
    parts = draw(st.lists(koszul_lefts(ring, width, depth - 1), max_size=2))
    parts.insert(draw(st.integers(0, len(parts))), inner)
    return DirectSum.of(parts)


@st.composite
def serre_cases(draw, koszul=True):
    ring, width, rights = draw(st.sampled_from(SERRE_RINGS))
    window = Window.of([draw(st.lists(st.integers(0, 2), min_size=width, max_size=width).map(lambda c: degree(*c)))])
    if koszul:
        left = draw(koszul_lefts(ring, width))
    else:
        left = draw(lefts_holding(ring, width, draw(nonkoszul_leaves(ring))))
    return ring, left, draw(st.sampled_from(rights)), window


@st.composite
def module_trees(draw, ring, width, depth=2):
    """Any tree of library nodes: free modules, shifts and sums over quotients and ideals."""
    kind = draw(st.sampled_from(["free", "leaf"] + (["shift", "sum"] if depth else [])))
    if kind == "free":
        return FreeModule.of(draw(st.lists(_shifts(width), max_size=2)))
    if kind == "shift":
        return ShiftedModule(draw(module_trees(ring, width, depth - 1)), draw(_shifts(width)))
    if kind == "sum":
        return DirectSum.of(draw(st.lists(module_trees(ring, width, depth - 1), min_size=1, max_size=2)))
    return draw(generated_leaves(ring))


@st.composite
def exact_window_cases(draw):
    ring, width, _ = draw(st.sampled_from(SERRE_RINGS))
    ceilings = st.lists(st.integers(0, 2), min_size=width, max_size=width).map(lambda c: degree(*c))
    window = Window.of(draw(st.lists(ceilings, min_size=1, max_size=2)))
    return ring, draw(module_trees(ring, width)), draw(module_trees(ring, width)), window


class TestSerreOnTheWholeWindow:
    """The Serre product against the Taylor K-polynomials, on every degree of the window.

    ``KClass`` equality compares only on the conservative window of
    ``product``, which can miss a term the product lost near the window's
    top; here every coefficient of the window is compared.
    """

    @settings(max_examples=150, deadline=None)
    @given(exact_window_cases())
    def test_every_coefficient_is_the_product_of_the_taylor_kpolynomials(self, case):
        ring, left, right, window = case
        k_left, k_right = taylor_kpolynomial(left, ring), taylor_kpolynomial(right, ring)
        for module, k in ((left, k_left), (right, k_right)):
            assert dict(kseries(module, ring, window).terms) == {g: c for g, c in k.items() if window.contains(g)}
        expected = {g: c for g, c in convolve(k_left, k_right).items() if window.contains(g)}
        for characteristic in (0, 2, 32003):
            got = serre_product(left, right, ring, window, characteristic).series
            assert dict(got.terms) == expected, (left, right, characteristic)


class TestSerreDomain:
    """Every left factor agrees with the ring product: Koszul trees, ideals, nonlinear quotients and subclasses."""

    @settings(max_examples=300, deadline=None)
    @given(serre_cases())
    def test_resolvable_left_trees_match_the_ring_product(self, case):
        ring, left, right, window = case
        expected = product(class_of(left, ring, window), class_of(right, ring, window))
        for characteristic in (0, 2):
            assert serre_product(left, right, ring, window, characteristic) == expected, (left, right)

    def test_a_quotient_subclass_is_read_through_its_pieces(self):
        class Dead(MonomialQuotient):
            """R/(x1) as a tree node, but every variable kills every label."""

            def times(self, m, pos):
                return None

        # on the left only the graded pieces are read, as ``class_of`` reads them
        for left, right in [
            (Dead((unit(1),)), RING_MODULE),
            (DirectSum.of([RING_MODULE, ShiftedModule(Dead((unit(1),)), unit(2))]), XY),
        ]:
            expected = product(class_of(left, KXY, W33), class_of(right, KXY, W33))
            assert serre_product(left, right, KXY, W33) == expected

    @settings(max_examples=300, deadline=None)
    @given(serre_cases(koszul=False))
    def test_ideals_and_nonlinear_quotients_match_the_ring_product(self, case):
        ring, left, right, window = case
        expected = product(class_of(left, ring, window), class_of(right, ring, window))
        for characteristic in (0, 2):
            assert serre_product(left, right, ring, window, characteristic) == expected, (left, right)


class TestFreeFromSeries:
    def test_small_example(self):
        a = kclass_from_terms({ZERO: 1, unit(1): 2})
        assert free_from_series(a) == FreeModule.of([ZERO, unit(1), unit(1)])

    def test_zero_class(self):
        assert free_from_series(KClass(series_from_terms({}, W33))) == FreeModule.of([])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            free_from_series(kclass_from_terms({unit(1): -1}))

    def test_round_trip_both_ways(self):
        rng = random.Random(41)
        spots = [degree(a, b) for a in range(4) for b in range(4)]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                terms[rng.choice(spots)] = rng.randint(1, 3)
            a = kclass_from_terms(terms)
            rebuilt = class_of(free_from_series(a), KXY, W33)
            assert rebuilt == a

            shifts = [rng.choice(spots) for _ in range(rng.randint(0, 5))]
            free = FreeModule.of(shifts)
            assert free_from_series(class_of(free, KXY, W33)) == free


class TestKClassEquality:
    def test_equality_is_windowed(self):
        wide = KClass(series_from_terms({ZERO: 1}, Window.of([degree(5, 5)])))
        narrow = KClass(series_from_terms({ZERO: 1}, Window.of([degree(1, 1)])))
        assert wide == narrow

    def test_provenance_does_not_affect_equality(self):
        a = KClass(one_series(W33), "one route")
        b = KClass(one_series(W33), "another route")
        assert a == b

    def test_json_carries_provenance(self):
        cls = class_of(XY, KXY, W33)
        assert cls.provenance == "quotient(x1*x2)"
        assert cls.series.to_json()["coeffs"][0] == [[], 1]


K3 = RingSpec.standard(3)
SQUARE_AND_MIXED = [Monomial(((1, 2),)), Monomial(((2, 1), (3, 1)))]


class TestDescribe:
    """The printed form of each module node, which provenance carries to stdout.

    Generators print in graded-lex order, so x2*x3 comes before x1^2.
    """

    @pytest.mark.parametrize(
        "module, expected",
        [
            (MonomialQuotient.of(SQUARE_AND_MIXED), "quotient(x2*x3, x1^2)"),
            (MonomialIdeal.of(SQUARE_AND_MIXED), "ideal(x2*x3, x1^2)"),
            (MonomialIdeal.of([Monomial()]), "ideal(1)"),
            (FreeModule.of([unit(1), ZERO]), "free(0, e1)"),
            (
                ShiftedModule(MonomialQuotient.of(SQUARE_AND_MIXED), degree(1, 0, 2)),
                "shift(quotient(x2*x3, x1^2), e1+2e3)",
            ),
            (
                DirectSum.of([MonomialIdeal.of([Monomial(((3, 3),))]), FreeModule.of([degree(0, -1, 0)])]),
                "sum(ideal(x3^3), free(-e2))",
            ),
            (MonomialQuotient.of([]), "ring"),
            (FreeModule.of([]), "0"),
        ],
    )
    def test_describe(self, module, expected):
        assert module.describe(K3) == expected

    def test_serre_provenance_names_both_factors(self):
        left, right = FreeModule.of([ZERO, unit(1)]), MonomialQuotient.of(SQUARE_AND_MIXED)
        result = serre_product(left, right, K3, Window.of([degree(1, 1, 1)]))
        assert result.provenance == "serre(free(0, e1), quotient(x2*x3, x1^2))"


class TestMatrixSchubert:
    """K-series of R/J_w are the double Grothendieck polynomials (Knutson-Miller, 2005)."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_kseries_of_each_antidiagonal_quotient_is_its_grothendieck_polynomial(self, n):
        ring, window = schubert_ring(n), schubert_window(n)
        for w in itertools.permutations(range(1, n + 1)):
            module = MonomialQuotient.of(schubert_generators(w, n))
            assert dict(class_of(module, ring, window).series.terms) == grothendieck_series(w), w

    def test_padding_to_four_by_four_changes_nothing(self):
        # the infinite-matrix limit: w and w x 1 have the same K-series, also on the larger window
        ring, window = schubert_ring(4), schubert_window(4)
        for w in itertools.permutations(range(1, 4)):
            padded = MonomialQuotient.of(schubert_generators(w + (4,), 4))
            assert grothendieck_series(w + (4,)) == grothendieck_series(w)
            assert dict(class_of(padded, ring, window).series.terms) == grothendieck_series(w), w

    def test_oracle_on_hand_examples(self):
        # J_132 is the antidiagonal z12 z21 of the northwest 2 x 2 minor; J_213 is z11
        assert essential_set((1, 3, 2)) == [(2, 2)]
        assert schubert_generators((1, 3, 2), 3) == [Degree.of({2: 1, 4: 1})]
        assert essential_set((2, 1, 3)) == [(1, 1)]
        assert schubert_generators((2, 1, 3), 3) == [Degree.of({1: 1})]
        assert grothendieck_series((2, 1)) == {ZERO: 1, degree(1, 1): -1}
        assert grothendieck_series((1, 2)) == {ZERO: 1}


class TestSchubertSerreBudget:
    """``serre`` of R/J_w with itself on the 4 x 4 matrix Schubert ring, mod 32003, through the CLI."""

    @pytest.mark.parametrize("w", [(1, 4, 3, 2), (4, 3, 2, 1), (2, 1, 4, 3)])
    def test_the_square_of_the_grothendieck_polynomial(self, w):
        ring, window = schubert_ring(4), schubert_window(4)
        quotient = {"node": "quotient", "gens": [gen.to_json() for gen in schubert_generators(w, 4)]}
        spec = {
            "ring": {"variables": [{"id": v.name, "degree": v.degree.to_json()} for v in ring.variables]},
            "module": quotient,
            "module2": quotient,
            "window": [u.to_json() for u in window.ceiling],
        }
        caches = (
            modules.monomials_of_degree,
            modules._graded_piece,
            modules.ring_hilbert,
            modules.ring_hilbert_inverse,
            homology._koszul_piece,
        )
        for cached in caches:
            cached.cache_clear()
        started = time.perf_counter()
        output = cli.run_job(cli.parse_spec(json.dumps(spec), command="serre", characteristic=32003))
        elapsed = time.perf_counter() - started
        # 0.15-0.20 s in process
        assert elapsed < 2.0, f"serre took {elapsed:.2f}s (budget 2s)"
        result = json.loads(output)
        assert result["matches_tensor_product"] is True
        square = convolve(grothendieck_series(w), grothendieck_series(w))
        got = {Degree(tuple(map(tuple, g))): c for g, c in result["coeffs"]}
        assert got == {g: c for g, c in square.items() if window.contains(g)}
