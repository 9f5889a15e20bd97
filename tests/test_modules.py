import ast
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfkalc import (
    RING_MODULE,
    ZERO,
    Degree,
    DirectSum,
    FreeModule,
    KoszulTensorComplex,
    Monomial,
    MonomialIdeal,
    MonomialQuotient,
    RingSpec,
    ShiftedModule,
    Variable,
    Window,
    add,
    betti_table,
    candidate_degrees,
    degree,
    eq_on_window,
    graded_piece,
    hilbert,
    homology_profile,
    invert,
    koszul_differential,
    koszul_index_bound,
    kseries,
    leq_q,
    monomial_series,
    monomials_of_degree,
    mul,
    mul_q,
    ring_hilbert,
    ring_hilbert_inverse,
    serre_product,
    series_from_terms,
    shifted_leaves,
    tor_k,
    truncate,
    unit,
    var_action,
    variable_quotient,
)
from oracles import (
    count_monomials,
    dense,
    exponent_vectors,
    reference_basis,
    reference_describe,
    reference_koszul_rows,
    reference_leaf_paths,
    reference_lower_bounds,
    reference_ring_problems,
    ring_inverse_by_subsets,
    schubert_ring,
)
from bdfkalc import cli, homology, modules
from bdfkalc.degrees import FULL_Q
from bdfkalc.modules import RingValidationError
from bdfkalc.linalg import matmul, sparse_rows

KXY = RingSpec.standard(2)
W44 = Window.of([degree(4, 4)])
XY = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])
XY_IDEAL = MonomialIdeal.of([Monomial(((1, 1), (2, 1)))])

# 1-4 variables, each of a nonzero degree with up to 3 components in 0..2
small_rings = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3).filter(any),
    min_size=1,
    max_size=4,
).map(
    lambda degs: RingSpec.of(
        (f"x{k}", Degree.of(enumerate(d, start=1))) for k, d in enumerate(degs, start=1)
    )
)

# 0-4 variables named from three letters, so names repeat, each of a degree that may be 0, mixed or negative
variable_pairs = st.lists(
    st.tuples(st.sampled_from("abc"), st.dictionaries(st.integers(1, 3), st.integers(-1, 2), max_size=3).map(Degree.of)),
    max_size=4,
)


class TestValidateRing:
    """A ring is valid by construction: ``RingSpec`` refuses a grading that is not pointed and connected."""

    def test_matrix_ring_is_valid(self):
        ring = RingSpec.matrix_ring([2, 3, 1])
        assert len(ring.variables) == 6
        assert [v.name for v in ring.variables][:3] == ["x[1,1]", "x[2,1]", "x[1,2]"]

    def test_degree_zero_variable_breaks_connectedness(self):
        with pytest.raises(RingValidationError, match="variable a has degree 0"):
            RingSpec.of([("a", ZERO)])

    def test_mixed_sign_degree_is_not_pointed(self):
        with pytest.raises(RingValidationError, match="variable a has degree e1-e2 outside"):
            RingSpec.of([("a", degree(1, -1))])

    def test_duplicate_names_flagged(self):
        with pytest.raises(RingValidationError, match="variable name a appears 2 times"):
            RingSpec.of([("a", unit(1)), ("a", unit(2))])

    @settings(max_examples=300, deadline=None)
    @given(variable_pairs)
    def test_refused_exactly_when_the_reference_finds_a_problem(self, pairs):
        problems = reference_ring_problems(pairs)
        if problems:
            with pytest.raises(RingValidationError) as info:
                RingSpec.of(pairs)
            assert str(info.value) == "; ".join(problems)
        else:
            assert RingSpec.of(pairs).variables == tuple(Variable(name, deg) for name, deg in pairs)

    def test_only_the_ring_constructor_refuses_a_ring(self):
        """``RingValidationError`` is raised in ``RingSpec.__init__`` alone, and no separate check is left."""
        raisers, named = set(), set()
        for path in sorted(Path(modules.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            raisers |= {f"{path.stem}.{scope}" for scope in _raisers_of(ast.parse(text), "RingValidationError")}
            named |= {name for name in ("validate_ring", "require_valid", "RingReport") if name in text}
        assert raisers == {"modules.RingSpec.__init__"}
        assert not named


class TestRingHilbert:
    def test_two_variables_single_monomial_per_degree(self):
        h = ring_hilbert(KXY)
        for a in range(4):
            for b in range(4):
                assert h.coeff(degree(a, b)) == 1

    def test_constant_term_is_one(self):
        assert ring_hilbert(RingSpec.matrix_ring([2, 3, 1])).coeff(ZERO) == 1

    def test_matrix_ring_matches_stars_and_bars(self):
        columns = [2, 3, 1]
        ring = RingSpec.matrix_ring(columns)
        h = ring_hilbert(ring)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    expected = 1
                    for j, n in enumerate(columns):
                        alpha = (a, b, c)[j]
                        expected *= math.comb(alpha + n - 1, n - 1)
                    assert h.coeff(degree(a, b, c)) == expected

    def test_matrix_ring_matches_brute_enumeration(self):
        ring = RingSpec.matrix_ring([2, 2])
        var_degrees = [(v.degree.coeff(1), v.degree.coeff(2)) for v in ring.variables]
        for a in range(4):
            for b in range(4):
                assert ring_hilbert(ring).coeff(degree(a, b)) == count_monomials(
                    var_degrees, (a, b)
                )


class TestRingHilbertInverse:
    @given(small_rings)
    @settings(max_examples=40, deadline=None)
    def test_matches_inverting_the_hilbert_series(self, ring):
        # from the polynomial's side: only a finite table can be inverted
        window = Window.of([degree(2, 2, 2)])
        inverse = invert(ring_hilbert_inverse(ring, window))
        assert truncate(inverse, window) == truncate(ring_hilbert(ring), window)

    @given(small_rings, st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_full_product_on_a_reach(self, ring, ceilings):
        # and is zero just outside it, where the full product may not be
        reach = Window.of(degree(*c) for c in ceilings)
        got = ring_hilbert_inverse(ring, reach)
        full = ring_inverse_by_subsets(ring)
        for g in candidate_degrees(FULL_Q, reach.translate(degree(1, 1, 1))):
            assert got.coeff(g) == (full.get(g, 0) if reach.contains(g) else 0), g


class TestGradedPiece:
    def test_shifted_ring_at_its_shift(self):
        piece = graded_piece(FreeModule.of([unit(1)]), KXY, unit(1))
        assert piece.dimension == 1
        assert piece.basis[0] == (0, Monomial())

    def test_quotient_by_xy_kills_mixed_degrees(self):
        # independent oracle: survivors are the pure powers
        for a in range(4):
            for b in range(4):
                expected = 1 if a == 0 or b == 0 else 0
                assert graded_piece(XY, KXY, degree(a, b)).dimension == expected

    def test_ideal_and_quotient_split_the_ring(self):
        g = degree(1, 1)
        assert graded_piece(XY_IDEAL, KXY, g).dimension == 1
        assert graded_piece(XY, KXY, g).dimension == 0
        assert graded_piece(RING_MODULE, KXY, g).dimension == 1

    def test_dimension_additivity_random_ideals(self):
        rng = random.Random(3)
        for _ in range(30):
            gens = []
            for _ in range(rng.randint(1, 4)):
                g = Monomial.of(
                    [(1, rng.randint(0, 3)), (2, rng.randint(0, 3))]
                )
                if g.entries:
                    gens.append(g)
            reduced = [
                g
                for g in set(gens)
                if not any(o != g and leq_q(o, g) for o in set(gens))
            ]
            if not reduced:
                continue
            ideal = MonomialIdeal.of(reduced)
            quotient = MonomialQuotient.of(reduced)
            for a in range(4):
                for b in range(4):
                    g = degree(a, b)
                    total = (
                        graded_piece(ideal, KXY, g).dimension
                        + graded_piece(quotient, KXY, g).dimension
                    )
                    assert total == graded_piece(RING_MODULE, KXY, g).dimension

    def test_direct_sum_concatenates(self):
        m = DirectSum.of([RING_MODULE, FreeModule.of([unit(1)])])
        piece = graded_piece(m, KXY, unit(1))
        assert piece.dimension == 2
        assert {leaf for leaf, _ in piece.basis} == {0, 1}

    def test_shift_moves_the_piece(self):
        shifted = ShiftedModule(XY, degree(1, 1))
        for a in range(3):
            for b in range(3):
                assert (
                    graded_piece(shifted, KXY, degree(a + 1, b + 1)).dimension
                    == graded_piece(XY, KXY, degree(a, b)).dimension
                )

    def test_unreduced_generators_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.of([Monomial(((1, 1),)), Monomial(((1, 2),))])

    @pytest.mark.parametrize("build", [MonomialIdeal.of, MonomialQuotient.of])
    @pytest.mark.parametrize("bad", [Degree(((1, -1),)), Degree(((1, 1), (2, -2)))])
    def test_generators_need_positive_exponents(self, build, bad):
        with pytest.raises(ValueError, match="position .* must be positive"):
            build([Monomial(((3, 1),)), bad])


monomials = st.dictionaries(st.integers(1, 6), st.integers(1, 4), max_size=4).map(
    lambda exps: Monomial(tuple(sorted(exps.items())))
)


class TestMonomialProducts:
    @given(monomials, st.integers(1, 7))
    def test_times_bumps_one_exponent(self, m, pos):
        assert m + unit(pos) == Monomial.of(m.entries + ((pos, 1),))

    def test_quotient_product_matches_checking_every_generator(self):
        rng = random.Random(41)
        ring = RingSpec.standard(4)
        for _ in range(40):
            gens = {
                Monomial.of((rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            }
            quotient = MonomialQuotient.of(
                g for g in gens if not any(o != g and leq_q(o, g) for o in gens)
            )
            for g in candidate_degrees(FULL_Q, Window.of([degree(2, 1, 2, 1)])):
                for label in graded_piece(quotient, ring, g).basis:
                    for pos in range(1, 5):
                        product = Monomial.of(label[1].entries + ((pos, 1),))
                        dies = any(leq_q(gen, product) for gen in quotient.gens)
                        expected = None if dies else product
                        assert quotient.times(label[1], pos) == expected

    def test_each_quotient_keeps_its_own_products(self):
        # R/(x1^2) and R/(x1x2) on k[x1,x2] share the label x1 but not its products
        square = MonomialQuotient.of([Monomial(((1, 2),))])
        mixed = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])
        x1 = Monomial(((1, 1),))
        for _ in range(2):
            assert square.times(x1, 1) is None
            assert square.times(x1, 2) == Monomial(((1, 1), (2, 1)))
            assert mixed.times(x1, 1) == Monomial(((1, 2),))
            assert mixed.times(x1, 2) is None

    def test_a_second_parse_starts_with_empty_memos(self):
        text = json.dumps(
            {
                "ring": {"variables": [{"id": "x1", "degree": [[1, 1]]}, {"id": "x2", "degree": [[2, 1]]}]},
                "module": {"node": "quotient", "gens": [[[1, 2]]]},
                "window": [[[1, 2], [2, 2]]],
            }
        )
        homology._koszul_piece.cache_clear()
        modules._graded_piece.cache_clear()
        first = cli.parse_spec(text, command="koszul-verify")
        cli.run_job(first)
        assert "_gens_by_variable" in vars(first.module)
        second = cli.parse_spec(text, command="koszul-verify")
        assert (second.module, second.ring) == (first.module, first.ring)
        assert "_gens_by_variable" not in vars(second.module)


class TestVarAction:
    def test_inclusion_of_x_at_origin(self):
        assert var_action(RING_MODULE, KXY, "x1", ZERO) == sparse_rows([[1]])

    def test_quotient_kills_the_relation(self):
        # y * x = xy = 0 in k[x,y]/(xy): target piece at (1,1) is empty
        matrix = var_action(XY, KXY, "x2", degree(1, 0))
        assert matrix == []

    def test_actions_commute(self):
        rng = random.Random(5)
        modules = [RING_MODULE, XY, XY_IDEAL, FreeModule.of([unit(1), degree(0, 1)])]

        def action(module, name, h):
            return dense(var_action(module, KXY, name, h), graded_piece(module, KXY, h).dimension)

        for module in modules:
            for _ in range(10):
                g = degree(rng.randint(0, 2), rng.randint(0, 2))
                xy_path = matmul(action(module, "x2", g + unit(1)), action(module, "x1", g))
                yx_path = matmul(action(module, "x1", g + unit(2)), action(module, "x2", g))
                assert xy_path == yx_path


class TestHilbert:
    def test_free_sum_identity(self):
        # H(R + R(-e1)) = H(R) * (1 + t1)
        free = FreeModule.of([ZERO, unit(1)])
        lhs = hilbert(free, KXY, W44)
        factor = series_from_terms({ZERO: 1, unit(1): 1}, W44)
        rhs = mul(truncate(ring_hilbert(KXY), W44), factor)
        assert eq_on_window(lhs, rhs, rhs.window)

    def test_ideal_plus_quotient_is_ring(self):
        total = add(hilbert(XY_IDEAL, KXY, W44), hilbert(XY, KXY, W44))
        assert eq_on_window(total, truncate(ring_hilbert(KXY), W44), W44)

    def test_zero_module(self):
        assert hilbert(FreeModule.of([]), KXY, W44).is_zero

    def test_shift_identity(self):
        g = degree(1, 2)
        lhs = hilbert(ShiftedModule(XY, g), KXY, W44)
        rhs = mul(monomial_series(g, W44), hilbert(XY, KXY, W44))
        assert eq_on_window(lhs, rhs, rhs.window)


class TestKSeries:
    def test_shifted_ring_is_a_monomial(self):
        g = degree(2, 1)
        result = kseries(FreeModule.of([g]), KXY, W44)
        assert eq_on_window(result, monomial_series(g, W44), W44)

    def test_free_module_multiplicities(self):
        shifts = [ZERO, unit(1), unit(1), degree(2, 2)]
        result = kseries(FreeModule.of(shifts), KXY, W44)
        expected = series_from_terms({ZERO: 1, unit(1): 2, degree(2, 2): 1}, W44)
        assert eq_on_window(result, expected, W44)

    def test_quotient_by_xy_via_convolution_oracle(self):
        from oracles import convolve

        # K = H(R/(xy)) * (1-t1)(1-t2), assembled independently
        h_table = {g: c for g, c in hilbert(XY, KXY, W44).terms}
        factor = {
            ZERO: 1,
            unit(1): -1,
            unit(2): -1,
            degree(1, 1): 1,
        }
        expected = convolve(h_table, factor)
        got = kseries(XY, KXY, W44)
        for g, c in got.terms:
            assert expected.get(g, 0) == c
        assert expected[ZERO] == 1 and expected[degree(1, 1)] == -1

    def test_equal_shift_multisets_iff_equal_series(self):
        a = FreeModule.of([unit(1), unit(2)])
        b = FreeModule.of([unit(2), unit(1)])
        c = FreeModule.of([unit(1), unit(1)])
        assert kseries(a, KXY, W44) == kseries(b, KXY, W44)
        assert not eq_on_window(
            kseries(a, KXY, W44), kseries(c, KXY, W44), W44
        )

    def test_hilbert_recovers_from_kseries(self):
        # H(R) * K(M) = H(M): the defining identity read backwards
        k = kseries(XY, KXY, W44)
        recovered = mul_q(ring_hilbert(KXY), k)
        assert eq_on_window(recovered, hilbert(XY, KXY, W44), W44)

    def test_division_by_ring_series_round_trips(self):
        from bdfkalc import reach, ring_hilbert_inverse

        rng = random.Random(47)
        spots = [degree(a, b) for a in range(5) for b in range(5)]
        for _ in range(15):
            terms = {rng.choice(spots): rng.choice([-2, -1, 1, 2]) for _ in range(4)}
            s = series_from_terms(terms, W44)
            times_h = mul_q(ring_hilbert(KXY), s)
            through = mul_q(ring_hilbert_inverse(KXY, reach(times_h.window, times_h.support)), times_h)
            assert eq_on_window(through, s, W44)


class TestKSeriesBudget:
    def test_two_generator_quotient_on_window_888(self):
        # a generous regression guard: this takes about 0.2 s in process, and
        # took 4.3 s when the ring inverse came from the downset recursion
        ring = RingSpec.standard(3)
        module = MonomialQuotient.of([Monomial(((1, 1), (2, 1))), Monomial(((2, 1), (3, 1)))])
        window = Window.of([degree(8, 8, 8)])
        for cached in (modules.monomials_of_degree, modules._graded_piece, modules.ring_hilbert_inverse):
            cached.cache_clear()
        started = time.perf_counter()
        result = kseries(module, ring, window)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"kseries took {elapsed:.2f}s (budget 2s)"
        # K(R/(x1x2, x2x3)) = 1 - t1t2 - t2t3 + t1t2t3, from the lcm lattice of the generators
        assert dict(result.terms) == {
            ZERO: 1,
            degree(1, 1, 0): -1,
            degree(0, 1, 1): -1,
            degree(1, 1, 1): 1,
        }


class TestMonomialEnumeration:
    def test_sorted_and_distinct(self):
        ring = RingSpec.matrix_ring([2, 2])
        mons = monomials_of_degree(ring, degree(2, 1))
        assert len(set(mons)) == len(mons)
        totals = [m.total() for m in mons]
        assert totals == sorted(totals)

    def test_out_of_quadrant_degree_has_no_monomials(self):
        assert monomials_of_degree(KXY, degree(-1, 2)) == ()

    def test_matches_box_enumeration_with_multi_component_degrees(self):
        ring = RingSpec.of(
            [
                ("a", degree(2, 1)),
                ("b", unit(1)),
                ("c", degree(1, 1, 1)),
                ("d", degree(0, 1)),
                ("e", degree(0, 2, 1)),
            ]
        )
        var_degrees = [v.degree.dense(3) for v in ring.variables]
        for g in candidate_degrees(FULL_Q, Window.of([degree(4, 3, 2)])):
            expected = [
                Monomial(tuple((pos, e) for pos, e in enumerate(exps, start=1) if e))
                for exps in exponent_vectors(var_degrees, g.dense(3))
            ]
            expected.sort(key=lambda m: (m.total(), m.dense(len(var_degrees))))
            assert monomials_of_degree(ring, g) == tuple(expected)


class TestShiftedLeaves:
    """``shifted_leaves`` reads a tree as the direct sum of its shifted quotients and ideals."""

    def test_leaves_come_in_tree_order_with_free_shifts_as_the_ring(self):
        ring = MonomialQuotient(())
        tree = DirectSum.of(
            [ShiftedModule(DirectSum.of([FreeModule.of([ZERO, unit(1)]), XY]), unit(2)), XY_IDEAL, FreeModule()]
        )
        assert shifted_leaves(tree) == [(unit(2), ring, 0), (degree(1, 1), ring, 0), (unit(2), XY, 0), (ZERO, XY_IDEAL, 1)]

    def test_a_subclass_anywhere_in_the_tree_is_a_leaf_of_unknown_syzygy(self):
        class Renamed(MonomialQuotient):
            pass

        class Summed(DirectSum):
            pass

        renamed, summed = Renamed(XY.gens), Summed((XY,))
        assert shifted_leaves(renamed) == [(ZERO, renamed, None)]
        tree = DirectSum.of([XY, ShiftedModule(DirectSum.of([renamed, summed]), unit(1))])
        assert shifted_leaves(tree) == [(ZERO, XY, 0), (unit(1), renamed, None), (unit(1), summed, None)]

    def test_a_deep_tree_is_read_without_recursion(self):
        module = XY
        for k in range(5000):
            module = ShiftedModule(module, unit(1)) if k % 2 else DirectSum((module,))
        assert shifted_leaves(module) == [(degree(2500), XY, 0)]

    def test_a_deep_tree_computes_like_its_flat_leaf(self):
        assert sys.getrecursionlimit() <= 1000
        x1 = variable_quotient(KXY, [1])
        deep, printed = x1, "quotient(x1)"
        for k in range(5000):
            deep = ShiftedModule(deep, unit(1)) if k % 2 else DirectSum((deep,))
            printed = f"shift({printed}, e1)" if k % 2 else f"sum({printed})"
        flat = ShiftedModule(x1, degree(2500))
        window = Window.of([degree(2502, 2)])
        assert deep.describe(KXY) == printed
        assert hilbert(deep, KXY, window) == hilbert(flat, KXY, window)
        assert kseries(deep, KXY, window) == kseries(flat, KXY, window)
        assert betti_table(deep, KXY, window) == betti_table(flat, KXY, window)
        assert betti_table(deep, KXY, window).entries
        assert serre_product(deep, XY, KXY, window) == serre_product(flat, XY, KXY, window)
        assert serre_product(RING_MODULE, deep, KXY, window) == serre_product(RING_MODULE, flat, KXY, window)

    def test_only_shifted_leaves_tests_a_module_node_class(self):
        """Every other layer reads a tree through ``shifted_leaves`` or the leaves' own methods."""
        found = {}
        for path in sorted(Path(modules.__file__).parent.glob("*.py")):
            scopes = _node_class_tests(ast.parse(path.read_text(encoding="utf-8")))
            if scopes:
                found[path.name] = set(scopes)
        assert found == {"modules.py": {"shifted_leaves"}}

    def test_only_the_module_parser_calls_itself(self):
        """No function in ``src/`` calls its own name but the parser, whose depth limit is a parse error.

        A call through ``super()`` is not counted.  Two methods hand the call
        to another class's method of the same name, which does not call back:
        a class's coefficient is its series', and a series prints its degrees.
        """
        delegations = {"grothendieck.KClass.coeff", "series.LaurentSeries.to_json"}
        found = set()
        for path in sorted(Path(modules.__file__).parent.glob("*.py")):
            found |= _self_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert found == {"cli._parse_module"} | delegations

    def test_no_sort_key_reads_a_dense_tuple(self):
        """Graded-lex sorts read ``grlex_key``; only the monomial enumeration builds dense tuples.

        Its width is the grading's number of components, not the ring's number of variables.
        """
        keys, callers = [], set()
        for path in sorted(Path(modules.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            keys += [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "key"]
            callers |= {f"{path.stem}.{name}" for name in _dense_callers(tree)}
        assert not [key for key in keys if _dense_callers(key)]
        assert callers == {"modules.monomials_of_degree"}


BEYOND_KXY = MonomialQuotient.of([Monomial(((5, 1),))])  # x5 on a ring of two variables
W22 = Window.of([degree(2, 2)])


class TestPositionsBeyondTheRing:
    """A leaf that names a variable the ring lacks is refused where its support is read, on every library route."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda m: hilbert(m, KXY, W22),
            lambda m: kseries(m, KXY, W22),
            lambda m: betti_table(m, KXY, W22),
            lambda m: homology_profile(KoszulTensorComplex.of(m, KXY), W22),
            lambda m: tor_k(m, KXY, 0, ZERO),
            lambda m: serre_product(m, RING_MODULE, KXY, W22),
            lambda m: serre_product(RING_MODULE, m, KXY, W22),
            lambda m: m.describe(KXY),
            lambda m: graded_piece(m, KXY, degree(1, 1)),
        ],
        ids=[
            "hilbert", "kseries", "betti_table", "homology_profile", "tor_k", "serre_left", "serre_right",
            "describe", "graded_piece",
        ],
    )
    def test_every_route_raises_the_parsers_message(self, compute):
        with pytest.raises(ValueError, match="^position 5 exceeds the 2 ring variables$"):
            compute(BEYOND_KXY)

    def test_an_ideal_is_refused_as_well(self):
        ideal = MonomialIdeal.of([Monomial(((3, 1),))])
        routes = [
            lambda: hilbert(ideal, KXY, W22),
            lambda: betti_table(ideal, KXY, W22),
            lambda: ideal.describe(KXY),
            lambda: graded_piece(ideal, KXY, unit(1)),
        ]
        for compute in routes:
            with pytest.raises(ValueError, match="^position 3 exceeds the 2 ring variables$"):
                compute()


R3 = RingSpec.standard(3)
_tree_shifts = st.sampled_from([ZERO, unit(2), degree(-1, 0, 1), degree(1, 1, 0)])
_tree_gens = st.lists(
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), min_size=1, max_size=2).map(Degree.of), max_size=3
).map(lambda drawn: [m for m in set(drawn) if not any(o != m and leq_q(o, m) for o in drawn)])


@st.composite
def module_trees(draw, depth=3):
    """Trees over k[x1,x2,x3]: free modules with negative, repeated or no shifts, ideals, quotients, shifts and sums."""
    kind = draw(st.sampled_from(["free", "ideal", "quotient"] + (["shift", "sum"] * 2 if depth else [])))
    if kind == "free":
        return FreeModule(tuple(draw(st.lists(_tree_shifts, max_size=3))))
    if kind == "shift":
        return ShiftedModule(draw(module_trees(depth - 1)), draw(_tree_shifts))
    if kind == "sum":
        return DirectSum.of(draw(st.lists(module_trees(depth - 1), max_size=3)))
    return (MonomialIdeal if kind == "ideal" else MonomialQuotient).of(draw(_tree_gens))


class TestTreeReference:
    """Every read of a module tree agrees with the recursive node-by-node reference in ``oracles``."""

    @staticmethod
    def _check_against_the_reference(module, ring, window):
        support = module.lower_bounds(ring)
        assert support == reference_lower_bounds(module, ring)
        assert module.describe(ring) == reference_describe(module, ring)
        full = tuple(range(1, len(ring.variables) + 1))
        for g in candidate_degrees(support, window):
            expected = [m for _, m in reference_basis(module, ring, g)]
            assert [m for _, m in graded_piece(module, ring, g).basis] == expected, g
            for seq in (full, (1, 3)):
                for n in range(1, koszul_index_bound(module, ring, seq, g) + 2):
                    rows = reference_koszul_rows(module, ring, seq, n, g)
                    assert koszul_differential(module, ring, seq, n, g) == rows, (seq, n, g)

    @settings(max_examples=300, deadline=None)
    @given(module_trees())
    def test_pieces_bounds_describe_and_differentials_match_the_reference(self, module):
        self._check_against_the_reference(module, R3, Window.of([degree(2, 1, 1)]))

    @settings(max_examples=50, deadline=None)
    @given(module_trees())
    def test_the_same_on_two_component_variable_degrees(self, module):
        # deg z_ij = e_(2i-1) + e_(2j): a wedge can fit under one g - lb in one component and not in the other
        self._check_against_the_reference(module, schubert_ring(2), Window.of([degree(2, 2, 1, 1)]))

    @settings(max_examples=200, deadline=None)
    @given(module_trees(), st.sampled_from([R3, RingSpec.matrix_ring([3, 2])]))
    def test_basis_is_the_reference_basis_with_paths_read_as_leaf_indices(self, module, ring):
        """Many monomials share a degree in the matrix ring, so its pieces order ties by exponents."""
        leaf_of = {path: k for k, path in enumerate(reference_leaf_paths(module))}
        for g in candidate_degrees(module.lower_bounds(ring), Window.of([degree(2, 2, 1)])):
            expected = tuple((leaf_of[path], m) for path, m in reference_basis(module, ring, g))
            assert graded_piece(module, ring, g).basis == expected, g


NODE_CLASSES = {"ModuleExpr", "FreeModule", "ShiftedModule", "DirectSum", "MonomialIdeal", "MonomialQuotient"}


def _node_class_tests(tree):
    """The enclosing function of each isinstance, issubclass, class pattern or is/== test naming a node class."""

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    def tests_a_class(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
            return bool(names(node) & NODE_CLASSES)
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
            return bool(names(node) & NODE_CLASSES)
        return isinstance(node, ast.MatchClass) and bool(names(node.cls) & NODE_CLASSES)

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if tests_a_class(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _self_callers(tree, prefix):
    """The dotted name of each function that calls a function or method of its own name, except through super()."""

    def calls_itself(function):
        for call in ast.walk(function):
            func = getattr(call, "func", None)
            if isinstance(func, ast.Name) and func.id == function.name:
                return True
            if isinstance(func, ast.Attribute) and func.attr == function.name:
                receiver = func.value
                if not (isinstance(receiver, ast.Call) and getattr(receiver.func, "id", None) == "super"):
                    return True
        return False

    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found |= _self_callers(node, f"{prefix}.{node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if calls_itself(node):
                found.add(f"{prefix}.{node.name}")
            found |= _self_callers(node, f"{prefix}.{node.name}")
    return found


def _raisers_of(tree, exception):
    """The dotted name (class.function) of each function with a ``raise`` naming ``exception``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            if exception in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}:
                found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _dense_callers(tree):
    """The enclosing function of each call of a ``.dense`` method, or ``<expr>`` outside any."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dense":
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<expr>")
    return found
