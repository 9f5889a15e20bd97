import ast
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdfkalc import (
    RING_MODULE,
    ZERO,
    AugmentedKoszulComplex,
    ChainComplexError,
    Degree,
    DirectSum,
    FreeModule,
    KoszulTensorComplex,
    Monomial,
    MonomialIdeal,
    MonomialQuotient,
    RingSpec,
    ShiftedModule,
    SupportDescriptor,
    Window,
    all_variables,
    betti_table,
    candidate_degrees,
    degree,
    eq_on_window,
    euler_check,
    graded_piece,
    homology_profile,
    kseries,
    koszul_differential,
    koszul_index_bound,
    koszul_piece,
    leq_q,
    minimal_resolution_shape,
    residue_field,
    series_from_terms,
    serre_product,
    tor_k,
    torsion_dimension,
    unit,
    var_action,
    variable_quotient,
)
from bdfkalc import cli, grothendieck, homology, linalg, modules
from bdfkalc.linalg import (
    CharacteristicError,
    blocks,
    check_characteristic,
    composes_to_zero,
    is_prime,
    is_zero,
    matmul,
    rank_fraction_free,
    rank_mod_p,
    sparse_rows,
)
from oracles import (
    dense,
    dense_rank_mod_p,
    fraction_rank,
    koszul_differential_by_labels,
    schubert_generators,
    schubert_ring,
    schubert_window,
    taylor_terms,
)

KXY = RingSpec.standard(2)
W33 = Window.of([degree(3, 3)])
XY = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])


@st.composite
def shuffled_block_matrices(draw):
    """Random blocks placed down the diagonal, then rows and columns shuffled.

    A block with no rows adds zero columns and one with no columns adds
    zero rows; entries that vanish mod 2, 3 or 32003 are drawn often.
    """
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4))
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    matrix = [[0] * cols for _ in range(rows)]
    top = left = 0
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 6, 32003])
    for r, c in shapes:
        for i in range(top, top + r):
            for j in range(left, left + c):
                matrix[i][j] = draw(entries)
        top, left = top + r, left + c
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return [[matrix[i][j] for j in col_order] for i in row_order]


@st.composite
def composable_pairs(draw):
    """Integer matrices a (m x k) and b (k x n), often with a zero or one-entry product.

    Entries are zero half the time, so zero rows and columns are common.
    The pair [A | A], [B ; -B] composes to zero only by cancellation;
    appending the column e_i to it and the row e_j then leaves the product
    nonzero at (i, j) alone.
    """
    m, k, n = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    a = [[draw(entries) for _ in range(k)] for _ in range(m)]
    b = [[draw(entries) for _ in range(n)] for _ in range(k)]
    shape = draw(st.sampled_from(["plain", "cancelling", "one entry"]))
    if shape != "plain":
        a = [row + row for row in a]
        b = b + [[-v for v in row] for row in b]
    if shape == "one entry" and m and n:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        a = [row + [int(r == i)] for r, row in enumerate(a)]
        b = b + [[int(c == j) for c in range(n)]]
    return a, b


class TestLinalg:
    def test_bareiss_matches_fraction_elimination(self):
        rng = random.Random(29)
        for _ in range(100):
            rows = rng.randint(0, 4)
            cols = rng.randint(0, 4)
            matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert rank_fraction_free(sparse_rows(matrix)) == fraction_rank(matrix)

    def test_matmul_matches_the_plain_triple_sum(self):
        rng = random.Random(37)
        for _ in range(100):
            # with no inner dimension, b has no rows to carry its column count
            rows, inner, cols = rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
            a = [[rng.choice((0, 0, 1, -2)) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.choice((0, 0, 3, -1)) for _ in range(cols)] for _ in range(inner)]
            expected = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
            assert matmul(a, b) == expected

    @settings(max_examples=300, deadline=None)
    @given(composable_pairs())
    @example(([], [[1, 2]]))  # 0 x n times n x m
    @example(([[], []], []))  # n x 0 times 0 x 0
    @example(([[1], [0]], [[]]))  # n x 1 times 1 x 0
    @example(([[0, 0], [3, 0]], [[0, 5], [0, 0]]))  # zero rows and columns, zero product
    @example(([[1, 1]], [[2], [-2]]))  # zero only by cancellation
    @example(([[0, 1], [0, 0]], [[0, 0], [0, -1]]))  # nonzero in exactly one entry
    def test_sparse_chain_check_matches_the_dense_product(self, pair):
        a, b = pair
        assert composes_to_zero(sparse_rows(a), sparse_rows(b)) == is_zero(matmul(a, b))

    @settings(max_examples=200, deadline=None)
    @given(shuffled_block_matrices())
    @example([])  # 0 x n
    @example([[], [], []])  # n x 0
    @example([[0, 0], [0, 0]])
    @example([[7]])
    @example([[32003]])
    @example([[1, 1], [1, 3]])  # determinant 2: the row update runs
    def test_rank_mod_p_matches_whole_matrix_elimination(self, matrix):
        for p in (2, 3, 32003):
            assert rank_mod_p(sparse_rows(matrix), p) == dense_rank_mod_p(matrix, p)

    @settings(max_examples=200, deadline=None)
    @given(shuffled_block_matrices())
    @example([])  # 0 x n
    @example([[], [], []])  # n x 0
    @example([[0, 0], [0, 0]])
    @example([[7]])
    @example([[32003]])
    @example([[1, 1], [1, 3]])  # determinant 2: the row update runs
    def test_rank_over_q_matches_whole_matrix_elimination(self, matrix):
        assert rank_fraction_free(sparse_rows(matrix)) == fraction_rank(matrix)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_block_matrices())
    def test_ranks_leave_their_argument_unchanged(self, matrix):
        rows = sparse_rows(matrix)
        before = [list(row) for row in rows]
        rank_fraction_free(rows)
        assert rows == before
        for p in (2, 32003):
            rank_mod_p(rows, p)
            assert rows == before

    @settings(max_examples=200, deadline=None)
    @given(shuffled_block_matrices())
    def test_blocks_partition_the_nonzero_entries(self, matrix):
        # number the nonzero entries, so each value names its own position
        counter = itertools.count(1)
        numbered = [[next(counter) if entry else 0 for entry in row] for row in matrix]
        where = {v: (i, j) for i, row in enumerate(numbered) for j, v in enumerate(row) if v}
        seen_rows: set[int] = set()
        seen_cols: set[int] = set()
        seen: list[int] = []
        for block in blocks(sparse_rows(numbered)):
            assert all(map(any, block)) and all(map(any, zip(*block)))
            row_sets = [{where[v][0] for v in row if v} for row in block]
            col_sets = [{where[v][1] for v in col if v} for col in zip(*block)]
            assert all(len(found) == 1 for found in row_sets + col_sets)
            rows = [found.pop() for found in row_sets]
            cols = [found.pop() for found in col_sets]
            assert block == [[numbered[i][j] for j in cols] for i in rows]
            assert seen_rows.isdisjoint(rows) and seen_cols.isdisjoint(cols)
            seen_rows.update(rows)
            seen_cols.update(cols)
            seen.extend(v for row in block for v in row if v)
        assert sorted(seen) == sorted(where)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_block_matrices())
    def test_block_ranks_sum_to_the_rank_over_q(self, matrix):
        ranks = (rank_fraction_free(sparse_rows(block)) for block in blocks(sparse_rows(matrix)))
        assert sum(ranks) == fraction_rank(matrix)

    def test_prime_field_rank_differs_where_it_should(self):
        assert rank_fraction_free(sparse_rows([[2]])) == 1
        assert rank_mod_p(sparse_rows([[2]]), 2) == 0
        assert rank_mod_p(sparse_rows([[2]]), 3) == 1
        # determinant 2, so the one row update leaves a zero row exactly mod 2
        assert rank_fraction_free(sparse_rows([[1, 1], [1, 3]])) == 2
        assert rank_mod_p(sparse_rows([[1, 1], [1, 3]]), 2) == 1
        assert rank_mod_p(sparse_rows([[1, 1], [1, 3]]), 3) == 2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            rank_mod_p(sparse_rows([[1]]), 4)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestCharacteristicCheck:
    def test_agrees_with_trial_division_below_ten_thousand(self):
        for n in range(-3, 10**4):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 41041):
            assert not is_prime(n)
            with pytest.raises(CharacteristicError):
                check_characteristic(n)

    def test_strong_pseudoprime_to_the_first_twelve_bases_rejected(self):
        # passes Miller-Rabin for every prime base up to 37; base 41 exposes it
        assert not is_prime(318665857834031151167461)

    def test_large_primes_accepted(self):
        for p in (32003, 10**15 + 37):
            check_characteristic(p)
        assert rank_mod_p(sparse_rows([[1, 2], [2, 4]]), 10**15 + 37) == 1

    def test_zero_accepted_and_small_values_rejected(self):
        check_characteristic(0)
        for p in (1, -3, 4):
            with pytest.raises(CharacteristicError):
                check_characteristic(p)

    def test_each_check_names_what_it_accepts(self):
        with pytest.raises(CharacteristicError, match="^characteristic must be 0 or a prime, got 4$"):
            check_characteristic(4)
        # rank mod p has no characteristic 0, so its message does not offer it
        for p in (0, 4):
            with pytest.raises(CharacteristicError, match=f"^rank mod p needs a prime p, got {p}$"):
                rank_mod_p(sparse_rows([[1]]), p)

    def test_beyond_the_certified_range_rejected(self):
        # the first bound is composite yet passes all 13 bases; the second is prime
        for n in (3317044064679887385961981, 3317044064679887385962123):
            with pytest.raises(CharacteristicError, match="too large"):
                check_characteristic(n)


class TestKoszulPiece:
    def test_index_zero_is_the_module_piece(self):
        piece = koszul_piece(XY, KXY, (1, 2), 0, degree(2, 0))
        assert piece.dimension == 1
        assert piece.basis[0] == ((), (0, Monomial(((1, 2),))))

    def test_top_wedge_on_the_ring(self):
        piece = koszul_piece(RING_MODULE, KXY, (1, 2), 2, degree(1, 1))
        assert piece.dimension == 1
        assert piece.basis[0] == ((1, 2), (0, Monomial()))

    def test_vanishes_beyond_the_variable_count_bound(self):
        g = degree(1, 1)
        bound = koszul_index_bound(RING_MODULE, KXY, (1, 2), g)
        assert bound == 2
        assert koszul_piece(RING_MODULE, KXY, (1, 2), 3, g).dimension == 0

    def test_bound_counts_only_reachable_variables(self):
        assert koszul_index_bound(RING_MODULE, KXY, (1, 2), degree(1, 0)) == 1

    def test_basis_is_combinations_times_the_complementary_piece(self):
        # each wedge is a plain strictly increasing tuple from the canonical sequence
        for ring, module, window in TestKoszulDifferentialOracle().cases():
            full = all_variables(ring)
            for seq in (full, full[::2], full[::-1] + full[:1]):
                canonical = tuple(sorted(set(seq)))
                for g in candidate_degrees(module.lower_bounds(ring), window):
                    for n in range(koszul_index_bound(module, ring, seq, g) + 2):
                        basis = koszul_piece(module, ring, seq, n, g).basis
                        for wedge, _ in basis:
                            assert type(wedge) is tuple and set(wedge) <= set(canonical)
                            assert all(a < b for a, b in zip(wedge, wedge[1:])), wedge
                        expected = [
                            (wedge, label)
                            for wedge in itertools.combinations(canonical, n)
                            for label in graded_piece(
                                module, ring, g - ring.degree(Monomial(tuple((p, 1) for p in wedge)))
                            ).basis
                        ]
                        assert list(basis) == expected, (module, seq, n, g)

    def test_the_cases_hold_wedges_that_fit_under_no_room(self):
        # a wedge within the index bound whose degree lies under no g - lb pairs with an empty piece;
        # some case has one with every lower bound off the origin, on two-component variable degrees
        unfit = []
        for ring, module, window in TestKoszulDifferentialOracle().cases():
            bounds = module.lower_bounds(ring).lower_bounds
            if ZERO in bounds or all(len(v.degree.entries) < 2 for v in ring.variables):
                continue
            full = all_variables(ring)
            for g in candidate_degrees(module.lower_bounds(ring), window):
                for n in range(1, koszul_index_bound(module, ring, full, g) + 1):
                    for wedge in itertools.combinations(full, n):
                        d = ring.degree(Monomial(tuple((p, 1) for p in wedge)))
                        if not any(leq_q(d, g - lb) for lb in bounds):
                            unfit.append((wedge, g))
        assert unfit

    def test_graded_piece_once_per_wedge_degree(self, monkeypatch):
        # the 15 two-wedges of matrix_ring([3, 3]) have the 3 degrees 2e1, e1 + e2 and 2e2
        ring = RingSpec.matrix_ring([3, 3])
        looked_up = []
        real = homology.graded_piece
        monkeypatch.setattr(homology, "graded_piece", lambda *args: looked_up.append(args) or real(*args))
        homology._koszul_piece.cache_clear()
        piece = koszul_piece(RING_MODULE, ring, all_variables(ring), 2, degree(3, 3))
        assert len(looked_up) == 3
        # wedges times the ring monomials of the rest: (1, 3) and (3, 1) have
        # 3 * 10 of them, (2, 2) has 6 * 6
        assert piece.dimension == 3 * 30 + 9 * 36 + 3 * 30


class TestKoszulDifferential:
    def test_length_one_is_multiplication(self):
        assert koszul_differential(RING_MODULE, KXY, (1,), 1, unit(1)) == sparse_rows([[1]])

    def test_top_differential_hand_expansion(self):
        # e_x ^ e_y |-> x * e_y - y * e_x at degree (1,1)
        matrix = dense(koszul_differential(RING_MODULE, KXY, (1, 2), 2, degree(1, 1)), 1)
        target = koszul_piece(RING_MODULE, KXY, (1, 2), 1, degree(1, 1))
        wedges = [wedge for wedge, _ in target.basis]
        column = [matrix[r][0] for r in range(len(wedges))]
        assert sorted(zip(wedges, column)) == [((1,), -1), ((2,), 1)]

    def test_chain_law_on_random_degrees(self):
        rng = random.Random(31)
        ring = RingSpec.standard(3)
        modules = [
            RING_MODULE,
            variable_quotient(ring, (1,)),
            residue_field(ring),
            FreeModule.of([unit(1), degree(0, 1, 1)]),
        ]
        seq = all_variables(ring)
        for module in modules:
            for _ in range(8):
                g = degree(*(rng.randint(0, 2) for _ in range(3)))
                for n in range(2, 4):
                    cols = [koszul_piece(module, ring, seq, k, g).dimension for k in (n - 1, n)]
                    d_n = dense(koszul_differential(module, ring, seq, n, g), cols[1])
                    d_prev = dense(koszul_differential(module, ring, seq, n - 1, g), cols[0])
                    assert is_zero(matmul(d_prev, d_n))


class TestKoszulDifferentialOracle:
    """koszul_differential equals the entry-by-entry (positions, label) construction."""

    R3 = RingSpec.standard(3)
    QUOTIENT = MonomialQuotient.of([Monomial(((1, 1), (2, 1))), Monomial(((2, 2), (3, 1)))])
    IDEAL = MonomialIdeal.of([Monomial(((1, 2),)), Monomial(((2, 1), (3, 1)))])
    MATRIX_RING = RingSpec.matrix_ring([2, 2])

    def cases(self):
        r3_window = Window.of([degree(2, 2, 1)])
        yield self.R3, self.QUOTIENT, r3_window
        yield self.R3, self.IDEAL, r3_window
        yield self.R3, FreeModule.of([degree(-1, 0, 0), ZERO, degree(0, 1, 1)]), r3_window
        yield self.R3, ShiftedModule(self.QUOTIENT, degree(1, 0, -1)), r3_window
        yield self.R3, DirectSum.of(
            [self.QUOTIENT, FreeModule.of([unit(2)]), ShiftedModule(self.IDEAL, unit(3))]
        ), r3_window
        # several variables share each degree, so labels meet many wedges
        matrix_quotient = MonomialQuotient.of([Monomial(((1, 1), (3, 1))), Monomial(((2, 2),))])
        yield self.MATRIX_RING, matrix_quotient, Window.of([degree(2, 2)])
        yield RP2_RING, RP2, Window.of([RP2_TOP])
        # every variable has a two-component degree and the shift moves both bounds off the origin
        ideal = MonomialIdeal.of([Monomial(((1, 2),)), Monomial(((2, 1), (4, 1)))])
        yield schubert_ring(2), ShiftedModule(ideal, degree(0, -1, 1)), Window.of([degree(3, 2, 3, 3)])

    def test_matches_the_label_oracle(self):
        for ring, module, window in self.cases():
            full = all_variables(ring)
            for seq in (full, full[::2]):
                for g in candidate_degrees(module.lower_bounds(ring), window):
                    bound = koszul_index_bound(module, ring, seq, g)
                    for n in range(1, bound + 2):
                        expected = sparse_rows(koszul_differential_by_labels(module, ring, seq, n, g))
                        assert koszul_differential(module, ring, seq, n, g) == expected, (module, seq, n, g)

    def test_var_action_is_the_one_variable_differential(self):
        for ring, module, window in self.cases():
            for g in candidate_degrees(module.lower_bounds(ring), window):
                for pos, variable in enumerate(ring.variables, start=1):
                    by_labels = koszul_differential_by_labels(module, ring, (pos,), 1, g + variable.degree)
                    expected = sparse_rows(by_labels)
                    assert var_action(module, ring, pos, g) == expected, (module, pos, g)
                    assert var_action(module, ring, variable.name, g) == expected


class TestTor:
    def test_ring_has_no_higher_torsion(self):
        for a in range(3):
            for b in range(3):
                g = degree(a, b)
                for i in range(4):
                    expected = 1 if (i, g) == (0, ZERO) else 0
                    assert tor_k(RING_MODULE, KXY, i, g) == expected

    def test_residue_field_torsion_sits_on_squarefree_degrees(self):
        ring = RingSpec.standard(3)
        k = residue_field(ring)
        for bits in itertools.product((0, 1), repeat=3):
            g = degree(*bits)
            i = sum(bits)
            assert tor_k(k, ring, i, g) == 1
        assert tor_k(k, ring, 1, degree(2, 0, 0)) == 0

    def test_quotient_by_xy(self):
        assert tor_k(XY, KXY, 0, ZERO) == 1
        assert tor_k(XY, KXY, 1, degree(1, 1)) == 1
        for i in range(2, 4):
            for a in range(3):
                for b in range(3):
                    assert tor_k(XY, KXY, i, degree(a, b)) == 0

    def test_symmetry_between_both_koszul_routes(self):
        # dim H_i(K_A (x) R/B) must match dim H_i(K_B (x) R/A) degreewise
        ring = RingSpec.standard(3)
        window = Window.of([degree(2, 2, 2)])
        subsets = [(), (1,), (2, 3), (1, 2, 3)]
        for A, B in itertools.product(subsets, repeat=2):
            left = KoszulTensorComplex.of(variable_quotient(ring, B), ring, A)
            right = KoszulTensorComplex.of(variable_quotient(ring, A), ring, B)
            left_rows = dict(homology_profile(left, window))
            right_rows = dict(homology_profile(right, window))
            for g in set(left_rows) | set(right_rows):
                a_dims = left_rows.get(g, ())
                b_dims = right_rows.get(g, ())
                width = max(len(a_dims), len(b_dims))
                a_dims = tuple(a_dims) + (0,) * (width - len(a_dims))
                b_dims = tuple(b_dims) + (0,) * (width - len(b_dims))
                assert a_dims == b_dims, (A, B, g)


class TestBettiTable:
    def test_free_module_is_its_own_resolution(self):
        shifts = [ZERO, unit(1), unit(1)]
        table = betti_table(FreeModule.of(shifts), KXY, W33)
        assert table.beta(0, ZERO) == 1
        assert table.beta(0, unit(1)) == 2
        assert table.max_index() == 0

    def test_residue_field_over_three_variables(self):
        ring = RingSpec.standard(3)
        table = betti_table(residue_field(ring), ring, Window.of([degree(1, 1, 1)]))
        assert [table.total(i) for i in range(4)] == [1, 3, 3, 1]

    def test_principal_power_over_one_variable(self):
        ring = RingSpec.standard(1)
        module = MonomialQuotient.of([Monomial(((1, 2),))])
        table = betti_table(module, ring, Window.of([degree(4)]))
        assert table.entries == ((0, ZERO, 1), (1, degree(2), 1))

    def test_characteristic_two_agrees_here(self):
        plain = betti_table(XY, KXY, W33)
        mod2 = betti_table(XY, KXY, W33, characteristic=2)
        assert plain.entries == mod2.entries


RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]
RP2_RING = RingSpec.standard(6)
# every edge of the 6-vertex RP^2 is a face, so the minimal non-faces are its 10 non-facet triangles
RP2 = MonomialQuotient.of(
    Monomial(tuple((v, 1) for v in triangle))
    for triangle in itertools.combinations(range(1, 7), 3)
    if triangle not in RP2_FACETS
)
RP2_TOP = degree(1, 1, 1, 1, 1, 1)


class TestCharacteristicDependence:
    """Reisner: the Stanley-Reisner ring of RP^2 has extra syzygies exactly in characteristic 2.

    By Hochster's formula beta(i, 1..1) is the reduced cohomology of RP^2
    in dimension 5 - i, which is k in dimensions 1 and 2 over GF(2) and
    vanishes over Q and GF(3).
    """

    EXPECTED = {0: 0, 2: 1, 3: 0}

    def test_tor_and_betti_table(self):
        assert len(RP2.gens) == 10
        window = Window.of([RP2_TOP])
        for p, beta in self.EXPECTED.items():
            table = betti_table(RP2, RP2_RING, window, characteristic=p)
            for i in (3, 4):
                assert tor_k(RP2, RP2_RING, i, RP2_TOP, characteristic=p) == beta, (p, i)
                assert table.beta(i, RP2_TOP) == beta, (p, i)

    def test_homology_profile(self):
        complex_ = KoszulTensorComplex.of(RP2, RP2_RING)
        for p, beta in self.EXPECTED.items():
            dims = dict(homology_profile(complex_, Window.of([RP2_TOP]), p))[RP2_TOP]
            assert (dims + (0,) * 5)[3:5] == (beta, beta), p

    def test_torsion_dimension(self):
        window = Window.of([RP2_TOP])
        assert torsion_dimension(RP2, RP2_RING, RP2_TOP, window, characteristic=2) == 4
        assert torsion_dimension(RP2, RP2_RING, RP2_TOP, window, characteristic=0) == 3


# (ring, number of grading components): unit degrees, and two variables sharing a degree
TREE_RINGS = [(RingSpec.standard(2), 2), (RingSpec.standard(3), 3), (RingSpec.matrix_ring([2, 1]), 2)]


def _minimal(monomials):
    """The monomials that no other one divides: generators ``MonomialIdeal.of`` accepts."""
    distinct = set(monomials)
    return [m for m in distinct if not any(o != m and leq_q(o, m) for o in distinct)]


@st.composite
def module_trees(draw, ring, width, depth=2):
    """Free modules (negative shifts too), shifts, sums, ideals and quotients, at most 4 generators each."""
    degrees = st.lists(st.integers(-1, 1), min_size=width, max_size=width).map(lambda c: degree(*c))
    kinds = ["free", "ideal", "quotient", "quotient"] + (["shift", "sum"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return FreeModule.of(draw(st.lists(degrees, min_size=1, max_size=2)))
    if kind == "shift":
        return ShiftedModule(draw(module_trees(ring, width, depth - 1)), draw(degrees))
    if kind == "sum":
        return DirectSum.of(draw(st.lists(module_trees(ring, width, depth - 1), min_size=1, max_size=2)))
    positions = st.integers(1, len(ring.variables))
    exponents = st.lists(st.tuples(positions, st.integers(1, 2)), min_size=1, max_size=2)
    gens = _minimal(Degree.of(pairs) for pairs in draw(st.lists(exponents, min_size=1, max_size=4)))
    return (MonomialIdeal.of if kind == "ideal" else MonomialQuotient.of)(gens)


@st.composite
def trees_with_windows(draw):
    ring, width = draw(st.sampled_from(TREE_RINGS))
    ceiling = st.lists(st.integers(0, 3), min_size=width, max_size=width).map(lambda c: degree(*c))
    window = Window.of(draw(st.lists(ceiling, min_size=1, max_size=2)))
    return ring, draw(module_trees(ring, width)), window


def _full_route(module, ring, window, p):
    """Nonzero (index, degree, value) of the whole Koszul complex in every window degree, in table order."""
    profile = homology_profile(KoszulTensorComplex.of(module, ring), window, p)
    return sorted(((i, g, h) for g, dims in profile for i, h in enumerate(dims) if h), key=lambda entry: entry[0])


class TestTaylorSupport:
    """Betti numbers sit where the Taylor resolution has a term, and the table is the full route's."""

    @settings(max_examples=300, deadline=None)
    @given(trees_with_windows(), st.sampled_from([0, 2, 32003]))
    def test_betti_table_is_the_full_koszul_route(self, case, p):
        ring, module, window = case
        assert list(betti_table(module, ring, window, p).entries) == _full_route(module, ring, window, p)

    @settings(max_examples=200, deadline=None)
    @given(trees_with_windows())
    def test_nonzero_betti_numbers_lie_on_taylor_terms(self, case):
        ring, module, window = case
        terms = taylor_terms(module, ring)
        for i, g, _ in _full_route(module, ring, window, 0):
            assert (i, g) in terms, (module, i, g)

    def test_rp2_in_characteristics_zero_and_two(self):
        terms = taylor_terms(RP2, RP2_RING)
        for p in (0, 2):
            found = _full_route(RP2, RP2_RING, Window.of([RP2_TOP]), p)
            assert found and all((i, g) in terms for i, g, _ in found), p
            assert list(betti_table(RP2, RP2_RING, Window.of([RP2_TOP]), p).entries) == found


class TestTorsionDimension:
    def test_free_module_is_projective(self):
        assert torsion_dimension(FreeModule.of([unit(1)]), KXY, degree(2, 2), W33) == 0

    def test_residue_field_needs_the_full_koszul_length(self):
        assert torsion_dimension(residue_field(KXY), KXY, degree(1, 1), W33) == 2
        assert torsion_dimension(residue_field(KXY), KXY, degree(1, 0), W33) == 1

    def test_quotient_before_the_syzygy_appears(self):
        assert torsion_dimension(XY, KXY, degree(1, 0), W33) == 0
        assert torsion_dimension(XY, KXY, degree(1, 1), W33) == 1

    def test_degree_outside_window_raises(self):
        from bdfkalc import WindowError

        with pytest.raises(WindowError):
            torsion_dimension(XY, KXY, degree(4, 0), W33)


class TestResolutionShape:
    def test_quotient_by_xy(self):
        shape = minimal_resolution_shape(XY, KXY, W33)
        assert shape == ((ZERO,), (degree(1, 1),))

    def test_residue_field_over_two_variables(self):
        shape = minimal_resolution_shape(residue_field(KXY), KXY, W33)
        assert shape == ((ZERO,), (degree(0, 1), degree(1, 0)), (degree(1, 1),))

    def test_free_module_shape_is_itself(self):
        free = FreeModule.of([unit(1), unit(1)])
        assert minimal_resolution_shape(free, KXY, W33) == ((unit(1), unit(1)),)

    def test_alternating_kseries_recovers_the_class(self):
        modules = [XY, residue_field(KXY), FreeModule.of([ZERO, unit(2)])]
        for module in modules:
            shape = minimal_resolution_shape(module, KXY, W33)
            coeffs = {}
            for i, shifts in enumerate(shape):
                for g in shifts:
                    coeffs[g] = coeffs.get(g, 0) + (-1) ** i
            expected = series_from_terms(
                {g: c for g, c in coeffs.items() if c}, W33, SupportDescriptor.of([ZERO])
            )
            assert eq_on_window(kseries(module, KXY, W33), expected, W33)


class _BrokenComplex:
    """Two maps that deliberately fail d.d = 0."""

    support = SupportDescriptor.of([ZERO])

    def index_bound(self, g):
        return 2

    def piece_dim(self, n, g):
        return 1 if n <= 2 and g == ZERO else 0

    def differential(self, n, g):
        if g == ZERO and n <= 2:
            return sparse_rows([[1]])
        return [[] for _ in range(self.piece_dim(n - 1, g))]


class _NoncommutingQuotient(MonomialQuotient):
    """The ring with a broken action: x2 kills every multiple of x1, x1 acts freely.

    On 1 the two orders disagree (x1 * x2 = x1x2 but x2 * x1 = 0), so
    Koszul differentials over it do not compose to zero in degree (1,1).
    """

    def times(self, m, pos):
        if pos == 2 and m.coeff(1):
            return None
        return super().times(m, pos)


class TestChainLawEverywhere:
    BROKEN = _NoncommutingQuotient(())

    def test_betti_table_rejects_a_noncommuting_action(self):
        with pytest.raises(ChainComplexError):
            betti_table(self.BROKEN, KXY, W33)

    def test_tor_torsion_dimension_and_serre_reject_it(self):
        with pytest.raises(ChainComplexError):
            tor_k(self.BROKEN, KXY, 1, degree(1, 1))
        with pytest.raises(ChainComplexError):
            torsion_dimension(self.BROKEN, KXY, degree(1, 1), W33)
        with pytest.raises(ChainComplexError):
            serre_product(residue_field(KXY), self.BROKEN, KXY, W33)

    def test_degrees_below_the_defect_still_compute(self):
        assert tor_k(self.BROKEN, KXY, 0, ZERO) == 1
        assert tor_k(self.BROKEN, KXY, 1, degree(1, 0)) == 0


class TestChainCheckOnEveryComplex:
    """The sparse chain check runs on each composable pair of every complex class."""

    CASES = [
        (KoszulTensorComplex.of(RING_MODULE, KXY), W33),
        (AugmentedKoszulComplex(RingSpec.standard(3)), Window.of([degree(1, 1, 1)])),
    ]

    @pytest.mark.parametrize("complex_, window", CASES, ids=lambda c: type(c).__name__)
    def test_each_composable_pair_is_checked(self, complex_, window, monkeypatch):
        answers = []
        real = homology.composes_to_zero
        monkeypatch.setattr(homology, "composes_to_zero", lambda a, b: answers.append(real(a, b)) or answers[-1])
        homology_profile(complex_, window, 32003)
        pairs = 0
        for g in candidate_degrees(complex_.support, window):
            bound = complex_.index_bound(g)
            dims = [complex_.piece_dim(n, g) for n in range(bound + 2)]
            for n in range(2, bound + 2):
                if dims[n - 2] and dims[n - 1] and dims[n]:
                    pairs += 1
                    d_prev = dense(complex_.differential(n - 1, g), dims[n - 1])
                    assert is_zero(matmul(d_prev, dense(complex_.differential(n, g), dims[n])))
        assert pairs > 0
        assert answers == [True] * pairs


def _complexes_with_windows():
    for ring, module, window in TestKoszulDifferentialOracle().cases():
        full = all_variables(ring)
        for seq in (full, full[::2]):
            yield KoszulTensorComplex.of(module, ring, seq), window
    yield AugmentedKoszulComplex(RingSpec.standard(3)), Window.of([degree(2, 2, 2)])
    yield AugmentedKoszulComplex(RingSpec.matrix_ring([2, 2])), Window.of([degree(2, 2)])


def test_the_piece_past_the_index_bound_is_zero_on_every_complex_class():
    """``index_bound`` promises that the piece at bound + 1 vanishes; the engine relies on it."""
    complexes = list(_complexes_with_windows())
    for ring, module, window in TestKoszulDifferentialOracle().cases():
        complexes.append((KoszulTensorComplex.of(module, ring, ()), window))
    classes = set()
    for complex_, window in complexes:
        for g in candidate_degrees(complex_.support, window):
            assert complex_.piece_dim(complex_.index_bound(g) + 1, g) == 0, (complex_, g)
        classes.add(type(complex_))
    assert classes == {KoszulTensorComplex, AugmentedKoszulComplex}


class TestSparseRows:
    """Every differential reaches the engine as canonical sparse rows, and no dense matrix is built."""

    def test_rows_are_canonical_on_every_complex_class(self):
        classes = set()
        for complex_, window in _complexes_with_windows():
            entries = 0
            for g in candidate_degrees(complex_.support, window):
                for n in range(1, complex_.index_bound(g) + 2):
                    rows = complex_.differential(n, g)
                    assert len(rows) == complex_.piece_dim(n - 1, g), (complex_, n, g)
                    cols = range(complex_.piece_dim(n, g))
                    for row in rows:
                        columns = [j for j, _ in row]
                        assert all(a < b for a, b in zip(columns, columns[1:])), (complex_, n, g, row)
                        assert all(j in cols for j in columns), (complex_, n, g, row)
                        assert all(type(v) is int and v for _, v in row), (complex_, n, g, row)
                        entries += len(row)
            assert entries, complex_
            classes.add(type(complex_))
        assert classes == {KoszulTensorComplex, AugmentedKoszulComplex}

    @pytest.mark.parametrize(
        "spec,command,golden",
        [
            ("betti_xy.json", "betti", "betti_xy.json.golden"),
            ("koszul_m3.json", "koszul-verify", "koszul_m3.json.golden"),
        ],
    )
    def test_golden_jobs_build_no_dense_matrix(self, spec, command, golden, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dense matrix was built on the engine path")

        for name in ("zero_matrix", "sparse_rows"):
            original = getattr(linalg, name)
            for module in (linalg, homology, modules, grothendieck, cli):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        for cached in (modules.monomials_of_degree, modules._graded_piece, homology._koszul_piece):
            cached.cache_clear()
        folder = Path(__file__).resolve().parent / "golden"
        job = cli.parse_spec((folder / spec).read_text(encoding="utf-8"), command=command, output="json")
        assert cli.run_job(job) == (folder / golden).read_text(encoding="utf-8")


class _WrongRowCount:
    """A complex whose one map has the wrong number of rows for its target."""

    support = SupportDescriptor.of([ZERO])

    def __init__(self, rows):
        self.rows = rows

    def index_bound(self, g):
        return 1

    def piece_dim(self, n, g):
        return 1 if n <= 1 and g == unit(1) else 0

    def differential(self, n, g):
        return [[] for _ in range(self.rows)]


class TestShapeCheck:
    @pytest.mark.parametrize("rows", [0, 2])
    def test_wrong_row_count_names_the_index_and_the_degree(self, rows):
        with pytest.raises(ValueError, match=f"^differential 1 at {unit(1)} "):
            homology_profile(_WrongRowCount(rows), W33)


def _names_from_homology(tree, names):
    """Which of ``names`` a module imports from ``homology`` or reads as ``homology.<name>``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "homology":
            found |= {alias.name for alias in node.names} & names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "homology":
            found |= {node.attr} & names
    return found


class TestHomologyBoundary:
    def test_no_other_module_names_a_private_function_of_homology(self):
        """Other layers reach homology through its public functions and complexes, never its internals."""
        source = Path(homology.__file__)
        private = {
            node.name
            for node in ast.parse(source.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        }
        found = {}
        for path in sorted(source.parent.glob("*.py")):
            names = _names_from_homology(ast.parse(path.read_text(encoding="utf-8")), private)
            if names and path != source:
                found[path.name] = names
        assert found == {}

    def test_the_serre_product_reads_only_the_betti_table(self):
        """``grothendieck`` takes ``betti_table`` alone from homology, and no module refuses a left factor."""
        source = Path(grothendieck.__file__)
        assert _names_from_homology(ast.parse(source.read_text(encoding="utf-8")), set(vars(homology))) == {"betti_table"}
        for path in sorted(source.parent.glob("*.py")):
            assert "UnsupportedResolutionError" not in path.read_text(encoding="utf-8"), path.name


class TestEuler:
    def test_koszul_complex_on_the_ring(self):
        assert euler_check(KoszulTensorComplex.of(RING_MODULE, KXY), W33)

    def test_augmented_complex_is_exact(self):
        ring = RingSpec.standard(3)
        complex_ = AugmentedKoszulComplex(ring)
        profile = homology_profile(complex_, Window.of([degree(1, 1, 1)]))
        assert all(all(h == 0 for h in dims) for _, dims in profile)
        assert euler_check(complex_, Window.of([degree(1, 1, 1)]))

    def test_augmentation_is_the_residue_field_in_degree_zero(self):
        cases = [
            (RingSpec.standard(3), Window.of([degree(2, 2, 2)])),
            (RingSpec.matrix_ring([2, 2]), Window.of([degree(2, 2)])),
        ]
        for ring, window in cases:
            complex_ = AugmentedKoszulComplex(ring)
            field = residue_field(ring)
            for g in candidate_degrees(complex_.support, window):
                assert complex_.piece_dim(0, g) == graded_piece(field, ring, g).dimension, g
                assert complex_.differential(1, g) == (sparse_rows([[1]]) if g == ZERO else []), g
            assert complex_.differential(1, ZERO) == sparse_rows([[1]])

    def test_non_chain_map_input_is_rejected(self):
        with pytest.raises(ChainComplexError):
            euler_check(_BrokenComplex(), W33)


class TestBettiBudget:
    # The betti-p and betti-q jobs: R/(x[1,1]x[1,2], x[2,1]x[2,2], x[3,1]^2)
    # on matrix_ring([3, 3]) at window (4,4), over F_32003 and over Q
    SPEC = {
        "ring": {"columns": [3, 3]},
        "module": {"node": "quotient", "gens": [[[1, 1], [4, 1]], [[2, 1], [5, 1]], [[3, 2]]]},
        "window": [[[1, 4], [2, 4]]],
    }

    def _cold_betti(self, characteristic: int, pin: str) -> None:
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
        job = cli.parse_spec(json.dumps(self.SPEC), command="betti", characteristic=characteristic)
        output = cli.run_job(job)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"betti took {elapsed:.2f}s (budget 2s)"
        pins = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
        assert output == json.loads(pins.read_text(encoding="utf-8"))[pin]
        # the Taylor support leaves 6 of the 25 window degrees and a few indices
        # in each: 16 Koszul pieces, where the whole complex took 145
        assert homology._koszul_piece.cache_info().misses <= 16

    def test_matrix_ring_quotient_mod_p_on_window_44(self):
        # a generous regression guard: this takes about 0.015 s in process
        # (about 0.1 s while every window degree and index was visited)
        self._cold_betti(32003, "betti-p")

    def test_matrix_ring_quotient_over_q_on_window_44(self):
        # a generous guard on the per-block rank over Q: this takes about
        # 0.015 s in process (about 0.1 s while every window degree and
        # index was visited), and about 6.5 s with Bareiss on the whole matrix
        self._cold_betti(0, "betti-q")

    def test_a_window_too_large_to_list(self):
        # the visits come from the Taylor support alone: R/(xy) has terms at 0 and e1+e2,
        # while the window below (10^4, 10^4) holds about 10^8 degrees; listing the
        # 90,601 degrees below (300, 300) alone took about 0.45 s
        top = degree(10**4, 10**4)
        started = time.perf_counter()
        table = betti_table(XY, KXY, Window.of([top]))
        depth = torsion_dimension(XY, KXY, top, Window.of([top]))
        elapsed = time.perf_counter() - started
        assert table.entries == ((0, ZERO, 1), (1, degree(1, 1), 1))
        assert depth == 1
        assert elapsed < 1.0, f"betti and torsion-dim took {elapsed:.2f}s (budget 1s)"


class TestSchubertBudget:
    """Every degree and index of R/J_1432 on the 4 x 4 matrix Schubert ring, mod 32003, all 16 variables."""

    @staticmethod
    def _run(command: str) -> tuple[dict, float]:
        ring = schubert_ring(4)
        spec = {
            "ring": {"variables": [{"id": v.name, "degree": v.degree.to_json()} for v in ring.variables]},
            "module": {"node": "quotient", "gens": [gen.to_json() for gen in schubert_generators((1, 4, 3, 2), 4)]},
            "window": [u.to_json() for u in schubert_window(4).ceiling],
            "sequence": list(range(1, 17)),
        }
        for cached in (modules.monomials_of_degree, modules._graded_piece, homology._koszul_piece):
            cached.cache_clear()
        started = time.perf_counter()
        output = cli.run_job(cli.parse_spec(json.dumps(spec), command=command, characteristic=32003))
        return json.loads(output), time.perf_counter() - started

    def test_koszul_verify_is_the_betti_table(self):
        # 0.6-1.0 s in process; about 25 s while a Koszul piece listed every subset of the 16 variables
        result, elapsed = self._run("koszul-verify")
        assert elapsed < 3.0, f"koszul-verify took {elapsed:.2f}s (budget 3s)"
        # with every variable in the sequence, the Koszul homology is Tor against the residue field
        found = sorted((i, g, h) for g, dims in result["homology"] for i, h in enumerate(dims) if h)
        assert found == sorted(tuple(row) for row in self._run("betti")[0]["rows"])

    def test_euler_check_holds(self):
        # 0.6-1.0 s in process; about 22 s while a Koszul piece listed every subset of the 16 variables
        result, elapsed = self._run("euler-check")
        assert elapsed < 3.0, f"euler-check took {elapsed:.2f}s (budget 3s)"
        assert result["equal"] and len(result["rows"]) > 100
