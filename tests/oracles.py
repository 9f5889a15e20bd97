"""Independent oracles the tests check library results against.

Everything here recomputes expected values by a different route than the
library: dense convolution instead of windowed products, Fraction
elimination instead of fraction-free elimination, elimination mod p on the
whole matrix instead of block by block, raw product-and-filter counting
instead of the pruned monomial enumeration, a per-degree product against
lazy series instead of a convolution over the finite side, Koszul
differentials built entry by entry from (positions, label) lookups
instead of the module's variable action, the Serre product of a free left
factor read off the right factor's graded pieces instead of its Betti
table, the degrees of a monomial module's Taylor resolution from every
subset of its generators instead of a closure pruned by the window, the
K-polynomial of a module tree as the alternating sum of those Taylor
terms, with multiplicity, instead of a Hilbert series or a Betti
table, and
the basis, support bounds, variable action and printed form of a module
tree by a recursive walk over its nodes instead of its shifted leaves,
the graded-lex order on dense coordinates instead of sparse entries, and
the K-polynomial of a matrix Schubert variety by divided differences
instead of a Hilbert series, the ring's inverse Hilbert series one
term per subset of the variables instead of factor by factor, the
inverse of a polynomial as the geometric sum of powers of 1 - q instead
of a recursion on its terms, and the
problems of a variable family read from its (name, degree) pairs instead
of from a constructed ring.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from bdfkalc import (
    ZERO,
    Degree,
    DirectSum,
    FreeModule,
    MonomialIdeal,
    MonomialQuotient,
    ShiftedModule,
    SupportDescriptor,
    Window,
    candidate_degrees,
    leq_q,
    monomials_of_degree,
    unit,
)


def convolve(a: dict, b: dict) -> dict:
    """Full convolution of two finite coefficient tables."""
    out: dict[Degree, int] = {}
    for g, cg in a.items():
        for h, ch in b.items():
            key = g + h
            out[key] = out.get(key, 0) + cg * ch
    return {k: v for k, v in out.items() if v}


def fraction_rank(matrix) -> int:
    """Rank by Gaussian elimination over exact rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    rank = 0
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            factor = rows[i][col] / rows[r][col]
            if factor:
                for j in range(col, n):
                    rows[i][j] -= factor * rows[r][j]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def dense(rows, cols: int):
    """The dense matrix with these sparse rows of (column, value) pairs and cols columns."""
    matrix = [[0] * cols for _ in rows]
    for target, row in zip(matrix, rows):
        for j, v in row:
            target[j] += v
    return matrix


def dense_rank_mod_p(matrix, p: int) -> int:
    """Rank over the field with p elements by Gaussian elimination on the whole matrix."""
    rows = [[entry % p for entry in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    rank = 0
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(r + 1, m):
            factor = (rows[i][col] * inv) % p
            if factor:
                for j in range(col, n):
                    rows[i][j] = (rows[i][j] - factor * rows[r][j]) % p
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def koszul_differential_by_labels(module, ring, seq, n: int, g: Degree):
    """The n-th Koszul differential in degree g, one entry at a time, without the module's action.

    Each column multiplies its label's monomial by every variable of its
    wedge afresh.  A product survives exactly when the label of its leaf
    and the product is in the face's piece, so each image finds its row, or
    dies, through a dict keyed by (positions, label).
    """
    from bdfkalc import koszul_piece

    source = koszul_piece(module, ring, seq, n, g)
    target = koszul_piece(module, ring, seq, n - 1, g)
    index = {element: row for row, element in enumerate(target.basis)}
    matrix = [[0] * source.dimension for _ in range(target.dimension)]
    for col, (w, (leaf, m)) in enumerate(source.basis):
        for slot, pos in enumerate(w):
            row = index.get((w[:slot] + w[slot + 1 :], (leaf, m + unit(pos))))
            if row is not None:
                matrix[row][col] += (-1) ** slot
    return matrix


def flat_serre_series(shifts, n, ring, window: Window):
    """The Serre product of a free left factor with the given shifts and n.

    A free module is flat, so the only torsion is the tensor product, whose
    piece at g has dimension sum_h dim n_(g - h); the K-series is that
    Hilbert series times the ring's inverse.
    """
    from bdfkalc import LaurentSeries, graded_piece, mul_q, reach, ring_hilbert_inverse

    support = SupportDescriptor.of(shifts) + n.lower_bounds(ring)
    coeffs: dict[Degree, int] = {}
    for g in candidate_degrees(support, window):
        value = sum(graded_piece(n, ring, g - h).dimension for h in shifts)
        if value:
            coeffs[g] = value
    series = LaurentSeries(window, support, coeffs)
    return mul_q(ring_hilbert_inverse(ring, reach(series.window, series.support)), series)


def ring_inverse_by_subsets(ring) -> dict:
    """prod_i (1 - t^deg x_i) as {degree: coefficient}, one signed term per subset of the variables."""
    terms: dict[Degree, int] = {}
    degrees = [v.degree for v in ring.variables]
    for size in range(len(degrees) + 1):
        for subset in itertools.combinations(degrees, size):
            g = sum(subset, ZERO)
            terms[g] = terms.get(g, 0) + (-1) ** size
    return {g: c for g, c in terms.items() if c}


def inverse_by_geometric_sum(terms: dict, window: Window) -> dict:
    """1/q on the window as sum_k (1 - q)^k, for q with constant term 1 and nonnegative terms.

    Every term of (1 - q)^k has total degree at least k, and a product of
    nonnegative degrees never re-enters a downward-closed window, so each
    power is kept on the window and the sum stops at the first empty one.
    """
    step = {g: -c for g, c in terms.items() if g != ZERO and window.contains(g)}
    total: dict[Degree, int] = {ZERO: 1} if window.contains(ZERO) else {}
    power = dict(total)
    while power:
        power = {g: c for g, c in convolve(power, step).items() if window.contains(g)}
        for g, c in power.items():
            total[g] = total.get(g, 0) + c
    return {g: c for g, c in total.items() if c}


def reference_ring_problems(pairs) -> list[str]:
    """Why these (name, degree) pairs are not a pointed, connected grading, one message per problem.

    Each variable's problem comes in variable order: degree 0 breaks
    connectedness, a negative entry breaks pointedness.  The repeated
    names follow, in order of first appearance.
    """
    pairs = list(pairs)
    problems = []
    for name, deg in pairs:
        if not deg.entries:
            problems.append(f"variable {name} has degree 0; the ring would not be connected")
        elif any(c < 0 for _, c in deg.entries):
            problems.append(f"variable {name} has degree {deg} outside the nonnegative orthant")
    counts = Counter(name for name, _ in pairs)
    problems += [f"variable name {name} appears {n} times" for name, n in counts.items() if n > 1]
    return problems


def exponent_vectors(var_degrees: list[tuple[int, ...]], target: tuple[int, ...]):
    """Every exponent vector in the bounding box whose weighted degree sum is the target."""
    if any(t < 0 for t in target):
        return
    bounds = []
    for d in var_degrees:
        limit = min((t // c for t, c in zip(target, d) if c), default=0)
        bounds.append(max(limit, 0))
    width = len(target)
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        weighted = tuple(
            sum(e * d[i] for e, d in zip(exps, var_degrees)) for i in range(width)
        )
        if weighted == target:
            yield exps


def count_monomials(var_degrees: list[tuple[int, ...]], target: tuple[int, ...]) -> int:
    """Count exponent vectors whose weighted degree sum hits the target exactly."""
    return sum(1 for _ in exponent_vectors(var_degrees, target))


def lazy_mul_q(q, s):
    """``mul_q`` by its per-degree definition, as the library computed it before.

    Each candidate degree g of the windowed factor pulls the lazy
    coefficient at g - v for every stored term v.
    """
    from bdfkalc import LaurentSeries

    coeffs: dict[Degree, int] = {}
    for g in candidate_degrees(s.support, s.window):
        total = 0
        for v, cv in s.terms:
            u = g - v
            if u.is_nonnegative():
                total += q.coeff(u) * cv
        if total:
            coeffs[g] = total
    return LaurentSeries(s.window, s.support, coeffs)


def random_degree(rng, coords: int, lo: int, hi: int) -> Degree:
    return Degree.of(enumerate((rng.randint(lo, hi) for _ in range(coords)), start=1))


def random_window(rng, coords: int, max_entry: int, max_ceiling: int = 2) -> Window:
    size = rng.randint(1, max_ceiling)
    return Window.of(random_degree(rng, coords, 0, max_entry) for _ in range(size))


def random_series(rng, window: Window, coords: int, max_terms: int = 3):
    """A sparse windowed series with small random support lower bounds."""
    from bdfkalc import LaurentSeries

    bounds = [random_degree(rng, coords, -1, 1) for _ in range(rng.randint(1, 2))]
    support = SupportDescriptor.of(bounds)
    spots = candidate_degrees(support, window)
    coeffs: dict[Degree, int] = {}
    if spots:
        for _ in range(rng.randint(0, max_terms)):
            value = rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs[rng.choice(spots)] = value
    return LaurentSeries(window, support, coeffs)


def taylor_terms(module, ring) -> set[tuple[int, Degree]]:
    """Every (index, degree) at which the module's Taylor resolution has a term.

    A free module sits at index 0 at its shifts, a shift moves the degrees,
    a sum takes the union, R/I has a term at (|S|, deg lcm S) for every
    subset S of the generators, the empty one included, and I at
    (|S| - 1, deg lcm S) for S nonempty.  Every subset is listed with
    ``combinations``, so this is for ideals with a handful of generators.
    """
    if isinstance(module, FreeModule):
        return {(0, h) for h in module.shifts}
    if isinstance(module, ShiftedModule):
        return {(i, g + module.by) for i, g in taylor_terms(module.inner, ring)}
    if isinstance(module, DirectSum):
        return set().union(*(taylor_terms(part, ring) for part in module.parts))
    assert isinstance(module, (MonomialQuotient, MonomialIdeal)), module
    drop = 0 if isinstance(module, MonomialQuotient) else 1
    terms = set()
    for size in range(drop, len(module.gens) + 1):
        for subset in itertools.combinations(module.gens, size):
            top: dict[int, int] = {}
            for gen in subset:
                for pos, e in gen.entries:
                    top[pos] = max(top.get(pos, 0), e)
            terms.add((size - drop, ring.degree(Degree.of(top))))
    return terms


def taylor_kpolynomial(module, ring) -> dict:
    """The K-polynomial of a module tree as {degree: coefficient}, one term per subset of each leaf's generators.

    R/I is sum_S (-1)^|S| t^(deg lcm S) over every subset S of its
    generators, the empty one included, and I is
    sum_(S nonempty) (-1)^(|S| - 1) t^(deg lcm S): the alternating sum of
    the Taylor resolution.  A free module is sum_h t^h, a shift moves
    every degree, and a sum adds its parts; a repeated degree keeps its
    multiplicity, which ``taylor_terms`` (a set) drops.
    """
    terms: dict[Degree, int] = {}

    def add(g: Degree, c: int) -> None:
        terms[g] = terms.get(g, 0) + c

    if isinstance(module, FreeModule):
        for h in module.shifts:
            add(h, 1)
    elif isinstance(module, ShiftedModule):
        for g, c in taylor_kpolynomial(module.inner, ring).items():
            add(g + module.by, c)
    elif isinstance(module, DirectSum):
        for part in module.parts:
            for g, c in taylor_kpolynomial(part, ring).items():
                add(g, c)
    else:
        assert isinstance(module, (MonomialQuotient, MonomialIdeal)), module
        ideal = isinstance(module, MonomialIdeal)
        for size in range(int(ideal), len(module.gens) + 1):
            for subset in itertools.combinations(module.gens, size):
                top: dict[int, int] = {}
                for gen in subset:
                    for pos, e in gen.entries:
                        top[pos] = max(top.get(pos, 0), e)
                add(ring.degree(Degree.of(top)), (-1) ** (size - ideal))
    return {g: c for g, c in terms.items() if c}


def reference_grlex_key(d: Degree, width: int) -> tuple:
    """Graded-lex order on dense coordinates: the total, then coordinates 1..width; width >= max index."""
    return (d.total(), d.dense(width))


def reference_labels(module, ring, g: Degree) -> list:
    """The labels (path, monomial) of the module's piece in degree g, unsorted, node by node.

    A free module tags each shift's monomials with the shift's index, a
    shift reads its inner piece at g - by, a sum puts each part's index in
    front of the part's paths, and an ideal or a quotient keeps the ring's
    monomials some generator does or does not divide, under the empty path.
    """
    if isinstance(module, FreeModule):
        return [((tag,), m) for tag, h in enumerate(module.shifts) for m in monomials_of_degree(ring, g - h)]
    if isinstance(module, ShiftedModule):
        return reference_labels(module.inner, ring, g - module.by)
    if isinstance(module, DirectSum):
        return [((k,) + path, m) for k, part in enumerate(module.parts) for path, m in reference_labels(part, ring, g)]
    inside = isinstance(module, MonomialIdeal)
    return [((), m) for m in monomials_of_degree(ring, g) if any(leq_q(gen, m) for gen in module.gens) == inside]


def reference_basis(module, ring, g: Degree) -> list:
    """The labels of the piece at g in basis order: by monomial in graded-lex order, then by path."""
    width = len(ring.variables)
    return sorted(reference_labels(module, ring, g), key=lambda l: (reference_grlex_key(l[1], width), l[0]))


def reference_lower_bounds(module, ring) -> SupportDescriptor:
    """Support lower bounds node by node: the shifts, moved, united, the generators' degrees or 0."""
    if isinstance(module, FreeModule):
        return SupportDescriptor.of(module.shifts)
    if isinstance(module, ShiftedModule):
        return SupportDescriptor.of(lb + module.by for lb in reference_lower_bounds(module.inner, ring).lower_bounds)
    if isinstance(module, DirectSum):
        return SupportDescriptor.of(lb for part in module.parts for lb in reference_lower_bounds(part, ring).lower_bounds)
    if isinstance(module, MonomialIdeal):
        return SupportDescriptor.of(ring.degree(gen) for gen in module.gens)
    return SupportDescriptor.of([ZERO])


def reference_multiply(module, label, pos: int):
    """x_pos times a reference label, or None when the product lies in a quotient's ideal."""
    path, m = label
    if isinstance(module, ShiftedModule):
        return reference_multiply(module.inner, label, pos)
    if isinstance(module, DirectSum):
        inner = reference_multiply(module.parts[path[0]], (path[1:], m), pos)
        return None if inner is None else ((path[0],) + inner[0], inner[1])
    product = m + unit(pos)
    if isinstance(module, MonomialQuotient) and any(leq_q(gen, product) for gen in module.gens):
        return None
    return path, product


def reference_leaf_paths(module) -> list:
    """The path of every leaf in tree order, as ``reference_labels`` tags them: one per free shift."""
    if isinstance(module, FreeModule):
        return [(tag,) for tag in range(len(module.shifts))]
    if isinstance(module, ShiftedModule):
        return reference_leaf_paths(module.inner)
    if isinstance(module, DirectSum):
        return [(k,) + path for k, part in enumerate(module.parts) for path in reference_leaf_paths(part)]
    return [()]


def reference_describe(module, ring) -> str:
    """The printed form of a module tree, node by node."""
    if isinstance(module, FreeModule):
        return "free(" + ", ".join(map(str, module.shifts)) + ")" if module.shifts else "0"
    if isinstance(module, ShiftedModule):
        return f"shift({reference_describe(module.inner, ring)}, {module.by})"
    if isinstance(module, DirectSum):
        return "sum(" + ", ".join(reference_describe(part, ring) for part in module.parts) + ")"
    if isinstance(module, MonomialIdeal):
        return "ideal(" + ", ".join(map(ring.describe, module.gens)) + ")"
    return "quotient(" + ", ".join(map(ring.describe, module.gens)) + ")" if module.gens else "ring"


def reference_koszul_rows(module, ring, seq: tuple[int, ...], n: int, g: Degree):
    """Sparse rows of the n-th Koszul differential in degree g from the reference basis and action.

    ``seq`` must be strictly increasing.  Wedges come in ``combinations``
    order and each wedge's labels in reference basis order.
    """

    def basis(k):
        return [
            (w, label)
            for w in itertools.combinations(seq, k)
            for label in reference_basis(module, ring, g - sum(map(ring.degree_of, w), ZERO))
        ]

    source, target = basis(n), basis(n - 1)
    row_of = {element: row for row, element in enumerate(target)}
    rows = [[] for _ in target]
    for col, (w, label) in enumerate(source):
        for slot, pos in enumerate(w):
            image = reference_multiply(module, label, pos)
            if image is not None:
                rows[row_of[w[:slot] + w[slot + 1 :], image]].append((col, (-1) ** slot))
    return rows


def schubert_ring(n: int):
    """k[z_ij] for 1 <= i, j <= n, row by row, with deg z_ij = e_(2i-1) + e_(2j).

    Row i and column j own their components, so a window sees finitely
    many rows and columns.
    """
    from bdfkalc import RingSpec

    return RingSpec.of((f"z[{i},{j}]", Degree.of({2 * i - 1: 1, 2 * j: 1})) for i in range(1, n + 1) for j in range(1, n + 1))


def schubert_window(n: int) -> Window:
    """The window with ceiling n - i on components 2i - 1 and 2i: the degrees of G_w for w in S_n."""
    return Window.of([Degree.of({c: n - i for i in range(1, n + 1) for c in (2 * i - 1, 2 * i)})])


def essential_set(w: tuple[int, ...]) -> list[tuple[int, int]]:
    """Fulton's essential set of w in one-line notation: the southeast corners of its Rothe diagram."""
    n = len(w)

    def diagram(i, j):
        return i <= n and j <= n and w[i - 1] > j and w.index(j) + 1 > i

    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if diagram(i, j) and not diagram(i + 1, j) and not diagram(i, j + 1)
    ]


def schubert_generators(w: tuple[int, ...], n: int) -> list[Degree]:
    """The reduced generators of J_w on the n x n ring of ``schubert_ring``.

    For each (i, j) of the essential set, the antidiagonal of every
    (r_w(i, j) + 1)-minor of the northwest i x j corner (Knutson-Miller,
    Gröbner geometry of Schubert polynomials, 2005); z_ij sits at
    position (i - 1) n + j.
    """
    gens = set()
    for i, j in essential_set(w):
        rank = sum(1 for k in range(i) if w[k] <= j)
        for rows in itertools.combinations(range(1, i + 1), rank + 1):
            for cols in itertools.combinations(range(1, j + 1), rank + 1):
                gens.add(Degree.of({(a - 1) * n + b: 1 for a, b in zip(rows, reversed(cols))}))
    return [g for g in gens if not any(h != g and leq_q(h, g) for h in gens)]


def grothendieck_polynomial(w: tuple[int, ...]) -> dict:
    """The double Grothendieck polynomial G_w, with x_i read as t^(e_(2i-1)) and y_j as t^(e_(2j)).

    The longest permutation of S_n has prod_(i+j<=n) (1 - x_i y_j); below
    it, G_w is pi_i G_(w s_i) at an ascent i of w, where the isobaric
    divided difference pi_i f = (x_(i+1) f - x_i s_i f) / (x_(i+1) - x_i)
    (Lascoux-Schützenberger, 1982).  A term is a pair of exponent tuples.
    """
    n = len(w)
    ascent = next((k for k in range(n - 1) if w[k] < w[k + 1]), None)
    poly: dict[tuple, int] = {}
    if ascent is None:
        poly[(0,) * n, (0,) * n] = 1
        for i, j in itertools.product(range(n), repeat=2):
            if i + j < n - 1:
                for (x, y), c in list(poly.items()):
                    key = (x[:i] + (x[i] + 1,) + x[i + 1 :], y[:j] + (y[j] + 1,) + y[j + 1 :])
                    poly[key] = poly.get(key, 0) - c
        return poly
    i = ascent
    for (x, y), c in grothendieck_polynomial(w[:i] + (w[i + 1], w[i]) + w[i + 2 :]).items():
        # x_(i+1) times the term is x_i^p x_(i+1)^q; the difference quotient of p != q is a geometric sum
        p, q = x[i], x[i + 1] + 1
        lo, hi = sorted((p, q))
        for k in range(hi - lo):
            key = (x[:i] + (lo + k, hi - 1 - k) + x[i + 2 :], y)
            poly[key] = poly.get(key, 0) + (c if p < q else -c)
    return {key: c for key, c in poly.items() if c}


def grothendieck_series(w: tuple[int, ...]) -> dict:
    """G_w as {degree: coefficient} in the grading of ``schubert_ring``."""
    return {
        Degree.of([(2 * i - 1, e) for i, e in enumerate(x, 1)] + [(2 * j, e) for j, e in enumerate(y, 1)]): c
        for (x, y), c in grothendieck_polynomial(w).items()
    }
