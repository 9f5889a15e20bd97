"""Exact ranks of integer matrices given as sparse rows.

A row is a list of (column, value) pairs with nonzero values.  Over the
rationals and over a prime field alike, rank is taken per diagonal block:
``blocks`` groups rows and columns by the connected components of the
pairs and builds only each block as a dense matrix.  One elimination
serves both fields: each row below the pivot row becomes
pivot * row - a * (pivot row).  Over the rationals the result is divided
exactly by the previous pivot (fraction-free, Bareiss), in
arbitrary-precision integers; over a prime field it is reduced mod p, so
no inverse is taken.  A Koszul differential of a monomial module splits
this way by the fine grading, into blocks far smaller than the whole
matrix, and ``composes_to_zero`` tests a.b = 0 from the pairs alone.
``zero_matrix``, ``sparse_rows``, ``matmul`` and ``is_zero`` work on
dense matrices and serve as oracles.
"""

from __future__ import annotations

from itertools import compress

IntMatrix = list[list[int]]
SparseRows = list[list[tuple[int, int]]]


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def is_zero(matrix: IntMatrix) -> bool:
    return not any(map(any, matrix))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {inner}x{cols}")
    sparse_b = sparse_rows(b)
    out = zero_matrix(rows, cols)
    for row, target in zip(sparse_rows(a), out):
        for k, coeff in row:
            for j, v in sparse_b[k]:
                target[j] += coeff * v
    return out


def sparse_rows(matrix: IntMatrix) -> SparseRows:
    """Each row's nonzero entries as (column, value) pairs, found by compress."""
    cols = range(len(matrix[0]) if matrix else 0)
    return [[(j, row[j]) for j in compress(cols, row)] for row in matrix]


def composes_to_zero(a: SparseRows, b: SparseRows) -> bool:
    """Whether a.b = 0, given both as sparse rows: each product row is summed in a dict."""
    for row in a:
        composite: dict[int, int] = {}
        for k, coeff in row:
            for j, v in b[k]:
                composite[j] = composite.get(j, 0) + coeff * v
        if any(composite.values()):
            return False
    return True


def blocks(rows: SparseRows) -> list[IntMatrix]:
    """The diagonal blocks of the matrix with these rows, as dense matrices.

    Two columns fall in one block when some row has entries in both
    (joined by union-find); a row goes with the block of its columns, and
    an empty row with none.  Each block keeps its rows in order and its
    columns ascending.  Up to a permutation of rows and columns the matrix
    is the direct sum of the blocks and zeros, so its rank over any field
    is the sum of theirs.
    """
    parent: dict[int, int] = {}

    def find(j: int) -> int:
        while parent.setdefault(j, j) != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows:
        for j, _ in row:
            parent[find(j)] = find(row[0][0])
    rows_of: dict[int, SparseRows] = {}
    for row in filter(None, rows):
        rows_of.setdefault(find(row[0][0]), []).append(row)
    cols_of: dict[int, list[int]] = {}
    for j in sorted(parent):
        cols_of.setdefault(find(j), []).append(j)
    return [
        [[entries.get(j, 0) for j in cols_of[root]] for entries in map(dict, members)]
        for root, members in rows_of.items()
    ]


def rank_fraction_free(rows: SparseRows) -> int:
    """Rank over the rationals: the sum of the ranks of the diagonal blocks."""
    return sum(_eliminate(block, 0) for block in blocks(rows))


def _eliminate(block: IntMatrix, p: int) -> int:
    """Rank of a dense block over the rationals (p = 0) or over the field with p elements.

    Each row below the pivot row becomes pivot * row - a * (pivot row),
    where a is its entry in the pivot column.  Over the rationals the
    result is divided exactly by the previous pivot (Bareiss), so entries
    stay integers; over F_p (p a certified prime) it is reduced mod p, and
    a row with a = 0 is left as it is, so no inverse is needed.
    """
    rows = [[entry % p for entry in row] if p else list(row) for row in block]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for row in rows[rank + 1 :]:
            a = row[col]
            if p and not a:
                continue
            for j in range(col + 1, n):
                entry = pivot * row[j] - a * top[j]
                row[j] = entry % p if p else entry // prev
        prev = pivot
        rank += 1
    return rank


class CharacteristicError(ValueError):
    """A field characteristic that is neither 0 nor a certified prime."""


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly for every n below _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for n below _MR_LIMIT; larger n raise CharacteristicError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise CharacteristicError(
            f"characteristic {n} is too large: primality is certified only below {_MR_LIMIT}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> None:
    """Raise CharacteristicError unless p is 0 or a prime."""
    if p != 0 and not is_prime(p):
        raise CharacteristicError(f"characteristic must be 0 or a prime, got {p}")


def rank_mod_p(rows: SparseRows, p: int) -> int:
    """Rank over the field with p elements: the sum of the ranks of the diagonal blocks."""
    if not is_prime(p):
        raise CharacteristicError(f"rank mod p needs a prime p, got {p}")
    return sum(_eliminate(block, p) for block in blocks(rows))


def rank(rows: SparseRows, characteristic: int = 0) -> int:
    if characteristic == 0:
        return rank_fraction_free(rows)
    return rank_mod_p(rows, characteristic)
