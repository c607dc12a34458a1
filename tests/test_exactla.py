import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from dirhom.exactla import (
    FieldError, Matrix, PrimeField, QQ, Residue, Subspace, _quotient, _rref,
    column_reduction, field_from_name, is_prime, kernel_basis, rank, solve,
)

from oracles import (
    coordinates, express, image_basis, induced_on_quotient, pivot_columns, pivots, quotient_map,
)


def M(rows, field=QQ):
    return Matrix.from_rows(field, rows)


class TestFields:
    def test_rationals_lowest_terms(self):
        v = QQ.of(2) / QQ.of(4)
        assert v == Fraction(1, 2)
        assert v.denominator > 0

    def test_prime_field_range(self):
        f = PrimeField(7)
        v = f.of(-3)
        assert 0 <= v.value < 7
        assert v + f.of(3) == f.zero

    def test_prime_field_inverse(self):
        f = PrimeField(1009)
        v = f.of(123)
        assert v / v == f.one

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(10)

    def test_field_from_name(self):
        assert field_from_name("q") is QQ
        assert field_from_name("fp:13").p == 13
        with pytest.raises(FieldError):
            field_from_name("fp:12")
        with pytest.raises(FieldError):
            field_from_name("r64")
        # a modulus that is not an integer
        for name in ("fp:x", "fp:", "fp:1e3"):
            with pytest.raises(FieldError, match="unknown field"):
                field_from_name(name)

    def test_is_prime_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_is_trial_division_below_20000(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
        assert [n for n in range(20_000) if is_prime(n)] == [n for n in range(20_000) if trial(n)]

    def test_is_prime_rejects_strong_pseudoprimes_to_small_bases(self):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7,
        # 2152302898747 to every prime base up to 11
        assert not is_prime(3215031751) and not is_prime(2152302898747)
        assert is_prime(10**24 + 7) and PrimeField(10**24 + 7).p == 10**24 + 7

    def test_modulus_beyond_the_exact_range_is_too_large(self):
        # 26 digits: at least the bound 3,317,044,064,679,887,385,961,981
        with pytest.raises(FieldError, match="modulus too large"):
            field_from_name("fp:10000000000000000000000013")


class TestMatrix:
    def test_entry_bounds(self):
        m = M([[1, 2], [3, 4]])
        assert m.entry(1, 0) == 3
        with pytest.raises(IndexError):
            m.entry(2, 0)
        with pytest.raises(IndexError):
            m.entry(-1, 0)

    def test_matmul_and_vec(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert (a @ b) == M([[2, 1], [4, 3]])
        assert a.matvec((1, 1)) == (QQ.of(3), QQ.of(7))

    def test_empty_shapes(self):
        z = Matrix.zeros(QQ, 0, 3)
        assert rank(z) == 0
        assert (z @ Matrix.zeros(QQ, 3, 2)).rows == 0

    def test_equal_matrices_share_a_characteristic(self):
        # complexes number their differentials by content, so equal entries
        # over two fields must not make equal matrices; two objects for one
        # field still do
        rows = [[1, 0], [0, 1]]
        assert M(rows) != M(rows, PrimeField(2))
        assert M(rows, PrimeField(2)) != M(rows, PrimeField(3))
        assert Matrix.zeros(QQ, 0, 2) != Matrix.zeros(PrimeField(7), 0, 2)
        assert M(rows, PrimeField(7)) == M(rows, PrimeField(7))
        assert hash(M(rows, PrimeField(7))) == hash(M(rows, PrimeField(7)))


class TestRank:
    def test_proportional_rows(self):
        assert rank(M([[1, 2], [2, 4]])) == 1

    def test_zero_matrix(self):
        assert rank(Matrix.zeros(QQ, 3, 5)) == 0

    def test_identity(self):
        for n in (1, 2, 5):
            assert rank(Matrix.identity(QQ, n)) == n


class TestKernel:
    def test_proportional_rows_kernel(self):
        ker = kernel_basis(M([[1, 2], [2, 4]]))
        assert ker.dim == 1
        expected = Subspace.span(QQ, 2, [(2, -1)])
        assert Subspace.span(QQ, 2, ker.basis) == expected

    def test_invertible_kernel_empty(self):
        assert kernel_basis(M([[1, 1], [0, 1]])).dim == 0

    def test_zero_full_kernel(self):
        assert kernel_basis(Matrix.zeros(QQ, 2, 3)).dim == 3


def solve_one(m: Matrix, b) -> tuple | None:
    x = solve(m, Matrix.from_columns(m.field, [b], length=len(b)))
    return None if x is None else x.column(0)


class TestSolve:
    def test_identity(self):
        m = Matrix.identity(QQ, 3)
        assert solve_one(m, (1, 2, 3)) == (QQ.of(1), QQ.of(2), QQ.of(3))

    def test_zero_no_solution(self):
        assert solve_one(Matrix.zeros(QQ, 2, 2), (1, 0)) is None

    def test_underdetermined_verified_by_remultiplication(self):
        m = M([[1, 1]])
        x = solve_one(m, (3,))
        assert m.matvec(x) == (QQ.of(3),)

    def test_dimension_mismatch(self):
        with pytest.raises(FieldError):
            solve_one(M([[1, 1]]), (1, 2))


def quotient_of(sub: Subspace) -> Matrix:
    """`_quotient` by the reduced rows of sub, each under its pivot."""
    rows, pivot_list = sub._echelon_form()
    return _quotient(dict(zip(pivot_list, rows)), sub.ambient_dim, sub.field)[0]


class TestQuotient:
    def test_zero_subspace_gives_identity(self):
        assert _quotient({}, 3, QQ) == (Matrix.identity(QQ, 3), [0, 1, 2])

    def test_full_subspace_gives_no_rows(self):
        q = quotient_of(Subspace.span(QQ, 2, [(1, 0), (0, 1)]))
        assert q.rows == 0 and q.cols == 2

    def test_diagonal_kernel(self):
        q = quotient_of(Subspace(QQ, 2, [(1, 1)]))
        assert q.rows == 1
        assert q.matvec((1, 1)) == (QQ.zero,)
        # kernel of q recovers the input span
        assert Subspace.span(QQ, 2, kernel_basis(q).basis) == \
            Subspace.span(QQ, 2, [(1, 1)])

    def test_dependent_basis_rejected(self):
        with pytest.raises(FieldError):
            Subspace(QQ, 2, [(1, 1), (2, 2)])


class TestInducedOnQuotient:
    def test_identity_equal_subs(self):
        sub = Subspace(QQ, 2, [(1, 0)])
        g = induced_on_quotient(Matrix.identity(QQ, 2), sub, sub)
        assert g == Matrix.identity(QQ, 1)

    def test_full_target_no_rows(self):
        g = induced_on_quotient(Matrix.identity(QQ, 2), Subspace.span(QQ, 2, []),
                                Subspace.span(QQ, 2, [(1, 0), (0, 1)]))
        assert g.rows == 0

    def test_commuting_square(self):
        f = M([[1, 2], [0, 1]])
        src = Subspace(QQ, 2, [(1, 0)])
        dst = Subspace(QQ, 2, [(1, 0)])
        g = induced_on_quotient(f, src, dst)
        q = quotient_map(2, src)
        assert g @ q == quotient_map(2, dst) @ f

    def test_non_preserving_rejected(self):
        f = M([[0, 1], [1, 0]])
        sub = Subspace(QQ, 2, [(1, 0)])
        with pytest.raises(FieldError):
            induced_on_quotient(f, sub, sub)


class TestInvariants:
    def test_rank_nullity_random(self):
        rng = random.Random(7)
        for _ in range(25):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            m = Matrix(QQ, r, c,
                       [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
            assert rank(m) + kernel_basis(m).dim == m.cols

    def test_rank_nullity_prime_field(self):
        f = PrimeField(13)
        rng = random.Random(8)
        for _ in range(15):
            m = Matrix.from_rows(f, [[f.of(rng.randint(0, 12)) for _ in range(4)]
                                     for _ in range(3)])
            assert rank(m) + kernel_basis(m).dim == 4

    def test_quotient_then_kernel_recovers_subspace(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            sub = Subspace.span(QQ, n, vecs)
            q = quotient_of(sub)
            assert Subspace.span(QQ, n, kernel_basis(q).basis) == sub

    def test_cross_field_agreement_4x4(self):
        # entries bounded by 3: every minor is below 10007, so ranks agree
        f = PrimeField(10007)
        rng = random.Random(10)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            mq = M(rows)
            mp = Matrix.from_rows(f, [[f.of(v) for v in row] for row in rows])
            assert rank(mq) == rank(mp)
            assert kernel_basis(mq).dim == kernel_basis(mp).dim

    def test_invert_round_trip(self):
        m = M([[2, 1], [1, 1]])
        assert m @ solve(m, Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 2)


# -- differential tests against the dense reference ------------------------------


def dense_rref(rows, ncols, zero, col_order=None):
    """Reference: dense Gauss-Jordan, first nonzero pending row as pivot row."""
    order = list(range(ncols)) if col_order is None else list(col_order)
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in order:
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def dense_matmul(a: Matrix, b: Matrix) -> tuple:
    """Reference: the dense triple loop, as rows of field scalars."""
    z = a.field.zero
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = z
            for k in range(a.cols):
                if a.data[i][k] != z:
                    acc = acc + a.data[i][k] * b.data[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


FIELDS = (QQ, PrimeField(7), PrimeField(1009))


@st.composite
def scalars(draw, field):
    """Mostly zeros and units, as the package's matrices are."""
    n = draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
    if field is QQ and draw(st.booleans()):
        return Fraction(n, draw(st.integers(1, 4)))
    return field.of(n)


def random_rows(draw, field, rows, cols):
    return [[draw(scalars(field)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def matrices(draw):
    """(field, kind, rows): sparse, low-rank products, or full row rank."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["sparse", "low_rank", "full_row_rank"]))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if kind == "sparse":
        data = random_rows(draw, field, nrows, ncols)
    elif kind == "low_rank":
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        left = Matrix(field, nrows, k, random_rows(draw, field, nrows, k))
        right = Matrix(field, k, ncols, random_rows(draw, field, k, ncols))
        data = [list(r) for r in dense_matmul(left, right)]
    else:
        nrows = min(nrows, ncols)
        # unit upper-triangular block times a permutation, then filler columns
        data = random_rows(draw, field, nrows, ncols)
        perm = draw(st.permutations(range(ncols)))
        for i in range(nrows):
            for j in range(i):
                data[i][perm[j]] = field.zero
            data[i][perm[i]] = field.one
    zero_rows = draw(st.sets(st.integers(0, max(0, nrows - 1)), max_size=2))
    for i in zero_rows:
        if i < nrows:
            data[i] = [field.zero] * ncols
    if kind == "full_row_rank":
        data = [r for i, r in enumerate(data) if i not in zero_rows]
    return field, kind, data, ncols


class TestAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_rref_rows_and_pivots_identical(self, m, data):
        field, kind, rows, ncols = m
        order = None
        if data.draw(st.booleans()):
            order = data.draw(st.permutations(range(ncols)))
        got = _rref(rows, ncols, field.zero, order)
        assert got == dense_rref(rows, ncols, field.zero, order)
        assert all(type(a) is type(field.zero) for r in got[0] for a in r)
        if kind == "full_row_rank":
            assert len(got[1]) == len(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 6),
           st.integers(0, 6), st.data())
    def test_product_identical(self, field, r, k, c, data):
        a = Matrix(field, r, k, random_rows(data.draw, field, r, k))
        b = Matrix(field, k, c, random_rows(data.draw, field, k, c))
        product = a @ b
        assert product.data == dense_matmul(a, b)
        assert product.is_zero() == all(v == field.zero for row in product.data for v in row)
        for j in range(c):
            assert a.matvec(b.column(j)) == product.column(j)

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_coordinates_recover_coefficients(self, m, data):
        field, _, rows, ncols = m
        sub = Subspace.span(field, ncols, rows)
        coeffs = [data.draw(scalars(field)) for _ in range(sub.dim)]
        v = [sum((c * b[j] for c, b in zip(coeffs, sub.basis)), start=field.zero)
             for j in range(ncols)]
        assert sub.contains(v)
        assert coordinates(sub, v) == tuple(coeffs)
        if sub.dim < ncols:
            outside = [field.zero] * ncols
            free = next(j for j in range(ncols) if j not in pivots(sub))
            outside[free] = field.one
            assert not sub.contains(outside)
            assert coordinates(sub, outside) is None


def dense_kernel(rows, ncols, field) -> tuple:
    """Reference: one kernel vector per free column of the dense rref."""
    rref, pivots = dense_rref(rows, ncols, field.zero)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for row, c in zip(rref, pivots):
            v[c] = -row[j]
        basis.append(tuple(v))
    return tuple(basis)


def reference_quotient(sub: Subspace):
    """Reference: the change of basis to [basis | unit columns off the pivots],
    inverted; rows dim.. of the inverse are the quotient map, and the unit
    columns are its section."""
    field, n = sub.field, sub.ambient_dim
    _, pivots = dense_rref(sub.basis, n, field.zero)
    comp = [j for j in range(n) if j not in pivots]
    eye = Matrix.identity(field, n)
    units = [eye.column(j) for j in comp]
    inv = solve(Matrix.from_columns(field, list(sub.basis) + units, length=n), eye)
    q = Matrix(field, len(comp), n, inv.data[sub.dim:])
    return q, Matrix.from_columns(field, units, length=n)


def random_vectors(draw, field, count, n):
    return [tuple(r) for r in random_rows(draw, field, count, n)]


class TestSparseAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_structural_operations(self, m, data):
        field, _, rows, ncols = m
        a = Matrix(field, len(rows), ncols, rows)
        dense = tuple(tuple(r) for r in rows)
        assert a.data == dense
        assert a.transpose().data == tuple(tuple(r[j] for r in dense) for j in range(ncols))
        assert a.columns() == [a.column(j) for j in range(ncols)]
        assert Matrix.from_columns(field, a.columns(), length=a.rows) == a
        assert (-a).data == tuple(tuple(-v for v in r) for r in dense)
        b = Matrix(field, a.rows, 2, random_rows(data.draw, field, a.rows, 2))
        assert a.augment(b).data == tuple(r1 + r2 for r1, r2 in zip(dense, b.data))
        c = Matrix(field, 2, ncols, random_rows(data.draw, field, 2, ncols))
        assert a.stack(c).data == dense + c.data
        picked = data.draw(st.lists(st.integers(0, max(0, a.rows - 1)), max_size=3)) if a.rows else []
        cols = data.draw(st.lists(st.integers(0, max(0, ncols - 1)), max_size=3)) if ncols else []
        if len(set(cols)) < len(cols):
            with pytest.raises(FieldError):
                a.block(picked, cols)
        else:
            assert a.block(picked, cols).data == tuple(tuple(dense[i][j] for j in cols)
                                                       for i in picked)
        assert all(a.entry(i, j) == dense[i][j] for i in range(a.rows) for j in range(ncols))
        dense_cols = [tuple(r[j] for r in dense) for j in range(ncols)]
        assert a.is_zero() == all(v == field.zero for r in dense for v in r)
        # sparse columns: the stored values, copies that the caller may change
        p = field.characteristic
        sparse = a.sparse_columns()
        assert [{i: field.of(v) for i, v in col.items()} for col in sparse] == \
            [{i: v for i, v in enumerate(col) if v != field.zero} for col in dense_cols]
        for col in sparse:
            col.clear()
        sparse.append({0: 1})
        assert a.data == dense and a.columns() == dense_cols
        # unreduced ints: values that are 0 mod p, or explicit zeros over Q, are dropped
        raw = [{i: v + (2 * p if p else 0) for i, v in col.items()} for col in a.sparse_columns()]
        for j, col in enumerate(raw):
            for i in range(a.rows):
                if i not in col and data.draw(st.booleans()):
                    col[i] = data.draw(st.sampled_from([0, p, -3 * p])) if p else 0
        assert Matrix.from_sparse_columns(field, a.rows, raw) == a
        # unit columns, with None for zero columns, against the dense 0/1 matrix
        targets = [data.draw(st.one_of(st.none(), st.integers(0, a.rows - 1)))
                   if a.rows else None for _ in range(ncols)]
        units = Matrix.unit_columns(field, a.rows, targets)
        assert units.data == tuple(tuple(field.one if t == i else field.zero for t in targets)
                                   for i in range(a.rows))
        with pytest.raises(IndexError):
            Matrix.unit_columns(field, a.rows, [*targets, a.rows])
        # matvec against the dense product
        v = [data.draw(scalars(field)) for _ in range(ncols)]
        assert a.matvec(v) == tuple(sum((r[j] * v[j] for j in range(ncols)), field.zero)
                                    for r in dense)
        # equal matrices hash equally, whichever constructor built them
        same = (Matrix.from_columns(field, dense_cols, length=a.rows),
                Matrix.from_sparse_columns(field, a.rows, raw), a.transpose().transpose(),
                a @ Matrix.identity(field, ncols))
        assert all(b == a and hash(b) == hash(a) for b in same)
        assert hash(units) == hash(Matrix.from_rows(field, units.data, cols=ncols))

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_basis_is_the_dense_kernel(self, m):
        field, _, rows, ncols = m
        ker = kernel_basis(Matrix(field, len(rows), ncols, rows))
        assert ker.basis == dense_kernel(rows, ncols, field)
        assert Subspace(field, ncols, ker.basis) == ker

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_column_reduction_image_has_distinct_lows(self, m):
        field, _, rows, ncols = m
        a = Matrix(field, len(rows), ncols, rows)
        r = column_reduction(a)
        assert all(max(col) == low and col[low] == 1 for low, col in r.image.items())
        assert len(r.image) + len(r.kernel) == ncols
        assert r.free == [max(v) for v in r.kernel]
        image = Matrix.from_sparse_columns(field, a.rows, list(r.image.values()))
        assert image_basis(image) == image_basis(a)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_text_rows_print_the_field_scalars(self, m):
        field, _, rows, ncols = m
        a = Matrix(field, len(rows), ncols, rows)
        assert a.text_rows() == [[str(v) for v in row] for row in a.data]

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_pivot_columns_are_the_dense_pivots(self, m, data):
        # as the oracle of the homology representatives uses it: boundaries
        # first, then cycles
        field, _, rows, ncols = m
        img = image_basis(Matrix(field, len(rows), ncols, rows).transpose())
        ker = kernel_basis(Matrix(field, 2, ncols, random_rows(data.draw, field, 2, ncols)))
        columns = img.basis + ker.basis
        dense = [[v[i] for v in columns] for i in range(ncols)]
        assert pivot_columns(img, ker) == dense_rref(dense, len(columns), field.zero)[1]

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_quotient_is_the_reference(self, m):
        field, _, rows, ncols = m
        sub = Subspace.span(field, ncols, rows)
        assert quotient_of(sub) == reference_quotient(sub)[0]

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_quotient_map_is_the_reference(self, m):
        field, _, rows, ncols = m
        sub = Subspace.span(field, ncols, rows)
        assert quotient_map(ncols, sub) == reference_quotient(sub)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 6), st.data())
    def test_induced_on_quotient_is_the_reference(self, field, n_src, n_dst, data):
        f = Matrix(field, n_dst, n_src, random_rows(data.draw, field, n_dst, n_src))
        src = Subspace.span(field, n_src, random_vectors(data.draw, field,
                                                         data.draw(st.integers(0, 3)), n_src))
        extra = random_vectors(data.draw, field, data.draw(st.integers(0, 2)), n_dst)
        dst = Subspace.span(field, n_dst, [f.matvec(v) for v in src.basis] + extra)
        q_dst, _ = reference_quotient(dst)
        _, section = reference_quotient(src)
        assert induced_on_quotient(f, src, dst) == q_dst @ f @ section


def dense_solve(rows, ncols, b, field):
    """Reference: one right-hand side through the dense rref of [rows | b];
    free coordinates 0, None when b is outside the column space."""
    aug = [list(r) + [v] for r, v in zip(rows, b)]
    rref, pivots = dense_rref(aug, ncols + 1, field.zero)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for row, c in zip(rref, pivots):
        x[c] = row[ncols]
    return tuple(x)


def right_hand_sides(draw, field, rows, ncols):
    """Columns in the span of `rows` (as columns of a matrix), maybe one
    outside it, maybe none at all."""
    a = Matrix(field, len(rows), ncols, rows)
    cols = [a.matvec(x) for x in random_vectors(draw, field, draw(st.integers(0, 3)), ncols)]
    units = Matrix.identity(field, len(rows)).columns()
    outside = [u for u in units if dense_solve(rows, ncols, u, field) is None]
    if outside and draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), draw(st.sampled_from(outside)))
    return cols


class TestMatrixSolveAgainstPerColumnReference:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_solve_is_the_per_column_reference(self, m, data):
        field, _, rows, ncols = m
        cols = right_hand_sides(data.draw, field, rows, ncols)
        b = Matrix.from_columns(field, cols, length=len(rows))
        got = solve(Matrix(field, len(rows), ncols, rows), b)
        expected = [dense_solve(rows, ncols, c, field) for c in cols]
        if None in expected:
            assert got is None
        else:
            assert (got.rows, got.cols) == (ncols, len(cols))
            assert got.columns() == expected

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_express_is_the_per_column_reference(self, m, data):
        field, _, rows, ncols = m
        # an unreduced basis when the rows are independent, else their rref
        if len(dense_rref(rows, ncols, field.zero)[1]) == len(rows):
            sub = Subspace(field, ncols, rows)
        else:
            sub = Subspace.span(field, ncols, rows)
        columns = [[v[i] for v in sub.basis] for i in range(ncols)]
        cols = right_hand_sides(data.draw, field, columns, sub.dim)
        got = express(sub, Matrix.from_columns(field, cols, length=ncols))
        expected = [dense_solve(columns, sub.dim, c, field) for c in cols]
        if None in expected:
            assert got is None
        else:
            assert (got.rows, got.cols) == (sub.dim, len(cols))
            assert got.columns() == expected
        for c, e in zip(cols, expected):
            assert coordinates(sub, c) == e
            assert sub.contains(c) == (e is not None)

    def test_no_right_hand_side_is_no_elimination(self, monkeypatch):
        import dirhom.exactla as la
        calls = []
        real = la._lows
        monkeypatch.setattr(la, "_lows", lambda *a: calls.append(1) or real(*a))
        for field in FIELDS:
            m = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 1]])
            assert solve(m, Matrix.zeros(field, 2, 0)) == Matrix.zeros(field, 3, 0)
        assert not calls


# -- Q with entries that are not units ---------------------------------------------
#
# Over Q the kernel keeps integral entries as ints and makes a Fraction only
# when a pivot other than +-1 divides a row.  These matrices mix ints that
# are not units with proper fractions, so every int/Fraction path runs.


@st.composite
def rational_entries(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5, 6]))
    return Fraction(draw(st.integers(-7, 7)), draw(st.integers(2, 5)))


@st.composite
def rational_matrices(draw):
    """(rows, ncols) over Q: sparse, or a product of rank below the size."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [[draw(rational_entries()) for _ in range(ncols)] for _ in range(nrows)], ncols
    k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    left = Matrix(QQ, nrows, k, [[draw(rational_entries()) for _ in range(k)]
                                 for _ in range(nrows)])
    right = Matrix(QQ, k, ncols, [[draw(rational_entries()) for _ in range(ncols)]
                                  for _ in range(k)])
    return [list(r) for r in (left @ right).data], ncols


def fractions_of(rows):
    return [[Fraction(a) for a in r] for r in rows]


class TestRationalAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(), st.data())
    def test_rref_is_the_dense_rref(self, m, data):
        rows, ncols = m
        order = list(range(ncols))
        if data.draw(st.booleans()):
            order = data.draw(st.permutations(range(ncols)))
        done, pivots = _rref(rows, ncols, QQ.zero, order)
        ref_rows, ref_pivots = dense_rref(fractions_of(rows), ncols, QQ.zero, order)
        assert pivots == ref_pivots
        assert done == ref_rows

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices())
    def test_kernel_and_image_bases(self, m):
        rows, ncols = m
        a = Matrix(QQ, len(rows), ncols, rows)
        assert kernel_basis(a).basis == dense_kernel(fractions_of(rows), ncols, QQ)
        columns = [[r[j] for r in fractions_of(rows)] for j in range(ncols)]
        assert image_basis(a).basis == tuple(
            tuple(r) for r in dense_rref(columns, len(rows), QQ.zero)[0])

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices(), st.data())
    def test_solve_and_express(self, m, data):
        rows, ncols = m
        rows = fractions_of(rows)
        cols = right_hand_sides(data.draw, QQ, rows, ncols)
        b = Matrix.from_columns(QQ, cols, length=len(rows))
        got = solve(Matrix(QQ, len(rows), ncols, rows), b)
        expected = [dense_solve(rows, ncols, c, QQ) for c in cols]
        assert (got is None) == (None in expected)
        if got is not None:
            assert got.columns() == expected
        sub = Subspace.span(QQ, ncols, rows)
        columns = [[v[i] for v in sub.basis] for i in range(ncols)]
        vecs = right_hand_sides(data.draw, QQ, columns, sub.dim)
        got = express(sub, Matrix.from_columns(QQ, vecs, length=ncols))
        expected = [dense_solve(columns, sub.dim, v, QQ) for v in vecs]
        assert (got is None) == (None in expected)
        if got is not None:
            assert got.columns() == expected

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices())
    def test_quotient_is_the_reference(self, m):
        rows, ncols = m
        sub = Subspace.span(QQ, ncols, rows)
        assert quotient_of(sub) == reference_quotient(sub)[0]

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices())
    def test_quotient_map_is_the_reference(self, m):
        rows, ncols = m
        sub = Subspace.span(QQ, ncols, rows)
        assert quotient_map(ncols, sub) == reference_quotient(sub)[0]


def test_every_rational_scalar_leaves_as_a_fraction():
    # integral entries, which the kernel holds as ints
    m = M([[1, -1, 0], [0, 2, 1], [1, 1, 2]])
    sub = Subspace(QQ, 3, [(1, 0, -1), (0, 1, 1)])
    ker = kernel_basis(M([[1, 1, 0], [0, 0, 0]]))
    img = image_basis(m)
    scalars = [m.entry(0, 0), m.entry(0, 2)]
    for matrix in (m, m @ m, -m, m.transpose(), Matrix.identity(QQ, 2),
                   quotient_of(sub), solve(m, m), solve(m, Matrix.identity(QQ, 3))):
        scalars += [a for r in matrix.data for a in r]
        scalars += list(matrix.column(0))
        scalars += [a for c in matrix.columns() for a in c]
    for space in (sub, ker, img):
        scalars += [a for v in space.basis for a in v]
    scalars += list(m.matvec((1, 2, 3)))
    assert scalars and all(type(a) is Fraction for a in scalars)


def test_sparse_columns_are_taken_in_the_field():
    columns = [{0: 1, 2: -1}, {}, {1: 7, 2: 2}]
    dense = [[1, 0, -1], [0, 0, 0], [0, 7, 2]]
    for field in FIELDS:
        m = Matrix.from_sparse_columns(field, 3, columns)
        assert m == Matrix.from_columns(field, [[field.of(a) for a in c] for c in dense])
    assert Matrix.from_sparse_columns(PrimeField(7), 3, columns).column(2)[1] == PrimeField(7).zero


@pytest.mark.parametrize("field, bad", [
    (PrimeField(7), Fraction(1, 2)), (PrimeField(7), Residue(3, 5)), (QQ, Residue(3, 7))])
def test_scalars_of_another_field_are_rejected(field, bad):
    with pytest.raises(FieldError):
        Matrix(field, 1, 2, [[bad, field.one]])
    with pytest.raises(FieldError):
        Matrix.from_columns(field, [[bad]])
    with pytest.raises(FieldError):
        Subspace(field, 1, [[bad]])


def test_integral_fractions_and_ints_are_taken_in_a_prime_field():
    f7 = PrimeField(7)
    m = Matrix(f7, 1, 3, [[Fraction(8), Fraction(-14, 2), Residue(3, 7)]])
    assert m.data == ((f7.of(1), f7.zero, f7.of(3)),)
    assert rank(m) == 1


def test_matrices_and_subspaces_are_immutable():
    m = M([[1, 2], [3, 4]])
    sub = Subspace(QQ, 2, [(1, 1)])
    for obj in (m, sub, Matrix.identity(QQ, 2), kernel_basis(m)):
        for name in (*type(obj).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
