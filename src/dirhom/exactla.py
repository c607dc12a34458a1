"""Exact linear algebra over the rationals and over prime fields.

Every rank, kernel, image, quotient and linear solve used anywhere in this
package goes through this module.  Rational scalars are `fractions.Fraction`
(always lowest terms, positive denominator); prime-field scalars are residues
in ``[0, p)`` with modular inverses.  There is no floating point anywhere:
exactness verdicts downstream (image = kernel tests) are bit-decisions and
must not depend on tolerances.

`Matrix` stores its entries densely, but the work is sparse: boundary,
action and relation matrices are mostly zeros, so elimination and products
skip them.  `_eliminate` is the one elimination kernel.  It runs
Gauss-Jordan on rows held as ``{column: value}`` dicts; over F_p the values
are plain ints in ``[0, p)`` (``Residue`` objects are converted on entry and
back on exit), over Q they are `Fraction`.  Zero tests are truthiness tests.

Pivot columns are taken in the caller's column order, and only the pivot
*row* is chosen freely: the sparsest pending row that is nonzero in the
current column, which keeps fill-in low.  The reduced row echelon form is
unique for a fixed column order, so the row choice never shows in a result.
Choosing the column as well (Markowitz-style) would cut fill-in further,
but it changes which columns are pivots, and with them every kernel basis,
homology representative and action matrix the package prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Raised on malformed scalars, shape mismatches or dependent bases."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class Residue:
    """Element of F_p, stored as the canonical representative in [0, p)."""

    value: int
    p: int

    def _check(self, other: "Residue") -> None:
        if not isinstance(other, Residue) or other.p != self.p:
            raise FieldError(f"mixed-field arithmetic: {self!r} vs {other!r}")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value * other.value) % self.p, self.p)

    def __truediv__(self, other: "Residue") -> "Residue":
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        inv = pow(other.value, self.p - 2, self.p)
        return Residue((self.value * inv) % self.p, self.p)

    def __neg__(self) -> "Residue":
        return Residue((-self.value) % self.p, self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p})"


class RationalField:
    """The field of rational numbers."""

    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n: int) -> Fraction:
        return Fraction(n)

    def __repr__(self) -> str:
        return "Q"


class PrimeField:
    """The finite field F_p for a prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = Residue(0, p)
        self.one = Residue(1, p)
        self.name = f"fp:{p}"

    def of(self, n: int) -> Residue:
        return Residue(n % self.p, self.p)

    def __repr__(self) -> str:
        return f"F_{self.p}"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field descriptor: ``q`` or ``fp:<prime>``."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise FieldError(f"unknown field {name!r} (expected 'q' or 'fp:<prime>')")


# -- sparse elimination --------------------------------------------------------
#
# Sparse rows and vectors are dicts {column: value} that hold only nonzero
# values: ints in [0, p) over F_p, Fractions over Q.  `p` is 0 for Q.


def _modulus(zero) -> int:
    """p for the prime field whose zero is `zero`, 0 for the rationals."""
    return zero.p if isinstance(zero, Residue) else 0


def _sparse(vec, p: int) -> dict:
    """Sparse form of a vector of field scalars."""
    if p:
        return {j: a.value for j, a in enumerate(vec) if a.value}
    return {j: a for j, a in enumerate(vec) if a}


def _dense(row: dict, n: int, zero, p: int) -> list:
    """Field scalars of a sparse row of length n; values are reduced mod p here."""
    out = [zero] * n
    if p:
        for j, a in row.items():
            a %= p
            if a:
                out[j] = Residue(a, p)
    else:
        for j, a in row.items():
            if a:
                out[j] = a
    return out


def _axpy(target: dict, f, row: dict, p: int) -> None:
    """target -= f * row in place, dropping the entries that cancel."""
    get = target.get
    if p:
        for j, a in row.items():
            x = (get(j, 0) - f * a) % p
            if x:
                target[j] = x
            else:
                del target[j]
    else:
        for j, a in row.items():
            x = get(j, 0) - f * a
            if x:
                target[j] = x
            else:
                del target[j]


def _eliminate(rows: list[dict], order: Iterable[int], p: int):
    """Gauss-Jordan on sparse rows, which it modifies; returns (rows, pivots).

    Pivot columns are taken in `order`; the pivot row for a column is the
    sparsest pending row that is nonzero there.  Returned row k is 1 at
    ``pivots[k]`` and 0 at every other pivot column.  When every row gets a
    pivot, or `order` names every column, the result is the reduced row
    echelon form for that column order, whichever rows were chosen.
    """
    pending = list(range(len(rows)))
    done: list[dict] = []
    pivots: list[int] = []
    for c in order:
        if not pending:
            break
        hits = [i for i in pending if c in rows[i]]
        if not hits:
            continue
        i = min(hits, key=lambda k: len(rows[k]))
        pending.remove(i)
        row = rows[i]
        a = row[c]
        if a != 1:
            if p:
                inv = pow(a, -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            else:
                row = {j: v / a for j, v in row.items()}
        for k in hits:
            if k != i:
                _axpy(rows[k], rows[k][c], row, p)
        done.append(row)
        pivots.append(c)
    # Forward elimination left row k zero at the pivots before it; clear the
    # pivots after it, last pivot first.
    for k in range(len(done) - 1, 0, -1):
        c, row = pivots[k], done[k]
        for above in done[:k]:
            f = above.get(c)
            if f:
                _axpy(above, f, row, p)
    return done, pivots


def _residual(v: dict, rows: list[dict], pivots: list[int], p: int) -> dict:
    """v minus its projection on reduced rows: empty iff v lies in their span.

    Rows in reduced echelon form are 1 at their own pivot and 0 at the
    others, so the only candidate combination has coefficient v[pivot].
    """
    r = dict(v)
    for row, c in zip(rows, pivots):
        f = v.get(c)
        if f:
            _axpy(r, f, row, p)
    return r


class Matrix:
    """Immutable dense matrix over a fixed field.

    Entries are field scalars; integers given to the constructor are coerced
    through the field.  Out-of-bounds entry access raises, never wraps.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, entries: Iterable[Iterable]):
        if rows < 0 or cols < 0:
            raise FieldError("negative matrix shape")
        data = []
        for row in entries:
            r = tuple(self._coerce(field, v) for v in row)
            if len(r) != cols:
                raise FieldError(f"row length {len(r)} != cols {cols}")
            data.append(r)
        if len(data) != rows:
            raise FieldError(f"row count {len(data)} != rows {rows}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_scalars(cls, field, rows: int, cols: int, data: Iterable[Sequence]) -> "Matrix":
        """A matrix from rows of field scalars computed here, without coercion."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", tuple(map(tuple, data)))
        return m

    @staticmethod
    def _coerce(field, v):
        if isinstance(v, int):
            return field.of(v)
        return v

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise FieldError("from_rows with no rows needs an explicit column count")
            cols = len(rows[0])
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_columns(cls, field, columns: Sequence[Sequence], length: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if length is None:
            if not cols:
                raise FieldError("from_columns with no columns needs an explicit length")
            length = len(cols[0])
        for c in cols:
            if len(c) != length:
                raise FieldError("ragged columns")
        return cls(field, length, len(cols),
                   [[cols[j][i] for j in range(len(cols))] for i in range(length)])

    @classmethod
    def unit_columns(cls, field, rows: int, targets: Sequence[int | None]) -> "Matrix":
        """The 0/1 matrix whose column j is the unit vector at row ``targets[j]``,
        or zero where that is None: the matrix of a map between two bases."""
        z, o = field.zero, field.one
        data = [[z] * len(targets) for _ in range(rows)]
        for j, i in enumerate(targets):
            if i is not None:
                data[i][j] = o
        return cls._from_scalars(field, rows, len(targets), data)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self.data[i][j]

    def __getitem__(self, ij):
        return self.entry(*ij)

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.data[i]

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise FieldError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.field.zero
        p = _modulus(zero)
        right = [tuple(_sparse(r, p).items()) for r in other.data]
        out = []
        for r in self.data:
            acc: dict = {}
            get = acc.get
            for k, a in _sparse(r, p).items():
                for j, b in right[k]:
                    acc[j] = get(j, 0) + a * b
            out.append(_dense(acc, other.cols, zero, p))
        return Matrix._from_scalars(self.field, self.rows, other.cols, out)

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise FieldError(f"vector length {len(v)} != cols {self.cols}")
        zero = self.field.zero
        p = _modulus(zero)
        nz = _sparse([self._coerce(self.field, x) for x in v], p).items()
        if p:
            out = {i: sum(row[k].value * a for k, a in nz) for i, row in enumerate(self.data)}
        else:
            out = {i: sum(row[k] * a for k, a in nz) for i, row in enumerate(self.data)}
        return tuple(_dense(out, self.rows, zero, p))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise FieldError("shape mismatch in +")
        return Matrix(self.field, self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise FieldError("shape mismatch in -")
        return Matrix(self.field, self.rows, self.cols,
                      [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      [[-a for a in r] for r in self.data])

    def scale(self, c) -> "Matrix":
        c = self._coerce(self.field, c)
        return Matrix(self.field, self.rows, self.cols,
                      [[c * a for a in r] for r in self.data])

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise FieldError("row mismatch in augment")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise FieldError("column mismatch in stack")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.data + other.data)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _rref(rows: list[list], ncols: int, zero, col_order: Sequence[int] | None = None):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows of field scalars in and out; `_eliminate` does the work.
    `col_order` controls which columns are eligible for pivots first; it is
    how callers obtain a second, independent particular solution.
    """
    p = _modulus(zero)
    order = range(ncols) if col_order is None else col_order
    done, pivots = _eliminate([_sparse(r, p) for r in rows], order, p)
    return [_dense(r, ncols, zero, p) for r in done], pivots


def rank(m: Matrix) -> int:
    """Rank of `m` over its field."""
    _, pivots = _rref([list(r) for r in m.data], m.cols, m.field.zero)
    return len(pivots)


def _vectors(field, ambient_dim: int, vectors: Sequence[Sequence]) -> list[tuple]:
    """Vectors as tuples of field scalars, each checked to have the ambient length."""
    vecs = [tuple(Matrix._coerce(field, x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise FieldError(f"basis vector length {len(v)} != ambient {ambient_dim}")
    return vecs


class Subspace:
    """A subspace of a coordinate space, given by an independent basis."""

    __slots__ = ("field", "ambient_dim", "basis", "_rref_rows", "_pivots", "_elimination")

    def __init__(self, field, ambient_dim: int, basis: Sequence[Sequence]):
        vecs = _vectors(field, ambient_dim, basis)
        rref_rows, pivots = _rref(vecs, ambient_dim, field.zero)
        if len(rref_rows) != len(vecs):
            raise FieldError("basis not independent")
        self._set(field, ambient_dim, vecs, rref_rows, pivots)

    def _set(self, field, ambient_dim, basis, rref_rows, pivots) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_rref_rows", tuple(tuple(r) for r in rref_rows))
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_elimination", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).data)

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        """Subspace spanned by possibly dependent vectors; its basis is their rref."""
        rref_rows, pivots = _rref(_vectors(field, ambient_dim, vectors), ambient_dim, field.zero)
        sub = object.__new__(cls)
        sub._set(field, ambient_dim, [tuple(r) for r in rref_rows], rref_rows, pivots)
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _eliminated(self):
        """(rref rows, pivots, transforms) as sparse rows, computed once.

        Row-reducing [basis | identity] gives rref row k together with the
        combination of basis vectors that equals it, transform k.
        """
        if self._elimination is None:
            p = _modulus(self.field.zero)
            n = self.ambient_dim
            one = 1 if p else Fraction(1)
            rows = [_sparse(v, p) for v in self.basis]
            for j, row in enumerate(rows):
                row[n + j] = one
            done, pivots = _eliminate(rows, range(n), p)
            object.__setattr__(self, "_elimination", (
                [{c: a for c, a in r.items() if c < n} for r in done], pivots,
                [{c - n: a for c, a in r.items() if c >= n} for r in done]))
        return self._elimination

    def _sparse_vector(self, v: Sequence) -> dict:
        if len(v) != self.ambient_dim:
            raise FieldError("vector length mismatch")
        return _sparse([Matrix._coerce(self.field, x) for x in v], _modulus(self.field.zero))

    def contains(self, v: Sequence) -> bool:
        sv = self._sparse_vector(v)
        rows, pivots, _ = self._eliminated()
        return not _residual(sv, rows, pivots, _modulus(self.field.zero))

    def coordinates(self, v: Sequence) -> tuple | None:
        """The coefficients of v in `basis`, or None when v is not in the subspace."""
        sv = self._sparse_vector(v)
        rows, pivots, transforms = self._eliminated()
        zero = self.field.zero
        p = _modulus(zero)
        if _residual(sv, rows, pivots, p):
            return None
        x: dict = {}
        for t, c in zip(transforms, pivots):
            f = sv.get(c)
            if f:
                _axpy(x, -f, t, p)
        return tuple(_dense(x, self.dim, zero, p))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self._rref_rows == other._rref_rows)

    def __hash__(self):
        return hash((self.ambient_dim, self._rref_rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of the null space {v : m v = 0}."""
    z, o = m.field.zero, m.field.one
    rref_rows, pivots = _rref([list(r) for r in m.data], m.cols, z)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    basis = []
    for j in free:
        v = [z] * m.cols
        v[j] = o
        for row, p in zip(rref_rows, pivots):
            v[p] = -row[j]
        basis.append(tuple(v))
    return Subspace(m.field, m.cols, basis)


def image_basis(m: Matrix) -> Subspace:
    """Column space of `m`."""
    return Subspace.span(m.field, m.rows, m.columns())


def solve_in_image(m: Matrix, b: Sequence, column_order: Sequence[int] | None = None):
    """Some x with m x = b, or None when b is not in the image of m.

    `column_order` permutes pivot selection, yielding a different particular
    solution when the system is underdetermined.
    """
    if len(b) != m.rows:
        raise FieldError(f"rhs length {len(b)} != rows {m.rows}")
    z = m.field.zero
    b = [Matrix._coerce(m.field, x) for x in b]
    aug = [list(r) + [b[i]] for i, r in enumerate(m.data)]
    order = list(range(m.cols)) if column_order is None else list(column_order)
    rref_rows, pivots = _rref(aug, m.cols + 1, z, col_order=order + [m.cols])
    if m.cols in pivots:
        return None
    x = [z] * m.cols
    for row, p in zip(rref_rows, pivots):
        x[p] = row[m.cols]
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise FieldError("only square matrices invert")
    aug = [list(r) + list(i) for r, i in zip(m.data, Matrix.identity(m.field, m.rows).data)]
    rref_rows, pivots = _rref(aug, 2 * m.cols, m.field.zero,
                              col_order=list(range(m.cols)))
    if len(pivots) != m.cols:
        raise FieldError("matrix not invertible")
    return Matrix(m.field, m.rows, m.cols, [r[m.cols:] for r in rref_rows])


def _quotient_data(sub: Subspace):
    """Quotient map, a section of it, and the complement coordinates."""
    n = sub.ambient_dim
    field = sub.field
    comp = [j for j in range(n) if j not in set(sub._pivots)]
    cols = [list(v) for v in sub.basis]
    eye = Matrix.identity(field, n)
    cols += [list(eye.column(j)) for j in comp]
    change = Matrix.from_columns(field, cols, length=n)
    inv = invert(change)
    q = Matrix(field, len(comp), n, inv.data[sub.dim:])
    section = Matrix.from_columns(field, [eye.column(j) for j in comp], length=n)
    return q, section, comp


def quotient_map(ambient_dim: int, sub: Subspace) -> Matrix:
    """Surjection q with kernel exactly `sub`; target dim = ambient - dim(sub).

    Representatives are the coordinates not used as pivots by the subspace,
    so the map is deterministic in the basis order.
    """
    if sub.ambient_dim != ambient_dim:
        raise FieldError(f"subspace ambient {sub.ambient_dim} != {ambient_dim}")
    q, _, _ = _quotient_data(sub)
    return q


def induced_on_quotient(f: Matrix, src_sub: Subspace, dst_sub: Subspace) -> Matrix:
    """The unique g with g . q_src = q_dst . f, given f(src_sub) <= dst_sub."""
    if src_sub.ambient_dim != f.cols:
        raise FieldError("source subspace ambient dim != cols of f")
    if dst_sub.ambient_dim != f.rows:
        raise FieldError("target subspace ambient dim != rows of f")
    for v in src_sub.basis:
        if not dst_sub.contains(f.matvec(v)):
            raise FieldError("f does not preserve the subspaces")
    q_src, section, _ = _quotient_data(src_sub)
    q_dst, _, _ = _quotient_data(dst_sub)
    g = q_dst @ f @ section
    if g @ q_src != q_dst @ f:
        raise AssertionError("induced quotient map failed the commuting-square identity")
    return g
