"""Exact linear algebra over the rationals and over prime fields.

Every rank, kernel, image, quotient and linear solve used anywhere in this
package goes through this module.  Rational scalars are `fractions.Fraction`
(always lowest terms, positive denominator); prime-field scalars are residues
in ``[0, p)`` with modular inverses.  There is no floating point anywhere:
exactness verdicts downstream (image = kernel tests) are bit-decisions and
must not depend on tolerances.

Boundary, action and relation matrices are mostly zeros, so a `Matrix`
holds only its nonzero values, as sparse columns that are ``{row: value}``
dicts (a `Subspace` its basis vectors, alike): plain ints in ``[0, p)``
over F_p, and over Q plain ints while a value is integral, a `Fraction`
only where a caller gave one or a pivot other than +-1 divided a vector.
Columns are the form in which every differential is assembled, reduced,
multiplied, checked as a chain map and pushed into homology; only the cold
readers of rows (the row constructor, `data`, `row`, `text_rows`,
`transpose`, `solve` and `quotient_map`) transpose.  Zero tests are
truthiness tests.

One pivot rule serves the whole module: sparse vectors are reduced one
after the other against a ``{lowest nonzero: stored vector}`` dict, each
stored vector scaled to 1 at its low (`_lows`), and a rank is the number of
lows.  The reduced row echelon form (`_echelon`, behind `image_basis`,
`solve`, `pivot_columns` and `Subspace`) is that reduction on the columns
numbered last first, so that each low is a leading column, plus the one
back substitution in ascending order of lows (`_back_substitute`, which
homology shares).  It is unique for a fixed column order, so the order in
which vectors are reduced never shows in a result; choosing pivot columns
by fill-in (Markowitz-style) would change every kernel basis, homology
representative and action matrix the package prints.  Systems are solved
for a whole matrix of right-hand sides at once: `solve(m, b)` reduces
[m | b] once; `Subspace.express(m)` is `solve` on the basis matrix and
`invert(m)` is `solve` on the identity, both unique solutions; the
single-vector `solve_in_image`, `coordinates`, `contains` and `matvec` are
one-line wrappers.

Field scalars (``Residue`` over F_p) appear only where values enter
(constructors, vectors passed in, bimodule relation coefficients), where the
one conversion `_value` turns each into a stored value and rejects a scalar
of another field, and where they leave (`entry`, `data`, `row`, `column(s)`,
`basis`, the vector wrappers), and over Q every value leaves as a
`Fraction`, integral or not; inside the package they leave only through
`Matrix.entry`, for the coefficients of bimodule relations; the CLI's JSON
prints `Matrix.text_rows`, formatted from the stored values as the field
scalars print.

Homology reads each differential d off one column reduction
(`column_reduction`, persistence style): the same rule on the columns of d,
with each column's combination of the columns of d tracked (`_reduce`).  A
column that reduces to zero gives the kernel vector that is 1 at it, its
last nonzero, and otherwise lives on earlier columns that do not; the others
give an image basis with distinct lowest rows.  For
H_i = ker d_i / im d_{i+1}, a boundary's lowest row is the free column of
the last kernel vector in which it has a coordinate, so the boundaries'
kernel coordinates are their entries at the free columns, and
`homology_from_reductions` back-substitutes them (`_back_substitute`) to
give the map to classes; the kernel vectors at free columns that are not a
low are the representatives.  `homology_classes`, the one push of chains
into homology, takes cycles as ``{row: value}`` sparse columns of stored
values (the form of `Matrix.sparse_columns` and of the representatives): it
reads their kernel coordinates at the free columns, checks entry by entry
that the kernel vectors give each column back and applies the map to
classes, with no elimination.

A basis map, which sends each basis element to +-1 times another or to
zero (an edge action, the map of a morphism, an inclusion or projection
of basis subsets), is given as signed positions, never as a matrix:
`_renamed` re-indexes a sparse column by one, and `_chain_map_witness`
checks that two of them commute with the differentials by reading the
columns of both in place, with no product and no copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class FieldError(ValueError):
    """Raised on malformed scalars, shape mismatches or dependent bases."""


class ChainError(ValueError):
    """Malformed cube chain or misuse of a chain operation, such as pushing a
    vector that is not a cycle into homology (`homology_classes`)."""


# The errors of the sequence and Kunneth layers live here, beside the two
# above, so that the CLI maps every error to its exit code without loading
# those layers; `exactseq` and `ez` re-export them.
class SequenceError(ValueError):
    """Structural misuse while assembling sequences."""


class ExactnessError(AssertionError):
    """A theorem-guaranteed sequence failed verification: a bug, not data."""


class ComparisonError(AssertionError):
    """A theorem-guaranteed comparison identity failed: a bug signal."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the primes 2..41, exact below
    3,317,044,064,679,887,385,961,981, the least strong pseudoprime to all
    of them; a larger n raises FieldError."""
    if n >= 3_317_044_064_679_887_385_961_981:
        raise FieldError(f"modulus too large: {n} (the primality test is exact below 3.3e24)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = 2^s d with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
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
    characteristic = 0
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
        self.p = self.characteristic = p
        self.zero = Residue(0, p)
        self.one = Residue(1, p)
        self.name = f"fp:{p}"

    def of(self, n: int) -> Residue:
        return Residue(n % self.p, self.p)

    def __repr__(self) -> str:
        return f"F_{self.p}"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field descriptor: ``q`` or ``fp:<prime>``, the prime in decimal digits."""
    if name == "q":
        return QQ
    if name.startswith("fp:") and name[3:].isdecimal():
        return PrimeField(int(name[3:]))
    raise FieldError(f"unknown field {name!r} (expected 'q' or 'fp:<prime>')")


# -- sparse vectors and elimination --------------------------------------------
#
# Sparse vectors (columns, rows) are dicts {index: value} that hold only
# nonzero values: ints in [0, p) over F_p; over Q, ints where the value is
# integral and Fractions elsewhere.  `p` is 0 for Q.


def _modulus(field) -> int:
    """p for a prime field, 0 for the rationals."""
    return field.characteristic


def _neg(a, p: int):
    return -a % p if p else -a


def _value(a, p: int):
    """The stored value of a field scalar or int: an int in [0, p) over F_p;
    over Q an int while integral and a `Fraction` otherwise.  A `Residue` of
    another field, or a non-integral `Fraction` over F_p, raises FieldError."""
    if type(a) is int:
        return a % p if p else a
    if isinstance(a, Residue):
        if a.p != p:
            raise FieldError(f"{a!r} is not a scalar of {f'F_{p}' if p else 'Q'}")
        return a.value
    if p:
        if isinstance(a, Fraction) and a.denominator == 1:
            a = a.numerator
        if not isinstance(a, int):
            raise FieldError(f"{a!r} is not a scalar of F_{p}")
        return a % p
    if type(a) is not Fraction:
        a = Fraction(a)
    return a.numerator if a.denominator == 1 else a


def _sparse(vec, p: int, n: int | None = None) -> dict:
    """Sparse form of a vector of field scalars or ints, whose length must
    be n when n is given."""
    if n is not None and len(vec) != n:
        raise FieldError(f"vector length {len(vec)} != {n}")
    out = {}
    for j, a in enumerate(vec):
        a = _value(a, p)
        if a:
            out[j] = a
    return out


def _scalar(a, p: int):
    """The field scalar of a nonzero stored value."""
    return Residue(a, p) if p else a if type(a) is Fraction else Fraction(a)


def _dense(vec: dict, n: int, zero, p: int) -> list:
    """Field scalars of a sparse vector of length n."""
    out = [zero] * n
    for j, a in vec.items():
        out[j] = _scalar(a, p)
    return out


def _transpose(rows, ncols: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[j][i] = a
    return out


def _mul(left: list[dict], right: list[dict], p: int) -> list[dict]:
    """The product of two matrices given as sparse rows; on sparse columns
    the arguments swap: the columns of A @ B are ``_mul(B's, A's)``."""
    out = []
    for r in left:
        acc: dict = {}
        for k, a in r.items():
            for j, b in right[k].items():
                # a first term is stored, not added to 0: 0 + Fraction is slow
                acc[j] = acc[j] + a * b if j in acc else a * b
        if p:
            out.append({j: v for j, a in acc.items() if (v := a % p)})
        else:
            out.append({j: a for j, a in acc.items() if a})
    return out


def _axpy(target: dict, f, row: dict, p: int) -> None:
    """target -= f * row in place, dropping the entries that cancel.

    An entry new to target is the product alone, stored without adding it
    to 0: the product of nonzero values is nonzero, and 0 - Fraction is slow.
    """
    f = _neg(f, p)
    for j, a in row.items():
        if j in target:
            x = target[j] + f * a
            if p:
                x %= p
            if x:
                target[j] = x
            else:
                del target[j]
        else:
            target[j] = f * a % p if p else f * a


def _scaled(vec: dict, a, p: int) -> dict:
    """vec divided by the nonzero value a, which is not 1: a -1 negates it,
    so over Q integral vectors stay ints."""
    if p:
        inv = pow(a, -1, p)
        return {j: v * inv % p for j, v in vec.items()}
    if a == -1:
        return {j: -v for j, v in vec.items()}
    inv = 1 / Fraction(a)
    return {j: v * inv for j, v in vec.items()}


def _lows(vectors: list[dict], p: int) -> dict[int, dict]:
    """Reduce sparse vectors, which it modifies, one after the other into
    ``{low: vector}``, as many as their rank: while a vector's highest
    column is the low of one stored before it, that one times its entry
    there is subtracted; a vector left nonzero is scaled to 1 at its
    highest column, its low, and stored."""
    image: dict[int, dict] = {}
    for vec in vectors:
        while vec:
            low = max(vec)
            hit = image.get(low)
            if hit is None:
                a = vec[low]
                image[low] = vec if a == 1 else _scaled(vec, a, p)
                break
            _axpy(vec, vec[low], hit, p)
    return image


def _back_substitute(rows_by_low: dict[int, dict], p: int) -> dict[int, dict]:
    """Back substitution in ascending order of lows on rows, which it
    modifies, each 1 at its low (its highest column): the result, ``{low:
    row}`` in that order, has each row 0 at the other lows."""
    done: dict[int, dict] = {}
    for low in sorted(rows_by_low):
        row = rows_by_low[low]
        for c in [c for c in row if c in done]:
            _axpy(row, row[c], done[c], p)
        done[low] = row
    return done


def _echelon(vectors: Iterable[dict], n: int, p: int):
    """The reduced row echelon form of sparse vectors of length n, pivots
    ascending, as (rows, pivots): `_lows` on copies, sparsest first, with
    column c numbered n - 1 - c so each low is a leading column, then
    `_back_substitute`."""
    last = n - 1
    done = _back_substitute(_lows(sorted(({last - c: a for c, a in v.items()} for v in vectors),
                                         key=len), p), p)
    lows = [*reversed(done)]
    return ([{last - c: a for c, a in done[low].items()} for low in lows],
            [last - low for low in lows])


def _null_vectors(rows: list[dict], pivots: list[int], n: int, p: int) -> list[dict]:
    """One vector per free (non-pivot) column j of reduced rows of length n:
    1 at j, 0 at the other free columns, minus the entry j of row c at each
    pivot c.  They are independent by construction and span the vectors
    that every row annihilates."""
    pivset = set(pivots)
    vecs = {j: {j: 1} for j in range(n) if j not in pivset}
    for row, c in zip(rows, pivots):
        for j, a in row.items():
            if j != c:
                vecs[j][c] = _neg(a, p)
    return list(vecs.values())


class Reduction(NamedTuple):
    """The column reduction of a matrix (`column_reduction`)."""

    kernel: list[dict]        # one null vector per column that reduces to zero
    free: list[int]           # those columns, ascending: kernel[k] is 1 at free[k]
    image: dict[int, dict]    # {low: reduced column}, 1 at its lowest row `low`


def _reduce(columns: list[dict], p: int) -> Reduction:
    """Reduce sparse columns, which it modifies, left to right.

    While a column's lowest nonzero row is the low of a reduced column
    before it, that column times its entry there is subtracted; a column
    left nonzero is scaled to 1 at its low and stored under it.  Each
    column's combination of the columns given is tracked alongside it, so a
    column j that reduces to zero gives the null vector that is 1 at j and
    otherwise lives on earlier columns that did not: the one the reduced row
    echelon form gives for the free column j.
    """
    kernel: list[dict] = []
    free: list[int] = []
    image: dict[int, dict] = {}
    combos: dict[int, dict] = {}
    for j, col in enumerate(columns):
        combo = {j: 1}
        while col:
            low = max(col)
            hit = image.get(low)
            if hit is None:
                break
            f = col[low]
            _axpy(col, f, hit, p)
            _axpy(combo, f, combos[low], p)
        if col:
            a = col[low]
            if a != 1:
                col, combo = _scaled(col, a, p), _scaled(combo, a, p)
            image[low] = col
            combos[low] = combo
        else:
            kernel.append(combo)
            free.append(j)
    return Reduction(kernel, free, image)


class _Frozen:
    """Immutable objects with four slots, set once when built.

    Each subclass gets, when it is defined, a `_fill` made from the setters
    of its four slot descriptors, which it calls one after the other: every
    instance is built through it, by `_of` on a new object without the
    checks of __init__, or at the end of __init__.  Assigning an attribute
    afterwards raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        set0, set1, set2, set3 = (cls.__dict__[name].__set__ for name in cls.__slots__)
        new = object.__new__

        def fill(obj, a, b, c, d):
            set0(obj, a)
            set1(obj, b)
            set2(obj, c)
            set3(obj, d)
            return obj

        def of(klass, a, b, c, d):
            """An instance from values computed here, skipping the checks of __init__."""
            return fill(new(klass), a, b, c, d)

        cls._fill = staticmethod(fill)
        cls._of = classmethod(of)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Matrix(_Frozen):
    """Immutable matrix over a fixed field, held as sparse columns.

    Entries given to the constructors are field scalars or ints, coerced
    through the field.  Out-of-bounds entry access raises, never wraps.
    """

    __slots__ = ("field", "rows", "cols", "_cols")

    def __init__(self, field, rows: int, cols: int, entries: Iterable[Iterable]):
        if rows < 0 or cols < 0:
            raise FieldError("negative matrix shape")
        p = _modulus(field)
        data = [_sparse(tuple(row), p, cols) for row in entries]
        if len(data) != rows:
            raise FieldError(f"row count {len(data)} != rows {rows}")
        self._fill(self, field, rows, cols, _transpose(data, cols))

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls._of(field, rows, cols, [{} for _ in range(cols)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls.unit_columns(field, n, range(n))

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
        if length is None:
            if not columns:
                raise FieldError("from_columns with no columns needs an explicit length")
            length = len(columns[0])
        p = _modulus(field)
        return cls._of(field, length, len(columns), [_sparse(c, p, length) for c in columns])

    @classmethod
    def from_sparse_columns(cls, field, rows: int, columns: Sequence[dict]) -> "Matrix":
        """The matrix whose column j holds ``columns[j]``, a ``{row: value}``
        dict of ints, or over Q of ints and `Fraction`s, taken in the field:
        the form in which boundary matrices and relation rows are assembled."""
        p = _modulus(field)
        if p:
            cols = [{i: v for i, a in col.items() if (v := a % p)} for col in columns]
        else:
            cols = [{i: a for i, a in col.items() if a} for col in columns]
        return cls._of(field, rows, len(cols), cols)

    @classmethod
    def unit_columns(cls, field, rows: int, targets: Sequence[int | None]) -> "Matrix":
        """The 0/1 matrix whose column j is the unit vector at row ``targets[j]``,
        or zero where that is None: the matrix of a map between two bases."""
        if any(i is not None and not 0 <= i < rows for i in targets):
            raise IndexError(f"a unit column outside {rows} rows")
        return cls._of(field, rows, len(targets), [{} if i is None else {i: 1} for i in targets])

    @property
    def data(self) -> tuple:
        """The rows as tuples of field scalars."""
        return tuple(self.transpose().columns())

    def text_rows(self) -> list[list[str]]:
        """The rows as the strings of their field scalars (``3/4`` over Q,
        ``3 (mod 7)`` over F_7), formatted from the stored values."""
        p = _modulus(self.field)
        text = (lambda a: f"{a} (mod {p})") if p else str
        zero = text(0)
        out = []
        for r in _transpose(self._cols, self.rows):
            row = [zero] * self.cols
            for j, a in r.items():
                row[j] = text(a)
            out.append(row)
        return out

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        a = self._cols[j].get(i)
        return self.field.zero if a is None else _scalar(a, _modulus(self.field))

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.transpose().column(i)

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return tuple(_dense(self._cols[j], self.rows, self.field.zero, _modulus(self.field)))

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def sparse_columns(self) -> list[dict]:
        """The columns as ``{row: value}`` dicts of stored values, the form
        `from_sparse_columns` takes: copies, which the caller may change."""
        return [dict(c) for c in self._cols]

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.cols, self.rows, _transpose(self._cols, self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise FieldError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix._of(self.field, self.rows, other.cols,
                          _mul(other._cols, self._cols, _modulus(self.field)))

    def matvec(self, v: Sequence) -> tuple:
        return (self @ Matrix.from_columns(self.field, [v], length=self.cols)).column(0)

    def __neg__(self) -> "Matrix":
        p = _modulus(self.field)
        return Matrix._of(self.field, self.rows, self.cols,
                          [{i: _neg(a, p) for i, a in c.items()} for c in self._cols])

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise FieldError("row mismatch in augment")
        return Matrix._of(self.field, self.rows, self.cols + other.cols, self._cols + other._cols)

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The submatrix on the rows and the distinct columns at the given
        indices, in their order."""
        if len(set(cols)) != len(cols):
            raise FieldError("a block takes each column at most once")
        at: dict[int, list[int]] = {}
        for k, r in enumerate(rows):
            at.setdefault(r, []).append(k)
        return Matrix._of(self.field, len(rows), len(cols),
                          [{k: a for r, a in self._cols[c].items() for k in at.get(r, ())}
                           for c in cols])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise FieldError("column mismatch in stack")
        n = self.rows
        return Matrix._of(self.field, n + other.rows, self.cols,
                          [{**c1, **{i + n: a for i, a in c2.items()}}
                           for c1, c2 in zip(self._cols, other._cols)])

    def is_zero(self) -> bool:
        return not any(self._cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._cols == other._cols)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self._cols)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _rref(rows: list[list], ncols: int, zero, col_order: Sequence[int] | None = None):
    """Reduced row echelon form of rows of field scalars, as (nonzero rows,
    pivot columns): `_echelon` with each column numbered by its place in
    `col_order`, a permutation of the columns, the order pivots are taken in."""
    p = zero.p if isinstance(zero, Residue) else 0
    order = list(range(ncols) if col_order is None else col_order)
    place = {c: k for k, c in enumerate(order)}
    done, pivots = _echelon(({place[c]: a for c, a in _sparse(r, p).items()} for r in rows),
                            ncols, p)
    return ([_dense({order[k]: a for k, a in r.items()}, ncols, zero, p) for r in done],
            [order[k] for k in pivots])


def rank(m: Matrix) -> int:
    """Rank of `m` over its field, the number of lows of its columns
    (`_lows`): 0, with no reduction, when m has no rows or no columns."""
    if not (m.rows and m.cols):
        return 0
    return len(_lows(m.sparse_columns(), _modulus(m.field)))


class Subspace(_Frozen):
    """A subspace of a coordinate space, given by an independent basis.

    The basis is held as sparse vectors.  The reduced row echelon form of
    the basis, computed when first needed, gives the reduced rows and
    pivots behind the independence check, equality and the quotient maps;
    `express` solves for coordinates in the basis (`solve`).
    """

    __slots__ = ("field", "ambient_dim", "_basis", "_form")

    def __init__(self, field, ambient_dim: int, basis: Sequence[Sequence]):
        p = _modulus(field)
        self._fill(self, field, ambient_dim, [_sparse(v, p, ambient_dim) for v in basis], None)
        if len(self._pivots) != len(self._basis):
            raise FieldError("basis not independent")

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls._of(field, ambient_dim, [], ([], []))

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return image_basis(Matrix.identity(field, ambient_dim))

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        """Subspace spanned by possibly dependent vectors; its basis is their rref."""
        return image_basis(Matrix.from_columns(field, vectors, length=ambient_dim))

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def basis(self) -> tuple:
        """The basis vectors as tuples of field scalars."""
        zero, p = self.field.zero, _modulus(self.field)
        return tuple(tuple(_dense(v, self.ambient_dim, zero, p)) for v in self._basis)

    def basis_matrix(self) -> Matrix:
        """The matrix whose columns are the basis vectors."""
        return Matrix._of(self.field, self.ambient_dim, self.dim, self._basis)

    @property
    def _pivots(self) -> tuple:
        return tuple(self._echelon_form()[1])

    def _echelon_form(self):
        """(rref rows, pivots) of the basis, computed once (`_echelon`)."""
        if self._form is None:
            object.__setattr__(self, "_form", _echelon(
                self._basis, self.ambient_dim, _modulus(self.field)))
        return self._form

    def express(self, m: Matrix) -> Matrix | None:
        """The coordinates in `basis` of the columns of m, as columns, or None
        when a column is not in the subspace: `solve`, its one solution."""
        return solve(self.basis_matrix(), m)

    def coordinates(self, v: Sequence) -> tuple | None:
        """The coefficients of v in `basis`, or None when v is not in the subspace."""
        return _vector(self.express(Matrix.from_columns(self.field, [v], length=self.ambient_dim)))

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self._echelon_form()[0] == other._echelon_form()[0])

    def __hash__(self):
        return hash((self.ambient_dim, self._pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def column_reduction(m: Matrix) -> Reduction:
    """The column reduction of m (`_reduce`): its kernel, one vector per
    free column, and its image, one reduced column per low."""
    return _reduce(m.sparse_columns(), _modulus(m.field))


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of the null space {v : m v = 0}: one vector per free column, the
    kernel of `column_reduction`."""
    return Subspace._of(m.field, m.cols, column_reduction(m).kernel, None)


def image_basis(m: Matrix) -> Subspace:
    """Column space of `m`; its basis is the rref of the columns.  That basis
    is already reduced, so its echelon form is itself.  A matrix with no
    rows or no columns needs no reduction."""
    if not (m.rows and m.cols):
        return Subspace.zero(m.field, m.rows)
    form = _echelon(m._cols, m.rows, _modulus(m.field))
    return Subspace._of(m.field, m.rows, form[0], form)


def pivot_columns(*spaces: Subspace) -> list[int]:
    """Pivot columns of the matrix whose columns are the bases of `spaces`,
    one after the other: column k is a pivot when basis vector k lies outside
    the span of the vectors before it."""
    vectors = [v for s in spaces for v in s._basis]
    return _echelon(_transpose(vectors, spaces[0].ambient_dim), len(vectors),
                    _modulus(spaces[0].field))[1]


def solve(m: Matrix, b: Matrix) -> Matrix | None:
    """Some X with m X = b, or None when a column of b is not in the image of m.

    One reduced row echelon form of [m | b] serves every column.
    Coordinates of X off the pivot columns are 0.
    """
    if b.rows != m.rows:
        raise FieldError(f"vector length {b.rows} != {m.rows}")
    n = m.cols
    if not b.cols:
        return Matrix.zeros(m.field, n, 0)
    done, pivots = _echelon(_transpose(m.augment(b)._cols, m.rows), n + b.cols,
                            _modulus(m.field))
    if pivots and pivots[-1] >= n:
        return None
    x: list[dict] = [{} for _ in range(n)]
    for row, c in zip(done, pivots):
        x[c] = {j - n: a for j, a in row.items() if j >= n}
    return Matrix._of(m.field, n, b.cols, _transpose(x, b.cols))


def solve_in_image(m: Matrix, b: Sequence):
    """Some x with m x = b, or None when b is not in the image of m."""
    return _vector(solve(m, Matrix.from_columns(m.field, [b], length=m.rows)))


def _vector(m: Matrix | None) -> tuple | None:
    """The one column of m as field scalars; None for None."""
    return None if m is None else m.column(0)


def invert(m: Matrix) -> Matrix:
    """The inverse of m, the unique solution of m X = identity (`solve`)."""
    if m.rows != m.cols:
        raise FieldError("only square matrices invert")
    inverse = solve(m, Matrix.identity(m.field, m.rows))
    if inverse is None:
        raise FieldError("matrix not invertible")
    return inverse


def quotient_map(ambient_dim: int, sub: Subspace) -> Matrix:
    """Surjection q with kernel exactly `sub`; target dim = ambient - dim(sub).

    Representatives are the coordinates not used as pivots by the subspace:
    column j of q is the unit vector of such a coordinate j, and for a pivot
    c it is minus the rref row of c on those coordinates.
    """
    if sub.ambient_dim != ambient_dim:
        raise FieldError(f"subspace ambient {sub.ambient_dim} != {ambient_dim}")
    rows, pivots = sub._echelon_form()
    q_rows = _null_vectors(rows, pivots, ambient_dim, _modulus(sub.field))
    return Matrix._of(sub.field, len(q_rows), ambient_dim, _transpose(q_rows, ambient_dim))


def induced_on_quotient(f: Matrix, src_sub: Subspace, dst_sub: Subspace) -> Matrix:
    """The unique g with g . q_src = q_dst . f, given f(src_sub) <= dst_sub."""
    q_src = quotient_map(f.cols, src_sub)
    q_dst_f = quotient_map(f.rows, dst_sub) @ f
    if not (q_dst_f @ src_sub.basis_matrix()).is_zero():
        raise FieldError("f does not preserve the subspaces")
    pivots = set(src_sub._pivots)
    g = q_dst_f @ Matrix.unit_columns(f.field, f.cols,
                                      [j for j in range(f.cols) if j not in pivots])
    if g @ q_src != q_dst_f:
        raise AssertionError("induced quotient map failed the commuting-square identity")
    return g


def homology_from_reductions(d: Reduction, d_next: Reduction, field, n: int):
    """ker d / im d_next from the column reductions of d, which has n
    columns, and of d_next, with no elimination, as (cycles,
    representatives, boundary rows, free, classes), where `free` maps each
    free column of d to its kernel index: ``{free[k]: k}``.

    Kernel vector k is 1 at free column free[k] of d, its last nonzero, and
    0 at the other free columns, so the kernel coordinates of a chain are
    its entries there, and a reduced boundary column, a cycle, has its low
    at free[K] for its last kernel coordinate K.  So kernel vector k lies in
    the span of the boundaries and the kernel vectors before it exactly when
    free[k] is a low, and the other kernel vectors are the representatives,
    given as sparse columns.  `_back_substitute` on the boundaries' kernel
    coordinates makes the row under low K 1 at K and 0 at the other lows.
    `classes` maps kernel coordinates to class coordinates, class t being
    the t-th kernel index that is not a low; it is built as columns: the
    unit column at its class for a kernel index that is not a low, and
    minus its row, re-indexed to classes, for a low.  The boundary rows are
    returned last low first: the reduced row echelon form of the boundaries'
    kernel coordinates with the columns taken last first.  A boundary whose
    low is a pivot of d is no cycle, so d d_next is not zero: ChainError.
    """
    p, m = _modulus(field), len(d.free)
    at = {f: k for k, f in enumerate(d.free)}
    bad = [low for low in d_next.image if low not in at]
    if bad:
        raise ChainError(f"d_i d_(i+1) is not zero: a boundary has its lowest "
                         f"nonzero at chain {min(bad)}, a pivot of d_i")
    rows = _back_substitute({at[low]: {at[r]: a for r, a in col.items() if r in at}
                             for low, col in d_next.image.items()}, p)
    cls = {k: t for t, k in enumerate(k for k in range(m) if k not in rows)}
    classes = [{cls[k]: 1} if k in cls else
               {cls[j]: _neg(a, p) for j, a in rows[k].items() if j != k} for k in range(m)]
    return (Subspace._of(field, n, d.kernel, None),
            [v for v, f in zip(d.kernel, d.free) if f not in d_next.image],
            list(rows.values())[::-1], at, Matrix._of(field, len(cls), m, classes))


def span_of_combinations(rows: list[dict], sub: Subspace) -> Subspace:
    """The subspace spanned by the combinations `rows` of the basis of
    `sub`, which must be independent, with that basis in the order of rows."""
    return Subspace._of(sub.field, sub.ambient_dim, _mul(rows, sub._basis, _modulus(sub.field)),
                        None)


def homology_classes(cycles: Subspace, free: dict[int, int], classes: Matrix,
                     columns: list[dict]) -> Matrix:
    """The class coordinates of cycles given as sparse columns in chain
    coordinates (``{row: value}`` dicts of nonzero stored values), as the
    columns of the result, for the `free` columns of the column reduction
    of d_i, each mapped to its kernel index, and the `classes` of
    `homology_from_reductions`: the one push of chains into homology.

    A column's kernel coordinates are its entries at `free`, read in one
    pass over its nonzeros; the kernel
    vectors weighted by them must give the column back entry by entry, or it
    is not a cycle and ChainError is raised.  `classes` then maps them to
    class coordinates.  No elimination runs.
    """
    p = _modulus(cycles.field)
    coords = [{free[r]: a for r, a in v.items() if r in free} for v in columns]
    if _mul(coords, cycles._basis, p) != columns:
        raise ChainError("vector is not a cycle of this component")
    return Matrix._of(classes.field, classes.rows, len(columns), _mul(coords, classes._cols, p))


# -- basis maps, as signed positions ------------------------------------------------


def _renamed(vec: dict, p: tuple, mod: int) -> dict:
    """``P @ vec`` for the basis map P of signed positions ``p = (targets,
    negated)``, over F_mod (Q for 0): entry r moves to targets[r], negated
    when r is in `negated`, dropped when the target is None (zero), and
    entries that meet add."""
    targets, negated = p
    out: dict = {}
    for r, a in vec.items():
        t = targets[r]
        if t is not None:
            if r in negated:
                a = _neg(a, mod)
            out[t] = out[t] + a if t in out else a
    if len(out) < len(vec):
        # entries may have met on one target and been summed: drop zeros, reduce mod p
        out = ({t: v for t, a in out.items() if (v := a % mod)} if mod
               else {t: a for t, a in out.items() if a})
    return out


def _chain_map_witness(target_d: Matrix, p: tuple, q: tuple, source_d: Matrix) -> int | None:
    """Decide ``d' @ P == Q @ d`` for the differentials d' = `target_d` and
    d = `source_d` and basis maps P (degree i) and Q (degree i-1) of signed
    positions by re-indexing: None when the two sides agree, else the first
    column j where they differ.  Column j of ``d' @ P`` is column P(j) of
    d', negated where P has -1, and of ``Q @ d`` column j of d renamed by Q
    (`_renamed`); both are read in place, with no product and no copy, and
    every entry is compared."""
    if (len(p[0]), len(q[0])) != (source_d.cols, source_d.rows):
        raise FieldError("shape mismatch in a chain-map check")
    (p_of, p_neg), mod = p, _modulus(target_d.field)
    target = target_d._cols
    for j, col in enumerate(source_d._cols):
        image = target[p_of[j]] if p_of[j] is not None else {}
        if j in p_neg:
            image = {t: _neg(a, mod) for t, a in image.items()}
        if _renamed(col, q, mod) != image:
            return j
    return None
