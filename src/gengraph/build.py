"""Group-spec language, group constructors, and Cayley-table files.

Grammar:  spec := factor { ("x"|"×") factor }
          factor := "C" int ["^" int] | "Heis" int | "Ex(" int ")" | "file:" path
Whitespace around the separator is ignored; a file path runs to the next
whitespace or "×", so an ASCII "x" stays part of it.

A factor kind is a named group of `_FACTOR_RE`, a branch of
`_factor_from_match` that checks its parameters and makes its `Factor`
record, and a table function.

The order guard refuses a spec whose order is known from its text before any
table is built.  A Cayley file's order is known only once the file is read,
so a spec with a file factor is refused after its factors' tables are built
and before their product table is.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CayleyFileError, GroupSpecError, OrderGuardError
from .groups import DEFAULT_MAX_ORDER, Group, totient_profile


class Table(NamedTuple):
    """A multiplication table and its labels."""

    table: np.ndarray
    labels: tuple[str, ...]


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Factor:
    """One factor of a spec: its canonical text, its order, and its builder.

    `order` is None for a Cayley file, whose order is known only once the
    file is read.  `build(max_order)` makes the factor's table and labels; a
    file factor's returns the loaded `Group`, which was validated on loading.
    """

    text: str
    order: int | None
    build: Callable[[int], Table | Group] = field(compare=False, repr=False)


@dataclass(frozen=True)
class GroupSpec:
    factors: tuple[Factor, ...]

    def canonical(self) -> str:
        return " x ".join(f.text for f in self.factors)

    def known_order(self) -> int | None:
        orders = [f.order for f in self.factors]
        return None if None in orders else math.prod(orders)


def odd_primes(count: int) -> list[int]:
    out, c = [], 3
    while len(out) < count:
        if totient_profile(c)[1] == c - 1:  # c is prime
            out.append(c)
        c += 2
    return out


# ---------------------------------------------------------------------------
# parser

_FACTOR_RE = re.compile(
    r"C(?P<n>\d+)(\^(?P<k>\d+))?"
    r"|Heis(?P<p>\d+)"
    r"|Ex\((?P<d>\d+)\)"
    r"|file:(?P<path>[^\s×]+)"
)
_SEP_RE = re.compile(r"\s*[x×]\s*")


def parse_spec(text: str) -> GroupSpec:
    """Parse the group-spec language; raises GroupSpecError with a position."""
    if not text or not text.strip():
        raise GroupSpecError("empty group spec", 0)
    pos = 0
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    factors: list[Factor] = []
    while True:
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise GroupSpecError("expected a factor (C.., Heis.., Ex(..), file:..)", pos)
        factors.append(_factor_from_match(m, pos))
        pos = m.end()
        sep = _SEP_RE.match(text, pos)
        if not sep:
            break
        pos = sep.end()  # a separator must be followed by a factor
    while pos < n and text[pos].isspace():
        pos += 1
    if pos != n:
        raise GroupSpecError("trailing characters after group spec", pos)
    return GroupSpec(tuple(factors))


def _factor_from_match(m: re.Match, pos: int) -> Factor:
    if m.group("n") is not None:
        n = int(m.group("n"))
        if n < 1:
            raise GroupSpecError("cyclic order must be >= 1", pos)
        if m.group("k") is None:
            return Factor(f"C{n}", n, lambda _: cyclic_table(n))
        k = int(m.group("k"))
        if k < 1:
            raise GroupSpecError("power must be >= 1", pos)
        return Factor(f"C{n}^{k}", n ** k,
                      lambda _: _direct_product([cyclic_table(n)] * k))
    if m.group("p") is not None:
        p = int(m.group("p"))
        # p >= 2 is prime exactly when phi(p) = p - 1
        if p < 3 or totient_profile(p)[1] != p - 1:
            raise GroupSpecError(f"Heisenberg parameter {p} is not an odd prime", pos)
        return Factor(f"Heis{p}", p ** 3, lambda _: heisenberg_table(p))
    if m.group("d") is not None:
        d = int(m.group("d"))
        if d < 1:
            raise GroupSpecError("example-family index must be >= 1", pos)
        order = 4 * math.prod(p ** 3 for p in odd_primes(d))
        return Factor(f"Ex({d})", order, lambda _: example_family_table(d))
    path = m.group("path")
    return Factor(f"file:{path}", None,
                  lambda max_order: load_cayley_file(path, max_order=max_order))


# ---------------------------------------------------------------------------
# builders


def build_group(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Build the group described by `spec`, subject to the order guard.

    The factors are plain tables and labels: only the result is validated,
    once, as a `Group`.  A Cayley-file factor is validated on loading, so a
    lone one is renamed, not validated again.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _guard(spec.known_order(), spec, max_order)
    parts = [f.build(max_order) for f in spec.factors]
    _guard(math.prod(len(p.labels) for p in parts), spec, max_order)
    if len(parts) == 1 and isinstance(parts[0], Group):
        parts[0].name = spec.canonical()
        return parts[0]
    table, labels = parts[0] if len(parts) == 1 else _direct_product(parts)
    return Group(table, labels=labels, name=spec.canonical())


def _guard(order: int | None, spec: GroupSpec, max_order: int) -> None:
    if order is not None and order > max_order:
        raise OrderGuardError(
            f"order {order} of {spec.canonical()} exceeds guard {max_order}")


@lru_cache(maxsize=None)
def build_cached(spec_text: str, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Shared-build cache; Groups are immutable so reuse is safe."""
    return build_group(parse_spec(spec_text), max_order)


def cyclic_table(n: int) -> Table:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(n))
    return Table(table, labels)


def heisenberg_table(p: int) -> Table:
    """Upper unitriangular 3x3 matrices over Z_p as coordinate triples.

    (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2); order p^3, exponent p
    for odd p.
    """
    n = p ** 3
    idx = np.arange(n, dtype=np.int32)  # Group's own dtype: no cast copy
    a, rem = np.divmod(idx, p * p)
    b, c = np.divmod(rem, p)
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    c1, c2 = c[:, None], c[None, :]
    table = (((a1 + a2) % p) * p * p
             + ((b1 + b2) % p) * p
             + (c1 + c2 + a1 * b2) % p)
    labels = tuple(f"({ai},{bi},{ci})" for ai, bi, ci in zip(a, b, c))
    return Table(table, labels)


def example_family_table(d: int) -> Table:
    """Semidirect product (C_{p_1}^3 x ... x C_{p_d}^3) : C_2^2.

    The three involutions h_1, h_2, h_3 of the acting Klein group each fix
    one coordinate of every C_p^3 block and invert the other two.  Element
    index is (block coordinates, most significant first) * 4 + h, so the
    identity is index 0.
    """
    radices = [p for p in odd_primes(d) for _ in range(3)]
    nn = math.prod(radices)
    coords = np.unravel_index(np.arange(nn), radices)
    # action of h_j on N: fix the residue-j coordinate of each block, invert the others
    acted = np.empty((4, nn), dtype=np.int64)
    acted[0] = np.arange(nn)
    for j in (1, 2, 3):
        acted[j] = np.ravel_multi_index(
            [c if pos % 3 == j - 1 else -c % p
             for pos, (c, p) in enumerate(zip(coords, radices))], radices)
    nadd = _direct_product_table([cyclic_table(p).table for p in radices])
    na, ha = np.divmod(np.arange(4 * nn), 4)
    table = nadd[na[:, None], acted[ha[:, None], na[None, :]]] * 4 + (ha[:, None] ^ ha[None, :])
    rows = np.stack(coords, axis=1).tolist()
    labels = []
    for a, h in zip(na.tolist(), ha.tolist()):
        cvec = ",".join(map(str, rows[a]))
        labels.append(f"({cvec};h{h})" if h else f"({cvec};1)")
    return Table(table, tuple(labels))


def _direct_product_table(tables: list[np.ndarray]) -> np.ndarray:
    """The factors folded in one at a time, each as the new least
    significant digit: (i, a)(j, b) = (ij, ab) sits at [i·k + a, j·k + b],
    so one broadcast add writes each fold into a fresh int32 table (Group's
    own dtype: no cast copy) with no n x n temporary."""
    out = np.zeros((1, 1), dtype=np.int32)
    for t in tables:
        m, k = out.shape[0], t.shape[0]
        nxt = np.empty((m * k, m * k), dtype=np.int32)
        np.add((out * k)[:, None, :, None], t.astype(np.int32)[None, :, None, :],
               out=nxt.reshape(m, k, m, k))
        out = nxt
    return out


def _direct_product(parts: list[Table | Group]) -> Table:
    """The direct product's table and labels; the first factor is the most
    significant digit of an element's index."""
    labels = [""]
    for part in parts:
        labels = [f"{a},{b}" if a else b for a in labels for b in part.labels]
    return Table(_direct_product_table([part.table for part in parts]),
                 tuple(f"({s})" for s in labels))


# ---------------------------------------------------------------------------
# Cayley-table files


def load_cayley_file(path: str | Path, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Load "cayley 1" text format; validates all three group laws.

    Line 1: "cayley 1".  Line 2: n.  Lines 3..n+2: n whitespace-separated
    0-based indices (row i = left multiplication by element i).  Optional
    trailing lines "label k name".  The identity must be index 0.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise CayleyFileError(f"cannot read {path}: {e}") from e
    lines = [ln.strip() for ln in lines if ln.strip()]
    if not lines or lines[0].split() != ["cayley", "1"]:
        raise CayleyFileError(f"{path}: missing 'cayley 1' header")
    try:
        n = int(lines[1])
    except (IndexError, ValueError) as e:
        raise CayleyFileError(f"{path}: bad order line") from e
    if n < 1:
        raise CayleyFileError(f"{path}: order must be positive")
    if n > max_order:
        raise OrderGuardError(f"{path}: order {n} exceeds guard {max_order}")
    if len(lines) < 2 + n:
        raise CayleyFileError(f"{path}: expected {n} table rows")
    rows = [ln.split() for ln in lines[2:2 + n]]
    for i, parts in enumerate(rows):
        if len(parts) != n:
            raise CayleyFileError(f"{path}: row {i} has {len(parts)} entries, wanted {n}")
    try:
        table = np.array(rows, dtype=np.int64)  # parses each entry as int() does
    except OverflowError as e:
        raise CayleyFileError(f"{path}: table entry out of range") from e
    except ValueError as e:
        for i, parts in enumerate(rows):
            try:
                [int(x) for x in parts]
            except ValueError:
                raise CayleyFileError(f"{path}: row {i} has a non-integer entry") from e
        raise
    if table.min() < 0 or table.max() >= n:
        raise CayleyFileError(f"{path}: table entry out of range")
    labels = [str(i) for i in range(n)]
    for ln in lines[2 + n:]:
        parts = ln.split(maxsplit=2)
        if len(parts) != 3 or parts[0] != "label":
            raise CayleyFileError(f"{path}: bad trailing line {ln!r}")
        try:
            k = int(parts[1])
        except ValueError as e:
            raise CayleyFileError(f"{path}: bad label index in {ln!r}") from e
        if not 0 <= k < n:
            raise CayleyFileError(f"{path}: label index {k} out of range")
        labels[k] = parts[2]
    try:
        return Group(table, labels=tuple(labels), name=path.stem)
    except Exception as e:
        raise CayleyFileError(f"{path}: {e}") from e

