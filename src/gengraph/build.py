"""Group-spec language, group constructors, and Cayley-table files.

Grammar:  spec := factor { ("x"|"×") factor }
          factor := "C" int ["^" int] | "Heis" int | "Ex(" int ")" | "file:" path
Whitespace around the separator is ignored; a file path runs to the next
whitespace.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CayleyFileError, GroupSpecError, OrderGuardError
from .groups import DEFAULT_MAX_ORDER, Group

Table = tuple[np.ndarray, tuple[str, ...]]  # a multiplication table and its labels


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Cyclic:
    n: int

    def order(self) -> int:
        return self.n

    def canonical(self) -> str:
        return f"C{self.n}"


@dataclass(frozen=True)
class CyclicPower:
    n: int
    k: int

    def order(self) -> int:
        return self.n ** self.k

    def canonical(self) -> str:
        return f"C{self.n}^{self.k}"


@dataclass(frozen=True)
class Heisenberg:
    p: int

    def order(self) -> int:
        return self.p ** 3

    def canonical(self) -> str:
        return f"Heis{self.p}"


@dataclass(frozen=True)
class ExampleFamily:
    d: int

    def order(self) -> int:
        return 4 * math.prod(p ** 3 for p in odd_primes(self.d))

    def canonical(self) -> str:
        return f"Ex({self.d})"


@dataclass(frozen=True)
class CayleyFile:
    path: str

    def order(self) -> int | None:
        return None

    def canonical(self) -> str:
        return f"file:{self.path}"


Factor = Cyclic | CyclicPower | Heisenberg | ExampleFamily | CayleyFile


@dataclass(frozen=True)
class GroupSpec:
    factors: tuple[Factor, ...]

    def canonical(self) -> str:
        return " x ".join(f.canonical() for f in self.factors)

    def known_order(self) -> int | None:
        total = 1
        for f in self.factors:
            o = f.order()
            if o is None:
                return None
            total *= o
        return total


def odd_primes(count: int) -> list[int]:
    out, c = [], 3
    while len(out) < count:
        if _is_prime(c):
            out.append(c)
        c += 2
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# parser

_FACTOR_RE = re.compile(
    r"C(?P<n>\d+)(\^(?P<k>\d+))?"
    r"|Heis(?P<p>\d+)"
    r"|Ex\((?P<d>\d+)\)"
    r"|file:(?P<path>\S+)"
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
        if sep and sep.end() > pos and _FACTOR_RE.match(text, sep.end()):
            pos = sep.end()
            continue
        break
    while pos < n and text[pos].isspace():
        pos += 1
    if pos != n:
        raise GroupSpecError("trailing characters after group spec", pos)
    return GroupSpec(tuple(factors))


def _factor_from_match(m: re.Match, pos: int) -> Factor:
    if m.group("n") is not None:
        nval = int(m.group("n"))
        if nval < 1:
            raise GroupSpecError("cyclic order must be >= 1", pos)
        if m.group("k") is not None:
            kval = int(m.group("k"))
            if kval < 1:
                raise GroupSpecError("power must be >= 1", pos)
            return CyclicPower(nval, kval)
        return Cyclic(nval)
    if m.group("p") is not None:
        pval = int(m.group("p"))
        if pval == 2 or not _is_prime(pval):
            raise GroupSpecError(f"Heisenberg parameter {pval} is not an odd prime", pos)
        return Heisenberg(pval)
    if m.group("d") is not None:
        dval = int(m.group("d"))
        if dval < 1:
            raise GroupSpecError("example-family index must be >= 1", pos)
        return ExampleFamily(dval)
    return CayleyFile(m.group("path"))


# ---------------------------------------------------------------------------
# builders


def build_group(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Build the group described by `spec`, subject to the order guard.

    The factors are plain tables and labels: only the result is validated,
    once, as a `Group` (a Cayley-file factor is also validated on loading).
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    known = spec.known_order()
    if known is not None and known > max_order:
        raise OrderGuardError(
            f"order {known} of {spec.canonical()} exceeds guard {max_order}")
    if len(spec.factors) == 1 and isinstance(spec.factors[0], CayleyFile):
        G = load_cayley_file(spec.factors[0].path, max_order=max_order)
        G.name = spec.canonical()  # already validated: rename it, do not validate again
        return G
    parts = [_factor_table(f, max_order) for f in spec.factors]
    if len(parts) == 1:
        table, labels = parts[0]
    else:
        table = _direct_product_table([t for t, _ in parts])
        labels = _product_labels([lbl for _, lbl in parts])
    if table.shape[0] > max_order:
        raise OrderGuardError(
            f"order {table.shape[0]} exceeds guard {max_order}")
    return Group(table, labels=labels, name=spec.canonical())


@lru_cache(maxsize=None)
def build_cached(spec_text: str, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Shared-build cache; Groups are immutable so reuse is safe."""
    return build_group(parse_spec(spec_text), max_order)


def _factor_table(f: Factor, max_order: int) -> Table:
    """The factor's multiplication table and labels."""
    if isinstance(f, Cyclic):
        return cyclic_table(f.n)
    if isinstance(f, CyclicPower):
        table, labels = cyclic_table(f.n)
        return _direct_product_table([table] * f.k), _product_labels([labels] * f.k)
    if isinstance(f, Heisenberg):
        return heisenberg_table(f.p)
    if isinstance(f, ExampleFamily):
        return example_family_table(f.d)
    if isinstance(f, CayleyFile):
        G = load_cayley_file(f.path, max_order=max_order)
        return G.table, G.labels
    raise TypeError(f"unknown factor {f!r}")


def cyclic_table(n: int) -> Table:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(n))
    return table, labels


def heisenberg_table(p: int) -> Table:
    """Upper unitriangular 3x3 matrices over Z_p as coordinate triples.

    (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2); order p^3, exponent p
    for odd p.
    """
    n = p ** 3
    idx = np.arange(n)
    a, rem = np.divmod(idx, p * p)
    b, c = np.divmod(rem, p)
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    c1, c2 = c[:, None], c[None, :]
    table = (((a1 + a2) % p) * p * p
             + ((b1 + b2) % p) * p
             + (c1 + c2 + a1 * b2) % p)
    labels = tuple(f"({ai},{bi},{ci})" for ai, bi, ci in zip(a, b, c))
    return table, labels


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
    nadd = _direct_product_table([cyclic_table(p)[0] for p in radices])
    na, ha = np.divmod(np.arange(4 * nn), 4)
    table = nadd[na[:, None], acted[ha[:, None], na[None, :]]] * 4 + (ha[:, None] ^ ha[None, :])
    rows = np.stack(coords, axis=1).tolist()
    labels = []
    for a, h in zip(na.tolist(), ha.tolist()):
        cvec = ",".join(map(str, rows[a]))
        labels.append(f"({cvec};h{h})" if h else f"({cvec};1)")
    return table, tuple(labels)


def _direct_product_table(tables: list[np.ndarray]) -> np.ndarray:
    sizes = [t.shape[0] for t in tables]
    n = math.prod(sizes)
    table = np.zeros((n, n), dtype=np.int32)  # Group's own dtype: no cast copy
    for c, t in zip(np.unravel_index(np.arange(n), sizes), tables):
        table *= t.shape[0]
        table += t[c[:, None], c[None, :]]
    return table


def _product_labels(label_lists: list[tuple[str, ...]]) -> tuple[str, ...]:
    out = [""]
    for labels in label_lists:
        out = [f"{a},{b}" if a else b for a in out for b in labels]
    return tuple(f"({s})" for s in out)


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

