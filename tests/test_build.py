"""Spec-language parsing and group construction."""

from __future__ import annotations

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import lattice_test_groups, permutation_table, save_cayley_file
import gengraph.build
from gengraph.build import (
    _direct_product_table,
    build_group,
    cyclic_table,
    heisenberg_table,
    load_cayley_file,
    parse_spec,
)
from gengraph.errors import CayleyFileError, GroupSpecError, OrderGuardError
from gengraph.groups import is_nilpotent


def test_parse_single_factors():
    for text, factors in [("C12", ["C12"]), ("C3^2", ["C3^2"]),
                          ("C2^2 x C9", ["C2^2", "C9"]), ("Heis5", ["Heis5"]),
                          ("Ex(1)", ["Ex(1)"])]:
        spec = parse_spec(text)
        assert [f.text for f in spec.factors] == factors
        assert spec.known_order() == build_group(spec).n, text


def test_parse_whitespace_and_unicode_separator():
    assert parse_spec("C2^2xC9").canonical() == "C2^2 x C9"
    assert parse_spec("C2 × C9").canonical() == "C2 x C9"
    assert parse_spec("  C4 x C3 ").canonical() == "C4 x C3"
    assert parse_spec("C2 × C9") == parse_spec("C2 x C9")
    # "×" ends a file path as whitespace does; an ASCII "x" is part of it
    assert parse_spec("file:g.cayley×C2") == parse_spec("file:g.cayley × C2")
    assert [f.text for f in parse_spec("file:g.cayley×C2").factors] == [
        "file:g.cayley", "C2"]
    assert [f.text for f in parse_spec("file:x.cayley").factors] == ["file:x.cayley"]


# every GroupSpecError branch: (text, message, position)
SPEC_ERRORS = [
    ("", "empty group spec", 0),
    ("   ", "empty group spec", 0),
    ("Q8", "expected a factor (C.., Heis.., Ex(..), file:..)", 0),
    ("C0", "cyclic order must be >= 1", 0),
    ("C2^0", "power must be >= 1", 0),
    ("Heis0", "Heisenberg parameter 0 is not an odd prime", 0),
    ("Heis1", "Heisenberg parameter 1 is not an odd prime", 0),
    ("Heis2", "Heisenberg parameter 2 is not an odd prime", 0),
    ("Heis4", "Heisenberg parameter 4 is not an odd prime", 0),
    ("Ex(0)", "example-family index must be >= 1", 0),
    ("C2 y C3", "trailing characters after group spec", 3),
    ("C2 x", "expected a factor (C.., Heis.., Ex(..), file:..)", 4),
    ("C2 x Q8", "expected a factor (C.., Heis.., Ex(..), file:..)", 5),
    ("C2x", "expected a factor (C.., Heis.., Ex(..), file:..)", 3),
    ("C2 x Heis4", "Heisenberg parameter 4 is not an odd prime", 5),
    ("C2 x C0", "cyclic order must be >= 1", 5),
    ("  C3^2 x Ex(0)", "example-family index must be >= 1", 9),
]


def test_parse_rejects_bad_input():
    for text, message, position in SPEC_ERRORS:
        with pytest.raises(GroupSpecError) as info:
            parse_spec(text)
        assert (info.value.position, str(info.value)) == (
            position, f"{message} (at position {position})"), text


def test_parse_heisenberg_odd_prime_only():
    for p in range(14):
        if p in (3, 5, 7, 11, 13):
            assert parse_spec(f"Heis{p}").known_order() == p ** 3
        else:
            with pytest.raises(GroupSpecError, match=f"parameter {p} is not an odd prime"):
                parse_spec(f"Heis{p}")


def test_cyclic_group_order_profile():
    g = build_group("C6")
    assert sorted(g.orders.tolist()) == [1, 2, 3, 3, 6, 6]
    assert g.labels[0] == "1"


def test_heisenberg_exponent_and_noncommuting():
    h = build_group("Heis3")
    assert h.n == 27
    assert np.lcm.reduce(h.orders) == 3
    assert not np.array_equal(h.table, h.table.T)
    found = any(int(h.table[a, b]) != int(h.table[b, a]) for a in range(27) for b in range(27))
    assert found


def test_example_family_order_and_not_nilpotent():
    g = build_group("Ex(1)")
    assert g.n == 108
    assert not is_nilpotent(g)


def test_order_guard():
    with pytest.raises(OrderGuardError):
        build_group("C500")
    build_group("C500", max_order=500)


def test_order_guard_before_any_product_table(tmp_path, monkeypatch):
    """A known order is refused before any table is built, and a file
    factor's before the product table is allocated."""
    save_cayley_file(build_group("C10"), tmp_path / "c10.cayley")
    built = []
    real = gengraph.build._direct_product_table
    monkeypatch.setattr(gengraph.build, "_direct_product_table",
                        lambda tables: built.append(len(tables)) or real(tables))
    cases = [("C2^2 x C20", 10, "order 80 of C2^2 x C20 exceeds guard 10"),
             ("file:c10.cayley x C10", 10, "order 100 of file:c10.cayley x C10 exceeds guard 10"),
             ("file:c10.cayley x file:c10.cayley x file:c10.cayley", 999, "order 1000 of"),
             ("file:c10.cayley", 9, "c10.cayley: order 10 exceeds guard 9")]
    monkeypatch.chdir(tmp_path)
    for text, guard, message in cases:
        with pytest.raises(OrderGuardError, match=re.escape(message)):
            build_group(text, max_order=guard)
    assert built == []
    assert build_group("file:c10.cayley x C10", max_order=100).n == 100
    assert built == [2]


def test_direct_product_identity_first():
    g = build_group("C4 x C3")
    assert g.n == 12
    assert g.is_cyclic
    assert int(g.orders[0]) == 1


FACTOR_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "S3": 6, "S4": 24, "Heis3": 27}


@functools.lru_cache(maxsize=None)
def _factor_table(name: str) -> np.ndarray:
    """Small factor tables, the non-abelian S3 and S4 from sympy."""
    if name == "S3":
        from sympy.combinatorics.named_groups import SymmetricGroup
        return permutation_table(SymmetricGroup(3))
    if name == "S4":
        return lattice_test_groups()["S4"].table
    if name == "Heis3":
        return heisenberg_table(3).table
    return cyclic_table(FACTOR_ORDERS[name]).table


def _mixed_radix_product(tables: list[list[list[int]]], i: int, j: int) -> int:
    """The product of elements i and j of the direct product, element by
    element: the first factor is the most significant digit."""
    digits = []
    for t in reversed(tables):
        (i, a), (j, b) = divmod(i, len(t)), divmod(j, len(t))
        digits.append(t[a][b])
    out = 0
    for t, d in zip(tables, reversed(digits)):
        out = out * len(t) + d
    return out


@settings(max_examples=30, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(FACTOR_ORDERS)), min_size=1, max_size=3)
       .filter(lambda names: math.prod(FACTOR_ORDERS[n] for n in names) <= 144))
@example(names=["S3", "C4", "C2"])
def test_direct_product_table_matches_mixed_radix_oracle(names):
    tables = [_factor_table(name) for name in names]
    got = _direct_product_table(tables)
    assert got.dtype == np.int32
    lists = [t.tolist() for t in tables]
    n = math.prod(len(t) for t in lists)
    assert got.tolist() == [[_mixed_radix_product(lists, i, j) for j in range(n)]
                            for i in range(n)]


def test_product_build_peak_memory():
    """Building the n = 900 product, Light's test included, holds no n x n
    temporary beside the table: tracemalloc, which counts numpy's buffers,
    peaks at no more than 1.5 times the table's bytes."""
    build_group("C2 x C3")  # first calls, outside the measure
    tracemalloc.start()
    try:
        g = build_group("C2^2 x C3^2 x C5^2", max_order=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 900
    assert peak <= 1.5 * g.table.nbytes


def test_cayley_file_round_trip(tmp_path, group):
    g = group("C2^2 x C3")
    path = tmp_path / "g.cayley"
    save_cayley_file(g, path)
    g2 = load_cayley_file(path)
    assert np.array_equal(g.table, g2.table)
    assert g.labels == g2.labels
    spec = parse_spec(f"file:{path}")
    assert spec.known_order() is None
    g3 = build_group(spec)
    assert np.array_equal(g.table, g3.table)
    assert g3.name == f"file:{path}"


def test_cayley_file_rejects_nonassociative(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("cayley 1\n3\n0 1 2\n1 2 0\n2 1 0\n")
    with pytest.raises(CayleyFileError):
        load_cayley_file(path)


def test_cayley_file_rejects_identity_elsewhere(tmp_path):
    # C2 written with the identity at index 1
    path = tmp_path / "shift.cayley"
    path.write_text("cayley 1\n2\n1 0\n0 1\n")
    with pytest.raises(CayleyFileError):
        load_cayley_file(path)


def test_cayley_file_rejects_bad_header(tmp_path):
    path = tmp_path / "h.cayley"
    path.write_text("cayley 2\n1\n0\n")
    with pytest.raises(CayleyFileError):
        load_cayley_file(path)


@pytest.mark.parametrize("row, message", [
    ("1 99999999999999999999", "table entry out of range"),  # beyond int64
    ("1 -99999999999999999999", "table entry out of range"),
    ("1 2", "table entry out of range"),
    ("1 0.5", "row 1 has a non-integer entry"),
    ("1 0 0", "row 1 has 3 entries, wanted 2"),
])
def test_cayley_file_rejects_bad_entries(tmp_path, row, message):
    path = tmp_path / "bad.cayley"
    path.write_text(f"cayley 1\n2\n0 1\n{row}\n")
    with pytest.raises(CayleyFileError, match=message):
        load_cayley_file(path)


def test_cayley_file_labels(tmp_path):
    path = tmp_path / "lbl.cayley"
    path.write_text("cayley 1\n2\n0 1\n1 0\nlabel 1 flip\n")
    g = load_cayley_file(path)
    assert g.labels == ("0", "flip")


def test_trivial_group():
    g = build_group("C1")
    assert g.n == 1 and g.is_cyclic
