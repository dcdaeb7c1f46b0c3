"""Spec-language parsing and group construction."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import save_cayley_file
from gengraph.build import (
    Cyclic,
    CyclicPower,
    ExampleFamily,
    Heisenberg,
    build_group,
    load_cayley_file,
    parse_spec,
)
from gengraph.errors import CayleyFileError, GroupSpecError, OrderGuardError
from gengraph.groups import is_nilpotent


def test_parse_single_factors():
    assert parse_spec("C12").factors == (Cyclic(12),)
    assert parse_spec("C2^2 x C9").factors == (CyclicPower(2, 2), Cyclic(9))
    assert parse_spec("Heis3").factors == (Heisenberg(3),)
    assert parse_spec("Ex(2)").factors == (ExampleFamily(2),)


def test_parse_whitespace_and_unicode_separator():
    assert parse_spec("C2^2xC9").canonical() == "C2^2 x C9"
    assert parse_spec("C2 × C9").canonical() == "C2 x C9"
    assert parse_spec("  C4 x C3 ").canonical() == "C4 x C3"


def test_parse_rejects_bad_input():
    with pytest.raises(GroupSpecError):
        parse_spec("")
    with pytest.raises(GroupSpecError):
        parse_spec("Q8")
    with pytest.raises(GroupSpecError):
        parse_spec("C2 y C3")
    with pytest.raises(GroupSpecError):
        parse_spec("C2 x")
    err = None
    try:
        parse_spec("Heis4")
    except GroupSpecError as e:
        err = e
    assert err is not None and err.position == 0


def test_parse_heisenberg_odd_prime_only():
    with pytest.raises(GroupSpecError):
        parse_spec("Heis9")
    with pytest.raises(GroupSpecError):
        parse_spec("Heis2")
    assert parse_spec("Heis5").factors == (Heisenberg(5),)


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


def test_direct_product_identity_first():
    g = build_group("C4 x C3")
    assert g.n == 12
    assert g.is_cyclic
    assert int(g.orders[0]) == 1


def test_cayley_file_round_trip(tmp_path, group):
    g = group("C2^2 x C3")
    path = tmp_path / "g.cayley"
    save_cayley_file(g, path)
    g2 = load_cayley_file(path)
    assert np.array_equal(g.table, g2.table)
    assert g.labels == g2.labels
    spec = parse_spec(f"file:{path}")
    g3 = build_group(spec)
    assert np.array_equal(g.table, g3.table)


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
