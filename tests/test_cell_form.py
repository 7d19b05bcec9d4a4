"""The cell form that verify_char_table stores on a certified table.

verify_char_table checks a table's row relations on its cell form and
keeps that form on the CharTable, and the fusion ring reads it from
there: the cell of each element (cls), a representative of each cell
(reps), the identity's cell, the rows and their conjugates at the
representatives, and 1/|G_f| and each 1/|C|.  OldStabilizer below is the
construction the ring read before the form moved onto the table, which
lifted every value to lcm(exp G, the levels of the table's values); it
is the oracle of the stored form on every table that the shipped
presets, drinfeld:S4, the bench configs and the twisted fixtures build.
The stored values sit at the least even level that holds them all
(Q(zeta_n) = Q(zeta_2n) for odd n), so they are compared as numbers.

Mutations, each run on a scratch copy against the whole tier-1 suite,
and each failing at least one tier-1 test:
- the orthogonality check skipped (3 tests:
  test_reps.py::test_twisted_check_refuses_independent_rows_that_are_not_orthonormal,
  test_reps.py::test_user_char_table_twisted,
  test_group_certificates.py::test_class_check_matches_elementwise_check);
- _at_level keeping only the rational part of a value (74 tests and 4
  collection errors: every table with an irrational value fails its own
  orthogonality check, test_cell_form_matches_the_oracle[h_z_z2n:3] and
  the acceptance criteria among them);
- the identity cell taken from the wrong element, the cell of the last
  representative (56 tests: test_cell_form_matches_the_oracle on every
  config, test_fusion_routes.py::test_routes_agree, the acceptance
  criteria 04, 08 and 10);
- inv_sizes shifted by one cell (28 tests:
  test_cell_form_matches_the_oracle on b3_z3, drinfeld:S3, drinfeld:S4,
  s4_sign_tau and s4_z4, test_fusion_routes.py::test_routes_agree,
  test_acceptance.py::test_criterion_10_determinism).
"""

from __future__ import annotations

from math import lcm
from pathlib import Path

import pytest

from conftest import (
    build_preset,
    klein_twisted_config,
    s4_sign_tau_config,
    twisted_sigma_config,
    twisted_tau_config,
)
from test_deep_twisted import s3_factorization_tau_config, sigma_and_tau_config, z4_twisted_config

from bicrossed.comodules import SimpleIndex
from bicrossed.config import build_config, load_config_file
from bicrossed.cyclotomic import rational
from bicrossed.groups import conjugacy_classes, subgroup_of
from bicrossed.presets import SHIPPED

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


class OldStabilizer:
    """The cell form as the fusion ring once built it from a certified
    table and its cells: values at the representatives lifted to
    lcm(exp G, the levels of the table's values), rational integers at
    level 1."""

    def __init__(self, G, table, cells):
        elements = table.chars[0].elements
        position = {g: i for i, g in enumerate(elements)}
        level = lcm(G.exponent(), *(v.level for c in table.chars for v in c.values))
        self.cls = {g: c for c, members in enumerate(cells) for g in members}
        self.reps = [members[0] for members in cells]
        self.identity = self.cls[G.identity]
        self.values = [
            tuple(_old_at_level(c.values[position[g]], level) for g in self.reps) for c in table.chars
        ]
        self.conj_values = [tuple(v.conj() for v in row) for row in self.values]
        self.inv_order = None if len(elements) == 1 else rational(len(elements)).inv()
        self.inv_sizes = [None if len(c) == 1 else rational(len(c)).inv() for c in cells]


def _old_at_level(v, level: int):
    return rational(v.num[0]) if v.den == 1 and v.is_rational() else v.lift(level)


def _cells(G, stabilizer, twisted: bool) -> list:
    """The cells of the table of the stabilizer (parent indices): its
    single elements where beta is twisted, else its conjugacy classes."""
    if twisted:
        return [(g,) for g in stabilizer]
    sub, to_parent = subgroup_of(G, stabilizer)
    return [tuple(to_parent[g] for g in cls) for cls in conjugacy_classes(sub)]


def _config(path: Path):
    return lambda: build_config(load_config_file(str(path)))


_CASES = {
    **{name: (lambda name=name: build_preset(name), 2) for name in SHIPPED},
    "drinfeld:S4": (lambda: build_preset("drinfeld:S4"), 0),
    "b3_z3": (_config(BENCH_CONFIGS / "b3_z3.json"), 1),
    "s4_z4": (_config(BENCH_CONFIGS / "s4_z4.json"), 1),
    "z4_twisted": (_config(BENCH_CONFIGS / "z4_twisted.json"), 6),
    "twisted_tau": (lambda: build_config(twisted_tau_config()), 2),
    "twisted_sigma": (lambda: build_config(twisted_sigma_config()), 2),
    "klein_twisted": (lambda: build_config(klein_twisted_config()), 2),
    "s4_sign_tau": (lambda: build_config(s4_sign_tau_config()), 1),
    "s3_factorization_tau": (lambda: build_config(s3_factorization_tau_config()), 0),
    "sigma_and_tau": (lambda: build_config(sigma_and_tau_config()), 2),
}


def _tables(name) -> tuple:
    """(G, every table the index builds over the ball, with its key)."""
    build, radius = _CASES[name]
    H = build().hopf
    index = SimpleIndex(H)
    index.enumerate(radius)
    assert index._tables
    return H.G, index._tables.items()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cell_form_matches_the_oracle(name):
    G, tables = _tables(name)
    for (stabilizer, beta_values), table in tables:
        old = OldStabilizer(G, table, _cells(G, stabilizer, beta_values is not None))
        assert table.cls == old.cls and table.reps == old.reps, stabilizer
        assert table.identity == old.identity == table.cls[G.identity]
        assert table.values == old.values and table.conj_values == old.conj_values
        assert table.inv_order == old.inv_order and table.inv_sizes == old.inv_sizes


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cell_form_sits_at_one_level(name):
    # rational integers at level 1, every other value of a table at one
    # even level, so no sum or product of two values of one table lifts
    _G, tables = _tables(name)
    for _key, table in tables:
        values = [v for rows in (table.values, table.conj_values) for row in rows for v in row]
        assert all(v.level == 1 for v in values if v.is_rational())
        levels = {v.level for v in values if not v.is_rational()}
        assert len(levels) <= 1 and all(level % 2 == 0 for level in levels)


def test_tables_of_one_field_share_one_level():
    # h_z_z2n:3 builds a Z3 and a Z6 table; Q(zeta_3) = Q(zeta_6), so both
    # sit at level 6 and a fusion row that mixes them lifts nothing
    index = SimpleIndex(build_preset("h_z_z2n:3").hopf)
    index.enumerate(4)
    orders = sorted(len(stabilizer) for stabilizer, _beta in index._tables)
    assert 3 in orders and 6 in orders
    levels = {
        v.level for table in index._tables.values() for row in table.values for v in row if not v.is_rational()
    }
    assert levels == {6}
