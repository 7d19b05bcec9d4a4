"""Burnside-Dixon tables, pinned and transported along relabelings.

A character table is unique, and _sorted_table orders its rows
canonically, so the literal tables below are fixed: the digests were
recorded from the class-matrix implementation that the row-echelon one
replaced.  Relabeling the elements of a group must relabel its table,
wherever the relabeling puts the identity; the first relabeling of each
group makes element 0 a non-identity element, so conjugacy class 0 is
not the identity class.  The sweep (pytest -m sweep) runs 20 relabelings
of each group.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache
from pathlib import Path

import pytest

from bicrossed.groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    finite_group,
    permutation_group,
)
from bicrossed.reps import dixon_char_table

B3_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "configs" / "b3_z3.json"


def _s3():
    return permutation_group([(1, 0, 2), (1, 2, 0)])


def _d4():
    return permutation_group([(1, 2, 3, 0), (1, 0, 3, 2)])


_BUILDERS = {
    "S3": _s3,
    "D4": _d4,
    "A4": lambda: permutation_group([(1, 0, 3, 2), (1, 2, 0, 3)]),
    "S4": lambda: permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
    "D6": lambda: permutation_group([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "D4xZ4": lambda: direct_product(_d4(), cyclic_group(4)),
    "A5": lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
    "B3": lambda: finite_group(json.loads(B3_CONFIG.read_text())["group"]["table"]),
    "S3xS3": lambda: direct_product(_s3(), _s3()),
    "S3xZ4": lambda: direct_product(_s3(), cyclic_group(4)),
}

# sha256 of repr([(dim, elements, value literals), ...]) in table order.
DIGESTS = {
    "S3": "23331cc1a0c53b5e5e32e49db211da9bcc95d0c8e7f245286da086a34b7a955a",
    "D4": "daf82d8e4c897eef6ee58b89f6d4b20450fb153f2785f5549d78f1a831acbfe5",
    "A4": "f8ae9739ef210ed6b3b47e25a17538c9076da180351552e43436b2984189960f",
    "S4": "bcd4d6d2a57c1fb6c4183b431b2bd71548fa1827d9cc7d4f4d1b366caea4984b",
    "D6": "b678cd70b57abb8e0f4788bda294e5483e8bb7d0852dcf1ebf1bda7fe5231fea",
    "D4xZ4": "da9ecf6584331acad30b3f1c04d37d6aebfee2f6280b34c8db09271a4108a08a",
    "A5": "b6f57018da11850f519a7a80855031f041a49e3e237e89bd50206d5acf7be396",
    "B3": "fae95964371427fbe080c519f562e0f8f57ebcd07465391fdf05369156b060a0",
}


@cache
def group(name: str) -> FiniteGroup:
    return _BUILDERS[name]()


@cache
def table(name: str):
    return dixon_char_table(group(name))


def literals(t):
    return [(c.dim, c.elements, tuple(v.literal() for v in c.values)) for c in t.chars]


def relabelings(G: FiniteGroup, count: int, seed: int):
    """count permutations of G's indices (perm[a] is the new index of a);
    the first sends the identity to the last index."""
    rng = random.Random(seed)
    n = G.order
    for k in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        if k == 0:
            last = perm.index(n - 1)
            perm[G.identity], perm[last] = n - 1, perm[G.identity]
        yield perm


def check_transport(name: str, perm: list[int]) -> None:
    G = group(name)
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[perm[a]][perm[b]] = perm[G.mul(a, b)]
    H = finite_group(rows, max_order=n)
    moved = []
    for c in table(name).chars:
        vals = [None] * n
        for a, v in enumerate(c.values):
            vals[perm[a]] = v.literal()
        moved.append((c.dim, tuple(range(n)), tuple(vals)))
    assert literals(dixon_char_table(H)) == sorted(moved)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_dixon_table_digests(name):
    lit = literals(table(name))
    assert hashlib.sha256(repr(lit).encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", ["S3", "D4", "A4", "S4", "B3"])
def test_dixon_table_transports(name):
    perms = list(relabelings(group(name), 3, seed=23))
    assert perms[0][group(name).identity] != 0  # class 0 is not the identity class
    for perm in perms:
        check_transport(name, perm)


@pytest.mark.sweep
@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_dixon_relabeling_sweep(name):
    for perm in relabelings(group(name), 20, seed=1):
        check_transport(name, perm)
