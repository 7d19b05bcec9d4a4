"""Write the benchmark's non-preset configs into bench/configs/.

    python3 bench/make_configs.py

- b3_z3.json: the hyperoctahedral group B3 (48 signed permutation
  matrices) acting linearly on Z^3.
- s4_z4.json: S4 permuting the coordinates of Z^4.
- z4_twisted.json: a JSON copy of z4_twisted_config() from
  tests/test_deep_twisted.py (Z4 on Z with a nontrivial tau lift).

Each group table is checked for closure and associativity before any
file is written.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "configs"


def matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)) for i in range(n))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def signed_permutation_matrices(n):
    mats = set()
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            mats.add(tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n)))
    return mats


def permutation_matrices(n):
    return {
        tuple(tuple(int(perm[i] == j) for j in range(n)) for i in range(n))
        for perm in itertools.permutations(range(n))
    }


def linear_group_config(name, mats, level, radius):
    """Config of G = mats acting on Z^n by f -> M_g f, with the Cayley
    table of the matrix product (the library checks M_{gh} = M_g M_h)."""
    n = len(next(iter(mats)))
    elems = sorted(mats, key=lambda m: (m != identity(n), m))
    index = {m: i for i, m in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            prod = matmul(a, b)
            if prod not in index:
                raise SystemExit(f"{name}: the matrix set is not closed under products")
            row.append(index[prod])
        table.append(row)
    check_group_table(name, table)
    return {
        "name": name,
        "level": level,
        "group": {"type": "table", "table": table, "name": name.split("_")[0].upper()},
        "f_group": {"type": "free_abelian", "rank": n},
        "action": {"type": "linear", "matrices": [[list(r) for r in m] for m in elems]},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": radius,
    }


def check_group_table(name, table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise SystemExit(f"{name}: table is not closed")
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise SystemExit(f"{name}: table is not associative at ({a}, {b}, {c})")


def z4_twisted_config():
    path = ROOT / "tests" / "test_deep_twisted.py"
    spec = importlib.util.spec_from_file_location("_deep_twisted", path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "src"))
    spec.loader.exec_module(module)
    cfg = module.z4_twisted_config()
    check_group_table("z4_twisted", cfg["group"]["table"])
    return cfg


def main():
    configs = {
        "b3_z3.json": linear_group_config("b3_z3", signed_permutation_matrices(3), 12, 1),
        "s4_z4.json": linear_group_config("s4_z4", permutation_matrices(4), 12, 1),
        "z4_twisted.json": z4_twisted_config(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    for fname, cfg in configs.items():
        (OUT / fname).write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote bench/configs/{fname}")


if __name__ == "__main__":
    main()
