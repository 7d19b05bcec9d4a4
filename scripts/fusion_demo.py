#!/usr/bin/env python3
"""Print the fusion rules of H(Z, Z_2n) in the grouplike/E_j^(k) labels.

Usage: fusion_demo.py [n] [jmax]
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicrossed.config import build_config
from bicrossed.cyclotomic import rational, root_of_unity
from bicrossed.fusion import FusionRing
from bicrossed.presets import resolve_preset


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    jmax = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    build = build_config(resolve_preset(f"h_z_z2n:{n}"))
    ring = FusionRing(build.hopf)
    index = ring.index

    def kg(i):
        want = root_of_unity(i % (2 * n), 2 * n)
        return next(d for d in index.simples_for_f((0,)) if d.chi.value_map()[1] == want)

    def E(j, k):
        want = root_of_unity(k % n, n) if n > 1 else rational(1)
        return next(
            d for d in index.simples_for_f((j,)) if d.chi.value_map()[2 % (2 * n)] == want
        )

    names = {}
    for i in range(2 * n):
        names[kg(i).uid] = f"kg^{i}"
    for j in range(1, 2 * jmax + 1):
        for k in range(n):
            names[E(j, k).uid] = f"E_{j}^({k})"

    def show(row):
        return " + ".join(
            (f"{m}*" if m > 1 else "") + names.get(u, u) for u, m in row.summands
        )

    print(f"H(Z, Z_{2 * n}) fusion rules, j up to {jmax}:")
    for j in range(1, jmax + 1):
        for j2 in range(j, jmax + 1):
            for k in range(n):
                for l in range(n):
                    row = ring.decompose_product(E(j, k), E(j2, l))
                    print(f"  E_{j}^({k}) * E_{j2}^({l}) = {show(row)}")
    for i in range(2 * n):
        row = ring.decompose_product(kg(i), E(1, 0))
        print(f"  kg^{i} * E_1^(0) = {show(row)}")
    duals = ", ".join(
        f"S(E_1^({k})) = {names[ring.dual_of(E(1, k)).uid]}" for k in range(n)
    )
    print(f"  duals: {duals}")


if __name__ == "__main__":
    main()
