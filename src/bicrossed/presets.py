"""Named example configurations.

Each preset family is one generator: h_z_z2 (= h_z_z2n:1 under its own
name), h_z_z2n:N, z_poly_zp:P and drinfeld:NAME.  resolve_preset
dispatches a name to its generator and never reads a file.  Family names
are matched exactly (only the drinfeld group name ignores case); any
other name is a ConfigError.
"""

from __future__ import annotations

from .errors import ConfigError
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    check_group_order,
    cyclic_group,
    direct_product,
    permutation_group,
)

# The named examples CI verifies (scripts/verify_presets.py).
SHIPPED = [
    "h_z_z2",
    "h_z_z2n:1",
    "h_z_z2n:2",
    "h_z_z2n:3",
    "z_poly_zp:2",
    "z_poly_zp:3",
    "drinfeld:S3",
    "drinfeld:Z2",
]


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def h_z_z2n_config(n: int) -> dict:
    """G = Z_{2n} acting on Z by sign through the parity of the exponent."""
    if n < 1:
        raise ConfigError("h_z_z2n needs n >= 1")
    check_group_order(2 * n, DEFAULT_MAX_GROUP_ORDER)
    return {
        "name": f"h_z_z2n:{n}",
        "group": {"type": "table", "table": _cyclic_table(2 * n), "name": f"Z{2 * n}"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {
            "type": "linear",
            "matrices": [[[1 if k % 2 == 0 else -1]] for k in range(2 * n)],
        },
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 4,
    }


def h_z_z2_config() -> dict:
    cfg = h_z_z2n_config(1)
    cfg["name"] = "h_z_z2"
    return cfg


def z_poly_zp_config(p: int) -> dict:
    """G = Z_p cyclically shifting the coefficient lattice Z^p."""
    if p < 2:
        raise ConfigError("z_poly_zp needs p >= 2")
    check_group_order(p, DEFAULT_MAX_GROUP_ORDER)
    # M_k is the k-th power of the cyclic shift e_j -> e_{j+1}
    shifts = [
        [[1 if i == (j + k) % p else 0 for j in range(p)] for i in range(p)] for k in range(p)
    ]
    return {
        "name": f"z_poly_zp:{p}",
        "group": {"type": "table", "table": _cyclic_table(p), "name": f"Z{p}"},
        "f_group": {"type": "free_abelian", "rank": p},
        "action": {"type": "linear", "matrices": shifts},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 2,
    }


_DRINFELD_GROUPS = {
    "S3": lambda: permutation_group([(1, 0, 2), (1, 2, 0)], name="S3"),
    "S4": lambda: permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4"),
    "A4": lambda: permutation_group([(1, 0, 3, 2), (1, 2, 0, 3)], name="A4"),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z6": lambda: cyclic_group(6),
    "V4": lambda: direct_product(cyclic_group(2), cyclic_group(2), name="V4"),
}


def drinfeld_config(group_name: str) -> dict:
    """The dual of the Drinfeld double of k^G: F = G with conjugation."""
    key = group_name.upper() if group_name.upper() in _DRINFELD_GROUPS else group_name
    if key not in _DRINFELD_GROUPS:
        raise ConfigError(
            f"unknown drinfeld group {group_name!r}; choose from {sorted(_DRINFELD_GROUPS)}"
        )
    G = _DRINFELD_GROUPS[key]()
    n = G.order
    table = [[G.mul(i, j) for j in range(n)] for i in range(n)]
    right = [[G.mul(G.mul(g, f), G.inv(g)) for f in range(n)] for g in range(n)]
    left = [[g for _f in range(n)] for g in range(n)]
    return {
        "name": f"drinfeld:{key}",
        "group": {"type": "table", "table": table, "name": G.name},
        "f_group": {"type": "finite", "table": table, "name": G.name},
        "action": {"type": "tables", "right": right, "left": left},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 4,
    }


def resolve_preset(name: str) -> dict:
    """The config of a preset name, from its family's generator."""
    if name == "h_z_z2":
        return h_z_z2_config()
    family, _, param = name.partition(":")
    if family in ("h_z_z2n", "z_poly_zp") and param:
        try:
            n = int(param)
        except ValueError:
            n = None
        if n is None or str(n) != param:  # int() also reads "+2", " 2" and "1_0"
            raise ConfigError(f"preset parameter {param!r} of {family} is not an integer")
        return h_z_z2n_config(n) if family == "h_z_z2n" else z_poly_zp_config(n)
    if family == "drinfeld" and param:
        return drinfeld_config(param)
    raise ConfigError(
        f"unknown preset {name!r}; families: h_z_z2, h_z_z2n:N, z_poly_zp:P, drinfeld:NAME"
    )
