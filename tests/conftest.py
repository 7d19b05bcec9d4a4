from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

import bicrossed
from bicrossed.config import build_config
from bicrossed.groups import FiniteF, permutation_group
from bicrossed.matched_pair import MatchedPairCtx, TableActions
from bicrossed.presets import resolve_preset


@pytest.fixture
def bounded_ball_enumeration(monkeypatch):
    """Make enumerating a free-abelian ball over MAX_BALL_SIZE fail at once,
    so a test of the ball budget cannot allocate the ball it expects to be
    refused."""
    from bicrossed import groups

    class BoundedItertools:
        @staticmethod
        def product(*ranges, repeat=1):
            if math.prod(len(r) for r in ranges) ** repeat > groups.MAX_BALL_SIZE:
                raise AssertionError("free-abelian ball enumerated past MAX_BALL_SIZE")
            return itertools.product(*ranges, repeat=repeat)

    monkeypatch.setattr(groups, "itertools", BoundedItertools)


def build_preset(name: str):
    return build_config(resolve_preset(name))


def checkout_env() -> dict:
    """The environment for a subprocess that imports bicrossed from this
    checkout: os.environ with its src directory first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(bicrossed.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def h_z_z2():
    return build_preset("h_z_z2")


@pytest.fixture(scope="session")
def h_z_z2n_2():
    return build_preset("h_z_z2n:2")


@pytest.fixture(scope="session")
def drinfeld_s3():
    return build_preset("drinfeld:S3")


@pytest.fixture(scope="session")
def z_poly_zp3():
    return build_preset("z_poly_zp:3")


def twisted_tau_config() -> dict:
    """Z acting trivially under G = Z2, tau lifted through Z -> Z2 with
    tau(g, g; odd) = -1: a valid nontrivial co-cocycle."""
    return {
        "name": "z_z2_twisted_tau",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]], [[1]]]},
        "sigma": {"type": "trivial"},
        "tau": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [
                [["1", "1"], ["1", "1"]],
                [["1", "1"], ["1", "-1"]],
            ],
        },
        "radius": 4,
    }


def twisted_sigma_config() -> dict:
    """Same shape with sigma(g; odd, odd) = -1 instead: a valid cocycle."""
    return {
        "name": "z_z2_twisted_sigma",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]], [[1]]]},
        "sigma": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [
                [["1", "1"], ["1", "1"]],
                [["1", "1"], ["1", "-1"]],
            ],
        },
        "tau": {"type": "trivial"},
        "radius": 4,
    }


def broken_compat_config() -> dict:
    """tau(g, g; f_k) = i^(k mod 2 ... ) pattern with t1*t1 != t2: the tau
    law holds but the sigma/tau compatibility fails, so the coproduct is
    not multiplicative."""
    one, neg = "1", "-1"
    # F = Z4 by table; t_1 = 1, t_2 = -1, t_3 = 1
    t = ["1", "1", "-1", "1"]
    tau_block_g = [[one] * 4, [t[k] for k in range(4)]]
    return {
        "name": "broken_compat",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {
            "type": "finite",
            "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
            "name": "Z4",
        },
        "action": {
            "type": "tables",
            "right": [[0, 1, 2, 3], [0, 1, 2, 3]],
            "left": [[0, 0, 0, 0], [1, 1, 1, 1]],
        },
        "sigma": {"type": "trivial"},
        "tau": {"type": "table", "values": [[[one] * 4, [one] * 4], tau_block_g]},
        "radius": 4,
    }


def broken_linear_config() -> dict:
    """Z2 acting on Z^2 by the shear [[1,1],[0,1]]: unimodular, so it is
    accepted, but not an involution, so the matrices are no homomorphism
    and the right action law fails on the spot ball."""
    return {
        "name": "broken_linear",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "free_abelian", "rank": 2},
        "action": {"type": "linear", "matrices": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 2,
    }


def drinfeld_s3_relabeled_config() -> dict:
    """drinfeld:S3 on a table whose identity is element 1 and whose
    element 0 is a transposition, so conjugacy class 0 is not the
    identity class: right action g f g^-1, left action trivial."""
    table = [
        [1, 0, 4, 5, 2, 3],
        [0, 1, 2, 3, 4, 5],
        [3, 2, 1, 0, 5, 4],
        [2, 3, 5, 4, 1, 0],
        [5, 4, 0, 1, 3, 2],
        [4, 5, 3, 2, 0, 1],
    ]
    n = len(table)
    inv = [table[a].index(1) for a in range(n)]
    right = [[table[table[g][f]][inv[g]] for f in range(n)] for g in range(n)]
    return {
        "name": "drinfeld_s3_identity_at_1",
        "group": {"type": "table", "table": table, "name": "S3"},
        "f_group": {"type": "finite", "table": table, "name": "S3"},
        "action": {"type": "tables", "right": right, "left": [[g] * n for g in range(n)]},
        "sigma": {"type": "trivial"},
        "tau": {"type": "trivial"},
        "radius": 0,
    }


def sigma_two_config() -> dict:
    """One sigma value set to 2: rejected by the unitarity gate."""
    one = "1"
    return {
        "name": "sigma_two",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "finite", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "action": {
            "type": "tables",
            "right": [[0, 1], [0, 1]],
            "left": [[0, 0], [1, 1]],
        },
        "sigma": {"type": "table", "values": [[[one, one], [one, one]], [[one, one], [one, "2"]]]},
        "tau": {"type": "trivial"},
        "radius": 4,
    }


def s4_factorization_ctx():
    """S4 = F G with F = <(0 1 2 3)> and G = S3 fixing 3: g f = (g > f)(g < f)
    defines a matched pair in which neither action is trivial."""
    # Element tuples in permutation_group's index order, which is sorted.
    Fl = [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
    Gl = sorted(p for p in itertools.permutations(range(4)) if p[3] == 3)
    split = {
        tuple(f[g[i]] for i in range(4)): (fi, gi)
        for fi, f in enumerate(Fl)
        for gi, g in enumerate(Gl)
    }
    right, left = [], []
    for g in Gl:
        pairs = [split[tuple(g[f[i]] for i in range(4))] for f in Fl]
        right.append(tuple(fi for fi, _ in pairs))
        left.append(tuple(gi for _, gi in pairs))
    G = permutation_group([(1, 0, 2, 3), (1, 2, 0, 3)], name="S3")
    F = FiniteF(permutation_group([(1, 2, 3, 0)], name="Z4"))
    return MatchedPairCtx(G, F, TableActions(right=tuple(right), left=tuple(left)))
