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


def klein_twisted_config() -> dict:
    """V4 acting trivially on Z, sigma trivial, tau lifted through Z -> Z2
    with tau(a, b; odd) = (-1)^(a_1 b_0) for the bits a = (a_0, a_1),
    index 2 a_0 + a_1: test_reps.klein_beta at odd f, a nondegenerate
    class.  Each odd orbit carries one 2-dimensional simple, whose
    character vanishes off the identity, its one beta-regular element;
    each even orbit carries four 1-dimensional ones."""
    odd = [["-1" if (a % 2) * (b // 2) else "1" for b in range(4)] for a in range(4)]
    v4 = [[a ^ b for b in range(4)] for a in range(4)]
    return {
        "name": "klein_twisted",
        "group": {"type": "table", "table": v4, "name": "V4"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]]] * 4},
        "sigma": {"type": "trivial"},
        "tau": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [[["1", odd[a][b]] for b in range(4)] for a in range(4)],
        },
        "radius": 3,
    }


def s4_sign_tau_config() -> dict:
    """S4 acting on Z by the sign, sigma trivial, tau lifted through
    Z -> Z2 with tau(g, g'; odd) = nu(g) nu(g') / nu(g g') for nu = -1 at
    the 3-cycle (1 2 3) alone: a coboundary, so a valid co-cocycle.  The
    stabilizer of an odd f is A4, on which beta = tau(., .; f) is not 1,
    and nu is no class function there, so the projective characters of
    its twisted table are no class functions either.  Its transversal
    {1, (2 3)} makes the tau weight of the induced characters differ from
    1: w(h, -f) = nu((2 3) h) nu(h) / (nu((2 3) h (2 3)) nu(h (2 3)))."""
    perms = sorted(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))

    def nu(p):
        return -1 if p == (0, 2, 3, 1) else 1

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    odd = [[nu(p) * nu(q) * nu(compose(p, q)) for q in perms] for p in perms]
    return {
        "name": "s4_sign_tau",
        "group": {"type": "table", "table": table, "name": "S4"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[sign(p)]] for p in perms]},
        "sigma": {"type": "trivial"},
        "tau": {
            "type": "quotient_lift",
            "moduli": [2],
            "values": [[["1", str(odd[a][b])] for b in range(24)] for a in range(24)],
        },
        "radius": 1,
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


def ball_scoped_lift_config() -> dict:
    """Z2 swapping the coordinates of Z^2, tau lifted through
    Z^2 -> Z1 x Z2 with every value 1: a valid config, but the swap does
    not descend to the quotient (it would send (0, 1) to (1, 0), whose
    class differs), so the cocycle laws are checked on a ball only and
    their scope is "ball radius r"."""
    return {
        "name": "swap_ball_scoped_tau",
        "group": {"type": "table", "table": [[0, 1], [1, 0]], "name": "Z2"},
        "f_group": {"type": "free_abelian", "rank": 2},
        "action": {"type": "linear", "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
        "sigma": {"type": "trivial"},
        "tau": {
            "type": "quotient_lift",
            "moduli": [1, 2],
            "values": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]],
        },
        "radius": 1,
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


def _permutation_closure(generators) -> list:
    """The elements of the permutation group the generators span, sorted:
    permutation_group's index order."""
    elems = {tuple(range(len(generators[0])))}
    frontier = list(elems)
    while frontier:
        new = {tuple(p[g[i]] for i in range(len(p))) for p in frontier for g in generators}
        frontier = list(new - elems)
        elems |= new
    return sorted(elems)


def split_extension_ctx(f_gens, g_gens):
    """X = F x| G for a normal subgroup F with complement G in a permutation
    group: g f = (g f g^-1) g, so g > f = g f g^-1 and g < f = g."""
    Fl, Gl = _permutation_closure(f_gens), _permutation_closure(g_gens)
    f_index = {f: i for i, f in enumerate(Fl)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(q)))

    def inverse(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    right = tuple(tuple(f_index[compose(compose(g, f), inverse(g))] for f in Fl) for g in Gl)
    left = tuple((gi,) * len(Fl) for gi in range(len(Gl)))
    G, F = permutation_group(g_gens, name="G"), FiniteF(permutation_group(f_gens, name="F"))
    return MatchedPairCtx(G, F, TableActions(right=right, left=left))


# The split extensions X = F x| G with F normal: the trivial-left-action
# matched pairs of finite groups, as (F generators, G generators).
_V4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
SPLIT_EXTENSIONS = {
    "S3 = Z3 x| Z2": ([(1, 2, 0)], [(1, 0, 2)]),
    "A4 = V4 x| Z3": (_V4, [(1, 2, 0, 3)]),
    "S4 = V4 x| S3": (_V4, [(1, 0, 2, 3), (1, 2, 0, 3)]),
    "S4 = A4 x| Z2": ([(1, 0, 3, 2), (1, 2, 0, 3)], [(1, 0, 2, 3)]),
    "D4 = Z4 x| Z2": ([(1, 2, 3, 0)], [(0, 3, 2, 1)]),
}
