"""Differential oracles for the support-indexed sweeps and the trivial-cocycle
identity.

verify_hopf, verify_star and verify_cocycles walk only the tuples where a
law can fail.  The brute sweeps they replaced are kept here: each walks
every tuple, and each report must give the same instance count,
violation_count and full witness list, in order, at unbounded
max_violations.  The fixtures are the shipped finite presets and the
radius-1 free-abelian ones with drinfeld:A4, the broken and twisted
configs, corrupted tables of the S4 = Z4 . S3 factorization, and a
G = F = Z2 pair whose left action moves g only at f = 1.  The antipode
law, summed term by term from antipode_basis and basis_mul, is pinned to
its HElem form (H.mul of S(p_k1) and p_k2, scaled and added) on the same
fixtures; broken_linear and every corrupted S4 table have witnesses.

Mutations of the fast paths, each of which fails a test here:
- drop the Delta class {(g x^-1 < x > f)(x < f)} from the bialgebra
  candidates;
- drop the eps class {e} (taken when g = e) from the bialgebra candidates;
- drop the second associativity class (the g-part of k2 acted on by f2);
- drop the image-key index of the antimultiplicativity sweep (walk only
  the k2 whose g-part is g < f);
- drop the Haar partner lookup (walk only k1 = the key of k2*);
- short-circuit verify_cocycles when only one cocycle is trivial;
- in the antipode law, drop the coefficient of S(p_k1), take S(p_k1) on
  the right-hand side, or multiply p_k2 S(p_k1) on the left-hand side.
"""

from __future__ import annotations

import pytest

from conftest import (
    broken_compat_config,
    broken_linear_config,
    build_preset,
    s4_factorization_ctx,
    sigma_two_config,
    twisted_sigma_config,
    twisted_tau_config,
)
from test_cocycles import naive_cocycle_laws

from bicrossed.cocycles import SigmaCocycle, TauCocycle, _verification_domain, verify_cocycles
from bicrossed.config import build_config
from bicrossed.groups import FiniteF, cyclic_group, f_ball
from bicrossed.hopf import BicrossedHopf, HElem, HTensor, pair_check_radius, verify_hopf, verify_star
from bicrossed.matched_pair import MatchedPairCtx, TableActions

UNBOUNDED = 10**9


# -- the brute sweeps --------------------------------------------------------


def _keys(H, radius):
    ball = f_ball(H.F, pair_check_radius(H, radius))
    return [(g, f) for f in ball for g in H.G.elements()]


def _name(H, k):
    return {"g": k[0], "f": H.F.label(k[1])}


def brute_associativity(H, keys):
    out = []
    for k1 in keys:
        for k2 in keys:
            p12 = H.basis_mul(k1, k2)
            for k3 in keys:
                left = right = None
                if p12 is not None:
                    q = H.basis_mul(p12[0], k3)
                    if q is not None:
                        left = (q[0], p12[1] * q[1])
                p23 = H.basis_mul(k2, k3)
                if p23 is not None:
                    q = H.basis_mul(k1, p23[0])
                    if q is not None:
                        right = (q[0], q[1] * p23[1])
                if left != right:
                    out.append({"a": _name(H, k1), "b": _name(H, k2), "c": _name(H, k3)})
    return out


def brute_bialgebra(H, keys):
    unit = H.unit()
    out = [] if H.comul(unit) == HTensor.of(unit, unit) else [{"pair": "unit"}]
    elems = [HElem.basis(*k) for k in keys]
    comuls = [H.comul(b) for b in elems]
    for k1, a, da in zip(keys, elems, comuls):
        ea = H.counit(a)
        for k2, b, db in zip(keys, elems, comuls):
            ab = H.mul(a, b)
            if H.comul(ab) != H.tensor_mul(da, db):
                out.append({"law": "Delta", "a": _name(H, k1), "b": _name(H, k2)})
            if H.counit(ab) != ea * H.counit(b):
                out.append({"law": "eps", "a": _name(H, k1), "b": _name(H, k2)})
    return out


def brute_antimultiplicative(H, keys, anti):
    out = []
    elems = [HElem.basis(*k) for k in keys]
    images = [anti(b) for b in elems]
    for k1, a, sa in zip(keys, elems, images):
        for k2, b, sb in zip(keys, elems, images):
            if anti(H.mul(a, b)) != H.mul(sb, sa):
                out.append({"a": _name(H, k1), "b": _name(H, k2)})
    return out


def brute_haar_off_diagonal(H, keys):
    return [
        {"a": _name(H, k1), "b": _name(H, k2)}
        for k1 in keys
        for k2 in keys
        if k1 != k2 and not H.haar_gram(HElem.basis(*k1), HElem.basis(*k2)).is_zero()
    ]


def helem_antipode_law(H, radius):
    """The antipode law as HElem sums, m(S (x) id)Delta = m(id (x) S)Delta
    = eps * unit, on every basis element at the full radius."""
    basis, unit = HElem.basis, H.unit()
    out = []
    for f in f_ball(H.F, radius):
        for g in H.G.elements():
            k = (g, f)
            target = unit.scale(H.counit(basis(*k)))
            left = right = HElem.zero()
            for (k1, k2), c in H.comul_basis(k):
                left = left + H.mul(H.antipode(basis(*k1)), basis(*k2)).scale(c)
                right = right + H.mul(basis(*k1), H.antipode(basis(*k2))).scale(c)
            if not (left == target and right == target):
                out.append(_name(H, k))
    return out


def brute_cocycle_laws(H, radius):
    """The three cocycle laws over the verification domain, every tuple."""
    domain, _scope = _verification_domain(H.ctx, H.sigma, H.tau, radius)
    return naive_cocycle_laws(H.ctx, H.sigma, H.tau, domain)


# -- fixtures ------------------------------------------------------------------


def _trivial_hopf(ctx):
    return BicrossedHopf(ctx, SigmaCocycle.trivial(), TauCocycle.trivial())


def _corrupt(ctx, which, g, f, value):
    """ctx with action[which][g][f] replaced by value."""
    tables = {"right": [list(r) for r in ctx.action.right], "left": [list(r) for r in ctx.action.left]}
    tables[which][g][f] = value
    action = TableActions(**{k: tuple(map(tuple, v)) for k, v in tables.items()})
    return MatchedPairCtx(ctx.G, ctx.F, action)


def z2_left_moves_at_one():
    """G = F = Z2, g > f = 1 and g < f = f: the smallest pair on which the
    eps term of "bialgebra compatibility" fails with ab = 0."""
    Z2 = cyclic_group(2)
    action = TableActions(right=((0, 0), (0, 0)), left=((0, 1), (0, 1)))
    return MatchedPairCtx(Z2, FiniteF(Z2), action)


def _s4_cases():
    s4 = s4_factorization_ctx()
    return {
        "s4": s4,
        "s4 right g1": _corrupt(s4, "right", 1, 1, 3),
        "s4 right e": _corrupt(s4, "right", s4.G.identity, 2, 0),
        "s4 right g5": _corrupt(s4, "right", 5, 3, 2),
        "s4 left g2": _corrupt(s4, "left", 2, 1, 0),
        "s4 left e": _corrupt(s4, "left", s4.G.identity, 3, 4),
        "s4 left g3": _corrupt(s4, "left", 3, 0, 5),
    }


PRESETS = [
    ("drinfeld:S3", 0), ("drinfeld:Z2", 0), ("drinfeld:A4", 0),
    ("h_z_z2", 1), ("h_z_z2n:1", 1), ("h_z_z2n:2", 1), ("h_z_z2n:3", 1),
    ("z_poly_zp:2", 1), ("z_poly_zp:3", 1),
]
CONFIGS = {
    "broken_compat": broken_compat_config,
    "broken_linear": broken_linear_config,
    "twisted_tau": twisted_tau_config,
    "twisted_sigma": twisted_sigma_config,
    "sigma_two": sigma_two_config,
}
CASES = (
    [f"preset {name} {radius}" for name, radius in PRESETS]
    + [f"config {name}" for name in CONFIGS]
    + list(_s4_cases())
    + ["z2 left moves at one"]
)


def _build(case):
    """(hopf, radius) of a case name."""
    if case.startswith("preset "):
        _, name, radius = case.split()
        return build_preset(name).hopf, int(radius)
    if case.startswith("config "):
        return build_config(CONFIGS[case.split()[1]]()).hopf, 1
    if case == "z2 left moves at one":
        return _trivial_hopf(z2_left_moves_at_one()), 0
    return _trivial_hopf(_s4_cases()[case]), 0


def _result(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.instances, check.violation_count, check.violations


# -- the comparisons -----------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_hopf_sweeps_match_brute(case):
    H, radius = _build(case)
    keys = _keys(H, radius)
    n = len(keys)
    rep = verify_hopf(H, radius, max_violations=UNBOUNDED)
    for name, instances, witnesses in (
        ("associativity", n**3, brute_associativity(H, keys)),
        ("bialgebra compatibility", n**2, brute_bialgebra(H, keys)),
        ("antipode antimultiplicative", n**2, brute_antimultiplicative(H, keys, H.antipode)),
    ):
        assert _result(rep, name) == (instances, len(witnesses), witnesses), name


@pytest.mark.parametrize("case", CASES)
def test_antipode_law_matches_helem_form(case):
    H, radius = _build(case)
    rep = verify_hopf(H, radius, max_violations=UNBOUNDED)
    witnesses = helem_antipode_law(H, radius)
    n = len(f_ball(H.F, radius)) * H.G.order
    assert _result(rep, "antipode law") == (n, len(witnesses), witnesses)


@pytest.mark.parametrize("case", [c for c in CASES if c != "config sigma_two"])
def test_star_sweeps_match_brute(case):
    H, radius = _build(case)
    keys = _keys(H, radius)
    n = len(keys)
    rep = verify_star(H, radius, max_violations=UNBOUNDED)
    for name, instances, witnesses in (
        ("star antimultiplicative", n**2, brute_antimultiplicative(H, keys, H.star)),
        ("haar_gram off-diagonal = 0", n * (n - 1), brute_haar_off_diagonal(H, keys)),
    ):
        assert _result(rep, name) == (instances, len(witnesses), witnesses), name


@pytest.mark.parametrize("case", CASES)
def test_cocycle_sweeps_match_brute(case):
    H, radius = _build(case)
    rep = verify_cocycles(H.ctx, H.sigma, H.tau, radius, max_violations=UNBOUNDED)
    for name, instances, witnesses in brute_cocycle_laws(H, radius):
        assert _result(rep, name) == (instances, len(witnesses), witnesses), name


def test_fixtures_exercise_every_candidate_class():
    """Each skip above is only pinned where the brute sweep finds witnesses."""
    s4_left = _trivial_hopf(_s4_cases()["s4 left g2"])
    keys = _keys(s4_left, 0)
    assert brute_associativity(s4_left, keys)
    assert brute_haar_off_diagonal(s4_left, keys)
    z2 = _trivial_hopf(z2_left_moves_at_one())
    eps = [w for w in brute_bialgebra(z2, _keys(z2, 0)) if w["law"] == "eps"]
    assert eps
    compat = build_config(broken_compat_config()).hopf
    assert any(witnesses for _name, _n, witnesses in brute_cocycle_laws(compat, 0))
