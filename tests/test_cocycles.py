"""Cocycle specs, the cocycle laws, orbit 2-cocycles and unitarity.

is_unitary walks the sigma values, then the tau values.  Mutations that
fail test_unitarity_tau_witness: walk the sigma values only, or drop g2
from a tau witness.
"""

from __future__ import annotations

import random

import pytest

from conftest import (
    broken_compat_config,
    klein_twisted_config,
    s4_factorization_ctx,
    s4_sign_tau_config,
    sigma_two_config,
    twisted_sigma_config,
    twisted_tau_config,
)
from test_deep_twisted import s3_factorization_tau_config, z4_twisted_config

from bicrossed.cocycles import (
    Beta2Cocycle,
    SigmaCocycle,
    TauCocycle,
    beta_for_orbit,
    is_unitary,
    verify_cocycles,
)
from bicrossed.config import build_config
from bicrossed.cyclotomic import one, rational, root_of_unity
from bicrossed.errors import ConfigError, InternalInconsistencyError
from bicrossed.groups import FreeAbelianF, cyclic_group, direct_product, f_ball
from bicrossed.matched_pair import LinearAction, MatchedPairCtx


def trivial_ctx():
    G = cyclic_group(2)
    return MatchedPairCtx(G, FreeAbelianF(1), LinearAction(matrices=(((1,),), ((-1,),))))


def test_trivial_cocycles_pass():
    ctx = trivial_ctx()
    rep = verify_cocycles(ctx, SigmaCocycle.trivial(), TauCocycle.trivial(), 3)
    assert rep.ok
    assert all("global" in c.scope for c in rep.checks)


def test_trivial_eval_is_one():
    s, t = SigmaCocycle.trivial(), TauCocycle.trivial()
    assert s.eval(1, (3,), (4,)).is_one()
    assert t.eval(1, 1, (9,)).is_one()


def test_normalization_rejected():
    build = build_config(twisted_tau_config())
    # poke the identity slot: tau(g, g'; 1_F) must be 1
    cfg = twisted_tau_config()
    cfg["tau"]["values"][1][1][0] = "-1"
    with pytest.raises(ConfigError):
        build_config(cfg)
    cfg2 = twisted_sigma_config()
    cfg2["sigma"]["values"][0][1][1] = "-1"  # sigma(1_G; f, f') must be 1
    with pytest.raises(ConfigError):
        build_config(cfg2)
    del build


def test_zero_values_rejected():
    cfg = twisted_sigma_config()
    cfg["sigma"]["values"][1][1][1] = "0"
    with pytest.raises(ConfigError):
        build_config(cfg)


def test_twisted_tau_config_valid():
    build = build_config(twisted_tau_config())
    rep = verify_cocycles(build.ctx, build.sigma, build.tau, 3)
    assert rep.ok
    assert all("global" in c.scope for c in rep.checks)


def test_twisted_sigma_config_valid():
    build = build_config(twisted_sigma_config())
    rep = verify_cocycles(build.ctx, build.sigma, build.tau, 3)
    assert rep.ok


def test_broken_compat_fails_with_witness():
    build = build_config(broken_compat_config())
    rep = verify_cocycles(build.ctx, build.sigma, build.tau, 3)
    assert not rep.ok
    compat = next(c for c in rep.checks if c.name == "sigma/tau compatibility")
    assert compat.violations
    tau_law = next(c for c in rep.checks if c.name == "tau cocycle law")
    assert tau_law.ok


def test_quotient_lift_factors_through_quotient():
    build = build_config(twisted_tau_config())
    tau = build.tau
    for f in [(1,), (3,), (-5,), (17,)]:
        assert tau.eval(1, 1, f) == rational(-1)
    for f in [(0,), (2,), (-4,)]:
        assert tau.eval(1, 1, f).is_one()


def test_beta_for_orbit_trivial_tau():
    build = build_config(twisted_tau_config())
    # G acts trivially here, so the stabilizer of any f is all of G
    orb = build.ctx.orbit_of((1,))
    beta = beta_for_orbit(build.ctx, build.tau, orb)
    assert beta.eval(1, 1) == rational(-1)
    assert beta.eval(0, 1).is_one()
    orb_even = build.ctx.orbit_of((2,))
    assert beta_for_orbit(build.ctx, build.tau, orb_even).is_trivial


def test_klein_beta_fixture():
    K4 = direct_product(cyclic_group(2), cyclic_group(2))

    def bits(i):
        return (i // 2, i % 2)

    values = {}
    for i in range(4):
        for j in range(4):
            b, c = bits(i)[1], bits(j)[0]
            values[(i, j)] = rational((-1) ** (b * c))
    beta = Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)
    # exhaustive 4^3 identity check is inside from_table; spot-check values
    assert beta.eval(1, 2) == rational(-1)
    assert beta.eval(2, 1) == rational(1)
    assert not beta.is_trivial


def test_bad_beta_rejected():
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    values = {(i, j): one() for i in range(4) for j in range(4)}
    values[(1, 2)] = rational(-1)
    values[(2, 1)] = rational(-1)  # breaks the cocycle identity
    with pytest.raises(InternalInconsistencyError):
        Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)


def test_is_unitary():
    ctx = trivial_ctx()
    ok, witness = is_unitary(SigmaCocycle.trivial(), TauCocycle.trivial(), ctx, 3)
    assert ok and witness is None
    build = build_config(twisted_sigma_config())
    ok, witness = is_unitary(build.sigma, build.tau, build.ctx, 3)
    assert ok
    # a value of modulus != 1 is caught with its tuple
    cfg = twisted_sigma_config()
    cfg["sigma"]["values"][1][1][1] = "2"
    bad = build_config(cfg)
    ok, witness = is_unitary(bad.sigma, bad.tau, bad.ctx, 3)
    assert not ok
    assert witness["kind"] == "sigma"
    assert witness["value"] == "2"


def test_unitary_root_of_unity_table():
    cfg = twisted_sigma_config()
    cfg["sigma"]["values"][1][1][1] = "z^1@8"
    build = build_config(cfg)
    ok, _ = is_unitary(build.sigma, build.tau, build.ctx, 2)
    assert ok
    assert build.level == 8  # session level lifted to hold the literal


def naive_cocycle_laws(ctx, sigma, tau, Fs=None):
    """The three laws of verify_cocycles over the f-domain Fs (all of a
    finite F by default), written out from their definitions: (name,
    instances, witnesses in order)."""
    G, F, R, L = ctx.G, ctx.F, ctx.act_right, ctx.act_left
    Gs, lab = list(G.elements()), F.label
    Fs = F.ball(0) if Fs is None else Fs
    s, t = sigma.eval, tau.eval
    return [
        ("sigma cocycle law", len(Gs) * len(Fs) ** 3, [
            {"g": g, "f": lab(f), "f2": lab(f2), "f3": lab(f3)}
            for g in Gs for f in Fs for f2 in Fs for f3 in Fs
            if s(L(g, f), f2, f3) * s(g, f, F.mul(f2, f3))
            != s(g, f, f2) * s(g, F.mul(f, f2), f3)
        ]),
        ("tau cocycle law", len(Gs) ** 3 * len(Fs), [
            {"g": g, "g2": g2, "g3": g3, "f": lab(f)}
            for g in Gs for g2 in Gs for g3 in Gs for f in Fs
            if t(g, g2, R(g3, f)) * t(G.mul(g, g2), g3, f)
            != t(g, G.mul(g2, g3), f) * t(g2, g3, f)
        ]),
        ("sigma/tau compatibility", len(Gs) ** 2 * len(Fs) ** 2, [
            {"g": g, "g2": g2, "f": lab(f), "f2": lab(f2)}
            for g in Gs for g2 in Gs for f in Fs for f2 in Fs
            if s(G.mul(g, g2), f, f2) * t(g, g2, F.mul(f, f2))
            != s(g, R(g2, f), R(L(g2, f), f2)) * s(g2, f, f2) * t(g, g2, f)
            * t(L(g, R(g2, f)), L(g2, f), f2)
        ]),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweeps_match_naive_laws(seed):
    # Random normalized tables on a matched pair with both actions nontrivial:
    # every law fails somewhere, and the witnesses must match the definitions.
    ctx = s4_factorization_ctx()
    G, e_f = ctx.G, ctx.F.identity
    n, m = G.order, ctx.F.group.order
    rnd = random.Random(seed)
    values = (one(), rational(-1), root_of_unity(1, 4))

    def value(trivial):
        return one() if trivial else rnd.choice(values)

    sigma = SigmaCocycle.finite_table(ctx, [
        [[value(g == G.identity or e_f in (f, f2)) for f2 in range(m)] for f in range(m)]
        for g in range(n)
    ])
    tau = TauCocycle.finite_table(ctx, [
        [[value(G.identity in (g, g2) or f == e_f) for f in range(m)] for g2 in range(n)]
        for g in range(n)
    ])
    rep = verify_cocycles(ctx, sigma, tau, 0, max_violations=10**6)
    got = [(c.name, c.instances, c.violations) for c in rep.checks]
    expected = naive_cocycle_laws(ctx, sigma, tau)
    assert got == expected
    assert all(witnesses for _name, _n, witnesses in expected)


def test_beta_identity_short_circuit_keeps_messages():
    # An all-one beta passes at once; one non-one value still runs the full
    # check and fails with the message of the first failing tuple.
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    ones = {(i, j): one() for i in range(4) for j in range(4)}
    assert Beta2Cocycle.from_table(K4, (0, 1, 2, 3), ones).is_trivial
    for key, message in (
        ((1, 2), "2-cocycle identity fails at (1,1,2)"),
        ((0, 3), "2-cocycle not normalized at 3"),
        ((3, 3), "2-cocycle identity fails at (1,2,3)"),
    ):
        values = dict(ones)
        values[key] = rational(-1)
        with pytest.raises(InternalInconsistencyError) as err:
            Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)
        assert str(err.value) == message


def test_beta_values_are_read_only():
    # is_trivial is decided when beta is built, so neither its values nor
    # the dict it was built from may change them afterwards
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    values = {(i, j): one() for i in range(4) for j in range(4)}
    beta = Beta2Cocycle.from_table(K4, (0, 1, 2, 3), values)
    with pytest.raises(TypeError):
        beta.values[(1, 2)] = rational(-1)
    values[(1, 2)] = rational(-1)
    assert beta.eval(1, 2).is_one() and beta.is_trivial


# Twisted fixtures and the ball radii whose orbits they are read on.
_TWISTED_BETAS = {
    "klein_twisted": (klein_twisted_config, 2),
    "s4_sign_tau": (s4_sign_tau_config, 2),
    "s3_factorization_tau": (s3_factorization_tau_config, 0),
    "z4_twisted": (z4_twisted_config, 6),
}


@pytest.mark.parametrize("name", sorted(_TWISTED_BETAS))
def test_is_trivial_matches_the_values(name):
    config, radius = _TWISTED_BETAS[name]
    build = build_config(config())
    ctx = build.ctx
    orbits = {ctx.orbit_of(f).representative: ctx.orbit_of(f) for f in f_ball(ctx.F, radius)}
    verdicts = []
    for orbit in orbits.values():
        beta = beta_for_orbit(ctx, build.tau, orbit)
        verdicts.append(beta.is_trivial)
        assert beta.is_trivial == all(v.is_one() for v in beta.values.values())
    assert False in verdicts  # a twisted orbit on every fixture


def test_unitarity_trivial_identity_and_sigma_two_witness():
    s4 = s4_factorization_ctx()
    assert is_unitary(SigmaCocycle.trivial(), TauCocycle.trivial(), s4, 0) == (True, None)
    bad = build_config(sigma_two_config())
    assert is_unitary(bad.sigma, bad.tau, bad.ctx, 4) == (False, {
        "kind": "sigma", "g": 1, "f": "1", "f2": "1", "value": "2", "scope": "global",
    })


def test_unitarity_tau_witness():
    cfg = twisted_tau_config()
    cfg["tau"]["values"][1][1][1] = "2"
    bad = build_config(cfg)
    assert is_unitary(bad.sigma, bad.tau, bad.ctx, 4) == (False, {
        "kind": "tau", "g": 1, "g2": 1, "f": "1", "value": "2",
        "scope": "global (quotient representatives)",
    })
