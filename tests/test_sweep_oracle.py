"""Differential oracles for the support-indexed sweeps and the trivial-cocycle
identity.

verify_hopf, verify_star and verify_cocycles walk only the tuples where a
law can fail, and read the structure maps as keys times cocycle weights
(None for a trivial cocycle).  The brute sweeps they replaced are kept
here: each walks every tuple, and each report must give the same instance
count, violation_count and full witness list, in order, at unbounded
max_violations.  The fixtures are the shipped finite presets and the
radius-1 free-abelian ones with drinfeld:A4, the broken and twisted
configs (sigma_and_tau has both cocycles nontrivial, so every weight is a
CycNum), twisted_sigma with one sigma value i, a sigma that is not
symmetric in its F arguments, corrupted tables of the S4 = Z4 . S3
factorization, a G = F = Z2 pair whose left action moves g only at f = 1,
twisted_tau with one tau value negated, on which coassociativity fails by
a coefficient alone, and two valid twists with values i: tau on S3 and
sigma on Z4, each over Z.  The antipode law, summed term by term from
antipode_basis and basis_mul, is pinned to its HElem form (H.mul of
S(p_k1) and p_k2, scaled and added) on the same fixtures; broken_linear
and every corrupted S4 table have witnesses.  Coassociativity, the
coalgebra antihomomorphism and the left integral law are pinned to their
_accumulate, HTensor and HElem forms, "S^2 = id", the counit laws, "star
involution" and "Delta is a star map" to HElem and HTensor forms built
from H.antipode, H.counit, H.star and H.comul, and the Delta(a) Delta(b)
of comul_product to tensor_mul(H, H.comul(a), H.comul(b)), the tensor
product kept here as its oracle, on every pair of basis elements.  The
brute sweeps read the same basis maps as the fast ones, so a wrong weight
formula in a map is caught only by a law failing on valid twisted data.

Mutations, each run on a copy of the tree; every one fails a test here,
named after the mutation:
- drop the Delta class {(g x^-1 < x > f)(x < f)} from the bialgebra
  candidates: test_hopf_sweeps_match_brute (6 cases);
- drop the eps class {e} (taken when g = e) from the bialgebra
  candidates: test_hopf_sweeps_match_brute[z2 left moves at one];
- drop the second associativity class (the g-part of k2 acted on by f2):
  test_hopf_sweeps_match_brute (4 cases);
- drop the image-key index of the antimultiplicativity sweep (walk only
  the k2 whose g-part is g < f): test_hopf_sweeps_match_brute and
  test_star_sweeps_match_brute (9 cases);
- drop the Haar partner lookup (walk only k1 = the key of k2*):
  test_star_sweeps_match_brute (2 cases);
- short-circuit verify_cocycles when only one cocycle is trivial:
  test_cocycle_sweeps_match_brute (5 cases);
- in the antipode law, drop the coefficient of S(p_k1), take S(p_k1) on
  the right-hand side, or multiply p_k2 S(p_k1) on the left-hand side:
  test_antipode_law_matches_helem_form (6, 24 and 4 cases);
- drop the left-leg g-part test of the Delta(a) Delta(b) lookup: 53 tests;
- compare coassociativity keys only:
  test_per_element_laws_match_brute[twisted_tau negated];
- drop the coefficient of m(p_k) from Delta(m(p_k)) in the shared
  comultiplicativity law: test_per_element_laws_match_brute (9 cases);
- in the left integral law, drop the factor 1/|G| or hold at every f:
  test_per_element_laws_match_brute (25 and 24 cases);
- in the star antimultiplicativity sweep, leave sigma unconjugated:
  test_star_sweeps_match_brute[config sigma_i];
- in the eps half of "bialgebra compatibility", compare a None weight
  with _ONE unconverted: 21 tests;
- in the shared comultiplicativity law, drop scalar (a star left
  unconjugated): test_star_laws_match_helem_form[config tau_s3_i] (2);
- call the antipode's comultiplicativity law with its legs not flipped:
  15 tests;
- basis_mul weighs by sigma(g; f2, f): test_hopf_sweeps_match_brute
  [config sigma_asymmetric], whose brute antimultiplicativity uses H.mul;
- comul_basis weighs by tau(x, g x^-1; f):
  test_valid_twists_pass_every_law[tau_s3_i];
- antipode_basis drops the inverse of sigma tau:
  test_valid_twists_pass_every_law[sigma_z4_i];
- star_basis drops the conjugate of sigma:
  test_valid_twists_pass_every_law[sigma_z4_i].
The scalar drop and the four wrong weights passed every test until
sigma_asymmetric, tau_s3_i and sigma_z4_i were added: every earlier
fixture had real or symmetric weights, or failed the law anyway.

Since the CLI reads the Hopf and star laws off certified premises, these
sweeps run only where a test (or a failing premise) asks for the walk;
every test here calls verify_hopf and verify_star without premises, so
it still walks.  Each mutation above was rerun after that change and
still fails, with these numbers of failing tier-1 tests, in list order:
6, 1, 4, 9, 2, 15, 24, 57, 5, 59, 1, 32, 58, 57, 4, 44, 3, 28, 1, 2, 2
and 2.  The last three also fail
test_implied_laws.py::test_implied_matches_walk on the same twist.
"""

from __future__ import annotations

import itertools

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
from test_deep_twisted import sigma_and_tau_config

from bicrossed.cocycles import SigmaCocycle, TauCocycle, _verification_domain, verify_cocycles
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational
from bicrossed.groups import FiniteF, cyclic_group, f_ball
from bicrossed.hopf import (
    BicrossedHopf,
    HElem,
    HTensor,
    _accumulate,
    _add_term,
    comul_by_x,
    comul_product,
    pair_check_radius,
    verify_hopf,
    verify_star,
)
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


def tensor_mul(H, s, t):
    """(a (x) b)(c (x) d) = ac (x) bd, componentwise on terms."""
    by_g: dict = {}
    for (l1, l2), w in t.terms.items():
        by_g.setdefault((l1[0], l2[0]), []).append((l1, l2, w))
    out: dict = {}
    act_left = H.ctx.act_left
    for (k1, k2), v in s.terms.items():
        for l1, l2, w in by_g.get((act_left(*k1), act_left(*k2)), ()):
            p1, p2 = H.basis_mul(k1, l1), H.basis_mul(k2, l2)
            _add_term(out, (p1[0], p2[0]), v * w * p1[1] * p2[1])
    return HTensor._of(out)


def brute_bialgebra(H, keys):
    unit = H.unit()
    out = [] if H.comul(unit) == HTensor.of(unit, unit) else [{"pair": "unit"}]
    elems = [HElem.basis(*k) for k in keys]
    comuls = [H.comul(b) for b in elems]
    for k1, a, da in zip(keys, elems, comuls):
        ea = H.counit(a)
        for k2, b, db in zip(keys, elems, comuls):
            ab = H.mul(a, b)
            if H.comul(ab) != tensor_mul(H, da, db):
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


def _elements(H, radius):
    return [(g, f) for f in f_ball(H.F, radius) for g in H.G.elements()]


def coassociative(H, k):
    """(Delta (x) id) Delta = (id (x) Delta) Delta at p_k, summed over triples."""

    def cb(key):
        return H.comul(HElem.basis(*key)).terms

    t = cb(k).items()
    lhs = _accumulate(((m1, m2, b), v * c) for (a, b), v in t for (m1, m2), c in cb(a).items())
    rhs = _accumulate(((a, m1, m2), v * c) for (a, b), v in t for (m1, m2), c in cb(b).items())
    return set(lhs) == set(rhs) and all(lhs[x] == rhs[x] for x in lhs)


def coalgebra_antihomomorphic(H, k):
    """Delta(S(p_k)) = (S (x) S) flip Delta(p_k), as HTensors."""
    rhs = HTensor(
        _accumulate(
            ((s2, s1), c * c1 * c2)
            for (k1, k2), c in H.comul_basis(k)
            for (s2, c2), (s1, c1) in [(H.antipode_basis(k2), H.antipode_basis(k1))]
        )
    )
    return H.comul(H.antipode(HElem.basis(*k))) == rhs


def left_integral_holds(H, k):
    """h1 <T, h2> = <T, h> unit at h = p_k, as HElems."""
    lhs = HElem(
        _accumulate(
            (k1, c * tval)
            for (k1, k2), c in H.comul_basis(k)
            for tval in [H.integral(HElem.basis(*k2))]
            if not tval.is_zero()
        )
    )
    return lhs == H.unit().scale(H.integral(HElem.basis(*k)))


def antipode_involutive(H, k):
    """S(S(p_k)) = p_k, as HElems."""
    b = HElem.basis(*k)
    return H.antipode(H.antipode(b)) == b


def counit_holds(H, k):
    """(eps (x) id) Delta = id = (id (x) eps) Delta at p_k, as HElem sums of
    eps(p_k1) c p_k2 and c p_k1 eps(p_k2)."""
    eps = H.counit
    left = right = HElem.zero()
    for (k1, k2), c in H.comul(HElem.basis(*k)).terms.items():
        left = left + HElem.basis(*k2, c).scale(eps(HElem.basis(*k1)))
        right = right + HElem.basis(*k1, c).scale(eps(HElem.basis(*k2)))
    return left == HElem.basis(*k) and right == HElem.basis(*k)


def star_involutive(H, k):
    """(p_k*)* = p_k, as HElems."""
    b = HElem.basis(*k)
    return H.star(H.star(b)) == b


def comul_is_star_map(H, k):
    """Delta(p_k*) = (* (x) *) Delta(p_k), as HTensor sums of
    star(c p_k1) (x) star(p_k2)."""
    b = HElem.basis(*k)
    rhs = HTensor({})
    for (k1, k2), c in H.comul(b).terms.items():
        rhs = rhs + HTensor.of(H.star(HElem.basis(*k1, c)), H.star(HElem.basis(*k2)))
    return H.comul(H.star(b)) == rhs


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


def sigma_i_config():
    """twisted_sigma with sigma(g; odd, odd) = i: unitary but not real, so
    the star sweeps must conjugate it."""
    config = twisted_sigma_config()
    config["sigma"]["values"][1][1][1] = "z^1@4"
    return config


def _power_of_i(n):
    n %= 4
    return "1" if n == 0 else f"z^{n}@4"


def sigma_asymmetric_config():
    """twisted_sigma through Z -> Z3 with sigma(1; 1, 2) = i and sigma(1; 2, 1) = 1:
    not a cocycle, but sigma(g; f, f2) != sigma(g; f2, f), so the brute
    antimultiplicativity sweep, which multiplies by H.mul and evaluates
    sigma there, sees a basis_mul that swaps f and f2."""
    config = twisted_sigma_config()
    values = [[["1"] * 3 for _ in range(3)] for _ in range(2)]
    values[1][1][2] = "z^1@4"
    config["sigma"] = {"type": "quotient_lift", "moduli": [3], "values": values}
    return config


def tau_s3_i_config():
    """S3 acting trivially on Z, tau(g, g2; f) = (dmu(g, g2))^f for mu: S3 -> <i>
    with mu(e) = 1: a valid co-cocycle with values i, whose transpose
    tau(g2, g; f) is no cocycle (S3 is not abelian)."""
    perms = sorted(itertools.permutations(range(3)))
    table = [[perms.index(tuple(a[b[i]] for i in range(3))) for b in perms] for a in perms]
    mu = [0, 1, 2, 1, 3, 0]  # mu(g) = i^mu[g]
    values = [
        [[_power_of_i(r * (mu[a] + mu[b] - mu[table[a][b]])) for r in range(4)] for b in range(6)]
        for a in range(6)
    ]
    return {
        "name": "s3_z_tau_i",
        "group": {"type": "table", "table": table, "name": "S3"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]]] * 6},
        "sigma": {"type": "trivial"},
        "tau": {"type": "quotient_lift", "moduli": [4], "values": values},
        "radius": 4,
    }


def sigma_z4_i_config():
    """Z4 acting trivially on Z, sigma(g^a; f, f2) = i^(-a f f2): a valid
    cocycle with sigma(g; f, f^-1) = i^(a f^2) not real for a and f odd."""
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    values = [[[_power_of_i(-a * r * s) for s in range(4)] for r in range(4)] for a in range(4)]
    return {
        "name": "z4_z_sigma_i",
        "group": {"type": "table", "table": z4, "name": "Z4"},
        "f_group": {"type": "free_abelian", "rank": 1},
        "action": {"type": "linear", "matrices": [[[1]]] * 4},
        "sigma": {"type": "quotient_lift", "moduli": [4], "values": values},
        "tau": {"type": "trivial"},
        "radius": 4,
    }


def twisted_tau_negated():
    """twisted_tau with tau(1, 1; f) = -1 for even f, set past the config's
    normalization check: the actions are intact, so every Hopf law that
    fails here fails by a coefficient, with the same keys on both sides."""
    H = build_config(twisted_tau_config()).hopf
    table = [[list(row) for row in block] for block in H.tau.table]
    table[0][0][0] = rational(-1)
    table = tuple(tuple(map(tuple, block)) for block in table)
    return BicrossedHopf(H.ctx, H.sigma, TauCocycle("quotient", table, H.tau.quot.moduli))


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
    "sigma_i": sigma_i_config,
    "sigma_and_tau": sigma_and_tau_config,
    "sigma_asymmetric": sigma_asymmetric_config,
    "tau_s3_i": tau_s3_i_config,
    "sigma_z4_i": sigma_z4_i_config,
}
VALID_TWISTS = ["twisted_tau", "twisted_sigma", "sigma_and_tau", "tau_s3_i", "sigma_z4_i"]
CASES = (
    [f"preset {name} {radius}" for name, radius in PRESETS]
    + [f"config {name}" for name in CONFIGS]
    + list(_s4_cases())
    + ["z2 left moves at one", "twisted_tau negated"]
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
    if case == "twisted_tau negated":
        return twisted_tau_negated(), 1
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


@pytest.mark.parametrize("case", CASES)
def test_per_element_laws_match_brute(case):
    H, radius = _build(case)
    rep = verify_hopf(H, radius, max_violations=UNBOUNDED)
    keys = _elements(H, radius)
    for name, holds in (
        ("coassociativity", coassociative),
        ("antipode coalgebra antihomomorphism", coalgebra_antihomomorphic),
        ("left integral law", left_integral_holds),
    ):
        witnesses = [_name(H, k) for k in keys if not holds(H, k)]
        assert _result(rep, name) == (len(keys), len(witnesses), witnesses), name


@pytest.mark.parametrize("case", CASES)
def test_comul_product_matches_tensor_mul(case):
    H, radius = _build(case)
    keys = _keys(H, radius)
    comuls = {k: H.comul(HElem.basis(*k)) for k in keys}
    by_x = {k: comul_by_x(H.ctx.act_left, d.terms) for k, d in comuls.items()}
    for k1 in keys:
        for k2 in keys:
            product = comul_product(H.basis_mul, by_x[k1], by_x[k2])
            assert product == tensor_mul(H, comuls[k1], comuls[k2]).terms, (k1, k2)


@pytest.mark.parametrize("case", CASES)
def test_involution_and_counit_match_helem_form(case):
    H, radius = _build(case)
    rep = verify_hopf(H, radius, max_violations=UNBOUNDED)
    keys = _elements(H, radius)
    for name, holds in (("S^2 = id", antipode_involutive), ("counit laws", counit_holds)):
        witnesses = [_name(H, k) for k in keys if not holds(H, k)]
        assert _result(rep, name) == (len(keys), len(witnesses), witnesses), name


@pytest.mark.parametrize("case", [c for c in CASES if c != "config sigma_two"])
def test_star_laws_match_helem_form(case):
    H, radius = _build(case)
    rep = verify_star(H, radius, max_violations=UNBOUNDED)
    keys = _elements(H, radius)
    for name, holds in (("star involution", star_involutive), ("Delta is a star map", comul_is_star_map)):
        witnesses = [_name(H, k) for k in keys if not holds(H, k)]
        assert _result(rep, name) == (len(keys), len(witnesses), witnesses), name


@pytest.mark.parametrize("name", VALID_TWISTS)
def test_valid_twists_pass_every_law(name):
    """The brute sweeps read the same structure maps as the fast ones, so a
    wrong weight in comul_basis, antipode_basis or star_basis is seen only
    as a failing law on valid data whose weights are not real or not
    symmetric."""
    H = build_config(CONFIGS[name]()).hopf
    for rep in (verify_hopf(H, 1), verify_star(H, 1)):
        assert [c.name for c in rep.checks if c.violation_count] == []


def test_helem_pins_see_witnesses():
    """Each law pinned to its HElem form above fails on some fixture."""
    for case, holds in (
        ("s4 right e", counit_holds),
        ("config sigma_two", antipode_involutive),
        ("s4 left g2", star_involutive),
        ("config sigma_i", comul_is_star_map),
    ):
        H, radius = _build(case)
        assert not all(holds(H, k) for k in _elements(H, radius)), case


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
    # coassociativity fails with equal keys on both sides, by a coefficient
    negated = twisted_tau_negated()
    failing = [k for k in _elements(negated, 1) if not coassociative(negated, k)]
    assert failing
    for k in failing:
        delta = negated.comul(HElem.basis(*k))
        lhs = {(m1, m2, b) for a, b in delta.terms for m1, m2 in negated.comul(HElem.basis(*a)).terms}
        rhs = {(a, m1, m2) for a, b in delta.terms for m1, m2 in negated.comul(HElem.basis(*b)).terms}
        assert lhs == rhs
    assert not all(left_integral_holds(negated, k) for k in _elements(negated, 1))
