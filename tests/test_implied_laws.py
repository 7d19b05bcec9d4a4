"""Hopf and star laws read off certified premises, and the matched-pair laws
of table actions checked on generators.

verify_hopf and verify_star, given the matched-pair and cocycle reports
as premises, report every law with a derivation from them without a walk
when both pass with a global scope; the walk stays the oracle.  Each
implied report must equal the walked one in to_payload(), and a failing
or ball-scoped premise must walk, with today's witnesses.  The table
certificate of verify_matched_pair must give the witnesses of the naive
walk of test_matched_pair on seeded corruptions of the action tables.

Mutations, each run on a copy of the tree; every one fails a test here:
- skip the subject check of _certified:
  test_certified_needs_the_reports_of_H;
- treat a failing premise as passing (_certified ignores r.ok):
  test_failing_premises_walk (5 cases) and test_cli_verify_walks_only_on_failure;
- treat a "ball radius r" premise as global (_certified ignores the
  scope): test_failing_premises_walk[config ball_scoped];
- ignore the normalization premise (_certified reads only the reports):
  test_failing_premises_walk[unnormalized];
- skip the table-action fallback walk (a law whose generator check
  fails is reported with no witness): test_table_certificate_matches_naive_walk
  and test_sweeps_match_naive_laws of test_matched_pair;
- call verify_hopf in cmd_verify without its premises:
  test_cli_reads_laws_off_premises (2 cases);
- drop one generator from the table-action check (the last of G, the
  first of G, or the last of F): test_table_certificate_matches_naive_walk
  (the coset tamperings; the single-entry corruptions of the cyclic F of
  the S4 factorization when its one generator is dropped).
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import ball_scoped_lift_config, build_preset, s4_factorization_ctx
from test_matched_pair import naive_matched_pair_laws
from test_sweep_oracle import CONFIGS, VALID_TWISTS, _build

from bicrossed.cli import run
from bicrossed.cocycles import SigmaCocycle, TauCocycle, verify_cocycles
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational
from bicrossed.groups import _generated_subgroup, f_ball, generating_set
from bicrossed.hopf import BicrossedHopf, _certified, verify_hopf, verify_star
from bicrossed.matched_pair import MatchedPairCtx, TableActions, verify_matched_pair

IMPLIED_CASES = [
    "preset drinfeld:S3 0",
    "preset drinfeld:Z2 0",
    "preset drinfeld:A4 0",
    "s4",
    "preset h_z_z2n:1 1",
    "preset z_poly_zp:2 1",
] + [f"config {name}" for name in VALID_TWISTS]
WALKED_CASES = [
    "config broken_compat",
    "config broken_linear",
    "s4 right e",
    "s4 left g2",
    "s4 right g5",
    "twisted_tau negated",
    "config ball_scoped",
    "unnormalized",
]


def unnormalized_hopf():
    """drinfeld:Z2 with sigma = -1 and tau = -1 everywhere, made past the
    config's normalization check: both cocycle laws and their
    compatibility hold (each side is a product of the same number of
    -1s), but sigma(g; 1, f) = -1, so the unit laws fail."""
    H = build_preset("drinfeld:Z2").hopf
    minus = rational(-1)
    cube = tuple(tuple((minus, minus) for _ in range(2)) for _ in range(2))
    return BicrossedHopf(H.ctx, SigmaCocycle("table", cube), TauCocycle("table", cube))


def _case(case):
    if case == "config ball_scoped":
        return build_config(ball_scoped_lift_config()).hopf, 1
    if case == "unnormalized":
        return unnormalized_hopf(), 0
    return _build(case)


def _premises(H, radius):
    return verify_matched_pair(H.ctx, radius), verify_cocycles(H.ctx, H.sigma, H.tau, radius)


@pytest.fixture
def basis_mul_calls(monkeypatch):
    """A list that grows by one per BicrossedHopf.basis_mul call."""
    calls = []
    basis_mul = BicrossedHopf.basis_mul

    def counted(self, k1, k2):
        calls.append(k1)
        return basis_mul(self, k1, k2)

    monkeypatch.setattr(BicrossedHopf, "basis_mul", counted)
    return calls


# The laws evaluated once whatever the premises say.
SINGLES = {"<T, unit> = 1", "star fixes the unit"}


@pytest.mark.parametrize("case", IMPLIED_CASES)
def test_implied_matches_walk(case, basis_mul_calls):
    H, radius = _case(case)
    premises = _premises(H, radius)
    assert _certified(premises, H)
    for verify in (verify_hopf, verify_star):
        implied = verify(H, radius, premises=premises)
        assert basis_mul_calls == [], verify.__name__
        assert all(
            c.basis == "walked" if c.name in SINGLES else c.basis.startswith("implied by: ")
            for c in implied.checks
        )
        walked = verify(H, radius)
        assert {c.basis for c in walked.checks} == {"walked"}
        assert implied.to_payload() == walked.to_payload()
        assert basis_mul_calls
        del basis_mul_calls[:]


@pytest.mark.parametrize("case", WALKED_CASES)
def test_failing_premises_walk(case, basis_mul_calls):
    H, radius = _case(case)
    premises = _premises(H, radius)
    assert not _certified(premises, H)
    reports = {}
    for with_premises in (True, False):
        kw = {"premises": premises} if with_premises else {}
        reports[with_premises] = [verify_hopf(H, radius, **kw), verify_star(H, radius, **kw)]
        assert basis_mul_calls
        del basis_mul_calls[:]
    for gated, plain in zip(reports[True], reports[False]):
        assert {c.basis for c in gated.checks} == {"walked"}
        assert gated.to_payload() == plain.to_payload()
    if case == "config ball_scoped":
        assert all(r.ok for r in premises)
        assert {c.scope for c in premises[1].checks} == {"ball radius 1"}
    elif case == "unnormalized":
        assert all(r.ok and {c.scope for c in r.checks} == {"global"} for r in premises)
        assert not H.sigma.is_normalized(H.ctx) and not H.tau.is_normalized(H.ctx)
        assert not reports[False][0].ok
    else:
        assert not all(r.ok for r in premises)


def test_certified_needs_the_reports_of_H(basis_mul_calls):
    H, radius = _case("preset drinfeld:S3 0")
    mp, cc = _premises(H, radius)
    assert _certified((mp, cc), H) and _certified((cc, mp), H)
    for premises in (None, (mp, mp), (mp,), (mp, cc, cc)):
        assert not _certified(premises, H)
    # passing reports of another build of the same preset are no premises
    other = _case("preset drinfeld:S3 0")[0]
    assert not _certified((mp, cc), other)
    broken = build_config(CONFIGS["broken_compat"]()).hopf
    rep = verify_hopf(broken, 0, premises=(mp, cc))
    assert not rep.ok and basis_mul_calls


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "drinfeld:S3", "verify"],
        ["--preset", "drinfeld:S3", "cqg-check"],
        ["--preset", "h_z_z2n:1", "--radius", "1", "verify"],
    ],
)
def test_cli_reads_laws_off_premises(argv, basis_mul_calls, capsys):
    assert run(argv) == 0
    capsys.readouterr()
    assert basis_mul_calls == []


def test_cli_verify_walks_only_on_failure(basis_mul_calls, capsys, tmp_path):
    path = tmp_path / "broken_compat.json"
    path.write_text(json.dumps(CONFIGS["broken_compat"]()))
    assert run(["--config", str(path), "verify"]) == 1
    report = json.loads(capsys.readouterr().out)
    hopf = report["payload"]["reports"][2]
    assert hopf["status"] == "fail" and basis_mul_calls


@pytest.mark.sweep
def test_s4_radius1_implied_matches_walk(basis_mul_calls):
    """drinfeld:S4 at radius 1: the largest finite preset, about 0.45 s walked."""
    H = build_preset("drinfeld:S4").hopf
    premises = _premises(H, 1)
    assert _certified(premises, H)
    for verify in (verify_hopf, verify_star):
        implied = verify(H, 1, premises=premises)
        assert basis_mul_calls == []
        assert implied.to_payload() == verify(H, 1).to_payload()
        del basis_mul_calls[:]


# -- the table certificate against the naive walk -------------------------------


def _tables(ctx):
    return {which: [list(row) for row in getattr(ctx.action, which)] for which in ("right", "left")}


def _with_tables(ctx, tables):
    action = TableActions(**{k: tuple(map(tuple, v)) for k, v in tables.items()})
    return MatchedPairCtx(ctx.G, ctx.F, action)


def _single_entry_corruptions(ctx, rng, per_table):
    """Seeded copies of ctx with one entry of one table replaced."""
    out = []
    for which, size in (("right", ctx.F.group.order), ("left", ctx.G.order)):
        for _ in range(per_table):
            tables = _tables(ctx)
            g, f = rng.randrange(ctx.G.order), rng.randrange(ctx.F.group.order)
            old = tables[which][g][f]
            tables[which][g][f] = rng.choice([x for x in range(size) if x != old])
            out.append(_with_tables(ctx, tables))
    return out


def _coset_tamperings(ctx):
    """For each generating set S of G and of F and each s in S, a copy of
    ctx that passes the generator check of one law on S minus s and fails
    the law: off the subgroup K generated by S minus s, the right action
    by g is followed by a fixed non-identity permutation of F (the law
    still holds at each t of K, (g t) > f and g > (t > f) both being
    moved or both not), or g < f is sent to a fixed other element for f
    outside K (the left action is trivial, so g < (f t) = (g < f) < t at
    each t in K)."""
    G, F = ctx.G, ctx.F.group
    assert ctx.left_action_trivial
    z_g, z_f = (next(x for x in H.elements() if x != H.identity) for H in (G, F))
    out = []
    for group, which in ((G, "right"), (F, "left")):
        gens = generating_set(group.table, group.identity)
        for i in range(len(gens)):
            K = _generated_subgroup(group.table, group.identity, gens[:i] + gens[i + 1 :])
            tables = _tables(ctx)
            if which == "right":
                shift = [F.mul(x, z_f) for x in F.elements()]  # no fixed point
                for g in set(G.elements()) - K:
                    tables["right"][g] = [shift[x] for x in tables["right"][g]]
            else:
                for g, row in enumerate(tables["left"]):
                    for f in set(F.elements()) - K:
                        row[f] = G.mul(g, z_g)
            out.append(_with_tables(ctx, tables))
    return out


def test_table_certificate_matches_naive_walk():
    rng = random.Random(24)
    cases = []
    for ctx in (build_preset("drinfeld:S3").ctx, build_preset("drinfeld:A4").ctx):
        cases += _single_entry_corruptions(ctx, rng, 3)
        cases += _coset_tamperings(ctx)
    cases += _single_entry_corruptions(s4_factorization_ctx(), rng, 4)
    for ctx in cases:
        rep = verify_matched_pair(ctx, 0, max_violations=10**6)
        naive = naive_matched_pair_laws(ctx, f_ball(ctx.F, 0))
        assert not rep.ok
        assert [(c.name, c.instances, c.violations) for c in rep.checks] == naive
        assert all(c.violation_count == len(c.violations) for c in rep.checks)
        assert all(c.basis == "walked" for c in rep.checks if c.violation_count)


@pytest.mark.parametrize("case", ["s4", "preset drinfeld:A4 0", "s4 left g2", "s4 right e"])
def test_table_certificate_basis(case):
    H, radius = _case(case)
    rep = verify_matched_pair(H.ctx, radius)
    bases = [c.basis for c in rep.checks]
    if rep.ok:
        assert bases[:4] == ["generators, full walk on failure"] * 4
        assert bases[4].startswith("implied by: right action law, left action law")
    else:
        assert bases[4] == "walked"
        assert {b for c, b in zip(rep.checks, bases) if not c.ok} == {"walked"}


@pytest.mark.parametrize("case", IMPLIED_CASES + WALKED_CASES)
def test_every_check_records_its_basis(case):
    # to_payload leaves basis out, so no report pins it; every check of the
    # four verifiers records one, walked or not, premises or none
    H, radius = _case(case)
    premises = _premises(H, radius)
    reports = [*premises]
    for kw in ({}, {"premises": premises}):
        reports += [verify_hopf(H, radius, **kw), verify_star(H, radius, **kw)]
    missing = [(r.title, c.name) for r in reports for c in r.checks if c.basis is None]
    assert missing == []
    trivial = H.sigma.is_trivial and H.tau.is_trivial
    want = "trivial cocycles, no walk" if trivial else "walked"
    assert {c.basis for c in premises[1].checks} == {want}
