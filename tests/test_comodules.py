from __future__ import annotations

import pytest

from conftest import build_preset, twisted_sigma_config, twisted_tau_config
from test_deep_twisted import z4_twisted_config

from bicrossed import comodules
from bicrossed.certs import direct_sum_check, exact_rank
from bicrossed.cocycles import beta_for_orbit
from bicrossed.comodules import (
    SimpleIndex,
    coefficient_basis,
    irreducible_character,
)
from bicrossed.config import build_config
from bicrossed.cyclotomic import rational
from bicrossed.errors import ConfigError, InternalInconsistencyError
from bicrossed.hopf import HElem
from bicrossed.reps import twisted_char_table


def _block_dimension(build, f, radius: int = 1) -> int:
    """dim C_f of the orbit of f, read off the direct-sum certificate."""
    cert = direct_sum_check(build.hopf, SimpleIndex(build.hopf), radius)
    label = build.hopf.F.label(build.ctx.orbit_of(f).representative)
    (dim,) = [b["dimension"] for b in cert["details"]["blocks"] if b["orbit"] == label]
    return dim


def test_cf_subcoalgebra_h_z_z2(h_z_z2):
    assert _block_dimension(h_z_z2, (1,)) == 4
    assert _block_dimension(h_z_z2, (0,)) == 2


def test_cf_subcoalgebra_z2n_2(h_z_z2n_2):
    assert _block_dimension(h_z_z2n_2, (1,)) == 8


def test_simples_for_orbit_h_z_z2(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    simples = index.simples_for_orbit(H.ctx.orbit_of((1,)))
    assert len(simples) == 1
    assert simples[0].dim_total == 2
    unit_simples = index.simples_for_orbit(H.ctx.orbit_of((0,)))
    assert [d.dim_total for d in unit_simples] == [1, 1]


def test_simples_for_orbit_drinfeld(drinfeld_s3):
    H = drinfeld_s3.hopf
    index = SimpleIndex(H)
    by_orbit = {}
    for orb in index.orbits_in_ball(0):
        by_orbit[orb.representative] = [d.dim_total for d in index.simples_for_orbit(orb)]
    assert by_orbit[0] == [1, 1, 2]
    assert sorted(by_orbit.values()) == [[1, 1, 2], [2, 2, 2], [3, 3]]


def test_character_c_i(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    for i in (1, 2, 5):
        (d,) = index.simples_for_f((i,))
        chi = index.character(d)
        assert chi == HElem.basis(0, (i,)) + HElem.basis(0, (-i,))
        assert H.counit(chi) == rational(d.dim_total)


def test_character_unit_and_grouplike(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    unit = index.unit_simple()
    assert index.character(unit) == H.unit()
    others = [d for d in index.simples_for_f((0,)) if d.uid != unit.uid]
    assert len(others) == 1
    x = index.character(others[0])
    assert x == HElem.basis(0, (0,)) - HElem.basis(1, (0,))


def test_character_support_in_cf(z_poly_zp3):
    H = z_poly_zp3.hopf
    index = SimpleIndex(H)
    for f in [(1, 0, 0), (1, 2, 0), (1, 1, 1)]:
        orb = H.ctx.orbit_of(f)
        keys = {(g, x) for g in H.G.elements() for x in orb.elements}
        for d in index.simples_for_orbit(orb):
            assert set(index.character(d).terms) <= keys
            assert H.counit(index.character(d)) == rational(d.dim_total)


def test_counting_identity_z_poly(z_poly_zp3):
    H = z_poly_zp3.hopf
    index = SimpleIndex(H)
    for orb in index.orbits_in_ball(1):
        simples = index.simples_for_orbit(orb)
        assert sum(d.dim_total**2 for d in simples) == H.G.order * orb.size


def test_intro_form_of_character_agrees():
    """The alternative display with g^-1 summation indices is the same sum."""
    build = build_config(twisted_tau_config())
    H = build.hopf
    index = SimpleIndex(H)
    for f in [(1,), (2,), (3,)]:
        for d in index.simples_for_f(f):
            orb = d.orbit
            rep = orb.representative
            chimap = d.chi.value_map()
            acc = {}
            G = H.G
            for z in orb.transversal:
                zinv = G.inv(z)
                fz = H.ctx.act_right(zinv, rep)
                for g in orb.stabilizer:
                    ginv = G.inv(g)
                    zgz = G.mul(G.mul(zinv, ginv), z)
                    coeff = (
                        H.tau.eval(zinv, ginv, rep).inv()
                        * H.tau.eval(zgz, zinv, rep)
                        * chimap[ginv]
                    )
                    key = (zgz, fz)
                    acc[key] = acc[key] + coeff if key in acc else coeff
            assert HElem(acc) == index.character(d)


def test_twisted_stabilizer_simples():
    build = build_config(twisted_tau_config())
    H = build.hopf
    index = SimpleIndex(H)
    odd = index.simples_for_f((1,))
    assert [d.dim_total for d in odd] == [1, 1]
    # twisted characters take values in the fourth roots of unity
    assert all(not d.chi.values[1].is_rational() for d in odd)
    even = index.simples_for_f((2,))
    assert all(d.chi.values[1].is_rational() for d in even)


def test_coefficient_basis_dim1(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    (d,) = index.simples_for_f((1,))
    basis = coefficient_basis(H, d)
    assert len(basis) == 4
    assert exact_rank(basis) == 4
    # the trace of the multiplicative-matrix arrangement is the character
    tf = len(d.orbit.transversal)
    diag = [basis[z2 * tf + z] for z2 in range(tf) for z in range(tf) if z2 == z]
    total = HElem.zero()
    for b in diag:
        total = total + b
    assert total == index.character(d)


def test_coefficient_basis_trivial_comodule(h_z_z2):
    H = h_z_z2.hopf
    index = SimpleIndex(H)
    unit = index.unit_simple()
    basis = coefficient_basis(H, unit)
    assert len(basis) == 1
    assert basis[0] == H.unit()


def test_coefficient_basis_requires_matrices_for_dim2(drinfeld_s3):
    H = drinfeld_s3.hopf
    index = SimpleIndex(H)
    two = next(d for d in index.simples_for_f(0) if d.dim_v == 2)
    with pytest.raises(ConfigError):
        coefficient_basis(H, two)


def test_coefficient_basis_user_matrices(drinfeld_s3):
    """Supply explicit 2x2 coaction matrices for the standard character of
    the unit-orbit stabilizer S3 and span the 4-dimensional block."""
    from bicrossed.cyclotomic import one, root_of_unity, zero

    H = drinfeld_s3.hopf
    index = SimpleIndex(H)
    two = next(d for d in index.simples_for_f(0) if d.dim_v == 2)
    G = H.G
    w = root_of_unity(1, 3)

    def matmul(A, B):
        return tuple(
            tuple(sum((A[i][t] * B[t][j] for t in range(2)), zero()) for j in range(2))
            for i in range(2)
        )

    ident = ((one(), zero()), (zero(), one()))
    c = min(g for g in G.elements() if G.element_order(g) == 3)
    s = min(g for g in G.elements() if G.element_order(g) == 2)
    D = ((w, zero()), (zero(), w * w))
    X = ((zero(), one()), (one(), zero()))
    mats = {
        G.identity: ident,
        c: D,
        G.mul(c, c): matmul(D, D),
        s: X,
        G.mul(s, c): matmul(X, D),
        G.mul(s, G.mul(c, c)): matmul(X, matmul(D, D)),
    }
    basis = coefficient_basis(H, two, mats)
    assert len(basis) == 4
    assert exact_rank(basis) == 4
    total = basis[0] + basis[3]
    assert total == index.character(two)


def test_enumerate_radius0_unit_orbit_only(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    simples = index.enumerate(0)
    assert [d.uid for d in simples] == ["0:0", "0:1"]


def test_find_and_uids(h_z_z2):
    index = SimpleIndex(h_z_z2.hopf)
    d = index.find("-3:0")
    assert d.dim_total == 2
    assert index.find(d.uid) is d
    with pytest.raises(ConfigError):
        index.find("nonsense")
    with pytest.raises(ConfigError):
        index.find("-3:7")


def test_drinfeld_s4_classification():
    """Bigger pipeline stress: the dual double of k^S4 has simples whose
    squared dimensions add to 576, orbit by orbit."""
    from bicrossed.certs import dimension_audit
    from bicrossed.config import build_config
    from bicrossed.presets import resolve_preset

    build = build_config(resolve_preset("drinfeld:S4"))
    index = SimpleIndex(build.hopf)
    audit = dimension_audit(build.hopf, index, 0)
    assert audit["ok"]
    total = sum(r["sum_dim_sq"] for r in audit["rows"])
    assert total == 576
    sizes = sorted(r["orbit_size"] for r in audit["rows"])
    assert sizes == [1, 3, 6, 6, 8]  # the conjugacy classes of S4
    simples = index.enumerate(0)
    assert sum(d.dim_total**2 for d in simples) == 576
    assert len(simples) == 21  # 5 + 5 + 3 + 3 + 5 irreducibles per centralizer


# The fusion-table radii of the lattice-fusion bench, doubled: the balls hold
# every orbit those tables touch, the candidates of products included.
_SHARED_TABLE_BALLS = {
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3"), 2 * 4),
    "z_poly_zp:3": (lambda: build_preset("z_poly_zp:3"), 2 * 2),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 2 * 6),
}


def _table_key(H, orbit) -> tuple:
    """The stabilizer and the literal values of beta on it, None where beta
    is trivial: what decides the orbit's table."""
    beta = beta_for_orbit(H.ctx, H.tau, orbit)
    values = None if beta.is_trivial else tuple(v.literal() for v in beta.values.values())
    return orbit.stabilizer, values


@pytest.mark.parametrize("name", sorted(_SHARED_TABLE_BALLS))
def test_shared_stabilizer_tables_match_per_orbit(name, monkeypatch):
    # SimpleIndex builds one table per stabilizer and beta, twisted or
    # not, through its one entry twisted_char_table; every orbit of the
    # ball must get the simples and characters a fresh index builds for it
    # alone, and z4_twisted must build fewer twisted tables than it has
    # twisted orbits.
    build, radius = _SHARED_TABLE_BALLS[name]
    H = build().hopf
    index = SimpleIndex(H)
    orbits = index.orbits_in_ball(radius)
    builds = []

    def counted(*args):
        table = twisted_char_table(*args)
        builds.append(table.provenance)
        return table

    with monkeypatch.context() as m:
        m.setattr(comodules, "twisted_char_table", counted)
        shared = [index.simples_for_orbit(orb) for orb in orbits]
    keys = {_table_key(H, orb) for orb in orbits}
    assert len(builds) == len(keys) < len(orbits)
    twisted_orbits = sum(not beta_for_orbit(H.ctx, H.tau, orb).is_trivial for orb in orbits)
    twisted_tables = builds.count("central-extension")
    assert twisted_tables == sum(values is not None for _stab, values in keys)
    if name == "z4_twisted":
        assert 0 < twisted_tables < twisted_orbits
    else:
        assert twisted_tables == twisted_orbits == 0
    for orb, simples in zip(orbits, shared):
        alone = SimpleIndex(H).simples_for_orbit(orb)
        assert [(d.uid, d.dim_v, d.dim_total) for d in simples] == [
            (d.uid, d.dim_v, d.dim_total) for d in alone
        ]
        for d, e in zip(simples, alone):
            assert d.chi.elements == e.chi.elements and d.chi.values == e.chi.values
            assert index.character(d) == irreducible_character(H, e)


# Balls on which SimpleIndex may read beta: trivial tau on the first two,
# so no beta at all (2 tables over 249 orbits on z_poly_zp:3, one per class
# of S4); a twisted tau on z4_twisted, so one per orbit, to read its key.
_BETA_BALLS = {
    "z_poly_zp:3": (lambda: build_preset("z_poly_zp:3"), 4),
    "drinfeld:S4": (lambda: build_preset("drinfeld:S4"), 0),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 6),
}


@pytest.mark.parametrize("name", sorted(_BETA_BALLS))
def test_beta_is_built_once_per_table_key(name, monkeypatch):
    build, radius = _BETA_BALLS[name]
    H = build().hopf
    index = SimpleIndex(H)
    calls = []

    def counted(ctx, tau, orbit):
        calls.append(orbit.representative)
        return beta_for_orbit(ctx, tau, orbit)

    monkeypatch.setattr(comodules, "beta_for_orbit", counted)
    index.enumerate(radius)
    orbits = index.orbits_in_ball(radius)
    if H.tau.is_trivial:
        assert calls == []
        assert len({orb.stabilizer for orb in orbits}) == len(index._tables)
        assert name != "z_poly_zp:3" or (len(index._tables), len(orbits)) == (2, 249)
    else:
        assert sorted(calls, key=H.F.order_key) == [orb.representative for orb in orbits]


# The fusion-table radii of two lattice-fusion bench configs.
_RECORD_BALLS = {
    "h_z_z2n:3": (lambda: build_preset("h_z_z2n:3"), 4),
    "z4_twisted": (lambda: build_config(z4_twisted_config()), 6),
}


@pytest.mark.parametrize("name", sorted(_RECORD_BALLS))
def test_orbits_with_one_table_share_one_record(name):
    # the fusion ring keys its decompositions on the table's identity, so
    # orbits with equal stabilizer and beta must read one certified table,
    # and distinct keys distinct ones
    build, radius = _RECORD_BALLS[name]
    H = build().hopf
    index = SimpleIndex(H)
    records: dict = {}
    orbits = index.orbits_in_ball(radius)
    for orb in orbits:
        records.setdefault(_table_key(H, orb), set()).add(id(index.stabilizer(orb)))
    assert len(records) < len(orbits)
    assert all(len(ids) == 1 for ids in records.values())
    assert len(set().union(*records.values())) == len(records)


_TAMPERED_SIMPLES = {
    "drinfeld:S3-repeated": (lambda: build_preset("drinfeld:S3"), lambda s: s[:1] * 2),
    "drinfeld:S3-rotated": (lambda: build_preset("drinfeld:S3"), lambda s: s[1:] + s[:1]),
    "twisted_sigma-repeated": (lambda: build_config(twisted_sigma_config()), lambda s: s[:1] * 2),
}


@pytest.mark.parametrize("name", sorted(_TAMPERED_SIMPLES))
def test_simples_are_the_rows_of_their_table(name, monkeypatch):
    # the fusion ring reads the orbit's simples as the rows of its
    # stabilizer table; SimpleIndex, which builds both, refuses simples
    # that repeat a row or take the rows out of order
    build, tamper = _TAMPERED_SIMPLES[name]
    index = SimpleIndex(build().hopf)
    real = comodules._simples_of_table
    monkeypatch.setattr(comodules, "_simples_of_table", lambda *args: tamper(real(*args)))
    with pytest.raises(InternalInconsistencyError, match="not the rows of its stabilizer table"):
        index.enumerate(0)
