"""Value semantics of the plain slotted record classes.

Orbit is the one record that is compared (orbit_of's element-keyed memo
is checked against a fresh computation) and it is hashable: equality
reads representative, elements, stabilizer and transversal, and the
hash is that of (representative, elements), so dict and set order is
as before.  The other records compare by identity; their defaults are
pinned here.
"""

from __future__ import annotations

from conftest import build_preset

from bicrossed.fusion import FusionTable
from bicrossed.groups import FiniteGroup, f_ball
from bicrossed.matched_pair import MatchedPairCtx, Orbit


def _copy(orbit: Orbit, **changes) -> Orbit:
    fields = {
        name: getattr(orbit, name)
        for name in ("representative", "elements", "stabilizer", "transversal")
    }
    return Orbit(**{**fields, **changes})


def test_orbit_equality_and_hash():
    ctx = build_preset("drinfeld:S3").ctx
    orbits = {ctx.orbit_of(f).representative: ctx.orbit_of(f) for f in f_ball(ctx.F, 0)}
    assert len(orbits) > 1
    for orb in orbits.values():
        fresh = MatchedPairCtx(ctx.G, ctx.F, ctx.action).orbit_of(orb.representative)
        assert fresh is not orb and fresh == orb and not fresh != orb
        assert hash(fresh) == hash(orb) == hash((orb.representative, orb.elements))
        for name, value in (
            ("representative", object()),
            ("elements", orb.elements + (None,)),
            ("stabilizer", orb.stabilizer + (-1,)),
            ("transversal", orb.transversal + (-1,)),
        ):
            assert _copy(orb, **{name: value}) != orb, name
        assert orb != (orb.representative, orb.elements)
        assert {fresh: 1}[orb] == 1
    reps = list(orbits)
    assert all(orbits[a] != orbits[b] for a in reps for b in reps if a != b)


def test_record_defaults():
    assert FiniteGroup(((0,),), 0, (0,)).name == "G"
    first, second = (FusionTable([], [], {}, {}, 0) for _ in range(2))
    assert first.noncommutative_pairs == []
    assert first.noncommutative_pairs is not second.noncommutative_pairs
