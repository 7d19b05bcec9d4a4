"""The Grothendieck ring on irreducible characters.

A fusion row d1 * d2 is read at the representative f3 of each orbit
O3 of O1 O2, from the stabilizer data there (the orbit route): on the
classes of G_f3 when sigma and tau are trivial (class form), on its
elements when either is twisted (slice form).

The class form serves trivial cocycles whatever the left action (the
Drinfeld doubles, the lattice presets, every split extension F x| G and
every exact factorization X = F G).  A simple (O_f, rho) has
the value rho(z_x h z_x^-1) at p_h # x for h in G_x, z_x the transversal
element with z_x^-1 > f = x, and basis_mul makes p_h#x . p_h'#y equal to
p_h#xy when h' = h < x and 0 otherwise.  So chi1 chi2 at p_h # f3, for
f3 the representative of an orbit of O1 O2, is
psi(h) = sum rho1(z_x h z_x^-1) rho2(z_y (h < x) z_y^-1) over the pairs
(x, y) in O1 x O2 with xy = f3 that h fixes under
g.(x, y) = (g > x, (g < x) > y).  This is an action of G by the left
compatibility, and the product map is equivariant for it, as
g > (xy) = (g > x)((g < x) > y) (Takeuchi 1981).

Pair orbits.  Every G-orbit of pairs meets f1 x O2, on which G_f1 acts
by y -> (s < f1) > y (s -> s < f1 is a homomorphism on G_f1; with a
trivial left action these orbits are the double cosets G_f1 g G_f2,
Natale 2003).  A representative (f1, y) with stabilizer S and product
p = f1 y is moved to f3 by t = z_p, where its stabilizer is
K = t S t^-1 <= G_f3 and its character is
phi(t s t^-1) = rho1(s) rho2(z_y (s < f1) z_y^-1).  For the moved pair
(x, y') = (t > f1, (t < f1) > y), z_x t lies in G_f1,
z_y' (t < f1) z_y^-1 in G_f2, and (t s t^-1) < x is
(t < f1)(s < f1)(t < f1)^-1 by the left compatibility and the inverse
identities, so rho1 and rho2, class functions, take these values there.
The pairs over f3 are the G_f3-orbits of the moved representatives, so
psi = sum_i Ind_K_i phi_i.  An induced character is a class function,
hence so is psi, and it is read on the classes C of G_f3 alone:
psi(C) = (1/|C|) sum_i sum_D [G_f3 : K_i] |D| phi_i(D) over the classes
D of K_i inside C.  By Frobenius reciprocity the multiplicity of rho_c is
m_c = sum_i <phi_i, Res rho_c>_K_i
    = (1/|G_f3|) sum_i sum_D [G_f3 : K_i] |D| phi_i(D) rho_c(D^-1)
over the classes of each K_i.  Each D is kept as one term: the classes
of s in G_f1, of z_y (s < f1) z_y^-1 in G_f2 and of t s t^-1 in G_f3,
with the weight [G_f3 : K_i] |D|, equal terms merged.  A pair orbit with
a trivial stabilizer (each one when G_f1 or G_f2 is trivial) is only
counted: it adds |G_f3| to the weight of the identity term, with no
conjugation.  The simples over O3 are the rows of the stabilizer table
that verify_char_table certified orthonormal and complete, and the row
is certified by the exact residual psi = sum m_c rho_c on every class
of G_f3.  No product of characters, Haar pairing or character of a
product orbit is formed.

Duals in the class form.  With trivial cocycles antipode_basis sends
p_h#x to p_{(h < x)^-1} # (h > x)^-1, so for f' the representative of
the orbit of f^-1 and x = f'^-1 in O_f, S(chi) at p_k # f' is
rho(z_x h z_x^-1) for the h in G_x with (h < x)^-1 = k.  By the left
compatibility and the inverse identities h -> (h < x)^-1 maps G_x onto
G_f', reversing products, so
this is a class function of G_f' (rho* when the left action is
trivial), matched against the rows of its stabilizer table on the
classes of G_f'.

The slice form.  With sigma or tau nontrivial a simple
(O_f, chi) carries an irreducible beta_f-projective character chi of
G_f, beta_f = tau(., .; f) (Karpilovsky 1985).  The product
chi1 chi2 at p_h # f3, h in G_f3, is read off the two factors'
character terms as basis_mul forms it:
psi(h) = sum chi1(p_h # x) chi2(p_{h < x} # y) sigma(h; x, y) over the
fiber {(x, y) in O1 x O2 : xy = f3}, a term vanishing unless h fixes x
and h < x fixes y.  chi1 chi2 is the character of a comodule, so it is
sum m_c chi_c over the simples c.  A simple over another orbit vanishes
at every key with f-part f3, so psi is sum m_c s_c over the simples of
O3 alone, s_c(h) the value of chi_c at p_h # f3.  _induced_terms gives
it at z = 1 (the transversal starts at 1_G) as
tau(1, h; f3)^-1 tau(h, 1; f3) chi_c(h), and zero where chi_c vanishes;
the factor is 1 when beta_f3 is normalized, which beta_for_orbit
verifies.  So the s_c are the rows of the table that verify_char_table
certified independent, psi decides the m_c, and no beta-regular class
theory is needed.  The beta_f3 values are roots of unity (as
central_extension requires), so the rows obey Schur's projective
orthogonality (1/|G_f3|) sum_h chi_c(h) conj(chi_c'(h)) = delta, which
gives m_c = (1/|G_f3|) sum_h psi(h) conj(s_c(h)).  Each row is certified
by the exact residual psi = sum m_c s_c on every element of G_f3.  The
fiber is kept per pair of orbits and a decomposition per (O3, psi).
Twisted duals match the antipode of a character against the characters
over the orbit of f^-1 (FusionRing._antipode_dual).

The Haar route, N_ab^c = <T, chi_a chi_b S(chi_c)> through the
normalized integral (Larson's character orthogonality), is no longer
read here: tests/haar_oracle.py keeps it as the oracle of both forms
(tests/test_fusion_routes.py lists the mutations they catch).

In both forms the multiplicities must come out as nonnegative integers
matching the dimensions, and violations abort loudly.  The degree-2
indicator is the integral of m(Delta(chi)).
"""

from __future__ import annotations

# certs.solve_in_span stays importable from here: bench/tracer.py counts
# its calls as fusion.solve_in_span, and no row reads it any more
from .certs import solve_in_span  # noqa: F401
from .comodules import SimpleDesc, SimpleIndex, _induced_terms
from .cyclotomic import rational
from .errors import InternalInconsistencyError
from .groups import conjugacy_classes
from .hopf import BicrossedHopf
from .matched_pair import Orbit
from .reps import CharTable

# Triples sampled by the associativity law of verify_based_ring.
SAMPLE_TRIPLES = 60

_ZERO = rational(0)


class FusionRow:
    __slots__ = ("left", "right", "summands")

    def __init__(self, left: str, right: str, summands: tuple[tuple[str, int], ...]):
        self.left = left
        self.right = right
        self.summands = summands

    def to_payload(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "summands": [{"id": uid, "multiplicity": m} for uid, m in self.summands],
        }


class FusionTable:
    __slots__ = ("simples", "rows", "duals", "indicators", "radius", "noncommutative_pairs")

    def __init__(
        self,
        simples: list[SimpleDesc],
        rows: list[FusionRow],
        duals: dict,
        indicators: dict,
        radius: int,
        noncommutative_pairs: list | None = None,
    ):
        self.simples = simples
        self.rows = rows
        self.duals = duals
        self.indicators = indicators
        self.radius = radius
        self.noncommutative_pairs = [] if noncommutative_pairs is None else noncommutative_pairs


class FusionRing:
    """Fusion computations over a SimpleIndex, with a pure row memo."""

    def __init__(self, hopf: BicrossedHopf, index: SimpleIndex | None = None):
        self.hopf = hopf
        self.index = index if index is not None else SimpleIndex(hopf)
        self._row_cache: dict = {}
        self._dual_cache: dict = {}
        # chi1 chi2 = chi2 chi1 in a commutative H, so a row also gives its swap
        self._commutative = hopf.is_commutative
        # rows in slice form (module docstring) when either cocycle is twisted
        self._twisted = not (hopf.sigma.is_trivial and hopf.tau.is_trivial)
        # the class form's data
        self._orbits: dict = {}  # rep -> (simples, _Stabilizer)
        self._stabilizers: dict = {}  # stabilizer table -> _Stabilizer
        self._transport: dict = {}  # rep -> {x: (z_x, z_x^-1)}
        self._classes: dict = {}  # pair stabilizer -> its classes, as (member, size)
        self._products_left = None  # the O1 whose products are kept
        self._products: dict = {}  # rep2 -> [(simples, _Stabilizer, terms)] of O3
        self._terms: dict = {}  # terms -> the one object equal to them
        # (stabilizer 1, i1, stabilizer 2, i2, stabilizer 3, id(terms)) -> [(j, m)]
        self._decompositions: dict = {}
        # every stabilizer character value lies in Q(zeta_exp(G))
        self._level = None if self._twisted else hopf.G.exponent()
        # the slice form's data
        self._slices: dict = {}  # rep -> _Slices
        self._fibers: dict = {}  # (rep1, rep2) -> [(_Slices, terms by h in G_f3)]
        self._slice_decompositions: dict = {}  # (rep3, key of psi) -> [(simple, m)]

    # -- product decomposition ------------------------------------------------

    def _orbit_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2: in slice form for
        twisted cocycles, else in class form."""
        return (self._slice_row if self._twisted else self._class_row)(d1, d2)

    def _table_rows(self, orbit: Orbit, certified_classes: bool) -> tuple:
        """The orbit's simples and their table, once the simples are checked
        to be the rows of that table, in order and indexed like the
        stabilizer; with certified_classes, of a table that
        verify_char_table certified on its classes."""
        simples = self.index.simples_for_orbit(orbit)
        table = self.index.stabilizer_table(orbit)
        if (
            table is None
            or (certified_classes and table.classes is None)
            or len(simples) != len(table.chars)
            or any(
                d.chi is not c or c.elements != orbit.stabilizer
                for d, c in zip(simples, table.chars)
            )
        ):
            raise InternalInconsistencyError(
                f"characters over the orbit of {self.hopf.F.label(orbit.representative)} "
                "are not orthonormal: they are not the rows of its stabilizer table"
            )
        return simples, table

    def _simples_on(self, orbit: Orbit) -> tuple[tuple[SimpleDesc, ...], _Stabilizer]:
        """The orbit's simples and its _Stabilizer, once the simples are
        the rows of the stabilizer table that verify_char_table certified
        on its classes: orthonormal and complete on G_f, the premise of m_c."""
        found = self._orbits.get(orbit.representative)
        if found is None:
            simples, table = self._table_rows(orbit, certified_classes=True)
            stab = self._stabilizers.get(table)
            if stab is None:
                stab = self._stabilizers[table] = _Stabilizer(self.hopf.G, table, self._level)
            found = self._orbits[orbit.representative] = (simples, stab)
        return found

    def _transport_of(self, orbit: Orbit) -> dict:
        """x -> (z_x, z_x^-1) over the orbit, z_x the transversal element
        with z_x^-1 > f = x."""
        f = orbit.representative
        found = self._transport.get(f)
        if found is None:
            G, act = self.hopf.G, self.hopf.ctx.act_right
            found = self._transport[f] = {}
            for z in orbit.transversal:
                z_inv = G.inv(z)
                found[act(z_inv, f)] = z, z_inv
        return found

    def _classes_of(self, subgroup: tuple) -> list:
        """The conjugacy classes of a pair stabilizer, as (member, size)."""
        found = self._classes.get(subgroup)
        if found is None:
            found = self._classes[subgroup] = [
                (members[0], len(members)) for members in conjugacy_classes(self.hopf.G, subgroup)
            ]
        return found

    def _products_for(self, o1: Orbit, o2: Orbit) -> list:
        """Per orbit O3 of O1 O2: its simples, its _Stabilizer and the
        terms (a, b, c, n) of its pair orbits (module docstring): a pair
        orbit with stabilizer K contributes, for each class D of K, its
        class a in G_f1, b in G_f2 and c in G_f3 with the weight
        n = [G_f3 : K] |D|.  Equal terms are one object, kept in _terms.

        The representatives are the (f1, y), one per orbit of G_f1 on O2
        under y -> (s < f1) > y, the g-part s < f1 that basis_mul asks of
        the right factor of p_s#f1.  Their stabilizers are read off those
        orbits and need no search of G.

        They are kept for one O1 at a time: fusion_table takes the simples
        orbit by orbit, so every row of O1 reads them while they are kept."""
        if o1.representative != self._products_left:
            self._products_left, self._products = o1.representative, {}
        data = self._products.get(o2.representative)
        if data is not None:
            return data
        ctx, G = self.hopf.ctx, self.hopf.G
        act, fmul, gmul = ctx.act_right, self.hopf.F.mul, G.mul
        f1 = o1.representative
        stab1, stab2 = self._simples_on(o1)[1], self._simples_on(o2)[1]
        twist = {s: ctx.act_left(s, f1) for s in o1.stabilizer}  # s -> s < f1
        free = len(twist) == 1
        fibers: dict = {}  # rep3 -> [O3, free pair orbits, {(a, b, c): n} or None]
        seen: set = set()
        for y in o2.elements:
            if y in seen:
                continue
            p = fmul(f1, y)
            o3 = ctx.orbit_of(p)
            fiber = fibers.get(o3.representative)
            if fiber is None:
                fiber = fibers[o3.representative] = [o3, 0, None]
            if free:
                fiber[1] += 1
                continue
            images = [(s, act(s_f1, y)) for s, s_f1 in twist.items()]
            seen.update(image for _s, image in images)
            stabilizer = tuple(s for s, image in images if image == y)
            if len(stabilizer) == 1:
                fiber[1] += 1
                continue
            # move (f1, y) to f3 by t = z_p, its stabilizer to K = t S t^-1
            t, t_inv = self._transport_of(o3)[p]
            zy, zy_inv = self._transport_of(o2)[y]
            stab3 = self._simples_on(o3)[1]
            index = len(o3.stabilizer) // len(stabilizer)
            if fiber[2] is None:
                fiber[2] = {}
            terms = fiber[2]
            for s, size in self._classes_of(stabilizer):
                key = (
                    stab1.cls[s],
                    stab2.cls[gmul(gmul(zy, twist[s]), zy_inv)],
                    stab3.cls[gmul(gmul(t, s), t_inv)],
                )
                terms[key] = terms.get(key, 0) + index * size
        interned = self._terms
        data = self._products[o2.representative] = []
        for o3, count, terms in fibers.values():
            simples, stab3 = self._simples_on(o3)
            unit = (stab1.identity, stab2.identity, stab3.identity)
            if terms is None:
                terms = ((*unit, count * len(o3.stabilizer)),)
            else:
                if count:
                    terms[unit] = terms.get(unit, 0) + count * len(o3.stabilizer)
                terms = tuple(sorted((*key, n) for key, n in terms.items()))
            data.append((simples, stab3, interned.setdefault(terms, terms)))
        return data

    def _class_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2 in class form, one
        stabilizer decomposition per product orbit.  A decomposition
        depends only on the three stabilizer tables, the two character
        indices and the terms, so it is kept on them."""
        products = self._products_for(d1.orbit, d2.orbit)
        stab1, stab2 = self._simples_on(d1.orbit)[1], self._simples_on(d2.orbit)[1]
        i1, i2 = d1.chi_index, d2.chi_index
        decompositions = self._decompositions
        out = []
        for simples, stab3, terms in products:
            key = (stab1, i1, stab2, i2, stab3, id(terms))
            found = decompositions.get(key)
            if found is None:
                r1, r2 = stab1.values[i1], stab2.values[i2]
                found = decompositions[key] = self._decompose_on_stabilizer(
                    r1, r2, simples, stab3, terms, d1, d2
                )
            out.extend((simples[j], m) for j, m in found)
        return out

    def _decompose_on_stabilizer(self, r1, r2, simples, stab, terms, d1, d2) -> list:
        """The (index, multiplicity) pairs of psi on G_f3, from the class
        sums W(C) = sum n rho1(a) rho2(b) over the terms at each class C:
        m_c = (1/|G_f3|) sum_C W(C) rho_c(C^-1) and psi(C) = W(C)/|C|,
        certified by the residual psi = sum m_c rho_c on every class."""
        sums: dict = {}  # class of G_f3 -> W(C), for the classes the terms meet
        for a, b, c, n in terms:
            v = r1[a] * r2[b]
            if n != 1:
                v = v * rational(n)
            w = sums.get(c)
            sums[c] = v if w is None else w + v
        inv = stab.inv
        coeffs, nonzero = [], []
        for rc in stab.values:
            m = None
            for c, w in sums.items():
                v = w * rc[inv[c]]
                m = v if m is None else m + v
            if stab.inv_order is not None:
                m = m * stab.inv_order
            coeffs.append(m)
            if not m.is_zero():
                nonzero.append((m, rc))
        for c, inv_size in enumerate(stab.inv_sizes):
            w = sums.get(c)
            psi = _ZERO if w is None else w if inv_size is None else w * inv_size
            total = _ZERO
            for m, rc in nonzero:
                total = total + m * rc[c]
            if total != psi:
                raise InternalInconsistencyError(
                    f"fusion {d1.uid} * {d2.uid}: nonzero residual on the stabilizer "
                    f"of {self.hopf.F.label(simples[0].orbit.representative)}"
                )
        return [(c.chi_index, m) for c, m in _multiplicities(d1, d2, zip(simples, coeffs))]

    def _slices_on(self, orbit: Orbit) -> _Slices:
        """The orbit's _Slices, once its simples are the rows of the table
        they were read from, which verify_char_table certified independent
        (the premise that psi decides the m_c; module docstring)."""
        found = self._slices.get(orbit.representative)
        if found is None:
            simples = self._table_rows(orbit, certified_classes=False)[0]
            found = self._slices[orbit.representative] = _Slices(self.hopf, orbit, simples)
        return found

    def _fibers_for(self, o1: Orbit, o2: Orbit) -> list:
        """Per orbit O3 of O1 O2: its _Slices and, for each h in G_f3 in
        stabilizer order, the terms (key in chi1, key in chi2, sigma or
        None where 1) of the pairs (x, y) of the fiber over f3 that h
        fixes: the keys (h, x) and (h < x, y) and sigma(h; x, y).  The
        orbits of O1 O2 are those of f1 O2, as every pair orbit meets
        f1 x O2."""
        key = (o1.representative, o2.representative)
        found = self._fibers.get(key)
        if found is not None:
            return found
        ctx, F = self.hopf.ctx, self.hopf.F
        act_right, act_left, fmul, finv = ctx.act_right, ctx.act_left, F.mul, F.inv
        sigma = None if self.hopf.sigma.is_trivial else self.hopf.sigma.eval
        f1, in_o2 = o1.representative, set(o2.elements)
        found = self._fibers[key] = []
        seen: set = set()
        for y in o2.elements:
            o3 = ctx.orbit_of(fmul(f1, y))
            f3 = o3.representative
            if f3 in seen:
                continue
            seen.add(f3)
            fiber = [(x, fmul(finv(x), f3)) for x in o1.elements]
            fiber = [(x, y3) for x, y3 in fiber if y3 in in_o2]
            by_h = []
            for h in o3.stabilizer:
                terms = []
                for x, y3 in fiber:
                    if act_right(h, x) != x:
                        continue
                    hx = act_left(h, x)
                    if act_right(hx, y3) != y3:
                        continue
                    s = None if sigma is None else sigma(h, x, y3)
                    terms.append(((h, x), (hx, y3), None if s is None or s.is_one() else s))
                by_h.append(terms)
            found.append((self._slices_on(o3), by_h))
        return found

    def _slice_row(self, d1: SimpleDesc, d2: SimpleDesc) -> list:
        """The (simple, multiplicity) pairs of d1 * d2 in slice form: psi on
        each G_f3 off the two factors' character terms, decomposed once per
        (O3, psi)."""
        t1, t2 = self.index.character(d1).terms, self.index.character(d2).terms
        decompositions = self._slice_decompositions
        out = []
        for slices, by_h in self._fibers_for(d1.orbit, d2.orbit):
            psi = []
            for terms in by_h:
                total = _ZERO
                for k1, k2, s in terms:
                    a, b = t1.get(k1), t2.get(k2)
                    if a is not None and b is not None:
                        v = a * b
                        total = total + (v if s is None else v * s)
                psi.append(total)
            key = (slices.orbit.representative, tuple(map(_value_key, psi)))
            found = decompositions.get(key)
            if found is None:
                found = decompositions[key] = self._decompose_on_slices(psi, slices, d1, d2)
            out.extend(found)
        return out

    def _decompose_on_slices(self, psi: list, slices: _Slices, d1, d2) -> list:
        """The (simple, multiplicity) pairs of psi on G_f3:
        m_c = (1/|G_f3|) sum_h psi(h) conj(s_c(h)), certified by the
        residual psi = sum m_c s_c on every element."""
        coeffs, nonzero = [], []
        for row, conj in zip(slices.rows, slices.conj_rows):
            m = _ZERO
            for p, c in zip(psi, conj):
                m = m + p * c
            if slices.inv_order is not None:
                m = m * slices.inv_order
            coeffs.append(m)
            if not m.is_zero():
                nonzero.append((m, row))
        for i, p in enumerate(psi):
            total = _ZERO
            for m, row in nonzero:
                total = total + m * row[i]
            if total != p:
                raise InternalInconsistencyError(
                    f"fusion {d1.uid} * {d2.uid}: nonzero residual on the stabilizer "
                    f"of {self.hopf.F.label(slices.orbit.representative)}"
                )
        return _multiplicities(d1, d2, zip(slices.simples, coeffs))

    def decompose_product(self, d1: SimpleDesc, d2: SimpleDesc) -> FusionRow:
        key = (d1.uid, d2.uid)
        if key in self._row_cache:
            return self._row_cache[key]
        pairs = self._orbit_row(d1, d2)
        total = sum(m * c.dim_total for c, m in pairs)
        if total != d1.dim_total * d2.dim_total:
            raise InternalInconsistencyError(
                f"dimension check fails for {d1.uid} * {d2.uid}: {total} != "
                f"{d1.dim_total * d2.dim_total}"
            )
        row = FusionRow(d1.uid, d2.uid, tuple(sorted((c.uid, m) for c, m in pairs)))
        self._row_cache[key] = row
        if self._commutative:
            # same product, same candidates (O1 O2 = O2 O1 for abelian F),
            # hence the same coefficients and certificates
            self._row_cache[d2.uid, d1.uid] = FusionRow(d2.uid, d1.uid, row.summands)
        return row

    # -- duality ---------------------------------------------------------------

    def dual_of(self, d: SimpleDesc) -> SimpleDesc:
        found = self._dual_cache.get(d.uid)
        if found is None:
            dual = self._antipode_dual if self._twisted else self._stabilizer_dual
            found = self._dual_cache[d.uid] = dual(d)
        return found

    def _stabilizer_dual(self, d: SimpleDesc) -> SimpleDesc:
        """The simple over the orbit of f^-1 whose stabilizer character is
        k -> rho(z_x h z_x^-1) for (h < x)^-1 = k, x = f'^-1 (module
        docstring), read at the class representatives of G_f'."""
        ctx, G = self.hopf.ctx, self.hopf.G
        f = d.orbit.representative
        dual_orbit = ctx.orbit_of(self.hopf.F.inv(f))
        x = self.hopf.F.inv(dual_orbit.representative)
        z, z_inv = self._transport_of(d.orbit)[x]
        stab = self._simples_on(d.orbit)[1]
        simples, dual_stab = self._simples_on(dual_orbit)
        # k -> the s in G_f with h = z_x^-1 s z_x
        preimage = {
            G.inv(ctx.act_left(G.mul(G.mul(z_inv, s), z), x)): s for s in d.orbit.stabilizer
        }
        if preimage.keys() != dual_stab.cls.keys():
            raise InternalInconsistencyError(
                f"the antipode does not map the stabilizer of {d.uid} onto that of its dual"
            )
        row = stab.values[d.chi_index]
        key = tuple(_value_key(row[stab.cls[preimage[k]]]) for k in dual_stab.reps)
        j = dual_stab.row_of.get(key)
        if j is None:
            raise InternalInconsistencyError(
                f"no simple matches the antipode of the character of {d.uid}"
            )
        return simples[j]

    def _antipode_dual(self, d: SimpleDesc) -> SimpleDesc:
        """The simple over the orbit of f^-1 whose character is the
        antipode of the character of d."""
        H, index = self.hopf, self.index
        target = H.antipode(index.character(d))
        for cand in index.simples_for_f(H.F.inv(d.orbit.representative)):
            if index.character(cand) == target:
                return cand
        raise InternalInconsistencyError(
            f"no simple matches the antipode of the character of {d.uid}"
        )

    def is_self_dual(self, d: SimpleDesc) -> bool:
        return self.dual_of(d).uid == d.uid

    # -- Frobenius-Schur -----------------------------------------------------

    def fs_indicator(self, d: SimpleDesc) -> int:
        """nu_2 = <T, m(Delta(chi))>, asserted to land in {-1, 0, 1} and to
        vanish exactly off the self-dual simples."""
        H = self.hopf
        total = rational(0)
        for key, v in self.index.character(d).terms.items():
            for (k1, k2), c in H.comul_basis(key):
                # <T, k1 . k2> as integral_of_product reads it
                if k2 == H.haar_partner(k1):
                    total = total + v * c * H.haar_weight(k1)
        if not total.is_integer():
            raise InternalInconsistencyError(
                f"indicator of {d.uid} is not an integer: {total.literal()}"
            )
        nu = total.num[0]
        if nu not in (-1, 0, 1):
            raise InternalInconsistencyError(f"indicator of {d.uid} is {nu}")
        if (nu != 0) != self.is_self_dual(d):
            raise InternalInconsistencyError(
                f"indicator of {d.uid} is {nu} but self-duality is {self.is_self_dual(d)}"
            )
        return nu

    # -- tables and the based-ring laws ---------------------------------------

    def fusion_table(self, radius: int) -> FusionTable:
        """The rows of every ordered pair of simples in the ball; the row of
        (simples[i], simples[j]) is rows[i * n + j]."""
        simples = self.index.enumerate(radius)
        # candidates resolve on demand beyond the ball; the radius only
        # selects which simples get rows
        rows = [self.decompose_product(d1, d2) for d1 in simples for d2 in simples]
        n = len(simples)
        asym = [
            [d1.uid, d2.uid]
            for i, d1 in enumerate(simples)
            for j, d2 in enumerate(simples)
            if d1.uid < d2.uid and rows[i * n + j].summands != rows[j * n + i].summands
        ]
        duals = {d.uid: self.dual_of(d).uid for d in simples}
        indicators = {d.uid: self.fs_indicator(d) for d in simples}
        return FusionTable(
            simples=simples,
            rows=rows,
            duals=duals,
            indicators=indicators,
            radius=radius,
            noncommutative_pairs=asym,
        )

    def verify_based_ring(self, table: FusionTable) -> dict:
        """Unit laws, the unit-multiplicity/duality pairing, duality as an
        anti-involution, and associativity on sampled triples.  The rows
        are in fusion_table's order, and their summands are sorted with
        distinct ids, so two rows agree exactly when their tuples do."""
        unit_uid = self.index.unit_simple().uid
        problems = []
        uids = [d.uid for d in table.simples]
        n = len(uids)
        position = {uid: i for i, uid in enumerate(uids)}

        def summands(left: str, right: str):
            i, j = position.get(left), position.get(right)
            return None if i is None or j is None else table.rows[i * n + j].summands

        for uid in uids:
            if summands(unit_uid, uid) != ((uid, 1),):
                problems.append({"law": "left unit", "id": uid})
            if summands(uid, unit_uid) != ((uid, 1),):
                problems.append({"law": "right unit", "id": uid})
        for r in table.rows:
            mult = next((m for u, m in r.summands if u == unit_uid), 0)
            want = 1 if table.duals[r.left] == r.right else 0
            if mult != want:
                problems.append({"law": "unit multiplicity", "left": r.left, "right": r.right})
        for uid in uids:
            if table.duals[table.duals[uid]] != uid:
                problems.append({"law": "duality involution", "id": uid})
        # (x y)* = y* x* at the level of rows; summands may lie outside
        # the tabulated ball, so their duals resolve through the ring, once
        # per distinct summand id
        dual_uid: dict = {}
        for r in table.rows:
            for u, _m in r.summands:
                if u not in dual_uid:
                    dual_uid[u] = self.dual_of(self.index.find(u)).uid
        for r in table.rows:
            dual_sum = tuple(sorted([(dual_uid[u], m) for u, m in r.summands]))
            if summands(table.duals[r.right], table.duals[r.left]) != dual_sum:
                problems.append({"law": "duality antihomomorphism", "left": r.left, "right": r.right})
        # associativity on a deterministic sample of triples
        triples = _sampled_triples(len(uids))
        for a, b, c in triples:
            da, db, dc = (self.index.find(uids[x]) for x in (a, b, c))
            lhs: dict = {}
            for u, m in self.decompose_product(da, db).summands:
                for u2, m2 in self.decompose_product(self.index.find(u), dc).summands:
                    lhs[u2] = lhs.get(u2, 0) + m * m2
            rhs: dict = {}
            for u, m in self.decompose_product(db, dc).summands:
                for u2, m2 in self.decompose_product(da, self.index.find(u)).summands:
                    rhs[u2] = rhs.get(u2, 0) + m * m2
            if lhs != rhs:
                triple = [uids[a], uids[b], uids[c]]
                problems.append({"law": "associativity", "triple": triple})
        return {
            "ok": not problems,
            "problems": problems[:20],
            "associativity_triples": len(triples),
        }


class _Stabilizer:
    """What the class form reads of one certified stabilizer table, shared
    by the orbits with that stabilizer, on the conjugacy classes it was
    certified on: the class of each element (cls), a representative (reps),
    the inverse class of each, the character values at the
    representatives (integers at level 1, the others at the ring's level,
    so no sum or product lifts an operand), the index of each row by
    its values (row_of), and 1/|G_f| and each 1/|C|, None where 1."""

    __slots__ = (
        "values", "cls", "reps", "inv", "identity", "inv_order", "inv_sizes", "row_of"
    )

    def __init__(self, G, table: CharTable, level: int):
        elements = table.chars[0].elements
        position = {g: i for i, g in enumerate(elements)}
        classes = table.classes
        self.cls = {g: c for c, members in enumerate(classes) for g in members}
        self.reps = [members[0] for members in classes]
        self.inv = [self.cls[G.inv(g)] for g in self.reps]
        self.identity = self.cls[G.identity]
        self.values = [
            tuple(_at_level(c.values[position[g]], level) for g in self.reps) for c in table.chars
        ]
        self.inv_order = None if len(elements) == 1 else rational(len(elements)).inv()
        self.inv_sizes = [None if len(c) == 1 else rational(len(c)).inv() for c in classes]
        self.row_of = {tuple(map(_value_key, row)): j for j, row in enumerate(self.values)}


class _Slices:
    """What the slice form reads of one orbit: its simples, each one's
    values s_c(h) at p_h # f for h in G_f in stabilizer order (rows), with
    zeros where the character vanishes, their conjugates (conj_rows), and
    1/|G_f|, None where 1."""

    __slots__ = ("orbit", "simples", "rows", "conj_rows", "inv_order")

    def __init__(self, hopf: BicrossedHopf, orbit: Orbit, simples):
        e, f = hopf.G.identity, orbit.representative
        self.orbit = orbit
        self.simples = simples
        self.rows = []
        for d in simples:
            terms = _induced_terms(hopf, orbit, e, e, d.chi.value_map())
            self.rows.append(tuple(terms.get((h, f), _ZERO) for h in orbit.stabilizer))
        self.conj_rows = [tuple(v.conj() for v in row) for row in self.rows]
        n = len(orbit.stabilizer)
        self.inv_order = None if n == 1 else rational(n).inv()


def _at_level(v, level: int):
    """v at level 1 if it is a rational integer (every rational character
    value is), else at the given level."""
    return rational(v.num[0]) if v.den == 1 and v.is_rational() else v.lift(level)


def _value_key(v) -> tuple:
    """A hashable key of a value from _at_level: equal values have equal
    (level, num, den)."""
    return v.level, v.num, v.den


def _multiplicities(d1: SimpleDesc, d2: SimpleDesc, coeffs) -> list:
    """The (simple, multiplicity) pairs of the nonzero coefficients, each
    asserted a nonnegative integer."""
    out = []
    for c, x in coeffs:
        if x.is_zero():
            continue
        if not x.is_integer() or x.num[0] < 0:
            raise InternalInconsistencyError(
                f"fusion multiplicity of {c.uid} in {d1.uid} * {d2.uid} "
                f"is {x.literal()}, not a nonnegative integer"
            )
        out.append((c, x.num[0]))
    return out


def _sampled_triples(n: int) -> list:
    """The triples (a, b, c) in range(n)^3 with 7a + 3b + c divisible by
    step = n^3 // SAMPLE_TRIPLES + 1, in lexicographic order; each c
    steps from -(7a + 3b) mod step, so only the sample is walked."""
    step = n * n * n // SAMPLE_TRIPLES + 1
    ab = ((a, b) for a in range(n) for b in range(n))
    return [(a, b, c) for a, b in ab for c in range(-(7 * a + 3 * b) % step, n, step)]
