from fractions import Fraction

import pytest

from powdom import catalog, powerdomain
from powdom.algebra import is_relaxed_morphism
from powdom.errors import RejectInteger, TypeMismatch
from powdom.extnum import INF, ONE, ZERO, ExtNN, enn_sum
from powdom.poset import FinPoset, all_down_sets, all_up_sets
from powdom.powerdomain import (
    PredAlgebra,
    Predicate,
    SimpleValuation,
    SubFn,
    SUBLINEAR,
    SIDES,
    SUPERLINEAR,
    SupFn,
    check_linear_side,
    chi,
    constant_predicate,
    dirac,
    domination_check,
    hoare_powerdomain,
    non_integer_witness,
    random_predicate,
    smyth_powerdomain,
    sobrification,
    valuation_leq,
)
from powdom.sampling import random_extnn, random_monotone_values, task_rng

POSETS = catalog.builtin_posets()
ALGS = catalog.builtin_algebras()
C2 = POSETS["C2"]
A2 = POSETS["A2"]

HALF = ExtNN(Fraction(1, 2))
THIRD = ExtNN(Fraction(1, 3))


class TestHoare:
    def test_two_chain(self):
        result = hoare_powerdomain(C2, ALGS["2_ang"])
        assert result.passed
        assert [s.label() for s in result.sets] == ["{}", "{bot}", "{bot,top}"]
        # three elements in a chain
        p = result.set_poset
        assert all(p.leq[i][j] == (i <= j) for i in range(3) for j in range(3))

    def test_antichain_is_boolean_square(self):
        result = hoare_powerdomain(A2, ALGS["2_ang"])
        assert result.passed
        assert len(result.sets) == 4

    def test_empty_set_is_bottom(self):
        result = hoare_powerdomain(C2, ALGS["2_ang"])
        label, functional_key = result.pairing[0]
        assert label == "{}"
        # the empty down-set pairs with the constant-0 functional
        assert functional_key == "[0,0,0]"

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_counts_and_iso(self, name):
        result = hoare_powerdomain(POSETS[name], ALGS["2_ang"])
        assert result.passed
        assert len(result.functionals) == len(all_down_sets(POSETS[name]))


class TestSmyth:
    def test_two_chain_reverse_inclusion(self):
        result = smyth_powerdomain(C2, ALGS["2_dem"])
        assert result.passed
        p = result.set_poset
        whole = p.index("{bot,top}")
        top_only = p.index("{top}")
        empty = p.index("{}")
        assert p.leq[whole][top_only] and p.leq[top_only][empty]
        assert not p.leq[empty][whole]

    def test_whole_space_is_bottom(self):
        result = smyth_powerdomain(C2, ALGS["2_dem"])
        p = result.set_poset
        whole = p.index("{bot,top}")
        assert all(p.leq[whole][j] for j in range(p.size))

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_counts_and_filters(self, name):
        result = smyth_powerdomain(POSETS[name], ALGS["2_dem"])
        assert result.passed
        assert len(result.functionals) == len(all_up_sets(POSETS[name]))


class TestSobrification:
    def test_antichain_points(self):
        points, checks = sobrification(A2, ALGS["frame2"])
        assert all(c.passed for c in checks)
        assert len(points) == 2

    def test_chain_points_form_chain(self):
        points, checks = sobrification(C2, ALGS["frame2"])
        assert all(c.passed for c in checks)
        assert len(points) == 2
        assert points[0].leq(points[1]) or points[1].leq(points[0])

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_point_count(self, name):
        points, checks = sobrification(POSETS[name], ALGS["frame2"])
        assert all(c.passed for c in checks)
        assert len(points) == POSETS[name].size


class TestValuations:
    def test_weighted_evaluation(self):
        mu = SimpleValuation(C2, ((HALF, 0), (THIRD, 1)))
        f = Predicate(C2, (ExtNN(1), ExtNN(2)))
        assert mu(f) == ExtNN(Fraction(7, 6))

    def test_dirac_is_evaluation(self):
        f = Predicate(C2, (HALF, ExtNN(3)))
        assert dirac(C2, 0)(f) == HALF
        assert dirac(C2, 1)(f) == ExtNN(3)

    def test_infinite_weight_on_zero_value(self):
        mu = SimpleValuation(C2, ((INF, 0),))
        f = Predicate(C2, (ZERO, ONE))
        assert mu(f) == ZERO

    def test_order_reflexive(self):
        mu = SimpleValuation(C2, ((HALF, 0),))
        assert valuation_leq(mu, mu)

    def test_dirac_order_follows_poset(self):
        assert valuation_leq(dirac(C2, 0), dirac(C2, 1))
        assert not valuation_leq(dirac(C2, 1), dirac(C2, 0))

    def test_doubled_bottom_not_below_top(self):
        two_bot = dirac(C2, 0).scale(ExtNN(2))
        assert not valuation_leq(two_bot, dirac(C2, 1))
        # the violation shows on the whole-space characteristic predicate
        whole = chi(all_up_sets(C2)[-1])
        assert not two_bot(whole) <= dirac(C2, 1)(whole)

    def test_layer_cake_agrees_with_pointwise(self):
        rng = task_rng(11, "layer-cake")
        vals = powerdomain.catalog_valuations(A2)
        sample = [random_predicate(A2, rng) for _ in range(300)]
        for mu in vals:
            for nu in vals:
                if valuation_leq(mu, nu):
                    assert all(mu(f) <= nu(f) for f in sample)
                else:
                    chis = [chi(u) for u in all_up_sets(A2)]
                    assert any(not mu(c) <= nu(c) for c in chis)

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            valuation_leq(dirac(C2, 0), dirac(A2, 0))


class TestCone:
    def test_unit_and_zero(self):
        mu = SimpleValuation(C2, ((HALF, 0), (THIRD, 1)))
        nu = dirac(C2, 1)
        assert mu.scale(ONE).add(nu.scale(ZERO)).atoms == mu.atoms

    def test_atom_merge(self):
        half = dirac(C2, 0).scale(HALF)
        assert half.add(half).atoms == dirac(C2, 0).atoms

    def test_scalar_distributes_over_evaluation(self):
        rng = task_rng(5, "cone")
        mu = SimpleValuation(A2, ((HALF, 0), (ExtNN(2), 1)))
        for _ in range(200):
            f = random_predicate(A2, rng)
            for r in (ZERO, HALF, ExtNN(3), INF):
                assert mu.scale(r)(f) == r * mu(f)

    def test_zero_scale_empties(self):
        mu = SimpleValuation(C2, ((HALF, 0), (THIRD, 1)))
        assert mu.scale(ZERO).atoms == ()
        assert mu.scale(ZERO)(constant_predicate(C2, ONE)) == ZERO

    def test_cone_laws_canonical(self):
        mu = SimpleValuation(A2, ((HALF, 0),))
        nu = SimpleValuation(A2, ((THIRD, 1),))
        r, s = ExtNN(Fraction(2, 3)), ExtNN(4)
        assert mu.scale(r).add(nu.scale(r)).atoms == mu.add(nu).scale(r).atoms
        assert mu.scale(r).add(mu.scale(s)).atoms == mu.scale(r + s).atoms
        assert mu.scale(r).scale(s).atoms == mu.scale(r * s).atoms


class TestSubSupFns:
    def test_single_component_matches_valuation(self):
        mu = SimpleValuation(A2, ((HALF, 0), (THIRD, 1)))
        f = Predicate(A2, (ExtNN(2), ExtNN(5)))
        assert SubFn((mu,))(f) == mu(f)
        assert SupFn((mu,))(f) == mu(f)

    def test_max_and_min_of_diracs(self):
        f = Predicate(A2, (ExtNN(1), ExtNN(2)))
        phi = SubFn((dirac(A2, 0), dirac(A2, 1)))
        psi = SupFn((dirac(A2, 0), dirac(A2, 1)))
        assert phi(f) == ExtNN(2)
        assert psi(f) == ExtNN(1)

    def test_canonical_dedup(self):
        phi = SubFn((dirac(A2, 0), dirac(A2, 0)))
        assert len(phi.components) == 1

    def test_empty_rejected(self):
        with pytest.raises(TypeMismatch):
            SubFn(())


    @pytest.mark.parametrize("pname", sorted(POSETS))
    @pytest.mark.parametrize("envelope", [SubFn, SupFn])
    def test_envelopes_agree_with_a_pairwise_fold(self, pname, envelope):
        # oracle: fold the component values two at a time with an explicit <
        poset = POSETS[pname]
        for phi in powerdomain.catalog_envelopes(poset, envelope):
            for u in all_up_sets(poset):
                f = chi(u)
                best, *rest = [mu(f) for mu in phi.components]
                for v in rest:
                    if (best < v) if envelope is SubFn else (v < best):
                        best = v
                assert phi(f) == best, (pname, phi.literal(), f.literal())


class TestSublinearity:
    @pytest.mark.parametrize("pname", ["C2", "A2"])
    def test_subfns_pass(self, pname):
        for phi in powerdomain.catalog_envelopes(POSETS[pname], SubFn, cap=4):
            report = check_linear_side(phi, SUBLINEAR, trials=300, seed=42)
            assert report.passed, report.as_record()

    @pytest.mark.parametrize("pname", ["C2", "A2"])
    def test_supfns_pass(self, pname):
        for phi in powerdomain.catalog_envelopes(POSETS[pname], SupFn, cap=4):
            report = check_linear_side(phi, SUPERLINEAR, trials=300, seed=42)
            assert report.passed, report.as_record()

    def test_min_of_diracs_fails_subadditivity(self):
        psi = SupFn((dirac(A2, 0), dirac(A2, 1)))
        report = check_linear_side(psi, SUBLINEAR, trials=50, seed=42)
        failed = {c.name for c in report.checks if not c.passed}
        assert "subadditive" in failed

    def test_zero_predicate_maps_to_zero(self):
        phi = SubFn((dirac(A2, 0).scale(INF),))
        assert phi(constant_predicate(A2, ZERO)) == ZERO

    def test_homogeneity_with_infinite_scalar(self):
        phi = SubFn((dirac(A2, 0), SimpleValuation(A2, ((HALF, 1),))))
        f = Predicate(A2, (HALF, ExtNN(2)))
        assert phi(Predicate(A2, (INF, INF))) == INF * phi(f)

    @pytest.mark.parametrize("pname", ["C2", "A2"])
    def test_side_verdict_is_the_relaxed_morphism_verdict(self, pname):
        # the sublinear (superlinear) functionals are the tag-relaxed
        # morphisms into rplus_max (rplus_min): whole-signature walk as oracle
        poset = POSETS[pname]
        phis = (
            powerdomain.catalog_valuations(poset)
            + powerdomain.catalog_envelopes(poset, SubFn)
            + powerdomain.catalog_envelopes(poset, SupFn)
        )
        cases = [(phi, side) for phi in phis for side in SIDES]
        offset = _Offset(SubFn((dirac(poset, 0), dirac(poset, poset.size - 1))))
        lopsided = SupFn((dirac(poset, 0).scale(ExtNN(2)), dirac(poset, poset.size - 1)))
        broken = [(offset, SUBLINEAR), (lopsided, SUBLINEAR)]
        verdicts = set()
        for phi, side in cases + broken:
            algebra = ALGS[side.algebra]
            oracle = is_relaxed_morphism(
                phi, PredAlgebra(algebra, poset), algebra, task_rng(7, "oracle"), 100
            )
            report = check_linear_side(phi, side, trials=100, seed=42)
            assert report.passed == oracle.passed, (phi, side.name)
            verdicts.add(report.passed)
            if (phi, side) in broken:
                assert not report.passed
            elif isinstance(phi, (SubFn, SupFn)) and phi.side is side:
                assert report.passed
        assert verdicts == {True, False}

    def test_subadditivity_witness_names_the_faulty_pair(self):
        # a point evaluation raised by 1 on chi{top} + chi{bot,top} alone
        base = SubFn((dirac(C2, 1),))
        bumped = (ONE, ExtNN(2))

        class Faulty:
            poset = C2

            def __call__(self, f):
                return base(f) + (ONE if f.values == bumped else ZERO)

        phi = Faulty()
        report = check_linear_side(phi, SUBLINEAR, trials=200, seed=42)
        checks = {c.name: c for c in report.checks}
        assert not report.passed and checks["zero-at-zero"].passed
        # the grid phase comes first, so the witness is the grid pair (a
        # sample that draws the bumped predicate may break the join law too)
        witness = checks["subadditive"].witness
        assert {k: witness[k] for k in ("op", "relation", "param", "lhs", "rhs")} == {
            "op": "add", "relation": "<=", "param": None, "lhs": "3", "rhs": "2"
        }
        grid = {chi(u).literal(): chi(u) for u in all_up_sets(C2)}
        f, g = (grid[literal] for literal in witness["args"])
        assert _sum(f, g).values == bumped
        # replayed on that pair alone, the law fails; every other grid pair holds
        assert not phi(_sum(f, g)) <= phi(f) + phi(g)
        failing = {
            (a.literal(), b.literal())
            for a in grid.values()
            for b in grid.values()
            if not phi(_sum(a, b)) <= phi(a) + phi(b)
        }
        assert failing == {(f.literal(), g.literal()), (g.literal(), f.literal())}


def _sum(f, g):
    return Predicate(f.poset, tuple(a + b for a, b in zip(f.values, g.values)))


class _Offset:
    """A functional shifted up by 1 everywhere, so 0 no longer maps to 0."""

    def __init__(self, phi):
        self.phi = phi
        self.poset = phi.poset

    def __call__(self, f):
        return self.phi(f) + ONE


class TestDomination:
    def test_components_stay_below(self):
        phi = SubFn((dirac(A2, 0), dirac(A2, 1)))
        for mu in phi.components:
            assert domination_check(mu, phi, trials=200, seed=42).passed

    def test_total_mass_violation(self):
        phi = SubFn((dirac(A2, 0), dirac(A2, 1)))
        total = dirac(A2, 0).add(dirac(A2, 1))
        report = domination_check(total, phi, trials=200, seed=42)
        assert not report.passed

    def test_sampled_failure_names_the_drawn_predicate(self, monkeypatch):
        # phi reads 0 on any predicate with an elevenths value, which no
        # up-set characteristic has; the walk stops at the first such sample
        class Faulty(SubFn):
            def __call__(self, f):
                return ZERO if any(str(v).endswith("/11") for v in f.values) else super().__call__(f)

        phi = Faulty((dirac(A2, 0), dirac(A2, 1)))
        assert domination_check(dirac(A2, 0), phi, trials=0).passed
        made = []

        def kept_rng(seed, label):
            made.append(task_rng(seed, label))
            return made[-1]

        monkeypatch.setattr(powerdomain, "task_rng", kept_rng)
        report = domination_check(dirac(A2, 0), phi, trials=300, seed=7)
        assert report.witness == {"f": "pred { a -> 16/11; b -> 19/5 }", "mu": "16/11", "phi": "0"}
        assert made[-1].random() == 0.534695703932012

    def test_single_component_equality_both_ways(self):
        mu = SimpleValuation(A2, ((HALF, 0), (THIRD, 1)))
        assert domination_check(mu, SubFn((mu,)), trials=100, seed=42).passed
        assert domination_check(mu, SupFn((mu,)), trials=100, seed=42).passed


class TestNonIntegerWitness:
    def test_half_witness(self):
        report = non_integer_witness(C2, 0, HALF, ALGS["rplus"], trials=500, seed=42)
        assert report.passed
        mass = next(c for c in report.checks if c.name == "mass-outside-naturals")
        assert mass.witness["mass"] == "1/2"

    def test_integer_rejected(self):
        with pytest.raises(RejectInteger):
            non_integer_witness(C2, 0, ExtNN(2), ALGS["rplus"])

    def test_infinite_rejected(self):
        with pytest.raises(RejectInteger):
            non_integer_witness(C2, 0, INF, ALGS["rplus"])

    def test_seven_thirds(self):
        report = non_integer_witness(C2, 1, ExtNN(Fraction(7, 3)), ALGS["rplus"], trials=300, seed=42)
        assert report.passed
        mass = next(c for c in report.checks if c.name == "mass-outside-naturals")
        assert mass.witness["mass"] == "7/3"


class TestPredAlgebra:
    def test_pointwise_application(self):
        lifted = PredAlgebra(ALGS["rplus_max"], A2)
        f = Predicate(A2, (ExtNN(1), ExtNN(2)))
        g = Predicate(A2, (HALF, ExtNN(5)))
        assert lifted.resolve("add")((f, g)).values == (ExtNN(Fraction(3, 2)), ExtNN(7))
        assert lifted.resolve("scale", ExtNN(2))((f,)).values == (ExtNN(2), ExtNN(4))

    def test_grid_is_characteristic_family(self):
        lifted = PredAlgebra(ALGS["rplus_max"], C2)
        singles = list(lifted.grid_tuples(1))
        assert len(singles) == len(all_up_sets(C2))


def _order_dual(poset):
    """X^op: the same labels with the <= matrix transposed."""
    n = poset.size
    return FinPoset(
        poset.labels, tuple(tuple(poset.leq[j][i] for j in range(n)) for i in range(n))
    )


def _labelled_order(poset, flip=False):
    labs = poset.labels
    return {
        (labs[j], labs[i]) if flip else (labs[i], labs[j])
        for i in range(poset.size)
        for j in range(poset.size)
        if poset.leq[i][j]
    }


class TestHoareSmythDuality:
    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_smyth_is_dual_of_hoare_on_the_opposite(self, name):
        # up-sets of X under reverse inclusion are the down-sets of X^op
        # under inclusion, turned upside down
        x = POSETS[name]
        smyth = smyth_powerdomain(x, ALGS["2_dem"])
        hoare_op = hoare_powerdomain(_order_dual(x), ALGS["2_ang"])
        assert smyth.passed and hoare_op.passed
        assert _labelled_order(smyth.set_poset) == _labelled_order(
            hoare_op.set_poset, flip=True
        )
        assert len(smyth.functionals) == len(hoare_op.functionals)


def test_max_of_diracs_fails_superadditivity():
    phi = SubFn((dirac(A2, 0), dirac(A2, 1)))
    report = check_linear_side(phi, SUPERLINEAR, trials=50, seed=42)
    failed = [c for c in report.checks if not c.passed]
    assert "superadditive" in {c.name for c in failed}
    assert all(c.witness for c in failed)


def _evaluation_cases():
    """Seeded valuations and predicates on every catalog poset: 0 and inf
    appear as weights and as values, with the empty valuation and the
    all-zero predicate in every poset's set."""
    for name in sorted(POSETS):
        poset = POSETS[name]
        n = poset.size
        rng = task_rng(7, f"valuation-oracle.{name}")
        vals = [SimpleValuation(poset, ()), SimpleValuation(poset, ((INF, 0), (ZERO, n - 1)))]
        for _ in range(12):
            atoms = tuple(
                (
                    rng.choice((ZERO, INF)) if rng.random() < 0.3 else random_extnn(rng),
                    rng.randrange(n),
                )
                for _ in range(rng.randrange(1, n + 2))
            )
            vals.append(SimpleValuation(poset, atoms))
        preds = [constant_predicate(poset, ZERO), constant_predicate(poset, INF)]
        # 0 outside an up-set and inf inside it
        preds += [
            Predicate(poset, tuple(INF if i in u else ZERO for i in range(n)))
            for u in all_up_sets(poset)
        ]
        preds += [Predicate(poset, random_monotone_values(poset, rng)) for _ in range(12)]
        for mu in vals:
            for f in preds:
                yield mu, f


def test_valuation_evaluation_matches_termwise_sum():
    # the termwise oracle builds and reduces one ExtNN per term
    seen = set()
    for mu, f in _evaluation_cases():
        got = mu(f)
        want = enn_sum(w * f.values[p] for w, p in mu.atoms)
        assert (got._n, got._d) == (want._n, want._d), (mu.literal(), f.literal())
        if not mu.atoms:
            seen.add("empty valuation")
        if all(v == ZERO for v in f.values):
            seen.add("all-zero predicate")
        if any(w == INF and f.values[p] == ZERO for w, p in mu.atoms):
            seen.add("inf weight on a zero value")
        if any(w != ZERO and f.values[p] == INF for w, p in mu.atoms):
            seen.add("positive weight on an inf value")
        if got == INF:
            seen.add("infinite result")
    assert seen == {
        "empty valuation",
        "all-zero predicate",
        "inf weight on a zero value",
        "positive weight on an inf value",
        "infinite result",
    }

