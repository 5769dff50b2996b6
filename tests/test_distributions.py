"""Tests for finite joint distributions and the conditional-independence checks."""

import itertools
import random
from fractions import Fraction

import pytest

from fairaudit.distributions import (
    EPS_DEFAULT,
    PASS,
    VACUOUS,
    DeterministicMap,
    FiniteJoint,
    apply_map,
    check_ci_property,
    ci_deviation,
    compose_ci,
    marginal,
)
from fairaudit.errors import InputError
from fairaudit.generators import (
    random_chain_instance,
    random_ci_instance,
    random_functional_instance,
    random_joint,
    random_map,
    random_pair_ci_instance,
    random_product_instance,
)

BIN = ("0", "1")


def uniform_joint(*sizes: int) -> FiniteJoint:
    names = ("X", "Y", "Z", "W")[: len(sizes)]
    variables = tuple(
        (name, tuple(str(i) for i in range(size))) for name, size in zip(names, sizes)
    )
    keys = list(itertools.product(*(dom for _, dom in variables)))
    return FiniteJoint(variables=variables, table={k: 1 / len(keys) for k in keys})


def grouped_before_joint() -> FiniteJoint:
    """The worked two-group example normalized over 78 records."""
    counts = {
        ("p", "+", "+"): 10, ("p", "-", "+"): 2, ("p", "+", "-"): 3, ("p", "-", "-"): 11,
        ("q", "+", "+"): 20, ("q", "-", "+"): 4, ("q", "+", "-"): 6, ("q", "-", "-"): 22,
    }
    variables = (("A", ("p", "q")), ("Y", ("+", "-")), ("R", ("+", "-")))
    return FiniteJoint(variables=variables, table={k: v / 78 for k, v in counts.items()})


def grouped_after_joint() -> FiniteJoint:
    counts = {
        ("p", "+", "+"): 11, ("p", "-", "+"): 2, ("p", "+", "-"): 2, ("p", "-", "-"): 11,
        ("q", "+", "+"): 21, ("q", "-", "+"): 4, ("q", "+", "-"): 5, ("q", "-", "-"): 22,
    }
    variables = (("A", ("p", "q")), ("Y", ("+", "-")), ("R", ("+", "-")))
    return FiniteJoint(variables=variables, table={k: v / 78 for k, v in counts.items()})


class TestFiniteJointValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(InputError, match="negative"):
            FiniteJoint(
                variables=(("X", BIN),), table={("0",): 1.5, ("1",): -0.5}
            )

    def test_mass_must_be_one(self):
        with pytest.raises(InputError, match="total mass"):
            FiniteJoint(variables=(("X", BIN),), table={("0",): 0.3, ("1",): 0.3})

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            FiniteJoint(
                variables=(("X", BIN), ("X", BIN)),
                table={("0", "0"): 1.0},
            )

    def test_empty_domain_rejected(self):
        with pytest.raises(InputError, match="empty domain"):
            FiniteJoint(variables=(("X", ()),), table={})

    def test_key_outside_domain_rejected(self):
        with pytest.raises(InputError, match="does not match"):
            FiniteJoint(variables=(("X", BIN),), table={("2",): 1.0})

    def test_sparse_cells_read_as_zero(self):
        j = FiniteJoint(variables=(("X", BIN),), table={("0",): 1.0})
        assert j.prob(("1",)) == 0.0
        assert j.min_cell() == 0.0


class TestCountJoint:
    """Integer weights over a denominator: every mass is an exact Fraction."""

    COUNTS = {("0", "0"): 1, ("0", "1"): 2, ("1", "0"): 3, ("1", "1"): 4}

    def joint(self) -> FiniteJoint:
        return FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=self.COUNTS, denominator=10)

    @pytest.mark.parametrize("denominator", [0, -10, 10.0, True, "10"])
    def test_denominator_must_be_a_positive_integer(self, denominator):
        with pytest.raises(InputError, match="denominator must be a positive integer"):
            FiniteJoint(
                variables=(("X", BIN), ("Y", BIN)), table=self.COUNTS, denominator=denominator
            )

    def test_counts_must_sum_to_the_denominator(self):
        with pytest.raises(InputError, match="total mass"):
            FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=self.COUNTS, denominator=11)

    def test_masses_are_exact(self):
        j = self.joint()
        assert j.prob(("0", "1")) == Fraction(1, 5)
        assert j.total_mass() == 1 and isinstance(j.total_mass(), Fraction)
        assert j.min_cell() == Fraction(1, 10)

    def test_marginal_and_apply_map_keep_the_denominator(self):
        m = marginal(self.joint(), {"X"})
        assert m.denominator == 10
        assert m.prob(("1",)) == Fraction(7, 10)
        h = DeterministicMap(source="X", target="U", mapping={"0": "u", "1": "u"})
        extended = apply_map(self.joint(), h)
        assert extended.denominator == 10
        assert extended.prob(("1", "1", "u")) == Fraction(2, 5)

    def test_deviation_is_exact_and_matches_the_float_joint(self):
        # |w(x,y) * N - w(x) * w(y)| = 2 in every cell, over N^2 = 100.
        dev = ci_deviation(self.joint(), "X", "Y")
        assert dev == Fraction(1, 50) and isinstance(dev, Fraction)
        floats = FiniteJoint(
            variables=(("X", BIN), ("Y", BIN)),
            table={key: count / 10 for key, count in self.COUNTS.items()},
        )
        assert ci_deviation(floats, "X", "Y") == pytest.approx(0.02, abs=1e-15)

    def test_functional_violation_mass_is_exact(self):
        counts = {("0", "0", "u"): 4, ("1", "1", "v"): 5, ("0", "1", "u"): 1}
        j = FiniteJoint(
            variables=(("X", BIN), ("Z", BIN), ("Y", ("u", "v"))), table=counts, denominator=10
        )
        h = DeterministicMap(source="Z", target="Y", mapping={"0": "u", "1": "v"})
        verdict = check_ci_property(3, j, h)
        assert verdict.status == VACUOUS
        assert verdict.premises == {"y_equals_h_of_z_violation_mass": Fraction(1, 10)}


class TestMarginal:
    def test_uniform_three_binary_keep_one(self):
        j = uniform_joint(2, 2, 2)
        m = marginal(j, {"X"})
        assert m.names == ("X",)
        assert m.prob(("0",)) == pytest.approx(0.5, abs=1e-15)
        assert m.prob(("1",)) == pytest.approx(0.5, abs=1e-15)

    def test_before_joint_keep_y_gives_half(self):
        m = marginal(grouped_before_joint(), {"Y"})
        assert m.prob(("+",)) == pytest.approx(39 / 78, abs=1e-15)

    def test_keep_all_is_identity(self):
        rng = random.Random(3)
        j = random_joint(rng, [("X", BIN), ("Y", BIN), ("Z", ("a", "b", "c"))])
        m = marginal(j, set(j.names))
        assert m.variables == j.variables
        assert m.table == j.table

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError, match="unknown variable"):
            marginal(uniform_joint(2, 2), {"Q"})

    def test_empty_keep_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            marginal(uniform_joint(2, 2), set())

    def test_mass_preserved(self):
        rng = random.Random(11)
        for _ in range(50):
            j = random_joint(rng, [("X", BIN), ("Y", ("a", "b", "c")), ("Z", BIN)])
            for keep in ({"X"}, {"Y"}, {"X", "Z"}):
                assert abs(marginal(j, keep).total_mass() - j.total_mass()) <= 1e-15


class TestIsIndependent:
    def test_product_distribution_holds(self):
        table = {}
        px = {"0": 0.3, "1": 0.7}
        py = {"0": 0.6, "1": 0.4}
        for x, y in itertools.product(BIN, BIN):
            table[(x, y)] = px[x] * py[y]
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=table)
        assert ci_deviation(j, "X", "Y") <= 1e-15

    def test_perfectly_correlated_pair_deviation_quarter(self):
        j = FiniteJoint(
            variables=(("X", BIN), ("Y", BIN)),
            table={("0", "0"): 0.5, ("1", "1"): 0.5},
        )
        deviation = ci_deviation(j, "X", "Y")
        assert deviation > EPS_DEFAULT
        assert deviation == pytest.approx(0.25, abs=1e-15)

    def test_before_joint_group_and_prediction_independent(self):
        assert ci_deviation(grouped_before_joint(), "A", "R") <= 1e-15

    def test_same_variable_rejected(self):
        with pytest.raises(InputError, match="disjoint"):
            ci_deviation(uniform_joint(2, 2), "X", "X")


class TestIsCondIndependent:
    def test_functional_target_always_conditionally_independent(self):
        rng = random.Random(5)
        for _ in range(20):
            j, _ = random_functional_instance(rng)
            assert ci_deviation(j, "X", "Y", "Z") <= EPS_DEFAULT

    def test_before_joint_sufficiency_and_separation_hold(self):
        j = grouped_before_joint()
        assert ci_deviation(j, "Y", "A", "R") <= 1e-15
        assert ci_deviation(j, "R", "A", "Y") <= 1e-15

    def test_after_joint_separation_fails(self):
        assert ci_deviation(grouped_after_joint(), "R", "A", "Y") > 1e-6

    def test_empty_given_agrees_with_unconditional(self):
        rng = random.Random(7)
        for _ in range(50):
            j = random_joint(rng, [("X", BIN), ("Y", ("a", "b", "c"))])
            plain = ci_deviation(j, "X", "Y")
            conditioned = ci_deviation(j, "X", "Y", ())
            assert abs(plain - conditioned) <= 1e-15

    def test_deviation_invariant_under_domain_relabeling(self):
        rng = random.Random(13)
        for _ in range(25):
            j = random_joint(rng, [("X", BIN), ("Y", BIN), ("Z", ("a", "b", "c"))])
            flipped_vars = (("X", ("1", "0")), ("Y", BIN), ("Z", ("c", "a", "b")))
            flipped = FiniteJoint(variables=flipped_vars, table=dict(j.table))
            for left, right, given in (("X", "Y", "Z"), ("X", "Z", ()), ("Y", "Z", "X")):
                assert abs(
                    ci_deviation(j, left, right, given)
                    - ci_deviation(flipped, left, right, given)
                ) <= 1e-15


class TestComposeCI:
    def test_uniform_components_give_uniform_joint(self):
        pz = {"0": 0.5, "1": 0.5}
        rows = {z: {"0": 0.5, "1": 0.5} for z in pz}
        j = compose_ci(pz, rows, rows)
        for key in j.assignments():
            assert j.prob(key) == pytest.approx(1 / 8, abs=1e-15)

    def test_point_mass_conditioner_gives_unconditional_independence(self):
        pz = {"only": 1.0}
        px = {"only": {"0": 0.2, "1": 0.8}}
        py = {"only": {"0": 0.6, "1": 0.4}}
        j = compose_ci(pz, px, py)
        assert ci_deviation(j, "X", "Y") <= 1e-15

    def test_output_satisfies_target_ci(self):
        rng = random.Random(42)
        for _ in range(500):
            j = random_ci_instance(rng)
            assert ci_deviation(j, "X", "Y", "Z") <= 1e-12

    def test_non_stochastic_row_rejected(self):
        pz = {"0": 1.0}
        bad = {"0": {"0": 0.5, "1": 0.2}}
        good = {"0": {"0": 0.5, "1": 0.5}}
        with pytest.raises(InputError, match="not stochastic"):
            compose_ci(pz, bad, good)

    def test_negative_row_mass_rejected(self):
        pz = {"0": 1.0}
        bad = {"0": {"0": 1.2, "1": -0.2}}
        good = {"0": {"0": 0.5, "1": 0.5}}
        with pytest.raises(InputError, match="negative"):
            compose_ci(pz, bad, good)

    def test_missing_row_rejected(self):
        pz = {"0": 0.5, "1": 0.5}
        partial = {"0": {"0": 1.0}}
        with pytest.raises(InputError, match="missing a row"):
            compose_ci(pz, partial, partial)


class TestApplyMap:
    def test_appends_target_variable(self):
        j = uniform_joint(2, 2)
        h = DeterministicMap(source="X", target="U", mapping={"0": "u", "1": "u"})
        extended = apply_map(j, h)
        assert extended.names == ("X", "Y", "U")
        assert extended.domain("U") == ("u",)
        assert abs(extended.total_mass() - 1) <= 1e-15

    def test_existing_target_rejected(self):
        j = uniform_joint(2, 2)
        h = DeterministicMap(source="X", target="Y", mapping={"0": "0", "1": "1"})
        with pytest.raises(InputError, match="already present"):
            apply_map(j, h)

    def test_partial_mapping_rejected(self):
        j = uniform_joint(2, 2)
        h = DeterministicMap(source="X", target="U", mapping={"0": "u"})
        with pytest.raises(InputError, match="not defined"):
            apply_map(j, h)


class TestCheckCIProperty:
    def test_property_1_symmetry_on_composed_instances(self):
        rng = random.Random(1)
        for _ in range(25):
            verdict = check_ci_property(1, random_ci_instance(rng))
            assert verdict.status == PASS

    def test_property_1_vacuous_on_dependent_joint(self):
        # X = Y while Z is an independent fair coin: the premise fails.
        table = {
            ("0", "0", "0"): 0.25, ("1", "1", "0"): 0.25,
            ("0", "0", "1"): 0.25, ("1", "1", "1"): 0.25,
        }
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN), ("Z", BIN)), table=table)
        verdict = check_ci_property(1, j)
        assert verdict.status == VACUOUS
        assert verdict.conclusions == {}

    def test_property_2_both_conclusions(self):
        rng = random.Random(2)
        for _ in range(25):
            j = random_ci_instance(rng)
            h = random_map(rng, "X", "U", j.domain("X"))
            verdict = check_ci_property(2, j, h)
            assert verdict.status == PASS
            assert set(verdict.conclusions) == {
                "u_indep_y_given_z",
                "x_indep_y_given_zu",
            }

    def test_property_2_requires_map(self):
        with pytest.raises(InputError, match="property 2"):
            check_ci_property(2, uniform_joint(2, 2, 2))

    def test_property_3_identity_map(self):
        # Y is a copy of Z while X is arbitrarily coupled with Z.
        rng = random.Random(3)
        for _ in range(25):
            base = random_joint(rng, [("X", BIN), ("Z", ("a", "b"))])
            h = DeterministicMap(source="Z", target="Y", mapping={"a": "a", "b": "b"})
            j = apply_map(base, h)
            verdict = check_ci_property(3, j, h)
            assert verdict.status == PASS

    def test_property_3_vacuous_when_not_functional(self):
        j = uniform_joint(2, 2, 2)  # Y uniform regardless of Z
        h = DeterministicMap(source="Z", target="Y", mapping={"0": "0", "1": "1"})
        verdict = check_ci_property(3, j, h)
        assert verdict.status == VACUOUS

    def test_property_4_both_directions_on_chain(self):
        rng = random.Random(4)
        for _ in range(25):
            verdict = check_ci_property(4, random_chain_instance(rng))
            assert verdict.status == PASS
            assert "forward_x_indep_wy_given_z" in verdict.conclusions
            assert "backward_x_indep_y_given_z" in verdict.conclusions

    def test_property_4_pair_construction(self):
        rng = random.Random(5)
        for _ in range(25):
            verdict = check_ci_property(4, random_pair_ci_instance(rng))
            assert verdict.status == PASS

    def test_property_5_product_instances(self):
        rng = random.Random(6)
        for _ in range(25):
            j = random_product_instance(rng)
            assert j.min_cell() >= 1e-3
            verdict = check_ci_property(5, j)
            assert verdict.status == PASS

    def test_property_5_vacuous_without_positivity(self):
        # X independent of (Y, Z) but one cell empty.
        table = {
            ("0", "0", "0"): 0.30, ("1", "0", "0"): 0.30,
            ("0", "1", "0"): 0.15, ("1", "1", "0"): 0.15,
            ("0", "0", "1"): 0.05, ("1", "0", "1"): 0.05,
        }
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN), ("Z", BIN)), table=table)
        verdict = check_ci_property(5, j)
        assert verdict.status == VACUOUS
        assert verdict.premises["positivity_min_cell"] == 0.0

    def test_unknown_property_rejected(self):
        with pytest.raises(InputError, match="1..5"):
            check_ci_property(6, uniform_joint(2, 2, 2))


class TestDefaults:
    def test_default_eps(self):
        assert EPS_DEFAULT == 1e-9
