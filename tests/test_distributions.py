"""Tests for finite joint distributions and the conditional-independence checks."""

import io
import itertools
import math
import random
import re
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from joint_oracle import assert_revalidates, oracle_min_cell, oracle_target_domain

from fairaudit import cli
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.distributions import (
    EPS_DEFAULT,
    FAIL,
    PASS,
    VACUOUS,
    DeterministicMap,
    FiniteJoint,
    apply_map,
    check_ci_property,
    ci_deviation,
    ci_property_status,
    compose_ci,
    within,
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
from fairaudit.measures import independence, separation, sufficiency

BIN = ("0", "1")


def uniform_joint(*sizes: int) -> FiniteJoint:
    names = ("X", "Y", "Z", "W")[: len(sizes)]
    variables = tuple(
        (name, tuple(str(i) for i in range(size))) for name, size in zip(names, sizes)
    )
    keys = list(itertools.product(*(dom for _, dom in variables)))
    return FiniteJoint(variables=variables, table={k: 1 for k in keys})


def grouped_before_joint() -> FiniteJoint:
    """The worked two-group example: 78 records."""
    counts = {
        ("p", "+", "+"): 10, ("p", "-", "+"): 2, ("p", "+", "-"): 3, ("p", "-", "-"): 11,
        ("q", "+", "+"): 20, ("q", "-", "+"): 4, ("q", "+", "-"): 6, ("q", "-", "-"): 22,
    }
    variables = (("A", ("p", "q")), ("Y", ("+", "-")), ("R", ("+", "-")))
    return FiniteJoint(variables=variables, table=counts)


def grouped_after_joint() -> FiniteJoint:
    counts = {
        ("p", "+", "+"): 11, ("p", "-", "+"): 2, ("p", "+", "-"): 2, ("p", "-", "-"): 11,
        ("q", "+", "+"): 21, ("q", "-", "+"): 4, ("q", "+", "-"): 5, ("q", "-", "-"): 22,
    }
    variables = (("A", ("p", "q")), ("Y", ("+", "-")), ("R", ("+", "-")))
    return FiniteJoint(variables=variables, table=counts)


class TestFiniteJointValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(InputError, match="negative"):
            FiniteJoint(
                variables=(("X", BIN),), table={("0",): 2, ("1",): -1}
            )

    @pytest.mark.parametrize("weight", [0.5, Fraction(1, 2)])
    def test_weight_must_be_an_int(self, weight):
        with pytest.raises(InputError, match="must be a non-negative int"):
            FiniteJoint(variables=(("X", BIN),), table={("0",): 1, ("1",): weight})

    @pytest.mark.parametrize("table", [{}, {("0",): 0}])
    def test_table_without_mass_rejected(self, table):
        with pytest.raises(InputError, match="no mass"):
            FiniteJoint(variables=(("X", BIN),), table=table)

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            FiniteJoint(
                variables=(("X", BIN), ("X", BIN)),
                table={("0", "0"): 1},
            )

    def test_empty_domain_rejected(self):
        with pytest.raises(InputError, match="empty domain"):
            FiniteJoint(variables=(("X", ()),), table={})

    def test_key_outside_domain_rejected(self):
        with pytest.raises(InputError, match="does not match"):
            FiniteJoint(variables=(("X", BIN),), table={("2",): 1})

    def test_key_that_is_not_a_tuple_rejected(self):
        # A string with one label character per variable passes the length
        # and domain checks, but a lookup of ("0", "1") would not find its cell.
        with pytest.raises(InputError, match=r"assignment '01' does not match declared variables"):
            FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table={"01": 1, ("1", "0"): 1})

    def test_sparse_cells_read_as_zero(self):
        j = FiniteJoint(variables=(("X", BIN),), table={("0",): 1})
        assert j.table.get(("1",), 0) == 0
        assert j.min_cell() == 0


class TestMinCell:
    def test_matches_the_grid_walk_on_sparse_and_dense_joints(self):
        rng = random.Random(139)
        for _ in range(200):
            names = ("X", "Y", "Z")[: rng.randint(1, 3)]
            domains = [("0", "1", "2")[: rng.randint(2, 3)] for _ in names]
            dense = random_joint(rng, list(zip(names, domains)))
            keys = sorted(dense.table)
            kept = rng.sample(keys, rng.randint(1, len(keys)))
            sparse = FiniteJoint(dense.variables, {key: dense.table[key] + 1 for key in kept})
            full = {key: weight + 1 for key, weight in dense.table.items()}
            zeroed = FiniteJoint(dense.variables, {**full, keys[0]: 0})
            for j in (dense, sparse, zeroed):
                assert j.min_cell() == oracle_min_cell(j)

    def test_costs_the_table_not_the_grid(self):
        # Ten cells over a 1000 x 1000 x 2 grid: the walk took about 0.2 s a call.
        dom = tuple(str(i) for i in range(1000))
        table = {(str(i), str(7 * i), "1"): i + 1 for i in range(10)}
        j = FiniteJoint((("X", dom), ("Y", dom), ("Z", BIN)), table)
        start = time.perf_counter()
        for _ in range(20):
            assert j.min_cell() == 0
        assert time.perf_counter() - start < 1.0
        verdict = check_ci_property(5, j)
        assert (verdict.status, verdict.premises["positivity_min_cell"]) == (VACUOUS, 0)


class TestDerivedJoints:
    def test_table_without_mass_rejected(self):
        rows = {"0": {"0": 1, "1": 1}}
        with pytest.raises(InputError, match="no mass"):
            compose_ci({"0": 0}, rows, rows)
        with pytest.raises(InputError, match="no mass"):
            FiniteJoint.from_valid((("X", BIN),), {("0",): 0})

    def test_check_props_builds_no_joint_through_the_public_constructor(self, monkeypatch):
        def refused(self, *args, **kwargs):
            raise AssertionError("FiniteJoint.__init__ was called")

        out = io.StringIO()
        monkeypatch.setattr(FiniteJoint, "__init__", refused)
        with redirect_stdout(out):
            code = cli.main(["check-props", "--count", "20", "--format", "json"])
        assert code == 0
        assert '"failures_total": 0' in out.getvalue()


class TestCountJoint:
    """Integer weights over their total: every mass is an exact Fraction."""

    COUNTS = {("0", "0"): 1, ("0", "1"): 2, ("1", "0"): 3, ("1", "1"): 4}

    def joint(self) -> FiniteJoint:
        return FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=self.COUNTS)

    @pytest.mark.parametrize("denominator", [0, -10, 10.0, True, "10"])
    def test_denominator_must_be_a_positive_integer(self, denominator):
        # The denominator is the weights' total; with every weight set to
        # the value it is zero, negative, a float, a bool sum or a string.
        table = {key: denominator for key in self.COUNTS}
        with pytest.raises(InputError, match="must be a non-negative int|no mass"):
            FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=table)

    def test_denominator_is_the_total_and_not_an_argument(self):
        assert self.joint().denominator == 10
        with pytest.raises(TypeError):
            FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=self.COUNTS, denominator=10)

    def test_masses_are_exact(self):
        j = self.joint()
        assert Fraction(j.table[("0", "1")], j.denominator) == Fraction(1, 5)
        assert sum(j.table.get(key, 0) for key in itertools.product(BIN, BIN)) == j.denominator
        assert j.min_cell() == Fraction(1, 10)

    def test_apply_map_keeps_the_denominator(self):
        h = DeterministicMap(source="X", target="U", mapping={"0": "u", "1": "u"})
        extended = apply_map(self.joint(), h)
        assert extended.denominator == 10
        assert Fraction(extended.table[("1", "1", "u")], extended.denominator) == Fraction(2, 5)

    def test_deviation_is_exact(self):
        # |w(x,y) * N - w(x) * w(y)| = 2 in every cell, over N^2 = 100.
        dev = ci_deviation(self.joint(), "X", "Y")
        assert dev == Fraction(1, 50) and isinstance(dev, Fraction)

    def test_functional_violation_mass_is_exact(self):
        counts = {("0", "0", "u"): 4, ("1", "1", "v"): 5, ("0", "1", "u"): 1}
        j = FiniteJoint(variables=(("X", BIN), ("Z", BIN), ("Y", ("u", "v"))), table=counts)
        h = DeterministicMap(source="Z", target="Y", mapping={"0": "u", "1": "v"})
        verdict = check_ci_property(3, j, h)
        assert verdict.status == VACUOUS
        assert verdict.premises == {"y_equals_h_of_z_violation_mass": Fraction(1, 10)}


class TestIsIndependent:
    def test_product_distribution_holds(self):
        table = {}
        px = {"0": 3, "1": 7}
        py = {"0": 6, "1": 4}
        for x, y in itertools.product(BIN, BIN):
            table[(x, y)] = px[x] * py[y]
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN)), table=table)
        assert ci_deviation(j, "X", "Y") == 0

    def test_perfectly_correlated_pair_deviation_quarter(self):
        j = FiniteJoint(
            variables=(("X", BIN), ("Y", BIN)),
            table={("0", "0"): 1, ("1", "1"): 1},
        )
        deviation = ci_deviation(j, "X", "Y")
        assert deviation > EPS_DEFAULT
        assert deviation == Fraction(1, 4)

    def test_before_joint_group_and_prediction_independent(self):
        assert ci_deviation(grouped_before_joint(), "A", "R") == 0

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
        assert ci_deviation(j, "Y", "A", "R") == 0
        assert ci_deviation(j, "R", "A", "Y") == 0

    def test_after_joint_separation_fails(self):
        assert ci_deviation(grouped_after_joint(), "R", "A", "Y") > 1e-6

    def test_empty_given_agrees_with_unconditional(self):
        rng = random.Random(7)
        for _ in range(50):
            j = random_joint(rng, [("X", BIN), ("Y", ("a", "b", "c"))])
            plain = ci_deviation(j, "X", "Y")
            conditioned = ci_deviation(j, "X", "Y", ())
            assert plain == conditioned

    def test_deviation_invariant_under_domain_relabeling(self):
        rng = random.Random(13)
        for _ in range(25):
            j = random_joint(rng, [("X", BIN), ("Y", BIN), ("Z", ("a", "b", "c"))])
            flipped_vars = (("X", ("1", "0")), ("Y", BIN), ("Z", ("c", "a", "b")))
            flipped = FiniteJoint(variables=flipped_vars, table=dict(j.table))
            for left, right, given in (("X", "Y", "Z"), ("X", "Z", ()), ("Y", "Z", "X")):
                assert ci_deviation(j, left, right, given) == ci_deviation(
                    flipped, left, right, given
                )


class TestComposeCI:
    def test_uniform_components_give_uniform_joint(self):
        pz = {"0": 1, "1": 1}
        rows = {z: {"0": 1, "1": 1} for z in pz}
        j = compose_ci(pz, rows, rows)
        for key in itertools.product(BIN, BIN, BIN):
            assert Fraction(j.table.get(key, 0), j.denominator) == Fraction(1, 8)

    def test_point_mass_conditioner_gives_unconditional_independence(self):
        pz = {"only": 1}
        px = {"only": {"0": 1, "1": 4}}
        py = {"only": {"0": 3, "1": 2}}
        j = compose_ci(pz, px, py)
        assert ci_deviation(j, "X", "Y") == 0

    def test_output_satisfies_target_ci(self):
        rng = random.Random(42)
        for _ in range(500):
            j = random_ci_instance(rng)
            assert ci_deviation(j, "X", "Y", "Z") == 0

    def test_float_weight_rejected(self):
        rows = {"0": {"0": 1, "1": 1}}
        with pytest.raises(InputError, match="must be a non-negative int"):
            compose_ci({"0": 0.5}, rows, rows)

    def test_negative_row_mass_rejected(self):
        pz = {"0": 1}
        bad = {"0": {"0": 2, "1": -1}}
        good = {"0": {"0": 1, "1": 1}}
        with pytest.raises(InputError, match="negative"):
            compose_ci(pz, bad, good)

    def test_missing_row_rejected(self):
        pz = {"0": 1, "1": 1}
        partial = {"0": {"0": 1}}
        with pytest.raises(InputError, match="missing a row"):
            compose_ci(pz, partial, partial)

    def test_seeded_compositions_revalidate(self):
        rng = random.Random(149)
        for _ in range(200):
            z_dom, x_dom, y_dom = ([str(v) for v in range(rng.randint(1, 3))] for _ in "zxy")
            pz = {z: rng.randint(1, 5) for z in z_dom}
            px = {z: {x: rng.randint(0, 5) for x in x_dom} for z in z_dom}
            py = {z: {y: rng.randint(0, 5) for y in y_dom} for z in z_dom}
            try:
                j = compose_ci(pz, px, py)
            except InputError as exc:  # each z drew a row of zeros on the X or Y side
                assert str(exc) == "joint has no mass: every weight is 0"
                continue
            assert_revalidates(j)
            assert ci_deviation(j, "X", "Y", "Z") == 0

    @pytest.mark.parametrize(
        "px, py, message",
        [
            ({"0": {}}, {"0": {"0": 1}}, "variable 'X' has an empty domain"),
            ({"0": {"0": 1}}, {"0": {}}, "variable 'Y' has an empty domain"),
            ({"0": {}}, {"0": {}}, "variable 'X' has an empty domain"),
            (
                {"0": {}},
                {"0": {"0": -1}},
                "each weight of py_given_z row for z='0' must be a non-negative int, got -1",
            ),
        ],
        ids=["empty-x", "empty-y", "both-empty", "bad-py-row-first"],
    )
    @pytest.mark.parametrize("pz", [{"0": 1}, {"0": 0}], ids=["mass", "no-mass"])
    def test_empty_row_rejected(self, pz, px, py, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            compose_ci(pz, px, py)

    @pytest.mark.parametrize("weight", [True, False, "1", None])
    @pytest.mark.parametrize("where", ["pz", "px", "py"])
    def test_non_int_weight_rejected(self, where, weight):
        pz = {"0": 1, "1": 2}
        rows = {z: {"0": 1, "1": 1} for z in pz}
        bad = {"0": {"0": weight, "1": 1}, "1": {"0": 1, "1": 1}}
        args = {
            "pz": ({"0": weight, "1": 2}, rows, rows),
            "px": (pz, bad, rows),
            "py": (pz, rows, bad),
        }[where]
        with pytest.raises(InputError, match="must be a non-negative int"):
            compose_ci(*args)


class TestApplyMap:
    def test_appends_target_variable(self):
        j = uniform_joint(2, 2)
        h = DeterministicMap(source="X", target="U", mapping={"0": "u", "1": "u"})
        extended = apply_map(j, h)
        assert extended.names == ("X", "Y", "U")
        assert extended.domain("U") == ("u",)
        assert extended.denominator == j.denominator

    def test_existing_target_rejected(self):
        j = uniform_joint(2, 2)
        h = DeterministicMap(source="X", target="Y", mapping={"0": "0", "1": "1"})
        with pytest.raises(InputError, match="already present"):
            apply_map(j, h)

    @pytest.mark.parametrize(
        "table, mapping, missing",
        [
            # every value carries mass, the missing one does, or only a
            # value after it does: the first missing domain value is named
            ({(x, y): 1 for x in "012" for y in BIN}, {"0": "u"}, "1"),
            ({("0", "0"): 1, ("2", "1"): 1}, {"0": "u", "1": "v"}, "2"),
            ({("2", "1"): 1}, {"0": "u", "2": "v"}, "1"),
            ({("0", "0"): 1}, {"2": "u"}, "0"),
        ],
    )
    def test_partial_mapping_rejected(self, table, mapping, missing):
        j = FiniteJoint((("X", ("0", "1", "2")), ("Y", BIN)), table)
        with pytest.raises(InputError) as raised:
            apply_map(j, DeterministicMap("X", "U", mapping))
        assert str(raised.value) == f"mapping for 'X' is not defined at {missing!r}"

    def test_target_domain_in_first_appearance_order(self):
        rng = random.Random(149)
        for _ in range(200):
            j = random_joint(rng, [("X", tuple(str(i) for i in range(rng.randint(1, 12))))])
            targets = [f"u{i}" for i in range(rng.randint(1, 12))]
            for h in (
                random_map(rng, "X", "U", j.domain("X")),
                DeterministicMap("X", "U", {x: rng.choice(targets) for x in j.domain("X")}),
            ):
                assert apply_map(j, h).domain("U") == oracle_target_domain(j, h)

    def test_injective_map_over_a_hundred_thousand_labels(self):
        # A list-membership test per label made this quadratic: 16,000
        # labels took 1.3 s.
        dom = tuple(f"x{i}" for i in range(100_000))
        j = FiniteJoint((("X", dom), ("Y", BIN)), {("x5", "0"): 1, ("x99999", "1"): 2})
        h = DeterministicMap("X", "U", {x: f"u{x}" for x in dom})
        start = time.perf_counter()
        extended = apply_map(j, h)
        assert time.perf_counter() - start < 1.0
        assert extended.domain("U") == tuple(f"u{x}" for x in dom)
        assert extended.table == {("x5", "0", "ux5"): 1, ("x99999", "1", "ux99999"): 2}


class TestCheckCIProperty:
    def test_property_1_symmetry_on_composed_instances(self):
        rng = random.Random(1)
        for _ in range(25):
            verdict = check_ci_property(1, random_ci_instance(rng))
            assert verdict.status == PASS

    def test_property_1_vacuous_on_dependent_joint(self):
        # X = Y while Z is an independent fair coin: the premise fails.
        table = {
            ("0", "0", "0"): 1, ("1", "1", "0"): 1,
            ("0", "0", "1"): 1, ("1", "1", "1"): 1,
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

    @pytest.mark.parametrize("check", [check_ci_property, ci_property_status])
    @pytest.mark.parametrize("premise_fits", [True, False])
    @pytest.mark.parametrize(
        "target, mapping, message",
        [
            ("Y", {"0": "0", "1": "1"}, "target variable 'Y' already present"),
            ("U", {"0": "0"}, "mapping for 'X' is not defined at '1'"),
        ],
    )
    def test_property_2_refuses_a_bad_map_whatever_the_premise(
        self, check, premise_fits, target, mapping, message
    ):
        # Uniform X, Y, Z fit the premise; X = Y given a fair coin Z does not.
        h = DeterministicMap(source="X", target=target, mapping=mapping)
        if premise_fits:
            j = uniform_joint(2, 2, 2)
        else:
            table = {(x, x, z): 1 for x in BIN for z in BIN}
            j = FiniteJoint(variables=(("X", BIN), ("Y", BIN), ("Z", BIN)), table=table)
        assert (ci_deviation(j, "X", "Y", "Z") == 0) == premise_fits
        with pytest.raises(InputError, match=re.escape(message)):
            check(2, j, h)

    @pytest.mark.parametrize("check", [check_ci_property, ci_property_status])
    @pytest.mark.parametrize("premise_fits", [True, False])
    def test_property_3_refuses_a_map_undefined_on_z(self, check, premise_fits):
        # Z's domain has a label "2" the table does not hold and h skips.
        # Y = h(Z) on every held cell fits the premise; Y = 0 throughout does not.
        h = DeterministicMap(source="Z", target="Y", mapping={"0": "0", "1": "1"})
        variables = (("X", BIN), ("Z", ("0", "1", "2")), ("Y", BIN))
        table = {(x, z, z if premise_fits else "0"): 1 for x in BIN for z in BIN}
        j = FiniteJoint(variables=variables, table=table)
        with pytest.raises(InputError, match=re.escape("mapping for 'Z' is not defined at '2'")):
            check(3, j, h)

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

    @pytest.mark.parametrize("copied", ["W", "Y"])
    def test_property_4_forward_needs_both_premises(self, copied):
        # X, Y, Z uniform and independent, with W or Y a copy of X: exactly
        # one forward premise is 0 and the third deviation is positive too,
        # so neither direction is derived.
        variables = tuple((name, BIN) for name in ("X", "Y", "Z", "W"))
        keys = itertools.product(BIN, repeat=3)
        copies = {"W": lambda x, y, z: (x, y, z, x), "Y": lambda x, y, z: (x, x, z, y)}
        j = FiniteJoint(variables, {copies[copied](*key): 1 for key in keys})
        verdict = check_ci_property(4, j)
        dev_a, dev_b, dev_c = verdict.premises.values()
        assert (dev_a == 0) != (dev_b == 0)
        assert dev_c > 0
        assert verdict == (VACUOUS, verdict.premises, {})

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
            ("0", "0", "0"): 6, ("1", "0", "0"): 6,
            ("0", "1", "0"): 3, ("1", "1", "0"): 3,
            ("0", "0", "1"): 1, ("1", "0", "1"): 1,
        }
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN), ("Z", BIN)), table=table)
        verdict = check_ci_property(5, j)
        assert verdict.status == VACUOUS
        assert verdict.premises["positivity_min_cell"] == 0

    def test_unknown_property_rejected(self):
        with pytest.raises(InputError, match="1..5"):
            check_ci_property(6, uniform_joint(2, 2, 2))

    def test_eps_bound_is_exact_at_the_boundary(self):
        # X = Y with an independent Z: both deviations are exactly 1/16, the
        # value of the float 0.0625; the next float below it fails the premise.
        j = FiniteJoint(
            variables=(("X", BIN), ("Y", BIN), ("Z", BIN)),
            table={("0", "0", "0"): 1, ("1", "1", "0"): 1, ("0", "0", "1"): 1, ("1", "1", "1"): 1},
        )
        assert ci_deviation(j, "X", "Y", "Z") == Fraction(1, 16)
        assert check_ci_property(1, j, eps=0.0625).status == PASS
        assert check_ci_property(1, j, eps=math.nextafter(0.0625, 0)).status == VACUOUS

    def test_infinite_eps_admits_every_deviation(self):
        table = {("0", "0", "0"): 1, ("1", "1", "0"): 1, ("0", "0", "1"): 1, ("1", "1", "1"): 1}
        j = FiniteJoint(variables=(("X", BIN), ("Y", BIN), ("Z", BIN)), table=table)
        chain = random_chain_instance(random.Random(7))
        # No premise exceeds inf and every conclusion lies within it.
        assert check_ci_property(1, j, eps=math.inf).status == PASS
        assert check_ci_property(4, chain, eps=math.inf).status == PASS

    @pytest.mark.parametrize("eps", [0.0, 0.05, math.inf, math.nan])
    def test_nothing_is_within_nan_and_everything_within_inf(self, eps):
        # Every premise and conclusion of these instances is exactly 0, so at
        # any eps but nan each property passes. Nothing is within a nan eps:
        # each property derives no conclusion and is vacuous.
        rng = random.Random(1)
        j = random_ci_instance(rng)
        functional, h3 = random_functional_instance(rng)
        instances = {
            1: (j, None),
            2: (j, random_map(rng, "X", "U", j.domain("X"))),
            3: (functional, h3),
            4: (random_chain_instance(rng), None),
            5: (random_product_instance(rng), None),
        }
        for k, (instance, h) in instances.items():
            exact = check_ci_property(k, instance, h, 0.0)
            verdict = check_ci_property(k, instance, h, eps)
            if math.isnan(eps):
                assert verdict == (VACUOUS, exact.premises, {}), k
            else:
                assert verdict == (PASS, exact.premises, exact.conclusions), k
        # Two equal groups: every measure's disparity is 0.
        g = GroupedConfusion({"p": ConfusionMatrix(3, 1, 2, 4), "q": ConfusionMatrix(3, 1, 2, 4)})
        holds = [measure(g, eps).holds for measure in (independence, sufficiency, separation)]
        assert holds == [not math.isnan(eps)] * 3
        for part, whole in ((0, 1), (1, 20), (1, 1), (3, 2)):
            assert type(within(part, whole, eps)) is bool


def binary_joint(names: str, weights: tuple[int, ...]) -> FiniteJoint:
    """The joint of binary variables ``names`` with ``weights`` on the keys in
    ``itertools.product(("0", "1"), repeat=len(names))`` order."""
    keys = itertools.product(BIN, repeat=len(names))
    return FiniteJoint([(name, BIN) for name in names], dict(zip(keys, weights)))


class TestApproximatePremises:
    """check-props builds instances whose premises hold exactly. Near
    independence is not enough: at eps 0.05 properties 4 and 5 fail on these
    joints, and at eps 0 each is vacuous, since its premises are not 0."""

    # Weights on (X, Y, Z, W) for property 4 and on (X, Y, Z) for property 5.
    FORWARD = binary_joint("XYZW", (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1))
    BACKWARD = binary_joint("XYZW", (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1))
    INTERSECTION = binary_joint("XYZ", (1, 1, 1, 2, 1, 2, 2, 1))

    def test_property_4_contraction_fails_forward(self):
        verdict = check_ci_property(4, self.FORWARD, eps=0.05)
        assert verdict.status == FAIL
        assert verdict.premises["x_indep_y_given_z"] == Fraction(1, 25)
        assert verdict.premises["x_indep_w_given_yz"] == Fraction(1, 25)
        assert verdict.conclusions == {"forward_x_indep_wy_given_z": Fraction(2, 25)}

    def test_property_4_decomposition_fails_backward_at_its_bound(self):
        verdict = check_ci_property(4, self.BACKWARD, eps=0.05)
        assert verdict.status == FAIL
        assert verdict.premises["x_indep_wy_given_z"] == Fraction(2, 49)
        assert verdict.conclusions == {
            "backward_x_indep_y_given_z": Fraction(4, 49),
            "backward_x_indep_w_given_yz": 0,
        }
        # Summing over W: dev(X, Y | Z) <= |W| dev(X, (W, Y) | Z), with equality here.
        size_w = len(self.BACKWARD.domain("W"))
        decomposed = ci_deviation(self.BACKWARD, "X", ("W", "Y"), "Z")
        assert ci_deviation(self.BACKWARD, "X", "Y", "Z") == size_w * decomposed

    def test_property_5_intersection_fails(self):
        verdict = check_ci_property(5, self.INTERSECTION, eps=0.05)
        assert verdict.status == FAIL
        assert verdict.premises == {
            "positivity_min_cell": Fraction(1, 11),
            "x_indep_y_given_z": Fraction(3, 121),
            "x_indep_z_given_y": Fraction(3, 121),
        }
        assert verdict.conclusions == {"x_indep_yz": Fraction(7, 121)}

    @pytest.mark.parametrize("witness", ["FORWARD", "BACKWARD", "INTERSECTION"])
    def test_vacuous_at_eps_zero(self, witness):
        j = getattr(self, witness)
        k = 5 if witness == "INTERSECTION" else 4
        assert check_ci_property(k, j, eps=0).status == VACUOUS
        assert ci_property_status(k, j, None, 0.05) == FAIL


class TestDefaults:
    def test_default_eps(self):
        assert EPS_DEFAULT == 1e-9
