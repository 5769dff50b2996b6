"""Differential and exactness tests for the conditional-independence kernel.

``oracle_ci_deviation`` is ``ci_deviation`` as it was before it summed the
table once: four independent passes over the table, one per aggregate. It is
kept verbatim as the reference (with ``Fraction`` for the division), and the
single-pass kernel must give the identical ``Fraction`` on every input.

The generators build integer weights, so every instance that is conditionally
independent by construction has deviation exactly 0, and every functional
instance has violation mass exactly 0.

Every joint the library derives on these draws (generated, composed, mapped
and count joints) must also equal the public constructor's joint on its parts
(``assert_revalidates``), and ``min_cell`` must match the grid walk.

The kernel caches the readers and positions of each layout (the joint's
variables and the three sides), so joints that share variables, fused sides
and givens on one layout, and refused layouts are checked on repeated calls.
A joint's variables are checked once, by the public constructor: refused
variables raise on every call, every key is checked against them, and no
derived joint (generated, count, mapped or composed) goes through that check
again at run time.

``oracle_single_pass_deviation`` is the kernel as it was before it added each
cell once: one pass that added each weight into four flat lists of sums. On
the count joint of 1,000 positive groups, with 1,000 values on the left or
given, the kernel must equal it and allocate at most 1.25 times its peak, so
the kernel keeps no key table above ``SLOT_TABLE_CELLS``, 64 grid cells (this
grid has 4,000). A kernel with a per-layout key -> slot memo at every size
allocates 2.1 and 3.3 times the oracle's peak here. At or below 64 cells the
layout holds every grid key's slot: ``TestSmallLayoutKeyTable`` checks both
sides of the bound and the tables a check-props run leaves cached.
"""

import contextlib
import functools
import gc
import io
import itertools
import math
import operator
import random
import re
import time
import tracemalloc
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st
from joint_oracle import assert_revalidates, oracle_min_cell

from fairaudit import cli, distributions
from fairaudit.confusion import GroupedConfusion, to_joint
from fairaudit.distributions import (
    FiniteJoint,
    _index,
    apply_map,
    check_ci_property,
    ci_deviation,
    compose_ci,
)
from fairaudit.errors import InputError
from fairaudit.generators import (
    random_chain_instance,
    random_ci_instance,
    random_functional_instance,
    random_joint,
    random_map,
    random_nonproportional_grouped,
    random_pair_ci_instance,
    random_perfect_grouped,
    random_positive_grouped,
    random_product_instance,
    random_proportional_grouped,
)


def _oracle_aggregate(j: FiniteJoint, names: tuple[str, ...]) -> dict[tuple[str, ...], int]:
    indices = [j.index(name) for name in names]
    out: dict[tuple[str, ...], int] = {}
    for key, prob in j.table.items():
        sub = tuple([key[i] for i in indices])
        if sub in out:
            out[sub] = out[sub] + prob
        else:
            out[sub] = prob
    return out


def _as_names(spec: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(spec, str):
        return (spec,)
    return tuple(spec)


def oracle_ci_deviation(
    j: FiniteJoint,
    left: str | Sequence[str],
    right: str | Sequence[str],
    given: str | Sequence[str] = (),
) -> Fraction:
    left_names = _as_names(left)
    right_names = _as_names(right)
    given_names = _as_names(given)
    if not left_names or not right_names:
        raise InputError("left and right must each name at least one variable")
    all_names = left_names + right_names + given_names
    if len(set(all_names)) != len(all_names):
        raise InputError(f"variable groups must be pairwise disjoint: {all_names}")
    for name in all_names:
        j.index(name)

    p_lrg = _oracle_aggregate(j, left_names + right_names + given_names)
    p_lg = _oracle_aggregate(j, left_names + given_names)
    p_rg = _oracle_aggregate(j, right_names + given_names)
    p_g = _oracle_aggregate(j, given_names)

    left_grid = list(itertools.product(*(j.domain(n) for n in left_names)))
    right_grid = list(itertools.product(*(j.domain(n) for n in right_names)))

    worst = max(
        abs(p_lrg.get(lv + rv + gv, 0) * pg - p_lg.get(lv + gv, 0) * p_rg.get(rv + gv, 0))
        for gv, pg in p_g.items()
        if pg > 0  # zero-mass conditioning cells are vacuously satisfied
        for lv in left_grid
        for rv in right_grid
    )
    return Fraction(worst, j.denominator**2)


def splits(names):
    """Every (left, right, given) of disjoint subsets of ``names`` in order,
    with left and right nonempty; unused variables are marginalized out."""
    for roles in itertools.product("LRG-", repeat=len(names)):
        side = {role: tuple(n for n, r in zip(names, roles) if r == role) for role in "LRG"}
        if side["L"] and side["R"]:
            yield side["L"], side["R"], side["G"]


def assert_matches_oracle(j: FiniteJoint) -> None:
    assert_revalidates(j)
    assert j.min_cell() == oracle_min_cell(j)
    for left, right, given_names in splits(j.names):
        deviation = ci_deviation(j, left, right, given_names)
        assert isinstance(deviation, Fraction)
        assert deviation == oracle_ci_deviation(j, left, right, given_names)


class TestSingleAggregateMatchesOracle:
    def test_seeded_integer_joints(self):
        rng = random.Random(101)
        for _ in range(60):
            count = rng.randint(2, 4)
            variables = [
                (name, tuple(str(v) for v in range(rng.randint(1, 3))))
                for name in ("X", "Y", "Z", "W")[:count]
            ]
            assert_matches_oracle(random_joint(rng, variables))

    def test_every_suite_generator(self):
        rng = random.Random(103)
        for _ in range(20):
            ci = random_ci_instance(rng)
            functional, _ = random_functional_instance(rng)
            mapped = apply_map(ci, random_map(rng, "X", "U", ci.domain("X")))
            for j in (
                ci,
                mapped,
                functional,
                random_chain_instance(rng),
                random_pair_ci_instance(rng),
                random_product_instance(rng),
            ):
                assert_matches_oracle(j)
            for generate in (
                random_perfect_grouped,
                random_positive_grouped,
                random_proportional_grouped,
                random_nonproportional_grouped,
            ):
                assert_matches_oracle(to_joint(generate(rng)))


@st.composite
def joints_with_sides(draw):
    """A joint over 2-4 variables with zero cells, and consecutive runs of a
    reordering of its variables as left, right and a possibly empty given."""
    names = ("X", "Y", "Z", "W")[: draw(st.integers(2, 4))]
    variables = tuple(
        (name, tuple(str(v) for v in range(draw(st.integers(1, 3))))) for name in names
    )
    keys = list(itertools.product(*(dom for _, dom in variables)))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(keys), max_size=len(keys)))
    if not any(weights):
        weights[0] = 1
    order = draw(st.permutations(names))
    a = draw(st.integers(1, len(names) - 1))
    b = draw(st.integers(a + 1, len(names)))
    c = draw(st.integers(b, len(names)))
    joint = FiniteJoint(variables=variables, table=dict(zip(keys, weights)))
    return joint, tuple(order[:a]), tuple(order[a:b]), tuple(order[b:c])


@given(joints_with_sides())
def test_hypothesis_joints_match_the_oracle(case):
    j, left, right, given_names = case
    assert ci_deviation(j, left, right, given_names) == oracle_ci_deviation(
        j, left, right, given_names
    )


class TestKernelEdgeCases:
    def test_sparse_given_with_a_hundred_thousand_labels(self):
        # 12 cells over a given variable of 10^5 labels: the kernel sizes its
        # work by the cells, not by the given domain.
        z_dom = tuple(f"z{i}" for i in range(100_000))
        weights = iter(range(1, 13))
        table = {
            (x, y, z): next(weights) for z in ("z7", "z500", "z99999") for x in "01" for y in "01"
        }
        j = FiniteJoint(variables=(("X", ("0", "1")), ("Y", ("0", "1")), ("Z", z_dom)), table=table)
        for left, right, given_names in splits(("X", "Y", "Z")):
            if "Z" not in left + right:
                deviation = ci_deviation(j, left, right, given_names)
                assert deviation == oracle_ci_deviation(j, left, right, given_names)
        start = time.perf_counter()
        for _ in range(200):
            ci_deviation(j, "X", "Y", "Z")
            ci_deviation(j, "X", ("Y",), ("Z",))
        assert time.perf_counter() - start < 1.0

    def test_given_values_present_only_with_weight_zero(self):
        variables = (("X", ("0", "1")), ("Y", ("0", "1")), ("Z", ("0", "1", "2")))
        table = {key: 0 for key in itertools.product("01", "01", "012")}
        table.update({("0", "0", "0"): 3, ("1", "1", "0"): 1, ("0", "1", "1"): 2})
        j = FiniteJoint(variables=variables, table=table)
        assert_matches_oracle(j)
        assert ci_deviation(j, "X", "Y", "Z") == Fraction(3, 36)

    def test_one_label_domains(self):
        rng = random.Random(137)
        for sizes in ((1, 1), (1, 1, 1), (1, 3, 2), (2, 1, 3, 1)):
            names = ("X", "Y", "Z", "W")[: len(sizes)]
            domains = [tuple(str(v) for v in range(size)) for size in sizes]
            j = random_joint(rng, list(zip(names, domains)))
            assert_matches_oracle(j)
            constant = {name for name, size in zip(names, sizes) if size == 1}
            for left, right, given_names in splits(names):
                if set(left) <= constant or set(right) <= constant:
                    assert ci_deviation(j, left, right, given_names) == 0


class TestConstructionsAreExact:
    DRAWS = 200

    def test_ci_instances(self):
        rng = random.Random(107)
        for _ in range(self.DRAWS):
            j = random_ci_instance(rng)
            assert_revalidates(j)
            assert ci_deviation(j, "X", "Y", "Z") == 0

    def test_chain_instances(self):
        rng = random.Random(109)
        for _ in range(self.DRAWS):
            j = random_chain_instance(rng)
            assert_revalidates(j)
            assert ci_deviation(j, "X", "Y", "Z") == 0
            assert ci_deviation(j, "X", "W", ("Y", "Z")) == 0

    def test_pair_ci_instances(self):
        rng = random.Random(113)
        for _ in range(self.DRAWS):
            j = random_pair_ci_instance(rng)
            assert_revalidates(j)
            assert ci_deviation(j, "X", ("W", "Y"), "Z") == 0

    def test_product_instances(self):
        rng = random.Random(127)
        for _ in range(self.DRAWS):
            j = random_product_instance(rng)
            assert_revalidates(j)
            assert j.min_cell() == oracle_min_cell(j)
            assert ci_deviation(j, "X", ("Y", "Z")) == 0

    def test_functional_instances(self):
        rng = random.Random(131)
        for _ in range(self.DRAWS):
            j, h = random_functional_instance(rng)
            assert_revalidates(j)
            verdict = check_ci_property(3, j, h)
            assert verdict.premises == {"y_equals_h_of_z_violation_mass": 0}


class TestLayoutPlanCache:
    """``ci_deviation`` caches what depends only on the joint's variables and
    the three sides; the table is read afresh on every call."""

    VARIABLES = (("X", ("0", "1")), ("Y", ("a", "b", "c")), ("Z", ("0", "1")), ("W", ("p", "q")))

    def test_joints_sharing_variables_each_match_the_oracle(self):
        keys = list(itertools.product(*(domain for _, domain in self.VARIABLES)))
        dense = FiniteJoint(self.VARIABLES, {key: 1 + i % 5 for i, key in enumerate(keys)})
        sparse = FiniteJoint(self.VARIABLES, {key: 2 + i for i, key in enumerate(keys[::5])})
        for _ in range(2):
            for j in (dense, sparse):
                assert_matches_oracle(j)

    def test_fused_side_and_fused_given_on_one_layout(self):
        rng = random.Random(139)
        variables = self.VARIABLES + (("U", ("0", "1", "2")),)
        for _ in range(3):
            j = random_joint(rng, variables)
            for left, right, given_names in (
                (("X", "W"), "Y", ("Z", "U")),
                ("X", ("Y", "U"), ("W", "Z")),
                (("U", "X"), ("W", "Y"), ()),
            ):
                deviation = ci_deviation(j, left, right, given_names)
                assert deviation == oracle_ci_deviation(j, left, right, given_names)

    def test_list_sides_match_tuple_sides(self):
        j = random_joint(random.Random(149), self.VARIABLES)
        for left, right, given_names in splits(j.names):
            expected = ci_deviation(j, left, right, given_names)
            assert ci_deviation(j, list(left), list(right), list(given_names)) == expected

    @pytest.mark.parametrize(
        "left, right, given_names, message",
        [
            ((), "Y", "Z", "left and right must each name at least one variable"),
            ("X", (), "Z", "left and right must each name at least one variable"),
            (
                "X",
                "Y",
                ("Z", "X"),
                "variable groups must be pairwise disjoint: ('X', 'Y', 'Z', 'X')",
            ),
            ("X", "V", "Z", "unknown variable 'V'; have ('X', 'Y', 'Z', 'W')"),
            (("X", "W"), "Y", ("Z", "V"), "unknown variable 'V'; have ('X', 'Y', 'Z', 'W')"),
        ],
    )
    def test_refused_layouts_raise_on_every_call(self, left, right, given_names, message):
        j = random_joint(random.Random(151), self.VARIABLES)
        for _ in range(2):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                ci_deviation(j, left, right, given_names)


def _variables(sizes: Sequence[int]) -> tuple:
    """Variables X, Y, Z, W, U in that order, with domains of ``sizes``."""
    return tuple(
        (name, tuple(str(v) for v in range(size))) for name, size in zip("XYZWU", sizes)
    )


class TestSmallLayoutKeyTable:
    """A layout whose grid, the product of all the joint's domain sizes, has at
    most ``SLOT_TABLE_CELLS`` cells keeps the slot of every key of the grid and
    places a cell with one lookup; a larger one keeps no key table. Both paths
    must match the oracle."""

    SMALL = ((4, 4, 4), (2, 2, 2, 8), (1, 4, 4, 4))  # 64 cells each
    LARGE = ((3, 3, 8), (2, 2, 2, 9), (1, 3, 3, 8))  # 72 cells each

    def test_a_64_cell_layout_holds_a_table_of_64_keys(self):
        plan = distributions._plan(_variables((4, 4, 4)), "X", "Y", "Z")
        assert len(plan.slot_of) == 64
        assert sorted(plan.slot_of.values()) == list(range(64)) == list(range(plan.cell_count))

    def test_a_72_cell_layout_holds_none(self):
        plan = distributions._plan(_variables((3, 3, 8)), "X", "Y", "Z")
        assert (plan.slot_of, plan.cell_count) == (None, 0)

    @staticmethod
    def _table(kind: str, variables: tuple, rng: random.Random) -> dict:
        keys = list(itertools.product(*(domain for _, domain in variables)))
        if kind == "dense":
            return {key: rng.randint(1, 9) for key in keys}
        if kind == "sparse":  # most keys missing
            return {key: rng.randint(1, 9) for key in rng.sample(keys, len(keys) // 5)}
        # The last variable's last value is held only with weight 0.
        last = variables[-1][1][-1]
        return {key: 0 if key[-1] == last else rng.randint(0, 9) for key in keys}

    @pytest.mark.parametrize("sizes", SMALL + LARGE, ids=lambda sizes: "x".join(map(str, sizes)))
    @pytest.mark.parametrize("kind", ["dense", "sparse", "zero-weight-given"])
    def test_both_sides_of_the_bound_match_the_oracle(self, sizes, kind):
        variables = _variables(sizes)
        j = FiniteJoint(variables, self._table(kind, variables, random.Random(163)))
        assert_matches_oracle(j)
        small = math.prod(sizes) <= distributions.SLOT_TABLE_CELLS
        for sides in splits(j.names):
            assert (distributions._plan(j.variables, *sides).slot_of is not None) == small

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2, 4), (2, 2, 2, 3, 3)], ids=["64", "72"])
    def test_fused_sides_with_a_fused_given(self, sizes):
        rng = random.Random(167)
        for kind in ("dense", "sparse", "zero-weight-given"):
            j = FiniteJoint(_variables(sizes), self._table(kind, _variables(sizes), rng))
            for left, right, given_names in (
                (("X", "W"), "Y", ("Z", "U")),
                ("X", ("Y", "U"), ("W", "Z")),
                (("U", "X"), ("W", "Y"), ()),
            ):
                deviation = ci_deviation(j, left, right, given_names)
                assert deviation == oracle_ci_deviation(j, left, right, given_names)

    def test_check_props_keeps_at_most_256_tables_of_64_keys(self):
        distributions._plan.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check-props", "--count", "300"]) == 0
        # The C lru_cache reports each cached result as a referent.
        held = gc.get_referents(distributions._plan)
        plans = [plan for plan in held if isinstance(plan, distributions._Plan)]
        assert len(plans) == distributions._plan.cache_info().currsize > 0
        assert all(plan.slot_of is not None for plan in plans)
        assert sum(map(len, (plan.slot_of for plan in plans))) <= 256 * 64


class TestVariableCheck:
    """``FiniteJoint`` checks the variables of each joint it is given and every
    key against them; the joints the library derives skip that check."""

    @pytest.mark.parametrize(
        "variables, message",
        [
            ((("X", ("0",)), ("X", ("1",))), "duplicate variable names: ['X', 'X']"),
            ((("X", ("0",)), ("Y", ())), "variable 'Y' has an empty domain"),
            ((("X", ("0", "1", "0")),), "variable 'X' repeats domain labels: ('0', '1', '0')"),
        ],
        ids=["duplicate-name", "empty-domain", "repeated-label"],
    )
    def test_refused_variables_raise_on_every_call(self, variables, message):
        key = tuple(domain[0] if domain else "0" for _, domain in variables)
        for _ in range(2):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                FiniteJoint(variables, {key: 1})

    def test_derived_joints_skip_the_variable_check(self, monkeypatch):
        # from_valid keeps what it is given: refused variables pass unchecked.
        variables = (("X", ("0", "0")), ("X", ()))
        assert FiniteJoint.from_valid(variables, {("0", "0"): 1}).variables == variables

        # No derived path reaches the public constructor, which checks them.
        def refused(cls, *args, **kwargs):
            raise AssertionError("a derived joint ran the variable check")

        monkeypatch.setattr(FiniteJoint, "__new__", refused)
        rng = random.Random(139)
        for _ in range(20):
            ci = random_ci_instance(rng)
            apply_map(ci, random_map(rng, "X", "U", ci.domain("X")))
            random_functional_instance(rng)
            for build in (random_chain_instance, random_pair_ci_instance, random_product_instance):
                build(rng)
            random_joint(rng, [("X", ("0", "1")), ("Y", ("0",))])
            for generate in (
                random_perfect_grouped,
                random_positive_grouped,
                random_proportional_grouped,
                random_nonproportional_grouped,
            ):
                to_joint(generate(rng))
        rows = {"0": {"a": 1, "b": 2}, "1": {"a": 3, "b": 0}}
        compose_ci({"0": 1, "1": 2}, rows, rows)
        with pytest.raises(AssertionError, match="ran the variable check"):
            FiniteJoint((("X", ("0",)),), {("0",): 1})

    def test_a_checked_layout_still_refuses_a_key_outside_it(self):
        variables = (("X", ("0", "1")), ("Y", ("a", "b")))
        FiniteJoint(variables, {("0", "a"): 1})  # the same variables, checked before
        for key in (("2", "a"), ("0", "c"), ("a", "0"), ("0",), ("0", "a", "a"), "0a"):
            message = f"assignment {key!r} does not match declared variables"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                FiniteJoint(variables, {("0", "a"): 1, key: 1})


# ---------------------------------------------------------------------------
# The kernel before each cell was added once, and the guard against a memo
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _oracle_plan(variables: tuple, left: tuple, right: tuple, given: tuple) -> tuple:
    at = [[_index(variables, name) for name in names] for names in (left, right, given)]
    pick = [operator.itemgetter(*i) if i else None for i in at]
    domains = [[variables[k][1] for k in i] for i in at[:2]]
    grids = [d[0] if len(d) == 1 else itertools.product(*d) for d in domains]
    return (*pick, *(dict(zip(grid, itertools.count())) for grid in grids))


def oracle_single_pass_deviation(
    j: FiniteJoint,
    left: str | Sequence[str],
    right: str | Sequence[str],
    given: str | Sequence[str] = (),
) -> Fraction:
    plan = _oracle_plan(j.variables, *map(_as_names, (left, right, given)))
    pick_l, pick_r, pick_g, left_at, right_at = plan
    nl, nr, keys = len(left_at), len(right_at), j.table
    given_keys = list(map(pick_g, keys)) if pick_g else [()] * len(keys)
    given_at = dict(zip(dict.fromkeys(given_keys), itertools.count()))
    ng = len(given_at)
    p_lrg, p_lg, p_rg, p_g = [0] * (ng * nl * nr), [0] * (ng * nl), [0] * (ng * nr), [0] * ng
    for g, l, r, weight in zip(
        map(given_at.__getitem__, given_keys),
        map(left_at.__getitem__, map(pick_l, keys)),
        map(right_at.__getitem__, map(pick_r, keys)),
        keys.values(),
    ):
        gl = g * nl + l
        p_lrg[gl * nr + r] += weight
        p_lg[gl] += weight
        p_rg[g * nr + r] += weight
        p_g[g] += weight

    worst = 0
    for gl, pl in enumerate(p_lg):
        g = gl // nl
        pg = p_g[g]
        for w, pr in zip(p_lrg[gl * nr : gl * nr + nr], p_rg[g * nr : g * nr + nr]):
            deviation = abs(w * pg - pl * pr)
            if deviation > worst:
                worst = deviation
    return Fraction(worst, sum(p_g) ** 2)


def _cold_peak(kernel, clear, j: FiniteJoint, sides: tuple) -> tuple[Fraction, int]:
    """The kernel's result and the peak bytes it allocated, its layout plan included."""
    clear()
    gc.collect()
    tracemalloc.start()
    try:
        result = kernel(j, *sides)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelGuard:
    GROUPS = 1_000
    PEAK_RATIO = 1.25

    @pytest.fixture(scope="class")
    def joint(self):
        rng = random.Random(157)
        tally = {f"g{i}": [rng.randint(1, 30) for _ in range(4)] for i in range(self.GROUPS)}
        return to_joint(GroupedConfusion.from_valid(tally))

    @pytest.mark.parametrize(
        "sides", [("A", ("Y", "R")), ("Y", "R", "A")], ids=["groups-left", "groups-given"]
    )
    def test_large_count_joint_matches_the_oracle_within_its_memory(self, joint, sides):
        expected, oracle_peak = _cold_peak(
            oracle_single_pass_deviation, _oracle_plan.cache_clear, joint, sides
        )
        deviation, peak = _cold_peak(ci_deviation, distributions._plan.cache_clear, joint, sides)
        assert deviation == expected
        assert expected > 0
        assert peak <= self.PEAK_RATIO * oracle_peak, (peak, oracle_peak)
