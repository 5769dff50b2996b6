"""Finite discrete joint distributions and conditional-independence checks.

A :class:`FiniteJoint` is a sparse table of non-negative integer weights over
named variables with finite domains; a cell's probability mass is its weight
over the table's total, the joint's ``denominator``. Every mass and deviation
is therefore an exact :class:`~fractions.Fraction`. Independence and
conditional independence are decided through a division-free deviation

    dev(X, Y | Z) = max over z with P(z) > 0
                    of max over (x, y) of |P(x,y,z) * P(z) - P(x,z) * P(y,z)|

which agrees with the textbook definition P(X | Y, Z) = P(X | Z) on the
support of Z and is total: zero-mass conditioning cells are vacuously
satisfied instead of dividing by zero. It is homogeneous of degree 2 in the
weights, so it is computed on the integer weights and divided once by the
squared denominator. Each weight is added once, at slot l·|R| + r of its
given value's block, where l and r place its left and right values in their
domains L and R (a fused side's is its product grid); a block's row, column
and total sums are read off the block. The places and each side's reader of
a key are cached per layout (the variables and the three sides). On a layout
whose grid, the product of all the joint's domain sizes, has at most
``SLOT_TABLE_CELLS`` cells, the cache also holds the slot of every key of the
grid, with a block for every given value of the grid: a call then costs one
lookup per table cell plus the grid's sums. A larger layout keeps no key
table: its given values are numbered per call as they first appear, so a call
costs the table's cells plus ng·|L|·|R| for the ng given values the table
holds.

A joint is checked once, where it enters the library: the public constructor
checks its variables, keys and weights, while the joints derived from valid
parts (mapped, composed, generated and count joints) are built by
:meth:`FiniteJoint.from_valid`, which checks only the mass. The tests rebuild
each kind through the public constructor; :func:`compose_ci`, whose parts come
from its caller, checks them itself.

Every tolerance test is :func:`within`, which answers yes or no: ``part /
whole`` is within eps when it is at most eps's exact binary value, decided on
integers; an infinite eps admits every value, and nothing is within a nan eps.
It answers alike for a pair and its scaled multiples, so the five properties
are decided on the kernel's unreduced pairs: :func:`ci_property_status` reads
the status alone, and :func:`check_ci_property` reduces each to a Fraction.

All values are immutable named tuples (joints, maps and verdicts) and every
operation is a pure function, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError

#: Default tolerance for "exact" claims on rational inputs.
EPS_DEFAULT = 1e-9

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


def within(part: int, whole: int, eps: float) -> bool:
    """Whether ``part / whole`` (``whole > 0``) is within eps: an infinite eps
    admits everything, and nothing is within a nan eps."""
    if math.isfinite(eps):
        num, den = eps.as_integer_ratio()
        return part * den <= num * whole
    return eps > 0


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


def _index(variables: tuple[tuple[str, tuple[str, ...]], ...], name: str) -> int:
    for i, (known, _) in enumerate(variables):
        if known == name:
            return i
    raise InputError(f"unknown variable {name!r}; have {tuple(known for known, _ in variables)}")


class FiniteJoint(namedtuple("FiniteJoint", "variables table")):
    """Joint distribution over named variables with finite domains.

    ``variables`` fixes the key layout: each key of ``table`` assigns one
    domain label per variable, in declaration order. Assignments missing
    from ``table`` carry zero mass. Weights are non-negative integers, not
    all zero; a cell's mass is its weight over ``denominator``, the sum of
    the weights.
    """

    __slots__ = ()

    def __new__(
        cls, variables: Iterable[tuple[str, Iterable[str]]], table: Mapping[tuple[str, ...], int]
    ) -> FiniteJoint:
        variables = tuple((name, tuple(domain)) for name, domain in variables)
        table = dict(table)
        names = [name for name, _ in variables]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names: {names}")
        domains = tuple(frozenset(domain) for _, domain in variables)
        for (name, domain), labels in zip(variables, domains):
            if not domain:
                raise InputError(f"variable {name!r} has an empty domain")
            if len(labels) != len(domain):
                raise InputError(f"variable {name!r} repeats domain labels: {domain}")
        for key, w in table.items():
            shaped = type(key) is tuple and len(key) == len(variables)
            if not (shaped and all(map(frozenset.__contains__, domains, key))):
                raise InputError(f"assignment {key!r} does not match declared variables")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise InputError(f"weight at {key!r} must be a non-negative int, got {w!r}")
        return cls.from_valid(variables, table)

    @classmethod
    def from_valid(
        cls, variables: tuple[tuple[str, tuple[str, ...]], ...], table: dict[tuple[str, ...], int]
    ) -> FiniteJoint:
        """A joint on parts the caller made valid, kept as given: ``variables``
        are ``(name, domain)`` tuples with distinct names and nonempty domains
        that repeat no label, every key of ``table`` is a tuple in their grid
        and every weight is a non-negative int. Only the mass is checked."""
        if sum(table.values()) == 0:
            raise InputError("joint has no mass: every weight is 0")
        return super().__new__(cls, variables, table)

    @property
    def denominator(self) -> int:
        return sum(self.table.values())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def domain(self, name: str) -> tuple[str, ...]:
        return self.variables[self.index(name)][1]

    def index(self, name: str) -> int:
        return _index(self.variables, name)

    def min_cell(self) -> Fraction:
        """Smallest mass over the full assignment grid: 0 when the table, whose
        keys all lie in the grid, has fewer cells than the grid."""
        return Fraction(_min_weight(self), self.denominator)


def _min_weight(j: FiniteJoint) -> int:
    grid = math.prod(len(domain) for _, domain in j.variables)
    return min(j.table.values()) if len(j.table) == grid else 0


class DeterministicMap(namedtuple("DeterministicMap", "source target mapping")):
    """A total function between variable domains, used as the ``h`` of the
    functional conditional-independence properties (``U = h(X)``)."""

    __slots__ = ()

    def __new__(cls, source: str, target: str, mapping: Mapping[str, str]) -> DeterministicMap:
        if not mapping:
            raise InputError("mapping must be nonempty")
        if source == target:
            raise InputError("source and target must be distinct variable names")
        return super().__new__(cls, source, target, dict(mapping))

    def __call__(self, value: str) -> str:
        try:
            return self.mapping[value]
        except KeyError:
            raise InputError(
                f"mapping for {self.source!r} is not defined at {value!r}"
            ) from None


class PropertyVerdict(NamedTuple):
    """Outcome of checking one conditional-independence property, kept as given.

    ``status`` is ``"vacuous"`` when no conclusion's premises are within eps;
    then nothing is asserted and ``conclusions`` is empty.
    """

    status: str
    premises: Mapping[str, Fraction]
    conclusions: Mapping[str, Fraction]


# ---------------------------------------------------------------------------
# Derived joints
# ---------------------------------------------------------------------------


def apply_map(j: FiniteJoint, h: DeterministicMap) -> FiniteJoint:
    """Extend a joint with a new variable ``h.target`` defined as ``h`` of
    ``h.source``. The new variable is appended after the existing ones; its
    domain lists the mapped values in first-appearance order over the source
    domain."""
    if h.target in j.names:
        raise InputError(f"target variable {h.target!r} already present")
    target_dom = tuple(dict.fromkeys(map(h, j.domain(h.source))))
    src_idx, mapping = j.index(h.source), h.mapping  # h is defined on the whole domain
    table = {key + (mapping[key[src_idx]],): weight for key, weight in j.table.items()}
    return FiniteJoint.from_valid(j.variables + ((h.target, target_dom),), table)


def compose_ci(
    pz: Mapping[str, int],
    px_given_z: Mapping[str, Mapping[str, int]],
    py_given_z: Mapping[str, Mapping[str, int]],
) -> FiniteJoint:
    """Assemble the joint over (X, Y, Z) with integer weights
    w(x,y,z) = pz[z] * px_given_z[z][x] * py_given_z[z][y].

    ``px_given_z`` and ``py_given_z`` map each z-value to a nonempty row of
    non-negative integer weights over the x (resp. y) domain; rows need not
    share a total. All three inputs are checked here. The weight factorizes
    over z, so X ind. Y | Z holds exactly: the deviation is 0.
    """
    z_dom = tuple(pz)
    if not z_dom:
        raise InputError("pz must be nonempty")

    def check_weights(weights: Mapping[str, int], label: str) -> None:
        for p in weights.values():
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise InputError(f"each weight of {label} must be a non-negative int, got {p!r}")

    def check_rows(rows: Mapping[str, Mapping[str, int]], label: str) -> tuple[str, ...]:
        domain: tuple[str, ...] | None = None
        for z in z_dom:
            if z not in rows:
                raise InputError(f"{label} is missing a row for z={z!r}")
            row = rows[z]
            if domain is None:
                domain = tuple(row)
            elif set(row) != set(domain):
                raise InputError(f"{label} rows disagree on the domain")
            check_weights(row, f"{label} row for z={z!r}")
        assert domain is not None
        return domain

    check_weights(pz, "pz")
    x_dom = check_rows(px_given_z, "px_given_z")
    y_dom = check_rows(py_given_z, "py_given_z")
    for name, domain in (("X", x_dom), ("Y", y_dom)):
        if not domain:
            raise InputError(f"variable {name!r} has an empty domain")

    table = {
        (x, y, z): pz[z] * px_given_z[z][x] * py_given_z[z][y]
        for z in z_dom
        for x in x_dom
        for y in y_dom
    }
    return FiniteJoint.from_valid((("X", x_dom), ("Y", y_dom), ("Z", z_dom)), table)


# ---------------------------------------------------------------------------
# Independence checks
# ---------------------------------------------------------------------------


def _as_names(spec: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(spec, str):
        return (spec,)
    return tuple(spec)


#: Largest grid, the product of all of a joint's domain sizes, whose layout
#: keeps a table from every key of the grid to its slot. It covers every layout
#: check-props builds (the largest, property 2's joint over X, Y, Z and U, has
#: 3*3*3*2 = 54 cells) and audit's count joints of up to 16 groups, and with
#: 256 cached layouts the tables hold at most 16,384 keys. A larger layout keeps
#: none, so the kernel's memory follows the table, not the grid.
SLOT_TABLE_CELLS = 64


class _Plan(NamedTuple):
    """What a :func:`ci_deviation` call needs that depends only on the layout."""

    pick_l: operator.itemgetter  # reads a key's left value
    pick_r: operator.itemgetter  # reads a key's right value
    pick_g: operator.itemgetter | None  # reads a key's given value; None when nothing is given
    left_at: dict  # the block offset l * nr of each left value
    right_at: dict  # the place r of each right value
    slot_of: dict | None  # a small grid's slot of every key; None above SLOT_TABLE_CELLS
    cell_count: int  # a small grid's cells over all given values' blocks; 0 above it


@functools.lru_cache(maxsize=256)
def _plan(variables: tuple, *sides: str | Sequence[str]) -> _Plan:
    """The layout's :class:`_Plan`. On a grid of at most ``SLOT_TABLE_CELLS``
    cells, every value of the given grid gets a block, held or not, and every
    key of the grid its slot in it. A refused layout is never cached."""
    left, right, given = map(_as_names, sides)
    if not left or not right:
        raise InputError("left and right must each name at least one variable")
    all_names = left + right + given
    if len(set(all_names)) != len(all_names):
        raise InputError(f"variable groups must be pairwise disjoint: {all_names}")
    at = [[_index(variables, name) for name in names] for names in (left, right, given)]
    pick_l, pick_r, pick_g = [operator.itemgetter(*i) if i else None for i in at]
    left_grid, right_grid, given_grid = (
        d[0] if len(d) == 1 else itertools.product(*d)
        for d in ([variables[k][1] for k in i] for i in at)
    )
    right_at = dict(zip(right_grid, itertools.count()))
    left_at = dict(zip(left_grid, itertools.count(0, len(right_at))))
    domains = [domain for _, domain in variables]
    if math.prod(map(len, domains)) > SLOT_TABLE_CELLS:
        return _Plan(pick_l, pick_r, pick_g, left_at, right_at, None, 0)
    # An unheld given value keeps a block of zeros, which adds nothing.
    size = len(left_at) * len(right_at)
    given_at = dict(zip(given_grid, itertools.count(0, size)))
    grid = list(itertools.product(*domains))
    slots = map(
        operator.add,
        map(left_at.__getitem__, map(pick_l, grid)),
        map(right_at.__getitem__, map(pick_r, grid)),
    )
    if pick_g:
        slots = map(operator.add, map(given_at.__getitem__, map(pick_g, grid)), slots)
    return _Plan(
        pick_l, pick_r, pick_g, left_at, right_at, dict(zip(grid, slots)), len(given_at) * size
    )


def _ci_pair(j: FiniteJoint, *sides: str | tuple[str, ...]) -> tuple[int, int]:
    """:func:`ci_deviation` of the left, right and given ``sides``, each a name
    or a tuple of names, as its unreduced integer pair ``(worst, total**2)``."""
    plan = _plan(j.variables, *sides)
    pick_l, pick_r, pick_g, left_at, right_at, slot_of, cell_count = plan
    # Each cell is added once, at slot l * nr + r of its given value's block.
    nl, nr, keys = len(left_at), len(right_at), j.table
    size = nl * nr
    if slot_of is not None:  # a small grid: one lookup places a cell
        cells = [0] * cell_count
        for key, weight in keys.items():
            cells[slot_of[key]] += weight
    else:  # given values are numbered as they first occur: only those held get one
        slots, blocks = map(left_at.__getitem__, map(pick_l, keys)), 1
        if pick_g:
            given_keys = list(map(pick_g, keys))
            given_at = dict(zip(dict.fromkeys(given_keys), itertools.count(0, size)))
            slots = map(operator.add, map(given_at.__getitem__, given_keys), slots)
            blocks = len(given_at)
        cells = [0] * (blocks * size)
        right_slots = map(right_at.__getitem__, map(pick_r, keys))
        for slot, r, weight in zip(slots, right_slots, keys.values()):
            cells[slot + r] += weight

    # A block's column r is its nl cells from slot r by step nr, and the rows
    # of every block come in turn from one zip over the cells: nothing is copied.
    starts = range(0, len(cells), size)
    p_r = [sum(cells[at : b + size : nr]) for b in starts for at in range(b, b + nr)]
    worst, rows = 0, zip(*[iter(cells)] * nr)
    for cols in zip(*[iter(p_r)] * nr):  # each block's column sums
        p_g = sum(cols)
        for row in itertools.islice(rows, nl):
            p_l = sum(row)
            for w, pr in zip(row, cols):
                deviation = abs(w * p_g - p_l * pr)
                if deviation > worst:  # a given value without mass has all sums 0
                    worst = deviation
    return worst, sum(p_r) ** 2  # p_r holds each weight once: it sums to j.denominator


def ci_deviation(
    j: FiniteJoint,
    left: str | Sequence[str],
    right: str | Sequence[str],
    given: str | Sequence[str] = (),
) -> Fraction:
    """Division-free conditional-independence deviation of ``left`` from
    ``right`` given ``given``: the kernel's integer pair, reduced. Either side
    may be a set of variables, like one variable over their product domain."""
    return Fraction(*_ci_pair(j, *map(_as_names, (left, right, given))))


# ---------------------------------------------------------------------------
# The five conditional-independence properties
# ---------------------------------------------------------------------------


def _ci_property(
    k: int, j: FiniteJoint, h: DeterministicMap | None, eps: float
) -> tuple[str, dict[str, tuple[int, int]], dict[str, tuple[int, int]]]:
    """Status, premises and conclusions of property ``k``, each value an
    unreduced integer pair ``(part, whole)`` with ``whole > 0``. ``within``
    answers the same for a pair as for its reduced fraction."""

    def fits(pair: tuple[int, int]) -> bool:
        return within(*pair, eps)

    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= 5:
        raise InputError(f"property id must be 1..5, got {k!r}")
    conclusions: dict[str, tuple[int, int]] = {}
    if k == 1:
        premise = _ci_pair(j, "X", "Y", "Z")
        premises = {"x_indep_y_given_z": premise}
        if fits(premise):
            conclusions = {"y_indep_x_given_z": _ci_pair(j, "Y", "X", "Z")}
    elif k == 2:
        if h is None or h.source != "X":
            raise InputError("property 2 needs a DeterministicMap from X")
        extended = apply_map(j, h)  # refuses a bad map whether or not the premise fits
        premise = _ci_pair(j, "X", "Y", "Z")
        premises = {"x_indep_y_given_z": premise}
        if fits(premise):
            u = h.target
            conclusions = {
                f"{u.lower()}_indep_y_given_z": _ci_pair(extended, u, "Y", "Z"),
                f"x_indep_y_given_z{u.lower()}": _ci_pair(extended, "X", "Y", ("Z", u)),
            }
    elif k == 3:
        if h is None or h.source != "Z" or h.target != "Y":
            raise InputError("property 3 needs a DeterministicMap from Z onto Y")
        # Total mass where Y != h(Z); h must be defined on Z's whole domain.
        image = {z: h(z) for z in j.domain("Z")}
        src, tgt = j.index("Z"), j.index("Y")
        weight = sum(w for key, w in j.table.items() if key[tgt] != image[key[src]])
        premise = (weight, j.denominator)
        premises = {"y_equals_h_of_z_violation_mass": premise}
        if fits(premise):
            conclusions = {"x_indep_y_given_z": _ci_pair(j, "X", "Y", "Z")}
    elif k == 4:
        dev_a = _ci_pair(j, "X", "Y", "Z")
        dev_b = _ci_pair(j, "X", "W", ("Y", "Z"))
        dev_c = _ci_pair(j, "X", ("W", "Y"), "Z")
        premises = {
            "x_indep_y_given_z": dev_a,
            "x_indep_w_given_yz": dev_b,
            "x_indep_wy_given_z": dev_c,
        }
        if fits(dev_a) and fits(dev_b):
            conclusions["forward_x_indep_wy_given_z"] = dev_c
        if fits(dev_c):
            conclusions["backward_x_indep_y_given_z"] = dev_a
            conclusions["backward_x_indep_w_given_yz"] = dev_b
    else:  # k == 5
        min_cell = (_min_weight(j), j.denominator)
        dev_xy = _ci_pair(j, "X", "Y", "Z")
        dev_xz = _ci_pair(j, "X", "Z", "Y")
        premises = {
            "positivity_min_cell": min_cell,
            "x_indep_y_given_z": dev_xy,
            "x_indep_z_given_y": dev_xz,
        }
        if min_cell[0] > 0 and fits(dev_xy) and fits(dev_xz):
            conclusions = {"x_indep_yz": _ci_pair(j, "X", ("Y", "Z"), ())}

    if not conclusions:
        return VACUOUS, premises, {}
    return (PASS if all(map(fits, conclusions.values())) else FAIL), premises, conclusions


def ci_property_status(
    k: int, j: FiniteJoint, h: DeterministicMap | None = None, eps: float = EPS_DEFAULT
) -> str:
    """The status alone of :func:`check_ci_property`'s verdict, decided on
    the same integers without building a ``Fraction``."""
    return _ci_property(k, j, h, eps)[0]


def check_ci_property(
    k: int, j: FiniteJoint, h: DeterministicMap | None = None, eps: float = EPS_DEFAULT
) -> PropertyVerdict:
    """Numerically verify one of the five conditional-independence properties
    on a concrete instance.

    The instance uses canonical variable names: X, Y, Z (properties 1, 2, 3,
    5) plus W (property 4). Property 2 additionally needs ``h`` mapping X to a
    fresh variable; property 3 needs ``h`` mapping Z onto Y. Either map must
    be defined on its source's whole domain, which is checked first.

    1. X ind. Y | Z  implies  Y ind. X | Z.
    2. X ind. Y | Z and U = h(X)  imply  (i) U ind. Y | Z and
       (ii) X ind. Y | (Z, U).
    3. Y = h(Z)  implies  X ind. Y | Z.
    4. X ind. Y | Z and X ind. W | (Y, Z)  iff  X ind. (W, Y) | Z: the forward
       direction rests on the first two deviations, the backward on the third.
    5. X ind. Y | Z, X ind. Z | Y and full positivity  imply  X ind. (Y, Z).

    A conclusion is derived only when its own premises are within ``eps``
    (property 5's also need a positive ``min_cell``). A verdict that derives
    none is vacuous: it asserts nothing and is distinct from a failure.
    Every premise and conclusion is decided on the kernel's unreduced integer
    pair, and the verdict reports each as that pair's reduced ``Fraction``.
    """
    status, *values = _ci_property(k, j, h, eps)
    fractions = ({name: Fraction(*pair) for name, pair in pairs.items()} for pairs in values)
    return PropertyVerdict(status, *fractions)
