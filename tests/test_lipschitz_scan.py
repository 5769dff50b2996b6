"""The Lipschitz scan and its JSON against the code they replaced.

The scan oracle below is an earlier ``LipschitzViolation``,
``LipschitzReport`` and ``lipschitz_violations``, kept verbatim apart from
their names: it visited every pair of scored records, stored each
violation's prediction distance and margin, and sorted the violation
objects. The scan now pairs only predicted-positive with predicted-negative
records and returns plain ``(id_a, id_b, individual_distance)`` rows, so both
must list the same pairs and distances in the same order and skip the same
records.

The JSON oracle is the payload builder ``attack swap`` used before
``report.render`` wrote the rows itself: one dict per violation, dumped with
``json.dumps(sort_keys=True, indent=2)``. ``render`` must give the same bytes.
The payload's matrices come from the matrix builders ``report`` had before
``report.jsonable``, kept here so the oracle does not share code with
``render``'s callers.

The swap oracle is the earlier ``Record``, ``Dataset`` and ``swap_attack``
from ``dataset_oracle``: the old types validated every record when built,
and the old attack copied and revalidated them all. On the same draws, each
group is attacked by both, and they must agree on the outcome: the swapped
pair, its score gap, the matrices before and after, and the violation rows
of the attacked dataset, or the same error. Each draw is also spoiled in one
of the ways the old types rejected, and ``Dataset.from_records`` must reject
it with the same message.

All run on seeded and hypothesis-generated datasets with tied scores, pairs
exactly ``scale`` apart, tiny scales, distinct tiny distances whose margins
round to 1.0, unscored records, a single prediction value, ids that JSON
must escape, and groups named like JSON keys and like the text ``render``
once searched its output for.

The scan bisects each positive's run of violating negatives, and the writer
formats each distinct id and distance once. The edge cases at the end aim
at both: equal distances on either side of a positive, signed zeros, all
negatives on one side, subnormal scales, rows sharing ids and distances,
and no run at all. Each positive's bisections run inside the window of
scores within ``2 * scale`` of it: one test finds no predicate call when no
window holds a negative (a scan of every pair makes P x N), one bounds the
calls by the window's size, and one puts ``2 * scale`` below the ulp of
tied scores, so that the window is the scores equal to the positive's.
Continuous scores, where nearly every distance is distinct, go through the
oracle too, and one test bounds ``render``'s peak memory on them by a
multiple of its output, and what it leaves allocated on return by the
output alone.
"""

from __future__ import annotations

import gc
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from numbers import Real
from typing import Any, Callable

import pytest
from dataset_oracle import OracleDataset, OracleRecord, oracle_swap_attack
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import adversary
from fairaudit.adversary import Violations, lipschitz_violations, swap_attack
from fairaudit.confusion import ConfusionMatrix, Dataset, GroupedConfusion, Record, tabulate
from fairaudit.errors import AuditError, InputError
from fairaudit.report import TAIL_MEMO, header, render

# ---------------------------------------------------------------------------
# Oracle: the previous scan, verbatim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleViolation:
    """A pair whose prediction distance exceeds its individual distance."""

    id_a: str
    id_b: str
    individual_distance: float
    prediction_distance: float
    margin: float

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise InputError("a violation requires margin > 0")


@dataclass(frozen=True)
class OracleReport:
    violations: tuple[OracleViolation, ...]
    skipped: tuple[str, ...]


def oracle_lipschitz_violations(ds: Dataset, scale: float = 1.0) -> OracleReport:
    """Find all pairs violating D(prediction) <= d(individuals).

    d(x, y) is the absolute score difference divided by ``scale``, a finite
    number > 0 (NaN would flag no pair, inf every pair); D is the
    discrete metric on binary predictions (0 when equal, 1 otherwise).
    Records without scores are skipped and reported. Violations are sorted by
    descending margin, then by id pair.
    """
    if not (isinstance(scale, Real) and math.isfinite(scale) and scale > 0):
        raise InputError(f"scale must be a finite number > 0, got {scale!r}")
    scored = sorted(
        (rec for rec in ds.records if rec.score is not None), key=lambda rec: rec.id
    )
    skipped = tuple(sorted(rec.id for rec in ds.records if rec.score is None))
    violations: list[OracleViolation] = []
    for i, first in enumerate(scored):
        for second in scored[i + 1 :]:
            prediction_distance = 0.0 if first.r == second.r else 1.0
            individual_distance = abs(float(first.score) - float(second.score)) / scale
            if prediction_distance > individual_distance:
                violations.append(
                    OracleViolation(
                        id_a=first.id,
                        id_b=second.id,
                        individual_distance=individual_distance,
                        prediction_distance=prediction_distance,
                        margin=prediction_distance - individual_distance,
                    )
                )
    violations.sort(key=lambda v: (-v.margin, v.id_a, v.id_b))
    return OracleReport(violations=tuple(violations), skipped=skipped)


def oracle_lipschitz_payload(
    scale: float, lipschitz: OracleReport, pair_flagged: bool
) -> dict[str, Any]:
    """The ``lipschitz`` object of the swap payload as it was built before,
    verbatim: one dict per violation."""
    return {
        "scale": scale,
        "violations": [
            {
                "ids": [v.id_a, v.id_b],
                "individual_distance": v.individual_distance,
                "prediction_distance": 1.0,
                "margin": v.margin,
            }
            for v in lipschitz.violations
        ],
        "skipped_unscored": list(lipschitz.skipped),
        "swapped_pair_flagged": pair_flagged,
    }


def matrix_payload(m: ConfusionMatrix) -> dict[str, int]:
    return {"a": m.a, "b": m.b, "c": m.c, "d": m.d}


def matrices_payload(g: GroupedConfusion) -> dict[str, dict[str, int]]:
    return {group: matrix_payload(g[group]) for group in g.groups}


def oracle_render(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def swap_payload(ds: Dataset) -> dict[str, Any]:
    """The swap payload's other keys, filled from ``ds``."""
    ids = [rec.id for rec in ds.records]
    return {
        **header(1e-9),
        "attack": "swap",
        "group": ds.groups[0],
        "swapped_pair": ids[:2],
        "score_gap": 0.5,
        "matrices_unchanged": True,
        "matrices": matrices_payload(tabulate(ds)),
    }


def assert_matches_oracle(ds: Dataset, scale: float) -> int:
    """Compare both scans and their rendered JSON on one dataset; return the
    number of violations."""
    old = oracle_lipschitz_violations(ds, scale)
    new = lipschitz_violations(ds, scale)
    assert list(new.violations) == [
        (v.id_a, v.id_b, v.individual_distance) for v in old.violations
    ]
    assert new.skipped == old.skipped
    flagged = bool(new.violations)
    expected = {**swap_payload(ds), "lipschitz": oracle_lipschitz_payload(scale, old, flagged)}
    text = render(
        {
            **swap_payload(ds),
            "lipschitz": {
                "scale": scale,
                "violations": new.violations,
                "skipped_unscored": list(new.skipped),
                "swapped_pair_flagged": flagged,
            },
        }
    )
    assert text == oracle_render(expected)
    assert json.loads(text) == expected
    return len(new.violations)


#: Scores with ties, exact binary fractions (so pairs land exactly ``scale``
#: apart) and distinct tiny values, whose distances leave the margin at 1.0.
SCORES = (0.0, 5e-324, 1e-300, 1e-20, 3e-20, 0.125, 0.25, 0.3, 0.5, 0.75, 0.875, 1.0)
#: Scales at which pairs of SCORES sit exactly 1.0 apart, and tiny ones.
SCALES = (1.0, 0.5, 0.25, 0.125, 0.3, 1e-3, 1e-20, 2e-20, 1e-300, 5e-324)
#: Id characters: plain ones, and ones JSON escapes (a quote, a backslash,
#: a non-ASCII letter, an astral emoji, a newline, a control character).
ID_ALPHABET = 'abXY09-"\\\u00e9\U0001f600\n\x01'


#: Group names equal to keys and to the text ``render`` looks for.
GROUPS = ("violations", '\n  "lipschitz": ', "[]")


#: One record's fields: id, group, true label, prediction, score.
Fields = tuple[str, str, bool, bool, float | None]


def record_fields(rows: list[tuple[str, bool, float | None]]) -> list[Fields]:
    """Records in three groups; ids are given. The label is irrelevant to the
    scan, and three in four are positive, so many groups can be swapped."""
    return [(rid, GROUPS[i % 3], i % 4 != 3, r, score) for i, (rid, r, score) in enumerate(rows)]


def dataset(rows: list[tuple[str, bool, float | None]]) -> Dataset:
    return Dataset.from_records(map(Record._make, record_fields(rows)), GROUPS)


def outcome(run: Callable[[], Any]) -> tuple[str, Any]:
    """``("ok", value)`` or ``("error", message)``."""
    try:
        return "ok", run()
    except AuditError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def ordered(g: GroupedConfusion) -> tuple[list[tuple[str, ConfusionMatrix]], tuple[str, ...]]:
    """Matrices in group order and the dropped groups."""
    return list(g.matrices.items()), g.empty_groups


def assert_swaps_match_oracle(rows: list[tuple[str, bool, float | None]], scale: float) -> int:
    """Attack every group and an unknown one with both types; return the
    number of swaps made."""
    fields = record_fields(rows)
    new_ds = Dataset.from_records(map(Record._make, fields), GROUPS)
    old_ds = OracleDataset.from_records([OracleRecord(*f) for f in fields], GROUPS)
    assert ordered(tabulate(new_ds)) == ordered(tabulate(old_ds))
    swaps = 0
    for group in (*GROUPS, "unknown"):
        new = outcome(lambda: swap_attack(new_ds, group))
        old = outcome(lambda: oracle_swap_attack(old_ds, group))
        if old[0] == "error":
            assert new == old
            continue
        new_after, old_after = new[1].after, old[1].after
        assert (new[1].swapped_pair, new[1].score_gap) == (old[1].swapped_pair, old[1].score_gap)
        assert list(new_after.records) == [tuple(vars(rec).values()) for rec in old_after.records]
        assert new_after.groups == old_after.groups
        assert ordered(tabulate(new_after)) == ordered(tabulate(old_after))
        assert lipschitz_violations(new_after, scale).violations == [
            (v.id_a, v.id_b, v.individual_distance)
            for v in oracle_lipschitz_violations(old_after, scale).violations
        ]
        swaps += 1
    return swaps


#: Ways to spoil valid records and groups, each rejected by the old types;
#: some break two rules at once, where the old types said which comes first.
SPOILERS: tuple[Callable[[list[Fields]], tuple[list[Fields], Any]], ...] = (
    lambda f: (f + [f[0]], GROUPS),  # a repeated id
    lambda f: (f[:-1] + [(*f[-1][:4], 1.5)], GROUPS),  # a score above 1
    lambda f: (f[:1] + [(*f[1][:4], math.nan)] + f[2:], GROUPS),  # a NaN score
    lambda f: (f + [(*f[0][:4], -0.5)], GROUPS),  # a repeated id with a bad score
    lambda f: (f + [("new", "undeclared", True, True, 0.5)], GROUPS),  # an undeclared group
    lambda f: (f + [(f[0][0], "undeclared", True, True, 0.5)], GROUPS),  # and a repeated id
    lambda f: (f + [("new", "undeclared", True, True, 0.5)], GROUPS + GROUPS[:1]),  # repeats
    lambda f: (f, ()),  # no declared group
    lambda f: ([], None),  # no group to derive
)


def assert_rejections_match_oracle(rows: list[tuple[str, bool, float | None]], k: int) -> None:
    """Spoil the draw the ``k``-th way; both types must reject it alike."""
    fields, groups = SPOILERS[k % len(SPOILERS)](record_fields(rows))
    old = outcome(lambda: OracleDataset.from_records([OracleRecord(*f) for f in fields], groups))
    assert old[0] == "error"
    assert outcome(lambda: Dataset.from_records(map(Record._make, fields), groups)) == old


def seeded_rows(rng: random.Random) -> list[tuple[str, bool, float | None]]:
    ids = rng.sample(range(1000), rng.randint(2, 24))
    single = rng.random() < 0.15  # one prediction value: no pair can violate
    prediction = rng.random() < 0.5
    return [
        (
            rng.choice(ID_ALPHABET) + str(i),
            prediction if single else rng.random() < 0.5,
            None if rng.random() < 0.1 else rng.choice(SCORES),
        )
        for i in ids
    ]


def test_seeded_datasets_match_oracle() -> None:
    rng = random.Random(4099)
    found = swaps = 0
    for k in range(400):
        rows = seeded_rows(rng)
        scale = rng.choice(SCALES)
        found += assert_matches_oracle(dataset(rows), scale)
        swaps += assert_swaps_match_oracle(rows, scale)
        assert_rejections_match_oracle(rows, k)
    assert found > 1000 and swaps > 200


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.text(alphabet=ID_ALPHABET, min_size=1, max_size=3),
            st.booleans(),
            st.one_of(st.none(), st.sampled_from(SCORES), st.floats(0.0, 1.0)),
        ),
        min_size=2,
        max_size=16,
        unique_by=lambda row: row[0],
    ),
    scale=st.one_of(st.sampled_from(SCALES), st.floats(5e-324, 4.0)),
)
def test_hypothesis_datasets_match_oracle(
    rows: list[tuple[str, bool, float | None]], scale: float
) -> None:
    assert_matches_oracle(dataset(rows), scale)
    assert_swaps_match_oracle(rows, scale)
    assert_rejections_match_oracle(rows, len(rows) + len(rows[0][0]))


def test_continuous_scores_match_oracle() -> None:
    # Floats drawn at random give nearly every pair its own distance, so most
    # margins hold one row; the dyadic SCORES mixed in make others hold
    # several. Both kinds must come out in the oracle's order.
    rng = random.Random(4111)
    sizes = Counter()
    for _ in range(40):
        n = rng.randint(10, 60)
        scores = [rng.choice(SCORES) if rng.random() < 0.3 else rng.random() for _ in range(n)]
        ds = dataset([(f"r{i}", rng.random() < 0.5, score) for i, score in enumerate(scores)])
        scale = rng.choice((1.0, 0.5, 0.3, 1e-3))
        assert_matches_oracle(ds, scale)
        rows = lipschitz_violations(ds, scale).violations
        sizes.update(Counter(d - 1.0 for _, _, d in rows).values())
    assert sizes[1] > 1000 and sum(sizes.values()) - sizes[1] > 100


def test_pair_exactly_scale_apart_is_not_a_violation() -> None:
    ds = dataset([("a", True, 0.25), ("b", False, 0.75), ("c", False, 0.5)])
    assert assert_matches_oracle(ds, 0.5) == 1  # only a-c, at distance 0.5


def test_tiny_distances_tie_on_margin_and_break_by_id() -> None:
    # Distances 3e-20, 1e-20 and 2e-20 all leave the margin at 1.0, so the
    # id pair decides the order, not the distance.
    ds = dataset([("d", True, 3e-20), ("c", False, 0.0), ("b", True, 1e-20), ("a", False, 3e-20)])
    assert assert_matches_oracle(ds, 1.0) == 4
    assert [(a, b) for a, b, _ in lipschitz_violations(ds).violations] == [
        ("a", "b"),
        ("a", "d"),
        ("b", "c"),
        ("c", "d"),
    ]


def test_unscored_and_single_prediction() -> None:
    ds = dataset([("a", True, 0.2), ("b", True, 0.3), ("c", False, None)])
    assert assert_matches_oracle(ds, 1.0) == 0
    assert lipschitz_violations(ds).skipped == ("c",)


def test_zero_subnormal_and_exponent_distances_render_as_json_does() -> None:
    ds = dataset(
        [("a", True, 0.5), ("b", False, 0.5), ("c", True, 5e-324), ("d", False, 0.0),
         ("e", True, 1e-20)]
    )
    assert assert_matches_oracle(ds, 1.0) == 6
    text = render({"lipschitz": {"violations": lipschitz_violations(ds).violations}})
    for distance, margin in (("0.0", "1.0"), ("5e-324", "1.0"), ("1e-20", "1.0")):
        assert f'"individual_distance": {distance},\n        "margin": {margin},' in text


# ---------------------------------------------------------------------------
# Edge cases of the bisected scan and the memoized writer
# ---------------------------------------------------------------------------


def test_equal_distances_on_both_sides_of_a_positive() -> None:
    # 0.25 and 0.75 are 0.25 from 0.5, 0.0 and 1.0 are 0.5 from it: each
    # margin is shared by a negative on either side, so the id pair decides.
    rows = [("m", True, 0.5), ("z", False, 0.25), ("a", False, 0.75), ("y", False, 0.0),
            ("b", False, 1.0), ("c", True, 0.25), ("x", False, 0.5)]
    for scale in (1.0, 0.5, 0.25, 2.0):
        assert_matches_oracle(dataset(rows), scale)
    assert [row[:2] for row in lipschitz_violations(dataset(rows)).violations][:3] == [
        ("c", "z"), ("m", "x"), ("a", "m")
    ]


def test_identical_scores_and_signed_zeros() -> None:
    # -0.0 is a valid score and compares equal to 0.0: at a subnormal scale
    # only the pairs at distance 0.0 violate, and no row holds -0.0.
    rows = [("p", True, 0.0), ("q", True, -0.0), ("n", False, -0.0), ("o", False, 0.0),
            ("r", True, 0.5), ("s", False, 0.5), ("t", False, 0.5)]
    for scale, count in ((1.0, 12), (5e-324, 6)):
        assert assert_matches_oracle(dataset(rows), scale) == count
    assert {d for _, _, d in lipschitz_violations(dataset(rows), 5e-324).violations} == {0.0}
    assert all(
        math.copysign(1.0, d) == 1.0 for _, _, d in lipschitz_violations(dataset(rows)).violations
    )


def test_all_negatives_on_one_side_of_every_positive() -> None:
    low = [(f"n{i}", False, i / 16) for i in range(5)]
    high = [(f"p{i}", True, 1.0 - i / 16) for i in range(5)]
    for rows in (low + high, [(rid, not r, score) for rid, r, score in low + high]):
        for scale in (1.0, 0.75, 0.5, 1e-3):
            assert_matches_oracle(dataset(rows), scale)


def test_tiny_scales_overflow_and_underflow() -> None:
    # At 5e-324 a gap of one subnormal is exactly 1.0 apart and any gap of
    # 2.5e-308 or more divides to inf, so only equal scores violate; at
    # 1e-300 the three scores below it also violate with each other.
    scores = (0.0, 5e-324, 1e-323, 1e-300, 2e-300, 3e-300, 0.5, 1.0)
    rows = [(f"{k}{i}", k == "p", s) for i, s in enumerate(scores) for k in "pn"]
    for scale, count in ((5e-324, 8), (1e-300, 8 + 6)):
        assert assert_matches_oracle(dataset(rows), scale) == count


def test_many_rows_share_ids_and_distances() -> None:
    # 40 x 40 records on eight dyadic scores: 1,600 rows with 80 ids and a
    # handful of distances, so the writer reuses its encodings.
    rng = random.Random(20)
    ids = ('q"', "b\\", "\u00e9", "\U0001f600", "n\n", "c\x01", "x", "y")
    rows = [(f"{ids[i % 8]}{i}", i % 2 == 0, rng.choice(SCORES[5:])) for i in range(80)]
    assert assert_matches_oracle(dataset(rows), 1.0) == 1600


@pytest.mark.parametrize(
    "distances",
    [
        (0.0, 5e-324, 1e-20, 0.25, 0.3, 0.999999),
        # More distinct distances than the writer keeps tails for, most of
        # them repeated out of turn, before and after it lets tails go.
        tuple(random.Random(23).random() for _ in range(3 * TAIL_MEMO)),
    ],
)
def test_writer_matches_the_dict_dump_on_repeated_ids_and_distances(
    distances: tuple[float, ...]
) -> None:
    rng = random.Random(21)
    ids = ('q"', "b\\", "\u00e9", "\U0001f600", "n\n", "c\x01")
    rows = Violations(
        (rng.choice(ids), rng.choice(ids), rng.choice(distances)) for _ in range(2000)
    )
    expected = [
        {"ids": [a, b], "individual_distance": d, "margin": 1.0 - d, "prediction_distance": 1.0}
        for a, b, d in rows
    ]
    for payload, dumped in (
        (rows, expected),
        ({"v": {"violations": rows}}, {"v": {"violations": expected}}),
    ):
        assert render(payload) == json.dumps(dumped, sort_keys=True, indent=2) + "\n"
    assert render(Violations()) == "[]\n"


def test_render_holds_little_beyond_its_output() -> None:
    # 150 x 150 records on continuous scores: about 20k rows, nearly all with
    # their own distance. The pieces of the rows share their id strings and
    # the output is built in one join, so render's peak stays near the
    # output's size; building it in several full-size steps reads over 3x.
    rng = random.Random(24)
    rows = [(f"r{i}", i % 2 == 0, rng.random()) for i in range(300)]
    violations = lipschitz_violations(dataset(rows)).violations
    payload = {"lipschitz": {"scale": 1.0, "violations": violations}}
    gc.disable()  # what outlives the call must not wait for a collection
    tracemalloc.start()
    try:
        text = render(payload)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(violations) > 20_000
    assert len(set(d for _, _, d in violations)) > 15_000
    assert peak < 2.5 * len(text)
    # The pieces are freed on return, so the caller's write of the text does
    # not hold them too.
    assert held < 1.05 * len(text)


def test_no_positive_has_a_violating_run() -> None:
    rows = [(f"r{i}", i % 2 == 0, i / 64) for i in range(64)]
    for scale in (1 / 64, 1e-3, 5e-324):
        assert assert_matches_oracle(dataset(rows), scale) == 0
        assert '"violations": []' in render(
            {"lipschitz": {"violations": lipschitz_violations(dataset(rows), scale).violations}}
        )


def counted_violates(monkeypatch) -> Counter:
    """Count the scan's calls of its predicate from here on."""
    calls = Counter()
    violates = adversary.violates

    def counting(distance: float) -> bool:
        calls["violates"] += 1
        return violates(distance)

    monkeypatch.setattr(adversary, "violates", counting)
    return calls


def test_the_scan_bisects_instead_of_testing_every_pair(monkeypatch) -> None:
    # 2,000 distinct scores 1/2000 apart at scale 1e-9: no pair violates, and
    # no positive's window of scores within 2e-9 holds a negative, so the
    # predicate is never called; testing every pair calls it P x N times.
    rng = random.Random(22)
    records = [Record(f"r{i}", "g", True, rng.random() < 0.5, i / 2000) for i in range(2000)]
    ds = Dataset.from_records(records)
    calls = counted_violates(monkeypatch)
    assert lipschitz_violations(ds, 1e-9).violations == []
    assert calls["violates"] == 0


def test_the_window_bounds_the_predicate_calls(monkeypatch) -> None:
    # 250 clusters 1/250 apart, each of four records 5e-8 apart, positive and
    # negative in turn, at scale 1e-7: a positive's window holds at most the
    # three other records of its cluster, so each of its two bisections calls
    # the predicate at most ceil(log2(3 + 1)) + 1 times. Bisecting all 500
    # negatives would take about twice as many calls.
    rows = [(f"c{c}-{j}", j % 2 == 0, c / 250 + j * 5e-8) for c in range(250) for j in range(4)]
    assert assert_matches_oracle(dataset(rows), 1e-7) == 3 * 250
    calls = counted_violates(monkeypatch)
    lipschitz_violations(dataset(rows), 1e-7)
    positives = sum(r for _, r, _ in rows)
    assert 0 < calls["violates"] <= 2 * positives * (math.ceil(math.log2(3 + 1)) + 1)


def test_ties_violate_at_a_scale_below_the_ulp() -> None:
    # 2 * scale is below the ulp of every score, so p - 2 * scale and
    # p + 2 * scale round to p and the window is the scores tied with p:
    # its upper end must include them. The neighbours one ulp away do not
    # violate.
    rows = [(f"p{i}", True, 0.5) for i in range(3)] + [
        ("n0", False, 0.5),
        ("n1", False, 0.5),
        ("n2", False, math.nextafter(0.5, 1.0)),
        ("n3", False, math.nextafter(0.5, 0.0)),
        ("p3", True, 0.75),
        ("n4", False, 0.75),
        ("n5", False, 0.25),
    ]
    for scale in (1e-20, 1e-300, 5e-324):
        assert 2 * scale < math.ulp(0.25) and 0.5 - 2 * scale == 0.5 + 2 * scale == 0.5
        assert assert_matches_oracle(dataset(rows), scale) == 3 * 2 + 1
