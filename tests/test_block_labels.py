"""The block-label rule against hand-written references.

Every season, year and cell label comes from one parts table in
``stvar.models``. The references below spell the same labeling out per
structure, as the library did before the table was its only statement:
declared layouts branch by structure and sort with a season-aware key,
occupancy splits label each date by hand, and the cell and date needs are
fixed lists of structures.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import unique_rows
from stvar.evaluate import node_frequencies
from stvar.models import (
    A_STRUCTURES,
    ETA_STRUCTURES,
    MODEL_ALIASES,
    SEASONS,
    DesignInfo,
    KnotGrid,
    ModelSpec,
    _unique_rows,
    spec_from_dict,
    spec_to_dict,
)

PAIRS = [(a, eta) for a in A_STRUCTURES for eta in ETA_STRUCTURES
         if a != "random_walk" or eta == "none"]


def sort_keys(keys) -> tuple:
    return tuple(sorted(
        keys, key=lambda k: tuple(SEASONS.index(v) if isinstance(v, str) else v for v in k)
    ))


def declared_reference(spec, cells=(), seasons=(), years=(), season_years=()):
    kind = spec.a_structure
    if kind == "random_walk":
        a_keys = []
    elif kind == "constant":
        a_keys = [()]
    elif kind == "tessellation":
        a_keys = [(int(c),) for c in cells]
    elif kind == "quarter":
        a_keys = [(s,) for s in seasons]
    elif kind == "year":
        a_keys = [(int(y),) for y in years]
    elif kind == "quarter_by_year":
        a_keys = [(int(y), s) for y in season_years for s in seasons]
    elif kind == "tessellation_by_year":
        a_keys = [(int(y), int(c)) for y in years for c in cells]
    else:
        a_keys = [(s, int(c)) for s in seasons for c in cells]
    ek = spec.eta_structure
    if ek in ("none", "spatial"):
        eta_keys = []
    elif ek == "constant":
        eta_keys = [()]
    elif ek == "quarter":
        eta_keys = [(s,) for s in seasons]
    else:
        eta_keys = [(int(y),) for y in years]
    return sort_keys(set(a_keys)), sort_keys(set(eta_keys))


SEASON_OF_MONTH = {12: "DJF", 1: "DJF", 2: "DJF", 3: "MAM", 4: "MAM", 5: "MAM",
                   6: "JJA", 7: "JJA", 8: "JJA", 9: "SON", 10: "SON", 11: "SON"}


def frequencies_reference(assignment, n_cells, dates, by):
    # meteorological seasons; December counts in the next year's winter
    a = np.asarray(assignment)
    order = {s: i for i, s in enumerate(SEASONS)}
    if by == "season":
        labels = [SEASON_OF_MONTH[d.month] for d in dates]
        keys = sorted(set(labels), key=lambda s: order[s])
    elif by == "year":
        labels = [d.year for d in dates]
        keys = sorted(set(labels))
    else:
        labels = [f"{d.year + (d.month == 12)}/{SEASON_OF_MONTH[d.month]}" for d in dates]
        keys = sorted(set(labels), key=lambda k: (int(k.split("/")[0]), order[k.split("/")[1]]))
    labels = np.asarray(labels, dtype=object)
    return {str(k): np.bincount(a[labels == k], minlength=n_cells).astype(float) for k in keys}


def declared_values(how: str, rng):
    """Declared cells, seasons, years and season-years: shuffled with
    repeats, shuffled without, or empty."""
    if how == "empty":
        return dict(cells=(), seasons=(), years=(), season_years=())
    repeat = 2 if how == "duplicated" else 1

    def shuffled(values):
        out = list(values) * repeat
        rng.shuffle(out)
        return out

    return dict(cells=shuffled(range(5)), seasons=shuffled(SEASONS[1:]),
                years=shuffled(range(1998, 2002)), season_years=shuffled(range(1998, 2003)))


@pytest.mark.parametrize("how", ["shuffled", "duplicated", "empty"])
@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_declared_layout_matches_reference(pair, how):
    spec = ModelSpec(*pair)
    values = declared_values(how, np.random.default_rng(len(PAIRS) * PAIRS.index(pair) + 1))
    info = DesignInfo.from_declared(spec, **values)
    assert (info.a_keys, info.eta_keys) == declared_reference(spec, **values)
    for key in info.a_keys + info.eta_keys:
        assert all(type(v) is (str if v in SEASONS else int) for v in key)


@pytest.mark.parametrize("by", ["season", "year", "season_year"])
@pytest.mark.parametrize("seed", range(4))
def test_node_frequencies_match_reference(by, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    start = dt.date(1999, 10, 1) + dt.timedelta(days=int(rng.integers(0, 120)))
    dates = [start + dt.timedelta(days=int(d)) for d in rng.integers(0, 900, n)]
    assignment = rng.integers(0, 6, n)
    got = node_frequencies(assignment, 6, dates=dates, by=by)
    want = frequencies_reference(assignment, 6, dates, by)
    assert list(got) == list(want)
    for label in want:
        np.testing.assert_array_equal(got[label], want[label])


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_cell_and_date_needs_match_reference(pair):
    a, eta = pair
    spec = ModelSpec(a, eta)
    assert spec.needs_cells == a.startswith("tessellation")
    assert spec.needs_dates == (
        a in ("quarter", "quarter_by_year", "year", "tessellation_by_year",
              "tessellation_by_quarter")
        or eta in ("quarter", "year")
    )


@pytest.mark.parametrize("alias", MODEL_ALIASES)
def test_spec_round_trip(alias):
    spec = ModelSpec.from_name(alias, knot_grid=KnotGrid(n_x=3, n_y=4, padding=0.5))
    doc = spec_to_dict(spec)
    assert set(doc) == {"a_structure", "eta_structure", "knot_grid"}
    assert spec_from_dict(doc) == spec



@given(rows=st.integers(1, 2).flatmap(lambda parts: hnp.arrays(
    np.int64, st.tuples(st.integers(0, 40), st.just(parts)),
    elements=st.integers(0, 9999) | st.sampled_from([0, 3, 1998]))))
@example(rows=np.tile(np.array([1998, 3]), (6, 1)))
@example(rows=np.full((3, 1), 9999))
def test_unique_rows_match_the_row_wise_unique(rows):
    # one or two label parts; ties, one block and codes up to year 9999
    uniq, inv = _unique_rows(rows)
    want_uniq, want_inv = unique_rows(rows)
    assert uniq.dtype == want_uniq.dtype
    np.testing.assert_array_equal(uniq, want_uniq)
    np.testing.assert_array_equal(inv, want_inv)
