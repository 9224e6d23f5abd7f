"""Space-time VAR model structures, design matrices, closed-form estimates,
and the kriging pieces behind the spatially adjusted intercept.

A fitted day moves as s_{t+1} = A_{b(t)} s_t + eta_{c(t)}(s_t) + eps_t with
eps_t ~ N(0, Sigma). The transition block b(t) can depend on the tessellation
cell of s_t, the season, the year, or products of those; the intercept eta can
be absent, constant, seasonal, yearly, or a smooth function of position built
from a predictive-process field at a knot grid.

Stacking rows gives Y = X Phi + E: the row for day t puts s_t's coordinates in
the two columns of its transition block (so Phi stores each 2x2 block A
transposed) and a 1 in its intercept block column, if any. The random walk
has no columns: its A is I and fixed, so its mean X Phi is s_t itself.

A spec is its two structures and its knot grid; seasons are always
meteorological. A knot correlation matrix that does not factor is retried
with the fixed diagonal jitters of JITTER_LADDER.

Named ladder (aliases accepted everywhere a model spec is):

    model0  random walk                  model6  A(quarter) + eta(year)
    model1  constant A                   model7  A(quarter x year)
    model2  A(cell)                      model8  A(year)
    model3  A(cell) + eta(quarter)       model9  A(cell x year)
    model4  A(quarter)                   model10 A(cell x quarter)
    model5  A(quarter) + eta(constant)   model11 constant A + spatial eta
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _doc, _lapack
from .errors import (
    DataError,
    EmptySeries,
    IllConditioned,
    NonPositiveDecay,
    RankWarning,
    SingularDesign,
    UnlabeledDate,
)
from .projection import PlanarSeries, Tessellation, _checked_tess, padded_grid

A_STRUCTURES = (
    "random_walk",
    "constant",
    "tessellation",
    "quarter",
    "quarter_by_year",
    "year",
    "tessellation_by_year",
    "tessellation_by_quarter",
)
ETA_STRUCTURES = ("none", "constant", "quarter", "year", "spatial")

SEASONS = ("DJF", "MAM", "JJA", "SON")
# The date rule of every block label: the meteorological season of each
# month, January first, as its place in SEASONS. Where seasons and years
# cross, December joins the following year's winter; the plain yearly
# blocks use the calendar year unchanged (see _label_codes).
_SEASON_OF_MONTH = np.array([0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0])

MODEL_ALIASES = {
    "model0": ("random_walk", "none"),
    "model1": ("constant", "none"),
    "model2": ("tessellation", "none"),
    "model3": ("tessellation", "quarter"),
    "model4": ("quarter", "none"),
    "model5": ("quarter", "constant"),
    "model6": ("quarter", "year"),
    "model7": ("quarter_by_year", "none"),
    "model8": ("year", "none"),
    "model9": ("tessellation_by_year", "none"),
    "model10": ("tessellation_by_quarter", "none"),
    "model11": ("constant", "spatial"),
}


# The parts of a block label, per structure. "cell" is the tessellation cell;
# "season", "year" and "season_year" label a date by the rule of
# _label_codes. Labels sort by their parts in this order, seasons in SEASONS
# order.
# The random walk has no transition blocks, and "none" and "spatial" no
# intercept blocks.
_A_PARTS = {
    "constant": (),
    "tessellation": ("cell",),
    "quarter": ("season",),
    "year": ("year",),
    "quarter_by_year": ("season_year", "season"),
    "tessellation_by_year": ("year", "cell"),
    "tessellation_by_quarter": ("season", "cell"),
}
_ETA_PARTS = {"constant": (), "quarter": ("season",), "year": ("year",)}


@dataclass(frozen=True)
class KnotGrid:
    """Regular grid of predictive-process knots over the padded data box."""

    n_x: int = 8
    n_y: int = 8
    padding: float = 0.10

    def __post_init__(self):
        for name in ("n_x", "n_y"):
            object.__setattr__(self, name, _doc.nonneg_int(getattr(self, name), name))
        if self.n_x < 2 or self.n_y < 2:
            raise DataError("knot grid needs at least 2 knots per axis")
        if _doc.finite_real(self.padding, "padding") < 0.0:
            raise DataError("knot padding must be >= 0")

    def build(self, points: np.ndarray) -> np.ndarray:
        return padded_grid(_doc.reals(points, "points", (None, 2)), self.padding, self.n_x,
                           self.n_y)


@dataclass(frozen=True)
class ModelSpec:
    a_structure: str
    eta_structure: str = "none"
    knot_grid: KnotGrid = field(default_factory=KnotGrid)

    def __post_init__(self):
        if self.a_structure not in A_STRUCTURES:
            raise DataError(
                f"a_structure must be one of {A_STRUCTURES}, got {self.a_structure!r}"
            )
        if self.eta_structure not in ETA_STRUCTURES:
            raise DataError(
                f"eta_structure must be one of {ETA_STRUCTURES}, got {self.eta_structure!r}"
            )
        if self.a_structure == "random_walk" and self.eta_structure != "none":
            raise DataError("the random walk takes no intercept structure")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "ModelSpec":
        if name not in MODEL_ALIASES:
            raise DataError(f"unknown model name {name!r}")
        a, eta = MODEL_ALIASES[name]
        return cls(a_structure=a, eta_structure=eta, **kwargs)

    @property
    def name(self) -> str | None:
        """Ladder alias when this spec matches one."""
        for alias, (a, eta) in MODEL_ALIASES.items():
            if (a, eta) == (self.a_structure, self.eta_structure):
                return alias
        return None

    @property
    def label_parts(self) -> tuple[str, ...]:
        """Label parts of the transition blocks, then of the intercept blocks."""
        return _A_PARTS.get(self.a_structure, ()) + _ETA_PARTS.get(self.eta_structure, ())

    @property
    def needs_cells(self) -> bool:
        return "cell" in self.label_parts

    @property
    def needs_dates(self) -> bool:
        return any(part != "cell" for part in self.label_parts)


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "a_structure": spec.a_structure,
        "eta_structure": spec.eta_structure,
        "knot_grid": asdict(spec.knot_grid),
    }


def spec_from_dict(doc: dict) -> ModelSpec:
    kind = "model spec"
    doc = _doc.fields(doc, kind, {"a_structure": str}, {"eta_structure": str, "knot_grid": dict},
                      closed=True)
    return ModelSpec(
        a_structure=doc["a_structure"],
        eta_structure=doc.get("eta_structure", "none"),
        knot_grid=_doc.record(KnotGrid, doc.get("knot_grid", {}), f"{kind} knot_grid"),
    )


@_doc.names_path
def _read_spec(path) -> ModelSpec:
    return spec_from_dict(_doc.read_json(path, "model spec"))


def resolve_spec(source) -> ModelSpec:
    """Accept a ModelSpec, a ladder alias, or a path to a spec JSON file."""
    if isinstance(source, ModelSpec):
        return source
    if isinstance(source, dict):
        return spec_from_dict(source)
    name = str(source)
    if name in MODEL_ALIASES:
        return ModelSpec.from_name(name)
    if Path(name).exists():
        return _read_spec(name)
    raise DataError(f"{name!r} is neither a model alias nor a spec file")


# ---------------------------------------------------------------------------
# Block labeling and design matrices


@dataclass(frozen=True)
class DesignInfo:
    """A spec's transition-block and intercept-block labels, in column order.

    Block labels are canonical: cells ascending, seasons in DJF/MAM/JJA/SON
    order, years ascending, crossed structures sorted major key first.
    """

    spec: ModelSpec
    a_keys: tuple
    eta_keys: tuple

    @property
    def n_a(self) -> int:
        return len(self.a_keys)

    @property
    def n_eta(self) -> int:
        return len(self.eta_keys)

    @property
    def n_columns(self) -> int:
        return 2 * self.n_a + self.n_eta

    @staticmethod
    def _label(key) -> str:
        if key == ():
            return "all"
        return "/".join(str(part) for part in key)

    @property
    def a_labels(self) -> tuple[str, ...]:
        return tuple(self._label(k) for k in self.a_keys)

    @property
    def eta_labels(self) -> tuple[str, ...]:
        return tuple(self._label(k) for k in self.eta_keys)

    @classmethod
    def from_declared(cls, spec, *, cells=(), seasons=(), years=(),
                      season_years=()) -> "DesignInfo":
        """Labels declared up front (used to lay out simulation truths): every
        crossing of the declared values of each structure's label parts."""
        declared = {"cell": cells, "season": [SEASONS.index(s) for s in seasons],
                    "year": years, "season_year": season_years}
        keys = []
        for parts in (_A_PARTS.get(spec.a_structure), _ETA_PARTS.get(spec.eta_structure)):
            if parts is None:
                keys.append(())
                continue
            grid = np.meshgrid(*(np.asarray(declared[p], dtype=np.int64) for p in parts),
                               indexing="ij")
            codes = {p: g.ravel() for p, g in zip(parts, grid)}
            keys.append(_index_blocks(parts, codes, grid[0].size if grid else 1)[0])
        return cls(spec, *keys)


def _label_codes(cells, dates) -> dict[str, np.ndarray]:
    """Integer code of every label part for each day: a season by its place
    in SEASONS, a year as itself. This is the one statement of the date rule:
    the season comes from the month alone, and a season's year is the
    calendar year, plus one in December."""
    codes = {}
    if cells is not None:
        codes["cell"] = np.asarray(cells, dtype=np.int64)
    if dates is not None:  # months count from 0, January first
        year, month = np.divmod(np.fromiter((12 * d.year + d.month - 1 for d in dates),
                                            dtype=np.int64, count=len(dates)), 12)
        codes["season"] = _SEASON_OF_MONTH[month]
        codes["year"] = year
        codes["season_year"] = year + (month == 11)
    return codes


def _unique_rows(rows: np.ndarray):
    """The distinct rows of non-negative int64 codes in lexicographic order,
    and each row's index among them, as ``np.unique(rows, axis=0,
    return_inverse=True)`` gives them. Each row is folded into one int64 key
    (mixed radix, one digit per column), so one 1-D sort does the work of
    sorting whole rows."""
    width = rows.max(axis=0, initial=0) + 1
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(rows.shape[1]):
        key = key * width[j] + rows[:, j]
    key, inv = np.unique(key, return_inverse=True)
    uniq = np.empty((key.size, rows.shape[1]), dtype=rows.dtype)
    for j in reversed(range(rows.shape[1])):
        key, uniq[:, j] = np.divmod(key, width[j])
    return uniq, inv


def _index_blocks(parts, codes, n, keys=None, what=""):
    """Each day's block as an index into `keys`.

    With keys=None the keys are the distinct blocks the days visit, in
    canonical order; otherwise a day outside `keys` raises UnlabeledDate.
    """
    if parts:
        uniq, inv = _unique_rows(np.column_stack([codes[p] for p in parts]))
        found = [
            tuple(SEASONS[v] if p == "season" else int(v) for p, v in zip(parts, row))
            for row in uniq
        ]
    else:
        found, inv = [()], np.zeros(n, dtype=np.intp)
    if keys is None:
        return tuple(found), inv
    lookup = {k: i for i, k in enumerate(keys)}
    for key in found:
        if key not in lookup:
            raise UnlabeledDate(f"no fitted {what} block for {key}")
    return tuple(keys), np.array([lookup[k] for k in found], dtype=np.intp)[inv]


def block_indices(spec: ModelSpec, n: int, cells, dates, info: DesignInfo | None = None):
    """Transition and intercept block of each of n source days.

    Returns (info, a_idx, eta_idx): a_idx is None for the random walk and
    eta_idx None without intercept columns. Labels come from `info` when it
    is given, otherwise from the blocks the days visit.
    """
    if spec.needs_cells and cells is None:
        raise DataError("cell-dependent blocks need cell assignments")
    if spec.needs_dates and dates is None:
        raise UnlabeledDate(
            f"{spec.a_structure}/{spec.eta_structure} needs dated observations"
        )
    codes = _label_codes(cells if spec.needs_cells else None,
                         dates if spec.needs_dates else None)
    a_keys, a_idx = (), None
    if spec.a_structure in _A_PARTS:
        a_keys, a_idx = _index_blocks(_A_PARTS[spec.a_structure], codes, n,
                                      None if info is None else info.a_keys, "transition")
    eta_keys, eta_idx = (), None
    if spec.eta_structure in _ETA_PARTS:
        eta_keys, eta_idx = _index_blocks(_ETA_PARTS[spec.eta_structure], codes, n,
                                          None if info is None else info.eta_keys, "intercept")
    if info is None:
        info = DesignInfo(spec, a_keys, eta_keys)
    return info, a_idx, eta_idx


def block_table(info: DesignInfo, n: int, n_cells: int, dates):
    """Blocks of n source days for every cell a day may start in, labeled
    before the cells are known, as simulate_var needs them.

    Returns (a_of, eta_of): a_of[t, c] is the transition block of day t in
    cell c, shape (n, n_cells), and eta_of[t] the intercept block of day t;
    each is None where the spec has no such blocks. `dates` holds the n
    dates; n_cells is 1 when the spec has no cell blocks. A (cell, day) pair
    without a block in `info` raises UnlabeledDate.
    """
    spec = info.spec
    days = _label_codes(None, dates if spec.needs_dates else None)
    rows = {part: np.repeat(code, n_cells) for part, code in days.items()}
    rows["cell"] = np.tile(np.arange(n_cells), n)
    a_of = eta_of = None
    if spec.a_structure in _A_PARTS:
        a_of = _index_blocks(_A_PARTS[spec.a_structure], rows, n * n_cells, info.a_keys,
                             "transition")[1].reshape(n, n_cells)
    if spec.eta_structure in _ETA_PARTS:
        eta_of = _index_blocks(_ETA_PARTS[spec.eta_structure], days, n, info.eta_keys,
                               "intercept")[1]
    return a_of, eta_of


def _block_grams(S: np.ndarray, a_idx: np.ndarray, n_a: int) -> np.ndarray:
    """S_b' S_b for the rows of every transition block, shape (n_a, 2, 2)."""
    x, y = S[:, 0], S[:, 1]
    G = np.empty((n_a, 2, 2))
    G[:, 0, 0] = np.bincount(a_idx, x * x, n_a)
    G[:, 1, 1] = np.bincount(a_idx, y * y, n_a)
    G[:, 0, 1] = G[:, 1, 0] = np.bincount(a_idx, x * y, n_a)
    return G


def _dense_gram(design: "DesignPair") -> np.ndarray:
    """X'X as one p x p matrix, summed block by block."""
    info, S, a_idx = design.info, design.source_points, design.a_idx
    k = 2 * info.n_a
    xtx = np.zeros((design.p, design.p))
    if info.n_a == 1:
        # one block: the dense X's BLAS call gives the same bytes and is the
        # fast path, one product in place of three bincounts and their placement
        xtx[:2, :2] = S.T @ S
    else:
        # block b's 2x2 Gram goes to rows and columns 2b and 2b + 1
        at = 2 * np.arange(info.n_a)[:, None, None]
        xtx[at + np.arange(2)[:, None], at + np.arange(2)] = _block_grams(S, a_idx, info.n_a)
    if info.n_eta:
        e = design.eta_idx
        xtx[np.arange(k, design.p), np.arange(k, design.p)] = np.bincount(e, minlength=info.n_eta)
        for i in (0, 1):
            cross = np.bincount(a_idx * info.n_eta + e, S[:, i], info.n_a * info.n_eta)
            xtx[i:k:2, k:] = cross.reshape(info.n_a, info.n_eta)
            xtx[k:, i:k:2] = xtx[i:k:2, k:].T
    return xtx


def _block_singular_values(S: np.ndarray, a_idx: np.ndarray, G: np.ndarray):
    """Both singular values of every block's rows of S, largest first.

    One Gram-Schmidt step per block: the shorter column's part orthogonal
    to the longer one gives s1 * s2, and s1^2 + s2^2 is the Gram trace. The
    small value keeps the absolute accuracy of an SVD, which the Gram's
    eigenvalues would not.
    """
    n_a = G.shape[0]
    xx, yy, xy = G[:, 0, 0], G[:, 1, 1], G[:, 0, 1]
    y_longer = yy > xx
    longer = np.where(y_longer, yy, xx)
    c = np.divide(xy, longer, out=np.zeros(n_a), where=longer > 0.0)
    by_row = y_longer[a_idx]
    ortho = np.where(by_row, S[:, 0], S[:, 1]) - c[a_idx] * np.where(by_row, S[:, 1], S[:, 0])
    prod = np.sqrt(longer * np.bincount(a_idx, ortho * ortho, n_a))
    trace = xx + yy
    s1 = np.sqrt(0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * prod * prod, 0.0))))
    s2 = np.divide(prod, s1, out=np.zeros(n_a), where=s1 > 0.0)
    return s1, s2


class Gram:
    """X'X of a design, factored once for least squares and posterior draws.

    With several transition blocks and no intercept columns, X'X is block
    diagonal and is kept as a stack of 2x2 blocks, so each operation costs
    O(p). Otherwise it is one dense p x p matrix, small because p is two
    columns per transition block plus the intercept columns.
    """

    def __init__(self, design: "DesignPair"):
        info = design.info
        self.p, self.n_a = design.p, info.n_a
        self.blocked = info.n_a > 1 and not info.n_eta
        try:
            if self.blocked:
                self.xtx = _block_grams(design.source_points, design.a_idx, info.n_a)
                np.linalg.cholesky(self.xtx)
            else:
                self.xtx = _dense_gram(design)
                self.factor = (_lapack.cholesky(self.xtx), False)
        except np.linalg.LinAlgError:
            raise SingularDesign("X'X is singular") from None

    def _stacked(self, B: np.ndarray) -> np.ndarray:
        return B.reshape(self.n_a, 2, -1)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """(X'X)^{-1} B for B of shape (p, k)."""
        if self.blocked:
            return np.linalg.solve(self.xtx, self._stacked(B)).reshape(self.p, -1)
        return _lapack.cho_solve(self.factor, B)

    @cached_property
    def inv_factor(self) -> np.ndarray:
        """Lower Cholesky factor of (X'X)^{-1}, per block when blocked."""
        if self.blocked:
            inv = np.linalg.inv(self.xtx)
            return np.linalg.cholesky(0.5 * (inv + inv.transpose(0, 2, 1)))
        inv = _lapack.cho_solve(self.factor, np.eye(self.p))
        return np.linalg.cholesky(0.5 * (inv + inv.T))

    def times_inv_factor(self, z: np.ndarray) -> np.ndarray:
        """inv_factor @ z for z of shape (p, k)."""
        if self.blocked:
            return np.matmul(self.inv_factor, self._stacked(z)).reshape(self.p, -1)
        return self.inv_factor @ z


@dataclass(frozen=True)
class DesignPair:
    """Stacked one-step regression: Y = X Phi + E.

    X is held by its block indices: row t has source_points[t] in the two
    columns of transition block a_idx[t] and a 1 in intercept column
    eta_idx[t]. The random walk has no blocks (a_idx is None): its A is I
    and fixed, so X Phi stands for the source points themselves.
    """

    Y: np.ndarray
    source_points: np.ndarray
    a_idx: np.ndarray | None
    eta_idx: np.ndarray | None
    info: DesignInfo

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def p(self) -> int:
        return self.info.n_columns

    @cached_property
    def X(self) -> np.ndarray:
        """The dense n x p design. deficient_blocks builds it for every design
        with intercept columns (model3, model5, model6) to take its rank."""
        X = np.zeros((self.n, self.p))
        rows = np.arange(self.n)
        if self.a_idx is not None:
            X[rows, 2 * self.a_idx] = self.source_points[:, 0]
            X[rows, 2 * self.a_idx + 1] = self.source_points[:, 1]
        if self.eta_idx is not None:
            X[rows, 2 * self.info.n_a + self.eta_idx] = 1.0
        return X

    @cached_property
    def gram(self) -> Gram:
        return Gram(self)

    def xt(self, M: np.ndarray) -> np.ndarray:
        """X' M, shape (p, k), for M of shape (n, k)."""
        info, S = self.info, self.source_points
        k = 2 * info.n_a
        out = np.empty((self.p, M.shape[1]))
        # one block: the dense X's BLAS call gives the same bytes and is the
        # fast path, 4.5 us against the bincounts' 34 us at 1499 rows
        # (2 cores); a model11 sweep calls xt once
        if info.n_a == 1:
            out[:2] = S.T @ M
        else:
            for i in (0, 1):
                for j in range(M.shape[1]):
                    out[i:k:2, j] = np.bincount(self.a_idx, S[:, i] * M[:, j], info.n_a)
        if info.n_eta:
            for j in range(M.shape[1]):
                out[k:, j] = np.bincount(self.eta_idx, M[:, j], info.n_eta)
        return out

    def xphi(self, phi: np.ndarray) -> np.ndarray:
        """X @ phi for phi of shape (..., p, 2), shape (..., n, 2); leading
        axes index draws, and each draw's product has the same bytes as a
        call on that draw alone. The random walk's is the source points."""
        info, S = self.info, self.source_points
        phi = np.asarray(phi, dtype=float)
        if info.n_a == 0:
            out = np.broadcast_to(S, phi.shape[:-2] + S.shape).copy()
        elif info.n_a == 1:
            # one block: the dense X's BLAS call gives the same bytes and is
            # the fast path, 4.6 us against the gathers' 22 us at 1499 rows
            # (2 cores); a model11 sweep calls xphi five times
            out = S @ phi[..., :2, :]
        else:  # row t gathers the two rows of its block's A
            rows = 2 * self.a_idx
            out = np.take(phi, rows, axis=-2)
            out *= S[:, :1]
            odd = np.take(phi, rows + 1, axis=-2)
            odd *= S[:, 1:]
            out += odd
        if info.n_eta:
            out += np.take(phi, 2 * info.n_a + self.eta_idx, axis=-2)
        return out

    @cached_property
    def deficient_blocks(self) -> tuple[str, ...]:
        """Blocks whose columns leave X rank deficient, judged with the
        tolerance of np.linalg.matrix_rank on the dense X."""
        if not self.p:
            return ()
        S, info = self.source_points, self.info
        s1, s2 = _block_singular_values(S, self.a_idx, _block_grams(S, self.a_idx, info.n_a))
        # without intercept columns, X's singular values are the blocks'
        tol = s1.max() * max(self.n, self.p) * np.finfo(float).eps
        labels = tuple(f"A[{lab}]" for lab, s in zip(info.a_labels, s2) if not s > tol)
        if info.n_eta:
            # intercept columns couple the blocks; this X is small
            if np.linalg.matrix_rank(self.X) == self.p:
                return ()
            return labels or ("intercept columns",)
        return labels

    @property
    def rank_deficient(self) -> bool:
        return bool(self.deficient_blocks)


def source_cells(spec: ModelSpec, series: PlanarSeries, tess: Tessellation | None = None):
    """Tessellation cell of each source day (every day but the last), or
    None when the spec has no cell blocks. Cells come from `tess` when it is
    given, otherwise from the series' node assignments."""
    tess = _checked_tess(tess)
    if not spec.needs_cells:
        return None
    if tess is not None:
        return tess.assign(series.points[:-1])
    if series.node_assignment is not None:
        return series.node_assignment[:-1]
    raise DataError("cell-dependent blocks need a tessellation or node assignments")


def stack_design(
    series: PlanarSeries,
    spec: ModelSpec,
    tess: Tessellation | None = None,
    info: DesignInfo | None = None,
) -> DesignPair:
    """One-step design of a trajectory, in the column layout of `info` when
    given and of the blocks the days visit otherwise."""
    S = np.ascontiguousarray(series.points[:-1])
    cells = source_cells(spec, series, tess)
    dates = None if series.dates is None else series.dates[:-1]
    info, a_idx, eta_idx = block_indices(spec, S.shape[0], cells, dates, info)
    return DesignPair(Y=series.points[1:], source_points=S, a_idx=a_idx, eta_idx=eta_idx,
                      info=info)


def _first_few(labels, limit: int = 5) -> str:
    shown = ", ".join(labels[:limit])
    return shown if len(labels) <= limit else f"{shown} and {len(labels) - limit} more"


def build_design(
    series: PlanarSeries, spec: ModelSpec | str, tess: Tessellation | None = None
) -> DesignPair:
    """Lay out the one-step design for a planar trajectory."""
    spec = resolve_spec(spec)
    if series.n_days < 3:
        raise EmptySeries(f"need at least 3 days to regress, got {series.n_days}")
    design = stack_design(series, spec, tess)
    if design.rank_deficient:
        warnings.warn(
            f"design is rank deficient ({design.p} columns): "
            f"{_first_few(design.deficient_blocks)}",
            RankWarning,
            stacklevel=2,
        )
    return design


# ---------------------------------------------------------------------------
# Closed-form estimates


def mle_var(design: DesignPair) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares Phi and the 1/n residual covariance."""
    phi = design.gram.solve(design.xt(design.Y)) if design.p else np.zeros((0, 2))
    resid = design.Y - design.xphi(phi)
    sigma = resid.T @ resid / design.n
    return phi, 0.5 * (sigma + sigma.T)


# ---------------------------------------------------------------------------
# Kriging pieces: exponential correlation, predictive-process basis


def _check_decay(theta: float) -> None:
    if theta <= 0.0 or not np.isfinite(theta):
        raise NonPositiveDecay(f"decay rate must be positive, got {theta}")


def exp_corr(a: np.ndarray, b: np.ndarray, theta: float) -> np.ndarray:
    """exp(-theta * distance), elementwise over two point sets."""
    _check_decay(theta)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return np.exp(-theta * _lapack.cdist(a, b))


# Diagonal jitters tried, in order, on a correlation matrix that does not factor.
JITTER_LADDER = (1e-10, 1e-09, 1e-08, 1e-07, 1e-06)


def chol_spd(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor with the JITTER_LADDER fallback.

    Returns (L, jitter_used); raises IllConditioned when even the largest
    jitter cannot make the matrix factorizable.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return np.linalg.cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(mat.shape[0])
    for j in JITTER_LADDER:
        try:
            return np.linalg.cholesky(mat + j * eye), j
        except np.linalg.LinAlgError:
            continue
    raise IllConditioned(
        f"correlation matrix not factorizable even with jitter {JITTER_LADDER[-1]}"
    )


def _check_knots(knots: np.ndarray) -> np.ndarray:
    knots = _doc.reals(knots, "knots", (None, 2))
    if len(knots) < 1:
        raise DataError("need at least one knot")
    if len(knots) > 1:
        d = _lapack.cdist(knots, knots)
        d[np.diag_indices_from(d)] = np.inf
        if d.min() == 0.0:
            raise DataError("knots must be distinct")
    return knots


def pp_basis(points: np.ndarray, knots: np.ndarray, theta: float) -> np.ndarray:
    """Predictive-process interpolation weights, shape (n, m).

    Row s solves w(s) = c(s)' C*^{-1}, so a field value at s is w(s) @ wstar.
    At a knot the weights reduce to that knot's unit vector.
    """
    knots = _check_knots(knots)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cstar = exp_corr(knots, knots, theta)
    L, _ = chol_spd(cstar)
    cross = exp_corr(knots, pts, theta)
    return _lapack.cho_solve((L, True), cross).T


def coregionalize(q: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Q (w1(s), w2(s))' at every point, shape (n, 2)."""
    out = np.empty((w1.shape[0], 2))
    np.multiply(q[0, 0], w1, out=out[:, 0])
    np.add(q[1, 0] * w1, q[1, 1] * w2, out=out[:, 1])
    return out


class PredictiveProcess:
    """Knot geometry of the predictive-process intercept at fixed points.

    The knot-to-knot and knot-to-point distances are computed once. A field
    value w(s) = c(s)' C*^{-1} w* is then exp(-theta D)' (C*^{-1} w*): one
    m x m Cholesky, one m-vector solve and one mat-vec. The n x m basis of
    pp_basis is never formed.
    """

    def __init__(self, knots: np.ndarray, points: np.ndarray):
        self.knots = _check_knots(knots)
        self.d_knots = _lapack.cdist(self.knots, self.knots)
        self.d_points = _lapack.cdist(self.knots, np.atleast_2d(np.asarray(points, dtype=float)))
        self._cross = None  # field's m x n buffer, made on its first call

    def factor(self, theta: float) -> tuple[np.ndarray, float]:
        """Cholesky of C*(theta) and the jitter chol_spd needed for it."""
        _check_decay(theta)
        return chol_spd(np.exp(-theta * self.d_knots))

    def cross(self, theta: float, out: np.ndarray | None = None) -> np.ndarray:
        """Knot-to-point correlations exp(-theta D), shape (m, n), written
        into `out` when given."""
        _check_decay(theta)
        out = np.multiply(self.d_points, -theta, out=out)
        return np.exp(out, out=out)

    @staticmethod
    def interpolate(L: np.ndarray, cross: np.ndarray, wstar: np.ndarray) -> np.ndarray:
        """Field values cross' C*^{-1} wstar, with L the Cholesky of C*."""
        return cross.T @ _lapack.cho_solve((L, True), wstar, check_finite=False)

    def field(self, theta: float, wstar: np.ndarray) -> np.ndarray:
        """Values at the points of the field with knot values wstar, shape (n,)."""
        L = self.factor(theta)[0]
        self._cross = self.cross(theta, out=self._cross)
        return self.interpolate(L, self._cross, wstar)

    def eta(self, theta: np.ndarray, q: np.ndarray, wstar: np.ndarray) -> np.ndarray:
        """The coregionalized spatial intercept Q (w1, w2)' at the points,
        shape (n, 2), of field k with decay theta[k] and knot values
        wstar[k]."""
        w1 = self.field(float(theta[0]), wstar[0])
        w2 = self.field(float(theta[1]), wstar[1])
        return coregionalize(q, w1, w2)


def domain_diameter(points: np.ndarray) -> float:
    """Diagonal length of the bounding box of a point set."""
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
