"""Self-organizing maps over daily state vectors.

Nodes live on a fixed near-square planar lattice (unit spacing, centered at
the origin) and carry codebook vectors in the data space. Two trainers are
provided:

* ``train_online``: one random day per step, winner ``c`` by smallest
  Euclidean distance, update ``w_m += alpha(t) * K(m, c) * (x - w_m)``.
* ``train_batch``: one pass per epoch; every node becomes the
  neighborhood-weighted mean of the days won by each center,
  ``w_m = sum_i h(m, c(i)) x_i / sum_i h(m, c(i))`` with ``h = alpha * K``
  (the learning rate cancels in the ratio).

Both anneal alpha and the kernel width sigma linearly inside two phases: a
coarse ordering phase and a fine tuning phase. The batch trainer keeps
iterating at the final values until node movement falls below tolerance.

Neighborhoods can be measured on the lattice (``"map"``) or between codebook
vectors (``"data"``). The Gaussian kernel is ``exp(-D^2 / (2 sigma^2))``; the
bubble kernel is the indicator of ``D <= sigma``. At ``sigma = 0`` both
collapse to the winner-only update.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import _doc, _lapack
from .data_model import as_matrix
from .errors import DataError, DimensionMismatch, EmptyData, MalformedHeader, NonFiniteUpdate

KERNELS = ("gaussian", "bubble")
SPACES = ("map", "data")

Pair = tuple[float, float]


def lattice_coords(n_nodes: int) -> np.ndarray:
    """Near-square lattice positions, unit spacing, centered at the origin.

    Node k sits at row ``k // n_cols``, column ``k % n_cols``, rows counted
    upward, so node 0 is the bottom-left corner.
    """
    if _doc.nonneg_int(n_nodes, "n_nodes") < 1:
        raise DataError("need at least one node")
    n_cols = max(1, int(math.floor(math.sqrt(n_nodes))))
    rows = np.arange(n_nodes) // n_cols
    cols = np.arange(n_nodes) % n_cols
    coords = np.column_stack([cols, rows]).astype(float)
    return coords - coords.mean(axis=0)


def lattice_shape(n_nodes: int) -> tuple[int, int]:
    """(n_rows, n_cols) of the lattice used by lattice_coords."""
    n_cols = max(1, int(math.floor(math.sqrt(n_nodes))))
    return math.ceil(n_nodes / n_cols), n_cols


def _interp(i: int, n: int, start: float, end: float) -> float:
    if n <= 1:
        return start
    return start + (end - start) * (i / (n - 1))


def _two_phase(pairs: tuple[Pair, Pair], i: int, n1: int, n2: int) -> float:
    """Value at step i of a schedule moving linearly from start to end over
    n1 steps, then over n2 more, and held at the last end after them."""
    (s1, e1), (s2, e2) = pairs
    if i < n1:
        return _interp(i, n1, s1, e1)
    if i < n1 + n2:
        return _interp(i - n1, n2, s2, e2)
    return e2


def _has_shape(value, shape: tuple) -> bool:
    try:
        return np.shape(value) == shape
    except ValueError:  # a ragged nesting has no shape
        return False


@dataclass(frozen=True)
class SomConfig:
    """Training hyperparameters.

    ``phase_steps=None`` picks the defaults: (10*T, 40*T) sample steps for the
    online trainer, (10, 40) epochs for the batch trainer. ``sigma=None``
    starts phase 1 at half the lattice diameter (at least one spacing) and
    ends both phases at one spacing.
    """

    n_nodes: int
    kernel: str = "gaussian"
    neighborhood_space: str = "map"
    alpha: tuple[Pair, Pair] = ((0.5, 0.05), (0.05, 0.01))
    sigma: tuple[Pair, Pair] | None = None
    phase_steps: tuple[int, int] | None = None
    rng_seed: int = 0
    convergence_tol: float = 1e-6
    max_epochs: int = 1000

    def __post_init__(self):
        for name in ("n_nodes", "rng_seed", "max_epochs"):
            object.__setattr__(self, name, _doc.nonneg_int(getattr(self, name), name))
        for name, shape, what in (("alpha", (2, 2), "two (start, end) phases"),
                                  ("sigma", (2, 2), "two (start, end) phases"),
                                  ("phase_steps", (2,), "two counts")):
            value = getattr(self, name)
            if value is not None and not _has_shape(value, shape):
                raise DataError(f"{name} must be {what}, got {value!r}")
        if self.phase_steps is not None:
            object.__setattr__(self, "phase_steps", tuple(
                _doc.nonneg_int(n, "phase step count") for n in self.phase_steps))
        if self.n_nodes < 1:
            raise DataError("n_nodes must be >= 1")
        if self.kernel not in KERNELS:
            raise DataError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.neighborhood_space not in SPACES:
            raise DataError(
                f"neighborhood_space must be one of {SPACES}, got {self.neighborhood_space!r}"
            )
        for phase in self.alpha:
            for a in phase:
                if not 0.0 < _doc.finite_real(a, "alpha") <= 1.0:
                    raise DataError("alpha values must be in (0, 1]")
        if self.sigma is not None:
            for phase in self.sigma:
                for s in phase:
                    if _doc.finite_real(s, "sigma") < 0.0:
                        raise DataError("sigma values must be >= 0")
        if _doc.finite_real(self.convergence_tol, "convergence_tol") <= 0.0:
            raise DataError("convergence_tol must be positive")
        if self.max_epochs < 1:
            raise DataError("max_epochs must be >= 1")

    def sigma_pairs(self) -> tuple[Pair, Pair]:
        if self.sigma is not None:
            return self.sigma
        coords = lattice_coords(self.n_nodes)
        diameter = 0.0
        if self.n_nodes > 1:
            diameter = float(np.max(_lapack.cdist(coords, coords)))
        start = max(diameter / 2.0, 1.0)
        return ((start, 1.0), (1.0, 1.0))

    def alpha_at(self, i: int, n1: int, n2: int) -> float:
        return _two_phase(self.alpha, i, n1, n2)


@dataclass(frozen=True)
class SomModel:
    """Trained map: codebook vectors plus their fixed lattice positions."""

    nodes: np.ndarray
    planar: np.ndarray
    config: SomConfig
    provenance: str = ""

    def __post_init__(self):
        nodes = _doc.reals(self.nodes, "nodes", (None, None))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "planar", _doc.reals(self.planar, "planar", (len(nodes), 2)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


@dataclass(frozen=True)
class OnlineTrace:
    """Per-epoch (block of T steps) maximum node displacement."""

    displacements: np.ndarray
    n_steps: int


@dataclass(frozen=True)
class BatchTrace:
    displacements: np.ndarray
    empty_neighborhoods: tuple[tuple[int, int], ...]
    n_epochs: int
    converged: bool


def _data_hash(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()


def _checked_matrix(data) -> np.ndarray:
    x = as_matrix(data)
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise EmptyData(f"nothing to train on, data shape {x.shape}")
    return x


def _init(rng: np.random.Generator, data: np.ndarray, n_nodes: int) -> np.ndarray:
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    return lo + rng.random((n_nodes, data.shape[1])) * (hi - lo)


def _kernel_row(d2: np.ndarray, sigma: float, kernel: str) -> np.ndarray:
    """Neighborhood weights from squared distances to the winner, entry by
    entry, so a matrix of every node's row gives every node's weights."""
    if sigma <= 0.0:
        return (d2 == 0.0).astype(float)
    if kernel == "gaussian":
        return np.exp(-d2 / (2.0 * sigma * sigma))
    return (d2 <= sigma * sigma).astype(float)


def train_online(data, config: SomConfig) -> tuple[SomModel, OnlineTrace]:
    """Sequential trainer; runs exactly its two-phase step budget."""
    x = _checked_matrix(data)
    T = x.shape[0]
    n1, n2 = config.phase_steps if config.phase_steps is not None else (10 * T, 40 * T)
    rng = np.random.default_rng(config.rng_seed)
    nodes = _init(rng, x, config.n_nodes)
    planar = lattice_coords(config.n_nodes)
    planar_d2 = _lapack.cdist(planar, planar, "sqeuclidean")
    use_map = config.neighborhood_space == "map"
    sigmas = config.sigma_pairs()

    total = n1 + n2
    picks = rng.integers(0, T, size=total) if total else np.empty(0, dtype=int)
    displacements = []
    snapshot = nodes.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(total):
            alpha = config.alpha_at(i, n1, n2)
            sigma = _two_phase(sigmas, i, n1, n2)
            xi = x[picks[i]]
            diff = xi - nodes
            c = int(np.argmin((diff * diff).sum(axis=1)))
            if use_map:
                d2 = planar_d2[c]
            else:
                d2 = ((nodes - nodes[c]) ** 2).sum(axis=1)
            k = _kernel_row(d2, sigma, config.kernel)
            nodes += alpha * k[:, None] * diff
            if (i + 1) % T == 0 or i + 1 == total:
                if not np.all(np.isfinite(nodes)):
                    raise NonFiniteUpdate(f"non-finite node after step {i + 1}")
                displacements.append(float(np.linalg.norm(nodes - snapshot, axis=1).max()))
                snapshot = nodes.copy()

    model = SomModel(nodes=nodes, planar=planar, config=config, provenance=_data_hash(x))
    return model, OnlineTrace(displacements=np.asarray(displacements), n_steps=total)


def _node_sums(x: np.ndarray, winners: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sum of the rows of x won by each node, shape (n_nodes, d): bit for bit
    ``np.add.at(zeros, winners, x)``, which adds each node's rows one at a
    time, in day order, starting from +0.0."""
    sums = np.zeros((n_nodes, x.shape[1]))
    for m in np.unique(winners):
        rows = x[winners == m]  # a C-contiguous copy, whatever the layout of x
        if x.shape[1] > 1:
            # Over axis 0 of a C-contiguous array numpy's inner loop runs along
            # a row, so each column is summed in day order from the initial
            # +0.0. A reduction along a contiguous axis (one column) would use
            # numpy's pairwise sum and change bits.
            np.add.reduce(rows, axis=0, initial=0.0, out=sums[m])
        else:
            # accumulate is sequential; adding +0.0 turns the -0.0 an all -0.0
            # column keeps into the +0.0 a sum started at +0.0 gives
            sums[m] = np.add.accumulate(rows)[-1] + 0.0
    return sums


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row (inf where it overflows)."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", x, x)


def _winners(x: np.ndarray, nodes: np.ndarray, x_norms: np.ndarray) -> np.ndarray:
    """Index of the nearest node for every row of x, with x_norms =
    ``_row_norms(x)``: exactly ``np.argmin(cdist(x, nodes, "sqeuclidean"),
    axis=1)``, ties to the smallest index.

    One GEMM screens every pair, ``s = |x|^2 + |w|^2 - 2 x.w``. With
    ``S = |x|^2 + |w|^2`` and eps = 2^-52, the rounding errors of s and of
    cdist's sum of d squared differences (in whatever order either adds) are
    each below ``(d + 2) * eps * S + 2d * 2^-1074`` to first order (the
    second term covers underflow), so

        e = 4 (d + 2) * (eps * S + 2^-1074)

    bounds both together, with room for higher-order terms and for the
    rounding of S and of ``s +- e`` themselves. A row is certified when every
    other node's ``s - e`` lies strictly above the screened winner's
    ``s + e``: cdist's value for the winner is then below every other node's,
    so its argmin is the same node. The other rows (near-ties, exact ties,
    overflow or NaN, where a comparison comes out False or a bound is not
    finite) are recomputed with cdist, on those rows alone."""
    c = 4.0 * (x.shape[1] + 2)
    # (M, n): a reduction over the M nodes then runs along whole rows
    with np.errstate(over="ignore", invalid="ignore"):
        S = _row_norms(nodes)[:, None] + x_norms
        s = S - 2.0 * (nodes @ x.T)
        e = c * (np.finfo(float).eps * S + np.finfo(float).smallest_subnormal)
        win = np.argmin(s, axis=0)
        days = np.arange(x.shape[0])
        hi = s + e
        lo = s - e
        lo[win, days] = np.inf
        certified = (lo.min(axis=0) > hi[win, days]) & np.isfinite(hi).all(axis=0)
    redo = np.flatnonzero(~certified)
    if redo.size:
        win[redo] = np.argmin(_lapack.cdist(x[redo], nodes, "sqeuclidean"), axis=1)
    return win


def train_batch(data, config: SomConfig) -> tuple[SomModel, BatchTrace]:
    """Epoch trainer; anneals through its phase budget, then iterates at the
    final alpha/sigma until max node displacement < convergence_tol.

    Summation order is part of the result: each epoch's per-node sums
    (``_node_sums``) add every node's won rows one at a time, in day order,
    starting from +0.0, exactly as ``np.add.at`` does. A sum step that
    changes that order changes the map's bytes.

    So is the winner search: every epoch's winners are exactly those of
    ``np.argmin(cdist(x, nodes, "sqeuclidean"), axis=1)``. ``_winners``
    screens them with one GEMM and an error bound and recomputes with cdist
    the rows the bound cannot certify."""
    x = _checked_matrix(data)
    n1, n2 = config.phase_steps if config.phase_steps is not None else (10, 40)
    rng = np.random.default_rng(config.rng_seed)
    nodes = _init(rng, x, config.n_nodes)
    planar = lattice_coords(config.n_nodes)
    planar_d2 = _lapack.cdist(planar, planar, "sqeuclidean")
    use_map = config.neighborhood_space == "map"
    M = config.n_nodes
    sigmas = config.sigma_pairs()
    x_norms = _row_norms(x)

    displacements = []
    empty = []
    converged = False
    epoch = 0
    while epoch < config.max_epochs:
        sigma = _two_phase(sigmas, epoch, n1, n2)
        winners = _winners(x, nodes, x_norms)
        counts = np.bincount(winners, minlength=M).astype(float)
        sums = _node_sums(x, winners, M)
        if use_map:
            d2 = planar_d2
        else:
            d2 = _lapack.cdist(nodes, nodes, "sqeuclidean")
        k = _kernel_row(d2, sigma, config.kernel)
        numer = k @ sums
        denom = k @ counts
        new_nodes = nodes.copy()
        hit = denom > 0
        with np.errstate(invalid="ignore", over="ignore"):
            new_nodes[hit] = numer[hit] / denom[hit, None]
        for m in np.flatnonzero(~hit):
            empty.append((epoch, int(m)))
        if not np.all(np.isfinite(new_nodes)):
            raise NonFiniteUpdate(f"non-finite node in epoch {epoch}")
        move = float(np.linalg.norm(new_nodes - nodes, axis=1).max())
        displacements.append(move)
        nodes = new_nodes
        epoch += 1
        if epoch >= n1 + n2 and move < config.convergence_tol:
            converged = True
            break

    model = SomModel(nodes=nodes, planar=planar, config=config, provenance=_data_hash(x))
    trace = BatchTrace(
        displacements=np.asarray(displacements),
        empty_neighborhoods=tuple(empty),
        n_epochs=epoch,
        converged=converged,
    )
    return model, trace


def _rows_to_map(data, model: SomModel) -> np.ndarray:
    """`data` as a matrix of finite rows (`as_matrix`) of the model's
    dimension."""
    x = _checked_matrix(data)
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"data dim {x.shape[1]} != model dim {model.dim}")
    return x


@dataclass(frozen=True)
class QuantizationReport:
    overall: float
    per_node_mean: np.ndarray
    counts: np.ndarray


def quantization_error(data, model: SomModel) -> QuantizationReport:
    """Mean distance from each day to its winning node, overall and per node."""
    x = _rows_to_map(data, model)
    d2 = _lapack.cdist(x, model.nodes, "sqeuclidean")
    winners = np.argmin(d2, axis=1)
    dists = np.sqrt(d2[np.arange(x.shape[0]), winners])
    M = model.n_nodes
    counts = np.bincount(winners, minlength=M)
    per_node = np.full(M, np.nan)
    for m in range(M):
        if counts[m]:
            per_node[m] = dists[winners == m].mean()
    return QuantizationReport(
        overall=float(dists.mean()), per_node_mean=per_node, counts=counts
    )


def assign(data, model: SomModel) -> np.ndarray:
    """Winning node index for every row of data, all finite: exactly
    ``np.argmin(cdist(x, model.nodes, "sqeuclidean"), axis=1)``. ``_winners``
    screens with one GEMM and recomputes with cdist the rows whose winner its
    error bound ``4 (d + 2) * (eps * (|x|^2 + |w|^2) + 2^-1074)`` cannot
    certify."""
    x = _rows_to_map(data, model)
    return _winners(x, model.nodes, _row_norms(x))


def som_to_dict(model: SomModel) -> dict:
    return {
        "format": "STVAR-SOM",
        "version": 1,
        "n_nodes": model.n_nodes,
        "dim": model.dim,
        # every SomConfig field but n_nodes, in field order
        "config": {k: v for k, v in asdict(model.config).items() if k != "n_nodes"},
        "planar": model.planar.tolist(),
        "nodes": model.nodes.tolist(),
        "provenance": model.provenance,
    }


def som_from_dict(doc: dict) -> SomModel:
    doc = _doc.fields(
        doc, "map",
        {"format": str, "version": int, "n_nodes": int, "dim": int, "config": dict,
         "planar": list, "nodes": list},
        {"provenance": str},
    )
    if doc["format"] != "STVAR-SOM":
        raise MalformedHeader("not a map document")
    if doc["version"] != 1:
        raise MalformedHeader(f"unsupported map version {doc['version']!r}")
    n = doc["n_nodes"]
    nodes = _doc.array(doc["nodes"], "map", "nodes", (n, doc["dim"]))
    planar = _doc.array(doc["planar"], "map", "planar", (n, 2))
    kind = "map config"
    c = _doc.fields(
        doc["config"], kind,
        {"kernel": str, "neighborhood_space": str, "alpha": list, "sigma": (list, None),
         "phase_steps": (list, None), "rng_seed": int, "convergence_tol": float,
         "max_epochs": int},
    )
    # the three sequence fields back to the nested tuples SomConfig holds
    for key, shape, dtype in (("alpha", (2, 2), float), ("sigma", (2, 2), float),
                              ("phase_steps", (2,), int)):
        if c[key] is not None:
            arr = _doc.array(c[key], kind, key, shape, dtype)
            c[key] = tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())
    config = SomConfig(n_nodes=n, **c)
    return SomModel(nodes=nodes, planar=planar, config=config,
                    provenance=doc.get("provenance", ""))


def save_som(model: SomModel, path) -> None:
    Path(path).write_text(json.dumps(som_to_dict(model)))


@_doc.names_path
def load_som(path) -> SomModel:
    return som_from_dict(_doc.read_json(path, "map"))


def replace_planar(model: SomModel, planar: np.ndarray) -> SomModel:
    """New model with the lattice positions swapped for an embedding."""
    return replace(model, planar=planar)
