"""Posterior sampling for the planar VAR ladder, under a flat prior on Phi
and a Jeffreys prior on Sigma (Zellner 1971, ch. 8):
  Sigma                IW(S_hat, n - p), its marginal, without a field
  Sigma | Phi,  eta    IW(current residual scale, n), with a field
  Phi   | Sigma, eta   matrix normal around the current least-squares fit
  theta_k              random-walk Metropolis on the log scale, uniform prior
                       on (0, 300 / domain_diameter], proposal step tuned
                       during burn-in
  w*_k                 joint Gaussian over both knot-value vectors
  q_ij                 scalar Gaussians, diagonal entries truncated positive

The tuning is fixed, not configured: each theta's log-scale step starts at
PROPOSAL_SCALE = 0.5 and, every ADAPT_INTERVAL = 50 burn-in proposals, moves
towards the acceptance rate TARGET_ACCEPT = 0.30; the q_ij have N(0, 10^2)
priors (Q_PRIOR_SD); and a chain whose worst split R-hat exceeds
RHAT_THRESHOLD = 1.2, the cut of Brooks & Gelman (JCGS 7:434, 1998), warns
that it has not converged. McmcConfig holds only the sweep counts and the
seed. Chain files written before the tuning, the Sigma mode and the theta
bound were fixed carry them in their `config` object and are refused with
the key named.

The inverse-Wishart draw is the Bartlett decomposition (Odell & Feiveson,
JASA 61:199, 1966) and the truncated-normal draw is one uniform through the
truncated inverse cdf. Both use the random numbers, in the order and with
the arithmetic, of scipy.stats' invwishart.rvs and truncnorm.rvs, so a seed
gives the same chain bytes without importing scipy.stats; tests pin that.

The sweep calls LAPACK directly: every Cholesky solve, triangular solve and
inverse-Wishart Cholesky goes to scipy's own potrs, trtrs and potrf through
stvar._lapack, without scipy.linalg's Python wrappers, and the two-term
log-sum-exp of the truncated-normal draw writes out scipy.special.logsumexp's
arithmetic. The chain bytes are those the scipy calls give; tests pin that.
Every scipy routine here (LAPACK, BLAS trsm/trmm and the normal-cdf
functions) is reached through stvar._lapack, which binds it at the first
call: LAPACK and BLAS from scipy's compiled modules, loaded without any
scipy package, and the normal-cdf functions from scipy.special. Importing
this module loads numpy alone, and later calls cost what they would with
scipy imported up front.

_Sampler draws Phi and Sigma. _Field holds the spatial conditionals of
model11's predictive process (Banerjee et al., JRSS-B 70:825, 2008) and
their caches; a sampler without knots builds none. Without a field phi_hat
and S_hat are computed once and a sweep draws Sigma, then Phi | Sigma: an
exact, independent posterior draw in O(p) whatever the number of days. With
one a sweep draws Phi, Sigma, then the field. Both refuse n - p < 2 (n days
regressed on p columns), where Sigma's posterior is improper.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _doc, _lapack
from .errors import (
    DataError,
    EmptySeries,
    LengthMismatch,
    MalformedHeader,
    NonConvergenceWarning,
    NonPDScale,
    NonPositiveDecay,
    NumericalError,
)
from .models import (
    DesignInfo,
    DesignPair,
    ModelSpec,
    PredictiveProcess,
    build_design,
    chol_spd,
    coregionalize,
    domain_diameter,
    mle_var,
    resolve_spec,
    spec_from_dict,
    spec_to_dict,
    stack_design,
)
from .projection import PlanarSeries, Tessellation, _checked_tess

PROPOSAL_SCALE = 0.5  # initial log-scale step of each theta proposal
TARGET_ACCEPT = 0.30  # acceptance rate the burn-in steers each theta towards
ADAPT_INTERVAL = 50  # theta proposals per burn-in tuning window
Q_PRIOR_SD = 10.0  # prior sd of each free entry of the coregionalization Q
RHAT_THRESHOLD = 1.2  # split R-hat above which a chain warns it has not converged


@dataclass(frozen=True)
class McmcConfig:
    """Sweep counts and seeding of one chain."""

    n_iter: int = 10000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_iter", "burn_in", "thin", "seed"):
            object.__setattr__(self, name, _doc.nonneg_int(getattr(self, name), name))
        if self.n_iter <= self.burn_in:
            raise DataError("need n_iter > burn_in >= 0")
        if self.thin < 1:
            raise DataError("thin must be at least 1")

    @property
    def n_kept(self) -> int:
        return (self.n_iter - self.burn_in + self.thin - 1) // self.thin


def _blocks(p: int, m: int | None) -> tuple:
    """The parameter blocks of one draw as ((name, shape), ...), in chain-file
    order; the spatial intercept's blocks only when there are m knots."""
    blocks = (("phi", (p, 2)), ("sigma", (2, 2)))
    if m is not None:
        blocks += (("theta", (2,)), ("q", (2, 2)), ("wstar", (2, m)))
    return blocks


_BLOCK_NAMES = tuple(name for name, _ in _blocks(0, 0))
_RHAT_SKIP = {"sigma": 2, "q": 1}  # flat index of sigma's symmetric copy, q's structural zero


def _pd2(mat: np.ndarray):
    """Exact positive-definiteness test for symmetric 2x2 matrices, over
    any leading axes."""
    det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    return (mat[..., 0, 0] > 0.0) & (det > 0.0)


def check_draws(blocks: dict, p: int, m: int | None) -> None:
    """Refuse parameter values that are no draw of the layout _blocks(p, m).

    `blocks` maps each block name to its draws, stacked on a leading axis.
    In every draw each value is finite, sigma is exactly symmetric and
    positive definite, and with a spatial intercept the decay rates are
    positive and q is lower triangular with a positive diagonal. The error
    names the first bad draw, counting from 1.
    """
    layout = dict(_blocks(p, m))
    if set(blocks) != set(layout):
        raise DataError(f"draw blocks {sorted(blocks)} do not match the layout {list(layout)}")
    for name, shape in layout.items():
        if blocks[name].shape[1:] != shape:
            raise DataError(f"{name} shape {blocks[name].shape[1:]} does not match the "
                            f"layout {shape}")
    n = blocks["phi"].shape[0]
    finite = [np.isfinite(block).reshape(n, -1).all(axis=1) for block in blocks.values()]
    sigma = blocks["sigma"]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan sigma: refused either way
        rules = [
            (~np.logical_and.reduce(finite), DataError, "non-finite value"),
            (sigma[:, 0, 1] != sigma[:, 1, 0], DataError, "sigma must be symmetric"),
            (~_pd2(sigma), DataError, "sigma must be positive definite"),
        ]
    if m is not None:
        theta, q = blocks["theta"], blocks["q"]
        rules += [((theta <= 0.0).any(axis=1), NonPositiveDecay, "decay rates must be positive"),
                  (q[:, 0, 1] != 0.0, DataError, "q must be lower triangular"),
                  ((q[:, 0, 0] <= 0.0) | (q[:, 1, 1] <= 0.0), DataError,
                   "q must have a positive diagonal")]
    bad = np.vstack([rule for rule, _, _ in rules])
    if bad.any():
        draw = int(np.argmax(bad.any(axis=0)))
        _, error, what = rules[int(np.argmax(bad[:, draw]))]
        raise error(f"draw {draw + 1}: {what}")


@dataclass
class Chain:
    """Retained posterior draws plus everything needed to predict from them."""

    spec: ModelSpec
    a_keys: tuple
    eta_keys: tuple
    phi: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray | None
    q: np.ndarray | None
    wstar: np.ndarray | None
    knots: np.ndarray | None
    tess_sites: np.ndarray | None
    n_obs: int
    config: McmcConfig
    acceptance: dict = field(default_factory=dict)
    tuning: dict = field(default_factory=dict)  # run_chain only; not in chain files
    rhat_max: float = float("nan")
    converged: bool = True

    @property
    def n_draws(self) -> int:
        return self.phi.shape[0]

    @property
    def is_spatial(self) -> bool:
        return self.spec.eta_structure == "spatial"

    @property
    def info(self) -> DesignInfo:
        return DesignInfo(self.spec, self.a_keys, self.eta_keys)

    def tessellation(self, tess: Tessellation | None = None) -> Tessellation | None:
        """`tess` when given, else the tessellation the chain was fitted with."""
        if tess is not None:
            return _checked_tess(tess)
        return None if self.tess_sites is None else Tessellation(sites=self.tess_sites)

    @property
    def _layout(self) -> tuple:
        return _blocks(self.phi.shape[1], self.knots.shape[0] if self.is_spatial else None)

    def _rows(self) -> np.ndarray:
        """Every draw as one flat row, blocks in layout order."""
        return np.hstack([getattr(self, name).reshape(self.n_draws, -1)
                          for name, _ in self._layout])

    def draw_indices(self, n_draws: int | None) -> np.ndarray:
        """Evenly spaced draw indices; all of them when n_draws is None."""
        if n_draws is None or _doc.nonneg_int(n_draws, "n_draws") >= self.n_draws:
            return np.arange(self.n_draws)
        if n_draws < 1:
            raise DataError("need at least one draw")
        return np.unique(np.linspace(0, self.n_draws - 1, n_draws).round().astype(int))

    def posterior_mean(self) -> Chain:
        """The parameter-wise posterior means as a chain of one draw, draw 0
        (sigma symmetrized, q's upper entry zero)."""
        mean = {name: getattr(self, name).mean(axis=0) for name, _ in self._layout}
        mean["sigma"] = 0.5 * (mean["sigma"] + mean["sigma"].T)
        if "q" in mean:
            mean["q"] = np.tril(mean["q"])
        return replace(self, **{name: block[None] for name, block in mean.items()})


def _sandwich(L_j: np.ndarray, M: np.ndarray, L_k: np.ndarray) -> np.ndarray:
    """C_j^{-1} M C_k^{-1} for C = L L'."""
    inner = _lapack.cho_solve((L_k, True), M.T, check_finite=False).T
    return _lapack.cho_solve((L_j, True), inner, check_finite=False)


@functools.cache
def _strict_lower(dim: int) -> tuple:
    """Row and column indices below the diagonal of a dim x dim matrix, row by row."""
    return np.tril_indices(dim, k=-1)


def _invwishart(rng, df: int, scale: np.ndarray) -> np.ndarray:
    """One inverse-Wishart(df, scale) draw by the Bartlett decomposition.

    A is lower triangular with N(0, 1) below the diagonal and chi(df - dim +
    1 + i) at (i, i), so A'A ~ Wishart(df, I); with scale = C C' the draw is
    C (A'A)^{-1} C' = (C A^{-1})(C A^{-1})'.
    """
    dim = scale.shape[0]
    C = _lapack.cholesky(scale, lower=True)
    A = np.zeros((dim, dim))
    A[_strict_lower(dim)] = rng.normal(size=(dim * (dim - 1) // 2,))
    A[np.diag_indices(dim)] = rng.chisquare(df - dim + 1 + np.arange(dim), size=(dim,)) ** 0.5
    CA = _lapack.trsm(1.0, A, C, side=1, lower=True)
    return _lapack.trmm(1.0, CA, CA, side=1, lower=True, trans_a=True)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) by the arithmetic of scipy.special.logsumexp([x, y]):
    the larger term is split out and the other enters as exp(lo - hi) through
    log1p; equal terms give log1p(0) + log(2). Same bits for every non-NaN pair."""
    if x == y:
        return np.log1p(0.0) + np.log(2.0) + x
    lo, hi = (x, y) if x < y else (y, x)
    return np.log1p(np.exp(lo - hi)) + np.log(1.0) + hi


def _truncnorm_positive(rng, mean: float, sd: float) -> float:
    """One N(mean, sd^2) draw truncated to [0, inf), by the inverse cdf.

    With a = -mean / sd and q uniform, log P(Z >= a) is log1p(-Phi(a)) for
    a <= 0 and log Phi(-a) for a > 0. For a < 0 the standard draw x solves
    log Phi(x) = log(Phi(a) + q P(Z >= a)); for a >= 0 it solves
    log Phi(-x) = log((1 - q) P(Z >= a)), which stays finite far in the
    right tail.
    """
    a = (0.0 - mean) / sd
    q = rng.uniform()
    if a < 0:
        mass = _lapack.log1p(-_lapack.ndtr(a))
        x = _lapack.ndtri_exp(_logaddexp(_lapack.log_ndtr(a), np.log(q) + mass))
    else:
        mass = _lapack.log_ndtr(-a) if a > 0 else _lapack.log1p(-_lapack.ndtr(a))
        x = -_lapack.ndtri_exp(np.log1p(-q) + mass)
    return x * sd + mean


class _Field:
    """The spatial intercept eta = Q (w1, w2)' at the design's days: the
    decay rates theta, the coregionalization q and the knot values w*, their
    Metropolis and Gibbs updates, and the caches those updates share.

    Field k is held by the Cholesky L[k] of C*(theta_k) and the knot-to-day
    correlations K[k] = exp(-theta_k D); its values at the days are
    w[k] = K[k]' C*^{-1} w*_k, and the basis W_k = (C*^{-1} K[k])' is never
    formed. Every update reads R = Y - X Phi and Omega = Sigma^{-1} from the
    sweep, which holds both fixed from the Sigma update to the next Phi one.
    """

    def __init__(self, knots: np.ndarray, points: np.ndarray, upper: float, rng):
        self.rng = rng
        self.upper = float(upper)
        self.pp = PredictiveProcess(knots, points)
        self.m = self.pp.knots.shape[0]
        d_med = float(np.median(self.pp.d_knots[np.triu_indices(self.m, k=1)]))
        t0 = min(3.0 / d_med, self.upper)
        self.theta = np.array([t0, t0])
        self.q = np.eye(2)
        self.wstar = np.zeros((2, self.m))
        # a proposal's K is written here, and an accepted one swaps in
        # for the field's, whose array becomes the spare
        self._spare = np.empty_like(self.pp.d_points)
        self.max_jitter = 0.0
        self._log_step = np.log([PROPOSAL_SCALE] * 2)
        self._window_acc = np.zeros(2, dtype=int)
        self._window_n = np.zeros(2, dtype=int)
        self._kept_acc = np.zeros(2, dtype=int)
        self._kept_n = np.zeros(2, dtype=int)
        self.L, self.K, self._own_grams = [None, None], [None, None], [None, None]
        self._refresh_field(0)
        self._refresh_field(1)
        self._refresh_eta()

    def _factor(self, theta: float) -> np.ndarray:
        L, used = self.pp.factor(theta)
        self.max_jitter = max(self.max_jitter, used)
        return L

    def _set_field(self, k: int, L: np.ndarray, K: np.ndarray):
        self.L[k], self.K[k] = L, K
        self._own_grams[k] = self._cross_gram = None

    def _refresh_field(self, k: int):
        theta = float(self.theta[k])
        self._set_field(k, self._factor(theta), self.pp.cross(theta))

    def _refresh_eta(self):
        """Field values w[k] from w*_k; eta follows from them when next read."""
        self.w = [self.pp.interpolate(self.L[k], self.K[k], self.wstar[k]) for k in (0, 1)]
        self._eta = None

    @property
    def eta(self) -> np.ndarray:
        """The intercept at the days, formed on the first read after w moves.
        In a sweep nothing reads it between update_wstar and update_q, which
        sets it, so the sweep never forms it there."""
        if self._eta is None:
            self._eta = coregionalize(self.q, *self.w)
        return self._eta

    def _gram(self):
        """W_j' W_k = C_j^{-1} (K_j K_k') C_k^{-1} and the inverses C_k^{-1}.

        Each block is kept until a field it reads moves: W_k' W_k and
        C_k^{-1} per field k, W_1' W_2 until either field moves.
        """
        L, K = self.L, self.K
        for k in (0, 1):
            if self._own_grams[k] is None:
                self._own_grams[k] = (_sandwich(L[k], K[k] @ K[k].T, L[k]),
                                      _lapack.cho_solve((L[k], True), np.eye(self.m)))
        if self._cross_gram is None:
            self._cross_gram = _sandwich(L[0], K[0] @ K[1].T, L[1])
        (g11, c1inv), (g22, c2inv) = self._own_grams
        return g11, g22, self._cross_gram, c1inv, c2inv

    def _logpost(self, k, L, eta, R, omega):
        """Joint log density terms that move with theta_k (constants dropped),
        for field k at factor L and the intercept eta it gives."""
        e = R - eta
        loglik = -0.5 * float(((e @ omega) * e).sum())
        v = _lapack.solve_triangular(L, self.wstar[k], lower=True)
        logprior = -0.5 * float(v @ v) - float(np.log(np.diag(L)).sum())
        return loglik + logprior

    def update_theta(self, k: int, R: np.ndarray, omega: np.ndarray, adapting: bool):
        cur = float(self.theta[k])
        step = float(np.exp(self._log_step[k]))
        prop = cur * float(np.exp(step * self.rng.standard_normal()))
        self._window_n[k] += 1
        if not adapting:
            self._kept_n[k] += 1
        if 0.0 < prop <= self.upper:
            try:
                L_prop = self._factor(prop)
            except NumericalError:  # C*(prop) cannot be factored: reject
                pass
            else:
                K_prop = self.pp.cross(prop, out=self._spare)
                w = list(self.w)
                w[k] = self.pp.interpolate(L_prop, K_prop, self.wstar[k])
                eta_prop = coregionalize(self.q, *w)
                lp_prop = self._logpost(k, L_prop, eta_prop, R, omega)
                lp_cur = self._logpost(k, self.L[k], self.eta, R, omega)
                # log-normal proposal: Hastings term log(prop/cur)
                log_alpha = lp_prop - lp_cur + np.log(prop) - np.log(cur)
                if np.log(self.rng.uniform()) < log_alpha:
                    self.theta[k] = prop
                    self._spare = self.K[k]
                    self._set_field(k, L_prop, K_prop)
                    self.w, self._eta = w, eta_prop
                    self._window_acc[k] += 1
                    if not adapting:
                        self._kept_acc[k] += 1
        if adapting and self._window_n[k] >= ADAPT_INTERVAL:
            rate = self._window_acc[k] / self._window_n[k]
            self._log_step[k] += 0.8 * (rate - TARGET_ACCEPT)
            self._log_step[k] = float(np.clip(self._log_step[k], np.log(1e-3), np.log(100.0)))
            self._window_acc[k] = 0
            self._window_n[k] = 0

    def update_wstar(self, R: np.ndarray, omega: np.ndarray):
        u = self.q[:, 0]
        v = self.q[:, 1]
        a11 = float(u @ omega @ u)
        a12 = float(u @ omega @ v)
        a22 = float(v @ omega @ v)
        g11, g22, g12, c1inv, c2inv = self._gram()
        m = self.m
        P = np.empty((2 * m, 2 * m))
        P[:m, :m] = a11 * g11 + c1inv
        P[:m, m:] = a12 * g12
        P[m:, :m] = a12 * g12.T
        P[m:, m:] = a22 * g22 + c2inv
        b = np.concatenate([
            _lapack.cho_solve((self.L[0], True), self.K[0] @ (R @ (omega @ u))),
            _lapack.cho_solve((self.L[1], True), self.K[1] @ (R @ (omega @ v))),
        ])
        Lp, used = chol_spd(P)
        self.max_jitter = max(self.max_jitter, used)
        mean = _lapack.cho_solve((Lp, True), b)
        z = self.rng.standard_normal(2 * m)
        draw = mean + _lapack.solve_triangular(Lp.T, z, lower=False)
        self.wstar = draw.reshape(2, m)
        self._refresh_eta()

    def update_q(self, R: np.ndarray, omega: np.ndarray):
        o00, o01, o11 = omega[0, 0], omega[0, 1], omega[1, 1]
        tau2 = Q_PRIOR_SD**2
        w1, w2 = self.w
        rx, ry = R[:, 0], R[:, 1]
        tiny = np.finfo(float).tiny

        e_y = ry - self.q[1, 0] * w1 - self.q[1, 1] * w2
        prec = o00 * float(w1 @ w1) + 1.0 / tau2
        lin = o00 * float(w1 @ rx) + o01 * float(w1 @ e_y)
        mean, sd = lin / prec, 1.0 / np.sqrt(prec)
        self.q[0, 0] = max(float(_truncnorm_positive(self.rng, mean, sd)), tiny)

        e_x = rx - self.q[0, 0] * w1
        prec = o11 * float(w1 @ w1) + 1.0 / tau2
        lin = o11 * float(w1 @ (ry - self.q[1, 1] * w2)) + o01 * float(w1 @ e_x)
        self.q[1, 0] = lin / prec + np.sqrt(1.0 / prec) * self.rng.standard_normal()

        prec = o11 * float(w2 @ w2) + 1.0 / tau2
        lin = o11 * float(w2 @ (ry - self.q[1, 0] * w1)) + o01 * float(w2 @ e_x)
        mean, sd = lin / prec, 1.0 / np.sqrt(prec)
        self.q[1, 1] = max(float(_truncnorm_positive(self.rng, mean, sd)), tiny)
        self._eta = coregionalize(self.q, w1, w2)

    def acceptance_rates(self) -> dict:
        out = {}
        for k, name in enumerate(("theta1", "theta2")):
            n = self._kept_n[k]
            out[name] = float(self._kept_acc[k] / n) if n else float("nan")
        return out

    def tuning(self) -> dict:
        """Final Metropolis log-steps and the largest chol_spd jitter used."""
        return {
            "theta_log_step": {name: float(self._log_step[k])
                               for k, name in enumerate(("theta1", "theta2"))},
            "max_jitter": float(self.max_jitter),
        }


class _Sampler:
    """Mutable sweep state: Phi, Sigma and, with knots, the spatial field.
    Public code goes through run_chain. `config` is not read; the sweep
    counts and seed reach the sampler through run_chain's loop and `rng`."""

    def __init__(self, design: DesignPair, config: McmcConfig, rng,
                 knots: np.ndarray | None, upper: float | None):
        self.design = design
        self.rng = rng
        self.n = design.n
        self.p = design.p

        if self.n - self.p < 2:
            raise DataError(f"n - p = {self.n} - {self.p} < 2: Sigma's posterior is improper")
        self.gram = design.gram if self.p else None
        self.phi_hat, sig0 = mle_var(design)
        self.S_hat = sig0 * self.n
        self.field = None if knots is None else _Field(knots, design.source_points, upper, rng)
        if self.field is None and not _pd2(self.S_hat):
            raise NonPDScale("residual scale matrix is singular")

        self.phi = self.phi_hat
        self.sigma = self._pd_init(sig0)

    @staticmethod
    def _pd_init(sigma: np.ndarray) -> np.ndarray:
        """Initialization-only ridge so the first Phi draw can factor Sigma."""
        lo = float(np.linalg.eigvalsh(sigma).min())
        if lo <= 0.0:
            sigma = sigma + (abs(lo) + 1e-10) * np.eye(2)
        return sigma

    def update_phi(self):
        if not self.p:
            return
        phi_hat = self.phi_hat
        if self.field is not None:
            phi_hat = self.gram.solve(self.design.xt(self.design.Y - self.field.eta))
        z = self.rng.standard_normal((self.p, 2))
        L_sig = np.linalg.cholesky(self.sigma)
        self.phi = phi_hat + self.gram.times_inv_factor(z) @ L_sig.T

    def update_sigma(self):
        if self.field is None:
            sig = _invwishart(self.rng, self.n - self.p, self.S_hat)
        else:
            resid = self.design.Y - self.field.eta - self.design.xphi(self.phi)
            scale = resid.T @ resid
            if not _pd2(scale):
                raise NonPDScale("residual scale matrix is singular")
            sig = _invwishart(self.rng, self.n, scale)
        self.sigma = 0.5 * (sig + sig.T)

    def _field_inputs(self) -> tuple:
        """R = Y - X Phi and Omega = Sigma^{-1}, the field updates' inputs."""
        R = self.design.Y - self.design.xphi(self.phi)
        s = self.sigma
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        return R, np.array([[s[1, 1], -s[0, 1]], [-s[0, 1], s[0, 0]]]) / det

    def sweep(self, adapting: bool):
        if self.field is None:  # an exact, independent draw of (Sigma, Phi)
            self.update_sigma()
            self.update_phi()
            return
        self.update_phi()
        self.update_sigma()
        R, omega = self._field_inputs()
        self.field.update_theta(0, R, omega, adapting)
        self.field.update_theta(1, R, omega, adapting)
        self.field.update_wstar(R, omega)
        self.field.update_q(R, omega)


def split_rhat(x: np.ndarray) -> float | np.ndarray:
    """Potential scale reduction from the two halves of a chain, along the
    last axis: a float for one chain, an array for a stack of chains."""
    x = np.asarray(x, dtype=float)
    half = x.shape[-1] // 2
    if half < 2:
        r = np.full(x.shape[:-1], np.nan)
        return float(r) if r.ndim == 0 else r
    a = x[..., :half]
    b = x[..., x.shape[-1] - half :]
    w = 0.5 * (a.var(axis=-1, ddof=1) + b.var(axis=-1, ddof=1))
    mu = 0.5 * (a.mean(axis=-1) + b.mean(axis=-1))
    bvar = half * ((a.mean(axis=-1) - mu) ** 2 + (b.mean(axis=-1) - mu) ** 2)
    var_plus = (half - 1) / half * w + bvar / half
    r = np.sqrt(np.divide(var_plus, w, out=np.full(np.shape(w), np.nan), where=w != 0.0))
    return float(r) if r.ndim == 0 else r


def _chain_rhat(chain: Chain) -> float:
    """The largest finite split R-hat over the draw's free scalars, else nan."""
    keep = np.concatenate([np.arange(np.prod(shape, dtype=int)) != _RHAT_SKIP.get(name, -1)
                           for name, shape in chain._layout])
    r = split_rhat(np.ascontiguousarray(chain._rows()[:, keep].T))
    r = r[np.isfinite(r)]
    return float(r.max()) if r.size else float("nan")


def run_chain(
    series: PlanarSeries,
    spec: ModelSpec | str | dict,
    config: McmcConfig = McmcConfig(),
    tess: Tessellation | None = None,
) -> Chain:
    """Fit one model to one trajectory and keep the post-burn-in draws."""
    spec = resolve_spec(spec)
    design = build_design(series, spec, tess=tess)
    knots = upper = None
    if spec.eta_structure == "spatial":
        knots = spec.knot_grid.build(series.points)
        upper = 300.0 / domain_diameter(series.points)

    rng = np.random.default_rng(config.seed)
    sampler = _Sampler(design, config, rng, knots, upper)
    field = sampler.field

    kept = {name: np.empty((config.n_kept, *shape))
            for name, shape in _blocks(design.p, None if field is None else field.m)}

    j = 0
    for i in range(config.n_iter):
        sampler.sweep(adapting=i < config.burn_in)
        if i >= config.burn_in and (i - config.burn_in) % config.thin == 0:
            for name, block in kept.items():
                block[j] = getattr(sampler if name in ("phi", "sigma") else field, name)
            j += 1

    chain = Chain(
        spec=spec,
        a_keys=design.info.a_keys,
        eta_keys=design.info.eta_keys,
        **(dict.fromkeys(_BLOCK_NAMES) | kept),
        knots=knots,
        tess_sites=None if tess is None else tess.sites,
        n_obs=design.n,
        config=config,
        acceptance={} if field is None else field.acceptance_rates(),
        tuning={} if field is None else field.tuning(),
    )
    chain.rhat_max = _chain_rhat(chain)
    chain.converged = not (chain.rhat_max > RHAT_THRESHOLD)
    if not chain.converged:
        warnings.warn(
            f"worst split scale-reduction {chain.rhat_max:.3f} exceeds "
            f"{RHAT_THRESHOLD}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return chain


# ---------------------------------------------------------------------------
# Posterior prediction


@dataclass(frozen=True)
class SeriesPrediction:
    """Per-draw one-step-ahead paths aligned with the actual next days."""

    draws: np.ndarray
    actual: np.ndarray
    dates: tuple | None

    @property
    def mean(self) -> np.ndarray:
        return self.draws.mean(axis=0)


def chain_design(chain: Chain, series: PlanarSeries, tess: Tessellation | None = None):
    """Design rows for `series` in the CHAIN's fitted column layout.

    Cells come from `tess`, else the chain's tessellation, else the series'
    node assignments.
    """
    if series.n_days < 2:
        raise EmptySeries(f"need at least 2 days to predict a transition, got {series.n_days}")
    return stack_design(series, chain.spec, chain.tessellation(tess), chain.info)


_MEAN_BLOCK = 4  # draws per block gather in mean_paths


def mean_paths(chain: Chain, design: DesignPair, idx) -> np.ndarray:
    """One-step means X phi + eta on `design` of the chain's draws at
    indices `idx`, shape (B, n, 2); the random walk's X phi is the source
    points.

    The draws' phi are gathered from the chain and X phi is taken for
    `_MEAN_BLOCK` draws at a time, each draw's bytes those of a call on it
    alone. With a spatial intercept the knot geometry is computed once
    per call and each draw's eta is added in place, so no (B, m, n) kernel
    stack is formed.
    """
    out = np.empty((len(idx), design.n, 2))
    phis = chain.phi[idx]
    for b0 in range(0, len(idx), _MEAN_BLOCK):
        b1 = b0 + _MEAN_BLOCK
        out[b0:b1] = design.xphi(phis[b0:b1])
    if chain.is_spatial:
        pp = PredictiveProcess(chain.knots, design.source_points)
        for b, i in enumerate(idx):
            out[b] += pp.eta(chain.theta[i], chain.q[i], chain.wstar[i])
    return out


def predict_series(
    chain: Chain,
    series: PlanarSeries,
    tess: Tessellation | None = None,
    n_draws: int | None = 500,
    seed: int = 0,
    means: np.ndarray | None = None,
) -> SeriesPrediction:
    """One-step-ahead predictive draws for every transition in `series`:
    each draw's mean path plus its N(0, sigma) noise.

    Day t's prediction uses the observed day t-1, so draws[:, i] targets
    series.points[i + 1]. The draws are the chain's at
    `chain.draw_indices(n_draws)`. `means` may hold their mean paths from
    `mean_paths`, which are then overwritten in place; noise-free paths
    come from `mean_paths` alone.
    """
    _doc.nonneg_int(seed, "seed")
    idx = chain.draw_indices(n_draws)
    if means is None:
        means = mean_paths(chain, chain_design(chain, series, tess), idx)
    elif means.shape != (idx.size, series.n_days - 1, 2):
        raise LengthMismatch(
            f"mean paths of shape {means.shape} do not match {idx.size} draws "
            f"of {series.n_days - 1} steps"
        )
    rng = np.random.default_rng(seed)
    n = means.shape[1]
    for b, i in enumerate(idx):
        L = np.linalg.cholesky(chain.sigma[i])
        means[b] += rng.standard_normal((n, 2)) @ L.T
    dates = series.dates[1:] if series.dates is not None else None
    return SeriesPrediction(draws=means, actual=series.points[1:].copy(), dates=dates)


# ---------------------------------------------------------------------------
# Chain files, framed by stvar._doc: magic line, one JSON metadata line, then
# every draw as one row of little-endian float64 values


_CHAIN_MAGIC = b"STVAR-CHAIN v2"


def save_chain(chain: Chain, path) -> None:
    meta = {
        "spec": spec_to_dict(chain.spec),
        "a_keys": [list(k) for k in chain.a_keys],
        "eta_keys": [list(k) for k in chain.eta_keys],
        "n_obs": chain.n_obs,
        "n_draws": chain.n_draws,
        "acceptance": chain.acceptance,
        "rhat_max": chain.rhat_max,
        "converged": chain.converged,
        "config": asdict(chain.config),
        "knots": None if chain.knots is None else chain.knots.tolist(),
        "tess_sites": None if chain.tess_sites is None else chain.tess_sites.tolist(),
    }
    _doc.write_framed(path, _CHAIN_MAGIC, meta, chain._rows())


@_doc.names_path
def load_chain(path) -> Chain:
    kind = "chain metadata"
    meta, blob, offset = _doc.read_framed(path, _CHAIN_MAGIC, kind)
    meta = _doc.fields(
        meta, kind,
        {"spec": dict, "config": dict, "a_keys": list, "eta_keys": list, "n_obs": int,
         "n_draws": int, "acceptance": dict, "rhat_max": float, "converged": bool,
         "knots": (list, None), "tess_sites": (list, None)},
    )
    spec = spec_from_dict(meta["spec"])
    config = _doc.record(McmcConfig, meta["config"], f"{kind} config")
    a_keys, eta_keys = (
        tuple(tuple(_doc.check(part, kind, name, (int, str))
                    for part in _doc.check(key, kind, name, list))
              for key in meta[name])
        for name in ("a_keys", "eta_keys")
    )
    n_draws = meta["n_draws"]
    knots, tess_sites = (
        None if meta[name] is None else _doc.array(meta[name], kind, name, (None, 2))
        for name in ("knots", "tess_sites")
    )
    if n_draws < 1:
        raise MalformedHeader(f"{kind}: 'n_draws' must be at least 1, got {n_draws}")
    if (knots is None) == (spec.eta_structure == "spatial"):
        raise MalformedHeader(f"{kind}: 'knots' must be set just when eta_structure is 'spatial'")
    p, m = 2 * len(a_keys) + len(eta_keys), None if knots is None else knots.shape[0]
    layout = _blocks(p, m)
    sizes = [int(np.prod(shape, dtype=int)) for _, shape in layout]

    vals = _doc.float64s(blob, offset, (n_draws, sum(sizes)))
    blocks = {name: block.reshape(n_draws, *shape) for (name, shape), block
              in zip(layout, np.split(vals, np.cumsum(sizes)[:-1], axis=1))}
    check_draws(blocks, p, m)

    return Chain(spec=spec, a_keys=a_keys, eta_keys=eta_keys,
                 **(dict.fromkeys(_BLOCK_NAMES) | blocks), knots=knots, tess_sites=tess_sites,
                 n_obs=meta["n_obs"], config=config, acceptance=meta["acceptance"],
                 rhat_max=meta["rhat_max"], converged=meta["converged"])
