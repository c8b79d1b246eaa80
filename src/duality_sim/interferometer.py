"""Joint position / internal-level / photon-number state and its readouts.

The atomic transverse coordinate lives on a uniform grid (units of 1/k_c,
so the classical wavelength is 2 pi).  The top slit sits on the common
antinode at X_TOP = 0, the bottom slit on the common node at X_BOTTOM = pi/2,
and each slit launches a Gaussian packet of width SIGMA.  The joint state is a
complex array indexed (grid row, level in {b, c}, Fock index) that carries
only weight above WEIGHT_FLOOR = eps^2: the window of rows within ~12 sigma
of the slits, and the Fock columns that hold the coherent state (build_initial
reports and checks what is left out).  The interaction is diagonal in
position, so it keeps the window, and every readout reduces over the window
rows only, and the atomic state that leaves it covers the same rows; the
free flight is the one step that fills the full periodic grid.

Every readout reduces the field through one of two JointState methods:
field_gram, the Gram matrix G of the Fock slices (the field density
operator, up to transposition), or atom_columns, the atom factors that a
field-side matrix mixes out of those slices.

* trace_out_field keeps the atomic density operator in factored form
  rho = L L^dag: L is atom_columns of G's eigenvectors above rounding, so
  L has the true rank of the atom-field entanglement (1 without the field,
  2-3 for the slit kick), and the dense matrix is never formed.
* condition_on_quadrature takes atom_columns of one homodyne projector,
  the pure conditional atom state, and its outcome density.  quadrature_pdf
  reads a sweep of outcome densities off G, and field_density is G's
  normalised transpose.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import evolution
from .errors import ConfigError, ImpossibleOutcomeError, NumericError, NumericRangeError, TruncationError
from .evolution import InteractionParams
from .fock import coherent_state, quadrature_projector, quadrature_projectors, rank_cut
from .runtime import one_blas_thread

LEVEL_INDEX = {"b": 0, "c": 1}
X_TOP = 0.0
X_BOTTOM = math.pi / 2.0
SIGMA = 0.05
MIDPOINT = 0.5 * (X_TOP + X_BOTTOM)
WEIGHT_FLOOR = np.finfo(float).eps ** 2  # weight below this is not carried

__all__ = [
    "X_TOP", "X_BOTTOM", "SIGMA", "MIDPOINT", "WEIGHT_FLOOR",
    "GridSpec",
    "PreparationParams",
    "JointState",
    "AtomDensity",
    "build_initial",
    "interact",
    "trace_out_field",
    "condition_on_quadrature",
    "quadrature_pdf",
    "field_density",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid; the endpoint is excluded (periodic FFT domain)."""

    x_min: float = -12.0
    x_max: float = 14.0
    n_points: int = 4096

    def __post_init__(self):
        if not (self.x_min < self.x_max and math.isfinite(self.x_max - self.x_min)
                and self.n_points >= 16):
            raise ConfigError("grid must have x_min < x_max, a finite span and at least 16 points")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)


@dataclass(frozen=True)
class PreparationParams:
    """Path amplitudes and the internal-state mixing angle of the top path.

    The top path carries cos(phi)|c> + sin(phi)|b>, the bottom path |c>.
    name is the sphere case these values come from, if any.
    """

    c_up: complex
    c_down: complex
    phi: float
    name: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ConfigError("phi must be finite")
        try:
            total = abs(self.c_up) ** 2 + abs(self.c_down) ** 2
        except OverflowError:
            total = math.inf
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigError(f"|c_up|^2 + |c_down|^2 must be 1, got {total!r}")


@dataclass(frozen=True)
class JointState:
    """Amplitudes indexed (grid row - start, level b/c, Fock index).

    amps covers the grid rows [start, stop); the state is zero on every
    other row.  start = 0 with one row per grid point is the full grid.
    fock_tail and window_tail are the initial weight outside the carried Fock
    columns and rows; leak and truncation_loss are interact's losses.  Readouts
    reach amps through field_gram and atom_columns; amps must not change once
    field_gram is read.
    """

    grid: GridSpec
    amps: np.ndarray
    start: int = 0
    fock_tail: float = 0.0
    window_tail: float = 0.0
    leak: float = 0.0
    truncation_loss: float = 0.0

    @property
    def n_max(self) -> int:
        return self.amps.shape[2]

    @property
    def stop(self) -> int:
        return self.start + self.amps.shape[0]

    @property
    def x(self) -> np.ndarray:
        """Grid coordinates of the rows that amps covers."""
        return self.grid.x[self.start:self.stop]

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2)) * self.grid.dx

    @functools.cached_property
    @one_blas_thread
    def field_gram(self) -> np.ndarray:
        """gram[m, n] = dx sum_g conj(amps[g, m]) amps[g, n], the transposed field density.

        NumericRangeError if not finite.
        """
        gram = _gram(self.amps.transpose(1, 0, 2)) * self.grid.dx
        if not np.isfinite(gram).all():
            raise NumericRangeError("the joint state's field Gram matrix is not finite")
        return gram

    def atom_columns(self, columns: np.ndarray) -> np.ndarray:
        """Window factors sum_m amps[g, l, m] columns[m, k], shape (rows, 2, k)."""
        # (C^T flat^T)^T rather than flat @ C: the short-and-wide product keeps
        # no large BLAS work buffers alive
        flat = self.amps.reshape(-1, self.n_max)
        return (columns.T @ flat.T).T.reshape(self.amps.shape[0], 2, -1)


@dataclass(frozen=True)
class AtomDensity:
    """Atomic density operator in factored form rho = L L^dag.

    factors (rows, 2 levels, rank) cover the grid rows [start, stop), as in
    JointState; the grid measure dx is not folded in, so trace(rho) = sum
    |factors|^2 * dx.  gram is a pass made once: factors must not change
    after it.  Constructors normalise to unit trace.  rho is Hermitian and
    positive semidefinite by construction.  discarded_weight is the share of
    the trace that a rank cut dropped before that normalisation.
    """

    grid: GridSpec
    factors: np.ndarray
    start: int = 0
    discarded_weight: float = 0.0

    @property
    def rank(self) -> int:
        return self.factors.shape[2]

    @property
    def stop(self) -> int:
        return self.start + self.factors.shape[0]

    @functools.cached_property
    @one_blas_thread
    def gram(self) -> np.ndarray:
        return _gram(self.factors.transpose(1, 0, 2)) * self.grid.dx

    def purity(self) -> float:
        """trace(rho^2) via the rank x rank Gram matrix."""
        return float(np.sum(np.abs(self.gram) ** 2))


def _slit_profile(grid: GridSpec, centre: float) -> np.ndarray:
    # the Gaussian is 0.0 beyond 64 sigma, clipped or not; the clip keeps d**2 finite
    d = np.clip(grid.x - centre, -64.0 * SIGMA, 64.0 * SIGMA)
    return (2.0 * math.pi * SIGMA ** 2) ** -0.25 * np.exp(-(d ** 2) / (4.0 * SIGMA ** 2))


def build_initial(prep: PreparationParams, alpha: complex, grid: GridSpec, n_max: int,
                  tail_tol: float = 1e-9) -> JointState:
    """Two slit packets, correlated internal states, and a coherent field.

    The state covers the grid rows from the first to the last one where the
    packet density exceeds WEIGHT_FLOOR times its peak, and the Fock columns
    up to the first whose coherent tail weight is at most WEIGHT_FLOOR, plus
    one; n_max is a ceiling.  The weight left out raises TruncationError
    above tail_tol: fock_tail, the coherent tail beyond the carried columns
    (at the ceiling 1 - ||c||^2, clipped at 0), and window_tail.  A grid on
    which the packets' weight is not 1 within tail_tol does not sample them:
    ConfigError.
    """
    margin = 6.0 * SIGMA
    if grid.x_min > X_TOP - margin or grid.x_max < X_BOTTOM + margin:
        raise ConfigError("grid does not cover both slits with a 6 sigma margin")
    c_m = coherent_state(alpha, n_max)
    missing = 1.0 - float(np.vdot(c_m, c_m).real)
    if not missing <= tail_tol:  # NaN when the amplitudes overflowed
        raise TruncationError(
            f"the coherent state leaves {missing:.3e} weight beyond {n_max} Fock states "
            f"(tolerance {tail_tol:.1e}); increase n_max"
        )
    tails = np.cumsum(np.abs(c_m[::-1]) ** 2)[::-1]  # tails[m] = sum_{k >= m} |c_k|^2
    n_c = min(np.count_nonzero(tails > WEIGHT_FLOOR) + 1, n_max)
    # at the ceiling only 1 - ||c||^2 estimates the weight beyond n_max
    fock_tail = float(tails[n_c]) if n_c < n_max else max(missing, 0.0)
    c_m = c_m[:n_c]
    g_top = _slit_profile(grid, X_TOP)
    phi = float(prep.phi)
    ground = prep.c_up * math.cos(phi) * g_top + prep.c_down * _slit_profile(grid, X_BOTTOM)
    mixed = prep.c_up * math.sin(phi) * g_top
    density = np.abs(ground) ** 2 + np.abs(mixed) ** 2
    edge = max(density[0], density[-1])
    if edge > 1e-8:
        raise ConfigError(f"slit packets reach the grid boundary (density {edge:.2e})")
    weight = float(np.sum(density)) * grid.dx
    support = np.flatnonzero(density > WEIGHT_FLOOR * np.max(density))
    if support.size == 0 or not abs(weight - 1.0) <= tail_tol:  # NaN fails too
        raise ConfigError(f"the grid does not resolve the slits: the packets' weight on it is "
                          f"{weight:.3e}, not 1 within {tail_tol:.1e}")
    start, stop = int(support[0]), int(support[-1]) + 1
    window_tail = (float(np.sum(density[:start])) + float(np.sum(density[stop:]))) * grid.dx
    for lost, where in ((fock_tail, f"beyond {c_m.size} Fock states"),
                        (window_tail, f"outside grid rows [{start}, {stop})")):
        if not lost <= tail_tol:  # NaN fails too
            raise TruncationError(f"the initial state leaves {lost:.3e} weight {where} "
                                  f"(tolerance {tail_tol:.1e})")
    amps = np.empty((stop - start, 2, c_m.size), dtype=complex)
    amps[:, LEVEL_INDEX["c"], :] = np.outer(ground[start:stop], c_m)
    amps[:, LEVEL_INDEX["b"], :] = np.outer(mixed[start:stop], c_m)
    return JointState(grid=grid, amps=amps, start=start, fock_tail=fock_tail,
                      window_tail=window_tail)


def interact(state: JointState, params: InteractionParams, mode: str = "dispersive",
             kick: str = "slit", tail_tol: float = 1e-9) -> JointState:
    """Apply the cavity interaction to every row of the state.

    Each level's Fock vector is replaced by its stay/cross branches; the
    photon-raising branch that falls off the truncation is accumulated
    into the truncation-loss diagnostic and trips TruncationError above
    tail_tol.  In exact mode the weight leaked to the excited level is
    reported as the state's leak rather than tracked as a state
    (dispersive mode leaks nothing).  The map is diagonal in position, so
    the output covers the input's window.

    The multipliers reach the rows in blocks (rows, at): rows take row(s) at
    of the multipliers, by broadcasting.  "slit" evaluates them at the two
    slit centres, each for the rows on its side of MIDPOINT, which reproduces
    per-path evolution; "local" evaluates them at every row (at = rows).
    """
    if kick == "slit":
        split = int(np.searchsorted(state.x, MIDPOINT))
        xs, blocks = np.array([X_TOP, X_BOTTOM]), [(slice(0, split), 0), (slice(split, None), 1)]
    elif kick == "local":  # 256 rows a block keeps the |c> products' temporaries small
        xs, blocks = state.x, [(slice(i, i + 256),) * 2 for i in range(0, len(state.x), 256)]
    else:
        raise ConfigError(f"unknown kick policy {kick!r}")
    levels = evolution.branch_multipliers(xs, params, state.n_max, mode)
    in_b = state.amps[:, LEVEL_INDEX["b"], :]
    in_c = state.amps[:, LEVEL_INDEX["c"], :]
    out = np.zeros_like(state.amps)
    out_b = out[:, LEVEL_INDEX["b"], :]
    out_c = out[:, LEVEL_INDEX["c"], :]
    # per-row products, each summed once over all rows
    fallen = np.empty(len(in_b), dtype=complex)
    leaked = None if mode == "dispersive" else np.empty(in_b.shape)

    # |b>|m> -> |c>|m+1>; the top row falls off the truncation
    stay, cross, rate = levels.pop("b")
    for rows, at in blocks:
        np.multiply(stay[at], in_b[rows], out=out_b[rows])
        np.multiply(cross[at, :-1], in_b[rows, :-1], out=out_c[rows, 1:])
        np.multiply(cross[at, -1], in_b[rows, -1], out=fallen[rows])
        if leaked is not None:
            np.multiply(rate[at], np.abs(in_b[rows]) ** 2, out=leaked[rows])
    truncation_loss = float(np.sum(np.abs(fallen) ** 2)) * state.grid.dx
    if not truncation_loss <= tail_tol:  # NaN fails too
        raise TruncationError(
            f"interaction pushed {truncation_loss:.3e} weight past the Fock truncation "
            f"(tolerance {tail_tol:.1e}); increase n_max"
        )
    leak = 0.0 if leaked is None else float(np.sum(leaked))

    # |c>|m> -> |b>|m-1>; popped, so the |b> multipliers are freed first
    stay, cross, rate = levels.pop("c")
    for rows, at in blocks:
        out_c[rows] += stay[at] * in_c[rows]
        out_b[rows, :-1] += cross[at, 1:] * in_c[rows, 1:]
        if leaked is not None:
            np.multiply(rate[at], np.abs(in_c[rows]) ** 2, out=leaked[rows])
    if leaked is not None:
        leak = (leak + float(np.sum(leaked))) * state.grid.dx
    return replace(state, amps=out, leak=leak, truncation_loss=truncation_loss)


def _gram(levels) -> np.ndarray:
    """gram[m, n] = sum_l,g conj(level_l[g, m]) level_l[g, n] over (rows, columns) levels.

    A level may be in either memory order: BLAS reads each block of 1024 rows
    in place, and only that block is conjugated.  A level's block products are
    all taken before the next level is drawn, so an iterator may yield every
    level in one buffer.  The products are added block by block, each block
    level by level.
    """
    products = [[b.conj().T @ b for b in (level[i:i + 1024] for i in range(0, len(level), 1024))]
                for level in levels]
    return sum(product for block in zip(*products) for product in block)


@one_blas_thread
def trace_out_field(state: JointState, tail_tol: float = 1e-9) -> AtomDensity:
    """Partial trace over the field at its true rank, renormalised to unit trace.

    The Fock slices of the joint state are factor columns of the reduced
    density operator.  The eigenvectors v_k of their Gram matrix give the
    Schmidt directions, with weights lambda_k; L = slices @ v_k for the
    lambda_k above rounding (n_max * eps * lambda_max) spans the same
    operator.  The weight of the dropped directions is reported as
    discarded_weight and raises NumericError above tail_tol.
    """
    weights, vecs = np.linalg.eigh(state.field_gram)
    weights = np.clip(weights, 0.0, None)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise NumericError("cannot trace a zero-norm state")
    keep = rank_cut(weights)
    kept = float(np.sum(weights[keep]))
    discarded = float(np.sum(weights[~keep])) / total
    if not discarded <= tail_tol:  # NaN fails too
        raise NumericError(
            f"the rank cut discarded {discarded:.3e} of the atomic trace "
            f"(tolerance {tail_tol:.1e})"
        )
    factors = state.atom_columns(vecs[:, keep] / math.sqrt(kept))
    return AtomDensity(state.grid, factors, start=state.start, discarded_weight=discarded)


@one_blas_thread
def condition_on_quadrature(state: JointState, theta: float, chi: float):
    """Condition the atom on the quadrature outcome chi at angle theta.

    Returns (AtomDensity, density): the pure conditional atom state, the
    atom column of the projector b_chi renormalised, and the outcome's
    probability density dx sum |cond|^2.
    """
    cond = state.atom_columns(quadrature_projector(theta, chi, state.n_max).conj()[:, None])
    density = float(np.sum(np.abs(cond) ** 2)) * state.grid.dx
    if not density >= 1e-300:  # NaN fails too
        raise ImpossibleOutcomeError(
            f"outcome chi={chi:g} at theta={theta:g} has vanishing density"
        )
    return AtomDensity(state.grid, cond / math.sqrt(density), start=state.start), density


@one_blas_thread
def quadrature_pdf(state: JointState, theta: float, chi_samples) -> np.ndarray:
    """Outcome densities b_chi G b_chi^dag from the field Gram G, for a sweep of chi.

    Below ~eps times the peak density the value is rounding, clipped at 0.
    """
    coeffs = quadrature_projectors(theta, chi_samples, state.n_max)
    dens = np.sum((coeffs @ state.field_gram) * coeffs.conj(), axis=1).real
    return np.maximum(dens, 0.0)


def field_density(state: JointState) -> np.ndarray:
    """Field density operator after tracing the atom, unit trace."""
    rho = state.field_gram.T  # rho[m, n] = dx sum_g amps_m conj(amps_n)
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise NumericError("cannot trace a zero-norm state")
    return rho / tr
