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
from .errors import ConfigError, NumericError
from .evolution import InteractionParams
from .fock import coherent_state, quadrature_projector, rank_cut

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
    def field_gram(self) -> np.ndarray:
        """gram[m, n] = dx sum_g conj(amps[g, m]) amps[g, n], the transposed field density.

        NumericError if not finite.
        """
        gram = _gram(self.amps.transpose(1, 0, 2)) * self.grid.dx
        if not np.isfinite(gram).all():
            raise NumericError("the joint state's field Gram matrix is not finite")
        return gram

    def atom_columns(self, columns: np.ndarray) -> np.ndarray:
        """Window factors sum_m amps[g, l, m] columns[m, k], shape (rows, 2, k), row-major."""
        return (self.amps.reshape(-1, self.n_max) @ columns).reshape(self.amps.shape[0], 2, -1)


@dataclass(frozen=True)
class AtomDensity:
    """Atomic density operator in factored form rho = L L^dag.

    factors (rows, 2 levels, rank) cover the grid rows [start, stop), as in
    JointState; the grid measure dx is not folded in, so trace(rho) = sum
    |factors|^2 * dx.  gram, the level-major (2 rank, 2 rank) Gram matrix of
    the factor columns times dx, is a pass made once: factors must not change
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
    def gram(self) -> np.ndarray:
        # a view of row-major factors, as atom_columns returns them
        return _gram([self.factors.reshape(len(self.factors), -1)]) * self.grid.dx

    def purity(self) -> float:
        return _purity(self.gram)


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
    one; n_max is a ceiling.  The weight left out raises NumericError above
    tail_tol: fock_tail, the coherent tail beyond the carried columns (tails[n_c]
    plus the weight beyond n_max), and window_tail.  The weight beyond n_max is
    1 - ||c||^2 clipped at 0 or, where that is rounding, |c_{n_max-1}|^2 (|alpha|^2 /
    n_max) / (1 - r): beyond n_max the Poisson ratios |c_{m+1}|^2 / |c_m|^2 are <= r =
    |alpha|^2 / (n_max + 1) < 1.  A grid on which the packets' weight misses 1 by more
    than tail_tol, and more than the shift max|x| eps / SIGMA by which rounding the
    coordinates x_min + i dx can move it, does not sample them: ConfigError.
    """
    margin = 6.0 * SIGMA
    if grid.x_min > X_TOP - margin or grid.x_max < X_BOTTOM + margin:
        raise ConfigError("grid does not cover both slits with a 6 sigma margin")
    c_m = coherent_state(alpha, n_max)
    r = abs(alpha) ** 2 / (n_max + 1)  # finite: coherent_state refuses |alpha| beyond ~39
    bound = abs(c_m[-1] * alpha) ** 2 / n_max / (1.0 - r) if r < 1.0 else math.inf
    beyond = min(max(1.0 - float(np.vdot(c_m, c_m).real), 0.0), bound)
    # tails[m] = sum_{n_max > k >= m} |c_k|^2, with tails[n_max] = 0
    tails = np.append(np.cumsum(np.abs(c_m[::-1]) ** 2)[::-1], 0.0)
    n_c = min(np.count_nonzero(tails > WEIGHT_FLOOR) + 1, n_max)
    fock_tail = float(tails[n_c]) + beyond
    if not fock_tail <= tail_tol:  # NaN when the amplitudes overflowed
        # below the ceiling the columns left out hold under WEIGHT_FLOOR: more cannot help
        advice = "; increase n_max" if n_c == n_max else ""
        raise NumericError(f"the coherent state leaves {fock_tail:.3e} weight beyond {n_c} "
                           f"Fock states (tolerance {tail_tol:.1e}){advice}")
    c_m = c_m[:n_c]
    g_top = _slit_profile(grid, X_TOP)
    phi = float(prep.phi)
    ground = prep.c_up * math.cos(phi) * g_top + prep.c_down * _slit_profile(grid, X_BOTTOM)
    mixed = prep.c_up * math.sin(phi) * g_top
    density = np.abs(ground) ** 2 + np.abs(mixed) ** 2
    edge = max(density[0], density[-1])
    if edge > 1e-8:
        raise ConfigError(f"slit packets reach the grid boundary (density {edge:.2e})")
    miss = abs(float(np.sum(density)) * grid.dx - 1.0)
    # x_min + i dx keeps each x to ~max|x| eps: to first order the weight moves by up to
    # shift, a bound that is itself rounding only while shift^2 is (max|x| below ~3e6)
    eps = np.finfo(float).eps
    shift = max(abs(grid.x_min), abs(grid.x_max)) * eps / SIGMA
    floor = max(tail_tol, shift if shift <= math.sqrt(eps) else 0.0)
    support = np.flatnonzero(density > WEIGHT_FLOOR * np.max(density))
    if support.size == 0 or not miss <= floor:  # NaN fails too
        raise ConfigError(f"the grid does not resolve the slits: the packets' weight on it "
                          f"misses 1 by {miss:.3e} (tolerance {floor:.1e})")
    start, stop = int(support[0]), int(support[-1]) + 1
    window_tail = (float(np.sum(density[:start])) + float(np.sum(density[stop:]))) * grid.dx
    if not window_tail <= tail_tol:  # NaN fails too
        raise NumericError(f"the initial state leaves {window_tail:.3e} weight outside grid "
                           f"rows [{start}, {stop}) (tolerance {tail_tol:.1e})")
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
    into the truncation-loss diagnostic and trips NumericError above
    tail_tol.  In exact mode the weight leaked to the excited level, where
    the two members of each pair add coherently, is reported as the state's
    leak rather than tracked as a state (dispersive mode leaks nothing).
    The map is diagonal in position, so the output covers the input's window.

    The kick only chooses the block plan, (rows, positions) pairs: one loop
    evaluates each block's multipliers at its positions and broadcasts them
    over its rows.  "slit" evaluates them at the slit centre of each side of
    MIDPOINT, which reproduces per-path evolution; "local" at each row's x.
    """
    if kick == "slit":
        split = int(np.searchsorted(state.x, MIDPOINT))
        plan = [(slice(0, split), [X_TOP]), (slice(split, None), [X_BOTTOM])]
    elif kick == "local":  # 256 rows a block keeps the multipliers and temporaries small
        x = state.x
        plan = [(slice(i, i + 256), x[i:i + 256]) for i in range(0, len(x), 256)]
    else:
        raise ConfigError(f"unknown kick policy {kick!r}")
    out = np.zeros_like(state.amps)
    in_b, in_c = (state.amps[:, LEVEL_INDEX[level], :] for level in "bc")
    out_b, out_c = (out[:, LEVEL_INDEX[level], :] for level in "bc")
    # per-row products, each summed once over all rows
    fallen = np.empty(len(in_b), dtype=complex)
    # excited[:, m] is the |a, m> amplitude, fed by |b, m> and |c, m+1> coherently
    excited = None if mode == "dispersive" else np.empty(in_b.shape, dtype=complex)
    for rows, xs in plan:
        levels = evolution.branch_multipliers(xs, params, state.n_max, mode)
        (stay_b, cross_b, to_a_b), (stay_c, cross_c, to_a_c) = levels["b"], levels["c"]
        # |b>|m> -> |c>|m+1>, whose top row falls off the truncation; |c>|m> -> |b>|m-1>
        np.multiply(stay_b, in_b[rows], out=out_b[rows])
        np.multiply(cross_b[:, :-1], in_b[rows, :-1], out=out_c[rows, 1:])
        np.multiply(cross_b[:, -1], in_b[rows, -1], out=fallen[rows])
        out_c[rows] += stay_c * in_c[rows]
        out_b[rows, :-1] += cross_c[:, 1:] * in_c[rows, 1:]
        if excited is not None:
            np.multiply(to_a_b, in_b[rows], out=excited[rows])
            excited[rows, :-1] += to_a_c[:, 1:] * in_c[rows, 1:]
    truncation_loss = float(np.sum(np.abs(fallen) ** 2)) * state.grid.dx
    if not truncation_loss <= tail_tol:  # NaN fails too
        raise NumericError(f"interaction pushed {truncation_loss:.3e} weight past the Fock "
                           f"truncation (tolerance {tail_tol:.1e}); increase n_max")
    leak = 0.0 if excited is None else float(np.sum(np.abs(excited) ** 2)) * state.grid.dx
    return replace(state, amps=out, leak=leak, truncation_loss=truncation_loss)


def _gram(levels) -> np.ndarray:
    """gram[m, n] = sum_l,g conj(level_l[g, m]) level_l[g, n] over (rows, columns) arrays.

    A level may be in either memory order: BLAS reads each block of 1024 rows
    in place, and only that block is conjugated.  The block products are
    added level by level, each level block by block.
    """
    return sum(level[i:i + 1024].conj().T @ level[i:i + 1024]
               for level in levels for i in range(0, len(level), 1024))


def _purity(gram: np.ndarray) -> float:
    """trace(rho^2) from a level-major (2 rank, 2 rank) Gram matrix: the squared Frobenius
    norm of its level trace, the (rank, rank) Gram of rho = L L^dag."""
    rank = len(gram) // 2
    return float(np.sum(np.abs(gram[:rank, :rank] + gram[rank:, rank:]) ** 2))


def trace_out_field(state: JointState) -> AtomDensity:
    """Partial trace over the field at its true rank, renormalised to unit trace.

    The Fock slices of the joint state are factor columns of the reduced density
    operator.  L = slices @ v_k spans it at the Schmidt rank, for the eigenvectors v_k of
    their Gram matrix whose weights lambda_k are above rounding (fock.rank_cut).  The
    dropped share, at most fock_columns^2 eps, is discarded_weight.  A zero state: NumericError.
    """
    weights, vecs, discarded = rank_cut(state.field_gram)
    if not weights.size:
        raise NumericError("cannot take the atomic trace of a zero-norm state")
    factors = state.atom_columns(vecs / math.sqrt(float(np.sum(weights))))
    return AtomDensity(state.grid, factors, start=state.start, discarded_weight=discarded)


def condition_on_quadrature(state: JointState, theta: float, chi: float):
    """Condition the atom on the quadrature outcome chi at angle theta.

    Returns (AtomDensity, density): the pure conditional atom state, the
    atom column of the projector b_chi renormalised, and the outcome's
    probability density dx sum |cond|^2.
    """
    cond = state.atom_columns(quadrature_projector(theta, chi, state.n_max).conj()[:, None])
    density = float(np.sum(np.abs(cond) ** 2)) * state.grid.dx
    if not density >= 1e-300:  # NaN fails too
        raise NumericError(
            f"outcome chi={chi:g} at theta={theta:g} has vanishing density"
        )
    return AtomDensity(state.grid, cond / math.sqrt(density), start=state.start), density


def quadrature_pdf(state: JointState, theta: float, chi_samples) -> np.ndarray:
    """Outcome densities b_chi G b_chi^dag from the field Gram G, for a sweep of chi.

    Below ~eps times the peak density the value is rounding, clipped at 0.
    """
    coeffs = quadrature_projector(theta, chi_samples, state.n_max)
    dens = np.sum((coeffs @ state.field_gram) * coeffs.conj(), axis=1).real
    return np.maximum(dens, 0.0)


def field_density(state: JointState) -> np.ndarray:
    """Field density operator after tracing the atom, unit trace."""
    rho = state.field_gram.T  # rho[m, n] = dx sum_g amps_m conj(amps_n)
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise NumericError("cannot trace a zero-norm state")
    return rho / tr
