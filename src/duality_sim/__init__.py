"""Double-slit / double-cavity wave-particle duality simulator.

A three-level atom crosses a double slit and, immediately behind it, a
double cavity holding one quantised and one classical standing-wave mode.
The packages builds the joint position/level/photon state, applies the
dispersive (or exact finite-detuning) atom-field map, reads the field out
by tracing or by conditioning on a homodyne quadrature outcome, propagates
the atom freely to a screen, and relates the resulting patterns to the
visibility / distinguishability / concurrence triple of the preparation.
"""

from .duality import DualityMetrics, gamma_of_phi, metrics, sphere_case
from .errors import (ConfigError, GridError, ImpossibleOutcomeError, NumericError,
                     NumericRangeError, SimulationError, TruncationError)
from .evolution import InteractionParams
from .fock import QGrid, coherent_state, husimi_q, quadrature_projector
from .interferometer import (AtomDensity, GridSpec, JointState, PreparationParams,
                             build_initial, condition_on_quadrature, field_density,
                             interact, quadrature_pdf, trace_out_field)
from .propagation import (DISPERSION_RATE, ScreenDensity, ScreenPattern, free_propagate,
                          fringe_visibility, screen_distribution)
from .runner import (ExperimentConfig, RunResult, epsilon_sweep, most_probable_chi, run,
                     sphere_suite)

__version__ = "0.1.0"
