"""Evolutionary design of pulsed-OFDM radar waveforms.

Phase-code optimization for envelope control (PMEPR) and autocorrelation
sidelobes (PSLR/ISLR), single- and multi-objective, plus matched-illumination
spectral shaping.
"""

from .design import (
    SPEED_OF_LIGHT,
    PulseDimensions,
    ScenarioSpec,
    bandwidth_for_target,
    dimension_pulse,
    max_pulse_length,
    max_subcarriers,
)
from .evolve import (
    ConvergenceTrace,
    GAConfig,
    GASchedule,
    continuous_minimize,
    decode_phases,
    sga_minimize,
    sga_phases,
)
from .illumination import (
    ReflectivitySpectrum,
    TargetModel,
    normalize_reflectivity,
    optimize_weights,
    reflectivity_spectrum,
    snr_gain_db,
    two_step_pipeline,
)
from .metrics import (
    PhaseEvaluator,
    autocorrelation,
    islr,
    pmepr,
    pslr,
)
from .pareto import (
    ConstraintSpec,
    crowding_distance,
    nondominated_sort,
    nsga2,
    pmepr_threshold_from_distribution,
)
from .phasing import newman_phases, noncoded_phases, random_phases
from .waveform import (
    PhaseCodeMatrix,
    PulseSpec,
    SparsityMask,
    WeightVector,
    random_mask,
    synthesize,
    uniform_weights,
)

__version__ = "0.1.0"
