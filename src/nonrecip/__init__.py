"""Pulse design and simulation toolkit for a time-modulated
non-reciprocal three-level circulator on a transmon chain."""

from .statespace import PureState
from .invariant import (
    AuxiliaryTrajectory,
    LRPhaseResult,
    PulsePair,
    check_boundary,
    invariant_at,
    invariant_eigenstates,
    lr_phase,
    lr_predicted_evolution,
    solve_lambda,
    synthesize_pulses,
    target_unitary,
)
from .devices import (
    ChainSpec,
    DriveWaveform,
    LindbladChannel,
    TransmonSpec,
    UnattainableDriveError,
    bessel_j1,
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    lindblad_channels,
    single_excitation_model,
)
from .propagation import (
    PropagationConfig,
    Trajectory,
    evolution_operator_oracle,
    global_phase_distance,
    propagate_schrodinger,
)
from .metrics import (
    EnsembleReport,
    TransferReport,
    ensemble_fidelity,
    isolation,
    transfer_fidelity,
    transmission_matrix,
)
from .config import ScenarioConfig, load_config, parse_config, serialize_config

__all__ = [name for name in dir() if not name.startswith("_")]
