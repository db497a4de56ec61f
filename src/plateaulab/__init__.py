"""Query-complexity laboratory for plateau landscapes of shifted-product
PQC expectation-value functions."""

from .circuits import (
    ShiftedProductFunction,
    h_eval,
    single_qubit_sim,
    tensor_sim,
)
from .game import (
    BoundsRow,
    GameRecord,
    PlateauRegion,
    bounds,
    estimate_win_cdf,
    play_game,
)
from .info import (
    Posterior,
    mi_exact_enumeration,
    omnipotent_identify,
    posterior_update,
    transcript_mi,
)
from .oracles import (
    ClampedFunction,
    RandomStack,
    Transcript,
    coupled_sample,
    eval_query,
    sample_query,
)
from .torus import GridShift, TorusPoint, bohr_dist, hamming_d, round_to_grid
from .training import (
    TrainerResult,
    divergence_experiment,
    exit_time_experiment,
    run_trainer,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsRow",
    "ClampedFunction",
    "GameRecord",
    "GridShift",
    "PlateauRegion",
    "Posterior",
    "RandomStack",
    "ShiftedProductFunction",
    "TorusPoint",
    "TrainerResult",
    "Transcript",
    "bohr_dist",
    "bounds",
    "coupled_sample",
    "divergence_experiment",
    "estimate_win_cdf",
    "eval_query",
    "exit_time_experiment",
    "h_eval",
    "hamming_d",
    "mi_exact_enumeration",
    "omnipotent_identify",
    "play_game",
    "posterior_update",
    "round_to_grid",
    "run_trainer",
    "sample_query",
    "single_qubit_sim",
    "tensor_sim",
    "transcript_mi",
]
