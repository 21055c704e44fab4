"""Machine-learning layer: fuzzy controllers (paper Appendix A, Sec 4.3)."""

from .bank import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
    ControllerBank,
    clear_bank_cache,
    get_bank,
    train_controller_bank,
)
from .dataset import (
    FREQ_INPUT_NAMES,
    POWER_INPUT_NAMES,
    SampledInputs,
    generate_training_data,
    sample_inputs,
)
from .fuzzy import FuzzyController
from .persistence import load_bank, save_bank
from .training import (
    DEFAULT_LEARNING_RATE,
    DEFAULT_N_RULES,
    TrainingReport,
    train_fuzzy_controller,
    train_fuzzy_controllers,
)

__all__ = [
    "BASE",
    "ControllerBank",
    "DEFAULT_LEARNING_RATE",
    "DEFAULT_N_RULES",
    "FREQ_INPUT_NAMES",
    "FU_LOWSLOPE",
    "FU_NORMAL",
    "FuzzyController",
    "POWER_INPUT_NAMES",
    "QUEUE_FULL",
    "QUEUE_RESIZED",
    "SampledInputs",
    "TrainingReport",
    "clear_bank_cache",
    "generate_training_data",
    "get_bank",
    "load_bank",
    "sample_inputs",
    "save_bank",
    "train_controller_bank",
    "train_fuzzy_controller",
    "train_fuzzy_controllers",
]
