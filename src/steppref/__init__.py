"""Step-level preference data pipeline and toy preference-learning lab."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    DatasetHeader,
    PairRecord,
    Problem,
    Rationale,
    RationaleRecord,
    read_dataset,
    write_dataset,
)
from .extraction import (  # noqa: F401
    canonicalize,
    dedup,
    extract_answer,
    split_steps,
    strip_conclusion,
)
from .genclient import ProviderHandle, SamplingConfig, sample, sample_batch  # noqa: F401
from .pipeline import (  # noqa: F401
    ExploreConfig,
    PairingConfig,
    PitResult,
    build_granular_pairs,
    build_pairs,
    build_rft,
    explore_all,
    explore_first_pit,
    sweep_exploration_size,
    token_edit_distance,
)
from .preflearn import (  # noqa: F401
    ObjectiveConfig,
    TokenizedPair,
    ToyPolicy,
    dpo_loss,
    ipo_loss,
    kto_loss,
    reward_accuracy,
    seq_logprob,
    train,
)
from .synthworld import SynthConfig, SynthTrace, complete_from, gen_problem  # noqa: F401
from .synthworld import oracle_first_error, simulate_solution  # noqa: F401
