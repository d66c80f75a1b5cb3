"""Text deidentification by adversarial reidentification search.

Masks the smallest set of words needed to push a document's true profile
out of the top-K predictions of a trained reidentification model, and
evaluates redactions with an ensemble of reidentifiers plus utility
metrics.
"""

from .corpus import (
    CorpusError,
    apply_mask,
    compute_idf,
    corpus_stats,
    load_corpus,
    load_redacted,
    load_sidecar,
    tokenize,
)
from .deid import (
    beam_deidentify,
    greedy_deidentify,
    idf_baseline,
    idf_table_aware_baseline,
    lexical_baseline,
    ner_baseline,
)
from .encoder import (
    CheckpointError,
    build_profile_matrix,
    init_params,
    load_checkpoint,
    rank_of,
    save_checkpoint,
)
from .metrics import pareto_sweep, utility_report, write_pareto_csv
from .reid import Bm25Reidentifier, NeuralReidentifier, ensemble_evaluate
from .training import TrainConfig, train

__version__ = "0.1.0"
