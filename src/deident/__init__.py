"""Text deidentification by adversarial reidentification search.

Masks the smallest set of words needed to push a document's true profile
out of the top-K predictions of a trained reidentification model, and
evaluates redactions with an ensemble of reidentifiers plus utility
metrics.
"""

from .corpus import (
    AlignedRecord,
    Corpus,
    CorpusError,
    Document,
    IdfTable,
    MASK_TOKEN,
    Profile,
    ProfileStore,
    Token,
    Vocabulary,
    apply_mask,
    compute_idf,
    corpus_stats,
    linearize_profile,
    load_corpus,
    load_redacted,
    load_sidecar,
    tokenize,
)
from .deid import (
    RedactionResult,
    beam_deidentify,
    candidate_positions,
    greedy_deidentify,
    idf_baseline,
    idf_table_aware_baseline,
    lexical_baseline,
    load_tag_file,
    ner_baseline,
    rule_tags,
)
from .encoder import (
    CheckpointError,
    ModelParams,
    build_profile_matrix,
    init_params,
    load_checkpoint,
    rank_of,
    save_checkpoint,
)
from .metrics import (
    ParetoPoint,
    UtilityReport,
    information_loss,
    pareto_sweep,
    percent_masked,
    utility_report,
    write_pareto_csv,
)
from .reid import (
    Bm25Reidentifier,
    EnsembleReport,
    NeuralReidentifier,
    ensemble_evaluate,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .training import (
    Gradients,
    TrainConfig,
    clip_gradients,
    train,
)

__version__ = "0.1.0"
