"""Feature selection laboratory for system-call traces.

Pipeline: parse strace-style logs into call counts, weight them with
tf-idf, discretize into four bins, pick calls with a greedy
dependency-preserving reduct, filter the survivors with a two-sample z
test, and evaluate ranked prefixes with a bagged-tree classifier under
stratified cross validation. Entropy, chi-square, and symmetric
uncertainty rankers serve as baselines, and a synthetic corpus generator
plus brute-force oracles back the test suite.
"""

from .baselines import (
    RankedFeature,
    chi_square,
    entropy_bits,
    information_gain,
    rank,
    symmetric_uncertainty,
)
from .errors import CallSelectError, ConfigError, InvariantError
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    LengthResult,
    metrics,
    roc_auc,
    stratified_folds,
    sweep,
    sweep_folds,
)
from .featurize import (
    BIN_LABELS,
    DecisionTable,
    FeatureVectorTable,
    build_fvt,
    build_fvt_and_relative_frequencies,
    discretize,
    label_codes,
    midpoint_table,
    read_decision_table_csv,
)
from .forest import TreeEnsemble, predict, predict_scores, train
from .ingest import (
    CallCountRecord,
    Corpus,
    IngestResult,
    ParseSummary,
    TraceLine,
    ingest_corpus,
    parse_line,
    parse_log_detailed,
    read_manifest,
    read_records_jsonl,
    write_records_jsonl,
)
from .oracles import (
    ExhaustiveResult,
    exhaustive_reduct,
    minmax_columns,
    naive_positive_region,
    pairwise_roc_auc,
    random_decision_table,
    reference_forest,
    reference_parse_line,
    reference_term_frequencies,
)
from .roughset import (
    Reduct,
    ReductStep,
    generate_reduct,
    partition,
    positive_region,
    significance,
)
from .synth import SynthSpec, default_spec, generate, vocabulary
from .ztest import (
    ClassStats,
    StatFilterResult,
    ZVerdict,
    class_stats,
    critical_value,
    eval_ranking,
    filter_calls,
    z_score,
)

__version__ = "0.1.0"
