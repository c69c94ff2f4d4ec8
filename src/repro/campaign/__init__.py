"""Fault-injection campaign engine (the FAIL*-equivalent substrate)."""

from .compose import SectionComposer, build_composer
from .database import (
    CampaignSummary,
    JournalCache,
    export_class_results_csv,
    export_class_rows_csv,
    import_class_results_csv,
    program_fingerprint,
)
from .experiment import (
    DEFAULT_TIMEOUT_FACTOR,
    DEFAULT_TIMEOUT_SLACK,
    ExecutorConfig,
    ExperimentExecutor,
    ExperimentRecord,
)
from .journal import (
    ExecutionReport,
    ExperimentJournal,
    JournalError,
    JournalMismatchError,
)
from .dist import DistCoordinator, DistWorker, run_distributed_scan
from .parallel import RetryPolicy, resolve_jobs
from .golden import (
    DEFAULT_GOLDEN_CYCLE_LIMIT,
    MAX_CHECKPOINTS,
    CheckpointLadder,
    GoldenRun,
    GoldenRunError,
    record_golden,
)
from .outcomes import (
    BENIGN_OUTCOMES,
    CORRECTED_CODE,
    FAILURE_OUTCOMES,
    Outcome,
    PANIC_CODE,
    classify,
)
from .runner import (
    BruteForceResult,
    CampaignResult,
    SAMPLERS,
    SamplingResult,
    run_brute_force,
    run_full_scan,
    run_sampling,
)

__all__ = [
    "BENIGN_OUTCOMES",
    "BruteForceResult",
    "CORRECTED_CODE",
    "CampaignResult",
    "CampaignSummary",
    "DEFAULT_GOLDEN_CYCLE_LIMIT",
    "DEFAULT_TIMEOUT_FACTOR",
    "DEFAULT_TIMEOUT_SLACK",
    "DistCoordinator",
    "DistWorker",
    "ExecutionReport",
    "ExecutorConfig",
    "ExperimentExecutor",
    "ExperimentJournal",
    "ExperimentRecord",
    "FAILURE_OUTCOMES",
    "JournalCache",
    "JournalError",
    "JournalMismatchError",
    "SectionComposer",
    "build_composer",
    "RetryPolicy",
    "resolve_jobs",
    "CheckpointLadder",
    "GoldenRun",
    "GoldenRunError",
    "MAX_CHECKPOINTS",
    "Outcome",
    "PANIC_CODE",
    "SAMPLERS",
    "SamplingResult",
    "classify",
    "export_class_results_csv",
    "export_class_rows_csv",
    "import_class_results_csv",
    "program_fingerprint",
    "record_golden",
    "run_brute_force",
    "run_distributed_scan",
    "run_full_scan",
    "run_sampling",
]
