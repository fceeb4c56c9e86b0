"""EPFIS: Estimating Page Fetches for Index Scans with Finite LRU Buffers.

A faithful, laptop-scale reproduction of Swami & Schiefer's EPFIS system
(The VLDB Journal 4(4), 1995; submitted 1994), including:

* a page-structured storage engine with real B-tree indexes
  (:mod:`repro.storage`),
* exact LRU buffer simulation and single-pass Mattson stack analysis
  (:mod:`repro.buffer`),
* the paper's synthetic data generator and a statistics-calibrated
  simulation of the Great-West Life customer database
  (:mod:`repro.datagen`),
* Algorithm EPFIS (LRU-Fit + Est-IO) and the ML / DC / SD / OT baselines
  (:mod:`repro.estimators`),
* a catalog, a cost-based access-path selector, and the paper's full
  experimental harness (:mod:`repro.catalog`, :mod:`repro.optimizer`,
  :mod:`repro.eval`),
* a micro-batching, multi-tenant serving tier with a deterministic
  load generator (:mod:`repro.serving`).

Quickstart::

    from repro import (
        SyntheticSpec, build_synthetic_dataset, EPFISEstimator,
        ScanSelectivity,
    )

    dataset = build_synthetic_dataset(SyntheticSpec(
        records=20_000, distinct_values=200, records_per_page=40,
        theta=0.86, window=0.2, seed=7,
    ))
    epfis = EPFISEstimator.from_index(dataset.index)
    print(epfis.estimate(ScanSelectivity(0.05), buffer_pages=100))
"""

from repro.buffer import (
    ClockBufferPool,
    FIFOBufferPool,
    FetchCurve,
    LRUBufferPool,
    simulate_fetches,
)
from repro.catalog import CatalogStore, IndexStatistics, SystemCatalog
from repro.datagen import (
    Dataset,
    GWLDatabase,
    SyntheticSpec,
    WindowPlacer,
    append_records,
    build_gwl_database,
    build_synthetic_dataset,
    delete_records,
    zipf_counts,
)
from repro.errors import (
    CheckpointError,
    FaultInjectionError,
    ReproError,
    ResilienceError,
    ServingError,
)
from repro.engine import EstimationEngine
from repro.resilience import (
    BreakerPolicy,
    Checkpointer,
    CheckpointPolicy,
    CircuitBreaker,
    FaultInjector,
    FaultRule,
    ResilientCatalogStore,
    RetryPolicy,
)
from repro.estimators import (
    CardenasEstimator,
    DCEstimator,
    EPFISEstimator,
    EstIO,
    LRUFit,
    LRUFitConfig,
    MackertLohmanEstimator,
    OTEstimator,
    PageFetchEstimator,
    PerfectlyClusteredEstimator,
    PerfectlyUnclusteredEstimator,
    SDEstimator,
    SmoothEPFISEstimator,
    WatersEstimator,
    YaoEstimator,
    available_estimators,
    cardenas,
    get_estimator,
    register_estimator,
    resolve_estimator,
    waters,
    yao,
)
from repro.eval import (
    BufferGrid,
    ExperimentSpec,
    evaluation_buffer_grid,
    run_error_behavior,
    run_experiment_spec,
)
from repro.executor import QueryExecutor, plan_from_choice
from repro.fit import PiecewiseLinear, fit_piecewise_linear
from repro.obs import (
    MetricsRegistry,
    Tracer,
    global_registry,
    observability_session,
)
from repro.optimizer import choose_access_plan
from repro.serving import (
    EstimateRequest,
    EstimateResponse,
    EstimationServer,
    ServingConfig,
    ServingTCPServer,
    TenantCatalogs,
    WorkloadSpec,
)
from repro.storage import (
    BTreeIndex,
    CompositeIndex,
    HeapFile,
    Index,
    MinorColumnPredicate,
    Page,
    Table,
    major_range,
)
from repro.trace import ReferenceTrace, clustering_factor, summarize_locality
from repro.types import RID, ScanSelectivity, TableShape
from repro.workload import (
    HashSamplePredicate,
    KeyRange,
    ScanKind,
    ScanSpec,
    generate_scan_mix,
    simulate_contention,
)

__version__ = "1.0.0"

__all__ = [
    "BTreeIndex",
    "BreakerPolicy",
    "CardenasEstimator",
    "CompositeIndex",
    "BufferGrid",
    "CatalogStore",
    "CheckpointError",
    "CheckpointPolicy",
    "Checkpointer",
    "CircuitBreaker",
    "ClockBufferPool",
    "DCEstimator",
    "Dataset",
    "EPFISEstimator",
    "EstIO",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationEngine",
    "EstimationServer",
    "ExperimentSpec",
    "FIFOBufferPool",
    "FaultInjectionError",
    "FaultInjector",
    "FaultRule",
    "FetchCurve",
    "GWLDatabase",
    "HashSamplePredicate",
    "HeapFile",
    "Index",
    "IndexStatistics",
    "KeyRange",
    "LRUBufferPool",
    "LRUFit",
    "LRUFitConfig",
    "MetricsRegistry",
    "MinorColumnPredicate",
    "MackertLohmanEstimator",
    "OTEstimator",
    "Page",
    "PageFetchEstimator",
    "PerfectlyClusteredEstimator",
    "PerfectlyUnclusteredEstimator",
    "PiecewiseLinear",
    "QueryExecutor",
    "RID",
    "ReferenceTrace",
    "ReproError",
    "ResilienceError",
    "ResilientCatalogStore",
    "RetryPolicy",
    "SDEstimator",
    "ScanKind",
    "ScanSelectivity",
    "ScanSpec",
    "ServingConfig",
    "ServingError",
    "ServingTCPServer",
    "SmoothEPFISEstimator",
    "SyntheticSpec",
    "SystemCatalog",
    "Table",
    "TableShape",
    "TenantCatalogs",
    "Tracer",
    "WindowPlacer",
    "WorkloadSpec",
    "append_records",
    "available_estimators",
    "build_gwl_database",
    "build_synthetic_dataset",
    "cardenas",
    "get_estimator",
    "choose_access_plan",
    "clustering_factor",
    "delete_records",
    "evaluation_buffer_grid",
    "fit_piecewise_linear",
    "generate_scan_mix",
    "global_registry",
    "major_range",
    "observability_session",
    "plan_from_choice",
    "register_estimator",
    "resolve_estimator",
    "run_error_behavior",
    "run_experiment_spec",
    "WatersEstimator",
    "YaoEstimator",
    "simulate_contention",
    "simulate_fetches",
    "summarize_locality",
    "waters",
    "yao",
    "zipf_counts",
]
