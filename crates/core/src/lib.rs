//! # abft-coop-core
//!
//! The paper's contribution, assembled: ABFT-directed flexible ECC
//! (Li et al., SC 2013).
//!
//! * [`strategy`] — the six basic-test ECC strategies (No ECC, W_CK,
//!   P_CK+No_ECC, W_SD, P_SD+No_ECC, P_CK+P_SD).
//! * [`campaign`] — the one-cell job primitives and the [`CampaignRun`]
//!   a grid produces (cells, counters, [`BasicTest`] views, JSON/CSV).
//! * `experiment` — the Section 5.1 metrics ([`BasicTest`] and the
//!   fault-adjusted projections), built from a [`CampaignRun`].
//! * `errorflow` — end-to-end Case 1-4 drills against the real stack
//!   (bit-true ECC, MC error registers, OS interrupt path, sysfs, ABFT
//!   correction) plus ARE-vs-ASE population summaries.
//! * [`policy`] — the adaptive ARE/ASE decision from the Equation (7)/(8)
//!   MTTF thresholds.
//! * `adaptive` — the run-time controller that watches observed error
//!   rates and retunes ECC through `assign_ecc` (the paper's closing
//!   "co-design and adaptive policy" claim, executable).
//! * [`client`] — the one campaign API: harness binaries describe grids
//!   declaratively with [`CampaignSpec`] and [`CampaignClient`] expands
//!   them into (workload x config x strategy) jobs on a rayon pool, with
//!   traces shared through a `TraceCache` and, optionally, an on-disk
//!   artifact store.
//! * [`report`] — text tables and the [`ReportSink`] emission trait for
//!   the per-figure harness binaries.

pub(crate) mod adaptive;
pub mod campaign;
pub mod client;
pub(crate) mod errorflow;
pub(crate) mod experiment;
pub mod policy;
pub mod report;
pub mod strategy;

pub use adaptive::{AdaptiveConfig, AdaptiveController, Stance, Transition};
pub use campaign::{
    run_strategy_job, run_strategy_miss_stream, run_strategy_sampled, run_strategy_source,
    CampaignMetrics, CampaignResult, CampaignRun, Progress, ProgressHook,
};
pub use client::{
    parse_simpoint_env, CampaignClient, CampaignSpec, CampaignSpecBuilder, SIMPOINT_ENV, STORE_ENV,
};
pub use errorflow::{
    drill_chip_fault, drill_matrix, summarize_cases, CaseSummary, DetectedBy, DrillResult,
};
pub use experiment::{fault_adjusted, BasicTest, FaultAdjusted, StrategyResult};
pub use policy::{decide, PolicyDecision, PolicyInputs};
pub use report::{FileSink, ReportSink, StdoutSink, TextTable};
pub use strategy::Strategy;
