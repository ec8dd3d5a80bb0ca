//! # partstm-tuning — runtime per-partition tuning policy
//!
//! The dynamic half of *"Automatic Data Partitioning in Software
//! Transactional Memories"* (SPAA 2008): a heuristic that observes each
//! partition's statistics window and reconfigures the partition's STM
//! parameters (read visibility, conflict-detection granularity) on the fly.
//!
//! [`ThresholdPolicy`] is the paper's rule-based heuristic with hysteresis;
//! any other policy implements [`partstm_core::TuningPolicy`] directly.
//!
//! ```
//! use std::sync::Arc;
//! use partstm_core::{PartitionConfig, Stm};
//! use partstm_tuning::ThresholdPolicy;
//!
//! let stm = Stm::new();
//! let hot = stm.new_partition(PartitionConfig::named("hot").tunable());
//! stm.set_tuner(Arc::new(ThresholdPolicy::new()));
//! // ... run transactions; `hot` is re-tuned every window.
//! # let _ = hot;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod threshold;

pub use threshold::{coarsen, refine, ThresholdPolicy, Thresholds};
