//! # partstm — partitioned software transactional memory
//!
//! Facade crate for the workspace reproducing *"Automatic Data Partitioning
//! in Software Transactional Memories"* (Riegel, Fetzer, Felber — SPAA
//! 2008). Re-exports every sub-crate under one roof; see the README for a
//! tour.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `partstm-core` | the STM engine: partitions, `PVar`s, transactions, tuning hooks, access profiler |
//! | [`analysis`] | `partstm-analysis` | the compile-time automatic partitioner + online affinity analysis |
//! | [`repart`] | `partstm-repart` | the online repartitioner: live partition split/merge + `PVar` migration |
//! | [`tuning`] | `partstm-tuning` | the runtime tuning policy (threshold heuristic with hysteresis) |
//! | [`structures`] | `partstm-structures` | transactional list / skip list / rb-tree / hash map / queue / bank |
//! | [`stamp`] | `partstm-stamp` | STAMP application ports: vacation, kmeans, genome, intruder |
//!
//! ```
//! use partstm::core::{PartitionConfig, Stm};
//!
//! let stm = Stm::new();
//! let part = stm.new_partition(PartitionConfig::named("demo"));
//! let x = part.tvar(1u64); // bound to its partition at allocation
//! let ctx = stm.register_thread();
//! let doubled = ctx.run(|tx| tx.modify(&x, |v| v * 2));
//! assert_eq!(doubled, 2);
//! ```

#![warn(missing_docs)]

pub use partstm_analysis as analysis;
pub use partstm_core as core;
pub use partstm_repart as repart;
pub use partstm_stamp as stamp;
pub use partstm_structures as structures;
pub use partstm_tuning as tuning;
