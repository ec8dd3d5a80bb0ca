//! # partstm-core — partitioned software transactional memory
//!
//! A word-based STM runtime (in the TinySTM family) whose concurrency-
//! control metadata is *partitioned*: every [`Partition`] owns its own
//! ownership-record table and its own configuration — read visibility
//! (invisible timestamp-validated reads vs. visible reader bitmaps), lock
//! acquisition time (encounter vs. commit), conflict-detection granularity
//! (per-word, per-stripe, or one lock for the whole partition) and
//! contention management. A pluggable [`TuningPolicy`] may reconfigure each
//! partition at runtime based on its observed statistics.
//!
//! This is a from-scratch reproduction of the system described in
//! *"Automatic Data Partitioning in Software Transactional Memories"*
//! (Riegel, Fetzer, Felber — SPAA 2008). The compile-time partitioning
//! analysis that assigns data structures to partitions lives in the sibling
//! crate `partstm-analysis`; heuristic tuning policies live in
//! `partstm-tuning`.
//!
//! ## Quickstart
//!
//! Variables are *bound to their partition at allocation*
//! ([`Partition::tvar`] returns a [`PVar`]); access sites then name only
//! the variable:
//!
//! ```
//! use partstm_core::{PartitionConfig, Stm};
//!
//! let stm = Stm::new();
//! let accounts = stm.new_partition(PartitionConfig::named("accounts"));
//! let a = accounts.tvar(100i64);
//! let b = accounts.tvar(0i64);
//!
//! let ctx = stm.register_thread();
//! ctx.run(|tx| {
//!     let va = tx.read(&a)?;
//!     let vb = tx.read(&b)?;
//!     tx.write(&a, va - 30)?;
//!     tx.write(&b, vb + 30)?;
//!     Ok(())
//! });
//! assert_eq!(a.load_direct(), 70);
//! assert_eq!(b.load_direct(), 30);
//! ```
//!
//! ## Soundness contract
//!
//! Each transactional variable must always be accessed through the *same*
//! partition: the partition's orec table is what detects conflicts, so
//! routing one variable through two partitions would miss conflicts. In
//! the paper this invariant is established by the compile-time
//! partitioning analysis; in this library it holds *by construction*: a
//! [`PVar`] is the only kind of transactional variable, its binding is
//! fixed at allocation (and moved only by the repartition protocol), and
//! no access site can name a partition at all. There is one way to touch
//! one — [`Access`], implemented by a transaction ([`Tx`]) and by the
//! holder of a privatized partition ([`PrivateGuard::access`]) — and one
//! way to read one — its read half [`Read`], implemented by those two, by
//! a snapshot reader ([`ReadTx`]) and by the plain-load [`Quiescent`]. So
//! structure code is written once and runs in all of them. The
//! `partstm-analysis` crate reproduces the analysis that derives the
//! variable→partition assignment automatically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(clippy::multiple_unsafe_ops_per_block)]

pub mod arena;
pub mod clock;
pub mod cm;
pub mod config;
pub mod error;
pub mod fault;
pub mod orec;
pub mod partition;
pub mod privatize;
pub mod profiler;
pub mod pvar;
mod quiesce;
pub mod repartition;
pub mod rtlog;
pub mod snapshot;
pub mod stats;
pub mod stm;
pub mod telemetry;
pub mod tuner;
pub mod txn;
mod view;
pub mod word;

pub use arena::{Arena, ArenaSlots, Handle};
pub use config::{
    AcquireMode, CmPolicy, DynConfig, Granularity, PartitionConfig, ReadMode, ReaderArb,
};
pub use error::{Abort, AbortKind, TxResult};
pub use fault::{FaultPlan, FaultSite};
pub use partition::{Partition, PartitionId};
pub use privatize::{PrivateGuard, PrivatizeError};
pub use profiler::{AccessProfiler, BucketTouch, SampleTouch, TxSample, PROFILE_BUCKETS};
pub use pvar::{Access, Migratable, PVar, PVarBinding, PVarFields, Quiescent, Read};
pub use repartition::{ArenaView, MigratableCollection, MigrationSource};
pub use snapshot::ReadTx;
pub use stats::StatCounters;
pub use stm::{Stm, StmBuilder, SwitchOutcome, ThreadCtx, MAX_THREADS};
pub use tuner::{TuneInput, TuningPolicy};
pub use txn::Tx;
pub use word::TxWord;
