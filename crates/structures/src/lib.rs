//! # partstm-structures — transactional data structures
//!
//! The benchmark substrates of the reproduction: the integer-set
//! microbenchmark structures the paper's evaluation drives (sorted linked
//! list, skip list, red-black tree, hash set) plus the bank-accounts
//! atomicity probe. Every structure is built on `partstm-core`'s arena +
//! `PVar` words and owns the partition that guards it, so composing
//! structures composes partitions — exactly the application shape the
//! paper's per-partition tuning exploits. Each arena-backed algorithm is
//! written once over `partstm_core::Access`, so the same `put`/`insert`/
//! `push_back` runs inside a transaction (`tree.put(tx, k, v)`) and, at
//! plain-memory speed, under a privatization hold
//! (`tree.put(&mut guard.access(), k, v)`); each read-only one (`get`,
//! `contains`, `for_each`, `invariants`) over its read half `Read`, so it
//! also runs on a snapshot (`ctx.snapshot_read(|r| tree.get(r, k))`) and,
//! for the quiescent `snapshot_*` helpers, through `Quiescent`.
//!
//! Every structure is also movable: it implements
//! [`MigratableCollection`](partstm_core::MigratableCollection) by naming
//! its node arena and its roots, and the trait provides the rest — the
//! migration walk, `partition_of`, the profiler-bucket accounting and the
//! tear walk over hot slots. Register one with the online repartitioner's
//! directory (`StaticDirectory::register_collection` in
//! `partstm-repart`) and it can be split off whole or torn by key.
//!
//! ```
//! use partstm_core::{PartitionConfig, Stm};
//! use partstm_structures::{IntSet, TRbTree};
//!
//! let stm = Stm::new();
//! let tree = TRbTree::new(stm.new_partition(PartitionConfig::named("tree")));
//! let ctx = stm.register_thread();
//! ctx.run(|tx| tree.insert(tx, 42));
//! assert!(ctx.run(|tx| tree.contains(tx, 42)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod hashmap;
pub mod intset;
pub mod linkedlist;
pub mod queue;
pub mod rbtree;
pub mod skiplist;

pub use bank::Bank;
pub use hashmap::{THashMap, THashSet};
pub use intset::IntSet;
pub use linkedlist::TLinkedList;
pub use queue::TQueue;
pub use rbtree::TRbTree;
pub use skiplist::TSkipList;
