//! # partstm-structures — transactional data structures
//!
//! The benchmark substrates of the reproduction: the integer-set
//! microbenchmark structures the paper's evaluation drives (sorted linked
//! list, skip list, red-black tree, hash set) plus the bank-accounts
//! atomicity probe. Every structure is built on `partstm-core`'s arena +
//! `PVar` words and owns the partition that guards it, so composing
//! structures composes partitions — exactly the application shape the
//! paper's per-partition tuning exploits. Each arena-backed algorithm is
//! written once over `partstm_core::Access`, so the same `put`/`get`/
//! `insert`/`push_back` runs inside a transaction (`tree.put(tx, k, v)`)
//! and, at plain-memory speed, under a privatization hold
//! (`tree.put(&mut guard.access(), k, v)`).
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
