//! # partstm-analysis — automatic compile-time data partitioning
//!
//! Reproduction of the static half of *"Automatic Data Partitioning in
//! Software Transactional Memories"* (SPAA 2008): given a points-to view of
//! a program (allocation sites + access sites with may-touch sets), compute
//! the finest partitioning of transactional data such that every access
//! site targets exactly one partition's metadata — the soundness condition
//! the paper's compiler pass (Tanger + the data-structure analysis of its
//! reference \[6\]) establishes.
//!
//! In the original system the frontend is an LLVM pass; here the program
//! model is an explicit (serializable) structure the benchmarks construct.
//! The partitioning algorithm itself (union-find closure over may-touch
//! sets) is the paper's.
//!
//! ```
//! use partstm_analysis::{partition, AccessKind, ModelBuilder, Strategy};
//!
//! let mut b = ModelBuilder::new("demo");
//! let list = b.alloc("list_nodes", "ListNode");
//! let tree = b.alloc("tree_nodes", "TreeNode");
//! b.access("list_insert", AccessKind::Write, &[list]);
//! b.access("tree_lookup", AccessKind::Read, &[tree]);
//! let model = b.build().unwrap();
//!
//! let plan = partition(&model, Strategy::MayTouch).unwrap();
//! assert_eq!(plan.partition_count(), 2); // list and tree get private metadata
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod model;
pub mod online;
pub mod partitioner;
pub mod report;
pub mod runtime;
pub mod unionfind;

pub use model::{
    AccessId, AccessKind, AccessSite, AllocId, AllocSite, ModelBuilder, ModelError, ProgramModel,
};
pub use online::{ActionKind, NodeLoad, OnlineAnalyzer, OnlineConfig, Proposal, ProposalHeader};
pub use partitioner::{merge_chain, partition, PartitionClass, PartitionPlan, Strategy};
pub use report::{census, Census, ClassSummary};
pub use runtime::MaterializePlan;
pub use unionfind::UnionFind;
