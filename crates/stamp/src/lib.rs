//! # partstm-stamp — STAMP-style application benchmarks
//!
//! Faithful Rust ports of the three STAMP applications the reproduction's
//! evaluation drives: **vacation** (travel reservations, four relations in
//! four partitions), **kmeans** (transactional centroid accumulators) and
//! **genome** (segment dedup + overlap matching).
//! Each application exposes its `partition_plan()`-style program model (or
//! partition constructors) so the compile-time analysis -> runtime
//! partitions pipeline of the paper's Figure 1 runs end to end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod vacation;

pub use common::SplitMix64;
