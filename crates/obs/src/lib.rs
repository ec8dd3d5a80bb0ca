//! Observability primitives for the partitioned STM runtime.
//!
//! This crate is a dependency-free leaf: it knows nothing about
//! transactions or partitions, only about recording numeric facts cheaply
//! from many threads at once. Two building blocks and a writer:
//!
//! * [`FlightRecorder`] / [`EventRing`] — bounded, lock-free rings of
//!   timestamped [`Event`]s (the *flight recorder*). Producers overwrite
//!   the oldest entries; readers take a best-effort merged snapshot at any
//!   time without stopping producers. Per-thread lanes give transaction
//!   lifecycle events a contention-free single-producer path; a shared
//!   control ring collects the (rare) control-plane events from daemon
//!   threads.
//! * [`Histogram`] — 64 power-of-two buckets plus count and sum, recorded
//!   with relaxed atomics (wait-free, no CAS loops). Snapshots
//!   ([`HistSnapshot`]) answer quantile queries at power-of-two
//!   resolution. One histogram costs 528 bytes.
//! * [`write_counter`] / [`write_hist`] — Prometheus text exposition of a
//!   labelled counter family and of a histogram snapshot. The counters
//!   themselves live with the data they count (the runtime's
//!   per-partition statistics), not here.
//!
//! Event payloads are three bare `u64`s so the [`Event`] struct stays
//! `Copy` and ring slots stay lock-free; domain meanings (partition ids,
//! outcome codes, durations, `f64` scores as bits) are documented per
//! [`EventKind`] and decoded by [`render_event`] / the [`codes`] tables.

#![warn(missing_docs)]

mod hist;
mod prom;
mod ring;

pub use hist::{HistSnapshot, Histogram, HIST_BUCKETS};
pub use prom::{write_counter, write_hist};
pub use ring::{render_event, Event, EventKind, EventRing, FlightRecorder};

use std::sync::OnceLock;
use std::time::Instant;

/// Microseconds since the process-wide observation epoch (the first call
/// to this function). All [`Event`] timestamps share this epoch, so
/// differences between any two events are meaningful.
pub fn now_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Domain code tables: small integers carried in [`Event`] payload words,
/// with their human-readable names for timeline rendering.
pub mod codes {
    /// Structural action completed (switch/resize/migrate succeeded).
    pub const OUTCOME_SWITCHED: u64 = 0;
    /// Structural action was a no-op (already in the requested state).
    pub const OUTCOME_UNCHANGED: u64 = 1;
    /// Structural action lost the flag race and was not attempted.
    pub const OUTCOME_CONTENDED: u64 = 2;
    /// Structural action rolled back: quiescence not reached in time.
    pub const OUTCOME_TIMED_OUT: u64 = 3;

    /// Name of a `OUTCOME_*` code.
    pub fn outcome_name(code: u64) -> &'static str {
        match code {
            OUTCOME_SWITCHED => "switched",
            OUTCOME_UNCHANGED => "unchanged",
            OUTCOME_CONTENDED => "contended",
            OUTCOME_TIMED_OUT => "timed-out",
            _ => "?",
        }
    }

    /// Abort on a write-lock conflict.
    pub const ABORT_WLOCK: u64 = 0;
    /// Abort on a visible-reader conflict.
    pub const ABORT_RLOCK: u64 = 1;
    /// Abort on read-set validation failure.
    pub const ABORT_VALIDATION: u64 = 2;
    /// Aborted by a writer's kill request (visible-read arbitration).
    pub const ABORT_KILLED: u64 = 3;
    /// Abort on a partition's switching/privatized flag.
    pub const ABORT_SWITCHING: u64 = 4;
    /// User-requested abort.
    pub const ABORT_USER: u64 = 5;

    /// Name of an `ABORT_*` code.
    pub fn abort_name(code: u64) -> &'static str {
        match code {
            ABORT_WLOCK => "wlock-conflict",
            ABORT_RLOCK => "rlock-conflict",
            ABORT_VALIDATION => "validation",
            ABORT_KILLED => "killed",
            ABORT_SWITCHING => "switching",
            ABORT_USER => "user",
            _ => "?",
        }
    }

    /// Controller action: split a hot subset out of a partition.
    pub const ACTION_SPLIT: u64 = 0;
    /// Controller action: merge a cold partition into another.
    pub const ACTION_MERGE: u64 = 1;
    /// Controller action: resize a partition's orec table in place.
    pub const ACTION_RESIZE: u64 = 2;
    /// Controller action: tear a hot slot subset out of a collection.
    pub const ACTION_TEAR: u64 = 3;
    /// Controller action: heal a torn slot subset back into its origin.
    pub const ACTION_HEAL: u64 = 4;

    /// Name of an `ACTION_*` code.
    pub fn action_name(code: u64) -> &'static str {
        match code {
            ACTION_SPLIT => "split",
            ACTION_MERGE => "merge",
            ACTION_RESIZE => "resize",
            ACTION_TEAR => "tear",
            ACTION_HEAL => "heal",
            _ => "?",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }

    #[test]
    fn code_names_roundtrip() {
        assert_eq!(codes::outcome_name(codes::OUTCOME_TIMED_OUT), "timed-out");
        assert_eq!(codes::abort_name(codes::ABORT_VALIDATION), "validation");
        assert_eq!(codes::action_name(codes::ACTION_SPLIT), "split");
        assert_eq!(codes::action_name(codes::ACTION_TEAR), "tear");
        assert_eq!(codes::action_name(codes::ACTION_HEAL), "heal");
        assert_eq!(codes::outcome_name(99), "?");
    }
}
