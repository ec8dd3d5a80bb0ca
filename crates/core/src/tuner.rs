//! Runtime tuning hook.
//!
//! The engine periodically (every `window` commits per partition) hands a
//! statistics delta to a [`TuningPolicy`]; if the policy returns a new
//! [`DynConfig`], the runtime switches the partition via the quiesce
//! protocol (see [`crate::Stm::switch_partition`]). Policies live in the
//! `partstm-tuning` crate; this module defines only the interface so the
//! engine stays policy-agnostic.
//!
//! ## Cadence
//!
//! [`crate::Stm::set_tuner`] reads `policy.window()` once and keeps a copy
//! the commit path loads with one relaxed load (0 = no tuner: the hook
//! stops there). A commit of a tunable partition then reads its own
//! thread's stat shard (`PartitionStats::own_commits`); only every
//! `stride`-th own commit, `stride = min(TUNE_STRIDE, window)`, takes the
//! tuner lock and credits `stride` commits to the partition's shared gate.
//! The commit that fills the gate to a window claims it (subtracting the
//! window, so strides credited concurrently are kept) and evaluates. The
//! policy still sees an exact [`StatCounters`] delta of the partition's
//! summed shards.
//!
//! On one thread, with a window that is a multiple of the stride, the
//! evaluations fire at exactly every `window`-th commit. With `T` threads
//! each holds back at most `stride − 1` uncredited commits, so an
//! evaluation fires at most `T × (stride − 1)` commits late, and never
//! early.

use crate::config::DynConfig;
use crate::partition::PartitionId;
use crate::stats::StatCounters;

/// Own commits between two visits of the shared tuning state (module
/// docs). Not a knob: it trades evaluation lateness (≤ `T × (stride − 1)`
/// commits) for shared-line traffic (one lock, two `Arc` clones and one
/// RMW per `stride` commits).
pub(crate) const TUNE_STRIDE: u64 = 64;

/// Everything a policy sees when evaluating one partition.
#[derive(Debug, Clone)]
pub struct TuneInput {
    /// Which partition is being evaluated.
    pub partition: PartitionId,
    /// The partition's name.
    pub name: String,
    /// Configuration currently in force.
    pub config: DynConfig,
    /// Counter deltas since the previous evaluation of this partition.
    pub delta: StatCounters,
    /// Wall-clock seconds covered by `delta`.
    pub seconds: f64,
}

impl TuneInput {
    /// Fraction of commits that wrote the partition (0 if no commits).
    pub fn update_fraction(&self) -> f64 {
        if self.delta.commits == 0 {
            0.0
        } else {
            self.delta.update_commits as f64 / self.delta.commits as f64
        }
    }

    /// Aborts per attempt: `aborts / (commits + aborts)` (0 if idle).
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.delta.aborts();
        let attempts = self.delta.commits + aborts;
        if attempts == 0 {
            0.0
        } else {
            aborts as f64 / attempts as f64
        }
    }

    /// Mean reads per commit (0 if no commits).
    pub fn reads_per_commit(&self) -> f64 {
        if self.delta.commits == 0 {
            0.0
        } else {
            self.delta.reads as f64 / self.delta.commits as f64
        }
    }
}

/// Decision returned by a policy: the configuration the partition should
/// switch to. Returning the current configuration (or `None`) keeps it.
pub trait TuningPolicy: Send + Sync {
    /// Commits per partition between evaluations. Read once, when the
    /// policy is installed ([`crate::Stm::set_tuner`]); with `T` threads an
    /// evaluation may fire up to `T × (min(64, window) − 1)` commits late
    /// (module docs). A window that is a multiple of 64 (or below it) is
    /// exact on one thread.
    fn window(&self) -> u64 {
        4096
    }

    /// Inspect one partition's recent behaviour; optionally reconfigure.
    ///
    /// Decisions a policy returns are visible in the flight recorder when
    /// telemetry is enabled: an applied switch lands as a `ConfigSwitch`
    /// event (with outcome, via the partition-switch path it shares with
    /// manual switches), and structural reconfigurations reset the window
    /// with a `TunerWindowReset` event. See [`crate::telemetry`].
    fn evaluate(&self, input: &TuneInput) -> Option<DynConfig>;
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Barrier, Mutex};

    use super::*;
    use crate::{PVar, Partition, PartitionConfig, Stm, ThreadCtx};

    fn input(commits: u64, updates: u64, aborts: u64, reads: u64) -> TuneInput {
        TuneInput {
            partition: PartitionId(0),
            name: "t".into(),
            config: DynConfig::from(&crate::config::PartitionConfig::default()),
            delta: StatCounters {
                commits,
                update_commits: updates,
                aborts_wlock: aborts,
                reads,
                ..Default::default()
            },
            seconds: 1.0,
        }
    }

    #[test]
    fn derived_rates() {
        let i = input(100, 40, 25, 1000);
        assert!((i.update_fraction() - 0.4).abs() < 1e-9);
        assert!((i.abort_rate() - 0.2).abs() < 1e-9);
        assert!((i.reads_per_commit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn idle_partition_rates_are_zero() {
        let i = input(0, 0, 0, 0);
        assert_eq!(i.update_fraction(), 0.0);
        assert_eq!(i.abort_rate(), 0.0);
        assert_eq!(i.reads_per_commit(), 0.0);
    }

    /// Records every evaluation and never reconfigures.
    struct Counting {
        window: u64,
        seen: Mutex<Vec<TuneInput>>,
    }

    impl Counting {
        fn new(window: u64) -> Arc<Self> {
            Arc::new(Counting {
                window,
                seen: Mutex::new(Vec::new()),
            })
        }

        fn seen(&self) -> Vec<TuneInput> {
            self.seen.lock().unwrap().clone()
        }
    }

    impl TuningPolicy for Counting {
        fn window(&self) -> u64 {
            self.window
        }

        fn evaluate(&self, input: &TuneInput) -> Option<DynConfig> {
            self.seen.lock().unwrap().push(input.clone());
            None
        }
    }

    fn tunable() -> (Stm, Arc<Partition>) {
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("t").tunable());
        (stm, part)
    }

    fn commit_n(ctx: &ThreadCtx, v: &PVar<u64>, n: u64) {
        for _ in 0..n {
            ctx.run(|tx| {
                let x = tx.read(v)?;
                tx.write(v, x + 1)
            });
        }
    }

    // Miri runs each commit slowly; fewer windows and rounds still cover a
    // stride equal to the window (8) and one below it (256).
    const ROUNDS: u64 = if cfg!(miri) { 3 } else { 10 };

    #[test]
    fn one_thread_evaluates_every_window_exactly() {
        let windows: &[u64] = if cfg!(miri) {
            &[8, 256]
        } else {
            &[8, 50, 256, 4096]
        };
        for &w in windows {
            let (stm, part) = tunable();
            let policy = Counting::new(w);
            stm.set_tuner(policy.clone());
            let v = part.tvar(0u64);
            commit_n(&stm.register_thread(), &v, ROUNDS * w);
            let seen = policy.seen();
            assert_eq!(seen.len() as u64, ROUNDS, "window {w}");
            for i in &seen {
                assert_eq!(i.partition, part.id());
                assert_eq!(i.delta.commits, w, "window {w}: exact deltas");
            }
        }
    }

    #[test]
    fn window_off_the_stride_is_late_not_lost() {
        // 100 is no multiple of the stride (64): a claim leaves the
        // overshoot in the gate for the next window instead of zeroing it.
        let (stm, part) = tunable();
        let policy = Counting::new(100);
        stm.set_tuner(policy.clone());
        let v = part.tvar(0u64);
        let ctx = stm.register_thread();
        commit_n(&ctx, &v, 1000);
        // 960 credited (15 strides): 9 windows; zeroing would leave 7.
        assert_eq!(policy.seen().len(), 9);
        commit_n(&ctx, &v, 24);
        // 1024 credited: the tenth window, 24 commits late.
        assert_eq!(policy.seen().len(), 10);
    }

    #[test]
    fn threads_evaluate_within_the_stride_slack() {
        const T: u64 = 2;
        // Per phase the two threads credit at most one window
        // (`ceil(m / stride) * stride` summed stays ≤ the window), so two
        // claims never overlap and no evaluation is dropped at `try_lock`:
        // the count depends on the per-thread totals alone.
        let (w, per_phase) = if cfg!(miri) {
            (16, [7, 6])
        } else {
            (256, [100, 90])
        };
        let stride = w.min(TUNE_STRIDE);
        let (stm, part) = tunable();
        let policy = Counting::new(w);
        stm.set_tuner(policy.clone());
        let vars = [part.tvar(0u64), part.tvar(0u64)];
        let barrier = Barrier::new(T as usize);
        std::thread::scope(|s| {
            for (v, m) in vars.iter().zip(per_phase) {
                let (stm, barrier) = (&stm, &barrier);
                s.spawn(move || {
                    let ctx = stm.register_thread();
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        commit_n(&ctx, v, m);
                    }
                });
            }
        });
        let c = ROUNDS * per_phase.iter().sum::<u64>();
        let e = policy.seen().len() as u64;
        assert!(e <= c / w, "{e} evaluations after {c} commits: never early");
        assert!(
            e >= (c - T * (stride - 1)) / w,
            "{e} evaluations after {c} commits: at most T × (stride − 1) late"
        );
    }

    #[test]
    fn late_install_evaluates_and_clear_stops() {
        let (stm, part) = tunable();
        let v = part.tvar(0u64);
        let ctx = stm.register_thread();
        commit_n(&ctx, &v, 37);
        let policy = Counting::new(8);
        stm.set_tuner(policy.clone());
        commit_n(&ctx, &v, 8 * ROUNDS);
        assert_eq!(policy.seen().len() as u64, ROUNDS, "installed late");
        stm.clear_tuner();
        commit_n(&ctx, &v, 8 * ROUNDS);
        assert_eq!(policy.seen().len() as u64, ROUNDS, "cleared");
    }

    #[test]
    fn snapshot_reads_do_not_shift_the_cadence() {
        let (stm, part) = tunable();
        let policy = Counting::new(8);
        stm.set_tuner(policy.clone());
        let v = part.tvar(0u64);
        let ctx = stm.register_thread();
        for _ in 0..8 * ROUNDS {
            commit_n(&ctx, &v, 1);
            ctx.snapshot_read(|tx| tx.read(&v));
        }
        assert_eq!(policy.seen().len() as u64, ROUNDS);
    }
}
