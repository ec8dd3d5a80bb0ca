//! Deterministic fault injection for the control plane's failure modes.
//!
//! The stuck-transaction scenarios this crate must survive — a thread
//! preempted (or dead) while holding encounter locks, a panic mid
//! transaction, a quiesce window stretched across a reschedule, a
//! controller action bouncing off a wedged partition — are scheduling
//! accidents: on a loaded 1-core host they happen every few minutes, in a
//! test harness essentially never. This module turns them into *seeded,
//! replayable schedules* so the remediation machinery (kill-based quiesce
//! rescue, the controller's circuit breaker) is exercised by CI instead of
//! by luck.
//!
//! ## Model
//!
//! A [`FaultPlan`] names the sites to perturb ([`FaultSite`]), each with a
//! fire probability (permille), an optional fire-count cap, and (for the
//! delay-shaped faults) a duration. [`install`] publishes the plan
//! process-wide; the engine's hook sites then consult it at well-defined
//! points:
//!
//! - [`FaultSite::StallHoldingLocks`] — fires at the end of a successful
//!   encounter-lock acquisition: the transaction spins *inside* the
//!   attempt, locks held, until the stall budget elapses **or its kill
//!   flag is raised** (the stall is cooperative, exactly like a real
//!   preempted-but-running thread, so kill rescue can reach it).
//! - [`FaultSite::MidTxPanic`] — fires in the write path after the write
//!   entry is logged: the attempt panics, exercising the `Drop`-driven
//!   rollback (locks released, reader bits cleared).
//! - [`FaultSite::QuiesceDelay`] — sleeps at the head of a
//!   flag→quiesce drain, widening the window other threads must cross.
//! - [`FaultSite::CtrlActionFail`] — makes the repartition controller
//!   report a quiesce timeout for an approved action of any kind (split,
//!   merge, resize, tear, heal) *without running it*, feeding the circuit
//!   breaker deterministically (and without waiting out a real quiesce
//!   deadline). Consulted once per approved action, after the
//!   hysteresis, privatized-hold and breaker gates.
//!
//! Decisions are a pure function of `(seed, site, per-site sequence
//! number)` — two runs of the same single-threaded schedule fire
//! identically, and concurrent runs are reproducible in distribution.
//! Plans are scoped to one [`Stm`](crate::Stm) with
//! [`FaultPlan::for_stm`], so a plan installed by one test cannot leak
//! faults into an unrelated `Stm` in the same process.
//!
//! ## Cost when off
//!
//! Identical to [`crate::telemetry`]: every hook site is gated on one
//! relaxed [`enabled`] load and a predictable branch; the plan lock is
//! only touched after that branch. No faults, no overhead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// The named injection points (see the [module docs](self) for where each
/// fires and what it does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// Stall inside a transaction right after encounter locks were taken.
    StallHoldingLocks = 0,
    /// Panic in the write path after the write entry is logged.
    MidTxPanic = 1,
    /// Sleep at the head of a flag→quiesce drain.
    QuiesceDelay = 2,
    /// Fail an approved controller action (any of the five kinds) as if
    /// its quiesce timed out.
    CtrlActionFail = 3,
}

const SITES: usize = 4;

#[derive(Debug, Clone, Copy)]
struct SiteCfg {
    /// Fire probability in 0..=1000 (0 = site disabled).
    permille: u32,
    /// Hard cap on fires (`u64::MAX` = unlimited).
    max_fires: u64,
    /// Stall/delay budget for the duration-shaped sites, µs.
    dur_micros: u64,
}

const OFF: SiteCfg = SiteCfg {
    permille: 0,
    max_fires: u64::MAX,
    dur_micros: 0,
};

/// A seeded, per-site fault schedule. Build with the chained
/// configurators, then [`install`] it; the returned `Arc` handle observes
/// fire counts ([`FaultPlan::injected`]) while the plan runs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// When set, only this `Stm` instance sees the plan's faults.
    stm_id: Option<u64>,
    sites: [SiteCfg; SITES],
    /// Per-site decision counter: every *consultation* of the site takes
    /// one sequence number, fired or not, which is what makes the
    /// schedule deterministic for a fixed arrival order.
    seqs: [AtomicU64; SITES],
    fired: [AtomicU64; SITES],
}

/// SplitMix64 finalizer: a well-mixed pure function of its input, so the
/// fire pattern is a reproducible function of `(seed, site, seq)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no site fires) with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            stm_id: None,
            sites: [OFF; SITES],
            seqs: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Scopes the plan to `stm`: hook sites reached by any other
    /// [`Stm`](crate::Stm) instance in the process ignore it. Tests and
    /// benchmarks sharing a process should always set this.
    pub fn for_stm(mut self, stm: &crate::Stm) -> Self {
        self.stm_id = Some(stm.inner.id);
        self
    }

    fn site(mut self, site: FaultSite, cfg: SiteCfg) -> Self {
        assert!(cfg.permille <= 1000, "permille is out of 1000");
        self.sites[site as usize] = cfg;
        self
    }

    /// Enables [`FaultSite::StallHoldingLocks`]: with probability
    /// `permille`/1000, a transaction that just finished acquiring an
    /// encounter lock spins in place (locks held, kill flag polled) for
    /// up to `dur`.
    pub fn stall_holding_locks(self, permille: u32, dur: Duration) -> Self {
        self.site(
            FaultSite::StallHoldingLocks,
            SiteCfg {
                permille,
                max_fires: u64::MAX,
                dur_micros: dur.as_micros() as u64,
            },
        )
    }

    /// Enables [`FaultSite::MidTxPanic`]: with probability
    /// `permille`/1000, a transactional write panics after logging its
    /// write entry.
    pub fn mid_tx_panic(self, permille: u32) -> Self {
        self.site(
            FaultSite::MidTxPanic,
            SiteCfg {
                permille,
                max_fires: u64::MAX,
                dur_micros: 0,
            },
        )
    }

    /// Enables [`FaultSite::QuiesceDelay`]: with probability
    /// `permille`/1000, a flag→quiesce drain sleeps `dur` before
    /// scanning slots.
    pub fn quiesce_delay(self, permille: u32, dur: Duration) -> Self {
        self.site(
            FaultSite::QuiesceDelay,
            SiteCfg {
                permille,
                max_fires: u64::MAX,
                dur_micros: dur.as_micros() as u64,
            },
        )
    }

    /// Enables [`FaultSite::CtrlActionFail`]: with probability
    /// `permille`/1000, an approved controller action reports
    /// [`SwitchOutcome::TimedOut`](crate::SwitchOutcome::TimedOut)
    /// without executing.
    pub fn ctrl_action_fail(self, permille: u32) -> Self {
        self.site(
            FaultSite::CtrlActionFail,
            SiteCfg {
                permille,
                max_fires: u64::MAX,
                dur_micros: 0,
            },
        )
    }

    /// Caps `site` at `max_fires` total fires (further decisions still
    /// consume sequence numbers but never fire). Apply *after* the
    /// site's enabling configurator.
    pub fn limit(mut self, site: FaultSite, max_fires: u64) -> Self {
        self.sites[site as usize].max_fires = max_fires;
        self
    }

    /// Times `site` has actually fired so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.fired[site as usize].load(Ordering::SeqCst)
    }

    /// One decision for `site`: returns the configured duration budget if
    /// the site fires, `None` otherwise.
    fn decide(&self, site: FaultSite) -> Option<Duration> {
        let i = site as usize;
        let cfg = self.sites[i];
        if cfg.permille == 0 {
            return None;
        }
        let seq = self.seqs[i].fetch_add(1, Ordering::Relaxed);
        let roll = mix(self.seed ^ mix((i as u64) << 32 | seq)) % 1000;
        if roll >= cfg.permille as u64 {
            return None;
        }
        // Honor the fire cap race-free: exactly `max_fires` callers win.
        if self.fired[i]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| {
                (f < cfg.max_fires).then_some(f + 1)
            })
            .is_err()
        {
            return None;
        }
        Some(Duration::from_micros(cfg.dur_micros))
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Publishes `plan` process-wide (replacing any previous plan) and
/// returns a handle for observing its fire counts. Tests sharing a
/// process must serialize their installed-plan lifetimes (and scope
/// plans with [`FaultPlan::for_stm`]).
pub fn install(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&plan));
    ENABLED.store(true, Ordering::SeqCst);
    plan
}

/// Removes the installed plan; every hook site reverts to the one-load
/// no-op path.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a fault plan is installed. Hook sites branch on this before
/// touching anything else; off, injection costs one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One decision for `site` on behalf of the `Stm` identified by
/// `stm_id`; returns the duration budget when the site fires. Cold: only
/// called after [`enabled`] returned true.
#[cold]
fn decide(stm_id: u64, site: FaultSite) -> Option<Duration> {
    let g = PLAN.read().unwrap_or_else(|e| e.into_inner());
    let plan = g.as_ref()?;
    if plan.stm_id.is_some_and(|id| id != stm_id) {
        return None;
    }
    plan.decide(site)
}

/// Stall budget for a transaction that just acquired an encounter lock
/// (see [`FaultSite::StallHoldingLocks`]).
pub(crate) fn stall_budget(stm_id: u64) -> Option<Duration> {
    decide(stm_id, FaultSite::StallHoldingLocks)
}

/// Whether the current transactional write should panic (see
/// [`FaultSite::MidTxPanic`]).
pub(crate) fn should_panic_mid_tx(stm_id: u64) -> bool {
    decide(stm_id, FaultSite::MidTxPanic).is_some()
}

/// Sleep budget for the head of a quiesce drain (see
/// [`FaultSite::QuiesceDelay`]).
pub(crate) fn quiesce_delay_budget(stm_id: u64) -> Option<Duration> {
    decide(stm_id, FaultSite::QuiesceDelay)
}

/// Whether an approved controller action against `stm` should fail as a
/// quiesce timeout without executing (see [`FaultSite::CtrlActionFail`]).
/// Public: the hook site lives in the `partstm-repart` crate.
pub fn ctrl_action_should_fail(stm: &crate::Stm) -> bool {
    enabled() && decide(stm.inner.id, FaultSite::CtrlActionFail).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_seed_and_seq() {
        let a = FaultPlan::new(42).mid_tx_panic(300);
        let b = FaultPlan::new(42).mid_tx_panic(300);
        let da: Vec<bool> = (0..200)
            .map(|_| a.decide(FaultSite::MidTxPanic).is_some())
            .collect();
        let db: Vec<bool> = (0..200)
            .map(|_| b.decide(FaultSite::MidTxPanic).is_some())
            .collect();
        assert_eq!(da, db, "same seed, same schedule");
        let fired = da.iter().filter(|f| **f).count();
        assert!(
            (20..=100).contains(&fired),
            "300 permille over 200 draws fired {fired} times"
        );
        let c = FaultPlan::new(43).mid_tx_panic(300);
        let dc: Vec<bool> = (0..200)
            .map(|_| c.decide(FaultSite::MidTxPanic).is_some())
            .collect();
        assert_ne!(da, dc, "different seed, different schedule");
    }

    #[test]
    fn limit_caps_fires_and_disabled_sites_never_fire() {
        let p = FaultPlan::new(7)
            .stall_holding_locks(1000, Duration::from_millis(5))
            .limit(FaultSite::StallHoldingLocks, 3);
        for _ in 0..50 {
            let _ = p.decide(FaultSite::StallHoldingLocks);
        }
        assert_eq!(p.injected(FaultSite::StallHoldingLocks), 3);
        assert_eq!(p.decide(FaultSite::QuiesceDelay), None, "unconfigured site");
        assert_eq!(p.injected(FaultSite::QuiesceDelay), 0);
    }

    #[test]
    fn permille_1000_always_fires_with_budget() {
        let p = FaultPlan::new(1).quiesce_delay(1000, Duration::from_millis(2));
        for _ in 0..20 {
            assert_eq!(
                p.decide(FaultSite::QuiesceDelay),
                Some(Duration::from_millis(2))
            );
        }
        assert_eq!(p.injected(FaultSite::QuiesceDelay), 20);
    }

    #[test]
    fn plans_are_scoped_to_their_stm() {
        let mine = crate::Stm::new();
        let other = crate::Stm::new();
        let plan = FaultPlan::new(9).mid_tx_panic(1000).for_stm(&mine);
        assert_eq!(plan.stm_id, Some(mine.inner.id));
        let handle = install(plan);
        assert!(enabled());
        assert!(
            !should_panic_mid_tx(other.inner.id),
            "foreign Stm is immune"
        );
        assert!(should_panic_mid_tx(mine.inner.id));
        assert_eq!(handle.injected(FaultSite::MidTxPanic), 1);
        clear();
        assert!(!enabled());
        assert!(!should_panic_mid_tx(mine.inner.id), "cleared plan is gone");
    }
}
