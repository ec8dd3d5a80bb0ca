//! The chaos scenario: stuck-transaction remediation under deterministic
//! fault injection.
//!
//! Three phases, all driven by seeded [`FaultPlan`]s:
//!
//! 1. **Deadline-only baseline** — workers transact against a bank while
//!    the fault plan wedges them *inside* transactions for far longer than
//!    the quiesce hard deadline (the stall site polls its kill flag, but
//!    the rescue is disabled by setting the soft deadline equal to the
//!    hard one). Every control action the driver attempts must wait out
//!    the full deadline and roll back: the success rate collapses to ~0%.
//! 2. **Kill-based rescue** — the identical fault schedule, but with the
//!    soft deadline armed. Quiesce raises kill flags at the soft deadline,
//!    the wedged victims unwind through the ordinary abort path, and the
//!    same control actions now succeed (acceptance: ≥95%) with a recovery
//!    latency near the soft deadline instead of the hard one.
//! 3. **Breaker** — a hot-cluster workload drives the repartition
//!    controller into proposing splits while the fault plan fails every
//!    control action at the execution boundary. After
//!    `breaker_threshold` consecutive timeouts the per-partition circuit
//!    breaker opens (no more proposals burned on a wedged partition);
//!    once the faults clear, the breaker expires, closes, and the next
//!    split goes through.
//!
//! Every phase ends with the standard hygiene sweep: conserved account
//! sums and zero locked orecs in every partition (`debug_scan`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm_core::telemetry::{self, EventKind};
use partstm_core::{
    fault, FaultPlan, FaultSite, Migratable, PVar, PartitionConfig, Stm, SwitchOutcome,
};
use partstm_repart::{ControllerConfig, RepartEvent, RepartitionController, StaticDirectory};

/// Initial balance per account (the conserved-sum probe).
const INITIAL: i64 = 100;

/// Chaos experiment parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Accounts migrated back and forth by the quiesce phases.
    pub accounts: usize,
    /// Worker threads per phase.
    pub threads: usize,
    /// Control actions attempted per quiesce phase.
    pub actions: usize,
    /// Hard quiesce deadline of the quiesce phases.
    pub quiesce_timeout: Duration,
    /// Soft (kill) deadline of the rescue phase.
    pub kill_after: Duration,
    /// How long an injected stall wedges a transaction.
    pub stall: Duration,
    /// Per-acquisition stall probability in permille.
    pub stall_permille: u32,
    /// Fault-plan seed (same schedule for baseline and rescue).
    pub seed: u64,
    /// Wall-clock budget for each breaker-phase wait.
    pub breaker_budget: Duration,
}

impl ChaosConfig {
    /// The standard scenario at a given scale. `secs` only scales the
    /// number of control actions attempted; the deadlines themselves are
    /// part of the experiment.
    pub fn standard(threads: usize, secs: f64) -> Self {
        ChaosConfig {
            accounts: 64,
            threads: threads.clamp(2, 8),
            actions: (secs * 40.0).clamp(10.0, 30.0) as usize,
            quiesce_timeout: Duration::from_millis(60),
            kill_after: Duration::from_millis(10),
            stall: Duration::from_millis(400),
            stall_permille: 25,
            seed: 0xC0A5_7A11,
            breaker_budget: Duration::from_secs(8),
        }
    }
}

/// Outcome of one quiesce phase (baseline or rescue).
#[derive(Debug, Clone, Default)]
pub struct QuiescePhase {
    /// Control actions attempted.
    pub attempts: usize,
    /// Actions that completed (`SwitchOutcome::Switched`).
    pub successes: usize,
    /// Mean wall time of the successful actions, in milliseconds.
    pub mean_ms: f64,
    /// Worst wall time of the successful actions, in milliseconds.
    pub max_ms: f64,
    /// Transactions killed by the rescue (`aborts_killed` across the
    /// phase's partitions).
    pub killed: u64,
    /// `stuck_slots` diagnostics emitted (hard-deadline expiries).
    pub stuck_slots: u64,
    /// Conserved-sum probe.
    pub conserved: bool,
    /// Locked orecs left behind after the phase (must be 0).
    pub leaked_locks: usize,
}

/// Outcome of the breaker phase.
#[derive(Debug, Clone, Default)]
pub struct BreakerPhase {
    /// `BreakerOpen` events the controller emitted.
    pub opens: usize,
    /// `BreakerClose` events the controller emitted.
    pub closes: usize,
    /// Whether a split landed after the faults were cleared.
    pub split_after_clear: bool,
    /// Failed control actions (the timeouts that opened the breaker).
    pub failed_actions: usize,
    /// Conserved-sum probe.
    pub conserved: bool,
    /// Locked orecs left behind after the phase (must be 0).
    pub leaked_locks: usize,
    /// Full controller event log (for the human report).
    pub events: Vec<RepartEvent>,
}

/// Measured outcome of the whole chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Phase 1: rescue disabled.
    pub deadline: QuiescePhase,
    /// Phase 2: rescue armed.
    pub rescue: QuiescePhase,
    /// Phase 3: controller circuit breaker.
    pub breaker: BreakerPhase,
}

impl ChaosReport {
    /// Quiesce success percentage with the rescue armed (the bench-trend
    /// floor).
    pub fn rescue_success_pct(&self) -> f64 {
        100.0 * self.rescue.successes as f64 / self.rescue.attempts.max(1) as f64
    }

    /// Quiesce success percentage with only the hard deadline.
    pub fn deadline_success_pct(&self) -> f64 {
        100.0 * self.deadline.successes as f64 / self.deadline.attempts.max(1) as f64
    }
}

/// Runs all three phases.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let deadline = run_quiesce_phase(cfg, false);
    let rescue = run_quiesce_phase(cfg, true);
    let breaker = run_breaker_phase(cfg);
    ChaosReport {
        deadline,
        rescue,
        breaker,
    }
}

/// One quiesce phase: workers transfer between accounts while the fault
/// plan wedges them mid-transaction; the driver migrates the whole
/// account set back and forth between two partitions and scores each
/// attempt. `rescue` arms the soft deadline; without it the phase is the
/// deadline-only baseline.
fn run_quiesce_phase(cfg: &ChaosConfig, rescue: bool) -> QuiescePhase {
    let kill_after = if rescue {
        cfg.kill_after
    } else {
        // Soft deadline == hard deadline disables the rescue entirely.
        cfg.quiesce_timeout
    };
    let stm = Stm::builder()
        .quiesce_timeout(cfg.quiesce_timeout)
        .kill_after(kill_after)
        .build();
    let pa = stm.new_partition(PartitionConfig::named("chaos-a"));
    let pb = stm.new_partition(PartitionConfig::named("chaos-b"));
    let accounts: Vec<Arc<PVar<i64>>> = (0..cfg.accounts)
        .map(|_| Arc::new(pa.tvar(INITIAL)))
        .collect();
    let plan = fault::install(
        FaultPlan::new(cfg.seed)
            .for_stm(&stm)
            .stall_holding_locks(cfg.stall_permille, cfg.stall)
            .quiesce_delay(100, Duration::from_millis(2)),
    );
    let stuck0 = telemetry::global().stuck_slots.get();

    let stop = AtomicBool::new(false);
    let mut successes = 0usize;
    let mut latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, &stop);
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % cfg.accounts as u64) as usize;
                    let to = ((r >> 8) % cfg.accounts as u64) as usize;
                    let amt = (r % 90) as i64;
                    ctx.run(|tx| {
                        let f = tx.read(&accounts[from])?;
                        tx.write(&accounts[from], f - amt)?;
                        let t = tx.read(&accounts[to])?;
                        tx.write(&accounts[to], t + amt)?;
                        Ok(())
                    });
                }
            });
        }
        // Don't start scoring until the first stall has fired: every
        // attempt should contend with the fault schedule.
        let armed = Instant::now();
        while plan.injected(FaultSite::StallHoldingLocks) == 0
            && armed.elapsed() < Duration::from_secs(2)
        {
            std::thread::yield_now();
        }
        let refs: Vec<&dyn Migratable> = accounts
            .iter()
            .map(|a| a.as_ref() as &dyn Migratable)
            .collect();
        let mut to_b = true;
        for _ in 0..cfg.actions {
            let dst = if to_b { &pb } else { &pa };
            let t0 = Instant::now();
            if stm.migrate_pvars(&refs, dst) == SwitchOutcome::Switched {
                successes += 1;
                latencies.push(t0.elapsed());
                to_b = !to_b;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    fault::clear();

    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    let mut killed = 0u64;
    let mut leaked = 0usize;
    for p in stm.partitions() {
        killed += p.stats().aborts_killed;
        let (locked, _, _) = p.debug_scan();
        leaked += locked;
    }
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().map(|d| d.as_secs_f64()).sum::<f64>() / latencies.len() as f64 * 1e3
    };
    let max_ms = latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    QuiescePhase {
        attempts: cfg.actions,
        successes,
        mean_ms,
        max_ms,
        killed,
        stuck_slots: telemetry::global().stuck_slots.get() - stuck0,
        conserved: total == cfg.accounts as i64 * INITIAL,
        leaked_locks: leaked,
    }
}

/// The breaker phase: a hot-cluster bank (the phase-shift recipe with the
/// skew active from the start) drives the controller into proposing
/// splits while every control action is failed at the execution boundary
/// by the fault plan. Waits for the breaker to open, clears the faults,
/// then waits for the close + a real split.
fn run_breaker_phase(cfg: &ChaosConfig) -> BreakerPhase {
    const ACCOUNTS: usize = 4096;
    const HOT: usize = 16;
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("chaos-bank").orecs(256));
    let accounts: Vec<Arc<PVar<i64>>> = (0..ACCOUNTS)
        .map(|_| Arc::new(part.tvar(INITIAL)))
        .collect();
    let dir = Arc::new(StaticDirectory::new());
    for a in &accounts {
        dir.register(Arc::clone(a) as Arc<dyn Migratable>);
    }
    fault::install(
        FaultPlan::new(cfg.seed ^ 0x00C0_FFEE)
            .for_stm(&stm)
            .ctrl_action_fail(1000),
    );
    let mut ctrl_cfg = ControllerConfig::responsive();
    ctrl_cfg.interval = Duration::from_millis(50);
    ctrl_cfg.sample_period = 8;
    ctrl_cfg.hysteresis = 1;
    ctrl_cfg.cooldown = 1;
    ctrl_cfg.decay = 0.4;
    ctrl_cfg.online.split_abort_rate = 0.05;
    ctrl_cfg.online.split_hot_share = 0.30;
    ctrl_cfg.breaker_threshold = 3;
    ctrl_cfg.breaker_windows = 10;
    let t_phase0 = telemetry::now_micros();
    let controller = RepartitionController::spawn(&stm, dir, ctrl_cfg);

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let mut split_after_clear = false;
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let ctx = stm.register_thread();
            let (accounts, stop, ops) = (&accounts, &stop, &ops);
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let cold = ACCOUNTS - HOT;
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    if (r >> 16) % 100 < 85 {
                        // Cold scans: abort fodder via orec aliasing with
                        // the stranded hot locks.
                        let seed = r;
                        ctx.run(|tx| {
                            let mut x = seed;
                            let mut sum = 0i64;
                            for _ in 0..64 {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let i = HOT + (x >> 16) as usize % cold;
                                sum += tx.read(&accounts[i])?;
                            }
                            Ok(sum)
                        });
                    } else {
                        let hot = r % 100 < 90;
                        let (from, to) = if hot {
                            ((r % HOT as u64) as usize, ((r >> 8) % HOT as u64) as usize)
                        } else {
                            (
                                HOT + (r % cold as u64) as usize,
                                HOT + ((r >> 8) % cold as u64) as usize,
                            )
                        };
                        let amt = (r % 90) as i64;
                        ctx.run(|tx| {
                            let f = tx.read(&accounts[from])?;
                            tx.write(&accounts[from], f - amt)?;
                            if hot {
                                // Hold the encounter lock across a
                                // reschedule: the aliasing pressure that
                                // makes the analyzer propose a split.
                                std::thread::yield_now();
                            }
                            let t = tx.read(&accounts[to])?;
                            tx.write(&accounts[to], t + amt)?;
                            Ok(())
                        });
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Wait for the breaker to open (a `CtrlBreaker` open event in the
        // flight recorder stamped after this phase started).
        let breaker_opened = || {
            telemetry::global()
                .recorder
                .snapshot()
                .iter()
                .any(|e| e.kind == EventKind::CtrlBreaker && e.micros >= t_phase0 && e.b == 1)
        };
        let t0 = Instant::now();
        while !breaker_opened() && t0.elapsed() < cfg.breaker_budget {
            std::thread::sleep(Duration::from_millis(25));
        }
        // Faults gone: the breaker should expire, close, and the next
        // split should go through for real.
        fault::clear();
        let t1 = Instant::now();
        while !controller.has_split() && t1.elapsed() < cfg.breaker_budget {
            std::thread::sleep(Duration::from_millis(25));
        }
        split_after_clear = controller.has_split();
        stop.store(true, Ordering::Relaxed);
    });
    fault::clear();
    let events = controller.stop();

    let opens = events
        .iter()
        .filter(|e| matches!(e, RepartEvent::BreakerOpen { .. }))
        .count();
    let closes = events
        .iter()
        .filter(|e| matches!(e, RepartEvent::BreakerClose { .. }))
        .count();
    let failed_actions = events
        .iter()
        .filter(|e| matches!(e, RepartEvent::Failed { .. }))
        .count();
    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    let mut leaked = 0usize;
    for p in stm.partitions() {
        let (locked, _, _) = p.debug_scan();
        leaked += locked;
    }
    BreakerPhase {
        opens,
        closes,
        split_after_clear,
        failed_actions,
        conserved: total == ACCOUNTS as i64 * INITIAL,
        leaked_locks: leaked,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature quiesce pair: the rescue phase must beat the
    /// deadline-only baseline and leave no locks behind. (The full
    /// three-phase run lives under `repro chaos`.)
    #[test]
    fn rescue_beats_deadline_baseline() {
        let mut cfg = ChaosConfig::standard(2, 0.2);
        cfg.actions = 6;
        let deadline = run_quiesce_phase(&cfg, false);
        let rescue = run_quiesce_phase(&cfg, true);
        assert_eq!(deadline.attempts, 6);
        assert!(deadline.conserved && rescue.conserved, "sums conserved");
        assert_eq!(deadline.leaked_locks, 0);
        assert_eq!(rescue.leaked_locks, 0);
        assert!(
            rescue.successes > deadline.successes,
            "rescue {}/{} must beat deadline-only {}/{}",
            rescue.successes,
            rescue.attempts,
            deadline.successes,
            deadline.attempts
        );
        assert!(rescue.killed >= 1, "rescue must kill the wedged victims");
        assert_eq!(deadline.killed, 0, "baseline must not kill anyone");
    }
}
