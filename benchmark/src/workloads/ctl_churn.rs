//! `ctl-churn`: partition A (a bank of 16 384, the target), partition B (a
//! bank of 16 384, a bystander no action names) and an empty partition D.
//! 70% transfers in A, 20% transfers in B, 10% 2048-account audits of B
//! through `run` (tens of microseconds). Every 20 ms worker 0 issues,
//! inline between its transactions, the next action of a fixed cycle on A:
//! `switch_partition` invisible→visible, `switch_partition` back,
//! `resize_orecs` up, `resize_orecs` down, `migrate_pvars` of a fixed
//! 256-account subset A→D, `migrate_pvars` D→A, and `privatize(A)` +
//! `bulk_total` + `republish` — and times each call.
//!
//! Why: the only workload where `core::stm` quiesce windows,
//! `core::repartition` and `core::privatize` do real work. The long
//! bystander audits are exactly what a global drain waits for and a
//! partition-scoped drain would not, so a `QuiesceWindow` change has a
//! place to claim (`ctl_action_p50_us`) and a place that must not move
//! (`bank-uniform`). B's transfers stay inside aligned 2048-account blocks
//! so every audit has an oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use partstm_core::{
    DynConfig, Migratable, Partition, PartitionConfig, PrivatizeError, ReadMode, Stm,
    SwitchOutcome, ThreadCtx,
};

use super::{replay_banks, tapes, traced_pass, Lane};
use crate::harness::{CtlKind, CtlOutcome, CtlRec, Done, Rec, Tapes, Variant};
use crate::measure::{
    count_ctl, counter_metrics, counters, end_to_end_metrics, ensure, series, time_setup, Outcome,
    RunCfg,
};
use crate::ops::{BankModel, BankOp, INITIAL};
use crate::rng::SplitMix64;
use crate::trace::ctl_percentile_us;
use crate::variants::StmBanks;

pub const ACCOUNTS: usize = 16_384;
pub const AUDIT: u32 = 2048;
/// Accounts of A the migrations move to D and back.
pub const MIGRATED: usize = 256;
/// Seconds between control actions (not scaled: the action rate is part
/// of the workload).
pub const ACTION_EVERY: f64 = 0.020;
/// Orec-table sizes the resize actions alternate between.
const ORECS: (usize, usize) = (1024, 2048);
/// Actions in one cycle.
const CYCLE: usize = 7;

fn draw(r: &mut SplitMix64) -> BankOp {
    let amt = r.below(90) as i32 + 1;
    match r.below(100) {
        0..=69 => BankOp::Transfer {
            bank: 0,
            from: r.below(ACCOUNTS as u64) as u32,
            to: r.below(ACCOUNTS as u64) as u32,
            amt,
        },
        roll => {
            let start = r.below(ACCOUNTS as u64 / AUDIT as u64) as u32 * AUDIT;
            if roll < 90 {
                BankOp::Transfer {
                    bank: 1,
                    from: start + r.below(AUDIT as u64) as u32,
                    to: start + r.below(AUDIT as u64) as u32,
                    amt,
                }
            } else {
                BankOp::ReadRange {
                    bank: 1,
                    snapshot: false,
                    start,
                    len: AUDIT,
                }
            }
        }
    }
}

pub struct CtlChurn {
    base: StmBanks,
    a: Arc<Partition>,
    d: Arc<Partition>,
    invisible: DynConfig,
    visible: DynConfig,
    /// `bulk_total` under the guard returned something else than A's money.
    bad_totals: AtomicU64,
}

pub struct ChurnWorker {
    ctx: ThreadCtx,
    next_at: f64,
    step: usize,
}

fn build() -> (Stm, CtlChurn) {
    let stm = Stm::new();
    let parts = stm.new_partitions([
        PartitionConfig::named("A").orecs(ORECS.0),
        PartitionConfig::named("B"),
        PartitionConfig::named("D"),
    ]);
    let invisible = parts[0].current_config();
    let visible = DynConfig {
        read_mode: ReadMode::Visible,
        ..invisible
    };
    let churn = CtlChurn {
        base: StmBanks::new(stm.clone(), &parts[..2], ACCOUNTS),
        a: Arc::clone(&parts[0]),
        d: Arc::clone(&parts[2]),
        invisible,
        visible,
        bad_totals: AtomicU64::new(0),
    };
    (stm, churn)
}

fn outcome(o: SwitchOutcome) -> CtlOutcome {
    match o {
        // `Unchanged` cannot happen in the cycle: every action changes
        // something.
        SwitchOutcome::Switched | SwitchOutcome::Unchanged => CtlOutcome::Done,
        SwitchOutcome::Contended => CtlOutcome::Contended,
        SwitchOutcome::TimedOut => CtlOutcome::TimedOut,
    }
}

impl CtlChurn {
    /// Issues action `step` of the cycle and times it.
    fn act(&self, step: usize, epoch: Instant) -> CtlRec {
        let stm = &self.base.stm;
        let bank_a = &self.base.banks[0];
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let mut rec = CtlRec {
            kind: CtlKind::SwitchConfig,
            outcome: CtlOutcome::Done,
            start_ns,
            dur_ns: 0,
            moved: 0,
            acquire_ns: 0,
            republish_ns: 0,
        };
        match step % CYCLE {
            0 => rec.outcome = outcome(stm.switch_partition(&self.a, self.visible)),
            1 => rec.outcome = outcome(stm.switch_partition(&self.a, self.invisible)),
            2 | 3 => {
                rec.kind = CtlKind::ResizeOrecs;
                let n = if step % CYCLE == 2 { ORECS.1 } else { ORECS.0 };
                rec.outcome = outcome(stm.resize_orecs(&self.a, n));
            }
            4 | 5 => {
                rec.kind = CtlKind::Migrate;
                let vars: Vec<&dyn Migratable> = (0..MIGRATED)
                    .map(|i| bank_a.account(i) as &dyn Migratable)
                    .collect();
                let dst = if step % CYCLE == 4 { &self.d } else { &self.a };
                rec.outcome = outcome(stm.migrate_pvars(&vars, dst));
                rec.moved = MIGRATED as u32;
            }
            _ => {
                rec.kind = CtlKind::Privatize;
                match stm.privatize(&self.a) {
                    Ok(guard) => {
                        rec.acquire_ns = t0.elapsed().as_nanos() as u64;
                        let total = bank_a.bulk_total(&guard);
                        let t1 = Instant::now();
                        guard.republish();
                        rec.republish_ns = t1.elapsed().as_nanos() as u64;
                        if total != ACCOUNTS as i64 * INITIAL {
                            self.bad_totals.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(PrivatizeError::Contended) => rec.outcome = CtlOutcome::Contended,
                    Err(PrivatizeError::TimedOut) => rec.outcome = CtlOutcome::TimedOut,
                }
            }
        }
        rec.dur_ns = t0.elapsed().as_nanos() as u64;
        rec
    }
}

impl Variant for CtlChurn {
    type Op = BankOp;
    type Worker = ChurnWorker;

    fn worker(&self) -> ChurnWorker {
        ChurnWorker {
            ctx: self.base.stm.register_thread(),
            next_at: f64::NEG_INFINITY,
            step: 0,
        }
    }

    #[inline(always)]
    fn exec<R: Rec>(&self, w: &mut ChurnWorker, op: &BankOp, rec: &mut R) -> Done {
        self.base.exec_op(&w.ctx, op, rec)
    }

    fn tick(&self, w: &mut ChurnWorker, t: f64, epoch: Instant, log: &mut Vec<CtlRec>) {
        if t < w.next_at {
            return;
        }
        // A worker starts where the previous segment's left off: the
        // cycle position is the parity of A's state, which persists.
        if w.next_at == f64::NEG_INFINITY {
            w.step = self.resume_step();
        }
        log.push(self.act(w.step, epoch));
        w.step += 1;
        w.next_at = t + ACTION_EVERY;
    }
}

impl CtlChurn {
    /// The first action of the cycle that is consistent with A's current
    /// state, so that a new segment never issues a no-op action.
    fn resume_step(&self) -> usize {
        if self.a.current_config().read_mode == ReadMode::Visible {
            1
        } else if self.a.orec_count() == ORECS.1 {
            3
        } else if self.base.banks[0].account(0).partition_id() == self.d.id() {
            5
        } else {
            0
        }
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let tapes = Tapes::plain(tapes(cfg.seed, 4, cfg.threads, draw));

    let (setup_s, main) = time_setup(cfg.threads, build);
    out.values.set("setup_s", setup_s);
    let fresh = build().1;
    let model = BankModel::new(2, ACCOUNTS);
    replay_banks(&mut out, &fresh, &fresh.base, model, &tapes.pre[0]);
    drop(fresh);

    let mut lm = Lane::new(cfg.threads);
    lm.warm_up(&main, &tapes, cfg.warmup_plan(3.0));
    let before = counters(&main.base.stm);
    lm.slice(&main, &tapes, cfg.plan(20, false));
    counter_metrics(&counters(&main.base.stm).delta(&before), &mut out.values);
    end_to_end_metrics(&lm.log, &mut out);
    out.notes.push(series("main", &lm.log));
    let whole = |c: &CtlRec| c.dur_ns;
    for (name, p) in [("ctl_action_p50_us", 50.0), ("ctl_action_p99_us", 99.0)] {
        out.values
            .set(name, ctl_percentile_us(&lm.log.ctl, None, whole, p));
    }
    out.notes.push(format!(
        "ctl_action_p50_us = {:.1} over {} control actions",
        out.values.get("ctl_action_p50_us"),
        lm.log.ctl.len()
    ));
    out.count(&lm.log);
    count_ctl(&lm.log.ctl, &mut out);

    out.values.set("rss_mb", crate::host::peak_rss_mb());

    if cfg.trace {
        let traced = traced_pass(cfg, &main, &tapes, 20, &mut out);
        count_ctl(&traced.ctl, &mut out);
    }
    out.oracle("banks conserve money", main.base.check_conserved());
    let bad = main.bad_totals.load(Ordering::Relaxed);
    out.oracle(
        "bulk_total under the guard",
        ensure(bad == 0, || format!("{bad} privatized totals were wrong")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_action_cycle_returns_a_to_its_initial_state() {
        let (_stm, churn) = build();
        let epoch = Instant::now();
        assert_eq!(churn.resume_step(), 0);
        for step in 0..CYCLE {
            let rec = churn.act(step, epoch);
            assert_eq!(rec.outcome, CtlOutcome::Done, "step {step}");
            if step + 1 < CYCLE && step % 2 == 0 {
                assert_eq!(churn.resume_step(), step + 1, "after step {step}");
            }
        }
        assert_eq!(churn.resume_step(), 0);
        assert_eq!(churn.a.orec_count(), ORECS.0);
        assert_eq!(churn.a.current_config(), churn.invisible);
        assert_eq!(churn.a.stats().privatizations, 1);
        assert_eq!(churn.bad_totals.load(Ordering::Relaxed), 0);
        churn.base.check_conserved().unwrap();
    }

    #[test]
    fn b_transfers_stay_inside_their_audit_block() {
        let mut r = SplitMix64::new(5);
        for _ in 0..5000 {
            if let BankOp::Transfer {
                bank: 1, from, to, ..
            } = draw(&mut r)
            {
                assert_eq!(from / AUDIT, to / AUDIT);
            }
        }
    }
}
