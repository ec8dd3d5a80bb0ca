//! `phase-shift`: the closed control loop. A bank of 4096 accounts in one
//! 256-orec partition; 85% 64-account scans, 15% transfers. One third into
//! the run 90% of the transfers move onto a 16-account hot cluster and
//! hold the debit's lock across a fixed spin, so scans and cold transfers
//! alias with held hot locks in the shared orec table. A
//! `RepartitionController` (`ControllerConfig::responsive()`) is stepped
//! inline by worker 0 every 100 ms; the `static` variant runs the same
//! tapes with no controller.
//!
//! Why: the only workload that runs `core::profiler` → `analysis::online` →
//! `repart::controller` end to end, with real rather than slept conflicts.
//! Collapsing the action executors or the scenario driver must leave
//! `post_shift_kops` and `vs_static` where they were.

use std::sync::Arc;
use std::time::Instant;

use partstm_core::{Migratable, PVarBinding, PartitionConfig, Stm, ThreadCtx};
use partstm_repart::{ControllerConfig, RepartEvent, RepartitionController, StaticDirectory};
use partstm_structures::Bank;

use super::{replay_banks, report_traced, tapes, Lane};
use crate::harness::{CtlKind, CtlOutcome, CtlRec, Done, Plan, Rec, Tapes, Variant, VariantLog};
use crate::measure::{
    counter_metrics, counters, end_to_end_metrics, ensure, kops, series, time_setup, Outcome,
    RunCfg,
};
use crate::metrics::Values;
use crate::ops::{BankModel, BankOp};
use crate::rng::SplitMix64;
use crate::stats::{second_best, window_kops};
use crate::variants::StmBanks;

pub const ACCOUNTS: u32 = 4096;
pub const HOT: u32 = 16;
pub const ORECS: usize = 256;
pub const SCAN_LEN: u16 = 64;
/// Iterations of [`crate::ops::spin`] a hot transfer holds its debit lock
/// across (a few microseconds: work between debit and credit).
pub const HOT_SPIN: u16 = 4000;
/// Seconds between controller steps (not scaled).
pub const STEP_EVERY: f64 = 0.100;
/// Windows of the controller run and of the static run; the shift comes
/// after a third of either.
const WINDOWS: (usize, usize) = (15, 10);

fn draw(r: &mut SplitMix64, shifted: bool) -> BankOp {
    let cold = |r: &mut SplitMix64| HOT + r.below((ACCOUNTS - HOT) as u64) as u32;
    let amt = r.below(90) as i16 + 1;
    if r.below(100) < 85 {
        // Scans and cold transfers never touch the hot cluster: whatever
        // they lose to hot traffic, they lose to metadata aliasing.
        BankOp::ReadSome {
            bank: 0,
            count: SCAN_LEN,
            seed: r.next() as u32,
            base: HOT,
            span: ACCOUNTS - HOT,
        }
    } else if shifted && r.below(100) < 90 {
        BankOp::HotTransfer {
            from: r.below(HOT as u64) as u32,
            to: r.below(HOT as u64) as u32,
            amt,
            spin: HOT_SPIN,
        }
    } else {
        BankOp::Transfer {
            bank: 0,
            from: cold(r),
            to: cold(r),
            amt: amt as i32,
        }
    }
}

/// `ControllerConfig::responsive()` with the adjustments the repository's
/// own phase-shift scenario makes (`crates/bench/src/phase_shift.rs`):
/// 1-in-32 sampling keeps the profiler out of the measurement (at the
/// preset's 1-in-4 it halves the pre-shift throughput on two real cores),
/// and the lower split gates make the decision the same one run after run
/// instead of a coin toss between a split and a resize.
fn controller_config() -> ControllerConfig {
    let mut cfg = ControllerConfig::responsive();
    cfg.sample_period = 32;
    cfg.online.split_abort_rate = 0.05;
    cfg.online.split_hot_share = 0.30;
    cfg.decay = 0.4;
    cfg
}

/// One account of a [`Bank`] as a migration handle, so the controller's
/// directory can move accounts of a plain `Bank` one by one.
struct AccountRef {
    bank: Arc<Bank>,
    index: usize,
}

impl Migratable for AccountRef {
    fn pvar_binding(&self) -> &PVarBinding {
        self.bank.account(self.index).binding()
    }

    fn var_addr(&self) -> usize {
        self.bank.account(self.index).var_addr()
    }
}

pub struct PhaseShift {
    base: StmBanks,
    controller: Option<RepartitionController>,
}

pub struct ShiftWorker {
    ctx: ThreadCtx,
    next_at: f64,
}

fn build(with_controller: bool) -> (Stm, PhaseShift) {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("accounts").orecs(ORECS));
    let base = StmBanks::new(stm.clone(), &[part], ACCOUNTS as usize);
    let controller = with_controller.then(|| {
        let dir = Arc::new(StaticDirectory::new());
        dir.register_all((0..ACCOUNTS as usize).map(|index| {
            Arc::new(AccountRef {
                bank: Arc::clone(&base.banks[0]),
                index,
            }) as Arc<dyn Migratable>
        }));
        RepartitionController::new(&stm, dir, controller_config())
    });
    (stm, PhaseShift { base, controller })
}

impl Variant for PhaseShift {
    type Op = BankOp;
    type Worker = ShiftWorker;

    fn worker(&self) -> ShiftWorker {
        ShiftWorker {
            ctx: self.base.stm.register_thread(),
            next_at: f64::NEG_INFINITY,
        }
    }

    #[inline(always)]
    fn exec<R: Rec>(&self, w: &mut ShiftWorker, op: &BankOp, rec: &mut R) -> Done {
        self.base.exec_op(&w.ctx, op, rec)
    }

    fn tick(&self, w: &mut ShiftWorker, t: f64, epoch: Instant, log: &mut Vec<CtlRec>) {
        let Some(controller) = &self.controller else {
            return;
        };
        if t < w.next_at {
            return;
        }
        let events_before = controller.events().len();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        controller.step();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        log.push(CtlRec {
            kind: CtlKind::ControllerStep,
            outcome: CtlOutcome::Done,
            start_ns,
            dur_ns,
            // Events the step appended to the controller's log.
            moved: (controller.events().len() - events_before) as u32,
            acquire_ns: 0,
            republish_ns: 0,
        });
        w.next_at = t + STEP_EVERY;
    }
}

/// Executed structural actions and failed ones in a controller's log.
fn tally(events: &[RepartEvent]) -> (usize, usize) {
    let failed = events
        .iter()
        .filter(|e| matches!(e, RepartEvent::Failed { .. }))
        .count();
    let executed = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                RepartEvent::Split { .. }
                    | RepartEvent::Merge { .. }
                    | RepartEvent::Resize { .. }
                    | RepartEvent::Tear { .. }
                    | RepartEvent::Heal { .. }
            )
        })
        .count();
    (executed, failed)
}

/// The first post-shift window of a run of `windows` windows.
fn shift_window(windows: usize) -> usize {
    windows.div_ceil(3)
}

/// The final 40% of a run: after the shift, and after the controller has
/// had a third of the run to react to it.
fn settled(log: &VariantLog) -> VariantLog {
    log.tail((log.window_ops.len() * 2).div_ceil(5))
}

/// One full run of a variant: warm-up on the uniform tape, then `windows`
/// windows with the shift after a third.
fn run_variant(
    cfg: &RunCfg,
    v: &PhaseShift,
    pre: &[Vec<BankOp>],
    post: &[Vec<BankOp>],
    windows: usize,
    warmup: f64,
    traced: bool,
) -> VariantLog {
    let plan: Plan = cfg.plan(windows, traced);
    let tapes = Tapes {
        pre: pre.to_vec(),
        post: Some((shift_window(windows) as f64 * plan.window, post.to_vec())),
    };
    let mut lane = Lane::new(cfg.threads);
    lane.warm_up(v, &Tapes::plain(pre.to_vec()), cfg.warmup_plan(warmup));
    lane.slice(v, &tapes, plan);
    lane.log
}

/// The controller-run metrics that come from its steps and windows.
fn controller_metrics(log: &VariantLog, events: &[RepartEvent], out: &mut Values) {
    let kops = window_kops(&log.window_ops, log.window_secs);
    let shift = shift_window(kops.len());
    out.set("phase.pre_shift_kops", second_best(&kops[..shift], true));
    out.set(
        "phase.dip_kops",
        kops[shift..].iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set("controller.actions", tally(events).0 as f64);
    let shift_ns = (shift as f64 * log.window_secs * 1e9) as u64;
    let first_action = log
        .ctl
        .iter()
        .filter(|c| c.start_ns >= shift_ns)
        .position(|c| c.moved > 0);
    // Steps from the shift up to and including the first acting one
    // (0: the controller never acted after the shift).
    out.set(
        "controller.windows_to_first_action",
        first_action.map_or(0.0, |i| (i + 1) as f64),
    );
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let pre = tapes(cfg.seed, 5, cfg.threads, |r| draw(r, false));
    let post = tapes(cfg.seed, 6, cfg.threads, |r| draw(r, true));

    let (setup_s, main) = time_setup(cfg.threads, || build(true));
    out.values.set("setup_s", setup_s);
    let fresh = build(false).1;
    let model = BankModel::new(1, ACCOUNTS as usize);
    replay_banks(&mut out, &fresh, &fresh.base, model, &post[0]);
    drop(fresh);

    let before = counters(&main.base.stm);
    let lm = run_variant(cfg, &main, &pre, &post, WINDOWS.0, 3.0, false);
    counter_metrics(&counters(&main.base.stm).delta(&before), &mut out.values);
    // What a user is left with once the workload has shifted: the
    // end-to-end throughput and latencies are those of the settled part.
    end_to_end_metrics(&settled(&lm), &mut out);
    let events = main.controller.as_ref().expect("built with one").events();
    controller_metrics(&lm, &events, &mut out.values);
    let fixed = build(false).1;
    let ls = run_variant(cfg, &fixed, &pre, &post, WINDOWS.1, 2.0, false);

    let (with, without) = (kops(&settled(&lm)), kops(&settled(&ls)));
    out.values.set("post_shift_kops", with);
    out.values.set("static_post_shift_kops", without);
    out.values.set(
        "vs_static",
        if without > 0.0 { with / without } else { 0.0 },
    );
    out.notes.push(format!(
        "vs_static = {:.3} ({with:.1} ÷ {without:.1} kops/s over the final {} and {} windows)",
        out.values.get("vs_static"),
        (WINDOWS.0 * 2).div_ceil(5),
        (WINDOWS.1 * 2).div_ceil(5)
    ));
    out.notes.push(format!(
        "phase.pre_shift_kops = {:.1} ({} windows), phase.dip_kops = {:.1} (lowest of {} \
         post-shift windows), {} partitions at the end",
        out.values.get("phase.pre_shift_kops"),
        shift_window(WINDOWS.0),
        out.values.get("phase.dip_kops"),
        WINDOWS.0 - shift_window(WINDOWS.0),
        main.base.stm.partitions().len()
    ));
    out.notes.push(series("controller", &lm));
    out.notes.push(series("static", &ls));
    for e in &events {
        out.notes.push(format!("controller event: {e:?}"));
    }
    out.count(&lm);
    out.count(&ls);
    let (_, failed_actions) = tally(&events);
    out.attempted += events.len() as u64;
    out.oracle(
        "controller actions",
        ensure(failed_actions == 0, || {
            format!("{failed_actions} approved actions failed")
        }),
    );
    out.oracle(
        "controller bank conserves money",
        main.base.check_conserved(),
    );
    out.oracle("static bank conserves money", fixed.base.check_conserved());

    out.values.set("rss_mb", crate::host::peak_rss_mb());

    if cfg.trace {
        // The run is a time series: the traced pass needs a fresh bank.
        let again = build(true).1;
        let lt = run_variant(cfg, &again, &pre, &post, WINDOWS.0, 1.0, true);
        // Whole run against whole run: `commit_kops` is the settled part.
        report_traced(cfg, &lt, kops(&lm), &mut out);
        out.oracle("traced bank conserves money", again.base.check_conserved());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_shift_statistics_use_the_final_forty_percent() {
        assert_eq!((shift_window(15), shift_window(10)), (5, 4));
        let log = VariantLog {
            window_secs: 1.0,
            // 5 pre-shift windows, a dip, then recovery.
            window_ops: vec![
                9000, 9100, 9000, 9050, 9000, 2000, 3000, 5000, 7000, 7000, 7100, 7000, 7200, 7000,
                6900,
            ],
            ..Default::default()
        };
        assert_eq!(kops(&settled(&log)), 7.1);
        let mut v = Values::default();
        controller_metrics(&log, &[], &mut v);
        assert_eq!(v.get("phase.pre_shift_kops"), 9.05);
        assert_eq!(v.get("phase.dip_kops"), 2.0);
        assert_eq!(v.get("controller.windows_to_first_action"), 0.0);
    }

    #[test]
    fn the_shift_moves_transfers_onto_the_hot_cluster() {
        let mut r = SplitMix64::new(3);
        let post: Vec<BankOp> = (0..4000).map(|_| draw(&mut r, true)).collect();
        let hot = post
            .iter()
            .filter(|op| matches!(op, BankOp::HotTransfer { .. }))
            .count();
        let cold = post
            .iter()
            .filter(|op| matches!(op, BankOp::Transfer { .. }))
            .count();
        assert!(hot > 6 * cold, "{hot} hot vs {cold} cold transfers");
        assert!((0..4000).all(|_| !matches!(draw(&mut r, false), BankOp::HotTransfer { .. })));
        for op in post {
            match op {
                BankOp::HotTransfer { from, to, .. } => assert!(from < HOT && to < HOT),
                BankOp::Transfer { from, to, .. } => assert!(from >= HOT && to >= HOT),
                _ => {}
            }
        }
    }
}
