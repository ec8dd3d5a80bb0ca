//! The five workloads. Names are stable: later issues cite them.

pub mod bank_uniform;
pub mod ctl_churn;
pub mod hetero_sets;
pub mod phase_shift;
pub mod scan_update;

use crate::harness::{drive, Plan, Tapes, Variant, VariantLog};
use crate::measure::{ensure, replay_check, span_metrics, Outcome, RunCfg, REPLAY_OPS, TAPE_LEN};
use crate::ops::{BankModel, BankOp};
use crate::report::write_trace;
use crate::rng::SplitMix64;
use crate::variants::StmBanks;

/// Runs the named workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    match cfg.workload {
        "bank-uniform" => bank_uniform::run(cfg),
        "hetero-sets" => hetero_sets::run(cfg),
        "scan-update" => scan_update::run(cfg),
        "ctl-churn" => ctl_churn::run(cfg),
        "phase-shift" => phase_shift::run(cfg),
        other => unreachable!("workload '{other}' passed the CLI check"),
    }
}

/// One tape of [`TAPE_LEN`] operations per worker, each drawn by `draw`
/// from the worker's own stream of `(seed, tag)`.
fn tapes<Op>(
    seed: u64,
    tag: u64,
    threads: usize,
    draw: impl Fn(&mut SplitMix64) -> Op,
) -> Vec<Vec<Op>> {
    (0..threads)
        .map(|t| {
            let mut rng = SplitMix64::stream(seed, tag * 64 + t as u64);
            (0..TAPE_LEN).map(|_| draw(&mut rng)).collect()
        })
        .collect()
}

/// One variant's measured run: its tape cursors and everything it logged.
struct Lane {
    cursors: Vec<usize>,
    log: VariantLog,
}

impl Lane {
    fn new(threads: usize) -> Self {
        Lane {
            cursors: vec![0; threads],
            log: VariantLog::default(),
        }
    }

    /// Runs a warm-up-only segment: state and caches settle, nothing is
    /// recorded.
    fn warm_up<V: Variant>(&mut self, v: &V, tapes: &Tapes<V::Op>, plan: Plan) {
        drive(v, tapes, &mut self.cursors, plan);
    }

    /// Measures one slice and appends it to the lane's log.
    fn slice<V: Variant>(&mut self, v: &V, tapes: &Tapes<V::Op>, plan: Plan) {
        self.log.absorb(drive(v, tapes, &mut self.cursors, plan));
    }
}

/// The single-thread replay check of a bank workload: `v` (whose banks are
/// `banks`, freshly built) must agree with `model` result by result over
/// the head of `tape`, and balance by balance afterwards.
fn replay_banks<V: Variant<Op = BankOp>>(
    out: &mut Outcome,
    v: &V,
    banks: &StmBanks,
    mut model: BankModel,
    tape: &[BankOp],
) {
    let verdict = replay_check(v, &mut model, &tape[..REPLAY_OPS]).and_then(|()| {
        ensure(banks.balances() == model.banks, || {
            "final balances differ from the model".into()
        })
    });
    out.oracle("replay against the Vec model", verdict);
}

/// What every traced pass ends with: its operations counted, the span
/// metrics (`untraced_kops` is the same variant's untraced throughput)
/// and the trace file.
fn report_traced(cfg: &RunCfg, log: &VariantLog, untraced_kops: f64, out: &mut Outcome) {
    out.count(log);
    span_metrics(log, untraced_kops, cfg.threads, out);
    write_trace(cfg, log, out);
}

/// The traced pass of a steady workload: a short warm-up, then `windows`
/// traced windows of `v`, which the end-to-end pass has already measured.
fn traced_pass<V: Variant>(
    cfg: &RunCfg,
    v: &V,
    tapes: &Tapes<V::Op>,
    windows: usize,
    out: &mut Outcome,
) -> VariantLog {
    let mut lane = Lane::new(cfg.threads);
    lane.warm_up(v, tapes, cfg.warmup_plan(1.0));
    lane.slice(v, tapes, cfg.plan(windows, true));
    report_traced(cfg, &lane.log, out.values.get("commit_kops"), out);
    lane.log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tapes_repeat_per_seed_and_differ_across_seeds_and_workers() {
        let draw = |r: &mut SplitMix64| r.below(1_000_000);
        let a = tapes(42, 1, 2, draw);
        assert_eq!(a, tapes(42, 1, 2, draw), "same seed, same tapes");
        assert_eq!(a[0].len(), TAPE_LEN);
        assert_ne!(a[0], a[1], "workers draw from their own streams");
        assert_ne!(a, tapes(43, 1, 2, draw), "another seed, other tapes");
        assert_ne!(a, tapes(42, 2, 2, draw), "another workload, other tapes");
        // The first worker's tape does not depend on the thread count.
        assert_eq!(a[0], tapes(42, 1, 4, draw)[0]);
    }
}
