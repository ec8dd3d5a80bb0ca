//! `scan-update`: one partition, a bank of 16 384 accounts in 64 groups of
//! 256. 25% scans (`ThreadCtx::snapshot_read` summing one whole group),
//! 75% updates (an intra-group transfer through `ThreadCtx::run`).
//!
//! Why: the same commit / version-ring layer is used two ways at once —
//! scans reconstruct from the rings the writers publish into — so a
//! read-path gain that taxes commits shows as `update_p50_us` getting
//! worse here while `bank-uniform` stays flat. Every scan is its own
//! opacity oracle: a group sum other than 256 × the initial balance is a
//! failed operation.

use partstm_core::{PartitionConfig, Stm};

use super::{replay_banks, tapes, traced_pass, Lane};
use crate::harness::Tapes;
use crate::measure::{
    counter_metrics, counters, end_to_end_metrics, series, time_setup, Outcome, RunCfg,
};
use crate::ops::{BankModel, BankOp};
use crate::rng::SplitMix64;
use crate::variants::StmBanks;

pub const ACCOUNTS: usize = 16_384;
pub const GROUP: u32 = 256;

fn draw(r: &mut SplitMix64) -> BankOp {
    let start = r.below(ACCOUNTS as u64 / GROUP as u64) as u32 * GROUP;
    if r.below(100) < 25 {
        BankOp::ReadRange {
            bank: 0,
            snapshot: true,
            start,
            len: GROUP,
        }
    } else {
        BankOp::Transfer {
            bank: 0,
            from: start + r.below(GROUP as u64) as u32,
            to: start + r.below(GROUP as u64) as u32,
            amt: r.below(90) as i32 + 1,
        }
    }
}

fn build() -> (Stm, StmBanks) {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("accounts"));
    (stm.clone(), StmBanks::new(stm, &[part], ACCOUNTS))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let tapes = Tapes::plain(tapes(cfg.seed, 3, cfg.threads, draw));

    let (setup_s, main) = time_setup(cfg.threads, build);
    out.values.set("setup_s", setup_s);
    let fresh = build().1;
    let model = BankModel::new(1, ACCOUNTS);
    replay_banks(&mut out, &fresh, &fresh, model, &tapes.pre[0]);
    drop(fresh);

    let mut lm = Lane::new(cfg.threads);
    lm.warm_up(&main, &tapes, cfg.warmup_plan(3.0));
    let before = counters(&main.stm);
    lm.slice(&main, &tapes, cfg.plan(12, false));
    counter_metrics(&counters(&main.stm).delta(&before), &mut out.values);
    end_to_end_metrics(&lm.log, &mut out);
    out.notes.push(series("main", &lm.log));
    out.count(&lm.log);
    out.oracle("bank conserves money", main.check_conserved());

    out.values.set("rss_mb", crate::host::peak_rss_mb());

    if cfg.trace {
        traced_pass(cfg, &main, &tapes, 12, &mut out);
        out.oracle(
            "bank conserves money after the traced pass",
            main.check_conserved(),
        );
    }
    out
}
