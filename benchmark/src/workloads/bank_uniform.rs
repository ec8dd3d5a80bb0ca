//! `bank-uniform`: 4 banks × 65 536 accounts, one default-configuration
//! partition each. 80% two-account transfers inside one uniformly chosen
//! bank, 10% cross-bank transfers (two partitions in one transaction), 10%
//! 8-account balance reads.
//!
//! Why: 2–8-access transactions with almost no conflicts, so begin,
//! first-touch view, read, write and commit do nearly all the work while
//! contention management, validation-extension and the control plane do
//! none. It is where hot-path work shows, and where `vs_single_table ≈ 1`
//! *is* the paper's "partitioning costs little". The same tapes also run
//! on the `single-table` and `global-lock` baselines, interleaved in
//! slices with the main variant.

use partstm_core::{PartitionConfig, Stm};

use super::{replay_banks, tapes, traced_pass, Lane};
use crate::baseline::{global_lock, single_table, versus};
use crate::harness::Tapes;
use crate::measure::{
    counter_metrics, counters, end_to_end_metrics, ensure, series, time_setup, Outcome, RunCfg,
};
use crate::ops::{BankModel, BankOp};
use crate::rng::SplitMix64;
use crate::variants::StmBanks;

pub const BANKS: usize = 4;
pub const ACCOUNTS: usize = 65_536;

fn draw(r: &mut SplitMix64) -> BankOp {
    let bank = r.below(BANKS as u64) as u8;
    let account = |r: &mut SplitMix64| r.below(ACCOUNTS as u64) as u32;
    match r.below(100) {
        0..=79 => BankOp::Transfer {
            bank,
            from: account(r),
            to: account(r),
            amt: r.below(90) as i32 + 1,
        },
        80..=89 => BankOp::Cross {
            from_bank: bank,
            to_bank: ((bank as u64 + 1 + r.below(BANKS as u64 - 1)) % BANKS as u64) as u8,
            from: account(r),
            to: account(r),
            amt: r.below(90) as i32 + 1,
        },
        _ => BankOp::ReadSome {
            bank,
            count: 8,
            seed: r.next() as u32,
            base: 0,
            span: ACCOUNTS as u32,
        },
    }
}

fn build(partitioned: bool) -> (Stm, StmBanks) {
    let stm = Stm::new();
    let parts = if partitioned {
        stm.new_partitions((0..BANKS).map(|i| PartitionConfig::named(format!("bank{i}"))))
    } else {
        single_table(&stm, PartitionConfig::named("all-banks"), BANKS)
    };
    (stm.clone(), StmBanks::new(stm, &parts, ACCOUNTS))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let tapes = Tapes::plain(tapes(cfg.seed, 1, cfg.threads, draw));

    let (setup_s, main) = time_setup(cfg.threads, || build(true));
    out.values.set("setup_s", setup_s);
    let fresh = build(true).1;
    let model = BankModel::new(BANKS, ACCOUNTS);
    replay_banks(&mut out, &fresh, &fresh, model, &tapes.pre[0]);
    drop(fresh);

    let single = build(false).1;
    let lock = global_lock(BankModel::new(BANKS, ACCOUNTS));
    let (mut lm, mut ls, mut ll) = (
        Lane::new(cfg.threads),
        Lane::new(cfg.threads),
        Lane::new(cfg.threads),
    );
    lm.warm_up(&main, &tapes, cfg.warmup_plan(3.0));
    ls.warm_up(&single, &tapes, cfg.warmup_plan(1.0));
    ll.warm_up(&lock, &tapes, cfg.warmup_plan(1.0));
    let before = counters(&main.stm);
    // 12 main windows, 6 per baseline, in slices of two windows.
    let slice = cfg.plan(2, false);
    for round in 0..6 {
        lm.slice(&main, &tapes, slice);
        if round % 2 == 0 {
            ls.slice(&single, &tapes, slice);
        } else {
            ll.slice(&lock, &tapes, slice);
        }
    }
    counter_metrics(&counters(&main.stm).delta(&before), &mut out.values);
    end_to_end_metrics(&lm.log, &mut out);
    versus(
        &mut out,
        "vs_single_table",
        "single_table_kops",
        &lm.log,
        &ls.log,
    );
    versus(
        &mut out,
        "vs_global_lock",
        "global_lock_kops",
        &lm.log,
        &ll.log,
    );
    for (name, log) in [
        ("partitioned", &lm.log),
        ("single-table", &ls.log),
        ("global-lock", &ll.log),
    ] {
        out.notes.push(series(name, log));
        out.count(log);
    }
    out.oracle("partitioned banks conserve money", main.check_conserved());
    out.oracle(
        "single-table banks conserve money",
        single.check_conserved(),
    );
    let lock_total = lock.0.lock().expect("workers are done").total();
    out.oracle(
        "global-lock banks conserve money",
        ensure(
            lock_total == BankModel::new(BANKS, ACCOUNTS).total(),
            || format!("total {lock_total}"),
        ),
    );

    out.values.set("rss_mb", crate::host::peak_rss_mb());

    if cfg.trace {
        traced_pass(cfg, &main, &tapes, 12, &mut out);
        out.oracle(
            "banks conserve money after the traced pass",
            main.check_conserved(),
        );
    }
    out
}
