//! `hetero-sets`: the paper's §1 application. Four integer sets with
//! deliberately different workloads — a sorted linked list (range 256, 50%
//! updates), a skip list (4096, 20%), a red-black tree (16 384, 5%) and a
//! hash set (4096, 20%) — each in its own *tunable* partition under a
//! `ThresholdPolicy` whose thresholds are fixed here. An operation picks a
//! structure uniformly, then `contains` / `insert` / `remove` by that
//! structure's update rate.
//!
//! Why: long read sets and real conflicts on two cores put the time in
//! read, validate/extend, abort + backoff and the `structures` code, and it
//! is the only workload that runs `tuning`, so deleting or changing a tuner
//! is visible. `vs_single_table > 1` here is the paper's "pays back". The
//! `single-table` baseline puts all four in one tunable partition.

use std::collections::BTreeSet;
use std::sync::Arc;

use partstm_core::{PartitionConfig, Stm};
use partstm_structures::{IntSet, THashSet, TLinkedList, TRbTree, TSkipList};
use partstm_tuning::{ThresholdPolicy, Thresholds};

use super::{tapes, traced_pass, Lane};
use crate::baseline::{single_table, versus};
use crate::harness::Tapes;
use crate::measure::{
    counter_metrics, counters, end_to_end_metrics, ensure, replay_check, series, time_setup,
    Outcome, RunCfg, REPLAY_OPS,
};
use crate::ops::{SetOp, SetVerb, SetsModel};
use crate::rng::SplitMix64;
use crate::variants::StmSets;

/// `(name, key range, update percentage)` per structure.
pub const SETS: [(&str, u64, u64); 4] = [
    ("list", 256, 50),
    ("skiplist", 4096, 20),
    ("rbtree", 16_384, 5),
    ("hashset", 4096, 20),
];

/// The tuner's thresholds, pinned so a change of the library's defaults
/// cannot silently change the workload.
fn thresholds() -> Thresholds {
    Thresholds {
        window: 4096,
        min_commits: 256,
        visible_update_hi: 0.45,
        visible_abort_hi: 0.10,
        invisible_update_lo: 0.20,
        invisible_abort_lo: 0.02,
        coarsen_abort_hi: 0.60,
        refine_abort_lo: 0.10,
        stripe_shift: 6,
        hysteresis: 2,
    }
}

pub fn draw(r: &mut SplitMix64) -> SetOp {
    let set = r.below(SETS.len() as u64) as usize;
    let (_, range, update_pct) = SETS[set];
    let roll = r.below(200);
    SetOp {
        set: set as u8,
        verb: if roll < update_pct {
            SetVerb::Insert
        } else if roll < 2 * update_pct {
            SetVerb::Remove
        } else {
            SetVerb::Contains
        },
        key: r.below(range) as u32,
    }
}

pub fn build(partitioned: bool) -> (Stm, StmSets) {
    let stm = Stm::new();
    let parts = if partitioned {
        stm.new_partitions(SETS.map(|(name, ..)| PartitionConfig::named(name).tunable()))
    } else {
        single_table(
            &stm,
            PartitionConfig::named("all-sets").tunable(),
            SETS.len(),
        )
    };
    stm.set_tuner(Arc::new(ThresholdPolicy::with_thresholds(thresholds())));
    let sets: Vec<Box<dyn IntSet>> = vec![
        Box::new(TLinkedList::new(Arc::clone(&parts[0]))),
        Box::new(TSkipList::new(Arc::clone(&parts[1]))),
        Box::new(TRbTree::new(Arc::clone(&parts[2]))),
        Box::new(THashSet::new(Arc::clone(&parts[3]), SETS[3].1 as usize / 4)),
    ];
    let sets = StmSets::new(stm.clone(), sets);
    for (i, (_, range, _)) in SETS.iter().enumerate() {
        sets.prefill(i, *range);
    }
    (stm, sets)
}

/// The model's state after the prefill.
pub fn prefilled_model() -> SetsModel {
    SetsModel {
        sets: SETS
            .iter()
            .map(|(_, range, _)| (0..*range).step_by(2).collect::<BTreeSet<u64>>())
            .collect(),
    }
}

fn generations(stm: &Stm) -> u64 {
    stm.partitions().iter().map(|p| p.generation() as u64).sum()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let tapes = Tapes::plain(tapes(cfg.seed, 2, cfg.threads, draw));

    let (setup_s, main) = time_setup(cfg.threads, || build(true));
    out.values.set("setup_s", setup_s);
    let mut model = prefilled_model();
    let fresh = build(true).1;
    let verdict = replay_check(&fresh, &mut model, &tapes.pre[0][..REPLAY_OPS]).and_then(|()| {
        let keys: Vec<Vec<u64>> = fresh.sets.iter().map(|s| s.snapshot_keys()).collect();
        let want: Vec<Vec<u64>> = model
            .sets
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        ensure(keys == want, || "final keys differ from the model".into())
    });
    out.oracle("replay against the BTreeSet model", verdict);
    drop(fresh);

    let single = build(false).1;
    let (mut lm, mut ls) = (Lane::new(cfg.threads), Lane::new(cfg.threads));
    // The main warm-up is long enough for the tuner to converge.
    lm.warm_up(&main, &tapes, cfg.warmup_plan(5.0));
    ls.warm_up(&single, &tapes, cfg.warmup_plan(2.0));
    let before = (counters(&main.stm), generations(&main.stm));
    // 12 main windows and 6 single-table windows, in slices of two.
    let slice = cfg.plan(2, false);
    for _ in 0..3 {
        lm.slice(&main, &tapes, slice);
        ls.slice(&single, &tapes, slice);
        lm.slice(&main, &tapes, slice);
    }
    counter_metrics(&counters(&main.stm).delta(&before.0), &mut out.values);
    let switches = generations(&main.stm) - before.1;
    out.values.set("tuning.switches", switches as f64);
    end_to_end_metrics(&lm.log, &mut out);
    out.notes.push(series("main", &lm.log));
    versus(
        &mut out,
        "vs_single_table",
        "single_table_kops",
        &lm.log,
        &ls.log,
    );
    for (p, (name, ..)) in main.stm.partitions().iter().zip(SETS) {
        out.notes.push(format!(
            "partition {name}: {:?}, generation {}",
            p.current_config(),
            p.generation()
        ));
    }
    out.count(&lm.log);
    out.count(&ls.log);
    out.oracle("per-partition set sizes", main.check_sizes());
    out.oracle("single-table set sizes", single.check_sizes());

    out.values.set("rss_mb", crate::host::peak_rss_mb());

    if cfg.trace {
        traced_pass(cfg, &main, &tapes, 12, &mut out);
        out.oracle("set sizes after the traced pass", main.check_sizes());
    }
    out
}
