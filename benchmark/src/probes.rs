//! Group P: probe numbers. Single-thread, calibrated-iteration loops over
//! fixed transaction shapes and library calls; the per-layer costs are
//! derived from them by difference. They do not depend on the workload, so
//! every traced run reports the same set.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm_analysis::online::{OnlineAnalyzer, OnlineConfig};
use partstm_core::{
    telemetry, AccessProfiler, DynConfig, PVar, PartitionConfig, PartitionId, StatCounters, Stm,
    TuneInput, TuningPolicy, Tx, TxResult,
};
use partstm_structures::Bank;
use partstm_tuning::ThresholdPolicy;

use crate::harness::{NoRec, Variant};
use crate::metrics::Values;
use crate::ops::{SetOp, INITIAL};
use crate::rng::SplitMix64;
use crate::workloads::hetero_sets;

/// Shortest batch a probe is timed over.
const BATCH: Duration = Duration::from_millis(8);
/// Batches per probe; the fastest is reported (the others met noise).
const BATCHES: usize = 5;

fn time_batch(iters: u64, f: &mut impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed()
}

/// Nanoseconds per call of `f`.
pub fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    let mut iters = 16u64;
    while time_batch(iters, &mut f) < BATCH {
        iters *= 2;
    }
    let best = (0..BATCHES)
        .map(|_| time_batch(iters, &mut f))
        .min()
        .expect("BATCHES > 0");
    best.as_nanos() as f64 / iters as f64
}

/// Sums `vars` inside a transaction (the read part of the `ro64` family).
fn sum<'e>(tx: &mut Tx<'e, '_>, vars: &'e [PVar<u64>]) -> TxResult<u64> {
    let mut s = 0u64;
    for v in vars {
        s = s.wrapping_add(tx.read(v)?);
    }
    Ok(s)
}

/// The fixed transaction shapes: `empty`, `ro64`, `rw8`, `ro64x4p` (64
/// reads over 4 partitions), and `r64w1` against `ro64` with a forced
/// validation pass.
fn txn_shapes(out: &mut Values) {
    let stm = Stm::new();
    let parts = stm.new_partitions((0..4).map(|i| PartitionConfig::named(format!("p{i}"))));
    let vars: Vec<PVar<u64>> = (0..64).map(|v| parts[0].tvar(v)).collect();
    let spread: Vec<PVar<u64>> = (0..64).map(|v| parts[v as usize / 16].tvar(v)).collect();
    let sink = parts[0].tvar(0u64);
    let pumped = parts[3].tvar(0u64);
    let ctx = stm.register_thread();
    let pump = stm.register_thread();

    let empty = ns_per_iter(|| ctx.run(|_tx| Ok(())));
    let ro64 = ns_per_iter(|| {
        black_box(ctx.run(|tx| sum(tx, &vars)));
    });
    let rw8 = ns_per_iter(|| {
        ctx.run(|tx| {
            for (i, v) in vars[..8].iter().enumerate() {
                tx.write(v, i as u64)?;
            }
            Ok(())
        })
    });
    let ro64x4p = ns_per_iter(|| {
        black_box(ctx.run(|tx| sum(tx, &spread)));
    });
    // An update transaction revalidates its read set at commit unless
    // nobody committed since its snapshot — always true on one thread. A
    // second context on the same thread commits to another partition
    // inside the measured closure (the clock pump), so the commit walks
    // all 64 read-set entries; the read-only shape pays the same pump and
    // never validates.
    let ro64_pumped = ns_per_iter(|| {
        black_box(ctx.run(|tx| {
            let s = sum(tx, &vars)?;
            pump.run(|p| p.modify(&pumped, |x| x + 1).map(|_| ()));
            Ok(s)
        }));
    });
    let r64w1_pumped = ns_per_iter(|| {
        black_box(ctx.run(|tx| {
            let s = sum(tx, &vars)?;
            pump.run(|p| p.modify(&pumped, |x| x + 1).map(|_| ()));
            tx.write(&sink, s)?;
            Ok(s)
        }));
    });
    let write_ns = (rw8 - empty) / 8.0;
    out.set("txn.begin_commit_ns", empty);
    out.set("txn.read_ns", (ro64 - empty) / 64.0);
    out.set("txn.write_ns", write_ns);
    out.set(
        "txn.validate_ns",
        (r64w1_pumped - ro64_pumped - write_ns) / 64.0,
    );
    out.set("partition.first_touch_ns", (ro64x4p - ro64) / 3.0);

    let snap_empty = ns_per_iter(|| ctx.snapshot_read(|_tx| Ok(())));
    let snap64 = ns_per_iter(|| {
        black_box(ctx.snapshot_read(|tx| {
            let mut s = 0u64;
            for v in &vars {
                s = s.wrapping_add(tx.read(v)?);
            }
            Ok(s)
        }));
    });
    out.set("snapshot.begin_commit_ns", snap_empty);
    out.set("snapshot.read_ns", (snap64 - snap_empty) / 64.0);

    drop((ctx, pump));
    let guard = stm.privatize(&parts[0]).expect("nothing else touches p0");
    let pair = ns_per_iter(|| {
        for v in &vars {
            guard.write(v, guard.read(v).wrapping_add(1));
        }
    });
    guard.republish();
    out.set("privatize.guard_rw_ns", pair / 64.0);
}

/// `structures.bank_transfer_ns`, and the same loop with a profiler
/// installed and with telemetry on: the cost of watching, per transaction.
fn bank_and_watchers(out: &mut Values) {
    const ACCOUNTS: u64 = 65_536;
    let stm = Stm::new();
    let bank = Bank::new(
        stm.new_partition(PartitionConfig::named("bank")),
        ACCOUNTS as usize,
        INITIAL,
    );
    let ctx = stm.register_thread();
    let mut rng = SplitMix64::stream(0, 900);
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| (rng.below(ACCOUNTS) as usize, rng.below(ACCOUNTS) as usize))
        .collect();
    let mut i = 0;
    let mut transfer = || {
        let (from, to) = pairs[i % pairs.len()];
        i += 1;
        ctx.run(|tx| bank.transfer(tx, from, to, 1));
    };
    let plain = ns_per_iter(&mut transfer);
    out.set("structures.bank_transfer_ns", plain);

    // The period the controller's responsive preset samples at.
    stm.set_profiler(Arc::new(AccessProfiler::new(4, 4096)));
    let profiled = ns_per_iter(&mut transfer);
    stm.clear_profiler();
    out.set("profiler.per_txn_ns", profiled - plain);

    telemetry::set_enabled(true);
    let watched = ns_per_iter(&mut transfer);
    telemetry::set_enabled(false);
    out.set("telemetry.per_txn_ns", watched - plain);
}

/// One op of each integer set, under its `hetero-sets` mix.
fn set_ops(out: &mut Values) {
    let (_stm, sets) = hetero_sets::build(true);
    let mut w = sets.worker();
    let mut rng = SplitMix64::stream(0, 901);
    let names = [
        "structures.list_op_ns",
        "structures.skiplist_op_ns",
        "structures.rbtree_op_ns",
        "structures.hashset_op_ns",
    ];
    for (set, name) in names.into_iter().enumerate() {
        let ops: Vec<SetOp> = std::iter::repeat_with(|| hetero_sets::draw(&mut rng))
            .filter(|op| op.set as usize == set)
            .take(4096)
            .collect();
        let mut i = 0;
        out.set(
            name,
            ns_per_iter(|| {
                black_box(sets.exec(&mut w, &ops[i % ops.len()], &mut NoRec));
                i += 1;
            }),
        );
    }
    sets.retire(w);
}

/// `OnlineAnalyzer::observe` / `proposals` on a recorded sample set, and
/// `TuningPolicy::evaluate` on a synthetic input.
fn analysis_and_tuning(out: &mut Values) {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("sampled"));
    let bank = Bank::new(Arc::clone(&part), 1024, INITIAL);
    let profiler = Arc::new(AccessProfiler::new(1, 8192));
    stm.set_profiler(Arc::clone(&profiler));
    let ctx = stm.register_thread();
    let mut rng = SplitMix64::stream(0, 902);
    for _ in 0..8192 {
        let (from, to) = (rng.below(1024) as usize, rng.below(1024) as usize);
        ctx.run(|tx| bank.transfer(tx, from, to, 1));
    }
    stm.clear_profiler();
    let samples = profiler.drain();
    assert!(!samples.is_empty(), "the profiler recorded the transfers");

    let mut analyzer = OnlineAnalyzer::new();
    let mut i = 0;
    out.set(
        "analysis.observe_ns",
        ns_per_iter(|| {
            analyzer.observe(&samples[i % samples.len()]);
            i += 1;
        }),
    );
    let stats: BTreeMap<PartitionId, StatCounters> = [(part.id(), part.stats())].into();
    let cfg = OnlineConfig::default();
    out.set(
        "analysis.proposals_us",
        ns_per_iter(|| {
            black_box(analyzer.proposals(&stats, &cfg));
        }) / 1e3,
    );

    let policy = ThresholdPolicy::new();
    let input = TuneInput {
        partition: PartitionId(0),
        name: "probe".into(),
        config: DynConfig::from(&PartitionConfig::default()),
        delta: StatCounters {
            commits: 4096,
            update_commits: 2048,
            aborts_wlock: 300,
            reads: 65_536,
            writes: 8192,
            ..Default::default()
        },
        seconds: 0.01,
    };
    out.set(
        "tuning.evaluate_ns",
        ns_per_iter(|| {
            black_box(policy.evaluate(&input));
        }),
    );
}

/// Runs every probe.
pub fn run(out: &mut Values) {
    txn_shapes(out);
    bank_and_watchers(out);
    set_ops(out);
    analysis_and_tuning(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_grows_with_the_work() {
        let spin = |n: u32| move || crate::ops::spin(n);
        let small = ns_per_iter(spin(100));
        let large = ns_per_iter(spin(10_000));
        assert!(small > 0.0);
        assert!(large > 10.0 * small, "{large} vs {small}");
    }
}
