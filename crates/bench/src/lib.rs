//! # partstm-bench — reproduction harness
//!
//! Reusable measurement machinery for the `repro` binary (one sub-command
//! per figure/table of the paper's evaluation): fixed-time multithreaded
//! drivers, a time-series driver for the phase-change experiment, the
//! intset operation mix, and table formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hetero;

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm_core::{
    DynConfig, Granularity, PartitionConfig, ReadMode, StatCounters, Stm, ThreadCtx,
};
use partstm_stamp::SplitMix64;
use partstm_structures::IntSet;

/// One measured data point.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Committed operations per second.
    pub ops_per_sec: f64,
    /// Total operations performed.
    pub ops: u64,
    /// Wall-clock seconds measured.
    pub secs: f64,
}

/// Runs `op` in a loop on `threads` threads for `secs` seconds (plus a
/// fixed 15% warmup that is not counted). `op` receives the thread's
/// context, its index and a deterministic per-thread RNG.
pub fn drive(
    stm: &Stm,
    threads: usize,
    secs: f64,
    op: &(dyn Fn(&ThreadCtx, usize, &mut SplitMix64) + Sync),
) -> Measurement {
    let stop = AtomicBool::new(false);
    let counting = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let warmup = Duration::from_secs_f64(secs * 0.15);
    let measure = Duration::from_secs_f64(secs);
    let mut measured_secs = 0.0;
    std::thread::scope(|s| {
        for t in 0..threads {
            let ctx = stm.register_thread();
            let (stop, counting, ops) = (&stop, &counting, &ops);
            s.spawn(move || {
                let mut rng =
                    SplitMix64::new(0xBE7_C0DE ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9));
                let mut local = 0u64;
                let mut was_counting = false;
                while !stop.load(Ordering::Relaxed) {
                    let c = counting.load(Ordering::Relaxed);
                    if c != was_counting {
                        local = 0; // warmup ended: restart the local count
                        was_counting = c;
                    }
                    op(&ctx, t, &mut rng);
                    local += 1;
                }
                if was_counting {
                    ops.fetch_add(local, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(warmup);
        counting.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(measure);
        measured_secs = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });
    let total = ops.load(Ordering::Relaxed);
    Measurement {
        ops_per_sec: total as f64 / measured_secs,
        ops: total,
        secs: measured_secs,
    }
}

/// Time-series variant: returns committed-ops counts per `window` over
/// `total` seconds (no warmup; the first windows *are* the experiment).
/// `op` additionally receives the elapsed time since start so workloads can
/// phase-shift.
pub fn drive_timeseries(
    stm: &Stm,
    threads: usize,
    total: f64,
    window: f64,
    op: &(dyn Fn(&ThreadCtx, usize, &mut SplitMix64, Duration) + Sync),
) -> Vec<u64> {
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let start = Instant::now();
    let mut series = Vec::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let ctx = stm.register_thread();
            let (stop, ops) = (&stop, &ops);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x5E71E5 ^ (t as u64 + 1).wrapping_mul(0x517C_C1B7));
                while !stop.load(Ordering::Relaxed) {
                    op(&ctx, t, &mut rng, start.elapsed());
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let windows = (total / window).round() as usize;
        let mut prev = 0u64;
        for w in 1..=windows {
            let target = start + Duration::from_secs_f64(w as f64 * window);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            let cur = ops.load(Ordering::Relaxed);
            series.push(cur - prev);
            prev = cur;
        }
        stop.store(true, Ordering::Relaxed);
    });
    series
}

/// The classic integer-set operation mix: `update_pct`% of operations are
/// updates (half inserts, half removes), the rest are lookups, keys uniform
/// in `0..range`.
pub fn intset_op(
    set: &dyn IntSet,
    ctx: &ThreadCtx,
    rng: &mut SplitMix64,
    range: u64,
    update_pct: u64,
) {
    let key = rng.below(range);
    if rng.pct(update_pct) {
        if rng.pct(50) {
            ctx.run(|tx| set.insert(tx, key).map(|_| ()));
        } else {
            ctx.run(|tx| set.remove(tx, key).map(|_| ()));
        }
    } else {
        ctx.run(|tx| set.contains(tx, key).map(|_| ()));
    }
}

/// Pre-fills a set to 50% occupancy of its key range (even keys), the
/// standard intset steady-state setup.
pub fn prefill(stm: &Stm, set: &dyn IntSet, range: u64) {
    let ctx = stm.register_thread();
    for k in (0..range).step_by(2) {
        ctx.run(|tx| set.insert(tx, k).map(|_| ()));
    }
}

/// The static configurations F2 sweeps (label, config).
pub fn static_configs() -> Vec<(&'static str, DynConfig)> {
    let base = DynConfig::from(&PartitionConfig::default());
    let mut inv_word = base;
    inv_word.read_mode = ReadMode::Invisible;
    inv_word.granularity = Granularity::Word;
    let mut vis_word = base;
    vis_word.read_mode = ReadMode::Visible;
    vis_word.granularity = Granularity::Word;
    let mut inv_plock = base;
    inv_plock.read_mode = ReadMode::Invisible;
    inv_plock.granularity = Granularity::PartitionLock;
    let mut vis_plock = base;
    vis_plock.read_mode = ReadMode::Visible;
    vis_plock.granularity = Granularity::PartitionLock;
    vec![
        ("inv/word", inv_word),
        ("vis/word", vis_word),
        ("inv/plock", inv_plock),
        ("vis/plock", vis_plock),
    ]
}

/// Formats operations per second as `Kops` with 1 decimal.
pub fn kops(v: f64) -> String {
    format!("{:.1}", v / 1000.0)
}

/// Thread counts to sweep: powers of two up to `max` (bounded by the
/// machine and the 64-slot limit), always including 1 and the cap.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let cap = max.min(hw).clamp(1, 64);
    let mut v = vec![1usize];
    let mut t = 2;
    while t <= cap {
        v.push(t);
        t *= 2;
    }
    if *v.last().unwrap() != cap && cap > 1 {
        v.push(cap);
    }
    v
}

/// Per-partition runtime summary row (used by T1/T2 reporting).
#[derive(Debug, Clone)]
pub struct PartReport {
    /// Partition name.
    pub name: String,
    /// Counter deltas over the observation run.
    pub stats: StatCounters,
    /// Final configuration (after any tuning).
    pub config: DynConfig,
}

/// Snapshot all partitions' counters (order = creation order).
pub fn snapshot_all(stm: &Stm) -> Vec<StatCounters> {
    stm.partitions().iter().map(|p| p.stats()).collect()
}

/// Collects per-partition reports from an `Stm`, subtracting `baseline`
/// snapshots taken before the run (matched by creation order).
pub fn partition_reports(stm: &Stm, baseline: &[StatCounters]) -> Vec<PartReport> {
    stm.partitions()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let base = baseline.get(i).copied().unwrap_or_default();
            PartReport {
                name: p.name().to_string(),
                stats: p.stats().delta(&base),
                config: p.current_config(),
            }
        })
        .collect()
}

/// Short human config label like `vis/plock`.
pub fn config_label(c: &DynConfig) -> String {
    let rm = match c.read_mode {
        ReadMode::Invisible => "inv",
        ReadMode::Visible => "vis",
    };
    let g = match c.granularity {
        Granularity::Word => "word".to_string(),
        Granularity::Stripe { shift } => format!("s{shift}"),
        Granularity::PartitionLock => "plock".to_string(),
    };
    format!("{rm}/{g}")
}

/// Makes a partition with a given dynamic config (helper for sweeps).
pub fn partition_with(
    stm: &Stm,
    name: &str,
    cfg: DynConfig,
    tunable: bool,
) -> Arc<partstm_core::Partition> {
    let mut pc = PartitionConfig::named(name);
    pc.read_mode = cfg.read_mode;
    pc.acquire = cfg.acquire;
    pc.granularity = cfg.granularity;
    pc.cm = cfg.cm;
    pc.reader_arb = cfg.reader_arb;
    pc.tune = tunable;
    stm.new_partition(pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_structures::THashSet;

    #[test]
    fn drive_measures_something() {
        let stm = Stm::new();
        let set = THashSet::new(stm.new_partition(PartitionConfig::named("s")), 64);
        prefill(&stm, &set, 128);
        let m = drive(&stm, 2, 0.2, &|ctx, _t, rng| {
            intset_op(&set, ctx, rng, 128, 20);
        });
        assert!(m.ops > 0);
        assert!(m.ops_per_sec > 100.0, "{}", m.ops_per_sec);
        assert!(m.secs >= 0.19);
    }

    #[test]
    fn timeseries_has_expected_windows() {
        let stm = Stm::new();
        let set = THashSet::new(stm.new_partition(PartitionConfig::named("s")), 64);
        let series = drive_timeseries(&stm, 2, 0.5, 0.1, &|ctx, _t, rng, _el| {
            intset_op(&set, ctx, rng, 64, 50);
        });
        assert_eq!(series.len(), 5);
        assert!(series.iter().sum::<u64>() > 0);
    }

    #[test]
    fn sweep_and_labels() {
        let s = thread_sweep(8);
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(static_configs().len(), 4);
        let c = DynConfig::from(&PartitionConfig::default());
        assert_eq!(config_label(&c), "inv/word");
    }

    #[test]
    fn prefill_hits_half_range() {
        let stm = Stm::new();
        let set = THashSet::new(stm.new_partition(PartitionConfig::named("s")), 64);
        prefill(&stm, &set, 100);
        assert_eq!(set.snapshot_keys().len(), 50);
    }

    #[test]
    fn partition_with_applies_config() {
        let stm = Stm::new();
        let mut cfg = DynConfig::from(&PartitionConfig::default());
        cfg.read_mode = ReadMode::Visible;
        cfg.granularity = Granularity::Stripe { shift: 7 };
        let p = partition_with(&stm, "x", cfg, true);
        assert_eq!(p.current_config(), cfg);
        assert!(p.is_tunable());
        assert_eq!(config_label(&cfg), "vis/s7");
    }
}
