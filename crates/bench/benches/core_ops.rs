//! Criterion microbenches for the STM engine's primitive costs:
//! transactional read/write under both visibilities, read-only vs update
//! commits, snapshot extension, and the cost profile the paper's tuning
//! decisions trade against each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use partstm_core::{Granularity, PartitionConfig, ReadMode, Stm, TVar};

fn bench_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_reads");
    for (label, mode) in [
        ("invisible", ReadMode::Invisible),
        ("visible", ReadMode::Visible),
    ] {
        for n in [1usize, 16, 64, 256] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("p").read_mode(mode));
            let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
            let ctx = stm.register_thread();
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let sum = ctx.run(|tx| {
                        let mut s = 0u64;
                        for v in &vars {
                            s = s.wrapping_add(tx.read_raw(&p, v)?);
                        }
                        Ok(s)
                    });
                    black_box(sum)
                })
            });
        }
    }
    g.finish();
}

fn bench_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_writes");
    for (label, acquire) in [
        ("encounter", partstm_core::AcquireMode::Encounter),
        ("commit", partstm_core::AcquireMode::Commit),
    ] {
        for n in [1usize, 16, 64] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("p").acquire(acquire));
            let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
            let ctx = stm.register_thread();
            let mut i = 0u64;
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    i += 1;
                    ctx.run(|tx| {
                        for v in &vars {
                            tx.write_raw(&p, v, i)?;
                        }
                        Ok(())
                    });
                })
            });
        }
    }
    g.finish();
}

/// The benchmark's two-account transfer (read, read, write, write, no
/// snapshot reader) at four version-ring depths. Publication looks at the
/// one slot under the orec's cursor, so the cost must not grow with depth.
fn bench_commit_ring_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_2w_ring_depth");
    for depth in [1usize, 4, 16, 64] {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("p").ring(depth));
        let (from, to) = (p.tvar(1_000u64), p.tvar(1_000u64));
        let ctx = stm.register_thread();
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                ctx.run(|tx| {
                    let (f, t) = (tx.read(&from)?, tx.read(&to)?);
                    tx.write(&from, f.wrapping_sub(1))?;
                    tx.write(&to, t.wrapping_add(1))
                })
            })
        });
    }
    g.finish();
}

fn bench_granularity_mapping(c: &mut Criterion) {
    let mut g = c.benchmark_group("granularity");
    for (label, gran) in [
        ("word", Granularity::Word),
        ("stripe6", Granularity::Stripe { shift: 6 }),
        ("plock", Granularity::PartitionLock),
    ] {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("p").granularity(gran));
        let vars: Vec<TVar<u64>> = (0..64u64).map(TVar::new).collect();
        let ctx = stm.register_thread();
        g.bench_function(label, |b| {
            b.iter(|| {
                ctx.run(|tx| {
                    let mut s = 0u64;
                    for v in &vars {
                        s = s.wrapping_add(tx.read_raw(&p, v)?);
                    }
                    Ok(black_box(s))
                })
            })
        });
    }
    g.finish();
}

fn bench_read_own_writes(c: &mut Criterion) {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("p"));
    let vars: Vec<TVar<u64>> = (0..64u64).map(TVar::new).collect();
    let ctx = stm.register_thread();
    c.bench_function("read_own_writes_64", |b| {
        b.iter(|| {
            ctx.run(|tx| {
                for (i, v) in vars.iter().enumerate() {
                    tx.write_raw(&p, v, i as u64)?;
                }
                let mut s = 0u64;
                for v in &vars {
                    s = s.wrapping_add(tx.read_raw(&p, v)?);
                }
                Ok(black_box(s))
            })
        })
    });
}

fn bench_empty_txn(c: &mut Criterion) {
    let stm = Stm::new();
    let ctx = stm.register_thread();
    c.bench_function("empty_txn", |b| {
        b.iter(|| ctx.run(|_tx| Ok(black_box(0u64))))
    });
}

criterion_group!(
    benches,
    bench_empty_txn,
    bench_reads,
    bench_writes,
    bench_commit_ring_depth,
    bench_granularity_mapping,
    bench_read_own_writes
);
criterion_main!(benches);
