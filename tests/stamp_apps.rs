//! End-to-end application tests: the STAMP ports produce correct results
//! under concurrency, in every partitioning mode, with and without tuning.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use partstm::core::Stm;
use partstm::stamp::genome::{self, GenomeConfig, GenomeParts};
use partstm::stamp::kmeans::{self, KmeansConfig};
use partstm::stamp::vacation::{self, Manager, ManagerParts, VacationConfig};
use partstm::tuning::{ThresholdPolicy, Thresholds};

fn tuner() -> Arc<ThresholdPolicy> {
    Arc::new(ThresholdPolicy::with_thresholds(Thresholds {
        window: 512,
        min_commits: 64,
        ..Thresholds::default()
    }))
}

#[test]
fn vacation_invariants_all_modes() {
    for mode in ["single", "partitioned", "tuned"] {
        let stm = Stm::new();
        let parts = match mode {
            "single" => ManagerParts::single(&stm, false),
            "partitioned" => ManagerParts::partitioned(&stm, false),
            _ => {
                stm.set_tuner(tuner());
                ManagerParts::partitioned(&stm, true)
            }
        };
        let manager = Manager::new(parts);
        let cfg = VacationConfig::high(256);
        let ctx = stm.register_thread();
        vacation::populate(&ctx, &manager, &cfg);
        drop(ctx);
        // One extra thread checks the cross-partition invariants on
        // snapshots while the clients run, at least once.
        let done = AtomicBool::new(false);
        let stats = std::thread::scope(|s| {
            let ctx = stm.register_thread();
            let (manager, done) = (&manager, &done);
            s.spawn(move || {
                let mut checks = 0u32;
                while checks == 0 || !done.load(Ordering::Relaxed) {
                    ctx.snapshot_read(|r| manager.invariants(r))
                        .unwrap_or_else(|e| panic!("mode {mode}, snapshot {checks}: {e}"));
                    checks += 1;
                }
            });
            let stats = vacation::run_vacation(&stm, manager, &cfg, 4, 500);
            done.store(true, Ordering::Relaxed);
            stats
        });
        assert_eq!(stats.tasks(), 2000, "mode {mode}");
        assert!(stats.reservations > 0, "mode {mode}");
        manager
            .check_invariants()
            .unwrap_or_else(|e| panic!("mode {mode}: {e}"));
    }
}

#[test]
fn vacation_low_and_high_mixes_differ() {
    let stm = Stm::new();
    let manager = Manager::new(ManagerParts::partitioned(&stm, false));
    let low = VacationConfig::low(256);
    let ctx = stm.register_thread();
    vacation::populate(&ctx, &manager, &low);
    let stats = vacation::run_client(&ctx, &manager, &low, 1000, 7);
    // 98% user tasks in the low mix.
    assert!(
        stats.make_tasks > 950,
        "low mix is user-dominated: {stats:?}"
    );
    manager.check_invariants().unwrap();
}

#[test]
fn kmeans_parallel_equals_sequential() {
    let cfg = KmeansConfig {
        points: 600,
        dims: 6,
        clusters: 6,
        threshold: 0.0,
        max_iterations: 12,
        seed: 1234,
    };
    let points = kmeans::generate_points(&cfg);
    let seq = kmeans::run_kmeans_sequential(&cfg, &points);
    for threads in [1, 4] {
        let stm = Stm::new();
        let state = kmeans::make_state(&stm, &cfg, false);
        let par = kmeans::run_kmeans(&stm, &state, &cfg, &points, threads);
        assert_eq!(par.iterations, seq.iterations, "threads={threads}");
        let diffs = par
            .membership
            .iter()
            .zip(&seq.membership)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            diffs <= points.len() / 100,
            "threads={threads}: {diffs} membership diffs"
        );
    }
}

#[test]
fn kmeans_under_tuning_still_correct() {
    let cfg = KmeansConfig::high(2000);
    let points = kmeans::generate_points(&cfg);
    let seq = kmeans::run_kmeans_sequential(&cfg, &points);
    let stm = Stm::new();
    stm.set_tuner(tuner());
    let state = kmeans::make_state(&stm, &cfg, true);
    let par = kmeans::run_kmeans(&stm, &state, &cfg, &points, 4);
    let diffs = par
        .membership
        .iter()
        .zip(&seq.membership)
        .filter(|(a, b)| a != b)
        .count();
    assert!(diffs <= points.len() / 50, "{diffs} membership diffs");
}

#[test]
fn genome_reconstructs_in_all_modes() {
    let cfg = GenomeConfig::scaled(2048);
    let gene = genome::generate_gene(&cfg);
    let segs = genome::shred(&cfg, &gene);
    for mode in ["single", "partitioned", "tuned"] {
        let stm = Stm::new();
        let parts = match mode {
            "single" => GenomeParts::single(&stm, false),
            "partitioned" => GenomeParts::partitioned(&stm, false),
            _ => {
                stm.set_tuner(tuner());
                GenomeParts::partitioned(&stm, true)
            }
        };
        let res = genome::run_genome(&stm, &parts, &cfg, &segs, 4);
        assert_eq!(res.gene, gene, "mode {mode}");
        assert!(res.unique_segments > 0);
    }
}

#[test]
fn analysis_plan_matches_vacation_runtime_partitions() {
    // The full Figure-1 pipeline: analyze the model, materialize exactly
    // those classes, and confirm the manager's partitioning agrees.
    use partstm::analysis::{partition, Strategy};
    let model = vacation::partition_plan();
    let plan = partition(&model, Strategy::MayTouch).unwrap();
    let stm = Stm::new();
    let parts = ManagerParts::partitioned(&stm, false);
    assert_eq!(plan.partition_count(), parts.distinct().len());
}

#[test]
fn intruder_detects_all_attacks_in_all_modes() {
    use partstm::stamp::intruder::{self, Intruder, IntruderConfig, IntruderParts};
    let cfg = IntruderConfig::scaled(500);
    let (packets, attacks) = intruder::generate_stream(&cfg);
    for mode in ["single", "partitioned", "tuned"] {
        let stm = Stm::new();
        let parts = match mode {
            "single" => IntruderParts::single(&stm, false),
            "partitioned" => IntruderParts::partitioned(&stm, false),
            _ => {
                stm.set_tuner(tuner());
                IntruderParts::partitioned(&stm, true)
            }
        };
        let pipeline = Intruder::new(&stm, parts, &packets);
        let res = intruder::run_intruder(&stm, &pipeline, &packets, cfg.flows, 4);
        assert_eq!(res.flows, cfg.flows as u64, "mode {mode}");
        assert_eq!(res.attacks, attacks as u64, "mode {mode}");
    }
}
