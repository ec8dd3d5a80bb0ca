//! Property-based tests across the workspace: structure semantics vs
//! models, red-black invariants, partitioner soundness/minimality, word
//! encodings, genome packing algebra.

use proptest::prelude::*;

use partstm::analysis::{
    merge_chain, partition, AccessKind, AccessSite, AllocSite, ProgramModel,
    Strategy as PartStrategy,
};
use partstm::core::{MigratableCollection, PartitionConfig, Stm, TxWord};
use partstm::structures::{Bank, IntSet, THashSet, TLinkedList, TRbTree, TSkipList};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn op_strategy(key_range: u64) -> impl Strategy<Value = Op> {
    (0..3u8, 0..key_range).prop_map(|(kind, k)| match kind {
        0 => Op::Insert(k),
        1 => Op::Remove(k),
        _ => Op::Contains(k),
    })
}

/// A structure op or a structural action (migration, split, orec-table
/// resize), for the interleaving properties.
#[derive(Debug, Clone, Copy)]
enum MigOp {
    Op(Op),
    /// Migrate the whole collection to partition `i % parts`.
    Migrate(u8),
    /// Split the collection into a fresh partition.
    Split,
    /// Resize the collection's current home orec table (size ladder
    /// indexed by the payload).
    Resize(u8),
    /// Privatize the collection's current home, bulk-insert the key
    /// without a transaction, republish.
    Privatize(u64),
}

/// The orec-table size ladder the resize interleavings walk.
const RESIZE_LADDER: [usize; 4] = [32, 128, 512, 2048];

fn mig_op_strategy(key_range: u64) -> impl Strategy<Value = MigOp> {
    // Weighted by hand (the proptest shim has no `prop_oneof!`): 7/11
    // structure ops, then one share each for whole-collection migrations,
    // splits, orec-table resizes and privatize/bulk-insert/republish
    // excursions.
    (0..11u8, 0..3u8, 0..key_range, 0..4u8).prop_map(|(w, kind, k, p)| match w {
        0..=6 => MigOp::Op(match kind {
            0 => Op::Insert(k),
            1 => Op::Remove(k),
            _ => Op::Contains(k),
        }),
        7 => MigOp::Migrate(p),
        8 => MigOp::Split,
        9 => MigOp::Resize(p),
        _ => MigOp::Privatize(k),
    })
}

/// Runs an op sequence against a structure and a `BTreeSet` model; every
/// return value and the final snapshot must agree.
fn check_against_model(make: impl Fn(&Stm) -> Box<dyn IntSet>, ops: &[Op]) {
    let stm = Stm::new();
    let set = make(&stm);
    let ctx = stm.register_thread();
    let mut model = std::collections::BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                assert_eq!(
                    ctx.run(|tx| set.insert(tx, k)),
                    model.insert(k),
                    "step {i}: {op:?}"
                )
            }
            Op::Remove(k) => {
                assert_eq!(
                    ctx.run(|tx| set.remove(tx, k)),
                    model.remove(&k),
                    "step {i}: {op:?}"
                )
            }
            Op::Contains(k) => assert_eq!(
                ctx.run(|tx| set.contains(tx, k)),
                model.contains(&k),
                "step {i}: {op:?}"
            ),
        }
    }
    let expect: Vec<u64> = model.into_iter().collect();
    assert_eq!(set.snapshot_keys(), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linkedlist_matches_model(ops in proptest::collection::vec(op_strategy(32), 1..200)) {
        check_against_model(
            |stm| Box::new(TLinkedList::new(stm.new_partition(PartitionConfig::named("l")))),
            &ops,
        );
    }

    #[test]
    fn skiplist_matches_model(ops in proptest::collection::vec(op_strategy(64), 1..200)) {
        check_against_model(
            |stm| Box::new(TSkipList::new(stm.new_partition(PartitionConfig::named("s")))),
            &ops,
        );
    }

    #[test]
    fn rbtree_matches_model_and_stays_balanced(
        ops in proptest::collection::vec(op_strategy(48), 1..250)
    ) {
        let stm = Stm::new();
        let tree = TRbTree::new(stm.new_partition(PartitionConfig::named("t")));
        let ctx = stm.register_thread();
        let mut model = std::collections::BTreeSet::new();
        for op in &ops {
            match *op {
                Op::Insert(k) => {
                    prop_assert_eq!(ctx.run(|tx| tree.insert(tx, k)), model.insert(k));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(ctx.run(|tx| tree.remove(tx, k)), model.remove(&k));
                }
                Op::Contains(k) => {
                    prop_assert_eq!(ctx.run(|tx| tree.contains(tx, k)), model.contains(&k));
                }
            }
        }
        prop_assert!(tree.check_invariants().is_ok());
        let expect: Vec<u64> = model.iter().copied().collect();
        prop_assert_eq!(tree.snapshot_keys(), expect);
    }

    #[test]
    fn hashset_matches_model(ops in proptest::collection::vec(op_strategy(96), 1..200)) {
        check_against_model(
            |stm| Box::new(THashSet::new(stm.new_partition(PartitionConfig::named("h")), 8)),
            &ops,
        );
    }

    /// Arbitrary interleavings of set ops with arena migrations (whole-
    /// collection moves between four partitions plus splits into fresh
    /// ones) preserve the set's contents exactly: every op's return value
    /// matches the model, no node is ever torn (snapshot equals the model
    /// after every migration), and the collection's home always tracks the
    /// last migration.
    #[test]
    fn hashset_survives_arbitrary_migration_interleavings(
        ops in proptest::collection::vec(mig_op_strategy(48), 1..150)
    ) {
        let stm = Stm::new();
        let parts: Vec<_> = (0..4)
            .map(|i| stm.new_partition(PartitionConfig::named(format!("p{i}"))))
            .collect();
        let set = THashSet::new(std::sync::Arc::clone(&parts[0]), 8);
        let ctx = stm.register_thread();
        let mut model = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MigOp::Op(Op::Insert(k)) => {
                    prop_assert_eq!(ctx.run(|tx| set.insert(tx, k)), model.insert(k), "step {}", i);
                }
                MigOp::Op(Op::Remove(k)) => {
                    prop_assert_eq!(ctx.run(|tx| set.remove(tx, k)), model.remove(&k), "step {}", i);
                }
                MigOp::Op(Op::Contains(k)) => {
                    prop_assert_eq!(
                        ctx.run(|tx| set.contains(tx, k)),
                        model.contains(&k),
                        "step {}", i
                    );
                }
                MigOp::Migrate(p) => {
                    let dst = &parts[p as usize % parts.len()];
                    let _ = stm.migrate(&set, dst, &[]);
                    prop_assert_eq!(set.partition_of(), dst.id());
                    // No torn nodes: the full contents survive the move.
                    let expect: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(set.snapshot_keys(), expect, "after migrate step {}", i);
                }
                MigOp::Split => {
                    let dst = stm.new_partition(PartitionConfig::named(format!("split{i}")));
                    let _ = stm.migrate(&set, &dst, &[&set.home_partition()]);
                    prop_assert_eq!(set.partition_of(), dst.id());
                    let expect: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(set.snapshot_keys(), expect, "after split step {}", i);
                }
                MigOp::Resize(p) => {
                    // Resize the set's *current* home (which a preceding
                    // Migrate/Split may just have changed): contents and
                    // home must be untouched — only conflict-detection
                    // granularity changes.
                    let home = set.home_partition();
                    let before = home.id();
                    let _ = stm.resize_orecs(
                        &home,
                        RESIZE_LADDER[p as usize % RESIZE_LADDER.len()],
                    );
                    prop_assert_eq!(set.partition_of(), before, "resize moves no data");
                    let expect: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(set.snapshot_keys(), expect, "after resize step {}", i);
                }
                MigOp::Privatize(k) => {
                    // Privatize the set's current home, insert a key at
                    // raw-memory speed, republish: the bulk insert's
                    // return value matches the model and the key is
                    // transactional truth immediately after the hold.
                    let home = set.home_partition();
                    let guard = stm.privatize(&home).expect("single-threaded: uncontended");
                    prop_assert_eq!(
                        set.bulk_insert(&guard, k),
                        model.insert(k),
                        "bulk_insert at step {}", i
                    );
                    guard.republish();
                    let expect: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(set.snapshot_keys(), expect, "after privatize step {}", i);
                }
            }
        }
        let expect: Vec<u64> = model.into_iter().collect();
        prop_assert_eq!(set.snapshot_keys(), expect, "final snapshot");
    }

    /// After any sequence of deposits and whole-bank migrations, a
    /// transactional read of the touched account — routed through
    /// whichever partition its binding names now — returns the model's
    /// balance.
    #[test]
    fn bank_reads_match_model_across_migrations(
        steps in proptest::collection::vec((0..8usize, -50i64..50, 0..5u8), 1..60)
    ) {
        let stm = Stm::new();
        let parts: Vec<_> = (0..3)
            .map(|i| stm.new_partition(PartitionConfig::named(format!("b{i}"))))
            .collect();
        let bank = Bank::new(std::sync::Arc::clone(&parts[0]), 8, 100);
        let ctx = stm.register_thread();
        let mut model = [100i64; 8];
        for &(i, amt, mig) in &steps {
            ctx.run(|tx| bank.deposit(tx, i, amt));
            model[i] += amt;
            if mig < 2 {
                let dst = &parts[(mig as usize + i) % parts.len()];
                let _ = stm.migrate(&bank, dst, &[]);
                prop_assert_eq!(bank.partition_of(), dst.id());
            }
            prop_assert_eq!(ctx.run(|tx| tx.read(bank.account(i))), model[i]);
        }
        for (i, expect) in model.iter().enumerate() {
            prop_assert_eq!(ctx.run(|tx| bank.balance(tx, i)), *expect);
        }
    }

    #[test]
    fn txword_roundtrips(v in any::<u64>(), i in any::<i64>(), f in any::<f64>(), b in any::<bool>()) {
        prop_assert_eq!(u64::from_word(v.to_word()), v);
        prop_assert_eq!(i64::from_word(i.to_word()), i);
        prop_assert_eq!(bool::from_word(b.to_word()), b);
        if f.is_nan() {
            prop_assert!(f64::from_word(f.to_word()).is_nan());
        } else {
            prop_assert_eq!(f64::from_word(f.to_word()), f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conserved-sum invariant across an arbitrary orec-resize storm under
    /// concurrent mutation: worker threads run transfers while the main
    /// thread walks a generated resize sequence live on the same
    /// partition. Every quiesce window the storm opens must drain and
    /// restart the in-flight transfers without losing an update.
    #[test]
    fn bank_conserves_total_under_concurrent_resize_storm(
        sizes in proptest::collection::vec(0..4u8, 2..10)
    ) {
        const ACCOUNTS: usize = 24;
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("storm").orecs(32));
        let accounts: Vec<std::sync::Arc<partstm::core::PVar<i64>>> =
            (0..ACCOUNTS).map(|_| std::sync::Arc::new(part.tvar(1_000))).collect();
        std::thread::scope(|s| {
            for t in 0..3usize {
                let ctx = stm.register_thread();
                let accounts = &accounts;
                s.spawn(move || {
                    let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..400 {
                        r ^= r << 13;
                        r ^= r >> 7;
                        r ^= r << 17;
                        let from = (r % ACCOUNTS as u64) as usize;
                        let to = ((r >> 8) % ACCOUNTS as u64) as usize;
                        let amt = (r % 90) as i64;
                        ctx.run(|tx| {
                            let f = tx.read(&accounts[from])?;
                            tx.write(&accounts[from], f - amt)?;
                            let v = tx.read(&accounts[to])?;
                            tx.write(&accounts[to], v + amt)?;
                            Ok(())
                        });
                    }
                });
            }
            for &sz in &sizes {
                let _ = stm.resize_orecs(&part, RESIZE_LADDER[sz as usize % RESIZE_LADDER.len()]);
                std::thread::yield_now();
            }
        });
        let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
        prop_assert_eq!(total, ACCOUNTS as i64 * 1_000, "sum conserved through the storm");
    }
}

/// Random bipartite program models for partitioner properties.
fn model_strategy() -> impl Strategy<Value = ProgramModel> {
    (2usize..12, 1usize..16).prop_flat_map(|(n_alloc, n_access)| {
        let touch = proptest::collection::btree_set(0..n_alloc as u32, 1..=3.min(n_alloc));
        proptest::collection::vec(touch, n_access).prop_map(move |touches| ProgramModel {
            name: "random".into(),
            alloc_sites: (0..n_alloc as u32)
                .map(|id| AllocSite {
                    id,
                    name: format!("a{id}"),
                    type_name: format!("T{}", id % 3),
                    context: None,
                })
                .collect(),
            access_sites: touches
                .into_iter()
                .enumerate()
                .map(|(id, t)| AccessSite {
                    id: id as u32,
                    func: format!("f{id}"),
                    kind: AccessKind::ReadWrite,
                    may_touch: t.into_iter().collect(),
                })
                .collect(),
        })
    })
}

/// Brute-force connected components of the bipartite graph.
fn components(model: &ProgramModel) -> Vec<Vec<u32>> {
    let n = model.alloc_sites.len();
    let mut comp: Vec<Option<usize>> = vec![None; n];
    let mut next = 0usize;
    for start in 0..n {
        if comp[start].is_some() {
            continue;
        }
        let c = next;
        next += 1;
        let mut stack = vec![start as u32];
        comp[start] = Some(c);
        while let Some(cur) = stack.pop() {
            for s in &model.access_sites {
                if s.may_touch.contains(&cur) {
                    for &nb in &s.may_touch {
                        if comp[nb as usize].is_none() {
                            comp[nb as usize] = Some(c);
                            stack.push(nb);
                        }
                    }
                }
            }
        }
    }
    let mut out = vec![Vec::new(); next];
    for (i, c) in comp.iter().enumerate() {
        out[c.unwrap()].push(i as u32);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: every access site's may-touch set lands in one class.
    /// Minimality: the classes are exactly the connected components.
    #[test]
    fn partitioner_sound_and_minimal(model in model_strategy()) {
        let plan = partition(&model, PartStrategy::MayTouch).unwrap();
        for s in &model.access_sites {
            let c = plan.class_of_access(s.id).unwrap();
            for t in &s.may_touch {
                prop_assert_eq!(plan.class_of_alloc(*t), Some(c));
            }
        }
        let comps = components(&model);
        prop_assert_eq!(plan.partition_count(), comps.len());
        // Same-component pairs share a class; cross-component pairs don't.
        for comp in &comps {
            let c0 = plan.class_of_alloc(comp[0]);
            for &m in comp {
                prop_assert_eq!(plan.class_of_alloc(m), c0);
            }
        }
    }

    /// merge_chain returns a witness iff two sites share a class, and the
    /// witness is a genuine connecting path.
    #[test]
    fn merge_chain_is_a_valid_witness(model in model_strategy()) {
        let plan = partition(&model, PartStrategy::MayTouch).unwrap();
        let a = model.alloc_sites.first().unwrap().id;
        let b = model.alloc_sites.last().unwrap().id;
        let chain = merge_chain(&model, a, b);
        let same = plan.class_of_alloc(a) == plan.class_of_alloc(b);
        prop_assert_eq!(chain.is_some(), same);
        if let Some(chain) = chain {
            // Each consecutive pair of access sites must overlap in an
            // alloc site, and the chain's ends must touch a and b.
            if !chain.is_empty() {
                let site = |id: u32| model.access_sites.iter().find(|s| s.id == id).unwrap();
                prop_assert!(site(chain[0]).may_touch.contains(&a));
                prop_assert!(site(*chain.last().unwrap()).may_touch.contains(&b));
                for w in chain.windows(2) {
                    let s1 = site(w[0]);
                    let s2 = site(w[1]);
                    prop_assert!(s1.may_touch.iter().any(|t| s2.may_touch.contains(t)));
                }
            }
        }
    }

    /// Type seeding only ever coarsens.
    #[test]
    fn type_seeding_is_coarser(model in model_strategy()) {
        let fine = partition(&model, PartStrategy::MayTouch).unwrap();
        let coarse = partition(&model, PartStrategy::TypeSeeded).unwrap();
        prop_assert!(coarse.partition_count() <= fine.partition_count());
        // Coarsening refines the same-class relation in one direction only.
        for x in &model.alloc_sites {
            for y in &model.alloc_sites {
                if fine.class_of_alloc(x.id) == fine.class_of_alloc(y.id) {
                    prop_assert_eq!(
                        coarse.class_of_alloc(x.id),
                        coarse.class_of_alloc(y.id)
                    );
                }
            }
        }
    }
}

// Genome packing algebra on random bases.
proptest! {
    #[test]
    fn genome_pack_overlap_identity(
        bases in proptest::collection::vec(0u8..4, 48..96),
        start in 0usize..16,
        o in 1usize..12,
    ) {
        use partstm::stamp::genome::pack;
        let s = 16usize;
        let a = pack(&bases, start, s);
        let b = pack(&bases, start + (s - o), s);
        // suffix_o(a) == prefix_o(b) by construction.
        let suffix = a & ((1u64 << (2 * o)) - 1);
        let prefix = b >> (2 * (s - o));
        prop_assert_eq!(suffix, prefix);
    }
}
