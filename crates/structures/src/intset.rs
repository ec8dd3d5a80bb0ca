//! The integer-set interface shared by the microbenchmark structures.
//!
//! The paper's microbenchmarks (as in the TinySTM/LSA evaluations) are
//! *integer sets*: `insert`, `remove`, `contains` over a bounded key range,
//! driven with a configurable update rate. Every implementation here owns
//! its partition, so a multi-structure application automatically exercises
//! multi-partition transactions.

use std::sync::Arc;

use partstm_core::{Partition, PrivateGuard, Tx, TxResult};

/// A transactional set of `u64` keys.
pub trait IntSet: Send + Sync {
    /// Returns whether `key` is in the set.
    fn contains<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool>;

    /// Inserts `key`; returns `true` if it was absent.
    fn insert<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool>;

    /// [`IntSet::insert`] under a [`PrivateGuard`] instead of a
    /// transaction: the same algorithm run through
    /// [`PrivateGuard::access`], so plain loads and stores — no orec
    /// traffic, no read set, no retry loop. For bulk loads while the
    /// structure's partition is held (see [`partstm_core::privatize`]);
    /// panics at the first variable it touches that is not bound to the
    /// held partition. Returns `true` if the key was absent.
    fn bulk_insert(&self, guard: &PrivateGuard, key: u64) -> bool;

    /// Removes `key`; returns `true` if it was present.
    fn remove<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool>;

    /// The partition this structure was constructed in. After a runtime
    /// migration the structure's *current* home may differ — see each
    /// structure's `partition_of` (the handle returned here stays a valid
    /// partition either way).
    fn partition(&self) -> &Arc<Partition>;

    /// Non-transactional snapshot of all keys in ascending order. Only
    /// meaningful while no concurrent transactions run (tests/verification).
    fn snapshot_keys(&self) -> Vec<u64>;
}

#[cfg(test)]
pub(crate) mod testing {
    //! Shared conformance tests run against every `IntSet` implementation.

    use super::*;
    use partstm_core::{Quiescent, Read, Stm};
    use std::collections::BTreeSet;

    /// [`IntSet::contains`] through any [`Read`], so the conformance checks
    /// can ask every reader (each structure's test module implements it).
    pub trait ReadContains: IntSet {
        /// Whether `key` is in the set, read through `r`.
        fn contains_via<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool>;
    }

    /// Evaluates `$op` — an expression over a structure `$s` and an
    /// `$a: &mut impl Access` — through both `Access` impls: as a
    /// transaction of `$ctx` against `$tx_side`, and under `$guard`
    /// against `$guard_side` (twin structures in different partitions:
    /// transactions on a held partition would spin until republish).
    /// Asserts that the two agree and returns the result.
    macro_rules! via_both {
        ($ctx:expr, $tx_side:expr, $guard:expr, $guard_side:expr, |$s:ident, $a:ident| $op:expr) => {{
            let transactional = {
                let $s = $tx_side;
                $ctx.run(|$a| $op)
            };
            let guarded = {
                let $s = $guard_side;
                let $a = &mut $guard.access();
                $op.expect("guard access never aborts")
            };
            assert_eq!(
                transactional,
                guarded,
                "Tx and PrivateGuard disagree on `{}`",
                stringify!($op)
            );
            transactional
        }};
    }
    pub(crate) use via_both;

    /// Sequential semantics vs a `BTreeSet` model under a deterministic
    /// op mix. Every `contains` is answered by all four readers — a
    /// transaction, a snapshot, a privatization guard and [`Quiescent`] —
    /// and they must agree with the model.
    pub fn check_sequential_model(stm: &Stm, set: &impl ReadContains) {
        let ctx = stm.register_thread();
        let mut model = BTreeSet::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 128;
            match i % 3 {
                0 => {
                    let expect = model.insert(key);
                    let got = ctx.run(|tx| set.insert(tx, key));
                    assert_eq!(got, expect, "insert({key}) step {i}");
                }
                1 => {
                    let expect = model.remove(&key);
                    let got = ctx.run(|tx| set.remove(tx, key));
                    assert_eq!(got, expect, "remove({key}) step {i}");
                }
                _ => {
                    let expect = model.contains(&key);
                    let guard = stm.privatize(set.partition()).expect("privatize");
                    let guarded = set.contains_via(&mut guard.access(), key);
                    guard.republish();
                    let readers = [
                        ctx.run(|tx| set.contains(tx, key)),
                        ctx.snapshot_read(|r| set.contains_via(r, key)),
                        guarded.expect("guard access never aborts"),
                        Quiescent::run(|q| set.contains_via(q, key)),
                    ];
                    assert_eq!(
                        readers, [expect; 4],
                        "contains({key}) step {i}: Tx, ReadTx, guard, Quiescent"
                    );
                }
            }
        }
        let keys: Vec<u64> = model.into_iter().collect();
        assert_eq!(set.snapshot_keys(), keys, "final snapshot");
    }

    /// Concurrent smoke: threads work on disjoint key ranges; the final
    /// contents must be exactly the union of the per-thread survivors.
    pub fn check_concurrent_disjoint(stm: &Stm, set: &dyn IntSet) {
        let threads = 4u64;
        let per = 64u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let ctx = stm.register_thread();
                s.spawn(move || {
                    let base = t * per;
                    for k in base..base + per {
                        assert!(ctx.run(|tx| set.insert(tx, k)));
                    }
                    // Remove the odd keys again.
                    for k in (base..base + per).filter(|k| k % 2 == 1) {
                        assert!(ctx.run(|tx| set.remove(tx, k)));
                    }
                });
            }
        });
        let expect: Vec<u64> = (0..threads * per).filter(|k| k % 2 == 0).collect();
        assert_eq!(set.snapshot_keys(), expect);
    }

    /// Bulk inserts under a [`PrivateGuard`] must agree with a model and
    /// leave the structure fully transactional again after republish:
    /// same return values as `BTreeSet::insert`, same final contents, and
    /// post-republish transactional ops compose with the bulk-loaded
    /// state.
    pub fn check_bulk_matches_transactional(stm: &Stm, set: &dyn IntSet) {
        let mut model = BTreeSet::new();
        {
            let guard = stm.privatize(set.partition()).expect("privatize");
            let mut state = 0xfeed_face_cafe_beefu64;
            for _ in 0..500 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = state % 128;
                assert_eq!(
                    set.bulk_insert(&guard, key),
                    model.insert(key),
                    "bulk_insert({key})"
                );
            }
            guard.republish();
        }
        // The partition is back in transactional service: ops must see the
        // bulk-loaded contents and compose with them.
        let ctx = stm.register_thread();
        for key in [1u64, 200, 201] {
            let expect = model.insert(key);
            assert_eq!(ctx.run(|tx| set.insert(tx, key)), expect, "insert({key})");
        }
        for key in [0u64, 63, 127, 200] {
            let expect = model.contains(&key);
            assert_eq!(
                ctx.run(|tx| set.contains(tx, key)),
                expect,
                "contains({key})"
            );
        }
        let keys: Vec<u64> = model.into_iter().collect();
        assert_eq!(set.snapshot_keys(), keys, "final snapshot");
    }

    /// Concurrent contended mix on a tiny range; verify against an oracle
    /// replay is impossible, so check only invariants: snapshot sorted,
    /// unique, within range — and every op's return value consistent
    /// (insert true XOR already-present).
    pub fn check_concurrent_contended(stm: &Stm, set: &dyn IntSet) {
        use core::sync::atomic::{AtomicI64, Ordering};
        let net = AtomicI64::new(0); // inserts-succeeded - removes-succeeded
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ctx = stm.register_thread();
                let net = &net;
                s.spawn(move || {
                    let mut state = 0x9e37_79b9 ^ (t + 1);
                    for _ in 0..1500 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let key = state % 16;
                        // Op drawn from different bits than the key, or
                        // inserts/removes would pair to fixed key classes.
                        if (state >> 17) & 1 == 0 {
                            if ctx.run(|tx| set.insert(tx, key)) {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if ctx.run(|tx| set.remove(tx, key)) {
                            net.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let keys = set.snapshot_keys();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "snapshot must be sorted and unique");
        assert!(keys.iter().all(|&k| k < 16));
        assert_eq!(
            keys.len() as i64,
            net.load(Ordering::Relaxed),
            "set size must equal net successful inserts"
        );
    }
}
