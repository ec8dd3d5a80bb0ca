//! Transactional bank accounts.
//!
//! The canonical atomicity benchmark: `transfer` moves money between two
//! accounts, `total` sums every balance. The global invariant — the total
//! is constant — is the sharpest cheap probe for lost updates or
//! inconsistent snapshots, and the long read-only `total` transaction
//! stresses snapshot extension against a stream of short writers.

use std::sync::Arc;

use partstm_core::{
    ArenaView, Migratable, MigratableCollection, PVar, Partition, PrivateGuard, Quiescent, Read,
    Tx, TxResult,
};

/// A fixed array of accounts guarded by one partition. Every account is a
/// [`PVar`] bound to that partition at construction, so the access methods
/// below never name a partition.
pub struct Bank {
    part: Arc<Partition>,
    accounts: Box<[PVar<i64>]>,
}

impl Bank {
    /// `n` accounts with `initial` balance each.
    pub fn new(part: Arc<Partition>, n: usize, initial: i64) -> Self {
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || part.tvar(initial));
        Bank {
            part,
            accounts: v.into_boxed_slice(),
        }
    }

    /// Direct access to one account variable (diagnostics and migration
    /// batches).
    pub fn account(&self, i: usize) -> &PVar<i64> {
        &self.accounts[i]
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True if the bank has no accounts.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// The partition guarding the accounts.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.part
    }

    /// Balance of account `i`, through any [`Read`].
    pub fn balance<'e, R: Read<'e>>(&'e self, r: &mut R, i: usize) -> TxResult<i64> {
        r.read(&self.accounts[i])
    }

    /// Adds `amount` to account `i` (negative to withdraw).
    pub fn deposit<'e>(&'e self, tx: &mut Tx<'e, '_>, i: usize, amount: i64) -> TxResult<()> {
        let b = tx.read(&self.accounts[i])?;
        tx.write(&self.accounts[i], b + amount)
    }

    /// Transfers `amount` from `from` to `to` (may overdraw; the benchmark
    /// semantics of STAMP's bank). The debit is written before the credit
    /// is read so that `from == to` nets to zero (the credit reads the
    /// debited balance through the write set).
    pub fn transfer<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        from: usize,
        to: usize,
        amount: i64,
    ) -> TxResult<()> {
        let f = tx.read(&self.accounts[from])?;
        tx.write(&self.accounts[from], f - amount)?;
        let t = tx.read(&self.accounts[to])?;
        tx.write(&self.accounts[to], t + amount)?;
        Ok(())
    }

    /// Sums all balances, through any [`Read`].
    pub fn total<'e, R: Read<'e>>(&'e self, r: &mut R) -> TxResult<i64> {
        let mut sum = 0i64;
        for a in self.accounts.iter() {
            sum += r.read(a)?;
        }
        Ok(sum)
    }

    /// Non-transactional total (quiescent only).
    pub fn total_direct(&self) -> i64 {
        Quiescent::run(|q| self.total(q))
    }

    /// Checks that `guard` holds this bank's partition: O(1) in release
    /// (the home binding), every account binding in debug builds — the
    /// debug walk catches a bank torn across partitions by a partial
    /// migration.
    fn assert_covered(&self, guard: &PrivateGuard) {
        assert!(
            guard.covers(&self.home_partition()),
            "bank's partition is not the privatized one"
        );
        debug_assert!(
            guard.covers_source(self),
            "bank torn across partitions; migrate it whole before privatizing"
        );
    }

    /// Guard-gated bulk loader: sets every account's balance with plain
    /// stores — no orec traffic, no undo log. The raw-speed twin of a
    /// transactional initialization loop; see [`partstm_core::privatize`]
    /// for why this is safe under the hold.
    pub fn bulk_load(&self, guard: &PrivateGuard, mut balance: impl FnMut(usize) -> i64) {
        self.assert_covered(guard);
        for (i, a) in self.accounts.iter().enumerate() {
            a.store_direct(balance(i));
        }
    }

    /// Guard-gated total: like [`Bank::total_direct`] but with the
    /// quiescence *proved* by the guard instead of assumed.
    pub fn bulk_total(&self, guard: &PrivateGuard) -> i64 {
        self.assert_covered(guard);
        self.total_direct()
    }
}

/// A bank is a collection of roots only.
impl MigratableCollection for Bank {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        None
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        self.accounts.iter().for_each(|a| f(a));
    }

    /// The accounts' partition; an empty bank never migrates and reports
    /// its construction partition.
    fn home_partition(&self) -> Arc<Partition> {
        self.accounts
            .first()
            .map(|a| a.partition())
            .unwrap_or_else(|| Arc::clone(&self.part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_core::{PartitionConfig, ReadMode, Stm};

    #[test]
    fn transfer_conserves_total() {
        let stm = Stm::new();
        let bank = Bank::new(stm.new_partition(PartitionConfig::named("bank")), 8, 100);
        assert_eq!(bank.len(), 8);
        assert!(!bank.is_empty());
        let ctx = stm.register_thread();
        ctx.run(|tx| bank.transfer(tx, 0, 7, 30));
        assert_eq!(ctx.run(|tx| bank.balance(tx, 0)), 70);
        assert_eq!(ctx.run(|tx| bank.balance(tx, 7)), 130);
        assert_eq!(ctx.run(|tx| bank.total(tx)), 800);
    }

    #[test]
    fn concurrent_transfers_never_break_invariant() {
        let stm = Stm::new();
        let bank = Arc::new(Bank::new(
            stm.new_partition(PartitionConfig::named("bank")),
            16,
            1000,
        ));
        let expect = 16_000i64;
        std::thread::scope(|s| {
            for t in 0..4usize {
                let ctx = stm.register_thread();
                let bank = Arc::clone(&bank);
                s.spawn(move || {
                    let mut r = (t as u64 + 1) * 0x9E37_79B9;
                    for _ in 0..2000 {
                        r ^= r << 13;
                        r ^= r >> 7;
                        r ^= r << 17;
                        let from = (r % 16) as usize;
                        let to = ((r >> 8) % 16) as usize;
                        ctx.run(|tx| bank.transfer(tx, from, to, (r % 50) as i64));
                    }
                });
            }
            // A reader thread sums concurrently, in a transaction and on a
            // snapshot: both must always see the invariant total.
            let ctx = stm.register_thread();
            let bank2 = Arc::clone(&bank);
            s.spawn(move || {
                for _ in 0..500 {
                    assert_eq!(ctx.run(|tx| bank2.total(tx)), expect);
                    assert_eq!(ctx.snapshot_read(|r| bank2.total(r)), expect);
                }
            });
        });
        assert_eq!(bank.total_direct(), expect);
    }

    #[test]
    fn bulk_load_then_transactional_traffic() {
        let stm = Stm::new();
        let bank = Bank::new(stm.new_partition(PartitionConfig::named("bank")), 32, 0);
        {
            let guard = stm.privatize(bank.partition()).expect("privatize");
            bank.bulk_load(&guard, |i| (i as i64 + 1) * 10);
            let expect: i64 = (1..=32).map(|i| i * 10).sum();
            assert_eq!(bank.bulk_total(&guard), expect);
            for i in 0..32 {
                assert_eq!(
                    bank.balance(&mut guard.access(), i),
                    Ok((i as i64 + 1) * 10)
                );
            }
            guard.republish();
        }
        let ctx = stm.register_thread();
        let expect: i64 = (1..=32).map(|i| i * 10).sum();
        ctx.run(|tx| bank.transfer(tx, 0, 31, 5));
        assert_eq!(ctx.run(|tx| bank.total(tx)), expect, "total conserved");
        assert_eq!(ctx.run(|tx| bank.balance(tx, 0)), 5);
    }

    #[test]
    fn visible_read_mode_also_conserves() {
        let stm = Stm::new();
        let bank = Arc::new(Bank::new(
            stm.new_partition(PartitionConfig::named("vbank").read_mode(ReadMode::Visible)),
            4,
            250,
        ));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = stm.register_thread();
                let bank = Arc::clone(&bank);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        ctx.run(|tx| {
                            bank.transfer(tx, (i % 4) as usize, ((i + 1) % 4) as usize, 1)
                        });
                    }
                });
            }
        });
        assert_eq!(bank.total_direct(), 1000);
    }
}
