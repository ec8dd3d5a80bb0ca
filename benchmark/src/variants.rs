//! The data configurations the op tapes run against: banks and sets under
//! the STM (partitioned or single-table, by construction), and any model
//! behind one global lock (`baseline.rs` builds the baselines from these).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use partstm_core::{Partition, Stm, ThreadCtx};
use partstm_structures::{Bank, IntSet};

use crate::harness::{run_tx, snapshot_tx, Done, Rec, Variant};
use crate::ops::{read_some_indices, spin, BankOp, Model, SetOp, SetVerb, INITIAL};

/// Banks under the STM. Which partition guards which bank is the
/// constructor's business; [`BankOp::HotTransfer`] targets bank 0.
pub struct StmBanks {
    pub stm: Stm,
    pub banks: Vec<Arc<Bank>>,
}

impl StmBanks {
    /// One bank of `accounts` per entry of `parts`.
    pub fn new(stm: Stm, parts: &[Arc<Partition>], accounts: usize) -> Self {
        let banks = parts
            .iter()
            .map(|p| Arc::new(Bank::new(Arc::clone(p), accounts, INITIAL)))
            .collect();
        StmBanks { stm, banks }
    }

    /// All balances, bank after bank (quiescent only).
    pub fn balances(&self) -> Vec<Vec<i64>> {
        self.banks
            .iter()
            .map(|b| (0..b.len()).map(|i| b.account(i).load_direct()).collect())
            .collect()
    }

    /// End-of-run oracle: money is conserved.
    pub fn check_conserved(&self) -> Result<(), String> {
        let want: i64 = self.banks.iter().map(|b| b.len() as i64 * INITIAL).sum();
        let got: i64 = self.banks.iter().map(|b| b.total_direct()).sum();
        if got == want {
            Ok(())
        } else {
            Err(format!("bank total {got} != {want}: an update was lost"))
        }
    }

    #[inline(always)]
    pub fn exec_op<R: Rec>(&self, ctx: &ThreadCtx, op: &BankOp, rec: &mut R) -> Done {
        let value = match *op {
            BankOp::Transfer {
                bank,
                from,
                to,
                amt,
            } => {
                let b = &*self.banks[bank as usize];
                run_tx(ctx, rec, |tx| {
                    b.transfer(tx, from as usize, to as usize, amt as i64)
                });
                0
            }
            BankOp::Cross {
                from_bank,
                to_bank,
                from,
                to,
                amt,
            } => {
                let a = &*self.banks[from_bank as usize];
                let b = &*self.banks[to_bank as usize];
                run_tx(ctx, rec, |tx| {
                    a.deposit(tx, from as usize, -(amt as i64))?;
                    b.deposit(tx, to as usize, amt as i64)
                });
                0
            }
            BankOp::ReadSome {
                bank,
                count,
                seed,
                base,
                span,
            } => {
                let b = &*self.banks[bank as usize];
                run_tx(ctx, rec, |tx| {
                    let mut sum = 0i64;
                    for i in read_some_indices(seed, count, base, span) {
                        sum += b.balance(tx, i)?;
                    }
                    Ok(sum)
                })
            }
            BankOp::ReadRange {
                bank,
                snapshot,
                start,
                len,
            } => {
                let b = &*self.banks[bank as usize];
                let range = start as usize..(start + len) as usize;
                if snapshot {
                    snapshot_tx(ctx, rec, |tx| {
                        let mut sum = 0i64;
                        for i in range.clone() {
                            sum += tx.read(b.account(i))?;
                        }
                        Ok(sum)
                    })
                } else {
                    run_tx(ctx, rec, |tx| {
                        let mut sum = 0i64;
                        for i in range.clone() {
                            sum += b.balance(tx, i)?;
                        }
                        Ok(sum)
                    })
                }
            }
            BankOp::HotTransfer {
                from,
                to,
                amt,
                spin: iters,
            } => {
                let b = &*self.banks[0];
                run_tx(ctx, rec, |tx| {
                    b.deposit(tx, from as usize, -(amt as i64))?;
                    // The debit's encounter lock is held across the spin.
                    spin(iters as u32);
                    b.deposit(tx, to as usize, amt as i64)
                });
                0
            }
        };
        op.done(value)
    }
}

impl Variant for StmBanks {
    type Op = BankOp;
    type Worker = ThreadCtx;

    fn worker(&self) -> ThreadCtx {
        self.stm.register_thread()
    }

    #[inline(always)]
    fn exec<R: Rec>(&self, ctx: &mut ThreadCtx, op: &BankOp, rec: &mut R) -> Done {
        self.exec_op(ctx, op, rec)
    }
}

/// Integer sets under the STM, each with the size it should have.
pub struct StmSets {
    pub stm: Stm,
    pub sets: Vec<Box<dyn IntSet>>,
    /// Prefill size plus the net of every successful insert and remove
    /// the retired workers reported.
    pub expected_len: Vec<AtomicI64>,
}

pub struct SetsWorker {
    ctx: ThreadCtx,
    net: Vec<i64>,
}

impl StmSets {
    pub fn new(stm: Stm, sets: Vec<Box<dyn IntSet>>) -> Self {
        let expected_len = sets.iter().map(|_| AtomicI64::new(0)).collect();
        StmSets {
            stm,
            sets,
            expected_len,
        }
    }

    /// Inserts every second key of `0..range` into set `i` (50% occupancy).
    pub fn prefill(&self, i: usize, range: u64) {
        let ctx = self.stm.register_thread();
        let set = &*self.sets[i];
        let mut n = 0;
        for key in (0..range).step_by(2) {
            n += ctx.run(|tx| set.insert(tx, key)) as i64;
        }
        self.expected_len[i].fetch_add(n, Ordering::Relaxed);
    }

    /// End-of-run oracle: every structure holds exactly prefill +
    /// successful inserts − successful removes keys, sorted and unique.
    pub fn check_sizes(&self) -> Result<(), String> {
        for (i, set) in self.sets.iter().enumerate() {
            let keys = set.snapshot_keys();
            let want = self.expected_len[i].load(Ordering::Relaxed);
            if keys.len() as i64 != want {
                return Err(format!(
                    "set {i} holds {} keys, expected {want}",
                    keys.len()
                ));
            }
            if !keys.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("set {i} is not sorted and unique"));
            }
        }
        Ok(())
    }
}

impl Variant for StmSets {
    type Op = SetOp;
    type Worker = SetsWorker;

    fn worker(&self) -> SetsWorker {
        SetsWorker {
            ctx: self.stm.register_thread(),
            net: vec![0; self.sets.len()],
        }
    }

    #[inline(always)]
    fn exec<R: Rec>(&self, w: &mut SetsWorker, op: &SetOp, rec: &mut R) -> Done {
        let set = &*self.sets[op.set as usize];
        let key = op.key as u64;
        let hit = match op.verb {
            SetVerb::Contains => run_tx(&w.ctx, rec, |tx| set.contains(tx, key)),
            SetVerb::Insert => run_tx(&w.ctx, rec, |tx| set.insert(tx, key)),
            SetVerb::Remove => run_tx(&w.ctx, rec, |tx| set.remove(tx, key)),
        };
        w.net[op.set as usize] += op.net(hit);
        op.done(hit)
    }

    fn retire(&self, w: SetsWorker) {
        for (slot, n) in self.expected_len.iter().zip(w.net) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Any model behind one `std::sync::Mutex`: the reference baseline.
pub struct GlobalLock<M>(pub Mutex<M>);

impl<M: Model> Variant for GlobalLock<M> {
    type Op = M::Op;
    type Worker = ();

    fn worker(&self) {}

    #[inline(always)]
    fn exec<R: Rec>(&self, _w: &mut (), op: &M::Op, _rec: &mut R) -> Done {
        self.0
            .lock()
            .expect("a benchmark worker panicked holding the global lock")
            .apply(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Kind, NoRec};
    use crate::ops::BankModel;
    use partstm_core::PartitionConfig;
    use partstm_structures::THashSet;

    #[test]
    fn stm_banks_agree_with_the_model_op_by_op() {
        let stm = Stm::new();
        let parts = stm.new_partitions([PartitionConfig::named("a"), PartitionConfig::named("b")]);
        let banks = StmBanks::new(stm, &parts, 512);
        let mut model = BankModel::new(2, 512);
        let mut ctx = banks.worker();
        let ops = [
            BankOp::Transfer {
                bank: 1,
                from: 1,
                to: 2,
                amt: 30,
            },
            BankOp::Cross {
                from_bank: 0,
                to_bank: 1,
                from: 5,
                to: 5,
                amt: 7,
            },
            BankOp::ReadSome {
                bank: 1,
                count: 8,
                seed: 3,
                base: 0,
                span: 512,
            },
            BankOp::ReadRange {
                bank: 1,
                snapshot: true,
                start: 256,
                len: 256,
            },
            BankOp::ReadRange {
                bank: 0,
                snapshot: false,
                start: 0,
                len: 256,
            },
            BankOp::HotTransfer {
                from: 9,
                to: 10,
                amt: 4,
                spin: 10,
            },
        ];
        for op in &ops {
            assert_eq!(
                banks.exec(&mut ctx, op, &mut NoRec),
                model.apply(op),
                "{op:?}"
            );
        }
        assert_eq!(banks.balances(), model.banks);
        // The cross transfer drained bank 0's first block: its range read
        // is flagged by the oracle, and the total is still conserved.
        assert!(!banks.exec(&mut ctx, &ops[4], &mut NoRec).ok);
        banks.check_conserved().unwrap();
        banks.banks[0].account(0).store_direct(0);
        assert!(banks.check_conserved().is_err());
    }

    #[test]
    fn stm_sets_track_their_expected_size() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("h"));
        let sets = StmSets::new(stm, vec![Box::new(THashSet::new(p, 16))]);
        sets.prefill(0, 8);
        let mut w = sets.worker();
        let op = |verb, key| SetOp { set: 0, verb, key };
        let d = sets.exec(&mut w, &op(SetVerb::Insert, 1), &mut NoRec);
        assert_eq!((d.value, d.kind), (1, Kind::Update));
        assert_eq!(
            sets.exec(&mut w, &op(SetVerb::Insert, 2), &mut NoRec).value,
            0
        );
        assert_eq!(
            sets.exec(&mut w, &op(SetVerb::Remove, 4), &mut NoRec).value,
            1
        );
        assert_eq!(
            sets.exec(&mut w, &op(SetVerb::Contains, 6), &mut NoRec)
                .value,
            1
        );
        sets.retire(w);
        assert_eq!(sets.sets[0].snapshot_keys(), vec![0, 1, 2, 6]);
        sets.check_sizes().unwrap();
        sets.expected_len[0].fetch_add(1, Ordering::Relaxed);
        assert!(sets.check_sizes().is_err());
    }
}
