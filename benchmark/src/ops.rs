//! The operations the tapes are made of, and their reference models.
//!
//! A model is the plain-data meaning of an operation (`Vec<i64>` banks,
//! `BTreeSet` sets). It serves twice: as the oracle of the single-thread
//! replay check before timing, and — behind one `std::sync::Mutex` — as
//! the `global-lock` baseline.

use std::collections::BTreeSet;

use crate::harness::{Done, Kind};

/// Balance every account starts with.
pub const INITIAL: i64 = 1000;

/// Accounts a [`BankOp::ReadSome`] visits: `count` draws of an LCG seeded
/// with `seed`, each mapped into `base..base + span`.
#[inline(always)]
pub fn read_some_indices(
    seed: u32,
    count: u16,
    base: u32,
    span: u32,
) -> impl Iterator<Item = usize> {
    let mut x = seed as u64;
    (0..count).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        base as usize + ((x >> 33) % span as u64) as usize
    })
}

/// The fixed-iteration spin a [`BankOp::HotTransfer`] holds its debit lock
/// across: work between debit and credit, without sleeping or yielding.
#[inline(never)]
pub fn spin(iters: u32) {
    let mut x = iters as u64 | 1;
    for _ in 0..iters {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    std::hint::black_box(x);
}

/// Operations on a set of banks (all four bank workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// Move `amt` between two accounts of one bank.
    Transfer {
        bank: u8,
        from: u32,
        to: u32,
        amt: i32,
    },
    /// Move `amt` across two banks in one transaction.
    Cross {
        from_bank: u8,
        to_bank: u8,
        from: u32,
        to: u32,
        amt: i32,
    },
    /// Sum `count` accounts drawn from `base..base + span` of one bank.
    ReadSome {
        bank: u8,
        count: u16,
        seed: u32,
        base: u32,
        span: u32,
    },
    /// Sum the accounts `start..start + len`, through a snapshot read or a
    /// validating transaction. Transfers never cross the aligned blocks
    /// these ranges cover, so the sum must be `len × INITIAL`: every range
    /// read is its own opacity oracle.
    ReadRange {
        bank: u8,
        snapshot: bool,
        start: u32,
        len: u32,
    },
    /// A transfer in bank 0 that holds the debit's lock across `spin`
    /// iterations of [`spin`].
    HotTransfer {
        from: u32,
        to: u32,
        amt: i16,
        spin: u16,
    },
}

impl BankOp {
    pub fn kind(&self) -> Kind {
        match self {
            BankOp::ReadSome { .. } | BankOp::ReadRange { .. } => Kind::Scan,
            _ => Kind::Update,
        }
    }

    /// Judges a result: range sums have an oracle, the rest do not.
    #[inline(always)]
    pub fn done(&self, value: i64) -> Done {
        let ok = match *self {
            BankOp::ReadRange { len, .. } => value == len as i64 * INITIAL,
            _ => true,
        };
        Done {
            kind: self.kind(),
            ok,
            value,
        }
    }
}

/// Plain-memory banks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankModel {
    pub banks: Vec<Vec<i64>>,
}

impl BankModel {
    pub fn new(banks: usize, accounts: usize) -> Self {
        BankModel {
            banks: vec![vec![INITIAL; accounts]; banks],
        }
    }

    pub fn total(&self) -> i64 {
        self.banks.iter().flatten().sum()
    }
}

/// A reference model of a workload's data.
pub trait Model: Send {
    type Op: Copy + Send + Sync;
    fn apply(&mut self, op: &Self::Op) -> Done;
}

impl Model for BankModel {
    type Op = BankOp;

    fn apply(&mut self, op: &BankOp) -> Done {
        let value = match *op {
            BankOp::Transfer {
                bank,
                from,
                to,
                amt,
            } => {
                let b = &mut self.banks[bank as usize];
                b[from as usize] -= amt as i64;
                b[to as usize] += amt as i64;
                0
            }
            BankOp::Cross {
                from_bank,
                to_bank,
                from,
                to,
                amt,
            } => {
                self.banks[from_bank as usize][from as usize] -= amt as i64;
                self.banks[to_bank as usize][to as usize] += amt as i64;
                0
            }
            BankOp::ReadSome {
                bank,
                count,
                seed,
                base,
                span,
            } => {
                let b = &self.banks[bank as usize];
                read_some_indices(seed, count, base, span)
                    .map(|i| b[i])
                    .sum()
            }
            BankOp::ReadRange {
                bank, start, len, ..
            } => self.banks[bank as usize][start as usize..(start + len) as usize]
                .iter()
                .sum(),
            BankOp::HotTransfer {
                from,
                to,
                amt,
                spin: iters,
            } => {
                let b = &mut self.banks[0];
                b[from as usize] -= amt as i64;
                spin(iters as u32);
                b[to as usize] += amt as i64;
                0
            }
        };
        op.done(value)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetVerb {
    Contains,
    Insert,
    Remove,
}

/// One integer-set operation on one of the application's structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetOp {
    pub set: u8,
    pub verb: SetVerb,
    pub key: u32,
}

impl SetOp {
    /// `hit`: the key was found / inserted / removed.
    #[inline(always)]
    pub fn done(&self, hit: bool) -> Done {
        Done {
            kind: match self.verb {
                SetVerb::Contains => Kind::Scan,
                _ => Kind::Update,
            },
            ok: true,
            value: hit as i64,
        }
    }

    /// Change of the set's size when the operation reported `hit`.
    #[inline(always)]
    pub fn net(&self, hit: bool) -> i64 {
        match self.verb {
            SetVerb::Contains => 0,
            SetVerb::Insert => hit as i64,
            SetVerb::Remove => -(hit as i64),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetsModel {
    pub sets: Vec<BTreeSet<u64>>,
}

impl Model for SetsModel {
    type Op = SetOp;

    fn apply(&mut self, op: &SetOp) -> Done {
        let set = &mut self.sets[op.set as usize];
        let key = op.key as u64;
        op.done(match op.verb {
            SetVerb::Contains => set.contains(&key),
            SetVerb::Insert => set.insert(key),
            SetVerb::Remove => set.remove(&key),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_stay_compact() {
        assert!(std::mem::size_of::<BankOp>() <= 16);
        assert!(std::mem::size_of::<SetOp>() <= 8);
    }

    #[test]
    fn bank_model_conserves_and_judges_range_sums() {
        let mut m = BankModel::new(2, 512);
        let t = BankOp::Transfer {
            bank: 0,
            from: 3,
            to: 200,
            amt: 70,
        };
        assert_eq!(m.apply(&t).kind, Kind::Update);
        assert_eq!(
            (m.banks[0][3], m.banks[0][200]),
            (INITIAL - 70, INITIAL + 70)
        );
        m.apply(&BankOp::Cross {
            from_bank: 0,
            to_bank: 1,
            from: 300,
            to: 0,
            amt: 5,
        });
        assert_eq!(m.total(), 2 * 512 * INITIAL);
        let whole = BankOp::ReadRange {
            bank: 0,
            snapshot: true,
            start: 0,
            len: 256,
        };
        let d = m.apply(&whole);
        assert_eq!((d.kind, d.ok, d.value), (Kind::Scan, true, 256 * INITIAL));
        // A range that lost money to an update outside it is flagged.
        m.banks[0][1] -= 1;
        assert!(!m.apply(&whole).ok);
    }

    #[test]
    fn read_some_is_deterministic_and_in_range() {
        let a: Vec<usize> = read_some_indices(9, 64, 16, 4080).collect();
        let b: Vec<usize> = read_some_indices(9, 64, 16, 4080).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| (16..4096).contains(&i)));
        let distinct: BTreeSet<usize> = a.iter().copied().collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    fn sets_model_reports_hits_and_net_size() {
        let mut m = SetsModel {
            sets: vec![BTreeSet::from([2, 4])],
        };
        let op = |verb, key| SetOp { set: 0, verb, key };
        let ins = op(SetVerb::Insert, 3);
        let d = m.apply(&ins);
        assert_eq!((d.value, d.kind, ins.net(true)), (1, Kind::Update, 1));
        assert_eq!(m.apply(&ins).value, 0, "second insert misses");
        assert_eq!(m.apply(&op(SetVerb::Contains, 4)).kind, Kind::Scan);
        let rem = op(SetVerb::Remove, 2);
        assert_eq!((m.apply(&rem).value, rem.net(true)), (1, -1));
        assert_eq!(m.sets[0], BTreeSet::from([3, 4]));
    }
}
