//! The fixed baselines: `single-table` (the same structures in one
//! partition, i.e. the unpartitioned base STM) and `global-lock` (the
//! reference model behind one `std::sync::Mutex`). Both are driven by the
//! *same* op tapes as the partitioned variant, and every ratio is printed
//! beside its base.

use std::sync::{Arc, Mutex};

use partstm_core::{Partition, PartitionConfig, Stm};

use crate::harness::VariantLog;
use crate::measure::{kops, Outcome};
use crate::ops::Model;
use crate::variants::GlobalLock;

/// `n` handles to one partition: structures built over them share one
/// orec table, one configuration and one set of counters.
pub fn single_table(stm: &Stm, cfg: PartitionConfig, n: usize) -> Vec<Arc<Partition>> {
    vec![stm.new_partition(cfg); n]
}

pub fn global_lock<M: Model>(model: M) -> GlobalLock<M> {
    GlobalLock(Mutex::new(model))
}

/// Records `ratio_name = main ÷ base` with the base (`base_name`) beside it.
pub fn versus(
    out: &mut Outcome,
    ratio_name: &str,
    base_name: &str,
    main: &VariantLog,
    base: &VariantLog,
) {
    let (m, b) = (kops(main), kops(base));
    let ratio = if b > 0.0 { m / b } else { 0.0 };
    out.values.set(ratio_name, ratio);
    out.values.set(base_name, b);
    out.notes.push(format!(
        "{ratio_name} = {ratio:.3} ({m:.1} ÷ {b:.1} kops/s, {} and {} windows)",
        main.window_ops.len(),
        base.window_ops.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{NoRec, Variant};
    use crate::ops::{BankModel, BankOp, INITIAL};

    #[test]
    fn single_table_hands_out_one_partition() {
        let stm = Stm::new();
        let parts = single_table(&stm, PartitionConfig::named("all"), 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(stm.partitions().len(), 1);
        assert!(parts.iter().all(|p| Arc::ptr_eq(p, &parts[0])));
    }

    #[test]
    fn global_lock_applies_ops_to_the_model() {
        let v = global_lock(BankModel::new(1, 4));
        let op = BankOp::Transfer {
            bank: 0,
            from: 0,
            to: 3,
            amt: 10,
        };
        assert!(v.exec(&mut (), &op, &mut NoRec).ok);
        assert_eq!(
            v.0.lock().unwrap().banks[0],
            [INITIAL - 10, INITIAL, INITIAL, INITIAL + 10]
        );
    }

    #[test]
    fn versus_prints_the_base_beside_the_ratio() {
        let log = |ops: u64| VariantLog {
            window_secs: 1.0,
            window_ops: vec![ops; 3],
            ..Default::default()
        };
        let mut out = Outcome::default();
        versus(
            &mut out,
            "vs_single_table",
            "single_table_kops",
            &log(3000),
            &log(2000),
        );
        assert_eq!(out.values.get("vs_single_table"), 1.5);
        assert_eq!(out.values.get("single_table_kops"), 2.0);
        assert!(out.notes[0].contains("3.0 ÷ 2.0"));
    }
}
