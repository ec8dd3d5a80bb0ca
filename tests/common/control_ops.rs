//! The four control-plane operations as one table, for the suites that
//! must treat them alike (quiesce-timeout rollback, telemetry contract).

use std::sync::Arc;

use partstm::core::{MigrationSource, Partition, PrivatizeError, ReadMode, Stm, SwitchOutcome};

/// An operation that runs a quiesce window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlOp {
    Switch,
    ResizeOrecs,
    Migrate,
    Privatize,
}

impl ControlOp {
    pub const ALL: [ControlOp; 4] = [
        ControlOp::Switch,
        ControlOp::ResizeOrecs,
        ControlOp::Migrate,
        ControlOp::Privatize,
    ];

    /// One fixed request against partition `a` — visible reads, 100 orecs
    /// (effectively 128), `src` moved to `b`, a privatize/republish cycle. The first successful call changes
    /// something; repeating it asks for the state already reached.
    pub fn run(
        self,
        stm: &Stm,
        a: &Arc<Partition>,
        b: &Arc<Partition>,
        src: &dyn MigrationSource,
    ) -> SwitchOutcome {
        match self {
            ControlOp::Switch => {
                let mut cfg = a.current_config();
                cfg.read_mode = ReadMode::Visible;
                stm.switch_partition(a, cfg)
            }
            ControlOp::ResizeOrecs => stm.resize_orecs(a, 100),
            ControlOp::Migrate => stm.migrate(src, b, &[]),
            ControlOp::Privatize => match stm.privatize(a) {
                Ok(guard) => {
                    guard.republish();
                    SwitchOutcome::Switched
                }
                Err(PrivatizeError::Contended) => SwitchOutcome::Contended,
                Err(PrivatizeError::TimedOut) => SwitchOutcome::TimedOut,
            },
        }
    }
}
