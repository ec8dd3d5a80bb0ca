//! A flat slice of variables as one `MigrationSource`, for the suites that
//! split and merge flat variables through `Stm::migrate`.

use partstm::core::{Migratable, MigrationSource, PVarBinding};

/// Visits each variable's binding, in slice order.
pub struct Vars<'a>(pub &'a [&'a dyn Migratable]);

impl MigrationSource for Vars<'_> {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        for v in self.0 {
            f(v.pvar_binding());
        }
    }
}
