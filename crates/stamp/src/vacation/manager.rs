//! The vacation database manager: four relations with STAMP semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use partstm_core::{
    Arena, Handle, Migratable, MigratableCollection, PVar, PVarFields, Partition, PartitionConfig,
    Quiescent, Read, Stm, Tx, TxResult,
};
use partstm_structures::TRbTree;

/// The three reservable item kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReservationKind {
    /// Rental cars.
    Car,
    /// Flights.
    Flight,
    /// Hotel rooms.
    Room,
}

impl ReservationKind {
    /// All kinds, in STAMP's order.
    pub const ALL: [ReservationKind; 3] = [
        ReservationKind::Car,
        ReservationKind::Flight,
        ReservationKind::Room,
    ];

    /// Stable small integer encoding.
    pub fn code(self) -> u64 {
        match self {
            ReservationKind::Car => 0,
            ReservationKind::Flight => 1,
            ReservationKind::Room => 2,
        }
    }

    /// Inverse of [`ReservationKind::code`].
    pub fn from_code(c: u64) -> Self {
        match c {
            0 => ReservationKind::Car,
            1 => ReservationKind::Flight,
            _ => ReservationKind::Room,
        }
    }
}

/// Inventory record for one item id, bound to its relation's partition.
struct Reservation {
    total: PVar<u64>,
    used: PVar<u64>,
    free: PVar<u64>,
    price: PVar<u64>,
}

impl PVarFields for Reservation {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.total);
        f(&self.used);
        f(&self.free);
        f(&self.price);
    }
}

/// One entry in a customer's reservation list, bound to the customers
/// partition.
struct ResInfo {
    kind: PVar<u64>,
    item: PVar<u64>,
    price: PVar<u64>,
    next: PVar<Option<Handle<ResInfo>>>,
}

impl PVarFields for ResInfo {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.kind);
        f(&self.item);
        f(&self.price);
        f(&self.next);
    }
}

/// The partitions backing a [`Manager`] — either one per relation (the
/// paper's configuration) or a single shared partition (the base-STM
/// comparison point).
#[derive(Clone)]
pub struct ManagerParts {
    /// Car relation partition.
    pub cars: Arc<Partition>,
    /// Flight relation partition.
    pub flights: Arc<Partition>,
    /// Room relation partition.
    pub rooms: Arc<Partition>,
    /// Customer records + reservation lists partition.
    pub customers: Arc<Partition>,
}

impl ManagerParts {
    /// One partition per relation (names match
    /// [`super::partition_plan`]'s classes).
    pub fn partitioned(stm: &Stm, tunable: bool) -> Self {
        let mk = |name: &str| {
            let mut cfg = PartitionConfig::named(name);
            cfg.tune = tunable;
            stm.new_partition(cfg)
        };
        ManagerParts {
            cars: mk("vacation.cars"),
            flights: mk("vacation.flights"),
            rooms: mk("vacation.rooms"),
            customers: mk("vacation.customers"),
        }
    }

    /// Everything in one partition: the unpartitioned base STM.
    pub fn single(stm: &Stm, tunable: bool) -> Self {
        let mut cfg = PartitionConfig::named("vacation.all");
        cfg.tune = tunable;
        let p = stm.new_partition(cfg);
        ManagerParts {
            cars: Arc::clone(&p),
            flights: Arc::clone(&p),
            rooms: Arc::clone(&p),
            customers: p,
        }
    }

    /// Distinct partitions this manager uses (deduplicated).
    pub fn distinct(&self) -> Vec<Arc<Partition>> {
        let mut v: Vec<Arc<Partition>> = Vec::new();
        for p in [&self.cars, &self.flights, &self.rooms, &self.customers] {
            if !v.iter().any(|q| Arc::ptr_eq(q, p)) {
                v.push(Arc::clone(p));
            }
        }
        v
    }
}

struct ItemTable {
    tree: Arc<TRbTree>,
    arena: Arc<Arena<Reservation>>,
}

impl ItemTable {
    fn new(part: Arc<Partition>) -> Self {
        ItemTable {
            arena: Arc::new(Arena::new_bound(&part, |p| Reservation {
                total: p.tvar(0),
                used: p.tvar(0),
                free: p.tvar(0),
                price: p.tvar(0),
            })),
            tree: Arc::new(TRbTree::new(part)),
        }
    }

    fn lookup<'e>(&'e self, tx: &mut Tx<'e, '_>, id: u64) -> TxResult<Option<Handle<Reservation>>> {
        Ok(self.tree.get(tx, id)?.map(Handle::<Reservation>::from_word))
    }
}

use partstm_core::TxWord;

/// The travel database: three item relations plus customers.
pub struct Manager {
    parts: ManagerParts,
    cars: ItemTable,
    flights: ItemTable,
    rooms: ItemTable,
    customers: Arc<TRbTree>,
    infos: Arc<Arena<ResInfo>>,
    release_violations: AtomicU64,
}

impl Manager {
    /// Creates an empty database over the given partitions.
    pub fn new(parts: ManagerParts) -> Self {
        Manager {
            cars: ItemTable::new(Arc::clone(&parts.cars)),
            flights: ItemTable::new(Arc::clone(&parts.flights)),
            rooms: ItemTable::new(Arc::clone(&parts.rooms)),
            customers: Arc::new(TRbTree::new(Arc::clone(&parts.customers))),
            infos: Arc::new(Arena::new_bound(&parts.customers, |p| ResInfo {
                kind: p.tvar(0),
                item: p.tvar(0),
                price: p.tvar(0),
                next: p.tvar(None),
            })),
            parts,
            release_violations: AtomicU64::new(0),
        }
    }

    /// Double-release validation failures observed so far:
    /// [`cancel`](Manager::cancel) /
    /// [`delete_customer`](Manager::delete_customer)
    /// attempts that found the item's `used` count already at zero.
    /// Approximate under contention (counted per attempt, including
    /// attempts whose transaction later retried).
    pub fn release_violations(&self) -> u64 {
        self.release_violations.load(Ordering::Relaxed)
    }

    /// The partitions backing this manager.
    pub fn parts(&self) -> &ManagerParts {
        &self.parts
    }

    /// Every arena-backed relation (item trees + inventory arenas, the
    /// customer tree and the reservation-info arena): registered with a
    /// migration directory, they make the whole database
    /// repartition-aware.
    pub fn collections(&self) -> Vec<Arc<dyn MigratableCollection>> {
        let mut out: Vec<Arc<dyn MigratableCollection>> = Vec::new();
        for t in [&self.cars, &self.flights, &self.rooms] {
            out.push(Arc::clone(&t.tree) as _);
            out.push(Arc::clone(&t.arena) as _);
        }
        out.push(Arc::clone(&self.customers) as _);
        out.push(Arc::clone(&self.infos) as _);
        out
    }

    fn table(&self, kind: ReservationKind) -> &ItemTable {
        match kind {
            ReservationKind::Car => &self.cars,
            ReservationKind::Flight => &self.flights,
            ReservationKind::Room => &self.rooms,
        }
    }

    /// Adds inventory (creating the record if absent) and updates the
    /// price. STAMP `manager_add{Car,Flight,Room}`.
    pub fn add_item<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        kind: ReservationKind,
        id: u64,
        num: u64,
        price: u64,
    ) -> TxResult<bool> {
        let t = self.table(kind);
        match t.lookup(tx, id)? {
            Some(h) => {
                let r = t.arena.get(h);
                let total = tx.read(&r.total)?;
                let free = tx.read(&r.free)?;
                tx.write(&r.total, total + num)?;
                tx.write(&r.free, free + num)?;
                tx.write(&r.price, price)?;
            }
            None => {
                let h = t.arena.alloc(tx)?;
                let r = t.arena.get(h);
                tx.write(&r.total, num)?;
                tx.write(&r.used, 0)?;
                tx.write(&r.free, num)?;
                tx.write(&r.price, price)?;
                t.tree.put(tx, id, h.to_word())?;
            }
        }
        Ok(true)
    }

    /// Removes up to `num` unused units; deletes the record when the total
    /// reaches zero. Fails (returns `false`) if fewer than `num` are free.
    /// STAMP `manager_delete{Car,Flight,Room}`.
    pub fn remove_item<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        kind: ReservationKind,
        id: u64,
        num: u64,
    ) -> TxResult<bool> {
        let t = self.table(kind);
        let Some(h) = t.lookup(tx, id)? else {
            return Ok(false);
        };
        let r = t.arena.get(h);
        let free = tx.read(&r.free)?;
        if free < num {
            return Ok(false);
        }
        let total = tx.read(&r.total)?;
        tx.write(&r.free, free - num)?;
        tx.write(&r.total, total - num)?;
        if total - num == 0 {
            t.tree.delete(tx, id)?;
            t.arena.free(tx, h);
        }
        Ok(true)
    }

    /// Queries an item: `Some((free, price))` if the record exists.
    pub fn query_item<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        kind: ReservationKind,
        id: u64,
    ) -> TxResult<Option<(u64, u64)>> {
        let t = self.table(kind);
        match t.lookup(tx, id)? {
            Some(h) => {
                let r = t.arena.get(h);
                let free = tx.read(&r.free)?;
                let price = tx.read(&r.price)?;
                Ok(Some((free, price)))
            }
            None => Ok(None),
        }
    }

    /// Registers a customer; `false` if already present.
    pub fn add_customer<'e>(&'e self, tx: &mut Tx<'e, '_>, id: u64) -> TxResult<bool> {
        if self.customers.get(tx, id)?.is_some() {
            return Ok(false);
        }
        // Value encodes the reservation-list head; 0 = empty list.
        self.customers.put(tx, id, 0)?;
        Ok(true)
    }

    /// Reserves one unit of `(kind, item)` for `customer`. `false` if the
    /// customer or item is missing or nothing is free.
    pub fn reserve<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        customer: u64,
        kind: ReservationKind,
        item: u64,
    ) -> TxResult<bool> {
        let Some(head_word) = self.customers.get(tx, customer)? else {
            return Ok(false);
        };
        let t = self.table(kind);
        let Some(h) = t.lookup(tx, item)? else {
            return Ok(false);
        };
        let r = t.arena.get(h);
        let free = tx.read(&r.free)?;
        if free == 0 {
            return Ok(false);
        }
        let used = tx.read(&r.used)?;
        let price = tx.read(&r.price)?;
        tx.write(&r.free, free - 1)?;
        tx.write(&r.used, used + 1)?;
        // Prepend to the customer's reservation list.
        let info = self.infos.alloc(tx)?;
        let n = self.infos.get(info);
        tx.write(&n.kind, kind.code())?;
        tx.write(&n.item, item)?;
        tx.write(&n.price, price)?;
        tx.write(&n.next, Option::<Handle<ResInfo>>::from_word(head_word))?;
        self.customers.put(tx, customer, info.to_word())?;
        Ok(true)
    }

    /// Cancels one reservation of `(kind, item)` held by `customer`.
    pub fn cancel<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        customer: u64,
        kind: ReservationKind,
        item: u64,
    ) -> TxResult<bool> {
        let Some(head_word) = self.customers.get(tx, customer)? else {
            return Ok(false);
        };
        // Find the matching info node.
        let mut prev: Option<Handle<ResInfo>> = None;
        let mut cur = Option::<Handle<ResInfo>>::from_word(head_word);
        while let Some(h) = cur {
            let n = self.infos.get(h);
            let k = tx.read(&n.kind)?;
            let it = tx.read(&n.item)?;
            if k == kind.code() && it == item {
                break;
            }
            prev = Some(h);
            cur = tx.read(&n.next)?;
        }
        let Some(h) = cur else { return Ok(false) };
        // Validate the release before mutating anything: a zero `used`
        // means the unit was already released (or never reserved against
        // this record); incrementing `free` anyway would silently break
        // `used + free == total`. Count it and fail the cancel with the
        // database untouched.
        let t = self.table(kind);
        let release = match t.lookup(tx, item)? {
            Some(rh) => {
                let used = tx.read(&t.arena.get(rh).used)?;
                if used == 0 {
                    self.release_violations.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                Some((rh, used))
            }
            None => None,
        };
        let next = tx.read(&self.infos.get(h).next)?;
        match prev {
            Some(p) => tx.write(&self.infos.get(p).next, next)?,
            None => {
                self.customers.put(tx, customer, next.to_word())?;
            }
        }
        self.infos.free(tx, h);
        if let Some((rh, used)) = release {
            let r = t.arena.get(rh);
            let free = tx.read(&r.free)?;
            tx.write(&r.free, free + 1)?;
            tx.write(&r.used, used - 1)?;
        }
        Ok(true)
    }

    /// Total price of a customer's reservations (their bill), or `None` if
    /// the customer does not exist.
    pub fn query_bill<'e>(&'e self, tx: &mut Tx<'e, '_>, customer: u64) -> TxResult<Option<u64>> {
        let Some(head_word) = self.customers.get(tx, customer)? else {
            return Ok(None);
        };
        let mut bill = 0u64;
        let mut cur = Option::<Handle<ResInfo>>::from_word(head_word);
        while let Some(h) = cur {
            let n = self.infos.get(h);
            bill += tx.read(&n.price)?;
            cur = tx.read(&n.next)?;
        }
        Ok(Some(bill))
    }

    /// Deletes a customer, releasing every reservation they hold; returns
    /// their final bill. STAMP's DELETE_CUSTOMER action.
    pub fn delete_customer<'e>(
        &'e self,
        tx: &mut Tx<'e, '_>,
        customer: u64,
    ) -> TxResult<Option<u64>> {
        let Some(head_word) = self.customers.get(tx, customer)? else {
            return Ok(None);
        };
        let mut bill = 0u64;
        let mut cur = Option::<Handle<ResInfo>>::from_word(head_word);
        while let Some(h) = cur {
            let n = self.infos.get(h);
            bill += tx.read(&n.price)?;
            let kind = ReservationKind::from_code(tx.read(&n.kind)?);
            let item = tx.read(&n.item)?;
            // Release the unit back to its table. A zero `used` is a
            // double-release: skip the writes (the info is dropped with
            // the customer either way) and count the violation instead
            // of inflating `free` past `total`.
            let t = self.table(kind);
            if let Some(rh) = t.lookup(tx, item)? {
                let r = t.arena.get(rh);
                let used = tx.read(&r.used)?;
                if used == 0 {
                    self.release_violations.fetch_add(1, Ordering::Relaxed);
                } else {
                    let free = tx.read(&r.free)?;
                    tx.write(&r.free, free + 1)?;
                    tx.write(&r.used, used - 1)?;
                }
            }
            let next = tx.read(&n.next)?;
            self.infos.free(tx, h);
            cur = next;
        }
        self.customers.delete(tx, customer)?;
        Ok(Some(bill))
    }

    /// Cross-partition consistency check through any [`Read`]: per record
    /// `used + free == total`, and for every kind the sum of `used` equals
    /// the number of reservation infos customers hold. Returns counts
    /// `(records, customers, infos)`, or the first violation.
    pub fn invariants<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
    ) -> TxResult<Result<(usize, usize, usize), String>> {
        let mut used_by_kind = [0u64; 3];
        let mut records = 0usize;
        for kind in ReservationKind::ALL {
            let t = self.table(kind);
            let mut pairs = Vec::new();
            t.tree.for_each(r, |id, raw| pairs.push((id, raw)))?;
            for (id, raw) in pairs {
                let rec = t.arena.get(Handle::<Reservation>::from_word(raw));
                let total = r.read(&rec.total)?;
                let used = r.read(&rec.used)?;
                let free = r.read(&rec.free)?;
                if used + free != total {
                    return Ok(Err(format!(
                        "{kind:?} item {id}: used {used} + free {free} != total {total}"
                    )));
                }
                used_by_kind[kind.code() as usize] += used;
                records += 1;
            }
        }
        let mut infos_by_kind = [0u64; 3];
        let mut heads = Vec::new();
        self.customers.for_each(r, |_, head| heads.push(head))?;
        for &head in &heads {
            let mut cur = Option::<Handle<ResInfo>>::from_word(head);
            while let Some(h) = cur {
                let n = self.infos.get(h);
                infos_by_kind[r.read(&n.kind)? as usize] += 1;
                cur = r.read(&n.next)?;
            }
        }
        if used_by_kind != infos_by_kind {
            return Ok(Err(format!(
                "used per kind {used_by_kind:?} != customer infos per kind {infos_by_kind:?}"
            )));
        }
        let infos = infos_by_kind.iter().sum::<u64>() as usize;
        Ok(Ok((records, heads.len(), infos)))
    }

    /// [`Manager::invariants`] with plain loads (quiescent only).
    pub fn check_invariants(&self) -> Result<(usize, usize, usize), String> {
        Quiescent::run(|q| self.invariants(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_core::Stm;

    fn setup() -> (Stm, Manager) {
        let stm = Stm::new();
        let m = Manager::new(ManagerParts::partitioned(&stm, false));
        (stm, m)
    }

    /// `collections` names every arena-backed relation: three item tables
    /// (tree + inventory arena each), the customer tree and the
    /// reservation-info arena.
    #[test]
    fn collections_cover_every_relation() {
        let (_stm, m) = setup();
        let colls = m.collections();
        for c in &colls {
            // Every collection has a live home partition.
            let _ = c.home_partition();
        }
        assert_eq!(colls.len(), 8, "3 x (tree + arena) + customers + infos");
    }

    #[test]
    fn add_query_remove_item() {
        let (stm, m) = setup();
        let ctx = stm.register_thread();
        ctx.run(|tx| m.add_item(tx, ReservationKind::Car, 7, 100, 50));
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Car, 7)),
            Some((100, 50))
        );
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Flight, 7)),
            None
        );
        // Top-up adjusts inventory and price.
        ctx.run(|tx| m.add_item(tx, ReservationKind::Car, 7, 10, 60));
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Car, 7)),
            Some((110, 60))
        );
        assert!(ctx.run(|tx| m.remove_item(tx, ReservationKind::Car, 7, 110)));
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Car, 7)),
            None
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn reserve_and_bill_lifecycle() {
        let (stm, m) = setup();
        let ctx = stm.register_thread();
        ctx.run(|tx| {
            m.add_item(tx, ReservationKind::Car, 1, 2, 30)?;
            m.add_item(tx, ReservationKind::Room, 9, 1, 100)?;
            m.add_customer(tx, 42)?;
            Ok(())
        });
        assert!(ctx.run(|tx| m.reserve(tx, 42, ReservationKind::Car, 1)));
        assert!(ctx.run(|tx| m.reserve(tx, 42, ReservationKind::Room, 9)));
        assert!(
            !ctx.run(|tx| m.reserve(tx, 42, ReservationKind::Room, 9)),
            "no rooms free"
        );
        assert!(
            !ctx.run(|tx| m.reserve(tx, 7, ReservationKind::Car, 1)),
            "unknown customer"
        );
        assert_eq!(ctx.run(|tx| m.query_bill(tx, 42)), Some(130));
        m.check_invariants().unwrap();
        // Cancel the car; bill shrinks, inventory restored.
        assert!(ctx.run(|tx| m.cancel(tx, 42, ReservationKind::Car, 1)));
        assert_eq!(ctx.run(|tx| m.query_bill(tx, 42)), Some(100));
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Car, 1)),
            Some((2, 30))
        );
        m.check_invariants().unwrap();
        // Delete the customer: room released.
        assert_eq!(ctx.run(|tx| m.delete_customer(tx, 42)), Some(100));
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Room, 9)),
            Some((1, 100))
        );
        assert_eq!(ctx.run(|tx| m.query_bill(tx, 42)), None);
        m.check_invariants().unwrap();
    }

    #[test]
    fn remove_item_respects_used_units() {
        let (stm, m) = setup();
        let ctx = stm.register_thread();
        ctx.run(|tx| {
            m.add_item(tx, ReservationKind::Flight, 3, 1, 80)?;
            m.add_customer(tx, 1)?;
            Ok(())
        });
        assert!(ctx.run(|tx| m.reserve(tx, 1, ReservationKind::Flight, 3)));
        assert!(
            !ctx.run(|tx| m.remove_item(tx, ReservationKind::Flight, 3, 1)),
            "cannot remove a used unit"
        );
        m.check_invariants().unwrap();
    }

    /// A release against a record whose `used` count is already zero is
    /// a double-release: the old code's `saturating_sub` silently
    /// absorbed it while still incrementing `free`, breaking
    /// `used + free == total`. Now `cancel` fails validation without
    /// writing anything and `delete_customer` skips the bogus release,
    /// both counting the violation.
    #[test]
    fn double_release_fails_validation_instead_of_corrupting() {
        let (stm, m) = setup();
        let ctx = stm.register_thread();
        ctx.run(|tx| {
            m.add_item(tx, ReservationKind::Car, 1, 5, 10)?;
            m.add_customer(tx, 42)?;
            Ok(())
        });
        assert!(ctx.run(|tx| m.reserve(tx, 42, ReservationKind::Car, 1)));
        // Fabricate the state a masked double-release would leave: the
        // unit already back in inventory while the customer still holds
        // the reservation info.
        let h = ctx
            .run(|tx| m.table(ReservationKind::Car).lookup(tx, 1))
            .unwrap();
        let r = m.cars.arena.get(h);
        r.used.store_direct(0);
        r.free.store_direct(5);
        assert_eq!(m.release_violations(), 0);
        assert!(
            !ctx.run(|tx| m.cancel(tx, 42, ReservationKind::Car, 1)),
            "cancel must fail validation, not re-release"
        );
        assert_eq!(m.release_violations(), 1);
        assert_eq!(
            ctx.run(|tx| m.query_item(tx, ReservationKind::Car, 1)),
            Some((5, 10)),
            "failed cancel wrote nothing"
        );
        assert_eq!(ctx.run(|tx| m.query_bill(tx, 42)), Some(10), "info kept");
        // delete_customer drops the info and skips the bogus release,
        // restoring cross-relation consistency.
        assert_eq!(ctx.run(|tx| m.delete_customer(tx, 42)), Some(10));
        assert_eq!(m.release_violations(), 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn single_partition_mode_shares_metadata() {
        let stm = Stm::new();
        let parts = ManagerParts::single(&stm, false);
        assert_eq!(parts.distinct().len(), 1);
        let m = Manager::new(parts);
        let ctx = stm.register_thread();
        ctx.run(|tx| {
            m.add_item(tx, ReservationKind::Car, 1, 5, 10)?;
            m.add_customer(tx, 2)?;
            Ok(())
        });
        assert!(ctx.run(|tx| m.reserve(tx, 2, ReservationKind::Car, 1)));
        m.check_invariants().unwrap();
        let partitioned = ManagerParts::partitioned(&stm, false);
        assert_eq!(partitioned.distinct().len(), 4);
    }
}
