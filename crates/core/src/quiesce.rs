//! # The quiesce window
//!
//! The paper changes a partition's concurrency control at run time by one
//! protocol — flag the partition, wait until no transaction can still be
//! running under the old arrangement, mutate, re-admit. Every control-plane
//! operation of this crate is that protocol with a different mutation:
//! [`Stm::switch_partition`](crate::Stm::switch_partition) (re-stamp the
//! orecs, publish a new configuration),
//! [`Stm::resize_orecs`](crate::Stm::resize_orecs) (install a fresh table
//! and ring), the repartition entry points in [`crate::repartition`] (rebind
//! variables across *several* flagged partitions) and
//! [`Stm::privatize`](crate::Stm::privatize) (hand the quiesced window to a
//! [`PrivateGuard`](crate::PrivateGuard) and close it at republish).
//! [`QuiesceWindow`] *is* the protocol; this section is the single
//! statement of its contract, and the operations above state only their
//! mutation.
//!
//! ## Who may open one
//!
//! Ordinary code between transactions: a control thread, or a worker in its
//! post-commit tuning hook (its slot's `seq` is even by then). Never from
//! inside a transaction — the drain would wait for the caller's own
//! attempt. Windows never spin on one another: a set flag or a lost CAS
//! reports `Contended` at once, so concurrent windows cannot deadlock, and
//! multi-partition windows additionally flag in canonical id order.
//!
//! ## The phases, and what each outcome leaves behind
//!
//! 1. **Pre-check** (the operation's own): nothing to do reports
//!    [`Unchanged`](SwitchOutcome::Unchanged) without flagging anything.
//! 2. **Flag** ([`QuiesceWindow::open`]): CAS `SWITCHING_BIT` (plus
//!    `PRIVATIZED_BIT` for a privatization) into every involved config
//!    word, remembering the word found. Transactions that now first-touch
//!    a flagged partition abort and retry. A flag already set, or a lost
//!    CAS, un-flags whatever this window took and reports
//!    [`Contended`](SwitchOutcome::Contended): every word exactly as found.
//! 3. **Re-check under the flags** (the operation's own): a no-op that an
//!    interleaved window already performed reports `Unchanged`, a binding
//!    that escaped the flagged set reports `Contended`; dropping the window
//!    restores every word.
//! 4. **Quiesce** ([`QuiesceWindow::quiesce`]): bump the global switch
//!    epoch and wait until every registered thread is outside a
//!    transaction, or inside one begun after the bump (which observes the
//!    flags). On the hard deadline the saved words are restored, one
//!    rate-limited line is logged and the outcome is
//!    [`TimedOut`](SwitchOutcome::TimedOut) — in every build profile; a
//!    timeout never panics. Nothing was mutated, so word, generation,
//!    table, ring and bindings are exactly as found and the operation is
//!    retryable.
//! 5. **Mutate and close** ([`QuiesceWindow::commit`]): run the
//!    operation's mutation, then publish every held word with
//!    generation+1 and the flags clear:
//!    [`Switched`](SwitchOutcome::Switched). What the mutation unlinked
//!    — a resize's old orec table and version ring — is freed right
//!    after, once the flags are clear (next section).
//!
//! ## What a closed window frees
//!
//! A closed window is a grace period. The drain waited out every attempt
//! begun before the epoch bump, and every attempt begun after it observed
//! a flag and restarted before touching a held partition's table, so
//! when `commit` returns no attempt can still hold a pointer loaded
//! before the mutation; attempts admitted by the close load the new
//! registers. A resize therefore frees the old table and ring instead of
//! parking them: `Partition::install_table` hands the pair back, and
//! `StmInner::reconfigure` drops it after `commit` returns, so the free
//! never lengthens the stall and a partition owns exactly one table and
//! one ring however often it is resized. The partition's other table
//! readers go through its `tables` mutex, which the swap also holds; the
//! full list of consumers is at `Partition::install_table`.
//! Contended and timed-out windows never mutate, so they have nothing to
//! free. (Bindings a repartition retires are still parked, by
//! `PVarBinding::rebind`: a view borrows its partition through them.)
//!
//! ## Why restoring the word is race-free
//!
//! While `SWITCHING_BIT` is set the word has exactly one writer: every
//! other window's `open` gives up on seeing the bit, and transactions only
//! read it. The window that set the bit therefore owns the word until it
//! stores one without the bit — the saved word (rollback) or the
//! generation+1 word (close) — and a plain store suffices for both.
//!
//! ## Why a conservative close is safe
//!
//! Once the drain succeeded, no transaction holds locks, reader bits,
//! read-set entries or pinned snapshots against a held partition, and none
//! can start until the flags clear. Stamping every orec of a held
//! partition with any clock value read after the drain
//! (`Partition::reset_orecs`) and publishing generation+1 is then always
//! sound, whatever the mutation did or did not get done: each variable is
//! bound to exactly one partition, every held partition's versions are at
//! least as new as any commit that ever wrote through it, and old-snapshot
//! readers are forced to extend on first contact. That is what
//! [`QuiesceWindow`]'s `Drop` does when a mutation unwinds part-way (a
//! user-implemented [`MigrationSource`](crate::MigrationSource) may panic
//! while enumerating): it closes, where before the mutation started it
//! restores — a flag is never left behind. (The quiescence argument is
//! Khyzha et al., *Safe Privatization in Transactional Memory*; our drain
//! is their privatization barrier.)

use core::marker::PhantomData;
use core::ops::Deref;
use core::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::{self, DynConfig};
use crate::partition::{Partition, PartitionId};
use crate::rtlog;
use crate::stm::{StmInner, SwitchOutcome, ThreadSlot};
use crate::telemetry::{self, EventKind};

/// Minimum interval between two emissions of the same control-plane
/// warning (suppressed calls are counted and folded into the next
/// emission).
pub(crate) const WARN_INTERVAL: Duration = Duration::from_secs(5);

/// The one "rolled back: quiescence not reached" line, whatever the
/// operation.
static ROLLBACK_WARN: rtlog::Limiter = rtlog::Limiter::new(WARN_INTERVAL);
/// The per-slot diagnostics of [`report_stuck_slots`].
static STUCK_WARN: rtlog::Limiter = rtlog::Limiter::new(WARN_INTERVAL);

/// One control-plane action: the flag→quiesce→mutate→close protocol of
/// the [module docs](self) as an RAII value, plus the action's one
/// telemetry event. `P` is how the caller holds its partitions
/// (`&Partition` for a call-scoped window, `Arc<Partition>` for the one a
/// `PrivateGuard` keeps) and `H` where it keeps them: the
/// single-partition windows use an array so that an action never touches
/// the allocator, a repartition brings a `Vec`.
///
/// Dropping the window is always a correct exit: un-flagged it only emits
/// the event; flagged it restores the saved words; part-way through a
/// mutation it closes conservatively.
#[derive(Debug)]
pub(crate) struct QuiesceWindow<P, H = [(P, u64); 1]>
where
    P: Deref<Target = Partition>,
    H: AsMut<[(P, u64)]>,
{
    /// The action's event kind, and whether the event went out already.
    kind: EventKind,
    reported: bool,
    /// Partition the event and the drain's counters are attributed to;
    /// always one of `parts`.
    subject: PartitionId,
    /// Third payload word of the event (effective size or depth,
    /// variables rebound).
    pub(crate) arg: u64,
    outcome: SwitchOutcome,
    /// The involved partitions (distinct; `open` sorts them into id
    /// order), each beside the word found before its flag went in.
    parts: H,
    /// How many of `parts`, from the front, are flagged: all of them
    /// between a successful `open` and the rollback or close, else 0.
    flagged: usize,
    /// `Some` once `commit` started mutating: from then on a drop closes
    /// instead of restoring.
    stamp: Option<u64>,
    _held_as: PhantomData<P>,
}

impl<P, H> QuiesceWindow<P, H>
where
    P: Deref<Target = Partition>,
    H: AsMut<[(P, u64)]>,
{
    /// A window over `parts` (each paired with a placeholder word) that
    /// holds nothing yet. Until an outcome is decided it reports as
    /// `Contended` ("not attempted").
    pub(crate) fn new(kind: EventKind, subject: PartitionId, arg: u64, mut parts: H) -> Self {
        debug_assert!(parts.as_mut().iter().any(|(p, _)| p.id() == subject));
        QuiesceWindow {
            kind,
            reported: false,
            subject,
            arg,
            outcome: SwitchOutcome::Contended,
            parts,
            flagged: 0,
            stamp: None,
            _held_as: PhantomData,
        }
    }

    /// Records `outcome` as the action's result and hands it back.
    pub(crate) fn finish(&mut self, outcome: SwitchOutcome) -> SwitchOutcome {
        self.outcome = outcome;
        outcome
    }

    /// Phase 2: flags every partition with `flag_bits`, in canonical id
    /// order. On contention everything already taken is un-flagged and
    /// the outcome is `Contended`.
    pub(crate) fn open(&mut self, flag_bits: u64) -> Result<(), SwitchOutcome> {
        debug_assert!(self.flagged == 0 && config::is_switching(flag_bits));
        let parts = self.parts.as_mut();
        parts.sort_unstable_by_key(|(p, _)| p.id());
        debug_assert!(parts.windows(2).all(|w| w[0].0.id() != w[1].0.id()));
        for (p, saved) in parts.iter_mut() {
            let old = p.config.load(Ordering::SeqCst);
            if config::is_switching(old)
                || p.config
                    .compare_exchange(old, old | flag_bits, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                break;
            }
            *saved = old;
            self.flagged += 1;
        }
        if self.flagged == parts.len() {
            return Ok(());
        }
        self.rollback();
        Err(self.finish(SwitchOutcome::Contended))
    }

    /// Phase 4: drains every transaction begun before the flags went in.
    /// On the hard deadline the window rolls back, logs, and the outcome
    /// is `TimedOut`.
    pub(crate) fn quiesce(&mut self, inner: &StmInner) -> Result<(), SwitchOutcome> {
        debug_assert!(self.flagged > 0 && self.stamp.is_none());
        let id = self.subject;
        let (subject, _) = (self.parts.as_mut().iter())
            .find(|(p, _)| p.id() == id)
            .expect("the subject is one of the window's partitions");
        if bump_epoch_and_quiesce(inner, subject) {
            return Ok(());
        }
        self.rollback();
        let names: Vec<&str> = self.parts.as_mut().iter().map(|(p, _)| p.name()).collect();
        ROLLBACK_WARN.warn(&format!(
            "{:?} window on {names:?} rolled back: quiescence not reached in {:?} \
             (stuck transaction?); retryable",
            self.kind, inner.quiesce_timeout
        ));
        Err(self.finish(SwitchOutcome::TimedOut))
    }

    /// Phase 5: runs `mutation`, then publishes every held word with
    /// generation+1 and the flags clear — under `new` if given, else
    /// under the configuration found. `stamp` is the clock value the
    /// mutation stamps orecs with (read after the drain); should the
    /// mutation unwind, the drop hook re-stamps with it.
    pub(crate) fn commit(
        &mut self,
        stamp: u64,
        new: Option<DynConfig>,
        mutation: impl FnOnce(),
    ) -> SwitchOutcome {
        debug_assert!(self.flagged > 0);
        self.stamp = Some(stamp);
        mutation();
        self.close(new);
        self.finish(SwitchOutcome::Switched)
    }

    /// Privatization only: the window stays flagged in its guard, so its
    /// event reports the acquisition now rather than at the close.
    pub(crate) fn hold(&mut self) {
        self.outcome = SwitchOutcome::Switched;
        self.report();
    }

    /// The flagged partitions and their saved words, handed out once:
    /// whoever takes them stores the words that end the window.
    fn take_flagged(&mut self) -> &[(P, u64)] {
        &self.parts.as_mut()[..core::mem::take(&mut self.flagged)]
    }

    fn rollback(&mut self) {
        for (p, saved) in self.take_flagged() {
            p.config.store(*saved, Ordering::SeqCst);
        }
    }

    fn close(&mut self, new: Option<DynConfig>) {
        for (p, saved) in self.take_flagged() {
            let cfg = new.unwrap_or_else(|| config::decode(*saved));
            let word = config::encode(cfg, config::generation(*saved).wrapping_add(1));
            p.config.store(word, Ordering::SeqCst);
        }
    }

    fn report(&mut self) {
        if !core::mem::replace(&mut self.reported, true) {
            telemetry::control_event(
                self.kind,
                self.subject.0 as u64,
                telemetry::outcome_code(self.outcome),
                self.arg,
            );
        }
    }
}

impl<P, H> Drop for QuiesceWindow<P, H>
where
    P: Deref<Target = Partition>,
    H: AsMut<[(P, u64)]>,
{
    fn drop(&mut self) {
        match self.stamp {
            None => self.rollback(),
            // Still flagged only when the mutation unwound: the
            // conservative close of the module docs.
            Some(stamp) => {
                for (p, _) in &self.parts.as_mut()[..self.flagged] {
                    p.reset_orecs(stamp);
                }
                self.close(None);
            }
        }
        self.report();
    }
}

/// Bumps the global switch epoch and waits for every registered thread to
/// be outside a transaction at least once, or inside one begun after the
/// bump (such attempts observe the switching flags the window set).
/// Returns `false` on quiesce timeout.
///
/// ## Two-stage deadline (kill-based rescue)
///
/// The drain runs against two deadlines:
///
/// 1. **Soft** ([`StmBuilder::kill_after`](crate::StmBuilder::kill_after),
///    default `quiesce_timeout/4`): once crossed, [`raise_kills`] sweeps
///    the slot table once and raises the kill flag of every transaction
///    still blocking the drain (slot registered, sequence odd, attempt
///    begun before this window's epoch). A cooperative victim observes the
///    flag at its next read/write/acquire/validate/backoff boundary and
///    unwinds with [`AbortKind::Killed`](crate::AbortKind::Killed) through
///    the ordinary abort path, which releases every encounter lock and
///    reader bit it held — see the "Kill safety" section of
///    [`crate::txn`]'s module docs for why aborting at those boundaries
///    can never observe or publish torn state. One sweep suffices:
///    attempts begun after the epoch bump satisfy the drain predicate by
///    construction, so the set of blockers can only shrink.
/// 2. **Hard** ([`StmBuilder::quiesce_timeout`](crate::StmBuilder::quiesce_timeout)):
///    the window fails and rolls back — but first [`report_stuck_slots`]
///    emits one structured diagnostic per still-blocking slot (thread
///    slot, attempt serial, held encounter locks per partition scan)
///    through [`rtlog`], the `StuckSlot` event and the `stuck_slots`
///    counter. Only a thread that is *not running STM code* (descheduled,
///    dead, or parked in user code mid-transaction) can reach this stage,
///    because every STM boundary polls the kill flag.
///
/// Raising a kill flag is always safe, even against a mis-identified
/// victim: the flag names one attempt serial, the victim merely
/// aborts-and-retries (counted as `aborts_killed`), and `Tx::begin`
/// clears the flag before publishing the next serial, so a stale kill
/// can never leak into a later attempt.
fn bump_epoch_and_quiesce(inner: &StmInner, subject: &Partition) -> bool {
    // `subject` only attributes the counters and events below to the
    // window's subject partition; the drain itself is global.
    let tele_part = subject.id().0 as u64;
    let tele_t0 = telemetry::enabled().then(|| {
        telemetry::control_event(EventKind::QuiesceBegin, tele_part, 0, 0);
        Instant::now()
    });
    if crate::fault::enabled() {
        if let Some(delay) = crate::fault::quiesce_delay_budget(inner.id) {
            std::thread::sleep(delay);
        }
    }
    let epoch = inner.switch_epoch.fetch_add(1, Ordering::SeqCst) + 1;
    let start = Instant::now();
    let soft = inner.kill_after;
    // Rescue disabled when the soft deadline cannot precede the hard one.
    let mut kills_raised = soft >= inner.quiesce_timeout;
    let mut ok = true;
    'drain: for slot in inner.slots.iter() {
        while blocks(slot, epoch) {
            let waited = start.elapsed();
            if waited > inner.quiesce_timeout {
                ok = false;
                break 'drain;
            }
            if !kills_raised && waited > soft {
                kills_raised = true;
                raise_kills(inner, epoch, subject, waited);
            }
            std::thread::yield_now();
        }
    }
    subject.stats.quiesce_windows(1);
    if !ok {
        subject.stats.quiesce_timeouts(1);
        report_stuck_slots(inner, epoch, subject);
    }
    if let Some(t0) = tele_t0 {
        let us = t0.elapsed().as_micros() as u64;
        telemetry::global().quiesce_us.record(us);
        telemetry::control_event(EventKind::QuiesceEnd, tele_part, us, ok as u64);
    }
    ok
}

/// Whether `slot` belongs to a live thread inside an attempt begun before
/// `epoch` — what the drain for `epoch` waits on. The `seq` load precedes
/// the `start_epoch` load, as the handshake argument in [`crate::txn`]
/// ("One full fence per attempt") requires.
fn blocks(slot: &ThreadSlot, epoch: u64) -> bool {
    slot.registered.load(Ordering::SeqCst)
        && slot.seq.load(Ordering::SeqCst) % 2 == 1
        && slot.start_epoch.load(Ordering::SeqCst) < epoch
}

/// Soft-deadline stage of [`bump_epoch_and_quiesce`]: one sweep over the
/// slot table raising the kill flag of every attempt still blocking the
/// drain for `epoch`. Racing a victim's attempt turnover is benign — the
/// stored serial then names a finished attempt and no one ever matches
/// it. Cold by construction (a healthy drain finishes in microseconds).
#[cold]
fn raise_kills(inner: &StmInner, epoch: u64, subject: &Partition, waited: Duration) {
    let mut killed = 0u64;
    for slot in inner.slots.iter().filter(|s| blocks(s, epoch)) {
        slot.kill
            .store(slot.serial.load(Ordering::SeqCst), Ordering::SeqCst);
        killed += 1;
    }
    if killed > 0 {
        subject.stats.kill_rescue_kills(killed);
        telemetry::control_event(
            EventKind::KillRescue,
            subject.id().0 as u64,
            killed,
            waited.as_micros() as u64,
        );
    }
}

/// Hard-deadline stage of [`bump_epoch_and_quiesce`]: one structured
/// diagnostic per slot still blocking the drain — thread slot index,
/// attempt serial, and how many encounter locks it holds in each
/// partition — via [`rtlog`] (rate-limited), the `StuckSlot` event and
/// the subject's `stuck_slots` counter. Such a slot survived the kill
/// sweep, so its thread cannot be executing STM code; the held-lock count
/// tells the operator whether it is wedging writers too or merely the
/// control plane.
#[cold]
fn report_stuck_slots(inner: &StmInner, epoch: u64, subject: &Partition) {
    // `try_lock`: this runs inside an already-failing control-plane
    // window, and deadlocking the diagnostic on the partition list would
    // be worse than reporting without held-lock counts.
    let parts: Vec<Arc<Partition>> = inner
        .partitions
        .try_lock()
        .map(|g| g.clone())
        .unwrap_or_default();
    for (i, slot) in inner.slots.iter().enumerate() {
        if !blocks(slot, epoch) {
            continue;
        }
        let serial = slot.serial.load(Ordering::SeqCst);
        let held: Vec<(PartitionId, usize)> = parts
            .iter()
            .map(|p| (p.id(), p.held_locks_of(i)))
            .filter(|(_, n)| *n > 0)
            .collect();
        let held_total: usize = held.iter().map(|(_, n)| n).sum();
        subject.stats.stuck_slots(1);
        telemetry::control_event(
            EventKind::StuckSlot,
            subject.id().0 as u64,
            i as u64,
            held_total as u64,
        );
        STUCK_WARN.warn(&format!(
            "stuck transaction: thread slot {i} (attempt serial {serial}) \
             ignored its kill flag past the hard quiesce deadline; it holds \
             {held_total} encounter lock(s) {held:?} — the thread is \
             descheduled, dead, or parked in user code mid-transaction"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::stm::Stm;

    fn window<'p>(
        parts: impl IntoIterator<Item = &'p Arc<Partition>>,
    ) -> QuiesceWindow<&'p Partition, Vec<(&'p Partition, u64)>> {
        let parts = parts.into_iter().map(|p| (&**p, 0)).collect();
        QuiesceWindow::new(EventKind::ConfigSwitch, PartitionId(0), 0, parts)
    }

    fn three(stm: &Stm) -> Vec<Arc<Partition>> {
        stm.new_partitions([
            PartitionConfig::default(),
            PartitionConfig::default(),
            PartitionConfig::default(),
        ])
    }

    #[test]
    fn open_then_drop_restores_the_word_exactly() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let before = p.config_word();
        {
            let mut w = window([&p]);
            w.open(config::SWITCHING_BIT).unwrap();
            assert!(config::is_switching(p.config_word()));
        }
        assert_eq!(p.config_word(), before, "rollback: word and generation");
    }

    #[test]
    fn second_open_is_contended_and_leaves_the_first_alone() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let mut first = window([&p]);
        first.open(config::SWITCHING_BIT).unwrap();
        let flagged = p.config_word();
        let mut second = window([&p]);
        assert_eq!(
            second.open(config::SWITCHING_BIT),
            Err(SwitchOutcome::Contended)
        );
        drop(second);
        assert_eq!(p.config_word(), flagged, "the loser restores nothing");
    }

    #[test]
    fn commit_bumps_every_generation_and_clears_every_flag() {
        let stm = Stm::new();
        let parts = three(&stm);
        // Out of order: `open` canonicalizes.
        let mut w = window([&parts[2], &parts[0], &parts[1]]);
        w.open(config::SWITCHING_BIT).unwrap();
        w.quiesce(&stm.inner).unwrap();
        let mut ran = false;
        let out = w.commit(stm.clock_now(), None, || ran = true);
        assert_eq!(out, SwitchOutcome::Switched);
        assert!(ran);
        for p in &parts {
            assert!(!config::is_switching(p.config_word()));
            assert_eq!(p.generation(), 1);
        }
        drop(w);
        assert_eq!(parts[0].generation(), 1, "a committed window drops inertly");
    }

    #[test]
    fn open_against_a_flagged_member_unflags_the_ones_taken() {
        let stm = Stm::new();
        let parts = three(&stm);
        let before: Vec<u64> = parts.iter().map(|p| p.config_word()).collect();
        // The highest id is held elsewhere, so the two lower ones are
        // taken first and must be given back.
        parts[2].debug_force_switch_flag(true);
        let mut w = window(&parts);
        assert_eq!(w.open(config::SWITCHING_BIT), Err(SwitchOutcome::Contended));
        assert_eq!(parts[0].config_word(), before[0]);
        assert_eq!(parts[1].config_word(), before[1]);
        assert!(config::is_switching(parts[2].config_word()), "not ours");
        parts[2].debug_force_switch_flag(false);
    }

    #[test]
    fn a_mutation_that_unwinds_is_closed_not_wedged() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(8));
        stm.inner.clock.advance();
        let stamp = stm.clock_now();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = window([&p]);
            w.open(config::SWITCHING_BIT).unwrap();
            w.quiesce(&stm.inner).unwrap();
            let _ = w.commit(stamp, None, || panic!("mutation dies"));
        }));
        assert!(r.is_err());
        assert!(
            !config::is_switching(p.config_word()),
            "flag not left behind"
        );
        assert_eq!(p.generation(), 1, "closed under generation+1");
        assert_eq!(p.debug_scan().2, stamp, "orecs re-stamped");
    }
}
