//! The multi-version snapshot read path: read-only transactions that
//! *cannot abort* on data conflicts.
//!
//! [`ThreadCtx::snapshot_read`] runs a closure against a consistent
//! snapshot of transactional state pinned at a single timestamp `T`,
//! without taking locks, registering reader bits, building a read set, or
//! validating anything. Writers make that possible by publishing the value
//! they overwrite into a small per-orec *version ring* at commit time
//! ([`RingSlot`]; the commit side lives in `txn.rs`): where the regular
//! path validates, the snapshot path *reconstructs*.
//!
//! The only restart causes are a configuration switch caught in flight
//! and a user-requested retry — never a concurrent writer. That is the
//! multi-version guarantee this module exists for, and the property the
//! `snapshot_read` test battery pins down.
//!
//! # The reconstruction rule
//!
//! Every history record is a triple `(addr, old, to)` published by the
//! committing writer that overwrote `addr`: "`addr` held `old` until
//! commit `to`" (`to` is the writer's own commit version, so the stamp is
//! exact, not inferred). Records for an orec live in its ring slots, plus
//! a per-partition overflow list for records whose ring victim was still
//! reader-protected. The value of `addr` at snapshot `T` is:
//!
//! > the `old` of the record for `addr` with the **smallest `to` strictly
//! > greater than `T`** (searching ring and overflow together); if no such
//! > record exists, the live cell value.
//!
//! *Why this is exact.* The `to` stamps of `addr`'s records are exactly
//! `addr`'s commit points. If some commit overwrote `addr` after `T`, the
//! earliest such commit `wv₁ > T` recorded the value `addr` held when it
//! committed — which is the value at `T`, because by minimality no commit
//! touched `addr` in `(T, wv₁)`, and every commit at or before `T` is
//! fully applied before its records become reachable. If no commit
//! overwrote `addr` after `T`, the live cell already holds the value at
//! `T`.
//!
//! # Why a pinned snapshot is consistent
//!
//! **Against concurrent commits.** Pinning is a two-step hazard-pointer
//! handshake with the eviction floor:
//!
//! 1. the reader *publishes* a preliminary pin `p = clock.now()` into its
//!    thread slot (`ro_snap`), then
//! 2. re-reads the clock and uses that second value as `T ≥ p`.
//!
//! Writers recycle a ring slot only when its record's `to` is at or below
//! the *floor* — `min(clock-before-scan, min over published pins)`
//! ([`StmInner::ro_floor_recompute`](crate::stm)). Any record a reader
//! with snapshot `T` could ever need has `to > T ≥ p`; since the floor
//! never exceeds a published pin, that record can never be recycled while
//! the pin stands, and since records never migrate between ring and
//! overflow (a protected victim stays put; the *new* record is diverted),
//! a needed record cannot vanish mid-scan either. The clock cap handles
//! the no-readers case: with every slot at `u64::MAX` the floor is capped
//! at the clock value read *before* the slot scan, so a record created
//! after the scan (with `to` above that clock value) fails a stale cached
//! floor test and forces a recompute, which then sees the new pin. A
//! floor, once valid, stays valid forever — pins only rise between
//! recomputes — so caching it is sound.
//!
//! Slot protection alone does not make the history *lookup* sound,
//! because the lookup observes state piece by piece. While it is parked
//! between two slot reads — or between the ring scan and the overflow
//! look — whole commits can complete and keep extending the history,
//! every step individually legal (victims at or below the floor). Two
//! concrete failures, both observed in the storm batteries before the
//! fix:
//!
//! * records cycle *behind* the scan cursor, so the record the reader
//!   needs lands in a slot the cursor already passed and the scan sees
//!   only the latest of the new records (or none);
//! * the ring scan completes (empty), the ring then fills past the floor
//!   and later records divert to overflow, and the overflow look serves
//!   one of those — shadowing the smaller-stamped ring record published
//!   into the gap.
//!
//! This is the **marching hazard**. The cure is one seqlock per orec, the
//! ring epoch ([`Orec::ring_publish_begin`]): a committing writer makes it
//! odd before and even after every history publication for that orec —
//! slot publishes *and* overflow diverts — and the reader brackets ring
//! scan plus overflow look with two epoch loads, retrying until both are
//! the same even value. It is the *only* seqlock on the history: every
//! slot store sits inside the bracket, so a torn record is just another
//! overlapped pass and slots need no sequence word of their own.
//!
//! **The orderings.** The epoch has one writer at a time, the orec's lock
//! holder, and successive holders are ordered by the lock word (release
//! unlock, acquiring CAS), so the epoch only grows. Nothing in publication
//! is a store→load handshake (the Dekker pattern nearby, pin vs floor, is
//! `ro_snap` against the clock RMW and stays `SeqCst`), so nothing here is
//! `SeqCst` or an RMW. *Writer:* epoch → odd, relaxed, then
//! `fence(Release)`; the record — three relaxed slot stores, or the
//! overflow push under its mutex; epoch → even, release; all before the
//! cell store and the orec's release unlock. *Reader:* acquire load of the
//! epoch (`e`, even); relaxed slot loads and the overflow look;
//! `fence(Acquire)`; a relaxed re-load that must return `e`. A pass that
//! reads `e` twice observed the history exactly as the publication that
//! closed at `e` left it:
//!
//! * *Nothing older.* The opening load acquires a closing release store
//!   whose writer follows every earlier publication in the lock chain, so
//!   all of them happen-before the pass's loads.
//! * *Nothing newer, from the ring.* A slot load that returns a later
//!   publication's store sits between that publisher's release fence and
//!   the reader's acquire fence, so the fences synchronize: the odd epoch
//!   stored before the former (above `e`) is visible to the re-load.
//! * *Nothing newer, from overflow.* A divert sets the epoch odd before
//!   taking the overflow mutex (and before its release store of the list
//!   length); a reader that sees its record or its length re-loads the
//!   epoch after that hand-over, and sees the odd value.
//!
//! The same chain makes the reader *start* late enough. It reaches the
//! lookup having acquired an orec word — a version above `T`, or a lock —
//! and every publication ordered before that word's store (its writer's
//! own records, which precede its unlock, and everything earlier in the
//! lock chain) happens-before the opening epoch load: a reader that sees
//! commit `wv` on the orec never opens at an epoch older than `wv`'s
//! records.
//!
//! A stable pass is therefore equivalent to reading ring and overflow at
//! one instant — and at any instant that pair contains every record a
//! pinned reader needs (previous paragraph: protected records are neither
//! evicted nor pruned, and they never migrate between ring and overflow).
//!
//! **The writer looks at one slot.** Each orec keeps a cursor into its
//! ring, owned by the lock holder like the epoch. Stamps published under
//! one orec lock only grow (a later holder draws its `wv` after the
//! earlier one unlocked), a publish fills the cursor slot and advances
//! round-robin, and a divert touches neither ring nor cursor. The ring is
//! thus in stamp order starting at the cursor: that slot is empty or,
//! once the ring has wrapped, holds the smallest stamp — the victim "any
//! empty slot, else the minimum" would pick — and if it is above the
//! floor, so is every other. This holds from any cursor over an empty
//! ring, so windows that clear rings in place leave cursors alone (a
//! resize swaps in fresh orecs, whose cursors start at zero).
//!
//! Per read, the orec's versioned lock word arbitrates:
//!
//! * **Unlocked, version ≤ T** — no commit has touched this orec after
//!   `T`, hence none has touched `addr` after `T` (the orec version
//!   upper-bounds the commit stamps of every address it covers). The cell
//!   value, read under the same `l1`/value/`l2` seqlock sandwich as the
//!   regular path, is the value at `T`. This is the common fast path: no
//!   ring scan at all.
//! * **Unlocked, version > T** — some commit moved this orec past `T`;
//!   reconstruct via the rule above. A lookup miss is *proof* that no
//!   commit overwrote `addr` after `T`: any such commit pushed its record
//!   before storing the cell and before unlocking, the sandwich ordered
//!   our cell read after that unlock, and the record — protected by our
//!   published pin — was still findable at scan time. The sandwiched cell
//!   value is then correct.
//! * **Locked** — the owner may be mid-write-back, so the cell is
//!   unreadable. Try the history first (the owner pushes records *before*
//!   overwriting cells, so a record proving the pre-image appears no later
//!   than the overwrite); otherwise spin until the lock clears and
//!   re-arbitrate. If the owner's commit version turns out ≤ T its new
//!   value *is* the snapshot value and the post-unlock fast path serves
//!   it; if > T the history (or the untouched cell) serves the pre-image.
//!   The wait is bounded by the owner's commit write-back — except under
//!   encounter-time acquisition, where it spans the owner's remaining
//!   execution; read-heavy partitions should prefer commit-time
//!   acquisition (see the README's read-path guidance).
//!
//! Reads at different times thus agree with the one state at timestamp
//! `T`: the snapshot is a consistent cut by construction, not by
//! validation, so there is nothing to validate and nothing that can force
//! an abort.
//!
//! **Against migrations and orec resizes.** Both run strictly inside a
//! flag→quiesce→generation+1 window ([`crate::Stm::resize_orecs`],
//! which also swaps the rings, and [`crate::Stm::migrate`]). A snapshot
//! attempt participates in quiescence exactly like a regular attempt (odd
//! `seq`, `start_epoch`), so the window and the attempt cannot overlap:
//! an attempt that observed the flag clear at first touch runs entirely
//! before the window's mutations, and an attempt that begins after the
//! epoch bump observes the flag and **restarts instead of spinning** —
//! spinning would deadlock against the switcher waiting for us to
//! quiesce. Cached view state (table, mask, ring pointer, depth) is
//! therefore stable for the attempt, and an old table or ring is freed
//! only after the window has closed, by which time the drain has waited
//! out every attempt that could hold a pointer into it (the quiesce
//! module docs, "What a closed window frees").
//!
//! Those windows *discard* accumulated history (rings cleared or swapped
//! fresh, overflow emptied). Safe: readers pinned before the window were
//! drained by the quiesce; a reader pinning after it gets `T` at least
//! the clock value at the window (the clock never goes backwards), while
//! every discarded record closed at `to ≤` that clock value — so no
//! discarded record satisfies `to > T`, meaning no post-window reader
//! could have used it. Its absence routes them to the live cell, which
//! all pre-window commits have fully reached.
//!
//! **Against privatization.** A privatization hold
//! ([`crate::Stm::privatize`]) is the same window with the close deferred:
//! the flag stays installed while a [`crate::PrivateGuard`] owner mutates
//! cells with plain stores, and republish advances the clock, stamps every
//! orec with the new time and truncates rings/overflow before clearing the
//! flag. The same two cases cover snapshot readers exactly: a reader
//! pinned before the hold was drained by the quiesce (it cannot observe
//! any private store), and a reader pinning after republish gets `T` at
//! least the advanced clock — which upper-bounds the close stamp of every
//! truncated record, and which every private store is ordered *before*
//! (the stores happen-before the flag-clearing release that the reader's
//! flag check acquires). A reader that attempts *during* the hold restarts
//! on the flag like any attempt (counted as `snapshot_restarts` plus
//! `privatized_collisions`); there is no third case.
//!
//! # The read fast path
//!
//! [`ReadTx::read`] is inlined into every access site, and so is the
//! common case of both of its steps; only the rest is out of line.
//!
//! * **View.** The most recently used view (`last_view`, reset at begin)
//!   is tested inline: one `SeqCst` binding load compared with the view's
//!   partition pointer. A miss calls `view_of_binding`, which finds an
//!   existing view by pointer or creates one; only creation rechecks the
//!   binding.
//! * **Read.** With the view resolved, the fast path loads `l1`, then (if
//!   `l1` is unlocked) the cell, then `l2`, all acquire
//!   (`Orec::sandwich`, the one statement of this check that the
//!   engine's `Tx::read` shares), and serves the cell's value when all
//!   three serve conditions hold:
//!   1. `l1` is unlocked;
//!   2. `l1 == l2`;
//!   3. `version_of(l1) <= T`.
//!
//!   Serving, it does what the full path does on that outcome: the view's
//!   `reads += 1`. Every other outcome changes nothing and calls
//!   `read_word`, which starts over from scratch: locked (history, else
//!   wait), torn sandwich (retry), moved past `T` (history, else the
//!   cell).
//!
//! **Why it is the same read.** `read_word`'s first iteration is exactly
//! these loads, in this order, with these orderings, and on the serve
//! outcome it returns the same value and bumps the same counter. On any
//! other outcome the fast path's loads are discarded and `read_word` runs
//! its loop from the top, as it does itself after a torn sandwich. The
//! snapshot read has no read set, no kill poll and no sampling, so there
//! are no entry conditions beyond the view. The fast path adds no
//! protocol state and no interleaving.
//!
//! **Why a view hit needs no recheck.** A view exists only if this
//! attempt created it with the partition's switching flag observed clear
//! and, at creation, re-loaded the binding and saw the same pointer. A
//! migration that moves a variable into or out of that partition flags
//! it and then waits for this attempt to quiesce before it rebinds, so
//! while the attempt runs no binding can change to or from that pointer:
//! a fresh binding load equal to the view's partition proves the binding
//! current, as a cached view hit does in `Tx::view_of_binding`. The same
//! holds for a view found by `view_of_binding`'s search, so only a new
//! view pays the second load.
//!
//! # Cost model
//!
//! Writers pay, per written word and only after the point of no return,
//! plain stores on lines they already own: two epoch stores and a cursor
//! store on the orec's line, one stamp load and three record stores on
//! one ring line (a slot is 32 B, aligned, so it never straddles two) —
//! no atomic read-modify-write, no `SeqCst` store, and nothing that
//! depends on `ring_depth`. Readers pay two clock loads and two slot
//! stores per transaction. Per read, on the fast path, they pay one
//! binding load and the same three acquire loads as the engine's
//! invisible read, inline, with no call, no view search, no second
//! binding load and no read-set record — so a snapshot read costs less
//! than a transactional one. The ring is scanned (relaxed loads inside
//! the epoch bracket) only when an orec moved past `T`. Memory is
//! `orec_count × ring_depth × 32` bytes per partition, bounded; the
//! overflow list is pruned against the floor at a doubling watermark, so
//! it is proportional to records actually protected by a live pin.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

use crate::config::{self, Granularity};
use crate::error::{Abort, TxResult};
use crate::orec::{is_locked, version_of, Orec, RingSlot};
use crate::partition::{orec_index, Partition};
use crate::pvar::{PVar, PVarBinding, Read};
use crate::stm::{StmInner, ThreadCtx};
use crate::word::TxWord;

/// Per-partition state of one snapshot attempt: the read-only analogue of
/// the engine's partition view (same one-decode-per-attempt soundness
/// argument, see the `txn` module docs), without the write-side fields.
pub(crate) struct RoView {
    /// The partition, borrowed for the attempt exactly as in the engine's
    /// `PartView` (a `&'e Partition` at view creation; no reference count
    /// is touched). Also the lookup key.
    part: *const Partition,
    granularity: Granularity,
    table: *const Orec,
    mask: usize,
    ring: *const RingSlot,
    ring_depth: usize,
    generation: u32,
    /// Reads served this attempt (flushed as `reads` + `snapshot_reads`).
    reads: u32,
    /// Reads served from a history record rather than the live cell.
    hist_reads: u32,
}

impl RoView {
    #[inline(always)]
    fn part(&self) -> &Partition {
        // SAFETY: the drain covers it, as for the engine's `PartView`:
        // `part` was loaded from a binding inside this attempt, and every
        // caller runs before the attempt's `end_slot`, which a repartition
        // waits for before it drops what it unbound.
        unsafe { &*self.part }
    }
}

impl core::fmt::Debug for RoView {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RoView")
            .field("partition", &self.part)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// Why the current snapshot attempt must restart. Data conflicts are not
/// representable on purpose.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Restart {
    /// Cause already attributed to a partition (switch collision).
    Attributed,
    /// User-requested retry ([`Abort::retry`]); attributed at restart.
    User,
}

/// An in-flight read-only snapshot transaction. Obtained inside
/// [`ThreadCtx::snapshot_read`]; deliberately exposes no write operations
/// — the read-only/update split is enforced by the type, not by a runtime
/// check. It implements [`Read`] and not [`Access`](crate::Access), so
/// every structure operation written over `R: Read<'e>` runs on it.
///
/// Lifetimes mirror [`Tx`](crate::Tx): `'e` is the environment every
/// `&PVar` must outlive, `'s` the engine's borrow of its scratch state.
pub struct ReadTx<'e, 's> {
    stm: &'s StmInner,
    slot: usize,
    views: &'s mut Vec<RoView>,
    /// Index of the most recently used view (the read fast path's MRU
    /// test); `u32::MAX` when no view has been touched this attempt.
    last_view: u32,
    /// The pinned snapshot timestamp.
    t: u64,
    in_attempt: bool,
    restart: Restart,
    _env: PhantomData<fn(&'e ()) -> &'e ()>,
}

impl<'e, 's> ReadTx<'e, 's> {
    /// The snapshot timestamp this attempt is pinned to. Every read
    /// observes the committed state as of exactly this clock value.
    pub fn snapshot_version(&self) -> u64 {
        self.t
    }

    fn begin(&mut self) {
        let slot = &self.stm.slots[self.slot];
        // Same begin as `Tx::begin` (see "One full fence per attempt" in
        // the `txn` module docs): the `seq` RMW is the fence of the
        // quiesce handshake, `start_epoch` only needs release.
        slot.enter_attempt(&self.stm.switch_epoch);
        // Publish-then-re-read pin (module docs): the floor scan must be
        // able to see `p` before we trust any timestamp derived from it.
        // This store→load ordering is the pin handshake itself, so the
        // store stays `SeqCst` — the snapshot path's second and last fence.
        let p = self.stm.clock.now();
        slot.ro_snap.store(p, Ordering::SeqCst);
        self.t = self.stm.clock.now();
        self.views.clear();
        self.last_view = u32::MAX;
        self.restart = Restart::User;
        self.in_attempt = true;
    }

    /// Unpins the snapshot and returns the slot to even (shared by commit,
    /// restart and the panic-unwind drop).
    fn end_slot(&mut self) {
        let slot = &self.stm.slots[self.slot];
        // Both single-writer release stores: a floor scan that still sees
        // the old pin computes a lower (more conservative) floor, and a
        // quiescer that still sees the odd `seq` keeps waiting.
        slot.ro_snap.store(u64::MAX, Ordering::Release);
        slot.leave_attempt();
        self.in_attempt = false;
    }

    fn finish_commit(&mut self) {
        // Same debug tripwire as the regular commit: no touched partition
        // may have switched configurations mid-attempt.
        #[cfg(debug_assertions)]
        for v in self.views.iter() {
            debug_assert_eq!(
                config::generation(v.part().config_word()),
                v.generation,
                "partition config switched mid-snapshot (quiesce protocol violated)"
            );
        }
        // As in `Tx::finish_commit`: every view dereference precedes the
        // end of the attempt, after which a partition may be freed.
        for v in self.views.iter_mut() {
            let st = &v.part().stats;
            st.starts(self.slot, 1);
            st.commits(self.slot, 1);
            st.ro_commits(self.slot, 1);
            st.snapshot_commits(self.slot, 1);
            st.reads(self.slot, v.reads as u64);
            st.snapshot_reads(self.slot, v.reads as u64);
            st.snapshot_history_reads(self.slot, v.hist_reads as u64);
        }
        self.end_slot();
    }

    fn do_restart(&mut self) {
        if self.restart == Restart::User {
            if let Some(v) = self.views.first() {
                v.part().stats.aborts_user(self.slot, 1);
                v.part().stats.snapshot_restarts(self.slot, 1);
            }
        }
        for v in self.views.iter() {
            let st = &v.part().stats;
            st.starts(self.slot, 1);
            st.reads(self.slot, v.reads as u64);
            st.snapshot_reads(self.slot, v.reads as u64);
            st.snapshot_history_reads(self.slot, v.hist_reads as u64);
        }
        self.end_slot();
    }

    /// Resolves the view for a variable from its binding cell, past the
    /// MRU test [`ReadTx::read`] makes inline: a view already created this
    /// attempt is found by pointer, and only a new view rechecks the
    /// binding, exactly as in `Tx::view_of_binding` (module docs, "The
    /// read fast path").
    fn view_of_binding(&mut self, binding: &'e PVarBinding) -> Result<u16, Abort> {
        let part = binding.load_ref();
        let vi = match self.views.iter().position(|v| core::ptr::eq(v.part, part)) {
            Some(i) => i as u16,
            None => {
                let vi = self.view_create(part)?;
                // A changed pointer means the load straddled a completing
                // migration: the attempt restarts as if it had caught the
                // switching flag itself.
                if !core::ptr::eq(binding.load(), part) {
                    let st = &self.views[vi as usize].part().stats;
                    st.snapshot_restarts(self.slot, 1);
                    st.aborts_switching(self.slot, 1);
                    self.restart = Restart::Attributed;
                    return Err(Abort(()));
                }
                vi
            }
        };
        self.last_view = vi as u32;
        Ok(vi)
    }

    /// First contact with a partition this attempt: records its view. A
    /// set switching flag restarts the attempt — abort-not-spin, so the
    /// switcher waiting for our quiescence is never deadlocked (module
    /// docs).
    fn view_create(&mut self, part: &'e Partition) -> Result<u16, Abort> {
        assert_eq!(
            part.stm_id, self.stm.id,
            "partition belongs to a different Stm"
        );
        let word = part.config_word();
        if config::is_switching(word) {
            if config::is_privatized(word) {
                part.stats.privatized_collisions(self.slot, 1);
            }
            part.stats.starts(self.slot, 1);
            part.stats.aborts_switching(self.slot, 1);
            part.stats.snapshot_restarts(self.slot, 1);
            self.restart = Restart::Attributed;
            return Err(Abort(()));
        }
        // Snapshot table and ring registers after observing the flag
        // clear; stable for the attempt (same argument as `Tx`).
        let (table, mask) = part.table_view();
        let (ring, ring_depth) = part.ring_view();
        let cfg = config::decode(word);
        self.views.push(RoView {
            part,
            granularity: cfg.granularity,
            table,
            mask,
            ring,
            ring_depth,
            generation: config::generation(word),
            reads: 0,
            hist_reads: 0,
        });
        Ok((self.views.len() - 1) as u16)
    }

    /// Snapshot read of a partition-bound variable.
    ///
    /// Inlined into every access site together with the common case of
    /// both of its steps (module docs, "The read fast path"): the MRU view
    /// test and the first seqlock sandwich. Anything else goes out of line
    /// to `view_of_binding` or to `read_word`.
    #[inline(always)]
    pub fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        let li = self.last_view as usize;
        let vi = if li < self.views.len() && core::ptr::eq(self.views[li].part, var.binding.load())
        {
            li as u16
        } else {
            self.view_of_binding(&var.binding)?
        };
        let v = &mut self.views[vi as usize];
        let addr = &var.cell as *const AtomicU64 as usize;
        // SAFETY: the index is masked into the view's table, which stays
        // alive and installed for the attempt (module docs).
        let orec = unsafe { v.table.add(orec_index(v.mask, addr, v.granularity)) };
        // SAFETY: `orec` points into that table (previous line).
        let orec = unsafe { &*orec };
        if let Some((_, val)) = orec.sandwich(&var.cell, &self.t) {
            v.reads += 1;
            return Ok(T::from_word(val));
        }
        Ok(T::from_word(self.read_word(vi, &var.cell)))
    }

    /// The snapshot read protocol for one word (module docs, "Why a
    /// pinned snapshot is consistent"). Infallible: every arm either
    /// serves a value or retries locally.
    fn read_word(&mut self, vi: u16, cell: *const AtomicU64) -> u64 {
        let t = self.t;
        let addr = cell as usize;
        let v = &self.views[vi as usize];
        // SAFETY: index masked into the view's table; the allocation is
        // alive for the partition's lifetime and stable for the attempt
        // (module docs).
        let orec_ptr = unsafe { v.table.add(orec_index(v.mask, addr, v.granularity)) };
        // SAFETY: as above.
        let orec = unsafe { &*orec_ptr };
        let mut spins = 0u32;
        loop {
            let l1 = orec.load_lock();
            if !is_locked(l1) {
                // SAFETY: `cell` outlives `'e` (signature of `read`).
                let val = unsafe { &*cell }.load(Ordering::Acquire);
                let l2 = orec.load_lock();
                if l1 != l2 {
                    continue;
                }
                if version_of(l1) <= t {
                    // Fast path: nothing covering `addr` committed after
                    // `T`; the sandwiched cell value is the value at `T`.
                    self.views[vi as usize].reads += 1;
                    return val;
                }
                // The orec moved past `T`: reconstruct from history. A
                // miss proves `addr` itself was not overwritten after `T`
                // (module docs), so the sandwiched value stands.
                if let Some((h, _)) = self.history_lookup(vi, orec_ptr, addr, t) {
                    let v = &mut self.views[vi as usize];
                    v.reads += 1;
                    v.hist_reads += 1;
                    return h;
                }
                self.views[vi as usize].reads += 1;
                return val;
            }
            // Locked: the owner may be mid-write-back. The pre-image, if
            // we need one, is already published (records are pushed before
            // cells are overwritten); otherwise wait for the unlock and
            // re-arbitrate on the new version.
            if let Some((h, _)) = self.history_lookup(vi, orec_ptr, addr, t) {
                let v = &mut self.views[vi as usize];
                v.reads += 1;
                v.hist_reads += 1;
                return h;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                // Single-core friendliness: let the lock owner run.
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// The reconstruction rule's search: among records for `addr` with
    /// close stamp strictly greater than `t`, the value of the one with
    /// the smallest stamp — across the orec's ring and, only when
    /// non-empty, the partition overflow list. Returns `(val, to)`.
    ///
    /// The pass is bracketed by the orec's ring epoch and retried until it
    /// overlapped no publication, which makes it an atomic read of ring +
    /// overflow (the *marching hazard*; module docs). Nothing loaded inside
    /// the bracket is used before the closing check.
    fn history_lookup(
        &self,
        vi: u16,
        orec: *const Orec,
        addr: usize,
        t: u64,
    ) -> Option<(u64, u64)> {
        let v = &self.views[vi as usize];
        let idx = (orec as usize - v.table as usize) / core::mem::size_of::<Orec>();
        debug_assert!(idx <= v.mask);
        // SAFETY: orec points into the view's table (computed by caller).
        let orec = unsafe { &*orec };
        let base = v.ring.wrapping_add(idx * v.ring_depth);
        // SAFETY: the ring has `(mask + 1) * ring_depth` slots and `idx <=
        // mask`; alive and stable as the table is (module docs).
        let ring = unsafe { core::slice::from_raw_parts(base, v.ring_depth) };
        let mut best: Option<(u64, u64)>; // (to, val)
        let mut tries = 0u32;
        let mut scanned = 0u64;
        loop {
            if let Some(epoch) = orec.ring_read_begin() {
                best = None;
                for slot in ring {
                    let (a, val, to) = slot.load();
                    scanned += 1;
                    if a == addr as u64 && to > t && best.is_none_or(|(bt, _)| to < bt) {
                        best = Some((to, val));
                    }
                }
                // INSIDE the bracket: an overflow record found after an
                // unprotected gap could shadow a smaller-stamped ring
                // record published into the gap (second marching variant).
                if v.part().overflow_len() > 0 {
                    if let Some((val, to)) = v.part().overflow_best(addr, t) {
                        if best.is_none_or(|(bt, _)| to < bt) {
                            best = Some((to, val));
                        }
                    }
                }
                if orec.ring_read_validate(epoch) {
                    break;
                }
            }
            tries += 1;
            if tries.is_multiple_of(64) {
                // Single-core friendliness: let the publisher finish.
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
        // Total slots visited, retries included: the histogram shape shows
        // both configured depth and epoch-bracket churn.
        if crate::telemetry::enabled() {
            crate::telemetry::global()
                .snapshot_scan_depth
                .record(scanned);
        }
        best.map(|(to, val)| (val, to))
    }
}

/// The snapshot protocol as a [`Read`]: the inherent method's body.
impl<'e> Read<'e> for ReadTx<'e, '_> {
    #[inline]
    fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        ReadTx::read(self, var)
    }
}

impl Drop for ReadTx<'_, '_> {
    fn drop(&mut self) {
        // Cleans up after a panic in user code mid-attempt: the pin must
        // be released and the slot returned to even, or the next quiesce
        // would wait on us forever.
        if self.in_attempt {
            self.end_slot();
        }
        // The views borrow partitions for `'e` (see `RoView::part`).
        self.views.clear();
    }
}

impl ThreadCtx {
    /// Runs `f` as a read-only transaction against a consistent snapshot,
    /// retrying until it completes. **Cannot abort on data conflicts**:
    /// concurrent writers never invalidate a pinned snapshot (module
    /// docs), so the only restarts are a configuration switch caught in
    /// flight and [`Abort::retry`] from the closure itself.
    ///
    /// The closure receives a [`ReadTx`], which exposes reads only — the
    /// read/update split is enforced at compile time. Writes (and reads
    /// that must observe them) go through [`ThreadCtx::run`].
    ///
    /// Reads observe the committed state as of one clock value
    /// ([`ReadTx::snapshot_version`]), which is pinned *at attempt begin*:
    /// values committed after the snapshot was pinned are not visible,
    /// the price of never validating. Lifetime obligations are as in
    /// [`ThreadCtx::run`].
    ///
    /// # Panics
    ///
    /// Panics if called from inside a running transaction on the same
    /// thread (nesting is not supported).
    pub fn snapshot_read<'e, T, F>(&'e self, mut f: F) -> T
    where
        F: for<'s> FnMut(&mut ReadTx<'e, 's>) -> TxResult<T>,
    {
        let mut scratch = self
            .scratch
            .try_borrow_mut()
            .expect("snapshot_read inside a running transaction on the same thread");
        // Take the view buffer out so a panic cannot leave it aliased;
        // restored below (a panic merely costs its capacity).
        let mut views = std::mem::take(&mut scratch.ro_views);
        let out = {
            let mut rtx = ReadTx {
                stm: &self.stm.inner,
                slot: self.slot,
                views: &mut views,
                last_view: u32::MAX,
                t: 0,
                in_attempt: false,
                restart: Restart::User,
                _env: PhantomData,
            };
            loop {
                rtx.begin();
                match f(&mut rtx) {
                    Ok(v) => {
                        rtx.finish_commit();
                        break v;
                    }
                    Err(_) => {
                        rtx.do_restart();
                        std::thread::yield_now();
                    }
                }
            }
        };
        scratch.ro_views = views;
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{AcquireMode, PartitionConfig};
    use crate::error::Abort;
    use crate::stm::Stm;

    #[test]
    fn snapshot_read_sees_committed_state() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let a = p.tvar(10u64);
        let b = p.tvar(20u64);
        let ctx = stm.register_thread();
        let (va, vb, t) = ctx.snapshot_read(|tx| {
            let va = tx.read(&a)?;
            let vb = tx.read(&b)?;
            Ok((va, vb, tx.snapshot_version()))
        });
        assert_eq!((va, vb), (10, 20));
        assert_eq!(t, stm.clock_now());
        let s = p.stats();
        assert_eq!(s.snapshot_commits, 1);
        assert_eq!(s.snapshot_reads, 2);
        assert_eq!(s.snapshot_restarts, 0);
        assert_eq!(s.ro_commits, 1, "snapshot commits count as ro commits");
        assert_eq!(s.aborts(), 0);
    }

    #[test]
    fn snapshot_read_serves_history_after_overwrites() {
        // Force every address onto one orec so an unrelated write moves
        // the orec version past the snapshot and the ring must answer.
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(1).ring(4));
        let x = p.tvar(1u64);
        let y = p.tvar(100u64);
        let ctx = stm.register_thread();
        // Commit a few overwrites of y; x stays at 1 the whole time.
        for i in 0..3u64 {
            ctx.run(|tx| tx.write(&y, 101 + i));
        }
        let (vx, vy) = ctx.snapshot_read(|tx| Ok((tx.read(&x)?, tx.read(&y)?)));
        assert_eq!(vx, 1);
        assert_eq!(vy, 103);
        assert_eq!(p.stats().snapshot_restarts, 0);
    }

    #[test]
    fn user_retry_restarts_without_abort_counters_beyond_user() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(7u64);
        let ctx = stm.register_thread();
        let mut tries = 0;
        let v = ctx.snapshot_read(|tx| {
            tries += 1;
            let v = tx.read(&x)?;
            if tries < 3 {
                return Err(Abort::retry());
            }
            Ok(v)
        });
        assert_eq!(v, 7);
        assert_eq!(tries, 3);
        let s = p.stats();
        assert_eq!(s.snapshot_restarts, 2);
        assert_eq!(s.aborts_user, 2);
        assert_eq!(s.snapshot_commits, 1);
    }

    #[test]
    fn switching_flag_restarts_instead_of_spinning() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(3u64);
        let ctx = stm.register_thread();
        p.debug_force_switch_flag(true);
        let mut saw_flag = false;
        let v = ctx.snapshot_read(|tx| {
            match tx.read(&x) {
                Ok(v) => Ok(v),
                Err(e) => {
                    // First attempt hits the flag; clear it so the retry
                    // succeeds (a real switch clears it itself).
                    saw_flag = true;
                    p.debug_force_switch_flag(false);
                    Err(e)
                }
            }
        });
        assert_eq!(v, 3);
        assert!(saw_flag);
        let s = p.stats();
        assert_eq!(s.aborts_switching, 1);
        assert_eq!(s.snapshot_restarts, 1);
    }

    #[test]
    fn snapshot_never_blocks_on_commit_time_writers() {
        // Concurrent writers under commit-time acquisition: snapshot
        // readers must complete with zero data-conflict restarts.
        let stm = Stm::new();
        let p = stm.new_partition(
            PartitionConfig::default()
                .orecs(8)
                .ring(4)
                .acquire(AcquireMode::Commit),
        );
        let vars: Vec<_> = (0..4)
            .map(|i| std::sync::Arc::new(p.tvar(i as u64)))
            .collect();
        let sum0: u64 = (0..4).sum();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ctx = stm.register_thread();
                let vars = vars.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let (a, b) = ((i % 4) as usize, ((i + 1) % 4) as usize);
                        ctx.run(|tx| {
                            let va = tx.read(&vars[a])?;
                            let vb = tx.read(&vars[b])?;
                            tx.write(&vars[a], va.wrapping_sub(1))?;
                            tx.write(&vars[b], vb.wrapping_add(1))?;
                            Ok(())
                        });
                    }
                });
            }
            let ctx = stm.register_thread();
            let vars = vars.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    let total = ctx.snapshot_read(|tx| {
                        let mut t = 0u64;
                        for v in vars.iter() {
                            t = t.wrapping_add(tx.read(v)?);
                        }
                        Ok(t)
                    });
                    assert_eq!(total, sum0, "snapshot saw an inconsistent cut");
                }
            });
        });
        let s = p.stats();
        assert_eq!(s.snapshot_commits, 500);
        assert_eq!(s.snapshot_restarts, 0, "no switch ran: zero restarts");
    }

    /// One orec's history driven step by step against a `BTreeMap` model
    /// of each address's commit history. Everything runs on one thread:
    /// snapshot readers are simulated by pinning registered slots by hand,
    /// so the rig can hold several pins across commits and interrogate
    /// `history_lookup` for each of them after every step.
    mod history_model {
        use std::collections::BTreeMap;
        use std::sync::Arc;

        use proptest::prelude::*;

        use super::super::{ReadTx, Restart};
        use crate::config::{AcquireMode, PartitionConfig};
        use crate::partition::Partition;
        use crate::pvar::PVar;
        use crate::stm::{Stm, ThreadCtx};
        use core::marker::PhantomData;
        use core::sync::atomic::Ordering;

        #[derive(Clone, Copy, Debug)]
        pub(super) enum Step {
            /// Commit an overwrite of one variable.
            Write(usize),
            /// Commit an overwrite of two variables (same orec, same stamp).
            WritePair(usize, usize),
            /// Pin reader `k` at the current clock.
            Pin(usize),
            /// Release reader `k`'s pin.
            Unpin(usize),
            /// Configuration switch: a window that clears rings in place.
            Clear,
        }

        const VARS: usize = 3;
        const READERS: usize = 3;

        pub(super) struct Rig {
            stm: Stm,
            part: Arc<Partition>,
            vars: Vec<PVar<u64>>,
            /// Current committed value of each variable.
            cur: [u64; VARS],
            /// Per variable: commit stamp -> the value that commit overwrote.
            model: [BTreeMap<u64, u64>; VARS],
            writer: ThreadCtx,
            readers: Vec<ThreadCtx>,
            pins: [Option<u64>; READERS],
        }

        impl Rig {
            pub(super) fn new(depth: usize) -> Self {
                let stm = Stm::new();
                // One orec: every variable shares it, every publish lands in
                // the same ring.
                let part = stm.new_partition(PartitionConfig::default().orecs(1).ring(depth));
                let vars = (0..VARS).map(|i| part.tvar(i as u64)).collect();
                let writer = stm.register_thread();
                let readers = (0..READERS).map(|_| stm.register_thread()).collect();
                Rig {
                    stm,
                    part,
                    vars,
                    cur: core::array::from_fn(|i| i as u64),
                    model: Default::default(),
                    writer,
                    readers,
                    pins: [None; READERS],
                }
            }

            fn set_pin(&mut self, k: usize, pin: Option<u64>) {
                self.stm.inner.slots[self.readers[k].slot()]
                    .ro_snap
                    .store(pin.unwrap_or(u64::MAX), Ordering::SeqCst);
                self.pins[k] = pin;
            }

            /// A window drains every reader pinned before it.
            fn drain_pins(&mut self) {
                for k in 0..READERS {
                    self.set_pin(k, None);
                }
            }

            fn commit(&mut self, targets: &[usize]) {
                let vars = &self.vars;
                let cur = &self.cur;
                self.writer.run(|tx| {
                    for &i in targets {
                        tx.write(&vars[i], cur[i] + 10)?;
                    }
                    Ok(())
                });
                let wv = self.stm.clock_now();
                for &i in targets {
                    self.model[i].insert(wv, self.cur[i]);
                    self.cur[i] += 10;
                }
            }

            pub(super) fn step(&mut self, step: Step) {
                match step {
                    Step::Write(i) => self.commit(&[i % VARS]),
                    Step::WritePair(i, j) => {
                        let mut targets = vec![i % VARS, j % VARS];
                        targets.dedup();
                        self.commit(&targets)
                    }
                    Step::Pin(k) => self.set_pin(k % READERS, Some(self.stm.clock_now())),
                    Step::Unpin(k) => self.set_pin(k % READERS, None),
                    Step::Clear => {
                        self.drain_pins();
                        let mut cfg = self.part.current_config();
                        cfg.acquire = match cfg.acquire {
                            AcquireMode::Encounter => AcquireMode::Commit,
                            AcquireMode::Commit => AcquireMode::Encounter,
                        };
                        assert!(self.stm.switch_partition(&self.part, cfg).switched());
                    }
                }
                self.check(step);
            }

            fn check(&self, after: Step) {
                let (table, mask) = self.part.table_view();
                let (ring, depth) = self.part.ring_view();
                assert_eq!(mask, 0);
                // SAFETY: a one-orec table, alive as long as the partition.
                let orec = unsafe { &*table };
                // SAFETY: its `depth`-slot ring, alive as long as the table.
                let slots = unsafe { core::slice::from_raw_parts(ring, depth) };
                // (i) The cursor slot is empty or the ring's minimum.
                let cursor = orec.ring_cursor();
                assert!(
                    cursor < depth,
                    "after {after:?}: cursor {cursor} >= depth {depth}"
                );
                let victim = slots[cursor].close_stamp();
                assert!(
                    victim == 0 || slots.iter().all(|s| s.close_stamp() >= victim),
                    "after {after:?}: cursor slot holds {victim}, ring {:?}",
                    slots.iter().map(|s| s.close_stamp()).collect::<Vec<_>>()
                );
                // (ii) Every pinned reader reconstructs the model's answer.
                for (k, pin) in self.pins.iter().enumerate() {
                    let Some(t) = *pin else { continue };
                    let mut views = Vec::new();
                    let mut rtx = ReadTx {
                        stm: &self.stm.inner,
                        slot: self.readers[k].slot(),
                        views: &mut views,
                        last_view: u32::MAX,
                        t,
                        in_attempt: false,
                        restart: Restart::User,
                        _env: PhantomData,
                    };
                    let vi = rtx.view_create(&self.part).expect("no window is open");
                    for i in 0..VARS {
                        let addr = self.vars[i].cell.as_ptr() as usize;
                        let want = self.model[i].range(t + 1..).next();
                        assert_eq!(
                            rtx.history_lookup(vi, table, addr, t),
                            want.map(|(&to, &old)| (old, to)),
                            "after {after:?}: var {i} at pin {t}"
                        );
                        let value = rtx.read(&self.vars[i]).expect("reads cannot fail");
                        assert_eq!(value, want.map_or(self.cur[i], |(_, &old)| old));
                    }
                }
            }
        }

        /// Scripted walk through every transition the cursor has to
        /// survive — wrap, divert under a pin, recycle after the unpin, an
        /// in-place clear mid-ring — once per ring depth: the minimum, a
        /// power of two, a non-power-of-two and a deeper ring.
        #[test]
        fn cursor_and_lookup_follow_the_model_through_every_transition() {
            use Step::*;
            let script = [
                Write(0),
                Write(1),
                Write(0), // fill, then wrap
                Pin(0),
                Write(0),
                WritePair(1, 2),
                Write(0), // protected: diverts
                Pin(1),
                Write(2),
                Write(0),
                Unpin(0),
                Write(1), // floor rose to pin 1: recycles again
                Unpin(1),
                Write(0),
                Write(0),
                Write(0),
                Clear,
                Write(1),
                Pin(2),
                Write(1),
                Write(1),
                Write(1),
                Write(0),
                Write(1),
                Write(2),
                Write(0),
                Write(1),
                Write(2),
                Write(0),
                Write(1), // a deep ring wraps under the pin too
                Unpin(2),
                Write(0),
                Clear,
                Write(2),
                Write(2),
                Write(2),
            ];
            for depth in [1, 2, 3, 8] {
                let mut rig = Rig::new(depth);
                for step in script {
                    rig.step(step);
                }
                let s = rig.part.stats();
                assert!(
                    s.ring_overflow_pushes > 0,
                    "depth {depth}: the script diverts under its pins"
                );
            }
        }

        fn step_strategy() -> impl Strategy<Value = Step> {
            (0..100u8, 0..6usize, 0..6usize).prop_map(|(kind, a, b)| match kind {
                0..=39 => Step::Write(a),
                40..=59 => Step::WritePair(a, b),
                60..=74 => Step::Pin(a),
                75..=84 => Step::Unpin(a),
                _ => Step::Clear,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 96 }))]

            #[test]
            fn cursor_and_lookup_follow_the_model_under_random_steps(
                depth in 0..4usize,
                steps in proptest::collection::vec(step_strategy(), 1..120),
            ) {
                let mut rig = Rig::new([1, 2, 3, 8][depth]);
                for step in steps {
                    rig.step(step);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "snapshot_read inside a running transaction")]
    fn nesting_inside_run_panics() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(1u64);
        let ctx = stm.register_thread();
        ctx.run(|_tx| {
            let _ = ctx.snapshot_read(|rtx| rtx.read(&x));
            Ok(())
        });
    }
}

/// One deterministic, single-thread test per exit of the snapshot read's
/// fast path (module docs, "The read fast path"): each sets up exactly one
/// reason to leave it and checks that the full path still serves the value
/// at the pin and counts it where it belongs.
#[cfg(test)]
mod read_path {
    use crate::config::PartitionConfig;
    use crate::pvar::{Migratable, PVar};
    use crate::stm::Stm;

    #[test]
    fn fast_reads_count_every_read() {
        const N: u64 = 48;
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let vars: Vec<PVar<u64>> = (0..N).map(|v| p.tvar(v)).collect();
        let ctx = stm.register_thread();
        let sum = ctx.snapshot_read(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, (0..N).sum::<u64>());
        let s = p.stats();
        assert_eq!((s.reads, s.snapshot_reads), (N, N));
        assert_eq!(s.snapshot_history_reads, 0);
        assert_eq!((s.snapshot_commits, s.snapshot_restarts), (1, 0));
    }

    #[test]
    fn orec_locked_by_another_slot_serves_the_history_pre_image() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(1u64);
        let pad = p.tvar(0u64);
        let (writer, holder, reader) = (
            stm.register_thread(),
            stm.register_thread(),
            stm.register_thread(),
        );
        // Move the clock past every slot index: a locked word taken for a
        // version (the owner's slot) would then pass the version test.
        for i in 1..=8 {
            writer.run(|tx| tx.write(&pad, i));
        }
        let seen = reader.snapshot_read(|tx| {
            // After the pin: the ring now holds (x, 1, to > T).
            writer.run(|w| w.write(&x, 2));
            let mut got = None;
            holder.run(|h| {
                // An encounter-time lock on `x`, held while the reader
                // reads; the live cell holds the post-pin value 2.
                h.write(&x, 3)?;
                got = Some(tx.read(&x));
                Ok(())
            });
            got.expect("the holder ran once")
        });
        assert_eq!(seen, 1);
        assert_eq!(x.load_direct(), 3);
        let s = p.stats();
        assert_eq!((s.snapshot_reads, s.snapshot_history_reads), (1, 1));
        assert_eq!(s.snapshot_restarts, 0);
    }

    #[test]
    fn orec_moved_past_the_pin_serves_the_pre_image() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(1u64);
        let (writer, reader) = (stm.register_thread(), stm.register_thread());
        let seen = reader.snapshot_read(|tx| {
            writer.run(|w| w.write(&x, 2));
            tx.read(&x)
        });
        assert_eq!(seen, 1);
        assert_eq!(x.load_direct(), 2);
        let s = p.stats();
        assert_eq!((s.snapshot_reads, s.snapshot_history_reads), (1, 1));
    }

    #[test]
    fn orec_moved_past_the_pin_by_an_aliased_word_serves_the_live_cell() {
        // One orec: a commit to `y` moves the orec that also covers `x`.
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(1));
        let (x, y) = (p.tvar(1u64), p.tvar(100u64));
        let (writer, reader) = (stm.register_thread(), stm.register_thread());
        let seen = reader.snapshot_read(|tx| {
            writer.run(|w| w.write(&y, 101));
            // The lookup misses for `x`, which proves its cell stands.
            let vx = tx.read(&x)?;
            let hist_after_x = p.stats().snapshot_history_reads;
            Ok((vx, hist_after_x, tx.read(&y)?))
        });
        assert_eq!(seen, (1, 0, 100));
        let s = p.stats();
        assert_eq!((s.snapshot_reads, s.snapshot_history_reads), (2, 1));
    }

    #[test]
    fn alternating_partitions_miss_then_hit_without_restart() {
        let stm = Stm::new();
        let (p, q) = (
            stm.new_partition(PartitionConfig::named("p")),
            stm.new_partition(PartitionConfig::named("q")),
        );
        let (a, b) = (p.tvar(1u64), q.tvar(2u64));
        let ctx = stm.register_thread();
        let mut attempts = 0;
        let trail = ctx.snapshot_read(|tx| {
            attempts += 1;
            let mut trail = Vec::new();
            for (var, want) in [(&a, 1), (&a, 1), (&b, 2), (&b, 2), (&a, 1), (&b, 2)] {
                assert_eq!(tx.read(var)?, want);
                trail.push((tx.last_view, tx.views.len()));
            }
            Ok(trail)
        });
        // Each partition gets one view; the MRU follows the partition read.
        assert_eq!(trail, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (1, 2)]);
        assert_eq!(attempts, 1);
        for part in [&p, &q] {
            let s = part.stats();
            assert_eq!((s.snapshot_reads, s.snapshot_commits), (3, 1));
            assert_eq!((s.snapshot_restarts, s.aborts()), (0, 0));
        }
    }

    #[test]
    fn variable_migrated_between_attempts_resolves_to_its_new_partition() {
        let stm = Stm::new();
        let (p, q) = (
            stm.new_partition(PartitionConfig::named("p")),
            stm.new_partition(PartitionConfig::named("q")),
        );
        let (x, stay) = (p.tvar(5u64), p.tvar(6u64));
        let ctx = stm.register_thread();
        assert_eq!(ctx.snapshot_read(|tx| tx.read(&x)), 5);
        let moved: &dyn Migratable = &x;
        assert!(stm.migrate_pvars(&[moved], &q).switched());
        // `stay` makes `p` the MRU view; `x` must miss it and reach `q`.
        let seen = ctx.snapshot_read(|tx| Ok((tx.read(&stay)?, tx.read(&x)?)));
        assert_eq!(seen, (6, 5));
        let (sp, sq) = (p.stats(), q.stats());
        assert_eq!((sp.snapshot_reads, sq.snapshot_reads), (2, 1));
        assert_eq!((sp.snapshot_commits, sq.snapshot_commits), (2, 1));
        assert_eq!(sp.snapshot_restarts + sq.snapshot_restarts, 0);
    }

    #[test]
    fn switching_flag_restarts_the_attempt_counted_once() {
        let stm = Stm::new();
        let (p, q) = (
            stm.new_partition(PartitionConfig::named("p")),
            stm.new_partition(PartitionConfig::named("q")),
        );
        let (a, b) = (p.tvar(1u64), q.tvar(2u64));
        let ctx = stm.register_thread();
        q.debug_force_switch_flag(true);
        let mut attempts = 0;
        let seen = ctx.snapshot_read(|tx| {
            attempts += 1;
            let va = tx.read(&a)?;
            match tx.read(&b) {
                Ok(vb) => Ok((va, vb)),
                Err(e) => {
                    // A real switch clears its flag itself.
                    q.debug_force_switch_flag(false);
                    Err(e)
                }
            }
        });
        assert_eq!((seen, attempts), ((1, 2), 2));
        let (sp, sq) = (p.stats(), q.stats());
        assert_eq!((sq.snapshot_restarts, sq.aborts_switching), (1, 1));
        assert_eq!(sq.aborts(), 1);
        assert_eq!((sp.snapshot_restarts, sp.aborts()), (0, 0));
        // Both attempts count as starts; the first attempt's read of `a`
        // is flushed at its restart.
        assert_eq!((sp.starts, sq.starts), (2, 2));
        assert_eq!((sp.snapshot_reads, sq.snapshot_reads), (2, 1));
    }
}
