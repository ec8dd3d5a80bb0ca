//! The transaction engine: begin / read / write / commit / abort.
//!
//! The protocol is TinySTM's word-based design extended with per-partition
//! metadata:
//!
//! * snapshot at begin (`rv` = global clock), lazy snapshot extension (LSA)
//!   on reads past `rv`;
//! * invisible reads: the `l1 / value / l2` seqlock sandwich against the
//!   covering ownership record, entry recorded for commit-time validation;
//! * visible reads: reader bit in the orec's bitmap; writers arbitrate
//!   (kill or yield) at acquisition time; no commit-time validation needed;
//! * writes: buffered (write-back) with the orec acquired either at
//!   encounter time or commit time, per the partition's configuration;
//! * commit: acquire remaining locks, take `wv` from the clock, validate
//!   invisible reads (skipped when `rv + 1 == wv`), write back, release
//!   with `wv`.
//!
//! ## Lifetimes
//!
//! [`Tx<'e, 's>`] carries two lifetimes: `'e` is the *environment* — every
//! `&PVar` passed to a transactional operation must outlive the whole
//! [`ThreadCtx::run`] call (so the engine's internal pointers stay valid
//! through commit even if user code drops its own handles early), and `'s`
//! is the engine's internal borrow of its scratch state. User closures are
//! generic over `'s` only.
//!
//! ## Partition views: one config decode per attempt
//!
//! Every attempt keeps a *partition view* table: the first touch of a
//! partition loads its config word (one `SeqCst` load), rejects the attempt
//! if the switching flag is set, and caches the decoded [`DynConfig`] plus
//! generation — and, since orec tables became resizable, the table's base
//! pointer and index mask — in the view. Every later access to that
//! partition resolves to the cached view (a one-entry MRU fast path backed
//! by a stamped hash index) and never re-reads the config word or the
//! table registers.
//!
//! **Soundness.** Caching the decode (and the table pointer/mask) for the
//! whole attempt is sound because the quiesce-based switch protocol (see
//! [`crate::Stm::switch_partition`]; [`crate::Stm::resize_orecs`] runs the
//! identical window) guarantees no attempt spans a configuration switch or
//! table resize:
//!
//! 1. the switcher sets the partition's *switching* flag **before** bumping
//!    the global switch epoch, so any attempt that begins after the bump
//!    (its `start_epoch` is past the bump) observes the flag at first touch
//!    — all the loads involved are `SeqCst`, ordered after the attempt's
//!    one fence (see "One full fence per attempt" below) — and aborts
//!    without caching anything;
//! 2. the switcher waits for every attempt begun **before** the bump (odd
//!    `seq`, older `start_epoch`) to finish before it resets (or swaps)
//!    the orec table and installs the new config word.
//!
//! Hence a view snapshotted at first touch is, for the rest of the attempt,
//! identical to what a per-access decode would produce, and the cached
//! generation — and every orec pointer derived from the cached table —
//! is stable until the attempt's `seq` returns to even. (A table retired
//! by a resize is freed only after its window closes, and that window's
//! drain waited for this `seq` to return to even first, so every orec
//! access of the attempt, rollback included, precedes the free.)
//!
//! ## One full fence per attempt
//!
//! The quiesce handshake is a store-buffering (Dekker) pattern: an attempt
//! announces itself and then loads config words; a switcher sets a flag
//! and then loads the announcements; at least one side must see the
//! other. On the attempt's side that takes exactly one store→load fence,
//! and it is the `SeqCst` `fetch_add` that turns the slot's `seq` odd in
//! `Tx::begin` (`ThreadSlot::enter_attempt`). Everything else `begin` and
//! the end of the attempt publish has a single writer (the slot's owner)
//! and needs release ordering at most. The switcher's side (the quiesce
//! window in `quiesce.rs`: its flag CAS, `bump_epoch_and_quiesce` and
//! `raise_kills`) stays `SeqCst` throughout. Write *S* for
//! the total order of `SeqCst` operations; the switcher runs `flag CAS <S
//! epoch bump <S seq load <S start_epoch load`, an attempt runs `seq RMW
//! <S epoch load <S config loads`.
//!
//! * **`seq` → odd: `SeqCst` RMW, cannot be weaker.** If the switcher's
//!   `seq` load returns an even value, the `seq` RMW of every later
//!   attempt follows that load in *S* (else the load would have returned
//!   the RMW's value or a later one), hence follows the flag CAS, and the
//!   attempt's config load observes the flag. If it returns an odd value
//!   and that attempt did *not* observe the flag, the attempt's config
//!   load — and so its epoch load — precedes the flag CAS in *S*: it
//!   loaded an epoch below the bumped one and the drain waits for it.
//! * **`start_epoch`: release store.** Epochs only grow, and a slot only
//!   publishes epochs it loaded after a `seq` RMW. So whatever the drain
//!   reads — this attempt's value or, when the store has not landed yet,
//!   an earlier attempt's — is at most the epoch this attempt loaded: **a
//!   stale `start_epoch` is only ever older, so the drain only ever waits
//!   longer.** A value at or above the bumped epoch, whichever attempt
//!   stored it, proves an epoch load of this slot followed the bump in
//!   *S*; every config load program-ordered after that load (the rest of
//!   that attempt and all later ones) follows the flag CAS and observes
//!   the flag.
//! * **leaving (`seq` → even): release store of "my odd value + 1".** The
//!   switcher mutates a partition only after acquiring an even `seq` or a
//!   `start_epoch` at or above its epoch, both release-stored after
//!   everything the drained attempt did, so the attempt's reads, unlocks
//!   and reader-bit clears happen-before the mutation. Seeing the even
//!   value late only prolongs the wait. Nothing after an attempt depends
//!   on a store→load fence here: the tuner hook that may run a switch
//!   next reads its own slot's `seq` in program order.
//! * **kill-clear → serial-publish: release, acquired by the killer.** A
//!   killer loads the victim's `serial` and stores that value into
//!   `kill`. Having read serial *n* it synchronised with the release
//!   store of *n*, which follows the clear in program order; the clear
//!   therefore happens-before the kill store and precedes it in `kill`'s
//!   modification order — the request cannot be erased by the clear of
//!   the attempt it names. Having read an older serial, the request names
//!   a finished attempt and matches nothing. There is no store→load
//!   pattern here, and the victim *polls* `kill`, so release/acquire plus
//!   eventual visibility is all it needs.
//!
//! The snapshot read path ([`crate::snapshot`]) announces itself the same
//! way and then pays one fence of its own: the pin handshake with the
//! eviction floor (publish `ro_snap`, *then* re-read the clock) is a
//! second store-buffering pattern, so that store stays `SeqCst`. Unpinning
//! and leaving are release stores.
//!
//! ## Refcount-free views
//!
//! A view *borrows* its partition; it never touches the `Arc` strong
//! count, a line every thread of the partition would otherwise RMW twice
//! per transaction. The borrow is covered by the drain: the pointer was
//! loaded from a binding inside the attempt, and a repartition that
//! unbinds it drops its reference only after a grace period that waits the
//! attempt out (`pvar` module docs). So every view dereference — the
//! statistics flush, the profiler sample's partition ids, the tuner hook's
//! owning `Arc` — happens before `seq` returns to even; after that the
//! partition may be gone.
//!
//! The view stores it as a raw pointer only because the scratch tables
//! outlive the attempt; they are emptied when the `Tx` drops. An owning
//! `Arc` is manufactured in one place: the tuner hook, on every
//! `stride`-th own commit of a *tunable* partition while a tuner is
//! installed; the policy runs on it after the attempt.
//!
//! ## Synchronization budget
//!
//! Every atomic access of a conflict-free update commit — the benchmark's
//! two-account transfer: read, read, write, write in one default-config
//! partition (invisible reads, encounter-time locks), nothing sampled —
//! with its ordering and the reason it is not weaker. "Locked" counts
//! instructions that drain the store buffer on x86-64 (atomic RMWs and
//! `SeqCst` stores), the "expensive synchronization" of Ravi's cost model;
//! loads of any ordering and release/relaxed stores are plain `mov`s.
//!
//! | phase | access | ordering | why not weaker | locked, before → now |
//! |---|---|---|---|---|
//! | begin | `kill` clear, `serial` publish | release stores | clear must be visible to a killer that acquires `serial` | 2 → 0 |
//! | begin | `seq` → odd | `SeqCst` RMW | *the* fence of the quiesce handshake | 1 → 1 |
//! | begin | `switch_epoch` load, `start_epoch` store | `SeqCst` load, release store | load must follow the `seq` RMW in *S*; the store only ever reports an older epoch | 1 → 0 |
//! | begin | clock load (`rv`) | acquire | sees the write-back of every commit ≤ `rv` | 0 |
//! | begin | `profile_period`, telemetry switch | relaxed loads | on/off switches, publish nothing | 0 |
//! | first touch | binding load ×2, config-word load | `SeqCst` loads | the handshake's load side; binding recheck is ordered against the flag | 0 |
//! | first touch | table / mask / ring / depth loads | acquire | see the installed table's contents | 0 |
//! | first touch | `Arc<Partition>` strong count | — (gone) | views borrow | 1 → 0 |
//! | read ×2 | `kill` poll; orec `l1`, cell, orec `l2` | `SeqCst` load; acquire ×3 | seqlock sandwich pairs with the writer's release unlock; the inlined fast path performs these same loads (below) | 0 |
//! | write ×2 | `kill` poll, orec lock load | `SeqCst` loads | —; no read-set scan follows, so a write costs the same at any read-set size ("Why acquisition needs no read-set scan") | 0 |
//! | write ×2 | orec CAS | `SeqCst` RMW | lock acquisition; `SeqCst` because lock-then-check-readers races set-bit-then-check-lock | 2 → 2 |
//! | write ×2 | hint store; reader-bitmap load; fault switch | relaxed; `SeqCst` load; relaxed | telemetry; arbitration's load side; on/off switch | 0 |
//! | commit | `kill` poll, `ro_floor` load | `SeqCst` loads | — | 0 |
//! | commit | clock `fetch_add` (`wv`) | acq-rel RMW | the commit order | 1 → 1 |
//! | commit ×2 | ring: cursor + stamp load, `ring_epoch` → odd, `fence(Release)`, record ×3, cursor, `ring_epoch` → even | relaxed; release fence; relaxed ×4; release | single-writer seqlock under the orec lock, no store→load handshake ([`crate::snapshot`], "The orderings"); was two `SeqCst` RMWs + five `SeqCst` stores + a min-scan of `ring_depth` stamps | 14 → 0 |
//! | commit ×2 | cell load / store, orec unlock | acquire / release, release | unlock publishes the written data | 0 |
//! | leave | clock load for `free_tag` | acquire | only when the free log is non-empty | 0 |
//! | leave | `starts`, `commits`, `update_commits`, `reads`, `writes` | relaxed load + store, own shard (were `fetch_add`s on a shared shard) | single writer per slot ([`crate::stats`]); before `seq` → even, which ends the view borrows | 5 → 0 |
//! | leave | view table clear, tuner hook's `Arc` clone + drop | — (gone for non-tunable partitions) | `tunable` is tested before the clone | 3 → 0 |
//! | leave | tuner hook: window copy (`tune_window`) | relaxed load | on/off switch; 0 = no tuner and the hook returns, touching nothing else | 0 |
//! | leave | `seq` → even | release store (was `SeqCst` RMW) | single writer; a late even value only prolongs a drain | 1 → 0 |
//! | | **total** | | | **31 → 4**: the `seq` RMW, two orec CASes, the clock RMW — the protocol itself |
//! | leave, *tunable* partition (not in the total) | own shard's `commits` and `snapshot_commits`; every `stride`-th own commit only (`stride = min(64, window)`): tuner `RwLock` read, policy and partition `Arc` clone + drop, `tune_gate` `fetch_add` (plus one claiming CAS when that fills a window) | relaxed loads; the rest as before | single writer per slot ([`crate::tuner`], "Cadence"); the shared state is visited once per stride | 7 → 0 per commit (7 per stride); with no tuner installed, 4 → 0: nothing after the window load |
//!
//! [`ThreadCtx::snapshot_read`] of one partition, before → now: 13 → 2
//! locked instructions. What remains is the `seq` RMW and the `SeqCst`
//! `ro_snap` pin (the two store→load fences of the quiesce and pin
//! handshakes). Gone: the `start_epoch` `SeqCst` store, the `Arc` count
//! pair, six statistics `fetch_add`s, the `SeqCst` unpin and the leaving
//! RMW. Per read it performs the same three acquire loads as above, and
//! on its inlined fast path ([`crate::snapshot`], "The read fast path")
//! only those plus one `SeqCst` binding load: 0 locked instructions, no
//! kill poll and no read-set record, so it is the cheaper word read. The
//! ring is scanned only when an orec moved past the pin, with relaxed
//! loads between an acquire load and an acquire fence + re-load of the
//! orec's `ring_epoch` (plus the overflow mutex when that list is
//! non-empty) — no locked instruction on the lock-free part.
//!
//! ## The read fast path
//!
//! [`Tx::read`] is inlined into every access site, and so is the common
//! case of both of its steps; only the rest is out of line.
//!
//! * **View.** The most recently used view is checked inline: one
//!   binding load compared with its partition pointer, exactly the first
//!   test of `view_of_binding`, so a hit needs no binding recheck for the
//!   same reason a cached hit there does. A miss calls `view_of_binding`.
//! * **Read.** `read_fast` runs when all four entry conditions hold:
//!   1. the write set is empty, so there is no buffered value to return;
//!   2. the attempt is not profiler-sampled, so no bucket is to be
//!      recorded;
//!   3. the slot's kill word does not name this attempt;
//!   4. the view's read mode is `Invisible`.
//!
//!   It loads `l1`, then (if `l1` is unlocked) the cell, then `l2`
//!   (`Orec::sandwich`, shared with the snapshot read's fast path), and
//!   serves the cell's value when all three serve conditions hold:
//!   1. `l1` is unlocked;
//!   2. `l1 == l2`;
//!   3. `version_of(l1) <= rv`.
//!
//!   Serving, it does what the full path does on that outcome: the view's
//!   `reads += 1` and the same `ReadEntry` push. Every other outcome
//!   changes nothing and calls `read_at`, which re-checks from scratch:
//!   read-own-write, sampling, killed, visible, locked (own or foreign),
//!   torn sandwich, and newer than `rv` (extend).
//!
//! **Why it is the same read.** When the entry conditions hold, `read_at`
//! polls the kill word, finds nothing in the write set without loading
//! anything shared, and calls `read_invisible`, whose first iteration is:
//! `l1` (acquire); if unlocked, the cell (acquire) and `l2` (acquire);
//! return the value if `l1 == l2` and `version_of(l1) <= rv`. The fast
//! path performs exactly these loads, in this order, with these
//! orderings, plus the same `SeqCst` kill poll, read through a pointer to
//! the slot's kill word cached when `run` starts instead of through the
//! slot table. On the serve outcome it returns the same value and leaves
//! the same read set and counters; on any other outcome the loads it made
//! are discarded and the full path starts over, as `read_invisible` does
//! when it loops. So the fast path adds no protocol state and no
//! interleaving, and the "read ×2" row of the budget above stays at 0
//! locked instructions.
//!
//! ## Why acquisition needs no read-set scan
//!
//! `acquire_orec` (both encounter-time and commit-time acquisition) loads
//! the orec's unlocked word `l`, calls `extend` if `version_of(l) > rv`,
//! and locks with a CAS from `l`. Every earlier invisible read of that
//! orec then saw exactly `l`, so the acquisition validates nothing
//! itself and costs the same at any read-set size, as in TL2:
//!
//! * **`version_of(l) > rv`.** `extend` has just validated every
//!   read-set entry against the orec's current word: each entry for this
//!   orec saw the word that validation loaded. That load comes after the
//!   load of `l` and before the CAS, and the CAS succeeds only if nothing
//!   was written between `l` and its own write. So validation loaded `l`
//!   itself.
//! * **`version_of(l) <= rv`.** An entry saw an unlocked word `s` of this
//!   orec, with `rv` sampled before that load. This holds at `begin`, and
//!   it holds after an extension too, because `extend` and
//!   `ensure_snapshot_at_least` sample the new `rv` before they validate,
//!   and the validation loaded `s` again. Suppose `s != l`. Then a commit
//!   released this orec between them: a rollback puts back the word it
//!   locked from, and a table reset happens only in a quiesce window,
//!   which no attempt spans, so only a commit leaves another unlocked
//!   word behind. That commit locked the orec
//!   after our load of `s` and drew its `wv` (acq-rel `fetch_add`) after
//!   its lock. If our acquire load of `rv` had seen that increment, the
//!   lock would happen-before our load of `s`, and that load could not
//!   return the word from before the lock. So `wv > rv`. Versions only
//!   grow along the orec's history, which gives `version_of(l) >= wv > rv`,
//!   a contradiction.
//!
//! Commit-time validation relies on the same fact: an entry whose orec it
//! finds locked by this attempt is skipped, because the lock was taken
//! from the word the entry saw. The check stays as a `debug_assert!` after
//! the CAS, so every debug test run checks the argument at every
//! acquisition, and `txn::write_path` pins the `extend` step.
//!
//! ## Aliasing telemetry
//!
//! On every conflict abort where the engine knows both the address it was
//! accessing and the conflicting orec, it classifies the conflict by the
//! orec's acquisition hint (see [`crate::orec::Orec`]): hint == our address
//! → a *true* data conflict; hint naming a different address → an *aliased*
//! (false) conflict, two unrelated words hashed onto one orec. The
//! classification is one relaxed load plus a compare, paid only on abort
//! paths (never on the commit fast path), and feeds the per-partition
//! `conflicts_true` / `conflicts_aliased` counters the online analyzer's
//! orec-table resize proposals are built on.
//!
//! ## Kill safety
//!
//! A transaction can be asked to die remotely: writers kill visible
//! readers during arbitration, and the quiesce rescue stage (see
//! `bump_epoch_and_quiesce` in `quiesce.rs`) kills attempts that block a
//! structural window past its soft deadline. The request is one store
//! into the victim's slot (`kill := serial of the attempt to abort`); the
//! victim polls it at every *check-point boundary* — transactional read
//! ([`Tx::read`]), write, orec acquisition (both the
//! loop head and the bounded `wait_or_fail` spin), visible-reader
//! arbitration waits, and commit entry — and unwinds with
//! [`AbortKind::Killed`] through the ordinary `fail` → `rollback` path.
//!
//! Aborting at exactly those boundaries can never observe or publish torn
//! state:
//!
//! * **Nothing is published before commit.** Writes are buffered in the
//!   private write set; memory is only written back inside `try_commit`
//!   *after* every lock is held and validation has passed — and the kill
//!   flag is not consulted anywhere past that point, so a kill either
//!   lands before the attempt is irreversibly committed (it aborts
//!   cleanly) or it is too late and the attempt commits as if the kill
//!   had never happened. There is no in-between.
//! * **The abort path releases everything.** `rollback` restores every
//!   encounter-acquired orec to its pre-acquisition word, clears the
//!   victim's visible-reader bits, reclaims transactional allocations and
//!   flips the slot's `seq` back to even — the same path every
//!   conflict abort takes, exercised constantly; a killed abort is not a
//!   special case.
//! * **The victim cannot observe torn data either.** Between check
//!   points the attempt only reads through the seqlock sandwich /
//!   reader-bit protocols, which are kill-oblivious; the kill merely
//!   decides *whether to continue*, never *what was read*.
//! * **Stale kills are harmless.** The flag names one attempt serial;
//!   `Tx::begin` clears it before publishing the next serial, so a kill
//!   that loses the race with attempt turnover matches no current attempt
//!   and is ignored.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::arena::{Arena, Handle};
use crate::cm::{self, XorShift64};
use crate::config::CmPolicy;
use crate::config::{self, AcquireMode, DynConfig, ReadMode, ReaderArb};
use crate::error::{Abort, AbortKind, TxResult};
use crate::orec::{is_locked, make_version, owner_of, reader_bit, version_of, Orec, RingSlot};
use crate::partition::{orec_index, Partition};
use crate::profiler::{self, BucketTouch, SampleTouch, TxSample};
use crate::pvar::{Access, PVar, PVarBinding, Read};
use crate::stats::LocalStats;
use crate::stm::{StmInner, ThreadCtx};
use crate::telemetry::{self, EventKind};
use crate::tuner::{TuneInput, TUNE_STRIDE};
use crate::word::TxWord;

/// An invisible-read record: which orec was read, the lock word observed,
/// and the word address the read covered (for aliasing classification of
/// validation failures; 24 bytes, the validation pass touches only the
/// first 16 until an entry fails).
struct ReadEntry {
    orec: *const Orec,
    seen: u64,
    addr: usize,
}

/// A buffered write.
struct WriteEntry {
    var: *const AtomicU64,
    val: u64,
    orec: *const Orec,
    /// Lock word to restore on abort (valid iff `acquired_here`).
    prev: u64,
    /// Whether *this entry* performed the orec acquisition (first entry per
    /// orec does; later entries find it already owned).
    acquired_here: bool,
    /// Index into the partition-view table (partition attribution).
    touch: u16,
}

/// Per-partition state of one transaction attempt: the *partition view*.
///
/// The config word is loaded and decoded exactly once, on first touch (see
/// the module docs for why that is sound); every later access resolves to
/// this cached snapshot.
struct PartView {
    /// The partition, *borrowed* for the attempt — a `&'e Partition` at
    /// view creation, kept as a pointer because the scratch state outlives
    /// `'e` (module docs, "Refcount-free views"). Also the lookup key.
    part: *const Partition,
    cfg: DynConfig,
    /// Orec-table base pointer, snapshotted with `mask` at view creation
    /// (stable for the attempt — see the module docs on resizes).
    table: *const Orec,
    /// Orec-table index mask (`orec_count - 1`).
    mask: usize,
    /// Version-ring base pointer and depth, snapshotted with the table at
    /// view creation (swapped only inside the same flag→quiesce windows,
    /// so equally stable for the attempt). Orec *i* owns ring slots
    /// `i*ring_depth..(i+1)*ring_depth`.
    ring: *const RingSlot,
    ring_depth: usize,
    /// Generation of the config word the view was decoded from. Stable for
    /// the whole attempt (quiesce protocol); kept for diagnostics and
    /// debug-mode verification at commit.
    generation: u32,
    stats: LocalStats,
    wrote: bool,
}

impl PartView {
    #[inline(always)]
    fn part(&self) -> &Partition {
        // SAFETY: the drain covers it: `part` was loaded from a binding
        // inside this attempt, and every caller runs before the attempt's
        // `leave_attempt` (module docs, "Refcount-free views"), which a
        // repartition waits for before it drops what it unbound.
        unsafe { &*self.part }
    }
}

/// Type-erased deferred arena operation (see [`crate::arena`]).
struct ReclaimEntry {
    arena: *const (),
    raw: u32,
    /// Reuse tag: for alloc-log entries, the slot's original tag (restored
    /// on rollback); for free-log entries, filled with the commit version
    /// when the free executes.
    tag: u64,
    push_free: unsafe fn(*const (), u32, u64),
}

/// Stamped open-addressing map `usize key -> u32 index`, reused across
/// transactions without clearing (entries from older transactions are
/// recognizably stale by their stamp). Two instances per thread: the
/// write-set index (keyed by variable address) and the partition-view index
/// (keyed by partition pointer).
struct StampedMap {
    keys: Vec<usize>,
    vals: Vec<u32>,
    stamps: Vec<u64>,
    stamp: u64,
    mask: usize,
    len: usize,
}

impl StampedMap {
    fn new() -> Self {
        let cap = 64;
        StampedMap {
            keys: vec![0; cap],
            vals: vec![0; cap],
            stamps: vec![0; cap],
            stamp: 0,
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn begin_txn(&mut self) {
        self.stamp += 1;
        self.len = 0;
    }

    #[inline(always)]
    fn slot_of(&self, addr: usize) -> usize {
        ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & self.mask
    }

    #[inline]
    fn get(&self, addr: usize) -> Option<u32> {
        let mut i = self.slot_of(addr);
        while self.stamps[i] == self.stamp {
            if self.keys[i] == addr {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    fn insert(&mut self, addr: usize, val: u32) {
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = self.slot_of(addr);
        while self.stamps[i] == self.stamp {
            if self.keys[i] == addr {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
        self.keys[i] = addr;
        self.vals[i] = val;
        self.stamps[i] = self.stamp;
        self.len += 1;
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let old_stamps = std::mem::take(&mut self.stamps);
        let cap = old_keys.len() * 2;
        self.keys = vec![0; cap];
        self.vals = vec![0; cap];
        self.stamps = vec![0; cap];
        self.mask = cap - 1;
        let live = self.stamp;
        self.len = 0;
        for i in 0..old_keys.len() {
            if old_stamps[i] == live {
                // Re-insert without growth recursion (cap just doubled).
                let mut j = self.slot_of(old_keys[i]);
                while self.stamps[j] == self.stamp {
                    j = (j + 1) & self.mask;
                }
                self.keys[j] = old_keys[i];
                self.vals[j] = old_vals[i];
                self.stamps[j] = self.stamp;
                self.len += 1;
            }
        }
    }
}

/// Reusable per-thread transaction state.
pub(crate) struct TxScratch {
    rv: u64,
    serial: u64,
    attempts: u32,
    in_attempt: bool,
    engine_fail: bool,
    read_set: Vec<ReadEntry>,
    write_set: Vec<WriteEntry>,
    visible: Vec<*const Orec>,
    views: Vec<PartView>,
    ws_index: StampedMap,
    view_index: StampedMap,
    /// Index of the most recently used view (MRU fast path); `u32::MAX`
    /// when no view has been touched this attempt.
    last_view: u32,
    alloc_log: Vec<ReclaimEntry>,
    free_log: Vec<ReclaimEntry>,
    rng: XorShift64,
    /// Whether the current attempt is being access-profiled (decided at
    /// begin from the thread serial; see [`crate::profiler`]).
    sampling: bool,
    /// Whether the current attempt records telemetry lifecycle events and
    /// latency histograms (1-in-N, decided at begin; see
    /// [`crate::telemetry`]).
    tele_sampling: bool,
    /// Begin timestamp of a telemetry-sampled attempt (stale otherwise).
    tele_begin: Instant,
    /// Sampled accesses: (view index, address bucket, is_write).
    sample_log: Vec<(u16, u16, bool)>,
    /// Tunable partitions whose stride this commit filled, owned from
    /// inside the attempt for [`Tx::after_commit_tuning`].
    tune_claims: Vec<Arc<Partition>>,
    /// Partition views of the snapshot read path (reused across
    /// [`crate::ThreadCtx::snapshot_read`] attempts; see
    /// [`crate::snapshot`]).
    pub(crate) ro_views: Vec<crate::snapshot::RoView>,
}

impl core::fmt::Debug for TxScratch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TxScratch")
            .field("in_attempt", &self.in_attempt)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .finish_non_exhaustive()
    }
}

impl TxScratch {
    pub(crate) fn new(seed: u64) -> Self {
        TxScratch {
            rv: 0,
            serial: 0,
            attempts: 0,
            in_attempt: false,
            engine_fail: false,
            read_set: Vec::new(),
            write_set: Vec::new(),
            visible: Vec::new(),
            views: Vec::new(),
            ws_index: StampedMap::new(),
            view_index: StampedMap::new(),
            last_view: u32::MAX,
            alloc_log: Vec::new(),
            free_log: Vec::new(),
            rng: XorShift64::new(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) | 1),
            sampling: false,
            tele_sampling: false,
            tele_begin: Instant::now(),
            sample_log: Vec::new(),
            tune_claims: Vec::new(),
            ro_views: Vec::new(),
        }
    }
}

/// An in-flight transaction. Obtained inside [`ThreadCtx::run`]; all
/// transactional operations go through it.
pub struct Tx<'e, 's> {
    stm: &'s StmInner,
    slot: usize,
    s: &'s mut TxScratch,
    /// This slot's kill word (`stm.slots[slot].kill`), resolved once per
    /// `run` for the read fast path; every other poll goes through
    /// `killed`.
    kill: *const AtomicU64,
    /// Invariant in `'e`: references passed to transactional operations
    /// must outlive the whole `run` call.
    _env: PhantomData<fn(&'e ()) -> &'e ()>,
}

impl<'e, 's> Tx<'e, 's> {
    #[inline(always)]
    fn my_slot(&self) -> &crate::stm::ThreadSlot {
        &self.stm.slots[self.slot]
    }

    #[inline(always)]
    fn killed(&self) -> bool {
        self.my_slot().kill.load(Ordering::SeqCst) == self.s.serial
    }

    /// Number of failed attempts of the current transaction so far.
    pub fn attempts(&self) -> u32 {
        self.s.attempts
    }

    /// Debug aid: re-validates the invisible read set right now and
    /// reports `(still_valid, read_set_len, rv)`. Used by diagnostics to
    /// distinguish "stale view that validation would catch" from a genuine
    /// opacity hole.
    pub fn debug_validate(&self) -> (bool, usize, u64) {
        (
            self.validate_read_set().is_ok(),
            self.s.read_set.len(),
            self.s.rv,
        )
    }

    /// The snapshot (read version) of this attempt.
    pub fn read_version(&self) -> u64 {
        self.s.rv
    }

    /// The configuration generation of `part` as cached by this attempt's
    /// partition view, or `None` if the partition has not been touched in
    /// this attempt. Diagnostic: stable for the whole attempt (see the
    /// module docs on partition views).
    pub fn cached_generation(&self, part: &Arc<Partition>) -> Option<u32> {
        let ptr = Arc::as_ptr(part);
        self.s
            .views
            .iter()
            .find(|v| v.part == ptr)
            .map(|v| v.generation)
    }

    fn begin(&mut self) {
        let s = &mut *self.s;
        s.serial += 1;
        let slot = &self.stm.slots[self.slot];
        // Clear the kill word *before* publishing the new serial: a killer
        // that acquires the new serial then orders its kill store after
        // the clear, so its request cannot be erased (release/acquire on
        // `serial`; module docs, "One full fence per attempt").
        slot.kill.store(0, Ordering::Release);
        slot.serial.store(s.serial, Ordering::Release);
        // THE fence of the attempt: orders "I am in an attempt" before the
        // epoch load and every config-word load after it.
        slot.enter_attempt(&self.stm.switch_epoch);
        s.rv = self.stm.clock.now();
        s.read_set.clear();
        s.write_set.clear();
        s.visible.clear();
        s.views.clear();
        s.alloc_log.clear();
        s.free_log.clear();
        s.ws_index.begin_txn();
        s.view_index.begin_txn();
        s.last_view = u32::MAX;
        s.engine_fail = false;
        s.in_attempt = true;
        let period = self.stm.profile_period.load(Ordering::Relaxed);
        s.sampling = period != 0 && s.serial.is_multiple_of(period);
        if s.sampling {
            s.sample_log.clear();
        }
        // Telemetry sampling mirrors the profiler's idiom: one relaxed
        // load decides, and everything costly (Instant reads, ring
        // writes) happens only on the 1-in-N sampled attempts.
        s.tele_sampling = telemetry::enabled() && {
            let p = telemetry::tx_sample_period();
            p != 0 && s.serial.is_multiple_of(p)
        };
        if s.tele_sampling {
            s.tele_begin = Instant::now();
            telemetry::lane_event(self.slot, EventKind::TxBegin, self.slot as u64, s.serial, 0);
        }
    }

    /// Looks up an already-created view for `ptr` (MRU fast path, then the
    /// stamped index).
    #[inline(always)]
    fn view_lookup(&mut self, ptr: *const Partition) -> Option<u16> {
        let li = self.s.last_view as usize;
        if li < self.s.views.len() && self.s.views[li].part == ptr {
            return Some(li as u16);
        }
        if let Some(i) = self.s.view_index.get(ptr as usize) {
            self.s.last_view = i;
            return Some(i as u16);
        }
        None
    }

    /// First contact with a partition this attempt: loads the config word
    /// once, decodes it and records the view. Aborts if the partition is
    /// mid-switch. See the module docs for why one decode per attempt is
    /// sound.
    fn view_create(&mut self, part: &'e Partition) -> Result<u16, Abort> {
        assert_eq!(
            part.stm_id, self.stm.id,
            "partition belongs to a different Stm"
        );
        let word = part.config_word();
        if config::is_switching(word) {
            // A privatization hold is a switching flag plus the privatized
            // classification bit: same abort-and-back-off path, counted
            // separately so operators can tell bulk-operation collisions
            // from tuning churn.
            if config::is_privatized(word) {
                part.stats.privatized_collisions(self.slot, 1);
            }
            part.stats.aborts_switching(self.slot, 1);
            part.stats.starts(self.slot, 1);
            self.s.engine_fail = true;
            return Err(Abort(()));
        }
        // Snapshot the orec-table registers *after* observing the flag
        // clear: the resize protocol swaps them only inside a flagged
        // window our attempt provably does not straddle (module docs).
        let (table, mask) = part.table_view();
        let (ring, ring_depth) = part.ring_view();
        let i = self.s.views.len() as u32;
        self.s.views.push(PartView {
            part,
            cfg: config::decode(word),
            table,
            mask,
            ring,
            ring_depth,
            generation: config::generation(word),
            stats: LocalStats::default(),
            wrote: false,
        });
        self.s
            .view_index
            .insert(part as *const Partition as usize, i);
        self.s.last_view = i;
        Ok(i as u16)
    }

    /// Resolves the partition view for a variable from its binding cell.
    ///
    /// A repartition may rebind the variable concurrently — but only while
    /// every involved partition carries the switching flag, and the rebind
    /// happens strictly before the flags clear (see [`crate::repartition`]).
    /// So after creating a view with the flag observed *clear*, re-loading
    /// the binding and seeing the same pointer proves the binding is
    /// current for the rest of the attempt: any migration still in flight
    /// at view-creation time would have shown its flag, and any migration
    /// that starts later must wait for this attempt to quiesce. A mismatch
    /// means the load straddled a completing migration — the attempt
    /// aborts exactly as if it had caught the switching flag itself.
    ///
    /// A view-cache *hit* needs no recheck: the hit proves a flag-clear
    /// touch of that partition earlier in this attempt, and the fresh
    /// binding load equalling the view's pointer extends the same argument
    /// to this access.
    fn view_of_binding(&mut self, binding: &'e PVarBinding) -> Result<u16, Abort> {
        let part = binding.load_ref();
        if let Some(i) = self.view_lookup(part) {
            return Ok(i);
        }
        let ti = self.view_create(part)?;
        if !core::ptr::eq(binding.load(), part) {
            return Err(self.fail(ti, AbortKind::Switching));
        }
        Ok(ti)
    }

    /// Classifies a conflict against `orec` while accessing `addr` using
    /// the orec's acquisition hint: same address → true data conflict,
    /// different address → aliased (false) conflict. One relaxed load plus
    /// a compare, on abort paths only — see the module docs. A zero hint
    /// (no acquisition recorded yet) conservatively counts as true, so the
    /// aliased share never over-reports.
    #[inline]
    fn note_conflict(&mut self, ti: u16, orec: &Orec, addr: usize) {
        let hint = orec.hint_addr();
        let stats = &mut self.s.views[ti as usize].stats;
        if hint != 0 && hint != addr as u64 {
            stats.conflicts_aliased += 1;
        } else {
            stats.conflicts_true += 1;
        }
    }

    /// Records an abort cause against a partition and flags the attempt as
    /// engine-failed. Returns the `Abort` token to propagate.
    fn fail(&mut self, ti: u16, kind: AbortKind) -> Abort {
        let st = &self.s.views[ti as usize].part().stats;
        match kind {
            AbortKind::WLockConflict => st.aborts_wlock(self.slot, 1),
            AbortKind::RLockConflict => st.aborts_rlock(self.slot, 1),
            AbortKind::Validation => st.aborts_validation(self.slot, 1),
            AbortKind::Killed => st.aborts_killed(self.slot, 1),
            AbortKind::Switching => st.aborts_switching(self.slot, 1),
            AbortKind::User => st.aborts_user(self.slot, 1),
        }
        if self.s.tele_sampling {
            let reason = match kind {
                AbortKind::WLockConflict => telemetry::codes::ABORT_WLOCK,
                AbortKind::RLockConflict => telemetry::codes::ABORT_RLOCK,
                AbortKind::Validation => telemetry::codes::ABORT_VALIDATION,
                AbortKind::Killed => telemetry::codes::ABORT_KILLED,
                AbortKind::Switching => telemetry::codes::ABORT_SWITCHING,
                AbortKind::User => telemetry::codes::ABORT_USER,
            };
            telemetry::lane_event(
                self.slot,
                EventKind::TxAbort,
                self.slot as u64,
                reason,
                self.s.attempts as u64,
            );
        }
        self.s.engine_fail = true;
        Abort(())
    }

    /// Transactional read of a partition-bound variable.
    ///
    /// The partition is the one the variable is bound to
    /// ([`Partition::tvar`], possibly moved since by the repartitioner);
    /// no partition is named at the access site.
    #[inline(always)]
    pub fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        // The MRU hit of `view_of_binding`, inline: same test, same proof;
        // the binding is loaded only when there is an MRU view to test.
        let li = self.s.last_view as usize;
        let ti = if li < self.s.views.len()
            && core::ptr::eq(self.s.views[li].part, var.binding.load())
        {
            li as u16
        } else {
            self.view_of_binding(&var.binding)?
        };
        match self.read_fast(ti, &var.cell) {
            Some(w) => Ok(T::from_word(w)),
            None => self.read_at(ti, &var.cell),
        }
    }

    /// The read fast path (module docs, "The read fast path"): the first
    /// iteration of `read_invisible`, taken when the attempt has no write
    /// set to probe, is not sampled and is not killed, and the view reads
    /// invisibly. `None` leaves everything untouched and hands the read to
    /// `read_at`.
    #[inline(always)]
    fn read_fast(&mut self, ti: u16, cell: &'e AtomicU64) -> Option<u64> {
        // SAFETY: `kill` points into `self.stm.slots`, borrowed for `'s`.
        let kill = unsafe { &*self.kill };
        if self.s.sampling
            || !self.s.write_set.is_empty()
            || kill.load(Ordering::SeqCst) == self.s.serial
        {
            return None;
        }
        let s = &mut *self.s;
        let v = &mut s.views[ti as usize];
        if v.cfg.read_mode != ReadMode::Invisible {
            return None;
        }
        let addr = cell as *const AtomicU64 as usize;
        // SAFETY: as in `read_at`.
        let orec = unsafe { v.table.add(orec_index(v.mask, addr, v.cfg.granularity)) };
        // SAFETY: as in `read_invisible`.
        let orec_ref = unsafe { &*orec };
        let (l1, val) = orec_ref.sandwich(cell, &s.rv)?;
        v.stats.reads += 1;
        s.read_set.push(ReadEntry {
            orec,
            seen: l1,
            addr,
        });
        Some(val)
    }

    /// Transactional write (buffered until commit) of a partition-bound
    /// variable.
    #[inline]
    pub fn write<T: TxWord>(&mut self, var: &'e PVar<T>, value: T) -> TxResult<()> {
        let ti = self.view_of_binding(&var.binding)?;
        self.write_at(ti, &var.cell, value)
    }

    /// Read-modify-write convenience on a partition-bound variable.
    #[inline]
    pub fn modify<T: TxWord>(&mut self, var: &'e PVar<T>, f: impl FnOnce(T) -> T) -> TxResult<T> {
        let v = self.read(var)?;
        let nv = f(v);
        self.write(var, nv)?;
        Ok(nv)
    }

    /// Read body against a resolved view (out of line: [`Tx::read`] is
    /// inlined into every access site).
    fn read_at<T: TxWord>(&mut self, ti: u16, cell: &'e AtomicU64) -> TxResult<T> {
        if self.killed() {
            return Err(self.fail(ti, AbortKind::Killed));
        }
        self.s.views[ti as usize].stats.reads += 1;
        let addr = cell as *const AtomicU64 as usize;
        if self.s.sampling {
            self.s
                .sample_log
                .push((ti, profiler::bucket_of(addr), false));
        }
        if let Some(ei) = self.s.ws_index.get(addr) {
            let e = &self.s.write_set[ei as usize];
            assert_eq!(
                e.var as usize, addr,
                "ws_index returned entry for wrong address"
            );
            return Ok(T::from_word(e.val));
        }
        let (orec, read_mode) = {
            let v = &self.s.views[ti as usize];
            // SAFETY: index masked into the view's table, alive for the
            // partition's lifetime (module docs).
            let orec = unsafe { v.table.add(orec_index(v.mask, addr, v.cfg.granularity)) };
            (orec, v.cfg.read_mode)
        };
        let w = match read_mode {
            ReadMode::Invisible => self.read_invisible(ti, orec, cell)?,
            ReadMode::Visible => self.read_visible(ti, orec, cell)?,
        };
        Ok(T::from_word(w))
    }

    /// Write body against a resolved view.
    fn write_at<T: TxWord>(&mut self, ti: u16, cell: &'e AtomicU64, value: T) -> TxResult<()> {
        if self.killed() {
            return Err(self.fail(ti, AbortKind::Killed));
        }
        {
            let t = &mut self.s.views[ti as usize];
            t.stats.writes += 1;
            t.wrote = true;
        }
        let addr = cell as *const AtomicU64 as usize;
        if self.s.sampling {
            self.s
                .sample_log
                .push((ti, profiler::bucket_of(addr), true));
        }
        if let Some(ei) = self.s.ws_index.get(addr) {
            let e = &mut self.s.write_set[ei as usize];
            assert_eq!(
                e.var as usize, addr,
                "ws_index returned entry for wrong address"
            );
            e.val = value.to_word();
            return Ok(());
        }
        let (orec, acquire) = {
            let v = &self.s.views[ti as usize];
            // SAFETY: as in `read_at`.
            let orec = unsafe { v.table.add(orec_index(v.mask, addr, v.cfg.granularity)) };
            (orec, v.cfg.acquire)
        };
        let wi = self.s.write_set.len();
        self.s.write_set.push(WriteEntry {
            var: cell,
            val: value.to_word(),
            orec,
            prev: 0,
            acquired_here: false,
            touch: ti,
        });
        self.s.ws_index.insert(addr, wi as u32);
        if acquire == AcquireMode::Encounter {
            self.acquire_orec(wi)?;
        }
        if crate::fault::enabled() && crate::fault::should_panic_mid_tx(self.stm.id) {
            // FaultSite::MidTxPanic: user code dying mid-attempt, possibly
            // holding encounter locks. `Drop for Tx` rolls back.
            panic!("injected mid-tx panic (fault plan)");
        }
        Ok(())
    }

    fn read_invisible(
        &mut self,
        ti: u16,
        orec: *const Orec,
        cell: *const AtomicU64,
    ) -> Result<u64, Abort> {
        // SAFETY: `orec` points into the partition's table, kept alive by
        // the `Arc` in `views[ti]` for the rest of the attempt; `cell`
        // outlives `'e` by the signature of `read`.
        let orec_ref = unsafe { &*orec };
        loop {
            let l1 = orec_ref.load_lock();
            if is_locked(l1) {
                if owner_of(l1) == self.slot {
                    // My encounter-time lock covers this word (possibly via
                    // a different address). The committed value is stable
                    // while I hold the lock and was validated <= rv at
                    // acquisition.
                    // SAFETY: see above.
                    return Ok(unsafe { &*cell }.load(Ordering::Acquire));
                }
                self.wait_or_fail(ti, orec_ref, AbortKind::WLockConflict, cell as usize)?;
                continue;
            }
            // SAFETY: see above.
            let v = unsafe { &*cell }.load(Ordering::Acquire);
            let l2 = orec_ref.load_lock();
            if l1 != l2 {
                continue;
            }
            if version_of(l1) > self.s.rv {
                // The committed value is newer than our snapshot: extend the
                // snapshot and *restart the load*. Returning `v` here would
                // be unsound — it may have changed again between `l2` and
                // the extension's clock sample, and a read-only transaction
                // never revalidates (TinySTM restarts the load too).
                self.extend(ti)?;
                continue;
            }
            self.s.read_set.push(ReadEntry {
                orec,
                seen: l1,
                addr: cell as usize,
            });
            return Ok(v);
        }
    }

    fn read_visible(
        &mut self,
        ti: u16,
        orec: *const Orec,
        cell: *const AtomicU64,
    ) -> Result<u64, Abort> {
        // SAFETY: as in `read_invisible`.
        let orec_ref = unsafe { &*orec };
        let bit = reader_bit(self.slot);
        if orec_ref.add_reader(bit) {
            self.s.visible.push(orec);
        }
        loop {
            let l = orec_ref.lock.load(Ordering::SeqCst);
            if is_locked(l) && owner_of(l) != self.slot {
                // A writer owns the orec. It may be waiting for (or
                // killing) us; back off via the CM.
                self.wait_or_fail(ti, orec_ref, AbortKind::RLockConflict, cell as usize)?;
                continue;
            }
            // SAFETY: as in `read_invisible`.
            let v = unsafe { &*cell }.load(Ordering::Acquire);
            if !is_locked(l) && version_of(l) > self.s.rv {
                self.extend(ti)?;
            }
            // Protected by the reader bit from here on: no read-set entry.
            return Ok(v);
        }
    }

    /// Contention-managed wait on a locked orec; `Ok(())` means "retry the
    /// protocol loop", `Err` means the attempt failed. `addr` is the word
    /// address the caller was accessing, used to classify a final conflict
    /// abort as true or aliased against the holder's acquisition hint.
    fn wait_or_fail(&mut self, ti: u16, orec: &Orec, kind: AbortKind, addr: usize) -> TxResult<()> {
        match self.s.views[ti as usize].cfg.cm {
            CmPolicy::SuicideBackoff => {
                self.note_conflict(ti, orec, addr);
                Err(self.fail(ti, kind))
            }
            CmPolicy::DelayThenAbort => {
                let slot = self.my_slot();
                let serial = self.s.serial;
                let freed = cm::spin_until(cm::DELAY_SPIN_BOUND, || {
                    !is_locked(orec.lock.load(Ordering::SeqCst))
                        || slot.kill.load(Ordering::SeqCst) == serial
                });
                if self.killed() {
                    return Err(self.fail(ti, AbortKind::Killed));
                }
                if freed {
                    Ok(())
                } else {
                    self.note_conflict(ti, orec, addr);
                    Err(self.fail(ti, kind))
                }
            }
        }
    }

    /// Lazy snapshot extension: advance `rv` to the current clock after
    /// revalidating every invisible read.
    fn extend(&mut self, ti: u16) -> TxResult<()> {
        let new_rv = self.stm.clock.now();
        match self.validate_read_set() {
            Ok(()) => {
                self.s.rv = new_rv;
                self.s.views[ti as usize].stats.extensions += 1;
                Ok(())
            }
            Err(i) => {
                self.note_failed_entry(ti, i);
                Err(self.fail(ti, AbortKind::Validation))
            }
        }
    }

    /// Classifies the validation failure of read-set entry `i` (true vs
    /// aliased). The counters are attributed to the partition *owning the
    /// failing orec* — found by locating the view whose cached table
    /// contains the pointer (a linear scan over the handful of touched
    /// views, abort path only) — so a multi-partition transaction never
    /// charges aliasing to the wrong table. `ti` is the fallback when no
    /// view matches (cannot happen for entries recorded this attempt, but
    /// telemetry must not panic). The *abort* itself is still attributed
    /// by the caller's `fail(ti, ..)`, unchanged.
    fn note_failed_entry(&mut self, ti: u16, i: usize) {
        let (orec, addr) = {
            let e = &self.s.read_set[i];
            (e.orec, e.addr)
        };
        let owner = self
            .s
            .views
            .iter()
            .position(|v| {
                let lo = v.table as usize;
                let hi = lo + (v.mask + 1) * core::mem::size_of::<Orec>();
                (lo..hi).contains(&(orec as usize))
            })
            .map_or(ti, |p| p as u16);
        // SAFETY: read-set orecs belong to touched partitions, alive for
        // the attempt.
        self.note_conflict(owner, unsafe { &*orec }, addr);
    }

    /// Validates the invisible read set in one batched pass: the next
    /// entry's orec line is prefetched while the current one is checked,
    /// consecutive entries on the same orec with the same observed word
    /// collapse to one load (common under stripe granularity, where a
    /// structure walk maps neighbouring nodes onto one orec), and the
    /// first mismatching entry exits early.
    ///
    /// `Err(i)` reports the index of the failing entry (for aliasing
    /// classification on the abort path).
    fn validate_read_set(&self) -> Result<(), usize> {
        let rs = &self.s.read_set;
        let mut prev: *const Orec = core::ptr::null();
        let mut prev_seen = 0u64;
        for (i, e) in rs.iter().enumerate() {
            if let Some(next) = rs.get(i + 1) {
                prefetch_orec(next.orec);
            }
            if e.orec == prev && e.seen == prev_seen {
                continue;
            }
            // SAFETY: read-set orecs belong to touched partitions, alive
            // for the attempt.
            let l = unsafe { &*e.orec }.load_lock();
            if l == e.seen {
                prev = e.orec;
                prev_seen = e.seen;
                continue;
            }
            if is_locked(l) && owner_of(l) == self.slot {
                // Acquired by me after the read, from the word the read saw
                // (module docs, "Why acquisition needs no read-set scan"),
                // and it cannot change while I hold the lock.
                continue;
            }
            return Err(i);
        }
        Ok(())
    }

    /// Acquires the orec of write-set entry `wi` (encounter- or
    /// commit-time).
    fn acquire_orec(&mut self, wi: usize) -> TxResult<()> {
        let (orec_ptr, ti, addr) = {
            let e = &self.s.write_set[wi];
            (e.orec, e.touch, e.var as usize)
        };
        // SAFETY: as in `read_invisible`.
        let orec = unsafe { &*orec_ptr };
        let my_bit = reader_bit(self.slot);
        loop {
            if self.killed() {
                return Err(self.fail(ti, AbortKind::Killed));
            }
            let l = orec.lock.load(Ordering::SeqCst);
            if is_locked(l) {
                if owner_of(l) == self.slot {
                    // Already held via an earlier write entry.
                    return Ok(());
                }
                self.wait_or_fail(ti, orec, AbortKind::WLockConflict, addr)?;
                continue;
            }
            if version_of(l) > self.s.rv {
                self.extend(ti)?;
            }
            if orec.try_lock(l, self.slot).is_err() {
                continue;
            }
            {
                let e = &mut self.s.write_set[wi];
                e.prev = l;
                e.acquired_here = true;
            }
            // My earlier invisible reads of this orec saw exactly `l`: no
            // scan needed (module docs, "Why acquisition needs no read-set
            // scan").
            debug_assert!(
                self.s
                    .read_set
                    .iter()
                    .all(|e| e.orec != orec_ptr || e.seen == l),
                "an earlier read of an acquired orec saw another word"
            );
            // Publish the acquisition address (aliasing telemetry): the
            // CAS above made this line exclusively ours, so the store is
            // effectively free.
            orec.note_addr(addr);
            // Arbitrate with visible readers (TOCTOU-safe: checked after
            // the CAS, so any reader that registered before observing our
            // lock is seen here).
            let others = orec.readers_except(my_bit);
            if others != 0 {
                match self.s.views[ti as usize].cfg.reader_arb {
                    ReaderArb::ReaderWins => {
                        return Err(self.fail(ti, AbortKind::RLockConflict));
                    }
                    ReaderArb::WriterWinsKill => self.kill_readers(ti, orec, my_bit)?,
                }
            }
            if crate::fault::enabled() {
                self.fault_stall(ti)?;
            }
            return Ok(());
        }
    }

    /// Fault-injection site
    /// [`StallHoldingLocks`](crate::fault::FaultSite::StallHoldingLocks):
    /// stalls right after a successful orec acquisition, i.e. while
    /// holding an encounter lock — the exact shape of a stuck transaction
    /// blocking a quiesce. The stall is *cooperative*: it polls the kill
    /// flag, so the rescue stage can reach it the same way it reaches any
    /// transaction parked in the engine's own wait loops (a plain `sleep`
    /// would model a descheduled thread instead, which is what the hard
    /// deadline's `StuckSlot` path covers).
    #[cold]
    fn fault_stall(&mut self, ti: u16) -> TxResult<()> {
        let Some(budget) = crate::fault::stall_budget(self.stm.id) else {
            return Ok(());
        };
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            if self.killed() {
                return Err(self.fail(ti, AbortKind::Killed));
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Writer-wins arbitration: kill all visible readers of `orec` and wait
    /// for their bits to clear, aborting if we are killed ourselves. The
    /// wait is *bounded*: a writer that cannot drain readers after many
    /// rounds aborts instead of spinning — under heavy kill storms the
    /// unbounded wait is a fairness hazard (a worker can starve for
    /// minutes), and an abort+backoff resolves it.
    fn kill_readers(&mut self, ti: u16, orec: &Orec, my_bit: u64) -> TxResult<()> {
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            if rounds > 64 {
                return Err(self.fail(ti, AbortKind::RLockConflict));
            }
            let others = orec.readers_except(my_bit);
            if others == 0 {
                return Ok(());
            }
            let mut bits = others;
            while bits != 0 {
                let victim_slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if victim_slot < self.stm.slots.len() && victim_slot != self.slot {
                    let victim = &self.stm.slots[victim_slot];
                    let target = victim.serial.load(Ordering::SeqCst);
                    victim.kill.store(target, Ordering::SeqCst);
                    self.s.views[ti as usize].stats.kills += 1;
                }
            }
            // Wait for the drains; victims abort promptly (they poll their
            // kill word at every operation and in every CM spin).
            let slot = self.my_slot();
            let serial = self.s.serial;
            let drained = cm::spin_until(4096, || {
                orec.readers_except(my_bit) == 0 || slot.kill.load(Ordering::SeqCst) == serial
            });
            if self.killed() {
                return Err(self.fail(ti, AbortKind::Killed));
            }
            if !drained {
                std::thread::yield_now();
            }
        }
    }

    /// Commit the attempt. Returns `true` on success; on failure the
    /// attempt has been rolled back.
    ///
    /// Split into a read-transaction path (no write set: nothing to
    /// acquire, validate or publish — straight to [`Tx::finish_commit`])
    /// and an update path ([`Tx::commit_update`]), mirroring the snapshot
    /// read path's separate lifecycle (see [`crate::snapshot`]).
    fn try_commit(&mut self) -> bool {
        debug_assert_q(self.s.in_attempt, "commit without begin");
        if self.killed() {
            if !self.s.views.is_empty() {
                let _ = self.fail(0, AbortKind::Killed);
            }
            self.rollback();
            return false;
        }
        if self.s.write_set.is_empty() {
            // Read-only: invisible reads were validated <= rv at read time
            // (mutually consistent snapshot), visible reads are protected
            // by reader bits. Nothing to validate.
            self.finish_commit();
            return true;
        }
        self.commit_update()
    }

    /// The update-transaction half of the commit pipeline: commit-time
    /// acquisitions, version draw, read-set validation, history
    /// publication + write-back, release.
    fn commit_update(&mut self) -> bool {
        // Commit-time acquisitions for partitions configured CTL.
        for wi in 0..self.s.write_set.len() {
            let needs = {
                let e = &self.s.write_set[wi];
                self.s.views[e.touch as usize].cfg.acquire == AcquireMode::Commit
                    && !e.acquired_here
            };
            if needs && self.acquire_orec(wi).is_err() {
                self.rollback();
                return false;
            }
        }
        let wv = self.stm.clock.advance();
        if self.s.rv + 1 != wv && !self.s.read_set.is_empty() {
            if let Err(i) = self.validate_read_set() {
                let ti = self.s.write_set[0].touch;
                self.note_failed_entry(ti, i);
                let _ = self.fail(ti, AbortKind::Validation);
                self.rollback();
                return false;
            }
            if self.s.tele_sampling {
                let len = self.s.read_set.len() as u64;
                telemetry::global().validate_len.record(len);
                telemetry::lane_event(self.slot, EventKind::TxValidate, self.slot as u64, len, 0);
            }
        }
        // Point of no return: publish each overwritten value into its
        // orec's version ring (for snapshot readers — see
        // `crate::snapshot`), write back, then release with the commit
        // version. Value stores are Release so a reader observing the new
        // lock word also observes the data; the l1/value/l2 sandwich
        // rejects any value read concurrent with this window. The history
        // record is published *before* the cell store so a snapshot reader
        // that observes our commit (lock word = wv) can always find the
        // pre-image it needs.
        let mut floor = self.stm.ro_floor.load(Ordering::SeqCst);
        let mut floor_fresh = false;
        for wi in 0..self.s.write_set.len() {
            let (var, val, orec, ti) = {
                let e = &self.s.write_set[wi];
                (e.var, e.val, e.orec, e.touch)
            };
            // SAFETY: `var` outlives `'e` (signature of `write`); the
            // orec is held, so we are the only writer.
            let old = unsafe { &*var }.load(Ordering::Acquire);
            self.ring_publish(
                ti,
                orec,
                var as usize,
                old,
                wv,
                &mut floor,
                &mut floor_fresh,
            );
            // SAFETY: as above.
            unsafe { &*var }.store(val, Ordering::Release);
        }
        for e in &self.s.write_set {
            if e.acquired_here {
                // SAFETY: orec alive via the touched partition.
                unsafe { &*e.orec }.unlock(make_version(wv));
            }
        }
        self.finish_commit();
        true
    }

    /// Publishes one overwritten value into the version ring of `orec`
    /// (held by this transaction): the record `(addr, old, to = wv)` says
    /// "`addr` held `old` until commit `wv`". Victim: the slot under the
    /// orec's cursor — empty, or the ring's smallest close stamp, so the
    /// cost does not depend on the depth. A victim above the snapshot
    /// eviction floor may still be needed by a pinned reader, so the *new*
    /// record is diverted to the partition's overflow list and the ring is
    /// left untouched (records never migrate between the two). Either way
    /// the mutation sits inside the orec's epoch bracket, which makes any
    /// overlapping snapshot lookup retry — see `crate::snapshot` for all
    /// three arguments. `floor` is the commit-local cached floor,
    /// recomputed at most once per commit (`floor_fresh`). Everything here
    /// is a plain store on lines this transaction already owns.
    #[allow(clippy::too_many_arguments)]
    fn ring_publish(
        &mut self,
        ti: u16,
        orec: *const Orec,
        addr: usize,
        old: u64,
        wv: u64,
        floor: &mut u64,
        floor_fresh: &mut bool,
    ) {
        let v = &self.s.views[ti as usize];
        let idx = (orec as usize - v.table as usize) / core::mem::size_of::<Orec>();
        debug_assert!(idx <= v.mask, "write-set orec outside the view's table");
        let depth = v.ring_depth;
        // SAFETY: orec alive via the touched partition, and held by us.
        let orec = unsafe { &*orec };
        // SAFETY: the ring has `(mask + 1) * depth` slots and `idx <=
        // mask`; the allocation is alive for the partition's lifetime and
        // stable for the attempt (same argument as the orec table).
        let ring = unsafe { core::slice::from_raw_parts(v.ring.wrapping_add(idx * depth), depth) };
        let cur = orec.ring_cursor();
        let victim = ring[cur].close_stamp();
        debug_assert!(
            victim == 0 || ring.iter().all(|s| s.close_stamp() >= victim),
            "cursor slot neither empty nor the ring's minimum"
        );
        if victim > *floor && !*floor_fresh {
            *floor = self.stm.ro_floor_recompute();
            *floor_fresh = true;
        }
        // Above the floor, every ring record might still serve a pinned
        // reader: park the new record on the overflow list instead.
        let divert = victim > *floor;
        orec.ring_publish_begin();
        if divert {
            v.part().overflow_push(addr, old, wv, *floor);
        } else {
            ring[cur].publish(addr as u64, old, wv);
            orec.set_ring_cursor(if cur + 1 == depth { 0 } else { cur + 1 });
        }
        orec.ring_publish_end();
        if divert {
            self.s.views[ti as usize].stats.ring_overflows += 1;
        }
    }

    fn finish_commit(&mut self) {
        // Debug tripwire for the one-decode-per-attempt argument (module
        // docs): until our seq returns to even, no touched partition's
        // generation may have moved past the one the view cached.
        #[cfg(debug_assertions)]
        for t in &self.s.views {
            debug_assert_eq!(
                config::generation(t.part().config_word()),
                t.generation,
                "partition config switched mid-attempt (quiesce protocol violated)"
            );
        }
        let bit = reader_bit(self.slot);
        for &orec in &self.s.visible {
            // SAFETY: orecs alive via touched partitions.
            unsafe { &*orec }.remove_reader(bit);
        }
        if !self.s.free_log.is_empty() {
            // Freed slots become reusable only by transactions whose
            // snapshot is at least "now" (see ensure_snapshot_at_least).
            let free_tag = self.stm.clock.now();
            for f in &self.s.free_log {
                // SAFETY: logged by Arena::free with a matching reclaim fn;
                // the arena outlives `'e`.
                unsafe { (f.push_free)(f.arena, f.raw, free_tag) }
            }
        }
        // Everything that dereferences a view happens before the attempt
        // ends: once `seq` is even, a repartition may free the partition.
        for t in &self.s.views {
            let st = &t.part().stats;
            st.starts(self.slot, 1);
            st.commits(self.slot, 1);
            if t.wrote {
                st.update_commits(self.slot, 1);
            } else {
                st.ro_commits(self.slot, 1);
            }
            t.stats.flush(st, self.slot);
        }
        let window = self.stm.tune_window.load(Ordering::Relaxed);
        if window != 0 {
            // Tuning hook, first half ([`crate::tuner`], "Cadence"): own each
            // tunable partition whose own commits reached a stride multiple.
            let stride = window.min(TUNE_STRIDE);
            for v in &self.s.views {
                let p = v.part();
                if p.tunable && p.stats.own_commits(self.slot).is_multiple_of(stride) {
                    self.s.tune_claims.push(PVarBinding::arc_of(p));
                }
            }
        }
        let sample = self.s.sampling.then(|| self.take_sample());
        self.my_slot().leave_attempt();
        if let Some(sample) = sample {
            if let Some(profiler) = self.stm.profiler.read().clone() {
                profiler.record(sample);
            }
        }
        if self.s.tele_sampling {
            self.flush_telemetry();
        }
        self.s.in_attempt = false;
        self.s.attempts = 0;
    }

    /// Records a telemetry-sampled commit: begin→commit latency histogram
    /// plus a lifecycle event on this thread's flight-recorder lane. Off
    /// the fast path — runs only for the one in N attempts sampled at
    /// [`Tx::begin`] while telemetry is enabled.
    #[cold]
    fn flush_telemetry(&mut self) {
        let t = telemetry::global();
        let ns = self.s.tele_begin.elapsed().as_nanos() as u64;
        t.commit_latency_ns.record(ns);
        t.recorder.record(
            self.slot,
            telemetry::Event::now(
                EventKind::TxCommit,
                self.slot as u64,
                ns,
                self.s.read_set.len() as u64,
            ),
        );
    }

    /// Folds a sampled, committed attempt into a [`TxSample`], copying the
    /// partition ids out while the attempt still covers the views. Off the
    /// fast path: runs only for the one in `period` attempts that was
    /// sampled at [`Tx::begin`].
    #[cold]
    fn take_sample(&mut self) -> TxSample {
        let s = &mut *self.s;
        let mut touched: Vec<SampleTouch> = s
            .views
            .iter()
            .map(|t| SampleTouch {
                partition: t.part().id(),
                reads: t.stats.reads,
                writes: t.stats.writes,
                buckets: Vec::new(),
            })
            .collect();
        // Group accesses by (view, bucket); the sort keeps buckets ordered
        // within each view.
        s.sample_log.sort_unstable();
        let mut i = 0;
        while i < s.sample_log.len() {
            let (ti, bucket, _) = s.sample_log[i];
            let (mut reads, mut writes) = (0u32, 0u32);
            while i < s.sample_log.len() && (s.sample_log[i].0, s.sample_log[i].1) == (ti, bucket) {
                if s.sample_log[i].2 {
                    writes += 1;
                } else {
                    reads += 1;
                }
                i += 1;
            }
            touched[ti as usize].buckets.push(BucketTouch {
                bucket,
                reads,
                writes,
            });
        }
        TxSample {
            failed_attempts: s.attempts,
            touched,
        }
    }

    /// Rolls the attempt back: releases held locks (restoring the previous
    /// version words), clears visible-reader bits, reclaims aborted
    /// allocations, flushes statistics.
    fn rollback(&mut self) {
        if !self.s.in_attempt {
            return;
        }
        for e in &self.s.write_set {
            if e.acquired_here {
                // SAFETY: orec alive via the touched partition; we hold it.
                unsafe { &*e.orec }.unlock(e.prev);
            }
        }
        let bit = reader_bit(self.slot);
        for &orec in &self.s.visible {
            // SAFETY: as above.
            unsafe { &*orec }.remove_reader(bit);
        }
        for a in &self.s.alloc_log {
            // SAFETY: logged by Arena::alloc with a matching reclaim fn.
            // The slot's original tag is restored: our aborted writes were
            // never published, so the pre-existing constraint still rules.
            unsafe { (a.push_free)(a.arena, a.raw, a.tag) }
        }
        for t in &self.s.views {
            t.part().stats.starts(self.slot, 1);
            t.stats.flush(&t.part().stats, self.slot);
        }
        self.my_slot().leave_attempt();
        self.s.in_attempt = false;
        self.s.attempts += 1;
    }

    /// Logs a transactional allocation (reclaimed on abort, restoring the
    /// slot's original reuse tag).
    pub(crate) fn log_alloc(
        &mut self,
        arena: *const (),
        raw: u32,
        tag: u64,
        push_free: unsafe fn(*const (), u32, u64),
    ) {
        self.s.alloc_log.push(ReclaimEntry {
            arena,
            raw,
            tag,
            push_free,
        });
    }

    /// Logs a transactional free (executed on commit with the commit
    /// version as the reuse tag).
    pub(crate) fn log_free(
        &mut self,
        arena: *const (),
        raw: u32,
        push_free: unsafe fn(*const (), u32, u64),
    ) {
        self.s.free_log.push(ReclaimEntry {
            arena,
            raw,
            tag: 0,
            push_free,
        });
    }

    /// Extends the snapshot to at least `v` (revalidating the read set) if
    /// it is older. Used by the arena's recycling barrier: a slot freed at
    /// time `v` may only be reused by transactions whose snapshot is `>= v`
    /// (otherwise the slot is still a live node in their view).
    pub(crate) fn ensure_snapshot_at_least(&mut self, v: u64) -> TxResult<()> {
        if v <= self.s.rv {
            return Ok(());
        }
        let new_rv = self.stm.clock.now();
        debug_assert!(new_rv >= v, "free tags never exceed the clock");
        if self.validate_read_set().is_ok() {
            self.s.rv = new_rv;
            Ok(())
        } else {
            if let Some(t) = self.s.views.first() {
                t.part().stats.aborts_validation(self.slot, 1);
            }
            self.s.engine_fail = true;
            Err(Abort(()))
        }
    }

    /// The tuning hook's second half, after the attempt: each claimed
    /// partition credits `stride` commits to its gate and, when a window
    /// fills, evaluates the installed policy and applies its decision.
    fn after_commit_tuning(&mut self) {
        while let Some(part) = self.s.tune_claims.pop() {
            let window = self.stm.tune_window.load(Ordering::Relaxed);
            let Some(tuner) = self.stm.tuner.read().clone().filter(|_| window != 0) else {
                continue;
            };
            let stride = window.min(TUNE_STRIDE);
            if part.tune_gate.fetch_add(stride, Ordering::Relaxed) + stride < window {
                continue;
            }
            // Claim one window, keeping the strides other threads credited
            // since our add; fails if a concurrent claim already took it.
            if part
                .tune_gate
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |g| {
                    g.checked_sub(window)
                })
                .is_err()
            {
                continue;
            }
            let (delta, seconds) = {
                let Some(mut st) = part.tune_state.try_lock() else {
                    continue;
                };
                let snap = part.stats.snapshot();
                let delta = snap.delta(&st.last);
                let seconds = st.last_at.elapsed().as_secs_f64();
                st.last = snap;
                st.last_at = Instant::now();
                (delta, seconds)
            };
            let input = TuneInput {
                partition: part.id(),
                name: part.name().to_string(),
                config: config::decode(part.config_word()),
                delta,
                seconds,
            };
            if let Some(new_cfg) = tuner.evaluate(&input) {
                // Contended/TimedOut switches are fine to drop here: the
                // tuner re-evaluates after the next window.
                let _ = self.stm.switch_partition(&part, new_cfg);
            }
        }
    }
}

impl Drop for Tx<'_, '_> {
    fn drop(&mut self) {
        // Cleans up after a panic in user code mid-attempt.
        if self.s.in_attempt {
            self.rollback();
        }
        // The views borrow partitions for `'e`, which may end right after
        // this `Tx` does (see `PartView::part`).
        self.s.views.clear();
    }
}

#[inline(always)]
fn debug_assert_q(cond: bool, msg: &str) {
    debug_assert!(cond, "{msg}");
}

/// Hints the hardware to pull an orec's cache line while the validation
/// pass still works on the previous entry. Advisory only: a no-op
/// architecture (or a stale pointer) costs nothing in correctness.
#[inline(always)]
fn prefetch_orec(p: *const Orec) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects and tolerates any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl ThreadCtx {
    /// Runs `f` as a transaction, retrying (with randomized exponential
    /// backoff) until it commits. Returns the closure's success value.
    ///
    /// Every `&PVar` passed to the transaction must outlive the whole call
    /// (the `'e` lifetime); in practice: keep your data structures alive
    /// outside the closure — the borrow checker enforces the rest.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside a transaction on the same
    /// thread (nesting is not supported; compose closures instead).
    pub fn run<'e, T, F>(&'e self, mut f: F) -> T
    where
        F: for<'s> FnMut(&mut Tx<'e, 's>) -> TxResult<T>,
    {
        let mut scratch = self
            .scratch
            .try_borrow_mut()
            .expect("nested ThreadCtx::run on the same thread");
        let mut tx = Tx {
            stm: &self.stm.inner,
            slot: self.slot,
            s: &mut scratch,
            kill: &self.stm.inner.slots[self.slot].kill,
            _env: PhantomData,
        };
        loop {
            tx.begin();
            match f(&mut tx) {
                Ok(v) => {
                    if tx.try_commit() {
                        tx.after_commit_tuning();
                        return v;
                    }
                }
                Err(_) => {
                    if !tx.s.engine_fail {
                        if let Some(t) = tx.s.views.first() {
                            t.part().stats.aborts_user(tx.slot, 1);
                        }
                    }
                    tx.rollback();
                }
            }
            let attempts = tx.s.attempts;
            if tx.s.tele_sampling && attempts > 0 {
                // Sampled attempt aborted: time the contention-manager
                // backoff it pays before retrying.
                let t0 = Instant::now();
                cm::backoff(attempts, &mut tx.s.rng);
                telemetry::global()
                    .backoff_ns
                    .record(t0.elapsed().as_nanos() as u64);
            } else {
                cm::backoff(attempts, &mut tx.s.rng);
            }
        }
    }
}

/// The STM protocol as a [`Read`]: the inherent method's body.
impl<'e> Read<'e> for Tx<'e, '_> {
    #[inline(always)]
    fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        Tx::read(self, var)
    }
}

/// The STM protocol as an [`Access`]: the inherent methods' bodies.
impl<'e> Access<'e> for Tx<'e, '_> {
    #[inline]
    fn write<T: TxWord>(&mut self, var: &'e PVar<T>, value: T) -> TxResult<()> {
        Tx::write(self, var, value)
    }

    #[inline]
    fn alloc<N: Send + Sync + 'static>(&mut self, arena: &'e Arena<N>) -> TxResult<Handle<N>> {
        arena.alloc(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Granularity, PartitionConfig};
    use crate::stm::Stm;

    fn setup() -> (Stm, Arc<Partition>) {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        (stm, p)
    }

    #[test]
    fn read_own_write_and_commit() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(1u64);
        let observed = ctx.run(|tx| {
            let v0 = tx.read(&x)?;
            tx.write(&x, v0 + 10)?;
            let v1 = tx.read(&x)?;
            Ok((v0, v1))
        });
        assert_eq!(observed, (1, 11));
        assert_eq!(x.load_direct(), 11);
        let s = p.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.update_commits, 1);
    }

    #[test]
    fn user_abort_rolls_back() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(5u64);
        let mut tries = 0;
        let v = ctx.run(|tx| {
            tries += 1;
            tx.write(&x, 99)?;
            if tries < 3 {
                return Err(Abort::retry());
            }
            tx.read(&x)
        });
        assert_eq!(v, 99);
        assert_eq!(x.load_direct(), 99);
        assert_eq!(p.stats().aborts_user, 2);
        assert_eq!(p.stats().commits, 1);
    }

    #[test]
    fn read_only_txn_counts_ro_commit() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(7u64);
        let v = ctx.run(|tx| tx.read(&x));
        assert_eq!(v, 7);
        let s = p.stats();
        assert_eq!(s.ro_commits, 1);
        assert_eq!(s.update_commits, 0);
    }

    #[test]
    fn modify_applies_function() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(10i64);
        let nv = ctx.run(|tx| tx.modify(&x, |v| v * -3));
        assert_eq!(nv, -30);
        assert_eq!(x.load_direct(), -30);
    }

    #[test]
    fn clock_advances_only_for_update_txns() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(0u64);
        let c0 = stm.clock_now();
        ctx.run(|tx| tx.read(&x));
        assert_eq!(stm.clock_now(), c0, "read-only commit leaves clock alone");
        ctx.run(|tx| tx.write(&x, 1));
        assert_eq!(stm.clock_now(), c0 + 1);
    }

    #[test]
    fn counter_increments_across_threads_all_configs() {
        use crate::config::{AcquireMode, CmPolicy, ReadMode};
        for read_mode in [ReadMode::Invisible, ReadMode::Visible] {
            for acquire in [AcquireMode::Encounter, AcquireMode::Commit] {
                for cm_pol in [CmPolicy::SuicideBackoff, CmPolicy::DelayThenAbort] {
                    let stm = Stm::new();
                    let p = stm.new_partition(
                        PartitionConfig::default()
                            .read_mode(read_mode)
                            .acquire(acquire)
                            .cm(cm_pol),
                    );
                    let x = Arc::new(p.tvar(0u64));
                    let threads = 4;
                    let iters = 500;
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let ctx = stm.register_thread();
                            let x = Arc::clone(&x);
                            s.spawn(move || {
                                for _ in 0..iters {
                                    ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
                                }
                            });
                        }
                    });
                    assert_eq!(
                        x.load_direct(),
                        threads * iters,
                        "lost updates under {read_mode:?}/{acquire:?}/{cm_pol:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_lock_granularity_serializes_correctly() {
        let stm = Stm::new();
        let p =
            stm.new_partition(PartitionConfig::default().granularity(Granularity::PartitionLock));
        let a = Arc::new(p.tvar(0u64));
        let b = Arc::new(p.tvar(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = stm.register_thread();
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                s.spawn(move || {
                    for _ in 0..300 {
                        ctx.run(|tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            tx.write(&a, va + 1)?;
                            tx.write(&b, vb + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(a.load_direct(), 1200);
        assert_eq!(b.load_direct(), 1200);
    }

    #[test]
    fn atomicity_two_vars_invariant() {
        // Transfer between two vars: the sum is invariant at every commit.
        let (stm, p) = setup();
        let a = Arc::new(p.tvar(500i64));
        let b = Arc::new(p.tvar(500i64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..3 {
                let ctx = stm.register_thread();
                let (a, b, stop) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
                s.spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        i += 1;
                        let amt = (i * (t + 1)) % 17;
                        ctx.run(|tx| {
                            let va = tx.read(&a)?;
                            let vb = tx.read(&b)?;
                            tx.write(&a, va - amt)?;
                            tx.write(&b, vb + amt)?;
                            Ok(())
                        });
                    }
                });
            }
            let ctx = stm.register_thread();
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            s.spawn(move || {
                for _ in 0..2000 {
                    let sum = ctx.run(|tx| {
                        let va = tx.read(&a)?;
                        let vb = tx.read(&b)?;
                        Ok(va + vb)
                    });
                    assert_eq!(sum, 1000, "atomicity violated");
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        drop(p);
    }

    #[test]
    fn conflict_classification_separates_true_from_aliased() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        // Single-orec partition: every address maps to orec 0, so a held
        // encounter lock on `x` conflicts with *any* access — touching `y`
        // is aliasing (the hint names x), touching `x` is a true conflict.
        let stm = Stm::new();
        let p = stm
            .new_partition(PartitionConfig::named("alias").granularity(Granularity::PartitionLock));
        let x = Arc::new(p.tvar(1u64));
        let y = Arc::new(p.tvar(2u64));
        let locked = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let ctx = stm.register_thread();
                let (x, locked, done) = (Arc::clone(&x), Arc::clone(&locked), Arc::clone(&done));
                s.spawn(move || {
                    ctx.run(|tx| {
                        tx.write(&x, 10)?; // encounter lock; hint = addr of x
                        locked.store(true, AOrd::Release);
                        while !done.load(AOrd::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok(())
                    });
                });
            }
            while !locked.load(AOrd::Acquire) {
                std::thread::yield_now();
            }
            let ctx = stm.register_thread();
            // First attempt conflicts (and classifies); the second attempt
            // backs out without touching anything so the run terminates
            // while the writer still holds the lock.
            let v = ctx.run(|tx| {
                if tx.attempts() >= 1 {
                    return Ok(0);
                }
                tx.read(&y)
            });
            assert_eq!(v, 0, "first attempt must have conflicted");
            let v = ctx.run(|tx| {
                if tx.attempts() >= 1 {
                    return Ok(0);
                }
                tx.read(&x)
            });
            assert_eq!(v, 0, "first attempt must have conflicted");
            done.store(true, AOrd::Release);
        });
        let st = p.stats();
        assert_eq!(
            st.conflicts_aliased, 1,
            "conflict on y against a lock covering x is aliasing"
        );
        assert_eq!(
            st.conflicts_true, 1,
            "conflict on x against a lock covering x is a true conflict"
        );
        assert!((st.aliased_share() - 0.5).abs() < 1e-9);
        assert_eq!(x.load_direct(), 10, "writer committed after the probe");
    }

    #[test]
    fn validation_conflict_attributed_to_the_failing_orec_partition() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        // A transaction reads partition B, writes partition A; a helper
        // commits a write to the same B variable mid-transaction, so
        // commit-time validation fails on one of *B's* orecs. The
        // aliasing telemetry must land on B (the failing orec's owner),
        // not on A (the write partition `fail()` charges the abort to).
        let stm = Stm::new();
        let pa = stm.new_partition(PartitionConfig::named("A"));
        let pb = stm.new_partition(PartitionConfig::named("B"));
        let a = Arc::new(pa.tvar(0u64));
        let b = Arc::new(pb.tvar(0u64));
        let read_done = Arc::new(AtomicBool::new(false));
        let helper_done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let ctx = stm.register_thread();
                let (b, read_done, helper_done) = (
                    Arc::clone(&b),
                    Arc::clone(&read_done),
                    Arc::clone(&helper_done),
                );
                s.spawn(move || {
                    while !read_done.load(AOrd::Acquire) {
                        std::thread::yield_now();
                    }
                    ctx.run(|tx| tx.modify(&b, |v| v + 1).map(|_| ()));
                    helper_done.store(true, AOrd::Release);
                });
            }
            let ctx = stm.register_thread();
            let v = ctx.run(|tx| {
                if tx.attempts() >= 1 {
                    // First attempt must have failed validation; stop.
                    return Ok(u64::MAX);
                }
                let vb = tx.read(&b)?;
                read_done.store(true, AOrd::Release);
                while !helper_done.load(AOrd::Acquire) {
                    std::thread::yield_now();
                }
                tx.write(&a, vb + 1)?;
                Ok(vb)
            });
            assert_eq!(v, u64::MAX, "first attempt must have aborted");
        });
        let (sa, sb) = (pa.stats(), pb.stats());
        assert_eq!(sa.aborts_validation, 1, "abort charged to the writer");
        assert_eq!(
            sb.conflicts_true + sb.conflicts_aliased,
            1,
            "classification charged to the failing orec's partition"
        );
        assert_eq!(
            sa.conflicts_true + sa.conflicts_aliased,
            0,
            "no classification on the write partition"
        );
    }

    #[test]
    fn panic_in_closure_rolls_back_and_releases_locks() {
        let (stm, p) = setup();
        let x = Arc::new(p.tvar(3u64));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ctx = stm.register_thread();
            ctx.run(|tx| {
                tx.write(&x, 42)?;
                panic!("boom");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(result.is_err());
        assert_eq!(x.load_direct(), 3, "write must not leak");
        // The orec must be unlocked again: a fresh transaction succeeds.
        let ctx = stm.register_thread();
        let v = ctx.run(|tx| tx.modify(&x, |v| v + 1));
        assert_eq!(v, 4);
    }

    #[test]
    fn ws_index_handles_many_writes_and_growth() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let vars: Vec<PVar<u64>> = (0..200).map(|i| p.tvar(i)).collect();
        ctx.run(|tx| {
            for (i, v) in vars.iter().enumerate() {
                tx.write(v, (i * 2) as u64)?;
            }
            // Overwrite half of them; read everything back.
            for v in vars.iter().step_by(2) {
                let cur = tx.read(v)?;
                tx.write(v, cur + 1)?;
            }
            Ok(())
        });
        for (i, v) in vars.iter().enumerate() {
            let expect = (i * 2) as u64 + if i % 2 == 0 { 1 } else { 0 };
            assert_eq!(v.load_direct(), expect, "var {i}");
        }
    }

    #[test]
    fn cross_partition_transaction_is_atomic() {
        let stm = Stm::new();
        let p1 = stm.new_partition(PartitionConfig::named("a"));
        let p2 =
            stm.new_partition(PartitionConfig::named("b").read_mode(config::ReadMode::Visible));
        let x = Arc::new(p1.tvar(0u64));
        let y = Arc::new(p2.tvar(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = stm.register_thread();
                let (x, y) = (Arc::clone(&x), Arc::clone(&y));
                s.spawn(move || {
                    for _ in 0..400 {
                        ctx.run(|tx| {
                            let vx = tx.read(&x)?;
                            let vy = tx.read(&y)?;
                            tx.write(&x, vx + 1)?;
                            tx.write(&y, vy + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(x.load_direct(), 1600);
        assert_eq!(y.load_direct(), 1600);
    }

    #[test]
    fn many_partitions_resolve_through_view_index() {
        // Touch enough partitions in one transaction that lookups go
        // through the stamped index (not just the MRU fast path), and
        // interleave accesses so the MRU entry keeps changing.
        let stm = Stm::new();
        let parts: Vec<_> = (0..24)
            .map(|i| stm.new_partition(PartitionConfig::named(format!("p{i}"))))
            .collect();
        let vars: Vec<_> = parts.iter().map(|p| p.tvar(1u64)).collect();
        let ctx = stm.register_thread();
        let total = ctx.run(|tx| {
            let mut sum = 0;
            for v in &vars {
                tx.modify(v, |x| x + 1)?;
            }
            // Second pass in reverse order: every lookup misses the MRU
            // entry and must hit the stamped index.
            for v in vars.iter().rev() {
                sum += tx.read(v)?;
            }
            Ok(sum)
        });
        assert_eq!(total, 48);
        for v in &vars {
            assert_eq!(v.load_direct(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_run_panics() {
        let (stm, p) = setup();
        let ctx = stm.register_thread();
        let x = p.tvar(0u64);
        ctx.run(|_tx| {
            let _ = ctx.run(|tx2| tx2.read(&x));
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "different Stm")]
    fn bound_var_of_foreign_stm_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let p1 = stm1.new_partition(PartitionConfig::default());
        let x = p1.tvar(0u64);
        let ctx = stm2.register_thread();
        ctx.run(|tx| tx.read(&x));
    }

    #[test]
    fn switch_during_load_preserves_counter() {
        // Flip the partition's config under load; no updates may be lost.
        use crate::config::ReadMode;
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("hot").tunable());
        let x = Arc::new(p.tvar(0u64));
        let iters = 2000;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = stm.register_thread();
                let x = Arc::clone(&x);
                s.spawn(move || {
                    for _ in 0..iters {
                        ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
                    }
                });
            }
            let stm2 = stm.clone();
            let p2 = Arc::clone(&p);
            s.spawn(move || {
                for i in 0..20 {
                    let mut cfg = p2.current_config();
                    cfg.read_mode = if i % 2 == 0 {
                        ReadMode::Visible
                    } else {
                        ReadMode::Invisible
                    };
                    cfg.granularity = if i % 3 == 0 {
                        Granularity::PartitionLock
                    } else {
                        Granularity::Word
                    };
                    let _ = stm2.switch_partition(&p2, cfg);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        });
        assert_eq!(x.load_direct(), 4 * iters);
        assert!(p.generation() > 0, "switches must have happened");
    }
}

/// One deterministic, single-thread test per exit of the read fast path
/// (module docs, "The read fast path"): each sets up exactly one reason
/// to fall back and checks that the full path still does its job.
#[cfg(test)]
mod read_path {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::stm::Stm;

    fn addr_of(x: &PVar<u64>) -> usize {
        &x.cell as *const AtomicU64 as usize
    }

    #[test]
    fn fast_reads_record_every_entry() {
        const N: usize = 48;
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let vars: Vec<PVar<u64>> = (0..N as u64).map(|v| p.tvar(v)).collect();
        let ctx = stm.register_thread();
        let (sum, in_set) = ctx.run(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            let (valid, len, _) = tx.debug_validate();
            assert!(valid);
            Ok((sum, len))
        });
        assert_eq!(sum, (0..N as u64).sum::<u64>());
        assert_eq!(in_set, N);
        let s = p.stats();
        assert_eq!(s.reads, N as u64);
        assert_eq!((s.commits, s.ro_commits), (1, 1));
    }

    #[test]
    fn read_own_write_returns_the_buffered_value() {
        // Under commit-time acquisition nothing is locked before commit,
        // so only the write-set check keeps the committed value out.
        for acquire in [AcquireMode::Commit, AcquireMode::Encounter] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::default().acquire(acquire));
            let (x, y) = (p.tvar(1u64), p.tvar(2u64));
            let ctx = stm.register_thread();
            let seen = ctx.run(|tx| {
                tx.write(&x, 10)?;
                let own = tx.read(&x)?;
                let other = tx.read(&y)?;
                Ok((own, other, tx.debug_validate().1))
            });
            // The buffered value is served from the write set, which
            // records no read entry; `y` takes the full path's invisible
            // read.
            assert_eq!(seen, (10, 2, 1), "{acquire:?}");
            assert_eq!(x.load_direct(), 10);
            assert_eq!(p.stats().reads, 2);
        }
    }

    #[test]
    fn sampled_attempt_records_each_read_bucket() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let vars: Vec<PVar<u64>> = (0..6).map(|v| p.tvar(v)).collect();
        let prof = Arc::new(crate::AccessProfiler::new(1, 16));
        stm.set_profiler(Arc::clone(&prof));
        let ctx = stm.register_thread();
        ctx.run(|tx| {
            for v in &vars {
                tx.read(v)?;
            }
            tx.read(&vars[0])?;
            Ok(())
        });
        let mut want = std::collections::BTreeMap::new();
        for v in vars.iter().chain(&vars[..1]) {
            *want.entry(profiler::bucket_of(addr_of(v))).or_insert(0u32) += 1;
        }
        let samples = prof.drain();
        assert_eq!(samples.len(), 1);
        let touch = &samples[0].touched[0];
        assert_eq!((touch.partition, touch.reads, touch.writes), (p.id(), 7, 0));
        let got: std::collections::BTreeMap<u16, u32> =
            touch.buckets.iter().map(|b| (b.bucket, b.reads)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn visible_read_sets_and_clears_the_reader_bit() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().read_mode(ReadMode::Visible));
        let x = p.tvar(7u64);
        let g = p.current_config().granularity;
        let ctx = stm.register_thread();
        let (v, bit_set, entries) = ctx.run(|tx| {
            let v = tx.read(&x)?;
            let bits = p.orec_for(addr_of(&x), g).readers_except(0);
            Ok((v, bits & reader_bit(tx.slot) != 0, tx.debug_validate().1))
        });
        assert_eq!(v, 7);
        assert!(bit_set, "a visible read announces itself");
        assert_eq!(entries, 0, "a visible read records no read entry");
        assert_eq!(p.orec_for(addr_of(&x), g).readers_except(0), 0);
        assert_eq!(p.stats().reads, 1);
    }

    #[test]
    fn orec_locked_by_another_slot_aborts_wlock() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(1u64);
        let (holder, reader) = (stm.register_thread(), stm.register_thread());
        holder.run(|h| {
            // An encounter-time lock on `x`, held while the reader runs.
            h.write(&x, 9)?;
            let got = reader.run(|tx| {
                if tx.attempts() >= 1 {
                    return Ok(None);
                }
                tx.read(&x).map(Some)
            });
            assert_eq!(got, None, "the first attempt must abort");
            Ok(())
        });
        let s = p.stats();
        assert_eq!(s.aborts_wlock, 1);
        assert_eq!(s.conflicts_true, 1);
        assert_eq!(x.load_direct(), 9);
    }

    #[test]
    fn orec_newer_than_rv_extends_and_serves_the_new_value() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let (x, y) = (p.tvar(1u64), p.tvar(2u64));
        let (ctx, pump) = (stm.register_thread(), stm.register_thread());
        let mut runs = 0;
        let seen = ctx.run(|tx| {
            runs += 1;
            let a = tx.read(&x)?;
            let rv = tx.read_version();
            pump.run(|q| q.write(&y, 42));
            let b = tx.read(&y)?;
            assert!(tx.read_version() > rv, "the snapshot was extended");
            Ok((a, b))
        });
        assert_eq!((seen, runs), ((1, 42), 1));
        let s = p.stats();
        assert_eq!(s.extensions, 1);
        assert_eq!(s.aborts_validation, 0);
    }

    #[test]
    fn killed_attempt_aborts_killed() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(3u64);
        let ctx = stm.register_thread();
        let v = ctx.run(|tx| {
            if tx.attempts() >= 1 {
                return tx.read(&x);
            }
            // A kill request naming this attempt, as a writer's
            // arbitration or the quiesce rescue would store it.
            tx.stm.slots[tx.slot]
                .kill
                .store(tx.s.serial, Ordering::SeqCst);
            let r = tx.read(&x);
            assert!(r.is_err(), "a killed attempt serves no read");
            r
        });
        assert_eq!(v, 3);
        let s = p.stats();
        assert_eq!(s.aborts_killed, 1);
        assert_eq!(s.reads, 1, "only the second attempt's read counts");
    }
}

/// Deterministic, single-thread tests of orec acquisition (module docs,
/// "Why acquisition needs no read-set scan"): a write to an orec that
/// moved past `rv` validates the read set through `extend`, under both
/// acquisition modes, and a write to an orec that did not move validates
/// nothing.
#[cfg(test)]
mod write_path {
    use super::*;
    use crate::config::{Granularity, PartitionConfig};
    use crate::stm::Stm;

    /// Reads `a`, lets a second thread context commit `b` on the same
    /// (only) orec, then writes `a`: the first attempt must abort on
    /// validation and the second commit.
    fn stale_read_then_write(acquire: AcquireMode) {
        let stm = Stm::new();
        let p = stm.new_partition(
            PartitionConfig::default()
                .granularity(Granularity::PartitionLock)
                .acquire(acquire),
        );
        let (a, b) = (p.tvar(0u64), p.tvar(0u64));
        let (ctx, pump) = (stm.register_thread(), stm.register_thread());
        let mut runs = 0;
        ctx.run(|tx| {
            runs += 1;
            let v = tx.read(&a)?;
            if tx.attempts() == 0 {
                pump.run(|q| q.write(&b, 1));
            }
            tx.write(&a, v + 1)
        });
        assert_eq!(runs, 2, "{acquire:?}");
        assert_eq!((a.load_direct(), b.load_direct()), (1, 1), "{acquire:?}");
        let s = p.stats();
        assert_eq!(s.aborts_validation, 1, "{acquire:?}");
        assert_eq!(s.commits, 2, "{acquire:?}");
    }

    #[test]
    fn stale_read_aborts_encounter_acquisition() {
        stale_read_then_write(AcquireMode::Encounter);
    }

    #[test]
    fn stale_read_aborts_commit_acquisition() {
        stale_read_then_write(AcquireMode::Commit);
    }

    #[test]
    fn read_then_write_acquires_without_extending() {
        let stm = Stm::new();
        let p =
            stm.new_partition(PartitionConfig::default().granularity(Granularity::PartitionLock));
        let a = p.tvar(5u64);
        let ctx = stm.register_thread();
        let mut runs = 0;
        ctx.run(|tx| {
            runs += 1;
            let v = tx.read(&a)?;
            tx.write(&a, v + 1)?;
            // The entry's orec is now ours, taken from the word it saw.
            let (valid, len, _) = tx.debug_validate();
            assert!(valid);
            assert_eq!(len, 1);
            Ok(())
        });
        assert_eq!(runs, 1);
        assert_eq!(a.load_direct(), 6);
        let s = p.stats();
        assert_eq!((s.extensions, s.aborts_validation), (0, 0));
    }

    #[test]
    fn newer_orec_with_valid_reads_extends_and_commits() {
        let stm = Stm::new();
        let (p, q) = (
            stm.new_partition(PartitionConfig::default()),
            stm.new_partition(PartitionConfig::default()),
        );
        let (a, b) = (p.tvar(1u64), q.tvar(0u64));
        let (ctx, pump) = (stm.register_thread(), stm.register_thread());
        let mut runs = 0;
        ctx.run(|tx| {
            runs += 1;
            let v = tx.read(&a)?;
            let rv = tx.read_version();
            pump.run(|t| t.write(&b, 7));
            // `b`'s orec is past `rv`; `a`'s is not, so `extend` passes.
            tx.write(&b, v + 10)?;
            assert!(tx.read_version() > rv, "the snapshot was extended");
            Ok(())
        });
        assert_eq!(runs, 1);
        assert_eq!(b.load_direct(), 11);
        let s = q.stats();
        assert_eq!((s.extensions, s.aborts_validation), (1, 0));
    }
}
