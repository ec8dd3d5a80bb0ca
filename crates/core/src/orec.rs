//! Ownership records (orecs): the versioned write-locks of the STM.
//!
//! Each partition owns a fixed, power-of-two-sized table of orecs. Every
//! transactional word maps to exactly one orec of its partition (the mapping
//! depends on the partition's current conflict-detection granularity, see
//! [`crate::config::Granularity`]).
//!
//! An orec packs two atomic words:
//!
//! * `lock` — TinySTM-style versioned lock word:
//!   - unlocked: `version << 1 | 0`; `version` is the global-clock timestamp
//!     of the last commit that wrote under this orec;
//!   - locked: `owner_slot << 1 | 1`; `owner_slot` is the thread-slot index
//!     of the writer currently holding the lock.
//! * `readers` — visible-reader bitmap; bit *i* set means thread slot *i*
//!   currently holds a visible read on this orec. Only used while the
//!   partition runs in [`crate::config::ReadMode::Visible`].
//!
//! ## Version rings
//!
//! Each orec additionally owns a small *version ring*: `ring_depth`
//! [`RingSlot`]s, allocated by the partition as one flat array parallel to
//! the orec table. A committing writer, while still holding the orec's
//! write-lock, publishes the value it is about to overwrite as
//! `(address, old value, overwritten-at = wv)` into one slot; the snapshot
//! read path ([`crate::snapshot`]) uses these records to serve a value
//! that was current at its pinned timestamp even after later commits have
//! overwritten the live cell. Slots are written only by the orec's current
//! lock holder (so publications are mutually serialized) and read by
//! anyone, inside the orec's `ring_epoch` seqlock
//! ([`Orec::ring_publish_begin`] / [`Orec::ring_read_begin`]).

use core::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Lock-word low bit: set while a writer owns the orec.
pub const LOCK_BIT: u64 = 1;

/// Returns `true` if the lock word denotes a locked orec.
#[inline(always)]
pub fn is_locked(word: u64) -> bool {
    word & LOCK_BIT != 0
}

/// Extracts the version from an *unlocked* lock word.
#[inline(always)]
pub fn version_of(word: u64) -> u64 {
    debug_assert!(!is_locked(word));
    word >> 1
}

/// Extracts the owner thread-slot index from a *locked* lock word.
#[inline(always)]
pub fn owner_of(word: u64) -> usize {
    debug_assert!(is_locked(word));
    (word >> 1) as usize
}

/// Builds an unlocked lock word carrying `version`.
#[inline(always)]
pub fn make_version(version: u64) -> u64 {
    version << 1
}

/// Builds a locked lock word owned by thread slot `slot`.
#[inline(always)]
pub fn make_locked(slot: usize) -> u64 {
    ((slot as u64) << 1) | LOCK_BIT
}

/// One ownership record, padded to its own cache line.
///
/// ## Why 64 bytes
///
/// The record itself is five words (lock, readers, aliasing hint, and the
/// version ring's epoch and cursor). Unpadded, neighbouring orecs share a
/// cache line, so
/// under the address-mixing hash *unrelated* stripes ping-pong the same
/// line between writers — false sharing stacked on top of the hash
/// aliasing the table size already causes, and invisible to the aliasing
/// telemetry (the conflict never reaches the STM layer; it is paid in
/// memory stalls). `#[repr(align(64))]` gives every orec its own line.
/// The cost is a 64-byte table entry (4× the seed's 16 bytes, ~128 KiB
/// for the default 2048-orec table); the 1-core commit-path microbench
/// (`partition_overhead`) measures parity with the unpadded 16-byte seed
/// layout — `cached_view_64r` ≈ 0.72–0.77 µs/txn padded vs 0.76 µs
/// unpadded, and `validate_64r_1w` (a forced full 64-entry validation
/// pass) ≈ 0.84–0.89 µs, ~1–1.7 ns per validated entry with the batched
/// prefetching pass. The padding is bought for multi-core scaling, not
/// paid for on one core.
///
/// ## The aliasing hint
///
/// `hint` records the word address of the last write acquisition (one
/// relaxed store into a line the acquiring writer already owns — free).
/// It lets a conflicting transaction classify its abort: if the hint names
/// a *different* address than the one it was accessing, the conflict is
/// (very likely) orec *aliasing* — two unrelated addresses hashed onto the
/// same record — rather than a true data conflict. The per-partition
/// `conflicts_aliased` / `conflicts_true` counters built on this probe
/// drive the online analyzer's orec-table [`resize`](crate::Stm::resize_orecs)
/// proposals. The hint is racy telemetry (a second writer may overwrite it
/// before the victim looks); misclassification skews the estimate, never
/// correctness.
#[derive(Debug)]
#[repr(align(64))]
pub struct Orec {
    /// Versioned lock word (see module docs for the encoding).
    pub lock: AtomicU64,
    /// Visible-reader bitmap (thread slot -> bit).
    pub readers: AtomicU64,
    /// Word address of the last write acquisition (0 = none yet);
    /// aliasing telemetry only, see the type docs.
    pub hint: AtomicU64,
    /// History seqlock: odd while a history publication for this orec — a
    /// ring-slot publish or an overflow divert — is in flight. **Single
    /// writer**: only the holder of this orec's write lock stores it
    /// (plain stores, no RMW); successive holders are ordered by the lock
    /// word. A snapshot lookup that overlapped a publication retries — the
    /// marching hazard and the orderings are in [`crate::snapshot`].
    ring_epoch: AtomicU64,
    /// Index, within this orec's ring, of the slot the next publication
    /// looks at: empty, or the ring's smallest close stamp
    /// ([`crate::snapshot`], "The writer looks at one slot"). Writer-owned
    /// like `ring_epoch`; relaxed, readers never look.
    ring_cursor: AtomicUsize,
}

impl Default for Orec {
    fn default() -> Self {
        Orec {
            lock: AtomicU64::new(make_version(0)),
            readers: AtomicU64::new(0),
            hint: AtomicU64::new(0),
            ring_epoch: AtomicU64::new(0),
            ring_cursor: AtomicUsize::new(0),
        }
    }
}

impl Orec {
    /// Current lock word (Acquire: pairs with writers' Release unlock so a
    /// reader that observes the new version also observes the written data).
    #[inline(always)]
    pub fn load_lock(&self) -> u64 {
        self.lock.load(Ordering::Acquire)
    }

    /// The seqlock read of one word this orec covers, as both read fast
    /// paths take it: `l1`, then (only when `l1` is unlocked) the cell,
    /// then `l2`, all acquire — the first iteration of the full paths'
    /// loops (`Tx::read_invisible`, `ReadTx::read_word`), with the same
    /// loads in the same order. Returns `(l1, value)` when `l1` is
    /// unlocked, `l1 == l2` and `version_of(l1) <= *bound`; `None` on any
    /// other outcome, which the caller hands to its full path. `bound` is
    /// read last, after `l2`, as the full paths read it.
    #[inline(always)]
    pub(crate) fn sandwich(&self, cell: &AtomicU64, bound: &u64) -> Option<(u64, u64)> {
        let l1 = self.load_lock();
        if is_locked(l1) {
            return None;
        }
        let val = cell.load(Ordering::Acquire);
        if self.load_lock() != l1 || version_of(l1) > *bound {
            return None;
        }
        Some((l1, val))
    }

    /// Reader bitmap excluding `my_bit`. SeqCst: the visible-read protocol
    /// is a store-buffering pattern (reader: set bit then check lock;
    /// writer: take lock then check bits) and needs a total order so at
    /// least one side observes the other.
    #[inline(always)]
    pub fn readers_except(&self, my_bit: u64) -> u64 {
        self.readers.load(Ordering::SeqCst) & !my_bit
    }

    /// Sets the caller's visible-reader bit; returns `true` if the bit was
    /// newly set (i.e. this transaction had not registered on this orec).
    #[inline(always)]
    pub fn add_reader(&self, my_bit: u64) -> bool {
        self.readers.fetch_or(my_bit, Ordering::SeqCst) & my_bit == 0
    }

    /// Clears the caller's visible-reader bit.
    #[inline(always)]
    pub fn remove_reader(&self, my_bit: u64) {
        self.readers.fetch_and(!my_bit, Ordering::SeqCst);
    }

    /// Attempts to acquire the lock, transitioning `expected_unlocked` ->
    /// locked-by-`slot`. Returns the observed word on failure.
    #[inline(always)]
    pub fn try_lock(&self, expected_unlocked: u64, slot: usize) -> Result<(), u64> {
        self.lock
            .compare_exchange(
                expected_unlocked,
                make_locked(slot),
                Ordering::SeqCst,
                Ordering::Acquire,
            )
            .map(|_| ())
    }

    /// Releases the lock, installing `version` (commit) or restoring the
    /// previous word (abort). Release: publishes the written values.
    #[inline(always)]
    pub fn unlock(&self, word: u64) {
        self.lock.store(word, Ordering::Release);
    }

    /// Publishes the word address this acquisition covers (aliasing
    /// telemetry; called by the writer right after a successful
    /// [`Orec::try_lock`], when it exclusively owns the line anyway).
    #[inline(always)]
    pub fn note_addr(&self, addr: usize) {
        self.hint.store(addr as u64, Ordering::Relaxed);
    }

    /// The last published acquisition address (0 = none yet). Racy by
    /// design — see the type docs.
    #[inline(always)]
    pub fn hint_addr(&self) -> u64 {
        self.hint.load(Ordering::Relaxed)
    }

    /// Opens the history seqlock for one publication (-> odd). Caller must
    /// hold this orec's write lock, which makes it the only writer. The
    /// release fence orders the bump before the record stores that follow
    /// and pairs with the fence in [`Orec::ring_read_validate`].
    #[inline(always)]
    pub fn ring_publish_begin(&self) {
        let e = self.ring_epoch.load(Ordering::Relaxed);
        debug_assert!(e.is_multiple_of(2), "nested history publication");
        self.ring_epoch.store(e.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Closes the history seqlock (-> even). Release: a reader that
    /// acquires the even value sees the whole record.
    #[inline(always)]
    pub fn ring_publish_end(&self) {
        let e = self.ring_epoch.load(Ordering::Relaxed);
        self.ring_epoch.store(e.wrapping_add(1), Ordering::Release);
    }

    /// Reader side, opening load: `Some(epoch)` when no publication is in
    /// flight. Acquire: pairs with [`Orec::ring_publish_end`].
    #[inline(always)]
    pub fn ring_read_begin(&self) -> Option<u64> {
        let e = self.ring_epoch.load(Ordering::Acquire);
        e.is_multiple_of(2).then_some(e)
    }

    /// Reader side, closing check: `true` when the loads since
    /// [`Orec::ring_read_begin`] returned `epoch` overlapped no
    /// publication (a load that observed one makes its odd epoch visible
    /// past the acquire fence).
    #[inline(always)]
    pub fn ring_read_validate(&self, epoch: u64) -> bool {
        fence(Ordering::Acquire);
        self.ring_epoch.load(Ordering::Relaxed) == epoch
    }

    /// The ring cursor. Caller must hold this orec's write lock (or be
    /// inside a quiesce window); likewise for [`Orec::set_ring_cursor`].
    #[inline(always)]
    pub fn ring_cursor(&self) -> usize {
        self.ring_cursor.load(Ordering::Relaxed)
    }

    /// Moves the ring cursor.
    #[inline(always)]
    pub fn set_ring_cursor(&self, k: usize) {
        self.ring_cursor.store(k, Ordering::Relaxed);
    }
}

/// One record of an orec's version ring: a committed value that has since
/// been overwritten, tagged with the word address it belonged to and the
/// commit timestamp `to` of the commit that overwrote it.
///
/// The validity interval needs no explicit lower bound: per address, `to`
/// stamps are exactly the address's commit points, so "the value current
/// at time `T`" is the value of the record with the *smallest `to`
/// strictly greater than `T`" — and the live cell when no such record
/// exists (see the [`crate::snapshot`] module docs for the proof).
///
/// Concurrency: `publish` is called only by the owning orec's lock holder
/// with the orec's epoch bracket ([`Orec::ring_publish_begin`]) open, so
/// writers never race each other and a reader that raced one discards
/// what it loaded: every access is relaxed, the bracket orders them.
/// `to == 0` marks an empty slot — commit timestamps start at 1. Aligned
/// to its 32-byte size so that no slot straddles a cache line.
#[derive(Debug, Default)]
#[repr(align(32))]
pub struct RingSlot {
    /// Word address the recorded value belonged to.
    addr: AtomicU64,
    /// The overwritten value.
    val: AtomicU64,
    /// Commit timestamp of the overwriting commit (0 = slot empty).
    to: AtomicU64,
}

impl RingSlot {
    /// The record's `to` stamp (0 = empty); exact for the lock holder.
    #[inline(always)]
    pub fn close_stamp(&self) -> u64 {
        self.to.load(Ordering::Relaxed)
    }

    /// Overwrites the slot with a fresh record. Caller must hold the
    /// owning orec's write-lock with the epoch bracket open.
    #[inline(always)]
    pub fn publish(&self, addr: u64, val: u64, to: u64) {
        self.addr.store(addr, Ordering::Relaxed);
        self.val.store(val, Ordering::Relaxed);
        self.to.store(to, Ordering::Relaxed);
    }

    /// Clears the slot (control-plane only: inside a quiesce window, whose
    /// closing config-word store publishes it, or on a fresh ring).
    pub fn clear(&self) {
        self.publish(0, 0, 0);
    }

    /// Loads `(addr, val, to)`, possibly torn by a concurrent publication:
    /// usable only once [`Orec::ring_read_validate`] has passed.
    #[inline(always)]
    pub fn load(&self) -> (u64, u64, u64) {
        (
            self.addr.load(Ordering::Relaxed),
            self.val.load(Ordering::Relaxed),
            self.to.load(Ordering::Relaxed),
        )
    }
}

/// The bit a thread slot occupies in reader bitmaps. Slots must be < 64;
/// the runtime enforces `max_threads <= 64` so the mapping is exact.
#[inline(always)]
pub fn reader_bit(slot: usize) -> u64 {
    debug_assert!(slot < 64);
    1u64 << slot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_encoding_roundtrips() {
        for v in [0u64, 1, 42, u64::MAX >> 1] {
            let w = make_version(v);
            assert!(!is_locked(w));
            assert_eq!(version_of(w), v);
        }
        for s in [0usize, 1, 17, 63] {
            let w = make_locked(s);
            assert!(is_locked(w));
            assert_eq!(owner_of(w), s);
        }
    }

    #[test]
    fn lock_acquire_release_cycle() {
        let o = Orec::default();
        let unlocked = o.load_lock();
        assert_eq!(version_of(unlocked), 0);
        o.try_lock(unlocked, 5).unwrap();
        let held = o.load_lock();
        assert!(is_locked(held));
        assert_eq!(owner_of(held), 5);
        // Second acquisition attempt fails and reports the held word.
        assert_eq!(o.try_lock(unlocked, 6), Err(held));
        o.unlock(make_version(9));
        assert_eq!(version_of(o.load_lock()), 9);
    }

    #[test]
    fn reader_bits_set_and_clear() {
        let o = Orec::default();
        assert!(o.add_reader(reader_bit(3)));
        assert!(!o.add_reader(reader_bit(3)), "second set reports not-new");
        assert!(o.add_reader(reader_bit(7)));
        assert_eq!(o.readers_except(reader_bit(3)), reader_bit(7));
        o.remove_reader(reader_bit(3));
        o.remove_reader(reader_bit(7));
        assert_eq!(o.readers_except(0), 0);
    }

    #[test]
    fn orec_occupies_one_cache_line() {
        assert_eq!(core::mem::size_of::<Orec>(), 64);
        assert_eq!(core::mem::align_of::<Orec>(), 64);
        // In a table, neighbours land on distinct lines.
        let pair = [Orec::default(), Orec::default()];
        let a = &pair[0] as *const Orec as usize;
        let b = &pair[1] as *const Orec as usize;
        assert_eq!(a / 64 + 1, b / 64);
    }

    #[test]
    fn hint_publishes_last_acquisition_address() {
        let o = Orec::default();
        assert_eq!(o.hint_addr(), 0, "no acquisition yet");
        o.note_addr(0xDEAD_BEE8);
        assert_eq!(o.hint_addr(), 0xDEAD_BEE8);
        o.note_addr(0x1000);
        assert_eq!(o.hint_addr(), 0x1000, "latest acquisition wins");
    }

    #[test]
    fn ring_slot_publish_read_clear_roundtrip() {
        let s = RingSlot::default();
        assert_eq!(s.close_stamp(), 0, "fresh slot is empty");
        assert_eq!(s.load().2, 0);
        s.publish(0xBEE8, 41, 7);
        assert_eq!(s.close_stamp(), 7);
        assert_eq!(s.load(), (0xBEE8, 41, 7));
        s.publish(0x1000, 99, 12);
        assert_eq!(s.load(), (0x1000, 99, 12), "latest record wins");
        s.clear();
        assert_eq!(s.close_stamp(), 0);
    }

    #[test]
    fn ring_slot_is_32_bytes() {
        // 32 bytes keeps a depth-4 ring on two cache lines; the partition
        // sizes its flat ring allocation as orec_count * depth of these.
        // Aligned to its size, so no slot straddles a line.
        assert_eq!(core::mem::size_of::<RingSlot>(), 32);
        assert_eq!(core::mem::align_of::<RingSlot>(), 32);
    }

    #[test]
    fn ring_epoch_bracket_rejects_overlapping_reads() {
        let o = Orec::default();
        let e = o.ring_read_begin().expect("idle orec: even epoch");
        assert!(o.ring_read_validate(e), "nothing published in between");
        o.ring_publish_begin();
        assert_eq!(o.ring_read_begin(), None, "publication in flight");
        assert!(!o.ring_read_validate(e), "read overlapped the publish");
        o.ring_publish_end();
        assert!(!o.ring_read_validate(e), "and stays rejected afterwards");
        let e2 = o.ring_read_begin().expect("closed again");
        assert_eq!(e2, e + 2, "two plain bumps per publication");
        assert!(o.ring_read_validate(e2));
    }

    /// One writer republishes self-checking records (`val == !addr`, `to ==
    /// addr`) into one slot under the epoch bracket; readers must never
    /// validate a torn triple. Small enough for Miri, whose weak-memory
    /// emulation is what makes the relaxed slot accesses interesting.
    #[test]
    fn ring_epoch_bracket_never_validates_a_torn_record() {
        let o = Orec::default();
        let s = RingSlot::default();
        let rounds: u64 = if cfg!(miri) { 200 } else { 20_000 };
        std::thread::scope(|sc| {
            sc.spawn(|| {
                for i in 1..=rounds {
                    o.ring_publish_begin();
                    s.publish(i, !i, i);
                    o.ring_publish_end();
                }
            });
            for _ in 0..2 {
                sc.spawn(|| {
                    let mut last = 0;
                    while last < rounds {
                        let Some(e) = o.ring_read_begin() else {
                            core::hint::spin_loop();
                            continue;
                        };
                        let (a, v, to) = s.load();
                        if !o.ring_read_validate(e) {
                            continue;
                        }
                        assert_eq!(e, 2 * to, "record belongs to the epoch read");
                        assert!(to == 0 || (v == !a && to == a), "torn record validated");
                        assert!(to >= last, "records never go backwards");
                        last = to;
                    }
                });
            }
        });
    }

    #[test]
    fn reader_bit_positions() {
        assert_eq!(reader_bit(0), 1);
        assert_eq!(reader_bit(63), 1 << 63);
        assert_eq!(reader_bit(5) & reader_bit(6), 0);
    }
}
