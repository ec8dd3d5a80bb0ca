//! Per-partition concurrency-control configuration.
//!
//! This is the heart of the paper's approach: every partition carries its own
//! STM configuration — read visibility, lock-acquisition time, conflict
//! detection granularity and contention-management policy — and the runtime
//! tuner may change the dynamic parts while the application runs.
//!
//! The dynamic configuration is packed into a single `AtomicU64` (the
//! *config word*) so transactions can snapshot it with one load on first
//! touch of a partition. Layout:
//!
//! ```text
//! bits  0     read mode        (0 = invisible, 1 = visible)
//! bits  1     acquire mode     (0 = encounter-time, 1 = commit-time)
//! bits  2-3   granularity kind (0 = word, 1 = stripe, 2 = partition lock)
//! bits  8-13  stripe shift     (log2 bytes per stripe, for Stripe)
//! bits 16     cm kind          (0 = suicide+backoff, 1 = delay-then-abort)
//! bits 17     reader arb       (0 = writer-wins-kill, 1 = reader-wins)
//! bit  30     privatized flag  (the partition is privately held; always
//!                               set together with the switching flag)
//! bit  31     switching flag   (a reconfiguration is in progress)
//! bits 32-63  generation       (incremented on every switch)
//! ```

/// How readers announce themselves (the classic STM design axis the paper
/// tunes per partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadMode {
    /// Readers leave no trace; consistency is ensured by timestamp
    /// validation with lazy snapshot extension (LSA). Cheap reads, but
    /// writers cannot detect readers, so read-write conflicts surface late.
    Invisible,
    /// Readers set a per-orec bitmap bit. Writers detect readers eagerly and
    /// arbitration (kill or yield) resolves the conflict. More expensive
    /// reads, but profitable for update-heavy, contended partitions.
    Visible,
}

/// When writers acquire ownership records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcquireMode {
    /// Encounter-time locking (TinySTM default): acquire at first write.
    /// Detects write-write conflicts early.
    Encounter,
    /// Commit-time locking (TL2 style): buffer writes, acquire during
    /// commit. Shorter lock hold times, later conflict detection.
    Commit,
}

/// Conflict-detection granularity: how addresses map to ownership records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One orec per word (finest; subject to the table's hash aliasing).
    Word,
    /// One orec per `2^shift`-byte stripe. With arena-allocated nodes whose
    /// size matches the stripe this approximates per-object detection.
    Stripe {
        /// log2 of the stripe size in bytes (3..=20).
        shift: u8,
    },
    /// A single orec for the whole partition (coarsest: the partition
    /// degenerates into one versioned lock — optimal under extreme
    /// contention, terrible otherwise).
    PartitionLock,
}

/// Contention management on locked-orec conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmPolicy {
    /// Abort immediately and back off exponentially (randomized).
    SuicideBackoff,
    /// Spin a bounded number of iterations waiting for the lock to be
    /// released, then abort.
    DelayThenAbort,
}

/// Arbitration between a writer and visible readers of an orec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReaderArb {
    /// The writer kills the visible readers and waits for their bits to
    /// clear (TinySTM visible-read behaviour).
    WriterWinsKill,
    /// The writer aborts itself, favouring readers.
    ReaderWins,
}

/// Smallest orec table a resize may install. A floor of 8 keeps the
/// degenerate single-orec table reachable only by explicit construction
/// (`PartitionConfig::orecs(1)`), never by a runtime controller decision.
pub const MIN_ORECS: usize = 8;

/// Largest orec table a resize may install (2^20 records × 64 B = 64 MiB;
/// past that, aliasing pressure is better answered by a partition split).
pub const MAX_ORECS: usize = 1 << 20;

/// Smallest per-orec version-ring depth. One slot still gives snapshot
/// readers the single most recent overwritten value, which covers the
/// common "reader raced one commit" case; depth 0 would force every
/// protected publication into the overflow list.
pub const MIN_RING_DEPTH: usize = 1;

/// Largest per-orec version-ring depth a configuration may request. Rings
/// are allocated as `orec_count × depth` slots of 32 bytes; at depth 64 a
/// default 2048-orec table already costs 4 MiB — beyond that, history
/// should come from a coarser table, not a deeper ring.
pub const MAX_RING_DEPTH: usize = 64;

/// Full (user-facing) partition configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Human-readable partition name (used in reports).
    pub name: String,
    /// Initial number of ownership records (rounded up to a power of
    /// two). No longer fixed for the partition's lifetime: the runtime may
    /// grow or shrink the table in place via
    /// [`Stm::resize_orecs`](crate::Stm::resize_orecs) (clamped to
    /// [`MIN_ORECS`]..=[`MAX_ORECS`]).
    pub orec_count: usize,
    /// Initial read visibility.
    pub read_mode: ReadMode,
    /// Initial lock-acquisition time.
    pub acquire: AcquireMode,
    /// Initial conflict-detection granularity.
    pub granularity: Granularity,
    /// Contention-management policy.
    pub cm: CmPolicy,
    /// Writer-vs-visible-readers arbitration.
    pub reader_arb: ReaderArb,
    /// Per-orec version-ring depth: how many overwritten `(address, value,
    /// overwritten-at)` records each orec retains for the snapshot read
    /// path (see [`crate::snapshot`]). Clamped to
    /// [`MIN_RING_DEPTH`]..=[`MAX_RING_DEPTH`] and fixed for the
    /// partition's lifetime. Memory cost is `orec_count × ring_depth × 32`
    /// bytes per partition.
    pub ring_depth: usize,
    /// Whether the runtime tuner may reconfigure this partition.
    pub tune: bool,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            name: String::new(),
            orec_count: 1 << 11,
            read_mode: ReadMode::Invisible,
            acquire: AcquireMode::Encounter,
            granularity: Granularity::Word,
            cm: CmPolicy::SuicideBackoff,
            reader_arb: ReaderArb::WriterWinsKill,
            ring_depth: 4,
            tune: false,
        }
    }
}

impl PartitionConfig {
    /// Start from defaults with a name.
    pub fn named(name: impl Into<String>) -> Self {
        PartitionConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder-style setter for [`ReadMode`].
    pub fn read_mode(mut self, m: ReadMode) -> Self {
        self.read_mode = m;
        self
    }

    /// Builder-style setter for [`AcquireMode`].
    pub fn acquire(mut self, a: AcquireMode) -> Self {
        self.acquire = a;
        self
    }

    /// Builder-style setter for [`Granularity`].
    pub fn granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style setter for the orec table size.
    pub fn orecs(mut self, n: usize) -> Self {
        self.orec_count = n;
        self
    }

    /// Builder-style setter for [`CmPolicy`].
    pub fn cm(mut self, cm: CmPolicy) -> Self {
        self.cm = cm;
        self
    }

    /// Builder-style setter for [`ReaderArb`].
    pub fn reader_arb(mut self, arb: ReaderArb) -> Self {
        self.reader_arb = arb;
        self
    }

    /// Builder-style setter for the per-orec version-ring depth (clamped
    /// to [`MIN_RING_DEPTH`]..=[`MAX_RING_DEPTH`] at partition creation).
    pub fn ring(mut self, depth: usize) -> Self {
        self.ring_depth = depth;
        self
    }

    /// Enable runtime tuning for this partition.
    pub fn tunable(mut self) -> Self {
        self.tune = true;
        self
    }
}

/// The dynamic (tunable) slice of a partition configuration — everything
/// encoded in the config word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynConfig {
    /// Read visibility.
    pub read_mode: ReadMode,
    /// Lock-acquisition time.
    pub acquire: AcquireMode,
    /// Conflict-detection granularity.
    pub granularity: Granularity,
    /// Contention management.
    pub cm: CmPolicy,
    /// Reader/writer arbitration.
    pub reader_arb: ReaderArb,
}

impl From<&PartitionConfig> for DynConfig {
    fn from(c: &PartitionConfig) -> Self {
        DynConfig {
            read_mode: c.read_mode,
            acquire: c.acquire,
            granularity: c.granularity,
            cm: c.cm,
            reader_arb: c.reader_arb,
        }
    }
}

const READ_MODE_BIT: u64 = 1 << 0;
const ACQUIRE_BIT: u64 = 1 << 1;
const GRAN_SHIFT: u32 = 2;
const GRAN_MASK: u64 = 0b11 << GRAN_SHIFT;
const STRIPE_SHIFT: u32 = 8;
const STRIPE_MASK: u64 = 0x3f << STRIPE_SHIFT;
const CM_BIT: u64 = 1 << 16;
const ARB_BIT: u64 = 1 << 17;
/// Switching flag bit (public: the transaction path tests it on touch).
pub const SWITCHING_BIT: u64 = 1 << 31;
/// Privatized flag bit: the partition is held by a
/// [`PrivateGuard`](crate::PrivateGuard) and every transactional attempt
/// must abort-and-back-off. Only ever set *together with*
/// [`SWITCHING_BIT`] — the switching flag carries the mutual exclusion
/// (transactions and other control-plane operations already honour it);
/// this bit merely classifies the hold so collisions can be counted
/// separately and observers can tell a privatization from a switch.
pub const PRIVATIZED_BIT: u64 = 1 << 30;
const GEN_SHIFT: u32 = 32;

/// Encodes a [`DynConfig`] plus generation into a config word (switching
/// flag clear).
pub fn encode(cfg: DynConfig, generation: u32) -> u64 {
    let mut w = 0u64;
    if cfg.read_mode == ReadMode::Visible {
        w |= READ_MODE_BIT;
    }
    if cfg.acquire == AcquireMode::Commit {
        w |= ACQUIRE_BIT;
    }
    match cfg.granularity {
        Granularity::Word => {}
        Granularity::Stripe { shift } => {
            w |= 1 << GRAN_SHIFT;
            w |= ((shift as u64) << STRIPE_SHIFT) & STRIPE_MASK;
        }
        Granularity::PartitionLock => w |= 2 << GRAN_SHIFT,
    }
    if cfg.cm == CmPolicy::DelayThenAbort {
        w |= CM_BIT;
    }
    if cfg.reader_arb == ReaderArb::ReaderWins {
        w |= ARB_BIT;
    }
    w |= (generation as u64) << GEN_SHIFT;
    w
}

/// Decodes a config word (ignores the switching flag).
pub fn decode(word: u64) -> DynConfig {
    let granularity = match (word & GRAN_MASK) >> GRAN_SHIFT {
        0 => Granularity::Word,
        1 => Granularity::Stripe {
            shift: ((word & STRIPE_MASK) >> STRIPE_SHIFT) as u8,
        },
        _ => Granularity::PartitionLock,
    };
    DynConfig {
        read_mode: if word & READ_MODE_BIT != 0 {
            ReadMode::Visible
        } else {
            ReadMode::Invisible
        },
        acquire: if word & ACQUIRE_BIT != 0 {
            AcquireMode::Commit
        } else {
            AcquireMode::Encounter
        },
        granularity,
        cm: if word & CM_BIT != 0 {
            CmPolicy::DelayThenAbort
        } else {
            CmPolicy::SuicideBackoff
        },
        reader_arb: if word & ARB_BIT != 0 {
            ReaderArb::ReaderWins
        } else {
            ReaderArb::WriterWinsKill
        },
    }
}

/// Extracts the generation counter from a config word.
#[inline(always)]
pub fn generation(word: u64) -> u32 {
    (word >> GEN_SHIFT) as u32
}

/// Returns `true` if the switching flag is set.
#[inline(always)]
pub fn is_switching(word: u64) -> bool {
    word & SWITCHING_BIT != 0
}

/// Returns `true` if the privatized flag is set (the partition is held by
/// a [`PrivateGuard`](crate::PrivateGuard)).
#[inline(always)]
pub fn is_privatized(word: u64) -> bool {
    word & PRIVATIZED_BIT != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_dyn_configs() -> Vec<DynConfig> {
        let mut v = Vec::new();
        for rm in [ReadMode::Invisible, ReadMode::Visible] {
            for aq in [AcquireMode::Encounter, AcquireMode::Commit] {
                for g in [
                    Granularity::Word,
                    Granularity::Stripe { shift: 3 },
                    Granularity::Stripe { shift: 8 },
                    Granularity::Stripe { shift: 20 },
                    Granularity::PartitionLock,
                ] {
                    for cm in [CmPolicy::SuicideBackoff, CmPolicy::DelayThenAbort] {
                        for arb in [ReaderArb::WriterWinsKill, ReaderArb::ReaderWins] {
                            v.push(DynConfig {
                                read_mode: rm,
                                acquire: aq,
                                granularity: g,
                                cm,
                                reader_arb: arb,
                            });
                        }
                    }
                }
            }
        }
        v
    }

    #[test]
    fn config_word_roundtrips_all_combinations() {
        for cfg in all_dyn_configs() {
            for generation_in in [0u32, 1, 77, u32::MAX] {
                let w = encode(cfg, generation_in);
                assert_eq!(decode(w), cfg, "cfg {cfg:?}");
                assert_eq!(generation(w), generation_in);
                assert!(!is_switching(w));
                assert!(is_switching(w | SWITCHING_BIT));
                assert_eq!(decode(w | SWITCHING_BIT), cfg, "switching bit is ignored");
                assert!(!is_privatized(w));
                assert!(is_privatized(w | PRIVATIZED_BIT));
                assert_eq!(
                    decode(w | SWITCHING_BIT | PRIVATIZED_BIT),
                    cfg,
                    "privatized bit is ignored by decode"
                );
                assert_eq!(
                    generation(w | SWITCHING_BIT | PRIVATIZED_BIT),
                    generation_in
                );
            }
        }
    }

    #[test]
    fn default_config_is_tinystm_like() {
        let c = PartitionConfig::default();
        assert_eq!(c.read_mode, ReadMode::Invisible);
        assert_eq!(c.acquire, AcquireMode::Encounter);
        assert_eq!(c.granularity, Granularity::Word);
        assert_eq!(c.orec_count, 2048);
        assert_eq!(c.ring_depth, 4);
        assert!(!c.tune);
    }

    #[test]
    fn builder_setters_compose() {
        let c = PartitionConfig::named("tree")
            .read_mode(ReadMode::Visible)
            .acquire(AcquireMode::Commit)
            .granularity(Granularity::Stripe { shift: 6 })
            .orecs(128)
            .cm(CmPolicy::DelayThenAbort)
            .reader_arb(ReaderArb::ReaderWins)
            .ring(8)
            .tunable();
        assert_eq!(c.name, "tree");
        assert_eq!(c.read_mode, ReadMode::Visible);
        assert_eq!(c.acquire, AcquireMode::Commit);
        assert_eq!(c.granularity, Granularity::Stripe { shift: 6 });
        assert_eq!(c.orec_count, 128);
        assert_eq!(c.cm, CmPolicy::DelayThenAbort);
        assert_eq!(c.reader_arb, ReaderArb::ReaderWins);
        assert_eq!(c.ring_depth, 8);
        assert!(c.tune);
    }

    #[test]
    fn generation_does_not_bleed_into_flags() {
        let cfg = DynConfig::from(&PartitionConfig::default());
        let w = encode(cfg, u32::MAX);
        assert!(
            !is_switching(w),
            "generation must not set the switching bit"
        );
        assert!(
            !is_privatized(w),
            "generation must not set the privatized bit"
        );
        assert_eq!(decode(w), cfg);
    }
}
