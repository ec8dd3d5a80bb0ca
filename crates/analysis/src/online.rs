//! Online repartitioning analysis: fold sampled runtime traces into an
//! affinity/conflict view and propose partition splits and merges.
//!
//! This is the dynamic counterpart of the static partitioner: where
//! [`partition`](crate::partitioner::partition()) closes may-touch sets the
//! *compiler* derived, the [`OnlineAnalyzer`] closes *observed* co-access
//! sets the sampled profiler (`partstm_core::profiler`) reports while the
//! program runs. Nodes of the graph are `(partition, address bucket)`
//! pairs; edges are weighted by how often two buckets were touched by the
//! same transaction (affinity) and annotated with write pressure
//! (conflict potential).
//!
//! The output, [`OnlineAnalyzer::proposals`], is a list of actionable
//! [`Proposal::Split`] / [`Proposal::Merge`] decisions, computed by an
//! incremental union-find over *strong* affinity edges followed by a
//! min-cut-style hot-edge splitter: strong edges are never cut (splitting
//! co-accessed data would turn every transaction multi-partition), weak
//! edges are, and the hottest write-heavy components are taken as the
//! split set.

use std::collections::BTreeMap;

use partstm_core::profiler::TxSample;
use partstm_core::telemetry::codes;
use partstm_core::{PartitionId, StatCounters};

use crate::unionfind::UnionFind;

/// A graph node: one address bucket of one partition.
pub type Node = (PartitionId, u16);

/// Per-sample cap on affinity-edge endpoints (bounds graph densification
/// to `O(MAX_EDGE_FANOUT²)` per sample).
const MAX_EDGE_FANOUT: usize = 8;

/// Load observed on one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Sampled reads that landed in the bucket.
    pub reads: u64,
    /// Sampled writes that landed in the bucket.
    pub writes: u64,
    /// Sampled transactions that touched the bucket.
    pub txns: u64,
}

/// An affinity edge is *strong* (never cut) when its weight is at least
/// this fraction of the partition's sampled transactions.
const STRONG_EDGE_FRACTION: f64 = 0.40;
/// A component is *hot* (worth isolating) when its per-bucket write load
/// is at least this multiple of the partition's mean per-bucket write
/// load.
const SPLIT_HOT_FACTOR: f64 = 4.0;
/// A split's hot components span at most this fraction of the
/// partition's observed buckets (a diffuse partition has no hot set worth
/// isolating).
const SPLIT_MAX_BUCKET_FRACTION: f64 = 0.25;
/// Propose merging two partitions when both abort below this rate and
/// they are co-accessed (see [`MERGE_SPAN_FRACTION`]).
const MERGE_ABORT_RATE: f64 = 0.02;
/// Fraction of either partition's sampled transactions that must span
/// both partitions to propose a merge (cross-partition transactions pay
/// per-partition bookkeeping twice; merging removes it).
const MERGE_SPAN_FRACTION: f64 = 0.50;
/// Propose an orec-table resize when the partition's abort rate is at
/// least this (lower than the default split gate: growing a table is far
/// cheaper than a migration, so it may fire earlier) ...
const RESIZE_ABORT_RATE: f64 = 0.05;
/// ... and at least this fraction of its *classified* conflicts were
/// aliased (false) conflicts — the engine-side telemetry
/// (`StatCounters::{conflicts_true, conflicts_aliased}`) that
/// distinguishes "table too small" from genuine data contention ...
const RESIZE_MIN_ALIASED_SHARE: f64 = 0.50;
/// ... out of at least this many classified conflicts in the window (a
/// handful of aborts is noise) ...
const RESIZE_MIN_CLASSIFIED: u64 = 16;
/// ... and the partition's sampled footprint spans at least this many
/// profile buckets. A diffuse footprint plus a high aliased share means
/// unrelated data is hashing onto shared orecs — more orecs fix it; a
/// *concentrated* footprint is a hot set, which the split path handles
/// structurally (splits always take precedence).
const RESIZE_MIN_BUCKETS: usize = 16;
/// Growth factor per executed resize (the table size ladder).
const RESIZE_FACTOR: usize = 4;
/// Largest table the analyzer will propose (further aliasing pressure
/// past this is better answered by a split).
const RESIZE_MAX_ORECS: usize = 1 << 16;
/// A hot set this small (in profile buckets) is a *celebrity* set:
/// propose tearing just those slots out of their collections
/// ([`Proposal::Tear`]) instead of splitting whole structures. Wider hot
/// sets fall back to [`Proposal::Split`].
const TEAR_MAX_BUCKETS: usize = 12;
/// ... provided the set carries at least this fraction of the
/// partition's sampled write load (a tear moves few nodes, so it must
/// capture the bulk of the heat to pay for its window).
const TEAR_HOT_SHARE: f64 = 0.55;
/// Heal a torn partition back into its origin once its share of the
/// combined (torn + origin) sampled *write* load drops below this. Write
/// heat is what tears; write silence is what heals — counting reads would
/// let a scan-heavy origin swamp the ratio and heal a subset whose skew is
/// still live.
const HEAL_MAX_SHARE: f64 = 0.10;

/// The settable thresholds of the online analysis; the other gates are
/// fixed constants of this module.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Minimum samples accumulated on a partition before any proposal.
    pub min_samples: u64,
    /// Propose a split when the partition's abort rate is at least this.
    pub split_abort_rate: f64,
    /// A split's hot components together carry at least this fraction of
    /// the partition's sampled write load.
    pub split_hot_share: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            min_samples: 64,
            split_abort_rate: 0.10,
            split_hot_share: 0.50,
        }
    }
}

/// One actionable repartitioning decision.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// Move `buckets` of `src` into a fresh partition.
    Split {
        /// The overloaded partition.
        src: PartitionId,
        /// The hot bucket set to take (sorted).
        buckets: Vec<u16>,
        /// Fraction of `src`'s sampled write load the set carries.
        hot_share: f64,
        /// Abort rate that triggered the proposal.
        abort_rate: f64,
    },
    /// Fold `src` into `dst` (both cold, frequently co-accessed).
    Merge {
        /// Partition to dissolve (the smaller commit count of the pair).
        src: PartitionId,
        /// Partition to receive `src`'s variables.
        dst: PartitionId,
        /// Fraction of the busier partition's samples spanning both.
        span_share: f64,
    },
    /// Grow `partition`'s orec table in place to `new_count` records: its
    /// conflicts are dominated by *aliasing* (unrelated addresses hashing
    /// onto shared orecs) over a diffuse footprint — a finer table removes
    /// the false conflicts without moving any data.
    Resize {
        /// The aliasing-bound partition.
        partition: PartitionId,
        /// Proposed table size (records; the runtime rounds/clamps).
        new_count: usize,
        /// Fraction of classified conflicts that were aliased.
        aliased_share: f64,
        /// Abort rate that triggered the proposal.
        abort_rate: f64,
    },
    /// Tear the hot slots of `buckets` out of `src`'s collections into
    /// their own partition: the hot set is narrow enough (celebrity keys)
    /// that moving whole structures would drag thousands of cold nodes
    /// along. The controller maps the buckets back to live arena slots
    /// through its directory's reverse map.
    Tear {
        /// The overloaded partition.
        src: PartitionId,
        /// The celebrity bucket set to tear (sorted).
        buckets: Vec<u16>,
        /// Fraction of `src`'s sampled write load the set carries.
        hot_share: f64,
        /// Abort rate that triggered the proposal.
        abort_rate: f64,
    },
    /// Re-merge a torn slot subset into its origin partition: the skew
    /// passed, and keeping the extra partition only costs bookkeeping.
    Heal {
        /// The torn partition to dissolve.
        src: PartitionId,
        /// Its origin (where the slots came from).
        dst: PartitionId,
        /// `src`'s share of the combined torn + origin sampled write
        /// load.
        load_share: f64,
    },
}

/// The kind of a structural action: what a [`Proposal`] asks for, what the
/// controller executes, and what its event log and the telemetry control
/// timeline report. The discriminants are the telemetry `codes::ACTION_*`
/// table and [`ActionKind::name`] is `codes::action_name`, so there is one
/// spelling of "an action of kind K" from proposal to exported event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ActionKind {
    /// Move a hot bucket set into a fresh partition.
    Split = codes::ACTION_SPLIT as u8,
    /// Fold a cold partition into a co-accessed one.
    Merge = codes::ACTION_MERGE as u8,
    /// Grow a partition's orec table in place.
    Resize = codes::ACTION_RESIZE as u8,
    /// Tear a celebrity slot subset out of its collections.
    Tear = codes::ACTION_TEAR as u8,
    /// Re-merge a torn slot subset into its origin.
    Heal = codes::ACTION_HEAL as u8,
}

impl ActionKind {
    /// The telemetry `codes::ACTION_*` value of this kind.
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// The kind's name in timelines and reports (`"split"`, `"merge"`, ...).
    pub fn name(self) -> &'static str {
        codes::action_name(self.code())
    }
}

impl core::fmt::Display for ActionKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// What every [`Proposal`] has in common, whatever its kind: enough to key
/// a hysteresis streak, emit a telemetry event and gate the action without
/// matching on the variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposalHeader {
    /// What the proposal asks for.
    pub kind: ActionKind,
    /// The partition acted on (`src`; a resize's `partition`).
    pub subject: PartitionId,
    /// The second pre-existing partition involved, if any (a merge's or
    /// heal's `dst`).
    pub partner: Option<PartitionId>,
    /// The share that scored the proposal (`hot_share`, `span_share`,
    /// `aliased_share` or `load_share`).
    pub score: f64,
}

impl Proposal {
    /// The kind-independent view of this proposal.
    pub fn header(&self) -> ProposalHeader {
        let (kind, subject, partner, score) = match *self {
            Proposal::Split { src, hot_share, .. } => (ActionKind::Split, src, None, hot_share),
            Proposal::Tear { src, hot_share, .. } => (ActionKind::Tear, src, None, hot_share),
            Proposal::Merge {
                src,
                dst,
                span_share,
            } => (ActionKind::Merge, src, Some(dst), span_share),
            Proposal::Heal {
                src,
                dst,
                load_share,
            } => (ActionKind::Heal, src, Some(dst), load_share),
            Proposal::Resize {
                partition,
                aliased_share,
                ..
            } => (ActionKind::Resize, partition, None, aliased_share),
        };
        ProposalHeader {
            kind,
            subject,
            partner,
            score,
        }
    }
}

/// Runtime facts about one partition the sampled graph cannot see; the
/// controller feeds these alongside the statistics window so proposals can
/// reference current capacities.
#[derive(Debug, Clone, Copy)]
pub struct PartitionMeta {
    /// Current orec-table size (records).
    pub orec_count: usize,
    /// `Some(origin)` when this partition holds a torn slot subset. Torn
    /// partitions are *terminal* for structural proposals — they only ever
    /// heal back into their origin (no split/tear/resize/merge), which
    /// keeps the tear/heal cycle from compounding.
    pub torn_from: Option<PartitionId>,
}

/// Per-partition aggregate the analyzer keeps alongside the graph.
#[derive(Debug, Clone, Copy, Default)]
struct PartAgg {
    samples: u64,
    spanning: u64,
}

/// Incremental affinity/conflict analysis over profiler samples.
#[derive(Debug, Default)]
pub struct OnlineAnalyzer {
    nodes: BTreeMap<Node, NodeLoad>,
    /// Co-access weights, keyed with the smaller node first.
    edges: BTreeMap<(Node, Node), u64>,
    /// Cross-partition co-access weights (partition pairs).
    span_edges: BTreeMap<(PartitionId, PartitionId), u64>,
    parts: BTreeMap<PartitionId, PartAgg>,
    samples: u64,
}

impl OnlineAnalyzer {
    /// An empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Observed nodes with their loads (for reports).
    pub fn nodes(&self) -> &BTreeMap<Node, NodeLoad> {
        &self.nodes
    }

    /// Folds one sampled transaction into the graph.
    pub fn observe(&mut self, sample: &TxSample) {
        self.samples += 1;
        let mut written_nodes: Vec<Node> = Vec::new();
        for t in &sample.touched {
            let agg = self.parts.entry(t.partition).or_default();
            agg.samples += 1;
            if sample.spans_partitions() {
                agg.spanning += 1;
            }
            for b in &t.buckets {
                let node = (t.partition, b.bucket);
                let load = self.nodes.entry(node).or_default();
                load.reads += b.reads as u64;
                load.writes += b.writes as u64;
                load.txns += 1;
                if b.writes > 0 {
                    written_nodes.push(node);
                }
            }
        }
        // Span edges: which partition pairs this transaction straddled
        // (touched-partition granularity; cheap, feeds merge decisions).
        for i in 0..sample.touched.len() {
            for j in (i + 1)..sample.touched.len() {
                let (a, b) = (sample.touched[i].partition, sample.touched[j].partition);
                let key = if a < b { (a, b) } else { (b, a) };
                *self.span_edges.entry(key).or_insert(0) += 1;
            }
        }
        // Affinity edges join buckets *written* together — the co-update
        // sets a split must not separate. Read-only fan-in (wide scans)
        // deliberately creates no edges: it would densify the graph
        // quadratically (a 32-read scan is ~500 pairs) and a split never
        // harms a read-only transaction beyond one extra partition view.
        written_nodes.sort_unstable();
        written_nodes.dedup();
        if written_nodes.len() > MAX_EDGE_FANOUT {
            // Cap fan-out by stride-sampling across the sorted set: a
            // plain truncate would deterministically starve high-keyed
            // buckets of affinity edges.
            let stride = written_nodes.len().div_ceil(MAX_EDGE_FANOUT);
            let offset = (self.samples as usize) % stride;
            written_nodes = written_nodes
                .into_iter()
                .skip(offset)
                .step_by(stride)
                .collect();
        }
        for i in 0..written_nodes.len() {
            for j in (i + 1)..written_nodes.len() {
                let (a, b) = (written_nodes[i], written_nodes[j]);
                *self.edges.entry((a, b)).or_insert(0) += 1;
            }
        }
    }

    /// Folds a batch of samples.
    pub fn observe_all<'a>(&mut self, samples: impl IntoIterator<Item = &'a TxSample>) {
        for s in samples {
            self.observe(s);
        }
    }

    /// Exponentially ages every weight by `factor` (0..=1), so the graph
    /// tracks the *current* phase of the workload instead of its whole
    /// history. Weights decayed to zero are dropped.
    pub fn decay(&mut self, factor: f64) {
        let f = factor.clamp(0.0, 1.0);
        let scale_u64 = |v: &mut u64| *v = (*v as f64 * f) as u64;
        self.nodes.retain(|_, l| {
            scale_u64(&mut l.reads);
            scale_u64(&mut l.writes);
            scale_u64(&mut l.txns);
            l.txns > 0 || l.reads > 0 || l.writes > 0
        });
        self.edges.retain(|_, w| {
            scale_u64(w);
            *w > 0
        });
        self.span_edges.retain(|_, w| {
            scale_u64(w);
            *w > 0
        });
        for agg in self.parts.values_mut() {
            scale_u64(&mut agg.samples);
            scale_u64(&mut agg.spanning);
        }
        self.samples = (self.samples as f64 * f) as u64;
    }

    /// Drops all observations for `part` (called after a repartition
    /// executed: the old observations describe a partition shape that no
    /// longer exists).
    pub fn forget_partition(&mut self, part: PartitionId) {
        self.nodes.retain(|n, _| n.0 != part);
        self.edges.retain(|(a, b), _| a.0 != part && b.0 != part);
        self.span_edges.retain(|(a, b), _| *a != part && *b != part);
        self.parts.remove(&part);
    }

    /// The affinity components of one partition: buckets joined by strong
    /// edges, as `(members, write_load)` lists sorted hottest-first.
    fn components_of(&self, part: PartitionId) -> Vec<(Vec<u16>, u64)> {
        let buckets: Vec<u16> = self
            .nodes
            .keys()
            .filter(|n| n.0 == part)
            .map(|n| n.1)
            .collect();
        if buckets.is_empty() {
            return Vec::new();
        }
        let index: BTreeMap<u16, usize> =
            buckets.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut uf = UnionFind::new(buckets.len());
        let part_samples = self.parts.get(&part).map_or(0, |a| a.samples).max(1);
        let strong = (STRONG_EDGE_FRACTION * part_samples as f64).max(1.0) as u64;
        for (&(a, b), &w) in &self.edges {
            if a.0 == part && b.0 == part && w >= strong {
                uf.union(index[&a.1], index[&b.1]);
            }
        }
        let mut comps: BTreeMap<usize, (Vec<u16>, u64)> = BTreeMap::new();
        for &b in &buckets {
            let root = uf.find(index[&b]);
            let entry = comps.entry(root).or_default();
            entry.0.push(b);
            entry.1 += self.nodes[&(part, b)].writes;
        }
        let mut out: Vec<(Vec<u16>, u64)> = comps.into_values().collect();
        out.sort_by_key(|c| core::cmp::Reverse(c.1));
        out
    }

    /// Computes actionable proposals given per-partition statistics deltas
    /// for the same observation window (commits/aborts attribute conflict
    /// pressure the sampled graph cannot see on its own).
    ///
    /// Without partition metadata, resize proposals are suppressed (the
    /// analyzer cannot size a table it cannot see); use
    /// [`OnlineAnalyzer::proposals_with_meta`] for the full set.
    pub fn proposals(
        &self,
        stats: &BTreeMap<PartitionId, StatCounters>,
        cfg: &OnlineConfig,
    ) -> Vec<Proposal> {
        self.proposals_with_meta(stats, &BTreeMap::new(), cfg)
    }

    /// [`OnlineAnalyzer::proposals`] plus the metadata-dependent
    /// decisions: orec-table [`Proposal::Resize`]s (which need each
    /// partition's current table size), celebrity-key [`Proposal::Tear`]s
    /// (narrow hot sets), and [`Proposal::Heal`]s for torn partitions
    /// (`meta.torn_from`) whose skew has passed. Splits/tears take
    /// precedence: a partition with an actionable hot set is fixed
    /// structurally, not by a bigger table.
    pub fn proposals_with_meta(
        &self,
        stats: &BTreeMap<PartitionId, StatCounters>,
        meta: &BTreeMap<PartitionId, PartitionMeta>,
        cfg: &OnlineConfig,
    ) -> Vec<Proposal> {
        let mut out = Vec::new();
        let abort_rate = |s: &StatCounters| {
            let attempts = s.commits + s.aborts();
            if attempts == 0 {
                0.0
            } else {
                s.aborts() as f64 / attempts as f64
            }
        };

        let torn_from = |pid: &PartitionId| meta.get(pid).and_then(|m| m.torn_from);

        // Splits / tears: hot-edge clustering per overloaded partition.
        for (&pid, agg) in &self.parts {
            if agg.samples < cfg.min_samples || torn_from(&pid).is_some() {
                continue;
            }
            let Some(s) = stats.get(&pid) else { continue };
            let ar = abort_rate(s);
            if ar < cfg.split_abort_rate {
                continue;
            }
            let comps = self.components_of(pid);
            let total_buckets: usize = comps.iter().map(|c| c.0.len()).sum();
            let total_writes: u64 = comps.iter().map(|c| c.1).sum();
            if total_writes == 0 || total_buckets < 2 {
                continue;
            }
            // Take every *clearly hot* component — per-bucket write load
            // at least `split_hot_factor` times the partition mean — so
            // one split captures the whole hot set (a partial grab leaves
            // hot residue behind and forces a second split). Components
            // are sorted hottest-first; never take everything (a split
            // must leave both sides populated).
            let mean = total_writes as f64 / total_buckets as f64;
            let mut hot: Vec<u16> = Vec::new();
            let mut hot_writes = 0u64;
            for (members, w) in &comps {
                let per_bucket = *w as f64 / members.len().max(1) as f64;
                if per_bucket < SPLIT_HOT_FACTOR * mean
                    || hot.len() + members.len() >= total_buckets
                {
                    continue;
                }
                hot.extend_from_slice(members);
                hot_writes += w;
            }
            let hot_share = hot_writes as f64 / total_writes as f64;
            if hot.is_empty()
                || hot_share < cfg.split_hot_share
                || hot.len() as f64 > SPLIT_MAX_BUCKET_FRACTION * total_buckets as f64
            {
                continue;
            }
            hot.sort_unstable();
            // A narrow hot set carrying the bulk of the write load is a
            // celebrity-key signature: tear just those slots out of their
            // collections instead of splitting whole structures.
            if hot.len() <= TEAR_MAX_BUCKETS && hot_share >= TEAR_HOT_SHARE {
                out.push(Proposal::Tear {
                    src: pid,
                    buckets: hot,
                    hot_share,
                    abort_rate: ar,
                });
            } else {
                out.push(Proposal::Split {
                    src: pid,
                    buckets: hot,
                    hot_share,
                    abort_rate: ar,
                });
            }
        }

        // Resizes: aliasing-bound partitions (no actionable hot set — the
        // split pass above stayed silent — but conflicts dominated by
        // false sharing in the orec table over a diffuse footprint).
        for (&pid, agg) in &self.parts {
            if agg.samples < cfg.min_samples
                || torn_from(&pid).is_some()
                || out.iter().any(|p| {
                    matches!(p, Proposal::Split { src, .. } | Proposal::Tear { src, .. }
                        if *src == pid)
                })
            {
                continue;
            }
            let (Some(s), Some(m)) = (stats.get(&pid), meta.get(&pid)) else {
                continue;
            };
            let ar = abort_rate(s);
            let classified = s.conflicts_true + s.conflicts_aliased;
            let aliased_share = s.aliased_share();
            // Footprint from the profiler's per-bucket counters: how many
            // distinct buckets the partition's sampled traffic spans.
            let footprint = self.nodes.keys().filter(|n| n.0 == pid).count();
            if ar < RESIZE_ABORT_RATE
                || classified < RESIZE_MIN_CLASSIFIED
                || aliased_share < RESIZE_MIN_ALIASED_SHARE
                || footprint < RESIZE_MIN_BUCKETS
                || m.orec_count >= RESIZE_MAX_ORECS
            {
                continue;
            }
            let new_count = m
                .orec_count
                .saturating_mul(RESIZE_FACTOR)
                .min(RESIZE_MAX_ORECS);
            out.push(Proposal::Resize {
                partition: pid,
                new_count,
                aliased_share,
                abort_rate: ar,
            });
        }

        // Heals: a torn partition whose share of the combined torn +
        // origin *write* load has collapsed goes home (write heat is the
        // tear criterion, so write silence is the heal signal; reads
        // would let a scan-heavy origin drown a still-live skew). No
        // per-partition sample floor on the torn side — a skew that
        // passed leaves the torn slots with *zero* traffic, which is
        // exactly the heal signal — but the analyzer as a whole must
        // have seen a meaningful window (traffic is flowing somewhere)
        // before trusting the silence.
        for (&pid, m) in meta {
            let Some(origin) = m.torn_from else { continue };
            if self.samples < cfg.min_samples {
                continue;
            }
            let load_of = |p: PartitionId| {
                self.nodes
                    .iter()
                    .filter(|(n, _)| n.0 == p)
                    .map(|(_, l)| l.writes)
                    .sum::<u64>()
            };
            let torn = load_of(pid);
            let total = torn + load_of(origin);
            let load_share = if total == 0 {
                0.0
            } else {
                torn as f64 / total as f64
            };
            if load_share < HEAL_MAX_SHARE {
                out.push(Proposal::Heal {
                    src: pid,
                    dst: origin,
                    load_share,
                });
            }
        }

        // Merges: cold, co-accessed partition pairs. Torn partitions are
        // excluded — the heal pass owns their re-merge (into their origin,
        // slot-aware), and a generic merge would strand the directory's
        // torn bookkeeping.
        for (&(a, b), &w) in &self.span_edges {
            if torn_from(&a).is_some() || torn_from(&b).is_some() {
                continue;
            }
            let (sa, sb) = match (self.parts.get(&a), self.parts.get(&b)) {
                (Some(x), Some(y)) => (x, y),
                _ => continue,
            };
            if sa.samples < cfg.min_samples || sb.samples < cfg.min_samples {
                continue;
            }
            let (Some(da), Some(db)) = (stats.get(&a), stats.get(&b)) else {
                continue;
            };
            if abort_rate(da) > MERGE_ABORT_RATE || abort_rate(db) > MERGE_ABORT_RATE {
                continue;
            }
            let span_share = w as f64 / sa.samples.max(sb.samples).max(1) as f64;
            if span_share < MERGE_SPAN_FRACTION {
                continue;
            }
            // Dissolve the less busy side into the busier one.
            let (src, dst) = if da.commits <= db.commits {
                (a, b)
            } else {
                (b, a)
            };
            out.push(Proposal::Merge {
                src,
                dst,
                span_share,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_core::profiler::{BucketTouch, SampleTouch};

    /// `(partition, [(bucket, reads, writes)])` shorthand for samples.
    type PartSpec<'a> = (u32, &'a [(u16, u32, u32)]);

    fn sample(parts: &[PartSpec<'_>], failed: u32) -> TxSample {
        TxSample {
            failed_attempts: failed,
            touched: parts
                .iter()
                .map(|(pid, buckets)| SampleTouch {
                    partition: PartitionId(*pid),
                    reads: buckets.iter().map(|b| b.1).sum(),
                    writes: buckets.iter().map(|b| b.2).sum(),
                    buckets: buckets
                        .iter()
                        .map(|&(bucket, reads, writes)| BucketTouch {
                            bucket,
                            reads,
                            writes,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    fn stats(commits: u64, aborts: u64) -> StatCounters {
        StatCounters {
            commits,
            aborts_wlock: aborts,
            ..Default::default()
        }
    }

    fn cfg() -> OnlineConfig {
        OnlineConfig {
            min_samples: 8,
            ..Default::default()
        }
    }

    /// Hot pair (0,1) hammered with writes, cold buckets 10..20 read.
    fn hot_cold_analyzer() -> OnlineAnalyzer {
        let mut a = OnlineAnalyzer::new();
        for _ in 0..40 {
            a.observe(&sample(&[(0, &[(0, 1, 2), (1, 1, 2)])], 3));
        }
        for b in 10u16..20 {
            for _ in 0..4 {
                a.observe(&sample(&[(0, &[(b, 2, 0)])], 0));
            }
        }
        a
    }

    #[test]
    fn tear_proposed_for_celebrity_hot_set() {
        // Two buckets carrying >90% of the write load: narrow enough for
        // a slot-subset tear, not a whole-structure split.
        let a = hot_cold_analyzer();
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(100, 60));
        let props = a.proposals(&st, &cfg());
        assert_eq!(props.len(), 1, "{props:?}");
        match &props[0] {
            Proposal::Tear {
                src,
                buckets,
                hot_share,
                abort_rate,
            } => {
                assert_eq!(*src, PartitionId(0));
                assert_eq!(buckets, &[0, 1], "strong pair taken whole");
                assert!(*hot_share > 0.9, "hot share {hot_share}");
                assert!(*abort_rate > 0.3);
            }
            other => panic!("expected tear, got {other:?}"),
        }
    }

    #[test]
    fn wide_hot_set_still_splits() {
        // 16 individually hammered hot buckets over 56 cold ones: passes
        // every split gate but is far too wide for a celebrity tear.
        let mut a = OnlineAnalyzer::new();
        for b in 0u16..16 {
            for _ in 0..6 {
                a.observe(&sample(&[(0, &[(b, 1, 4)])], 2));
            }
        }
        for b in 100u16..156 {
            a.observe(&sample(&[(0, &[(b, 2, 0)])], 0));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(100, 60));
        let props = a.proposals(&st, &cfg());
        match &props[..] {
            [Proposal::Split { buckets, .. }] => {
                assert_eq!(buckets.len(), 16, "whole hot set taken: {buckets:?}");
            }
            other => panic!("expected one split, got {other:?}"),
        }
    }

    #[test]
    fn no_split_without_abort_pressure() {
        let a = hot_cold_analyzer();
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(100, 1));
        assert!(a.proposals(&st, &cfg()).is_empty());
    }

    #[test]
    fn no_split_when_load_is_diffuse() {
        let mut a = OnlineAnalyzer::new();
        // Every bucket equally loaded, no co-access: nothing to isolate.
        for b in 0u16..16 {
            a.observe(&sample(&[(0, &[(b, 1, 1)])], 1));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(100, 60));
        assert!(a.proposals(&st, &cfg()).is_empty());
    }

    fn aliasing_stats(commits: u64, aborts: u64, aliased: u64, true_c: u64) -> StatCounters {
        StatCounters {
            commits,
            aborts_wlock: aborts,
            conflicts_aliased: aliased,
            conflicts_true: true_c,
            ..Default::default()
        }
    }

    /// Diffuse traffic across 32 buckets: no hot set to split, plenty of
    /// footprint for a resize.
    fn diffuse_analyzer() -> OnlineAnalyzer {
        let mut a = OnlineAnalyzer::new();
        for b in 0u16..32 {
            for _ in 0..2 {
                a.observe(&sample(&[(0, &[(b, 2, 1)])], 1));
            }
        }
        a
    }

    fn meta_of(orecs: usize) -> BTreeMap<PartitionId, PartitionMeta> {
        let mut m = BTreeMap::new();
        m.insert(
            PartitionId(0),
            PartitionMeta {
                orec_count: orecs,
                torn_from: None,
            },
        );
        m
    }

    #[test]
    fn resize_proposed_for_aliasing_bound_partition() {
        let a = diffuse_analyzer();
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 40, 30, 2));
        let props = a.proposals_with_meta(&st, &meta_of(256), &cfg());
        assert_eq!(props.len(), 1, "{props:?}");
        match &props[0] {
            Proposal::Resize {
                partition,
                new_count,
                aliased_share,
                abort_rate,
            } => {
                assert_eq!(*partition, PartitionId(0));
                assert_eq!(*new_count, 1024, "default factor-4 growth");
                assert!(*aliased_share > 0.9, "aliased share {aliased_share}");
                assert!(*abort_rate > 0.2);
            }
            other => panic!("expected resize, got {other:?}"),
        }
    }

    #[test]
    fn resize_needs_meta_and_caps_at_max() {
        let a = diffuse_analyzer();
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 40, 30, 2));
        // Without metadata the plain entry point stays split/merge-only.
        assert!(a.proposals(&st, &cfg()).is_empty());
        // At the cap, no further growth is proposed.
        let c = cfg();
        let capped = meta_of(RESIZE_MAX_ORECS);
        assert!(a.proposals_with_meta(&st, &capped, &c).is_empty());
        // Just below the cap, the proposal clamps to it.
        let below = meta_of(RESIZE_MAX_ORECS / 2);
        match &a.proposals_with_meta(&st, &below, &c)[..] {
            [Proposal::Resize { new_count, .. }] => assert_eq!(*new_count, RESIZE_MAX_ORECS),
            other => panic!("expected one resize, got {other:?}"),
        }
    }

    #[test]
    fn no_resize_when_conflicts_are_true_or_sparse() {
        let a = diffuse_analyzer();
        // Mostly true conflicts: a bigger table would not help.
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 40, 2, 30));
        assert!(a.proposals_with_meta(&st, &meta_of(256), &cfg()).is_empty());
        // Too few classified conflicts to trust the share.
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 40, 5, 0));
        assert!(a.proposals_with_meta(&st, &meta_of(256), &cfg()).is_empty());
        // Concentrated footprint (few buckets): the hot set, not the
        // table, is the problem — stay silent and let the split gates
        // decide.
        let mut narrow = OnlineAnalyzer::new();
        for _ in 0..64 {
            narrow.observe(&sample(&[(0, &[(0, 2, 1), (1, 2, 1)])], 1));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 40, 30, 2));
        let props = narrow.proposals_with_meta(&st, &meta_of(256), &cfg());
        assert!(
            !props.iter().any(|p| matches!(p, Proposal::Resize { .. })),
            "{props:?}"
        );
    }

    #[test]
    fn hot_set_takes_precedence_over_resize() {
        // Hot pair plus a wide cold footprint: both gates could fire; the
        // hot-set proposal (a tear — the pair is celebrity-narrow) must
        // win and suppress the resize for that partition.
        let mut a = OnlineAnalyzer::new();
        for _ in 0..40 {
            a.observe(&sample(&[(0, &[(0, 1, 4), (1, 1, 4)])], 3));
        }
        for b in 10u16..30 {
            for _ in 0..2 {
                a.observe(&sample(&[(0, &[(b, 2, 0)])], 0));
            }
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), aliasing_stats(100, 60, 40, 5));
        let props = a.proposals_with_meta(&st, &meta_of(256), &cfg());
        assert!(
            props.iter().any(|p| matches!(p, Proposal::Tear { .. })),
            "{props:?}"
        );
        assert!(
            !props.iter().any(|p| matches!(p, Proposal::Resize { .. })),
            "tear suppresses resize: {props:?}"
        );
    }

    /// Meta for origin partition 0 plus partition 1 torn from it.
    fn torn_meta() -> BTreeMap<PartitionId, PartitionMeta> {
        let mut m = meta_of(256);
        m.insert(
            PartitionId(1),
            PartitionMeta {
                orec_count: 256,
                torn_from: Some(PartitionId(0)),
            },
        );
        m
    }

    #[test]
    fn heal_proposed_when_torn_share_collapses() {
        // All traffic back on the origin; the torn partition is silent.
        let mut a = OnlineAnalyzer::new();
        for b in 0u16..8 {
            for _ in 0..4 {
                a.observe(&sample(&[(0, &[(b, 2, 1)])], 0));
            }
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(100, 1));
        let props = a.proposals_with_meta(&st, &torn_meta(), &cfg());
        assert_eq!(
            props,
            vec![Proposal::Heal {
                src: PartitionId(1),
                dst: PartitionId(0),
                load_share: 0.0,
            }]
        );
    }

    #[test]
    fn no_heal_while_torn_partition_carries_the_load() {
        // The skew is still on: the torn partition carries the traffic,
        // and despite abort pressure it must be neither healed nor
        // split/torn/resized (torn partitions are terminal).
        let mut a = OnlineAnalyzer::new();
        for _ in 0..40 {
            a.observe(&sample(&[(1, &[(0, 1, 4), (1, 1, 4)])], 3));
        }
        for b in 10u16..30 {
            a.observe(&sample(&[(1, &[(b, 2, 0)])], 0));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(10, 0));
        st.insert(PartitionId(1), aliasing_stats(100, 60, 40, 5));
        let props = a.proposals_with_meta(&st, &torn_meta(), &cfg());
        assert!(props.is_empty(), "{props:?}");
    }

    #[test]
    fn torn_partition_is_excluded_from_merges() {
        // Cold co-accessed pair that would merge — but one side is torn,
        // so only the heal pass may touch it (and the spanning load keeps
        // its share above the heal gate).
        let mut a = OnlineAnalyzer::new();
        for _ in 0..20 {
            a.observe(&sample(&[(0, &[(0, 1, 0)]), (1, &[(0, 1, 1)])], 0));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(0), stats(200, 1));
        st.insert(PartitionId(1), stats(50, 0));
        assert!(
            !a.proposals(&st, &cfg()).is_empty(),
            "sanity: untorn pair merges"
        );
        let props = a.proposals_with_meta(&st, &torn_meta(), &cfg());
        assert!(props.is_empty(), "{props:?}");
    }

    #[test]
    fn merge_proposed_for_cold_co_accessed_pair() {
        let mut a = OnlineAnalyzer::new();
        for _ in 0..20 {
            a.observe(&sample(&[(1, &[(0, 1, 0)]), (2, &[(0, 1, 1)])], 0));
        }
        let mut st = BTreeMap::new();
        st.insert(PartitionId(1), stats(50, 0));
        st.insert(PartitionId(2), stats(200, 1));
        let props = a.proposals(&st, &cfg());
        assert_eq!(
            props,
            vec![Proposal::Merge {
                src: PartitionId(1),
                dst: PartitionId(2),
                span_share: 1.0,
            }]
        );
    }

    #[test]
    fn decay_ages_and_drops_weights() {
        let mut a = hot_cold_analyzer();
        let before = a.samples();
        a.decay(0.5);
        assert_eq!(a.samples(), before / 2);
        a.decay(0.0);
        assert_eq!(a.samples(), 0);
        assert!(a.nodes().is_empty());
        let st = BTreeMap::new();
        assert!(a.proposals(&st, &cfg()).is_empty());
    }

    #[test]
    fn forget_partition_clears_its_state() {
        let mut a = OnlineAnalyzer::new();
        a.observe(&sample(&[(1, &[(0, 1, 1)]), (2, &[(3, 1, 1)])], 0));
        a.forget_partition(PartitionId(1));
        assert!(a.nodes().keys().all(|n| n.0 != PartitionId(1)));
        assert!(a.nodes().keys().any(|n| n.0 == PartitionId(2)));
    }
}
