//! The repartition controller: the decision loop that closes the dynamic
//! partitioning cycle.
//!
//! # The action pipeline
//!
//! Every window, [`step`] folds the profiler's samples into the analyzer,
//! asks it for [`Proposal`]s, and takes **at most one** of them through
//! four stages. A proposal's kind, subject and partner partition and score
//! are read from its [`ProposalHeader`]; only the planning step of
//! *execute* looks at the variant.
//!
//! 1. **Propose.** Each distinct `(kind, subject)` key proposed this
//!    window advances its hysteresis streak by one — once per window,
//!    however many proposals share the key; keys not proposed are dropped.
//!    One `CtrlProposal` telemetry event per proposal carries the streak.
//!    During a cooldown the window ends here.
//! 2. **Gate**, in this order, per proposal in analyzer order:
//!    *hysteresis* (streak ≥ [`ControllerConfig::hysteresis`]) →
//!    *privatized hold* (subject or partner held by a `PrivateGuard`; the
//!    check doubles as the leaked-guard alarm) → *circuit breaker* (open
//!    on subject or partner) → *fault site* (`CtrlActionFail`: recorded as
//!    `Failed{TimedOut}` without executing). A proposal stopped by
//!    hysteresis, a hold or a breaker is passed over and **keeps its
//!    streak**, so it fires in the first window after the hold or breaker
//!    clears.
//! 3. **Execute.** [`execute`] plans the action (table below) and runs it.
//!    An unmet *precondition* — a fresh destination needed at the
//!    partition cap ([`Dest::fresh`]), no torn record to heal, a partition
//!    the `Stm` does not know — passes the proposal over without spending
//!    the window, and the next proposal is considered. Every
//!    structural kind plans a migration *(source, destination, from)* and
//!    hands it to the one executor, [`migrate`]: destination creation, the
//!    repartition protocol (`Stm::migrate(source, dst, &[from])`, the same
//!    call on every attempt) and the bounded `Contended` retry. A resize is
//!    not a migration but makes its protocol call through the same
//!    [`attempt`], so all five kinds ride out transient flag collisions
//!    ([`retry_contended`]) and every quiesce window the controller opens
//!    is opened from one place.
//! 4. **Record.** [`record`] is the one way a window is spent: it logs the
//!    [`RepartEvent`], mirrors it as a `CtrlAction` telemetry event, feeds
//!    the outcome to the subject's breaker (which may log `BreakerOpen`),
//!    forgets the sampled graph of the subject and partner the executor
//!    ran against (not after a resize, whose graph stays valid, nor after
//!    an injected failure, which never reached the executor), **clears
//!    every streak and starts the cooldown** — for successes, protocol
//!    failures, nothing-to-move failures and injected failures alike.
//!
//! | kind | source | destination | from | on success |
//! |---|---|---|---|---|
//! | split (and a tear with nothing tearable) | `dir.collect(src, buckets)` | fresh `~hot` | `src` | — |
//! | tear | `dir.collect_tears(..)` slot subsets | the torn partition of the same origin, else fresh `~torn` | `src` | `mark_torn`, torn record extended |
//! | merge | `dir.collect_all(src)` | `dst` | `src` | — (`src` dies with its last handle) |
//! | heal | the recorded tear sets, one migration per current home | that home | `src` | `unmark_torn`, healed sets dropped from the record; all home ⇒ record removed |
//! | resize | — (`resize_orecs`) | — | — | graph kept (buckets do not depend on the orec table) |
//!
//! An empty `collect`/`collect_all` is a `Failed{Unchanged}` without a
//! quiesce window (and without creating the fresh destination).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use partstm_analysis::online::{
    ActionKind, OnlineAnalyzer, OnlineConfig, PartitionMeta, Proposal, ProposalHeader,
};
use partstm_core::cm::{self, XorShift64};
use partstm_core::telemetry::{self, EventKind};
use partstm_core::{
    AccessProfiler, MigrationSource, Partition, PartitionConfig, PartitionId, StatCounters, Stm,
    SwitchOutcome,
};

use crate::directory::{StaticDirectory, TearMovers, TearSet};

/// Profiler ring capacity between windows.
const PROFILER_CAPACITY: usize = 4096;
/// Windows to stay quiet after an executed (or failed) action.
const COOLDOWN: u32 = 3;
/// Largest fraction of a collection's live nodes a slot-subset tear may
/// move. A hot set wider than this is not a celebrity-key pattern; the
/// tear falls back to the whole-structure split execution.
const TEAR_MAX_FRACTION: f64 = 0.25;
/// Consecutive quiesce-timeout failures against one partition that open
/// its circuit breaker (see [`RepartEvent::BreakerOpen`]): while open,
/// proposals targeting the partition are skipped instead of burning the
/// window's single action on another doomed quiesce. Any non-timeout
/// outcome resets the count.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;

/// Controller tuning knobs. [`ControllerConfig::responsive`] is the preset.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Profiler sampling period (1 in N transactions).
    pub sample_period: u64,
    /// Thresholds of the online analysis.
    pub online: OnlineConfig,
    /// Consecutive windows that must propose the same action before it
    /// executes (anti-thrash, like the tuner's hysteresis).
    pub hysteresis: u32,
    /// Exponential aging applied to the affinity graph every window.
    pub decay: f64,
    /// Hard cap on partitions this controller may create up to.
    pub max_partitions: usize,
    /// Evaluation windows an opened circuit breaker stays open before the
    /// partition becomes eligible again.
    pub breaker_windows: u32,
}

impl ControllerConfig {
    /// A preset that reacts within a few hundred milliseconds — for demos,
    /// benchmarks and tests.
    pub fn responsive() -> Self {
        ControllerConfig {
            sample_period: 4,
            online: OnlineConfig {
                min_samples: 32,
                ..OnlineConfig::default()
            },
            hysteresis: 2,
            decay: 0.5,
            max_partitions: 64,
            breaker_windows: 8,
        }
    }
}

/// One executed (or attempted) structural action.
#[derive(Debug, Clone)]
pub enum RepartEvent {
    /// A hot bucket set was split out of `src` into the new `dst`.
    Split {
        /// The partition that was split.
        src: PartitionId,
        /// The newly created hot partition.
        dst: PartitionId,
        /// Variables/nodes migrated (flat vars plus collection nodes).
        moved: usize,
        /// Whole collections (arenas + roots) migrated.
        collections: usize,
        /// Sampled write share the hot set carried.
        hot_share: f64,
        /// Abort rate that triggered the split.
        abort_rate: f64,
    },
    /// `src`'s variables were folded into `dst`.
    Merge {
        /// The dissolved partition.
        src: PartitionId,
        /// The receiving partition.
        dst: PartitionId,
        /// Variables/nodes migrated (flat vars plus collection nodes).
        moved: usize,
        /// Whole collections (arenas + roots) migrated.
        collections: usize,
    },
    /// `partition`'s orec table was resized in place.
    Resize {
        /// The aliasing-bound partition.
        partition: PartitionId,
        /// Table size before the resize (records).
        from: usize,
        /// Table size after the resize (records).
        to: usize,
        /// Fraction of classified conflicts that were aliased.
        aliased_share: f64,
        /// Abort rate that triggered the resize.
        abort_rate: f64,
    },
    /// A celebrity slot subset was torn out of `src`'s collections into
    /// `dst` (fresh, or the existing torn partition for the same origin).
    Tear {
        /// The origin partition.
        src: PartitionId,
        /// The torn (hot) partition.
        dst: PartitionId,
        /// Slots migrated across all collections.
        moved: usize,
        /// Collections a subset was torn from.
        collections: usize,
        /// Combined live-node count of those collections (so reports can
        /// show `moved` is a subset, not a whole-structure migration).
        total_live: usize,
        /// Sampled write share the hot set carried.
        hot_share: f64,
        /// Abort rate that triggered the tear.
        abort_rate: f64,
    },
    /// A torn slot subset was re-merged into its origin after the skew
    /// passed.
    Heal {
        /// The dissolved torn partition.
        src: PartitionId,
        /// The origin partition the slots returned to.
        dst: PartitionId,
        /// Slots migrated back.
        moved: usize,
        /// Collections whose subsets went home.
        collections: usize,
    },
    /// An approved action could not execute (directory had no handles, or
    /// the protocol reported contention/timeout).
    Failed {
        /// The kind of action that was executed (a tear that fell back to a
        /// whole-structure split reports [`ActionKind::Split`]).
        action: ActionKind,
        /// The partition the action targeted.
        src: PartitionId,
        /// Protocol outcome (or `Unchanged` when nothing was migratable).
        outcome: SwitchOutcome,
    },
    /// `partition`'s circuit breaker opened: `consecutive` actions against
    /// it in a row died as quiesce timeouts, so proposals targeting it are
    /// suspended for [`ControllerConfig::breaker_windows`] windows.
    BreakerOpen {
        /// The partition whose actions keep timing out.
        partition: PartitionId,
        /// Consecutive quiesce-timeout failures that tripped the breaker.
        consecutive: u32,
    },
    /// `partition`'s circuit breaker closed after its suspension window;
    /// proposals targeting it are admitted again.
    BreakerClose {
        /// The partition re-admitted to structural actions.
        partition: PartitionId,
    },
}

impl RepartEvent {
    /// The kind-independent view of an action event (`None` for breaker
    /// transitions, which are not actions): what the telemetry mirror, the
    /// breaker and the `has_*` queries read instead of matching on the
    /// variant.
    fn header(&self) -> Option<EventHeader> {
        let head = |kind, subject: &PartitionId, moved: usize, outcome| EventHeader {
            kind,
            subject: *subject,
            moved: moved as u64,
            outcome,
        };
        let done = SwitchOutcome::Switched;
        Some(match self {
            RepartEvent::Split { src, moved, .. } => head(ActionKind::Split, src, *moved, done),
            RepartEvent::Merge { src, moved, .. } => head(ActionKind::Merge, src, *moved, done),
            RepartEvent::Resize { partition, to, .. } => {
                head(ActionKind::Resize, partition, *to, done)
            }
            RepartEvent::Tear { src, moved, .. } => head(ActionKind::Tear, src, *moved, done),
            RepartEvent::Heal { src, moved, .. } => head(ActionKind::Heal, src, *moved, done),
            RepartEvent::Failed {
                action,
                src,
                outcome,
            } => head(*action, src, 0, *outcome),
            RepartEvent::BreakerOpen { .. } | RepartEvent::BreakerClose { .. } => return None,
        })
    }
}

/// See [`RepartEvent::header`].
struct EventHeader {
    kind: ActionKind,
    subject: PartitionId,
    /// Variables/nodes/slots moved (a resize: the new table size; a
    /// failure: 0).
    moved: u64,
    outcome: SwitchOutcome,
}

type StreakKey = (ActionKind, PartitionId);

/// Bookkeeping for one torn partition: where its slots came from and the
/// exact sets that moved (replayed, grouped by current home, when the
/// partition heals).
struct TornRecord {
    origin: PartitionId,
    sets: Vec<TearSet>,
}

/// Circuit-breaker bookkeeping for one partition.
#[derive(Debug, Default, Clone, Copy)]
struct BreakerState {
    /// Quiesce-timeout failures in a row (reset by any other outcome).
    consecutive_timeouts: u32,
    /// Window number until which the breaker stays open (0 = closed).
    open_until_window: u64,
}

struct CtrlState {
    analyzer: OnlineAnalyzer,
    last_stats: BTreeMap<PartitionId, StatCounters>,
    streaks: BTreeMap<StreakKey, u32>,
    cooldown: u32,
    split_seq: u32,
    /// Jitter source for [`retry_contended`]'s backoff.
    rng: XorShift64,
    /// Per-partition circuit breakers (see [`BREAKER_THRESHOLD`]).
    breaker: BTreeMap<PartitionId, BreakerState>,
    /// Live torn partitions, keyed by the torn (destination) partition.
    /// Feeds `PartitionMeta::torn_from` so the analyzer treats them as
    /// heal-only.
    torn: BTreeMap<PartitionId, TornRecord>,
    events: Vec<RepartEvent>,
}

/// The decision loop: watches the profiler, scores candidate
/// split/merge plans against observed abort/commit statistics, and
/// executes approved plans live via the repartition protocol — with
/// hysteresis and cooldown so it never thrashes.
///
/// It runs no thread of its own: the caller drives it, one evaluation
/// window per [`step`](RepartitionController::step), on whatever schedule
/// suits it (a benchmark worker's tick, a test's loop). The controller
/// installs an [`AccessProfiler`] on the `Stm` at construction and
/// uninstalls it on drop, unless another controller has replaced it since.
pub struct RepartitionController {
    stm: Stm,
    dir: Arc<StaticDirectory>,
    profiler: Arc<AccessProfiler>,
    cfg: ControllerConfig,
    state: Mutex<CtrlState>,
    windows: AtomicU64,
}

impl RepartitionController {
    /// Creates a controller and installs its profiler.
    pub fn new(stm: &Stm, dir: Arc<StaticDirectory>, cfg: ControllerConfig) -> Self {
        let profiler = Arc::new(AccessProfiler::new(cfg.sample_period, PROFILER_CAPACITY));
        stm.set_profiler(Arc::clone(&profiler));
        let baseline = stm
            .partitions()
            .iter()
            .map(|p| (p.id(), p.stats()))
            .collect();
        RepartitionController {
            stm: stm.clone(),
            dir,
            profiler,
            cfg,
            state: Mutex::new(CtrlState {
                analyzer: OnlineAnalyzer::new(),
                last_stats: baseline,
                streaks: BTreeMap::new(),
                cooldown: 0,
                split_seq: 0,
                rng: XorShift64::new(0x5EED_C0FF_EE00_0001),
                breaker: BTreeMap::new(),
                torn: BTreeMap::new(),
                events: Vec::new(),
            }),
            windows: AtomicU64::new(0),
        }
    }

    /// Runs one evaluation window synchronously: drain samples, fold them
    /// into the affinity graph, score proposals, execute at most one
    /// approved action.
    pub fn step(&self) {
        step(self);
    }

    /// Windows evaluated so far.
    pub fn windows(&self) -> u64 {
        self.windows.load(Ordering::Relaxed)
    }

    /// The profiler this controller installed.
    pub fn profiler(&self) -> &Arc<AccessProfiler> {
        &self.profiler
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<RepartEvent> {
        self.state.lock().events.clone()
    }

    /// True if any action of `kind` executed (not merely failed) so far.
    fn has(&self, kind: ActionKind) -> bool {
        self.state.lock().events.iter().any(|e| {
            e.header()
                .is_some_and(|h| h.kind == kind && h.outcome == SwitchOutcome::Switched)
        })
    }

    /// True if any split executed so far.
    pub fn has_split(&self) -> bool {
        self.has(ActionKind::Split)
    }

    /// True if any orec-table resize executed so far.
    pub fn has_resize(&self) -> bool {
        self.has(ActionKind::Resize)
    }

    /// True if any slot-subset tear executed so far.
    pub fn has_tear(&self) -> bool {
        self.has(ActionKind::Tear)
    }

    /// True if any heal (torn subset re-merged) executed so far.
    pub fn has_heal(&self) -> bool {
        self.has(ActionKind::Heal)
    }
}

impl Drop for RepartitionController {
    /// Uninstalls the profiler — only if it is still this controller's:
    /// a later controller on the same `Stm` replaced it with its own,
    /// which must keep sampling. (Check, then clear: a controller created
    /// concurrently with this drop may still be uninstalled.)
    fn drop(&mut self) {
        if self
            .stm
            .profiler()
            .is_some_and(|p| Arc::ptr_eq(&p, &self.profiler))
        {
            self.stm.clear_profiler();
        }
    }
}

impl core::fmt::Debug for RepartitionController {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RepartitionController")
            .field("windows", &self.windows())
            .finish()
    }
}

fn part_of(parts: &[Arc<Partition>], id: PartitionId) -> Option<&Arc<Partition>> {
    parts.iter().find(|p| p.id() == id)
}

/// Retry budget of [`retry_contended`]: a `Contended` action collides
/// with a transient flag holder (tuner switch, privatization), which
/// clears in well under eight backed-off attempts or not at all.
const CONTENDED_RETRIES: u32 = 8;

/// Retries a protocol call while it reports [`SwitchOutcome::Contended`],
/// with bounded randomized exponential backoff between attempts (the
/// engine's contention-manager curve — a plain `yield_now` retry storm
/// from the controller is exactly the load a contended flag holder does
/// not need). Returns the first non-`Contended` outcome, or `Contended`
/// after the budget is spent.
fn retry_contended(
    first: SwitchOutcome,
    rng: &mut XorShift64,
    mut attempt: impl FnMut() -> SwitchOutcome,
) -> SwitchOutcome {
    let mut outcome = first;
    let mut retries = 0;
    while outcome == SwitchOutcome::Contended && retries < CONTENDED_RETRIES {
        cm::backoff(retries, rng);
        outcome = attempt();
        retries += 1;
    }
    outcome
}

/// How [`attempt`] makes a quiesce-window protocol call: handed the call,
/// returns its outcome. In service that is `|call| call()`; a test scripts
/// outcomes instead.
type Protocol<'a> = dyn FnMut(&dyn Fn() -> SwitchOutcome) -> SwitchOutcome + 'a;

/// Makes one protocol call, riding out transient `Contended` outcomes
/// (the same call again — see [`retry_contended`]). Every quiesce window
/// the controller opens is opened through here.
fn attempt(
    rng: &mut XorShift64,
    protocol: &mut Protocol<'_>,
    call: &dyn Fn() -> SwitchOutcome,
) -> SwitchOutcome {
    let first = protocol(call);
    retry_contended(first, rng, || protocol(call))
}

/// Where a planned migration lands.
enum Dest<'a> {
    /// A partition already in service.
    Existing(&'a Arc<Partition>),
    /// A partition [`migrate`] creates, named `<source>~<suffix><seq>`.
    Fresh(&'static str),
}

impl Dest<'_> {
    /// Plans a fresh destination — or `None` at the partition cap (a
    /// precondition: the proposal is passed over, the window is not
    /// spent).
    fn fresh(ctrl: &RepartitionController, suffix: &'static str) -> Option<Self> {
        (ctrl.stm.partitions().len() < ctrl.cfg.max_partitions).then_some(Dest::Fresh(suffix))
    }
}

/// The one migration executor. Every structural kind plans a `source`, a
/// `dest` and the partition the bindings leave (`from`, which takes part
/// in the protocol even if nothing enumerated is still bound to it — see
/// the module docs' plan table); this creates a fresh destination if the
/// plan asks for one, runs the repartition protocol with the bounded
/// `Contended` retry. A fresh destination that stayed empty dies with its
/// last handle, here.
fn migrate(
    ctrl: &RepartitionController,
    st: &mut CtrlState,
    source: &dyn MigrationSource,
    dest: Dest<'_>,
    from: &Arc<Partition>,
    protocol: &mut Protocol<'_>,
) -> Result<Arc<Partition>, SwitchOutcome> {
    let dst = match dest {
        Dest::Existing(d) => Arc::clone(d),
        Dest::Fresh(suffix) => {
            st.split_seq += 1;
            // Engine defaults, tunable: the parameter tuner (when
            // installed) adapts the new partition from its own observed
            // statistics — picking a contention policy here by fiat
            // backfires on oversubscribed hosts, where spinning policies
            // burn the cycles the lock holder needs.
            let name = format!("{}~{suffix}{}", from.name(), st.split_seq);
            let cfg = PartitionConfig::named(name).tunable();
            ctrl.stm.new_partition(cfg)
        }
    };
    // A split is this call into a fresh `dst`.
    let call = || ctrl.stm.migrate(source, &dst, &[from]);
    match attempt(&mut st.rng, protocol, &call) {
        SwitchOutcome::Switched => Ok(dst),
        other => Err(other),
    }
}

/// The execute stage: plans `proposal` by kind and runs the plan.
/// `subject`/`partner` are the proposal header's partitions, resolved.
/// `None` means a precondition was unmet — nothing was attempted and the
/// caller should consider the next proposal; `Some` is the event to
/// [`record`] (the window is spent).
fn execute(
    ctrl: &RepartitionController,
    st: &mut CtrlState,
    parts: &[Arc<Partition>],
    proposal: &Proposal,
    subject: &Arc<Partition>,
    partner: Option<&Arc<Partition>>,
    protocol: &mut Protocol<'_>,
) -> Option<RepartEvent> {
    let src = subject.id();
    let failed = |action, outcome| RepartEvent::Failed {
        action,
        src,
        outcome,
    };
    // Nothing registered to move: executing would run a full
    // stop-the-world quiesce to accomplish nothing.
    let nothing = |action| Some(failed(action, SwitchOutcome::Unchanged));
    let ev = match proposal {
        Proposal::Split {
            buckets,
            hot_share,
            abort_rate,
            ..
        }
        | Proposal::Tear {
            buckets,
            hot_share,
            abort_rate,
            ..
        } => {
            let (hot_share, abort_rate) = (*hot_share, *abort_rate);
            let mut sets = Vec::new();
            if proposal.header().kind == ActionKind::Tear {
                sets = ctrl.dir.collect_tears(src, buckets, TEAR_MAX_FRACTION);
            }
            if sets.is_empty() {
                // A split — or a tear with nothing tearable behind the
                // hot buckets (flat vars, subset wider than
                // `TEAR_MAX_FRACTION`, slots already torn), which falls
                // back to the whole-structure split.
                let dest = Dest::fresh(ctrl, "hot")?;
                let movers = ctrl.dir.collect(src, buckets);
                if movers.is_empty() {
                    return nothing(ActionKind::Split);
                }
                match migrate(ctrl, st, &movers, dest, subject, protocol) {
                    Ok(dst) => RepartEvent::Split {
                        src,
                        dst: dst.id(),
                        moved: movers.moved_count(),
                        collections: movers.collections.len(),
                        hot_share,
                        abort_rate,
                    },
                    Err(outcome) => failed(ActionKind::Split, outcome),
                }
            } else {
                // Repeated tears of one origin accrete into one torn
                // partition instead of fragmenting.
                let torn = st.torn.iter().find(|(_, r)| r.origin == src);
                let dest = match torn.and_then(|(id, _)| part_of(parts, *id)) {
                    Some(d) => Dest::Existing(d),
                    None => Dest::fresh(ctrl, "torn")?,
                };
                match migrate(ctrl, st, &TearMovers(&sets), dest, subject, protocol) {
                    Ok(dst) => {
                        // Evict the torn slots from the reverse maps so
                        // the next window does not re-propose them, and
                        // remember the sets so a later heal can replay
                        // them home.
                        sets.iter().for_each(|s| ctrl.dir.mark_torn(s));
                        let record = st.torn.entry(dst.id()).or_insert(TornRecord {
                            origin: src,
                            sets: Vec::new(),
                        });
                        record.sets.extend(sets.iter().cloned());
                        RepartEvent::Tear {
                            src,
                            dst: dst.id(),
                            moved: sets.iter().map(|s| s.raw.len()).sum(),
                            collections: sets.len(),
                            total_live: sets.iter().map(|s| s.total_live).sum(),
                            hot_share,
                            abort_rate,
                        }
                    }
                    Err(outcome) => failed(ActionKind::Tear, outcome),
                }
            }
        }
        Proposal::Merge { .. } => {
            let dst = partner?;
            let movers = ctrl.dir.collect_all(src);
            if movers.is_empty() {
                return nothing(ActionKind::Merge);
            }
            match migrate(ctrl, st, &movers, Dest::Existing(dst), subject, protocol) {
                Ok(_) => RepartEvent::Merge {
                    src,
                    dst: dst.id(),
                    moved: movers.moved_count(),
                    collections: movers.collections.len(),
                },
                Err(outcome) => failed(ActionKind::Merge, outcome),
            }
        }
        Proposal::Heal { .. } => {
            let dst = partner?.id();
            // Replay the recorded tear sets into each collection's
            // *current* home (the origin may have been restructured since
            // the tear), one migration per home.
            let mut groups: Vec<(Arc<Partition>, Vec<TearSet>)> = Vec::new();
            for s in st.torn.get(&src)?.sets.iter().cloned() {
                let home = s.coll.home_partition();
                match groups.iter_mut().find(|(h, _)| h.id() == home.id()) {
                    Some((_, g)) => g.push(s),
                    None => groups.push((home, vec![s])),
                }
            }
            let (mut moved, mut collections, mut failure) = (0, 0, None);
            for (home, group) in &groups {
                let dest = Dest::Existing(home);
                match migrate(ctrl, st, &TearMovers(group), dest, subject, protocol) {
                    Ok(_) => {
                        group.iter().for_each(|s| ctrl.dir.unmark_torn(s));
                        moved += group.iter().map(|s| s.raw.len()).sum::<usize>();
                        collections += group.len();
                        // A partial heal keeps the record (minus what
                        // went home) so the next window can retry the
                        // remainder.
                        if let Some(rec) = st.torn.get_mut(&src) {
                            rec.sets
                                .retain(|s| !group.iter().any(|g| Arc::ptr_eq(&g.coll, &s.coll)));
                        }
                    }
                    Err(outcome) => failure = Some(outcome),
                }
            }
            match failure {
                // Fully healed: the torn partition is now empty.
                None => {
                    st.torn.remove(&src);
                    RepartEvent::Heal {
                        src,
                        dst,
                        moved,
                        collections,
                    }
                }
                Some(outcome) => failed(ActionKind::Heal, outcome),
            }
        }
        Proposal::Resize {
            new_count,
            aliased_share,
            abort_rate,
            ..
        } => {
            let from = subject.orec_count();
            let call = || ctrl.stm.resize_orecs(subject, *new_count);
            match attempt(&mut st.rng, protocol, &call) {
                SwitchOutcome::Switched => RepartEvent::Resize {
                    partition: src,
                    from,
                    to: subject.orec_count(),
                    aliased_share: *aliased_share,
                    abort_rate: *abort_rate,
                },
                other => failed(ActionKind::Resize, other),
            }
        }
    };
    Some(ev)
}

/// The record stage, the one way an action — executed, failed, or failed
/// by injection — ends its window: logs `ev`, mirrors it into the
/// telemetry control timeline as a `CtrlAction`, feeds its outcome to the
/// subject's circuit breaker, drops the sampled graph of the `stale`
/// partitions (their shape changed under it), resets hysteresis and
/// starts the cooldown.
fn record(
    ctrl: &RepartitionController,
    st: &mut CtrlState,
    window: u64,
    ev: RepartEvent,
    stale: &[PartitionId],
) {
    // Breaker transitions are logged where the breaker changes state.
    let Some(h) = ev.header() else { return };
    telemetry::control_event(
        EventKind::CtrlAction,
        h.subject.0 as u64,
        h.kind.code() | (h.moved << 8),
        telemetry::outcome_code(h.outcome),
    );
    st.events.push(ev);
    feed_breaker(ctrl, st, window, &h);
    for p in stale {
        st.analyzer.forget_partition(*p);
    }
    st.streaks.clear();
    st.cooldown = COOLDOWN;
}

/// Whether `id`'s circuit breaker is open as of `window`.
fn breaker_open(st: &CtrlState, id: PartitionId, window: u64) -> bool {
    st.breaker
        .get(&id)
        .is_some_and(|b| b.open_until_window > window)
}

/// Closes breakers whose suspension window has expired (emitting
/// [`RepartEvent::BreakerClose`] + a `CtrlBreaker` telemetry event).
fn tick_breakers(st: &mut CtrlState, window: u64) {
    let mut closed = Vec::new();
    for (part, b) in st.breaker.iter_mut() {
        if b.open_until_window != 0 && b.open_until_window <= window {
            b.open_until_window = 0;
            b.consecutive_timeouts = 0;
            closed.push(*part);
        }
    }
    for partition in closed {
        telemetry::control_event(EventKind::CtrlBreaker, partition.0 as u64, 0, 0);
        st.events.push(RepartEvent::BreakerClose { partition });
    }
}

/// Folds the outcome of the action `h` describes into its subject's
/// circuit breaker: quiesce timeouts accumulate and trip it at
/// [`BREAKER_THRESHOLD`]; anything else proves quiesce works and resets
/// the count.
fn feed_breaker(ctrl: &RepartitionController, st: &mut CtrlState, window: u64, h: &EventHeader) {
    let partition = h.subject;
    if h.outcome != SwitchOutcome::TimedOut {
        if let Some(b) = st.breaker.get_mut(&partition) {
            b.consecutive_timeouts = 0;
        }
        return;
    }
    let b = st.breaker.entry(partition).or_default();
    b.consecutive_timeouts += 1;
    let consecutive = b.consecutive_timeouts;
    if consecutive >= BREAKER_THRESHOLD && b.open_until_window <= window {
        b.open_until_window = window + ctrl.cfg.breaker_windows.max(1) as u64;
        telemetry::control_event(
            EventKind::CtrlBreaker,
            partition.0 as u64,
            1,
            consecutive as u64,
        );
        st.events.push(RepartEvent::BreakerOpen {
            partition,
            consecutive,
        });
    }
}

/// Whether `p` is held outside transactional service by a `PrivateGuard`.
/// Doubles as the leaked-guard watchdog: every time a proposal bounces
/// off a hold, the hold's age is checked against the alarm threshold.
fn privatized(p: &Arc<Partition>) -> bool {
    let held = p.is_privatized();
    if held {
        partstm_core::privatize::check_hold_alarm(p);
    }
    held
}

/// One evaluation window (see the module docs' "The action pipeline").
fn step(ctrl: &RepartitionController) {
    let window = ctrl.windows.fetch_add(1, Ordering::Relaxed) + 1;
    let mut st = ctrl.state.lock();
    let st = &mut *st;
    tick_breakers(st, window);

    // Age the graph, fold in the window's samples.
    st.analyzer.decay(ctrl.cfg.decay);
    let samples = ctrl.profiler.drain();
    st.analyzer.observe_all(samples.iter());

    // Per-partition statistics delta over the window, plus the runtime
    // metadata (current orec-table sizes) resize proposals need.
    let parts = ctrl.stm.partitions();
    let mut delta = BTreeMap::new();
    let mut snap = BTreeMap::new();
    let mut meta = BTreeMap::new();
    for p in &parts {
        let s = p.stats();
        let base = st.last_stats.get(&p.id()).copied().unwrap_or_default();
        delta.insert(p.id(), s.delta(&base));
        snap.insert(p.id(), s);
        meta.insert(
            p.id(),
            PartitionMeta {
                orec_count: p.orec_count(),
                torn_from: st.torn.get(&p.id()).map(|r| r.origin),
            },
        );
    }
    st.last_stats = snap;

    // Propose. A streak advances once per key per window, however many
    // proposals share the key (two merges of one source toward different
    // destinations are one streak).
    let proposals = st
        .analyzer
        .proposals_with_meta(&delta, &meta, &ctrl.cfg.online);
    let heads: Vec<ProposalHeader> = proposals.iter().map(Proposal::header).collect();
    let keys: BTreeSet<StreakKey> = heads.iter().map(|h| (h.kind, h.subject)).collect();
    st.streaks.retain(|k, _| keys.contains(k));
    for k in keys {
        *st.streaks.entry(k).or_insert(0) += 1;
    }
    let streak_of = |st: &CtrlState, h: &ProposalHeader| {
        st.streaks.get(&(h.kind, h.subject)).copied().unwrap_or(0)
    };
    if telemetry::enabled() {
        for h in &heads {
            telemetry::control_event(
                EventKind::CtrlProposal,
                h.subject.0 as u64,
                h.kind.code() | ((streak_of(st, h) as u64) << 8),
                h.score.to_bits(),
            );
        }
    }
    if st.cooldown > 0 {
        st.cooldown -= 1;
        return;
    }

    // Gate → execute → record: the first proposal through every gate and
    // its executor's preconditions is the window's one action.
    for (proposal, h) in proposals.iter().zip(&heads) {
        if streak_of(st, h) < ctrl.cfg.hysteresis {
            continue;
        }
        let Some(subject) = part_of(&parts, h.subject) else {
            continue;
        };
        let partner = h.partner.and_then(|id| part_of(&parts, id));
        let named = || std::iter::once(subject).chain(partner);
        // Every protocol action against a privatized partition would only
        // bounce off the installed switch flag (Contended), burning this
        // window's single action. An open breaker means the action would burn it on
        // another doomed quiesce. Both skips leave the streak alive: the
        // proposal fires on the first window after the guard republishes
        // / the breaker closes.
        if named().any(privatized) || named().any(|p| breaker_open(st, p.id(), window)) {
            continue;
        }
        // Fault-injection site
        // [`CtrlActionFail`](partstm_core::fault::FaultSite::CtrlActionFail),
        // consulted once per approved action of any kind: when the
        // installed plan fires, the action is reported as a quiesce
        // timeout *without* attempting the protocol (injecting the outcome
        // rather than a stall keeps the schedule independent of the
        // quiesce deadlines and costs the scenario no wall time).
        if partstm_core::fault::ctrl_action_should_fail(&ctrl.stm) {
            let ev = RepartEvent::Failed {
                action: h.kind,
                src: h.subject,
                outcome: SwitchOutcome::TimedOut,
            };
            record(ctrl, st, window, ev, &[]);
            return;
        }
        let Some(ev) = execute(ctrl, st, &parts, proposal, subject, partner, &mut |call| {
            call()
        }) else {
            continue;
        };
        // A resized partition keeps its affinity graph: buckets are
        // independent of the orec table.
        let mut stale = Vec::new();
        if h.kind != ActionKind::Resize {
            stale.push(h.subject);
            stale.extend(h.partner);
        }
        record(ctrl, st, window, ev, &stale);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_core::profiler::bucket_of;
    use partstm_core::{Migratable, PVar};

    /// Runs the execute stage for `proposal` with the protocols scripted:
    /// the first calls return `script`'s outcomes without doing anything,
    /// every later call runs for real. Returns the event and the number of
    /// protocol calls made.
    fn execute_scripted(
        ctrl: &RepartitionController,
        proposal: &Proposal,
        script: &[SwitchOutcome],
    ) -> (RepartEvent, usize) {
        let parts = ctrl.stm.partitions();
        let h = proposal.header();
        let subject = part_of(&parts, h.subject).unwrap();
        let partner = h.partner.and_then(|id| part_of(&parts, id));
        let mut calls = 0;
        let mut protocol = |call: &dyn Fn() -> SwitchOutcome| {
            calls += 1;
            match script.get(calls - 1) {
                Some(outcome) => *outcome,
                None => call(),
            }
        };
        let mut st = ctrl.state.lock();
        let ev = execute(
            ctrl,
            &mut st,
            &parts,
            proposal,
            subject,
            partner,
            &mut protocol,
        );
        (ev.expect("preconditions met"), calls)
    }

    #[test]
    fn retry_contended_is_bounded_and_stops_on_first_other_outcome() {
        let mut rng = XorShift64::new(7);
        let mut calls = 0u32;
        let out = retry_contended(SwitchOutcome::Contended, &mut rng, || {
            calls += 1;
            SwitchOutcome::Contended
        });
        assert_eq!(out, SwitchOutcome::Contended, "budget exhausted");
        assert_eq!(calls, CONTENDED_RETRIES);

        let mut calls = 0u32;
        let out = retry_contended(SwitchOutcome::Contended, &mut rng, || {
            calls += 1;
            if calls == 3 {
                SwitchOutcome::Switched
            } else {
                SwitchOutcome::Contended
            }
        });
        assert_eq!(out, SwitchOutcome::Switched);
        assert_eq!(calls, 3);

        // A non-Contended first outcome never invokes the closure.
        let out = retry_contended(SwitchOutcome::TimedOut, &mut rng, || unreachable!());
        assert_eq!(out, SwitchOutcome::TimedOut);

        // The same bound through the executor, for every kind of protocol
        // call it makes: a migration into an existing partition (merge), a
        // migration into a fresh one (split) and a resize.
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let dir = Arc::new(StaticDirectory::new());
        let vars: Vec<Arc<PVar<u64>>> = (0..8).map(|_| Arc::new(a.tvar(1u64))).collect();
        dir.register_all(vars.iter().map(|v| Arc::clone(v) as Arc<dyn Migratable>));
        let c = RepartitionController::new(&stm, dir, ControllerConfig::responsive());
        let registry = || -> Vec<String> {
            let parts = stm.partitions();
            parts.iter().map(|p| p.name().to_string()).collect()
        };
        let stuck = [SwitchOutcome::Contended; 1 + CONTENDED_RETRIES as usize];
        let transient = [SwitchOutcome::Contended; 2];
        let failed_contended = |ev: &RepartEvent, kind: ActionKind, src: &Arc<Partition>| {
            matches!(ev, RepartEvent::Failed { action, src: s, outcome: SwitchOutcome::Contended }
                if *action == kind && *s == src.id())
        };

        let merge = Proposal::Merge {
            src: a.id(),
            dst: b.id(),
            span_share: 1.0,
        };
        let (ev, calls) = execute_scripted(&c, &merge, &stuck);
        assert!(failed_contended(&ev, ActionKind::Merge, &a), "{ev:?}");
        assert_eq!(calls, stuck.len(), "one call + CONTENDED_RETRIES retries");
        assert_eq!(registry(), ["a", "b"], "a failed merge registers nothing");
        let (ev, calls) = execute_scripted(&c, &merge, &transient);
        assert!(
            matches!(ev, RepartEvent::Merge { src, dst, moved: 8, .. } if src == a.id() && dst == b.id()),
            "{ev:?}"
        );
        assert_eq!(calls, 3);
        assert!(vars.iter().all(|v| v.partition_id() == b.id()));
        drop(a);
        assert_eq!(
            registry(),
            ["b"],
            "the dissolved source dies with its last handle"
        );

        let mut buckets: Vec<u16> = vars.iter().map(|v| bucket_of(v.var_addr())).collect();
        buckets.sort_unstable();
        buckets.dedup();
        let split = Proposal::Split {
            src: b.id(),
            buckets,
            hot_share: 0.9,
            abort_rate: 0.5,
        };
        let (ev, calls) = execute_scripted(&c, &split, &stuck);
        assert!(failed_contended(&ev, ActionKind::Split, &b), "{ev:?}");
        assert_eq!(calls, stuck.len());
        assert_eq!(
            registry(),
            ["b"],
            "the fresh destination that stayed empty died"
        );
        let (ev, calls) = execute_scripted(&c, &split, &transient);
        let hot = stm.partitions().last().unwrap().clone();
        assert_eq!(hot.name(), "b~hot2");
        assert!(
            matches!(ev, RepartEvent::Split { src, dst, moved: 8, .. } if src == b.id() && dst == hot.id()),
            "{ev:?}"
        );
        assert_eq!(calls, 3);
        assert!(vars.iter().all(|v| v.partition_id() == hot.id()));
        assert_eq!(registry(), ["b", "b~hot2"], "a filled destination lives");

        let resize = Proposal::Resize {
            partition: hot.id(),
            new_count: hot.orec_count() * 4,
            aliased_share: 0.9,
            abort_rate: 0.5,
        };
        let (ev, calls) = execute_scripted(&c, &resize, &stuck);
        assert!(failed_contended(&ev, ActionKind::Resize, &hot), "{ev:?}");
        assert_eq!(calls, stuck.len());
        let (ev, calls) = execute_scripted(&c, &resize, &transient);
        assert!(
            matches!(ev, RepartEvent::Resize { to, .. } if to == hot.orec_count()),
            "{ev:?}"
        );
        assert_eq!(calls, 3);
    }

    /// Dropping a controller uninstalls only its own profiler: a later
    /// controller on the same `Stm` keeps sampling.
    #[test]
    fn drop_leaves_a_later_controllers_profiler_installed() {
        let stm = Stm::new();
        let dir = Arc::new(StaticDirectory::new());
        let cfg = ControllerConfig::responsive();
        let first = RepartitionController::new(&stm, Arc::clone(&dir), cfg.clone());
        let second = RepartitionController::new(&stm, dir, cfg);
        drop(first);
        let installed = stm.profiler().expect("the second controller's profiler");
        assert!(Arc::ptr_eq(&installed, second.profiler()));
        drop(second);
        assert!(stm.profiler().is_none(), "the owner's drop uninstalls it");
    }

    #[test]
    fn breaker_opens_after_consecutive_timeouts_and_closes_on_expiry() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("brk"));
        let id = p.id();
        let cfg = ControllerConfig {
            breaker_windows: 2,
            ..ControllerConfig::responsive()
        };
        let c = RepartitionController::new(&stm, Arc::new(StaticDirectory::new()), cfg);
        let ctrl = &c;
        let mut st = ctrl.state.lock();
        let st = &mut *st;
        let fail = |st: &mut CtrlState| {
            let ev = RepartEvent::Failed {
                action: ActionKind::Split,
                src: id,
                outcome: SwitchOutcome::TimedOut,
            };
            record(ctrl, st, 1, ev, &[]);
        };
        // Two timeouts: counting, still closed.
        for _ in 0..2 {
            fail(st);
        }
        assert!(!breaker_open(st, id, 1));
        // A non-timeout outcome resets the streak.
        let ev = RepartEvent::Resize {
            partition: id,
            from: 64,
            to: 128,
            aliased_share: 0.5,
            abort_rate: 0.1,
        };
        record(ctrl, st, 1, ev, &[]);
        // Three in a row trip it for `breaker_windows` windows.
        for _ in 0..3 {
            fail(st);
        }
        assert!(
            matches!(
                st.events.last(),
                Some(RepartEvent::BreakerOpen { consecutive: 3, partition }) if *partition == id
            ),
            "open event missing: {:?}",
            st.events.last()
        );
        assert!(breaker_open(st, id, 1));
        assert!(breaker_open(st, id, 2));
        // Expiry closes it and re-arms the count.
        tick_breakers(st, 3);
        assert!(!breaker_open(st, id, 3));
        assert!(matches!(
            st.events.last(),
            Some(RepartEvent::BreakerClose { partition }) if *partition == id
        ));
        assert_eq!(st.breaker.get(&id).unwrap().consecutive_timeouts, 0);
    }
}
