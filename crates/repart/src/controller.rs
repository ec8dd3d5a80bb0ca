//! The repartition controller: the decision loop that closes the dynamic
//! partitioning cycle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use partstm_analysis::online::{OnlineAnalyzer, OnlineConfig, PartitionMeta, Proposal};
use partstm_core::cm::{self, XorShift64};
use partstm_core::telemetry::{self, codes, EventKind};
use partstm_core::{
    AccessProfiler, Partition, PartitionConfig, PartitionId, StatCounters, Stm, SwitchOutcome,
};

use crate::directory::{PVarDirectory, TearMovers, TearSet};

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Evaluation window length (daemon mode).
    pub interval: Duration,
    /// Profiler sampling period (1 in N transactions).
    pub sample_period: u64,
    /// Profiler ring capacity between windows.
    pub profiler_capacity: usize,
    /// Thresholds of the online analysis.
    pub online: OnlineConfig,
    /// Consecutive windows that must propose the same action before it
    /// executes (anti-thrash, like the tuner's hysteresis).
    pub hysteresis: u32,
    /// Windows to stay quiet after an executed (or failed) action.
    pub cooldown: u32,
    /// Exponential aging applied to the affinity graph every window.
    pub decay: f64,
    /// Hard cap on partitions this controller may create up to.
    pub max_partitions: usize,
    /// Template configuration for partitions created by splits (the name
    /// is replaced). The default keeps the engine defaults and marks the
    /// partition tunable, so the parameter tuner (when installed) adapts
    /// the hot partition from its own observed statistics — picking a
    /// contention policy here by fiat backfires on oversubscribed hosts,
    /// where spinning policies burn the cycles the lock holder needs.
    pub split_template: PartitionConfig,
    /// Largest fraction of a collection's live nodes a slot-subset tear
    /// may move. A hot set wider than this is not a celebrity-key pattern;
    /// the tear falls back to the whole-structure split execution.
    pub tear_max_fraction: f64,
    /// Consecutive quiesce-timeout failures against one partition that
    /// open its circuit breaker (see [`RepartEvent::BreakerOpen`]): while
    /// open, proposals targeting the partition are skipped instead of
    /// burning the window's single action on another doomed quiesce. Any
    /// non-timeout outcome resets the count.
    pub breaker_threshold: u32,
    /// Evaluation windows an opened circuit breaker stays open before the
    /// partition becomes eligible again.
    pub breaker_windows: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            interval: Duration::from_millis(250),
            sample_period: 16,
            profiler_capacity: 4096,
            online: OnlineConfig::default(),
            hysteresis: 2,
            cooldown: 4,
            decay: 0.5,
            max_partitions: 64,
            split_template: PartitionConfig::default().tunable(),
            tear_max_fraction: 0.25,
            breaker_threshold: 3,
            breaker_windows: 8,
        }
    }
}

impl ControllerConfig {
    /// A preset that reacts within a few hundred milliseconds — for demos,
    /// benchmarks and tests. Production deployments should prefer the
    /// defaults (or slower).
    pub fn responsive() -> Self {
        ControllerConfig {
            interval: Duration::from_millis(100),
            sample_period: 4,
            online: OnlineConfig {
                min_samples: 32,
                ..OnlineConfig::default()
            },
            hysteresis: 2,
            cooldown: 3,
            ..Default::default()
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
        /// `"split"`, `"merge"`, `"resize"`, `"tear"` or `"heal"`.
        action: &'static str,
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

type StreakKey = (&'static str, PartitionId);

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
    /// Per-partition circuit breakers (see
    /// [`ControllerConfig::breaker_threshold`]).
    breaker: BTreeMap<PartitionId, BreakerState>,
    /// Partitions this controller knows to be dead (merged-away sources,
    /// abandoned split destinations); the Stm itself never unregisters
    /// them, so the partition-cap check discounts these.
    dead: std::collections::BTreeSet<PartitionId>,
    /// Live torn partitions, keyed by the torn (destination) partition.
    /// Feeds `PartitionMeta::torn_from` so the analyzer treats them as
    /// heal-only.
    torn: BTreeMap<PartitionId, TornRecord>,
    events: Vec<RepartEvent>,
}

struct Ctrl {
    stm: Stm,
    dir: Arc<dyn PVarDirectory>,
    profiler: Arc<AccessProfiler>,
    cfg: ControllerConfig,
    state: Mutex<CtrlState>,
    windows: AtomicU64,
    stop: AtomicBool,
}

/// Background daemon that watches the profiler, scores candidate
/// split/merge plans against observed abort/commit statistics, and
/// executes approved plans live via the repartition protocol — with
/// hysteresis and cooldown so it never thrashes.
///
/// Construct with [`RepartitionController::new`] and drive it manually
/// with [`step`](RepartitionController::step) (tests, benchmarks with
/// their own scheduling), or with
/// [`RepartitionController::spawn`] to run the loop on a background
/// thread. Either way the controller installs an [`AccessProfiler`] on
/// the `Stm` at construction.
pub struct RepartitionController {
    ctrl: Arc<Ctrl>,
    handle: Option<JoinHandle<()>>,
}

impl RepartitionController {
    /// Creates a controller (profiler installed, no thread spawned).
    pub fn new(stm: &Stm, dir: Arc<dyn PVarDirectory>, cfg: ControllerConfig) -> Self {
        let profiler = Arc::new(AccessProfiler::new(
            cfg.sample_period,
            cfg.profiler_capacity,
        ));
        stm.set_profiler(Arc::clone(&profiler));
        let baseline = stm
            .partitions()
            .iter()
            .map(|p| (p.id(), p.stats()))
            .collect();
        RepartitionController {
            ctrl: Arc::new(Ctrl {
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
                    dead: std::collections::BTreeSet::new(),
                    torn: BTreeMap::new(),
                    events: Vec::new(),
                }),
                windows: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
            handle: None,
        }
    }

    /// Creates a controller and runs its window loop on a background
    /// thread until [`stop`](RepartitionController::stop) (or drop).
    pub fn spawn(stm: &Stm, dir: Arc<dyn PVarDirectory>, cfg: ControllerConfig) -> Self {
        let mut c = Self::new(stm, dir, cfg);
        let ctrl = Arc::clone(&c.ctrl);
        c.handle = Some(std::thread::spawn(move || {
            let tick = Duration::from_millis(10);
            let mut elapsed = Duration::ZERO;
            while !ctrl.stop.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed >= ctrl.cfg.interval {
                    elapsed = Duration::ZERO;
                    step(&ctrl);
                }
            }
        }));
        c
    }

    /// Runs one evaluation window synchronously: drain samples, fold them
    /// into the affinity graph, score proposals, execute at most one
    /// approved action.
    pub fn step(&self) {
        step(&self.ctrl);
    }

    /// Windows evaluated so far.
    pub fn windows(&self) -> u64 {
        self.ctrl.windows.load(Ordering::Relaxed)
    }

    /// The profiler this controller installed.
    pub fn profiler(&self) -> &Arc<AccessProfiler> {
        &self.ctrl.profiler
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<RepartEvent> {
        self.ctrl.state.lock().events.clone()
    }

    /// True if any split executed so far.
    pub fn has_split(&self) -> bool {
        self.ctrl
            .state
            .lock()
            .events
            .iter()
            .any(|e| matches!(e, RepartEvent::Split { .. }))
    }

    /// True if any orec-table resize executed so far.
    pub fn has_resize(&self) -> bool {
        self.ctrl
            .state
            .lock()
            .events
            .iter()
            .any(|e| matches!(e, RepartEvent::Resize { .. }))
    }

    /// True if any slot-subset tear executed so far.
    pub fn has_tear(&self) -> bool {
        self.ctrl
            .state
            .lock()
            .events
            .iter()
            .any(|e| matches!(e, RepartEvent::Tear { .. }))
    }

    /// True if any heal (torn subset re-merged) executed so far.
    pub fn has_heal(&self) -> bool {
        self.ctrl
            .state
            .lock()
            .events
            .iter()
            .any(|e| matches!(e, RepartEvent::Heal { .. }))
    }

    /// Stops the daemon (if spawned), uninstalls the profiler and returns
    /// the event log.
    pub fn stop(mut self) -> Vec<RepartEvent> {
        self.shutdown();
        let events = std::mem::take(&mut self.ctrl.state.lock().events);
        events
    }

    fn shutdown(&mut self) {
        self.ctrl.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.ctrl.stm.clear_profiler();
    }
}

impl Drop for RepartitionController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl core::fmt::Debug for RepartitionController {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RepartitionController")
            .field("windows", &self.windows())
            .field("daemon", &self.handle.is_some())
            .finish()
    }
}

fn find_partition(stm: &Stm, id: PartitionId) -> Option<Arc<Partition>> {
    stm.partitions().into_iter().find(|p| p.id() == id)
}

/// Partitions currently in service: the Stm never removes partitions, so
/// subtract the ones the controller knows are dead (merged-away sources,
/// abandoned split destinations) — otherwise a long split/merge history
/// would exhaust the cap with corpses and silently disable splitting.
fn live_partitions(ctrl: &Ctrl, st: &CtrlState) -> usize {
    ctrl.stm.partitions().len().saturating_sub(st.dead.len())
}

/// Retry budget of [`retry_contended`]: a `Contended` migration collides
/// with a transient flag holder (tuner switch, privatization), which
/// clears in well under eight backed-off attempts or not at all.
const CONTENDED_RETRIES: u32 = 8;

/// Retries a migration while it reports [`SwitchOutcome::Contended`],
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

/// Fault-injection site
/// [`CtrlActionFail`](partstm_core::fault::FaultSite::CtrlActionFail),
/// consulted once per approved action of any kind: when the installed
/// plan fires, the action is reported as a quiesce timeout *without*
/// attempting the protocol (injecting the outcome rather than a stall
/// keeps the schedule independent of the quiesce deadlines and costs the
/// scenario no wall time).
fn injected_ctrl_failure(ctrl: &Ctrl, st: &mut CtrlState, (action, src): StreakKey) -> bool {
    if !partstm_core::fault::ctrl_action_should_fail(&ctrl.stm) {
        return false;
    }
    let ev = RepartEvent::Failed {
        action,
        src,
        outcome: SwitchOutcome::TimedOut,
    };
    emit_ctrl_action(&ev);
    st.events.push(ev);
    true
}

/// Ends a window whose single action slot was spent (executed or failed):
/// feeds the outcome to the breaker, resets hysteresis, starts the
/// cooldown.
fn finish_action(ctrl: &Ctrl, st: &mut CtrlState, window: u64) {
    update_breaker(ctrl, st, window);
    st.streaks.clear();
    st.cooldown = ctrl.cfg.cooldown;
}

/// Executes a whole-structure split of `src`'s hot buckets. Returns true
/// when the window was consumed (an event — success or failure — was
/// recorded); false when the action could not even be attempted and the
/// caller should consider the next proposal.
fn exec_split(
    ctrl: &Ctrl,
    st: &mut CtrlState,
    src: PartitionId,
    buckets: &[u16],
    hot_share: f64,
    abort_rate: f64,
) -> bool {
    if live_partitions(ctrl, st) >= ctrl.cfg.max_partitions {
        return false;
    }
    let Some(src_part) = find_partition(&ctrl.stm, src) else {
        return false;
    };
    let movers = ctrl.dir.collect(src, buckets);
    if movers.is_empty() {
        let ev = RepartEvent::Failed {
            action: "split",
            src,
            outcome: SwitchOutcome::Unchanged,
        };
        emit_ctrl_action(&ev);
        st.events.push(ev);
        return true;
    }
    st.split_seq += 1;
    let name = format!("{}~hot{}", src_part.name(), st.split_seq);
    let template = PartitionConfig {
        name,
        ..ctrl.cfg.split_template.clone()
    };
    let (dst, outcome) = ctrl.stm.split_partition_batch(&src_part, template, &movers);
    // A Contended migration left `dst` created but empty; retry into the
    // same destination (per the protocol docs) so a transient collision
    // with a tuner switch doesn't leak a dead partition.
    let outcome = retry_contended(outcome, &mut st.rng, || {
        ctrl.stm.migrate_batch(&movers, &dst)
    });
    let ev = match outcome {
        SwitchOutcome::Switched => RepartEvent::Split {
            src,
            dst: dst.id(),
            moved: movers.moved_count(),
            collections: movers.collections.len(),
            hot_share,
            abort_rate,
        },
        other => {
            // The destination stays registered but empty; account for
            // the corpse so it doesn't consume the partition cap.
            st.dead.insert(dst.id());
            RepartEvent::Failed {
                action: "split",
                src,
                outcome: other,
            }
        }
    };
    emit_ctrl_action(&ev);
    st.events.push(ev);
    st.analyzer.forget_partition(src);
    true
}

/// Executes a slot-subset tear: migrates just the celebrity slots in
/// `sets` out of `src` into a fresh partition — or into the existing
/// torn partition for the same origin, so repeated windows accrete into
/// one hot partition instead of fragmenting. Same return contract as
/// [`exec_split`].
fn exec_tear(
    ctrl: &Ctrl,
    st: &mut CtrlState,
    src: PartitionId,
    sets: &[TearSet],
    hot_share: f64,
    abort_rate: f64,
) -> bool {
    let Some(src_part) = find_partition(&ctrl.stm, src) else {
        return false;
    };
    let existing = st
        .torn
        .iter()
        .find(|(_, r)| r.origin == src)
        .map(|(id, _)| *id)
        .and_then(|id| find_partition(&ctrl.stm, id));
    let (dst, outcome, fresh) = match existing {
        Some(d) => {
            let o = ctrl.stm.migrate_batch(&TearMovers(sets), &d);
            (d, o, false)
        }
        None => {
            if live_partitions(ctrl, st) >= ctrl.cfg.max_partitions {
                return false;
            }
            st.split_seq += 1;
            let name = format!("{}~torn{}", src_part.name(), st.split_seq);
            let template = PartitionConfig {
                name,
                ..ctrl.cfg.split_template.clone()
            };
            let (d, o) = ctrl
                .stm
                .split_partition_batch(&src_part, template, &TearMovers(sets));
            (d, o, true)
        }
    };
    let outcome = retry_contended(outcome, &mut st.rng, || {
        ctrl.stm.migrate_batch(&TearMovers(sets), &dst)
    });
    let ev = match outcome {
        SwitchOutcome::Switched => {
            // Evict the torn slots from the reverse maps so the next
            // window does not re-propose them, and remember the sets so
            // a later heal can replay them home.
            for s in sets {
                ctrl.dir.mark_torn(s);
            }
            st.torn
                .entry(dst.id())
                .or_insert_with(|| TornRecord {
                    origin: src,
                    sets: Vec::new(),
                })
                .sets
                .extend(sets.iter().cloned());
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
        other => {
            if fresh {
                st.dead.insert(dst.id());
            }
            RepartEvent::Failed {
                action: "tear",
                src,
                outcome: other,
            }
        }
    };
    emit_ctrl_action(&ev);
    st.events.push(ev);
    st.analyzer.forget_partition(src);
    true
}

/// Heals the torn partition `src`: replays its recorded tear sets back
/// into each collection's *current* home partition (the origin may have
/// been restructured since the tear), then retires `src`. Same return
/// contract as [`exec_split`].
fn exec_heal(ctrl: &Ctrl, st: &mut CtrlState, src: PartitionId, dst: PartitionId) -> bool {
    if !st.torn.contains_key(&src) {
        return false;
    }
    let Some(src_part) = find_partition(&ctrl.stm, src) else {
        return false;
    };
    let sets = st
        .torn
        .get(&src)
        .map(|r| r.sets.clone())
        .unwrap_or_default();
    let mut groups: Vec<(Arc<Partition>, Vec<TearSet>)> = Vec::new();
    for s in sets {
        let home = s.coll.home_partition();
        match groups.iter_mut().find(|(h, _)| h.id() == home.id()) {
            Some((_, g)) => g.push(s),
            None => groups.push((home, vec![s])),
        }
    }
    let mut moved = 0usize;
    let mut collections = 0usize;
    let mut failure = None;
    for (home, group) in &groups {
        let outcome = ctrl
            .stm
            .merge_partitions_batch(&[&src_part], home, &TearMovers(group));
        let outcome = retry_contended(outcome, &mut st.rng, || {
            ctrl.stm.migrate_batch(&TearMovers(group), home)
        });
        if outcome == SwitchOutcome::Switched {
            for s in group {
                ctrl.dir.unmark_torn(s);
            }
            moved += group.iter().map(|s| s.raw.len()).sum::<usize>();
            collections += group.len();
            if let Some(rec) = st.torn.get_mut(&src) {
                rec.sets
                    .retain(|s| !group.iter().any(|g| Arc::ptr_eq(&g.coll, &s.coll)));
            }
        } else {
            failure = Some(outcome);
        }
    }
    let ev = match failure {
        // Fully healed: the torn partition is now empty — retire it.
        None => {
            st.torn.remove(&src);
            st.dead.insert(src);
            RepartEvent::Heal {
                src,
                dst,
                moved,
                collections,
            }
        }
        // Partial heals keep the record (minus what went home) so the
        // next window can retry the remainder.
        Some(outcome) => RepartEvent::Failed {
            action: "heal",
            src,
            outcome,
        },
    };
    emit_ctrl_action(&ev);
    st.events.push(ev);
    st.analyzer.forget_partition(src);
    st.analyzer.forget_partition(dst);
    true
}

fn action_code(action: &str) -> u64 {
    match action {
        "split" => codes::ACTION_SPLIT,
        "merge" => codes::ACTION_MERGE,
        "tear" => codes::ACTION_TEAR,
        "heal" => codes::ACTION_HEAL,
        _ => codes::ACTION_RESIZE,
    }
}

/// Mirrors an executed (or failed) controller action into the telemetry
/// control timeline, alongside the `RepartEvent` kept for [`
/// RepartitionController::events`].
fn emit_ctrl_action(ev: &RepartEvent) {
    let (part, action, moved, outcome) = match ev {
        RepartEvent::Split { src, moved, .. } => (
            *src,
            codes::ACTION_SPLIT,
            *moved as u64,
            codes::OUTCOME_SWITCHED,
        ),
        RepartEvent::Merge { src, moved, .. } => (
            *src,
            codes::ACTION_MERGE,
            *moved as u64,
            codes::OUTCOME_SWITCHED,
        ),
        RepartEvent::Resize { partition, to, .. } => (
            *partition,
            codes::ACTION_RESIZE,
            *to as u64,
            codes::OUTCOME_SWITCHED,
        ),
        RepartEvent::Tear { src, moved, .. } => (
            *src,
            codes::ACTION_TEAR,
            *moved as u64,
            codes::OUTCOME_SWITCHED,
        ),
        RepartEvent::Heal { src, moved, .. } => (
            *src,
            codes::ACTION_HEAL,
            *moved as u64,
            codes::OUTCOME_SWITCHED,
        ),
        RepartEvent::Failed {
            action,
            src,
            outcome,
        } => (
            *src,
            action_code(action),
            0,
            telemetry::outcome_code(*outcome),
        ),
        // Breaker transitions carry their own event kind (emitted where
        // the breaker state changes), not a CtrlAction.
        RepartEvent::BreakerOpen { .. } | RepartEvent::BreakerClose { .. } => return,
    };
    telemetry::control_event(
        EventKind::CtrlAction,
        part.0 as u64,
        action | (moved << 8),
        outcome,
    );
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

/// Folds the outcome of the window's executed action (the event just
/// pushed) into the target partition's circuit breaker: quiesce timeouts
/// accumulate and trip it at [`ControllerConfig::breaker_threshold`];
/// anything else proves quiesce works and resets the count.
fn update_breaker(ctrl: &Ctrl, st: &mut CtrlState, window: u64) {
    let Some(ev) = st.events.last() else {
        return;
    };
    let (partition, timed_out) = match ev {
        RepartEvent::Failed { src, outcome, .. } => (*src, *outcome == SwitchOutcome::TimedOut),
        RepartEvent::Split { src, .. }
        | RepartEvent::Merge { src, .. }
        | RepartEvent::Tear { src, .. }
        | RepartEvent::Heal { src, .. } => (*src, false),
        RepartEvent::Resize { partition, .. } => (*partition, false),
        RepartEvent::BreakerOpen { .. } | RepartEvent::BreakerClose { .. } => return,
    };
    if !timed_out {
        if let Some(b) = st.breaker.get_mut(&partition) {
            b.consecutive_timeouts = 0;
        }
        return;
    }
    let threshold = ctrl.cfg.breaker_threshold.max(1);
    let b = st.breaker.entry(partition).or_default();
    b.consecutive_timeouts += 1;
    let consecutive = b.consecutive_timeouts;
    if consecutive >= threshold && b.open_until_window <= window {
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

/// One evaluation window.
fn step(ctrl: &Ctrl) {
    let window = ctrl.windows.fetch_add(1, Ordering::Relaxed) + 1;
    let mut st = ctrl.state.lock();
    let st = &mut *st;
    tick_breakers(st, window);

    // 1. Age the graph, fold in the window's samples.
    st.analyzer.decay(ctrl.cfg.decay);
    let samples = ctrl.profiler.drain();
    st.analyzer.observe_all(samples.iter());

    // 2. Per-partition statistics delta over the window, plus the runtime
    // metadata (current orec-table sizes) resize proposals need.
    let mut delta = BTreeMap::new();
    let mut snap = BTreeMap::new();
    let mut meta = BTreeMap::new();
    for p in ctrl.stm.partitions() {
        let s = p.stats();
        let base = st.last_stats.get(&p.id()).copied().unwrap_or_default();
        delta.insert(p.id(), s.delta(&base));
        snap.insert(p.id(), s);
        meta.insert(
            p.id(),
            PartitionMeta {
                orec_count: p.orec_count(),
                ring_depth: p.ring_depth(),
                torn_from: st.torn.get(&p.id()).map(|r| r.origin),
            },
        );
    }
    st.last_stats = snap;

    // 3. Score proposals; maintain hysteresis streaks.
    let proposals = st
        .analyzer
        .proposals_with_meta(&delta, &meta, &ctrl.cfg.online);
    let keys: Vec<StreakKey> = proposals
        .iter()
        .map(|p| match p {
            Proposal::Split { src, .. } => ("split", *src),
            Proposal::Merge { src, .. } => ("merge", *src),
            Proposal::Resize { partition, .. } => ("resize", *partition),
            Proposal::Tear { src, .. } => ("tear", *src),
            Proposal::Heal { src, .. } => ("heal", *src),
        })
        .collect();
    st.streaks.retain(|k, _| keys.contains(k));
    for k in &keys {
        *st.streaks.entry(*k).or_insert(0) += 1;
    }
    if telemetry::enabled() {
        for (p, key) in proposals.iter().zip(&keys) {
            let (part, action, score) = match p {
                Proposal::Split { src, hot_share, .. } => (*src, codes::ACTION_SPLIT, *hot_share),
                Proposal::Merge {
                    src, span_share, ..
                } => (*src, codes::ACTION_MERGE, *span_share),
                Proposal::Resize {
                    partition,
                    aliased_share,
                    ..
                } => (*partition, codes::ACTION_RESIZE, *aliased_share),
                Proposal::Tear { src, hot_share, .. } => (*src, codes::ACTION_TEAR, *hot_share),
                Proposal::Heal {
                    src, load_share, ..
                } => (*src, codes::ACTION_HEAL, *load_share),
            };
            let streak = st.streaks.get(key).copied().unwrap_or(0) as u64;
            telemetry::control_event(
                EventKind::CtrlProposal,
                part.0 as u64,
                action | (streak << 8),
                score.to_bits(),
            );
        }
    }
    if st.cooldown > 0 {
        st.cooldown -= 1;
        return;
    }

    // 4. Execute the first approved action (at most one per window).
    for (proposal, key) in proposals.iter().zip(&keys) {
        if st.streaks.get(key).copied().unwrap_or(0) < ctrl.cfg.hysteresis {
            continue;
        }
        // A privatized partition is held outside transactional service by
        // a `PrivateGuard`; every protocol action against it would only
        // bounce off the installed switch flag (Contended), burning this
        // window's single action — and a split would leak a corpse
        // destination. Skip such proposals until the guard republishes
        // (the streak survives, so the action fires on the next window).
        // The same skip doubles as the leaked-guard watchdog: every time a
        // proposal bounces off a hold, the hold's age is checked against
        // the alarm threshold.
        let privatized = |id: PartitionId| {
            find_partition(&ctrl.stm, id).is_some_and(|p| {
                let held = p.is_privatized();
                if held {
                    partstm_core::privatize::check_hold_alarm(&p);
                }
                held
            })
        };
        let (held, tripped) = match proposal {
            Proposal::Split { src, .. } | Proposal::Tear { src, .. } => {
                (privatized(*src), breaker_open(st, *src, window))
            }
            Proposal::Merge { src, dst, .. } | Proposal::Heal { src, dst, .. } => (
                privatized(*src) || privatized(*dst),
                breaker_open(st, *src, window) || breaker_open(st, *dst, window),
            ),
            Proposal::Resize { partition, .. } => {
                (privatized(*partition), breaker_open(st, *partition, window))
            }
        };
        // Both skips leave the streak alive: the proposal fires on the
        // first window after the guard republishes / the breaker closes.
        if held || tripped {
            continue;
        }
        if injected_ctrl_failure(ctrl, st, *key) {
            finish_action(ctrl, st, window);
            return;
        }
        match proposal {
            Proposal::Split {
                src,
                buckets,
                hot_share,
                abort_rate,
            } => {
                if !exec_split(ctrl, st, *src, buckets, *hot_share, *abort_rate) {
                    continue;
                }
            }
            Proposal::Tear {
                src,
                buckets,
                hot_share,
                abort_rate,
            } => {
                let sets = ctrl
                    .dir
                    .collect_tears(*src, buckets, ctrl.cfg.tear_max_fraction);
                if sets.is_empty() {
                    // Nothing tearable behind the hot buckets (flat vars,
                    // subset wider than `tear_max_fraction`, or the slots
                    // are already torn): fall back to the whole-structure
                    // split execution.
                    if !exec_split(ctrl, st, *src, buckets, *hot_share, *abort_rate) {
                        continue;
                    }
                } else if !exec_tear(ctrl, st, *src, &sets, *hot_share, *abort_rate) {
                    continue;
                }
            }
            Proposal::Heal { src, dst, .. } => {
                if !exec_heal(ctrl, st, *src, *dst) {
                    continue;
                }
            }
            Proposal::Merge { src, dst, .. } => {
                let (Some(src_part), Some(dst_part)) = (
                    find_partition(&ctrl.stm, *src),
                    find_partition(&ctrl.stm, *dst),
                ) else {
                    continue;
                };
                let movers = ctrl.dir.collect_all(*src);
                if movers.is_empty() {
                    // Nothing registered to move: executing would run a
                    // full stop-the-world quiesce to accomplish nothing,
                    // and recur every hysteresis cycle.
                    let ev = RepartEvent::Failed {
                        action: "merge",
                        src: *src,
                        outcome: SwitchOutcome::Unchanged,
                    };
                    emit_ctrl_action(&ev);
                    st.events.push(ev);
                    finish_action(ctrl, st, window);
                    return;
                }
                let outcome = ctrl
                    .stm
                    .merge_partitions_batch(&[&src_part], &dst_part, &movers);
                let ev = match outcome {
                    SwitchOutcome::Switched => {
                        st.dead.insert(*src);
                        RepartEvent::Merge {
                            src: *src,
                            dst: *dst,
                            moved: movers.moved_count(),
                            collections: movers.collections.len(),
                        }
                    }
                    other => RepartEvent::Failed {
                        action: "merge",
                        src: *src,
                        outcome: other,
                    },
                };
                emit_ctrl_action(&ev);
                st.events.push(ev);
                st.analyzer.forget_partition(*src);
                st.analyzer.forget_partition(*dst);
            }
            Proposal::Resize {
                partition,
                new_count,
                aliased_share,
                abort_rate,
            } => {
                let Some(part) = find_partition(&ctrl.stm, *partition) else {
                    continue;
                };
                let from = part.orec_count();
                let outcome = ctrl.stm.resize_orecs(&part, *new_count);
                let ev = match outcome {
                    SwitchOutcome::Switched => RepartEvent::Resize {
                        partition: *partition,
                        from,
                        to: part.orec_count(),
                        aliased_share: *aliased_share,
                        abort_rate: *abort_rate,
                    },
                    other => RepartEvent::Failed {
                        action: "resize",
                        src: *partition,
                        outcome: other,
                    },
                };
                emit_ctrl_action(&ev);
                st.events.push(ev);
                // The affinity graph stays: buckets are independent of the
                // orec table (only the partition's *shape* is unchanged).
            }
        }
        finish_action(ctrl, st, window);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::StaticDirectory;

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
    }

    #[test]
    fn breaker_opens_after_consecutive_timeouts_and_closes_on_expiry() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("brk"));
        let id = p.id();
        let cfg = ControllerConfig {
            breaker_threshold: 3,
            breaker_windows: 2,
            ..Default::default()
        };
        let c = RepartitionController::new(&stm, Arc::new(StaticDirectory::new()), cfg);
        let ctrl = &c.ctrl;
        let mut st = ctrl.state.lock();
        let st = &mut *st;
        let fail = |st: &mut CtrlState| {
            st.events.push(RepartEvent::Failed {
                action: "split",
                src: id,
                outcome: SwitchOutcome::TimedOut,
            });
        };
        // Two timeouts: counting, still closed.
        for _ in 0..2 {
            fail(st);
            update_breaker(ctrl, st, 1);
        }
        assert!(!breaker_open(st, id, 1));
        // A non-timeout outcome resets the streak.
        st.events.push(RepartEvent::Resize {
            partition: id,
            from: 64,
            to: 128,
            aliased_share: 0.5,
            abort_rate: 0.1,
        });
        update_breaker(ctrl, st, 1);
        // Three in a row trip it for `breaker_windows` windows.
        for _ in 0..3 {
            fail(st);
            update_breaker(ctrl, st, 1);
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
