//! STAMP **intruder**: signature-based network intrusion detection.
//!
//! A packet stream interleaves fragments of many flows. Workers pull
//! packets from a shared queue, reassemble flows in a fragment map, move
//! completed flows to a decoded queue, and scan decoded payloads for attack
//! signatures. Three pipeline stages, three very different partitions:
//!
//! * `intruder.packets` — the input queue: a two-word hotspot (head/tail),
//!   extreme contention, the poster child for coarse conflict detection;
//! * `intruder.fragments` — the reassembly map: accesses spread over flows,
//!   fine detection wins;
//! * `intruder.decoded` — the completed-flow queue plus the attack counter.
//!
//! Payloads are sequences of 64-bit words (each fragment carries one word);
//! an "attack" embeds the two-word signature. This replaces STAMP's string
//! dictionary with word-exact matching — the transaction structure
//! (queue/map/queue hand-offs) is unchanged.

use std::sync::Arc;

use partstm_core::{
    Arena, Handle, Migratable, MigratableCollection, PVar, PVarFields, Partition, PartitionConfig,
    Stm, Tx, TxResult, TxWord,
};
use partstm_structures::{THashMap, TQueue};

use crate::common::SplitMix64;

/// Maximum fragments per flow (fits the reassembly slots in one node).
pub const MAX_FRAGMENTS: usize = 16;

/// The attack signature: two consecutive payload words.
pub const SIGNATURE: (u64, u64) = (0xDEAD_BEEF_0BAD_F00D, 0xFEE1_DEAD_CAFE_D00D);

/// One packet: a fragment of one flow.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Flow this fragment belongs to.
    pub flow: u64,
    /// Fragment index within the flow.
    pub index: u16,
    /// Total fragments in the flow.
    pub total: u16,
    /// Payload word.
    pub data: u64,
}

/// Reassembly node: one in-flight flow, bound to the fragments partition.
struct FlowAsm {
    /// Bitmask of received fragment indices.
    received: PVar<u64>,
    /// Total fragments expected.
    total: PVar<u64>,
    /// Fragment payload slots.
    data: [PVar<u64>; MAX_FRAGMENTS],
}

impl PVarFields for FlowAsm {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.received);
        f(&self.total);
        for d in &self.data {
            f(d);
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct IntruderConfig {
    /// Number of flows.
    pub flows: usize,
    /// Maximum fragments per flow (2..=MAX_FRAGMENTS).
    pub max_fragments: usize,
    /// Percentage of flows carrying the attack signature.
    pub attack_pct: u64,
    /// Stream shuffle / payload seed.
    pub seed: u64,
}

impl IntruderConfig {
    /// Scaled STAMP-like defaults.
    pub fn scaled(flows: usize) -> Self {
        IntruderConfig {
            flows,
            max_fragments: 10,
            attack_pct: 10,
            seed: 0x1D5_0DD,
        }
    }
}

/// The partitions intruder uses.
pub struct IntruderParts {
    /// Input packet queue.
    pub packets: Arc<Partition>,
    /// Flow reassembly map.
    pub fragments: Arc<Partition>,
    /// Decoded-flow queue + attack counter.
    pub decoded: Arc<Partition>,
}

impl IntruderParts {
    /// One partition per pipeline structure.
    pub fn partitioned(stm: &Stm, tunable: bool) -> Self {
        let mk = |name: &str| {
            let mut cfg = PartitionConfig::named(name);
            cfg.tune = tunable;
            stm.new_partition(cfg)
        };
        IntruderParts {
            packets: mk("intruder.packets"),
            fragments: mk("intruder.fragments"),
            decoded: mk("intruder.decoded"),
        }
    }

    /// Single shared partition (base-STM comparison).
    pub fn single(stm: &Stm, tunable: bool) -> Self {
        let mut cfg = PartitionConfig::named("intruder.all");
        cfg.tune = tunable;
        let p = stm.new_partition(cfg);
        IntruderParts {
            packets: Arc::clone(&p),
            fragments: Arc::clone(&p),
            decoded: p,
        }
    }
}

/// Generates the interleaved packet stream; returns `(packets,
/// attack_flow_count)`. Deterministic in the seed.
pub fn generate_stream(cfg: &IntruderConfig) -> (Vec<Packet>, usize) {
    assert!((2..=MAX_FRAGMENTS).contains(&cfg.max_fragments));
    let mut rng = SplitMix64::new(cfg.seed);
    let mut packets = Vec::new();
    let mut attacks = 0usize;
    for flow in 0..cfg.flows as u64 {
        let total = 2 + rng.below_usize(cfg.max_fragments - 1);
        let is_attack = rng.pct(cfg.attack_pct);
        let mut payload: Vec<u64> = (0..total).map(|_| rng.next() | 1).collect();
        if is_attack {
            // Plant the signature at a random aligned position.
            let pos = rng.below_usize(total - 1);
            payload[pos] = SIGNATURE.0;
            payload[pos + 1] = SIGNATURE.1;
            attacks += 1;
        }
        for (index, &data) in payload.iter().enumerate() {
            packets.push(Packet {
                flow,
                index: index as u16,
                total: total as u16,
                data,
            });
        }
    }
    // Shuffle fragments across flows (Fisher-Yates).
    for i in (1..packets.len()).rev() {
        let j = rng.below_usize(i + 1);
        packets.swap(i, j);
    }
    (packets, attacks)
}

/// The shared pipeline state.
pub struct Intruder {
    parts: IntruderParts,
    /// Indices into the pre-generated packet vector.
    packet_queue: Arc<TQueue<u64>>,
    fragment_map: Arc<THashMap>,
    flow_arena: Arc<Arena<FlowAsm>>,
    decoded_queue: Arc<TQueue<u64>>,
    attacks_found: PVar<u64>,
    flows_done: PVar<u64>,
}

impl Intruder {
    /// Builds the pipeline and enqueues all packet indices.
    pub fn new(stm: &Stm, parts: IntruderParts, packets: &[Packet]) -> Self {
        let me = Intruder {
            packet_queue: Arc::new(TQueue::with_capacity(
                Arc::clone(&parts.packets),
                packets.len(),
            )),
            fragment_map: Arc::new(THashMap::new(Arc::clone(&parts.fragments), 4096)),
            flow_arena: Arc::new(Arena::new_bound(&parts.fragments, |p| FlowAsm {
                received: p.tvar(0),
                total: p.tvar(0),
                data: core::array::from_fn(|_| p.tvar(0)),
            })),
            decoded_queue: Arc::new(TQueue::new(Arc::clone(&parts.decoded))),
            attacks_found: parts.decoded.tvar(0),
            flows_done: parts.decoded.tvar(0),
            parts,
        };
        let ctx = stm.register_thread();
        for i in 0..packets.len() as u64 {
            ctx.run(|tx| me.packet_queue.push_back(tx, i));
        }
        me
    }

    /// The partitions backing this pipeline.
    pub fn parts(&self) -> &IntruderParts {
        &self.parts
    }

    /// The pipeline's arena-backed state (both queues, the reassembly map
    /// and the flow arena): registered with a migration directory, they
    /// make every stage repartition-aware.
    pub fn collections(&self) -> Vec<Arc<dyn MigratableCollection>> {
        vec![
            Arc::clone(&self.packet_queue) as _,
            Arc::clone(&self.fragment_map) as _,
            Arc::clone(&self.decoded_queue) as _,
            Arc::clone(&self.flow_arena) as _,
        ]
    }

    /// Decoder step: pop one packet index and integrate the fragment;
    /// completed flows move to the decoded queue. Returns `false` when the
    /// packet queue was empty.
    pub fn decode_one<'e>(&'e self, tx: &mut Tx<'e, '_>, packets: &[Packet]) -> TxResult<bool> {
        let Some(idx) = self.packet_queue.pop_front(tx)? else {
            return Ok(false);
        };
        let pkt = packets[idx as usize];
        let h = match self.fragment_map.get(tx, pkt.flow)? {
            Some(raw) => Handle::<FlowAsm>::from_word(raw),
            None => {
                let h = self.flow_arena.alloc(tx)?;
                let n = self.flow_arena.get(h);
                tx.write(&n.received, 0)?;
                tx.write(&n.total, pkt.total as u64)?;
                for slot in &n.data {
                    tx.write(slot, 0)?;
                }
                self.fragment_map.put(tx, pkt.flow, h.to_word())?;
                h
            }
        };
        let n = self.flow_arena.get(h);
        let mask = tx.read(&n.received)?;
        let bit = 1u64 << pkt.index;
        if mask & bit != 0 {
            return Ok(true); // duplicate fragment: drop
        }
        tx.write(&n.data[pkt.index as usize], pkt.data)?;
        let mask = mask | bit;
        tx.write(&n.received, mask)?;
        let total = tx.read(&n.total)?;
        if mask == (1u64 << total) - 1 {
            // Flow complete: hand it to the detector stage.
            self.fragment_map.delete(tx, pkt.flow)?;
            self.decoded_queue.push_back(tx, h.to_word())?;
        }
        Ok(true)
    }

    /// Detector step: pop one completed flow and scan for the signature.
    /// Returns `false` when the decoded queue was empty.
    pub fn detect_one<'e>(&'e self, tx: &mut Tx<'e, '_>) -> TxResult<bool> {
        let Some(raw) = self.decoded_queue.pop_front(tx)? else {
            return Ok(false);
        };
        let h = Handle::<FlowAsm>::from_word(raw);
        let n = self.flow_arena.get(h);
        let total = tx.read(&n.total)? as usize;
        let mut prev = 0u64;
        let mut attack = false;
        for slot in n.data.iter().take(total) {
            let w = tx.read(slot)?;
            if prev == SIGNATURE.0 && w == SIGNATURE.1 {
                attack = true;
            }
            prev = w;
        }
        if attack {
            let a = tx.read(&self.attacks_found)?;
            tx.write(&self.attacks_found, a + 1)?;
        }
        let d = tx.read(&self.flows_done)?;
        tx.write(&self.flows_done, d + 1)?;
        self.flow_arena.free(tx, h);
        Ok(true)
    }

    /// Attacks detected so far (quiescent read).
    pub fn attacks(&self) -> u64 {
        self.attacks_found.load_direct()
    }

    /// Flows fully processed so far (quiescent read).
    pub fn flows_done(&self) -> u64 {
        self.flows_done.load_direct()
    }
}

/// Outcome of a full run.
#[derive(Debug)]
pub struct IntruderResult {
    /// Attacks detected.
    pub attacks: u64,
    /// Flows processed end to end.
    pub flows: u64,
}

/// Runs the full pipeline with `threads` workers, each alternating decode
/// and detect steps (STAMP's worker loop).
pub fn run_intruder(
    stm: &Stm,
    intruder: &Intruder,
    packets: &[Packet],
    total_flows: usize,
    threads: usize,
) -> IntruderResult {
    std::thread::scope(|s| {
        for _ in 0..threads {
            let ctx = stm.register_thread();
            s.spawn(move || {
                loop {
                    let decoded = ctx.run(|tx| intruder.decode_one(tx, packets));
                    let detected = ctx.run(|tx| intruder.detect_one(tx));
                    if !decoded && !detected {
                        // Input drained; stop once every flow is finished.
                        if intruder.flows_done() >= total_flows as u64 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    IntruderResult {
        attacks: intruder.attacks(),
        flows: intruder.flows_done(),
    }
}

/// The program model for the compile-time analysis (T1/census).
pub fn partition_plan() -> partstm_analysis::ProgramModel {
    use partstm_analysis::{AccessKind, ModelBuilder};
    let mut b = ModelBuilder::new("intruder");
    let pkt_q = b.alloc("packet_queue_nodes", "QueueNode");
    let frag_map = b.alloc("fragment_map_nodes", "HashNode");
    let flows = b.alloc("flow_assemblies", "FlowAsm");
    let dec_q = b.alloc("decoded_queue_nodes", "QueueNode");
    b.access("packet_pop", AccessKind::ReadWrite, &[pkt_q]);
    b.access("fragment_insert", AccessKind::ReadWrite, &[frag_map, flows]);
    // Completing a flow touches the map/flow in one site and the decoded
    // queue in another (the queue push is its own instrumented accesses);
    // likewise detection reads queue nodes and flow words at distinct
    // sites. Keeping the sites separate is what lets the analysis give the
    // pipeline three partitions.
    b.access(
        "flow_complete_unlink",
        AccessKind::ReadWrite,
        &[frag_map, flows],
    );
    b.access("flow_complete_enqueue", AccessKind::ReadWrite, &[dec_q]);
    b.access("detect_dequeue", AccessKind::ReadWrite, &[dec_q]);
    b.access("detect_scan_payload", AccessKind::ReadWrite, &[flows]);
    b.build().expect("intruder model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `collections` names both queues, the reassembly map and the flow
    /// arena.
    #[test]
    fn collections_cover_every_stage() {
        let stm = Stm::new();
        let cfg = IntruderConfig::scaled(50);
        let (packets, _) = generate_stream(&cfg);
        let pipeline = Intruder::new(&stm, IntruderParts::partitioned(&stm, false), &packets);
        let colls = pipeline.collections();
        for c in &colls {
            let _ = c.home_partition();
        }
        assert_eq!(colls.len(), 4, "packet queue, map, decoded queue, arena");
    }

    #[test]
    fn stream_generation_is_complete_and_deterministic() {
        let cfg = IntruderConfig::scaled(100);
        let (p1, a1) = generate_stream(&cfg);
        let (p2, a2) = generate_stream(&cfg);
        assert_eq!(a1, a2);
        assert_eq!(p1.len(), p2.len());
        // Every flow's fragments are all present exactly once.
        let mut seen = std::collections::HashMap::<u64, u64>::new();
        for p in &p1 {
            let mask = seen.entry(p.flow).or_default();
            let bit = 1u64 << p.index;
            assert_eq!(*mask & bit, 0, "duplicate fragment");
            *mask |= bit;
        }
        assert_eq!(seen.len(), 100);
        for p in &p1 {
            assert_eq!(
                seen[&p.flow],
                (1u64 << p.total) - 1,
                "flow {} incomplete",
                p.flow
            );
        }
    }

    fn run_config(threads: usize, single: bool) {
        let cfg = IntruderConfig::scaled(300);
        let (packets, attacks) = generate_stream(&cfg);
        let stm = Stm::new();
        let parts = if single {
            IntruderParts::single(&stm, false)
        } else {
            IntruderParts::partitioned(&stm, false)
        };
        let intruder = Intruder::new(&stm, parts, &packets);
        let res = run_intruder(&stm, &intruder, &packets, cfg.flows, threads);
        assert_eq!(res.flows, cfg.flows as u64, "every flow processed");
        assert_eq!(res.attacks, attacks as u64, "every attack detected");
    }

    #[test]
    fn sequential_pipeline_detects_all_attacks() {
        run_config(1, false);
    }

    #[test]
    fn parallel_pipeline_detects_all_attacks() {
        run_config(4, false);
    }

    #[test]
    fn single_partition_pipeline_detects_all_attacks() {
        run_config(4, true);
    }

    #[test]
    fn analysis_separates_pipeline_stages() {
        use partstm_analysis::{partition, Strategy};
        let model = partition_plan();
        let plan = partition(&model, Strategy::MayTouch).unwrap();
        // packets | fragments+flows | decoded: the three pipeline stages.
        assert_eq!(plan.partition_count(), 3);
    }
}
