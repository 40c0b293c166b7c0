//! Engine-side resilience machinery.
//!
//! [`ResilienceState`] is the network's runtime companion to a
//! [`ResiliencePlan`]: it applies link-fault onsets to the per-node dead-port
//! masks, arms transient strikes for the link phase, carries ACK/NACKs back
//! to the source NIs on a hop-delay control channel, runs the per-node
//! [`SenderNi`] retransmit buffers, and deduplicates deliveries at the
//! receiver by `(source, sequence)`.
//!
//! The [`Network`](crate::Network) owns an `Option<ResilienceState>`; `None`
//! keeps every hot-path site at one branch and the simulation bit-identical
//! to a build without this module.
//!
//! The state splits along the engine's two phases. The sequential cycle
//! prologue writes what is global: link-fault onsets, this cycle's armed
//! strikes, ACK/NACK delivery and retransmission timeouts. During the
//! tile sweep that global part is read-only, and what a node's step
//! mutates is owned by that node — its source NI and its receiver dedup
//! set (a `(source, sequence)` pair only ever ejects at its one
//! destination) — so tiles never share a write. ACK/NACK *sends* buffer
//! per tile and reach [`ResilienceState::acks`] in the commit phase.

use crate::tiles::ResGrid;
use noc_core::hash::FxHashSet;
use noc_core::types::{Cycle, Direction, NodeId, NUM_LINK_PORTS};
use noc_resilience::{LinkFault, ResiliencePlan, SenderNi, TransientEngine, TransientEvent};
use noc_topology::link::TimedChannel;
use noc_topology::Mesh;

/// One ACK or NACK travelling back to a source NI on the dedicated
/// (assumed-reliable) control plane, one cycle per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckMsg {
    /// Source NI the message is addressed to.
    pub to: NodeId,
    /// Sequence number being confirmed or rejected.
    pub seq: u32,
    /// `true` for a NACK (CRC reject at the destination).
    pub nack: bool,
}

/// Runtime state of the resilience layer for one network.
pub struct ResilienceState {
    /// The plan being executed (kept for reporting).
    pub plan: ResiliencePlan,
    transients: Option<TransientEngine>,
    /// Per-node source NIs (sequence numbers + retransmit buffers).
    pub senders: Vec<SenderNi>,
    /// `delivered[dst]`: the `(src, seq)` pairs already delivered to the PE
    /// at `dst` — receiver-side dedup, kept where the flit ejects.
    delivered: Vec<FxHashSet<(u16, u32)>>,
    /// In-flight ACK/NACK messages.
    pub acks: TimedChannel<AckMsg>,
    /// Strikes armed for the current cycle, looked up by the link phase.
    strikes: Vec<TransientEvent>,
    /// Per-node dead *output* ports, grown as link-fault onsets pass.
    pub link_down: Vec<[bool; NUM_LINK_PORTS]>,
    /// Link faults sorted by onset; entries before `next_fault` are applied.
    faults_by_onset: Vec<LinkFault>,
    next_fault: usize,
}

impl ResilienceState {
    pub fn new(mesh: &Mesh, plan: ResiliencePlan) -> ResilienceState {
        let transients = plan
            .transient
            .as_ref()
            .and_then(|spec| TransientEngine::new(mesh, spec));
        let mut faults_by_onset = plan.link_faults.clone();
        faults_by_onset.sort_by_key(|f| (f.onset, f.node.0, f.dir.index()));
        ResilienceState {
            senders: vec![SenderNi::new(plan.retransmit); mesh.num_nodes()],
            transients,
            delivered: vec![FxHashSet::default(); mesh.num_nodes()],
            acks: TimedChannel::new(),
            strikes: Vec::new(),
            link_down: vec![[false; NUM_LINK_PORTS]; mesh.num_nodes()],
            faults_by_onset,
            next_fault: 0,
            plan,
        }
    }

    /// Apply every link fault whose onset has arrived by `t`, pushing each
    /// newly degraded node onto `changed` (the caller re-publishes the mask
    /// to that node's router).
    pub fn apply_onsets(&mut self, t: Cycle, changed: &mut Vec<NodeId>) {
        while let Some(f) = self.faults_by_onset.get(self.next_fault) {
            if f.onset > t {
                break;
            }
            self.link_down[f.node.index()][f.dir.index()] = true;
            if !changed.contains(&f.node) {
                changed.push(f.node);
            }
            self.next_fault += 1;
        }
    }

    /// Sample the transient process for cycle `t`; strikes stay armed until
    /// the next call. A strike hits at most one flit (one flit traverses a
    /// link per cycle); strikes on idle links dissipate harmlessly.
    pub fn arm_strikes(&mut self, t: Cycle) {
        self.strikes.clear();
        if let Some(e) = self.transients.as_mut() {
            e.events_for_cycle(t, &mut self.strikes);
        }
    }

    /// Whether the output link of `node` in direction `dir` is dead.
    pub fn link_dead(&self, node: NodeId, dir: Direction) -> bool {
        self.link_down[node.index()][dir.index()]
    }

    /// The tile sweep's view: per-node NIs and dedup sets as raw bases
    /// (each worker touches only its own tile's nodes), everything else
    /// as shared borrows.
    pub(crate) fn tile_view(&mut self) -> ResGrid<'_> {
        ResGrid {
            senders: self.senders.as_mut_ptr(),
            delivered: self.delivered.as_mut_ptr(),
            link_down: &self.link_down,
            strikes: &self.strikes,
        }
    }

    /// Whether the resilience layer itself has drained: no ACK/NACK in
    /// flight and no transmission awaiting confirmation anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.acks.is_empty() && self.senders.iter().all(|s| s.pending_count() == 0)
    }

    /// Outstanding transmissions across all source NIs (diagnostics).
    pub fn pending_transmissions(&self) -> usize {
        self.senders.iter().map(|s| s.pending_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_resilience::TransientSpec;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn plan_with_faults() -> ResiliencePlan {
        ResiliencePlan::none().with_link_faults(vec![
            LinkFault {
                node: NodeId(0),
                dir: Direction::East,
                onset: 10,
            },
            LinkFault {
                node: NodeId(5),
                dir: Direction::North,
                onset: 3,
            },
        ])
    }

    #[test]
    fn onsets_apply_in_order_and_once() {
        let m = mesh();
        let mut st = ResilienceState::new(&m, plan_with_faults());
        let mut changed = Vec::new();
        st.apply_onsets(2, &mut changed);
        assert!(changed.is_empty());
        st.apply_onsets(3, &mut changed);
        assert_eq!(changed, vec![NodeId(5)]);
        assert!(st.link_dead(NodeId(5), Direction::North));
        assert!(!st.link_dead(NodeId(0), Direction::East));
        changed.clear();
        st.apply_onsets(50, &mut changed);
        assert_eq!(changed, vec![NodeId(0)]);
        changed.clear();
        st.apply_onsets(60, &mut changed);
        assert!(changed.is_empty(), "onsets apply exactly once");
    }

    #[test]
    fn strikes_are_rearmed_every_cycle() {
        let m = mesh();
        let plan = ResiliencePlan::none().with_transients(TransientSpec::new(0.05, 7));
        let mut st = ResilienceState::new(&m, plan);
        let mut hit = 0;
        for t in 0..200 {
            st.arm_strikes(t);
            hit += st.strikes.len();
            assert!(st
                .strikes
                .iter()
                .all(|s| m.neighbor(s.node, s.dir).is_some()));
            // Arming replaces, never accumulates: a cycle's strikes are
            // gone once the next cycle is armed.
            st.arm_strikes(t);
            assert!(st.strikes.is_empty(), "cycle {t} armed twice");
        }
        assert!(hit > 0, "expected some strikes at this rate");
    }

    #[test]
    fn fresh_state_is_quiescent() {
        let m = mesh();
        let st = ResilienceState::new(&m, ResiliencePlan::none());
        assert!(st.is_quiescent());
        assert_eq!(st.pending_transmissions(), 0);
    }
}
