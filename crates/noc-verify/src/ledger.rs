//! Global flit ledger: conservation and no-duplication accounting.
//!
//! Tracks the lifecycle of every flit the network accepts: injected →
//! in-flight (at some router or on a link) → ejected exactly once, or
//! dropped with a recorded reason (SCARAB). Any flit observed outside this
//! lifecycle — ejected twice, arriving without having been injected,
//! ejected at the wrong node — is a violation.

use crate::violation::{FlitId, Violation, ViolationKind};
use noc_core::flit::Flit;
use noc_core::hash::{FxHashMap, FxHashSet};
use noc_core::types::{Cycle, NodeId};

/// Where a live flit was last seen.
#[derive(Debug, Clone, Copy)]
pub struct FlitPos {
    /// Router where the flit was last observed (inside it or leaving it).
    pub node: NodeId,
    /// Cycle of the last observation.
    pub since: Cycle,
    pub src: NodeId,
    pub dst: NodeId,
}

/// Ledger of every flit the network has accepted.
///
/// Resilient runs extend the base lifecycle: a flit may legally vanish in
/// transit (dead link, transient drop) or bounce off the ejection-port CRC,
/// provided the source NI retransmits it to delivery or counts it lost. A
/// spurious retransmission timeout can put *two* live instances of one flit
/// identity into the network at once, so live bookkeeping counts instances;
/// only sanctioned re-injections (announced via
/// [`FlitLedger::on_retransmit`]) may create the second instance.
#[derive(Debug, Default)]
pub struct FlitLedger {
    /// Injected but not yet ejected or dropped (position of one live
    /// instance; see `extra` for additional sanctioned instances).
    in_flight: FxHashMap<FlitId, FlitPos>,
    /// Additional live instances beyond the one tracked in `in_flight`
    /// (spurious-timeout retransmissions racing the original).
    extra: FxHashMap<FlitId, u32>,
    /// Announced retransmissions whose re-injection has not yet been seen;
    /// consumes one credit per sanctioned injection.
    sanctioned: FxHashMap<FlitId, u32>,
    /// Vanished in transit or CRC-bounced: must end the run delivered or
    /// counted lost, else it leaked.
    pending_recovery: FxHashSet<FlitId>,
    /// Counted lost by the source NI after exhausting the retry budget.
    lost: FxHashSet<FlitId>,
    /// Dropped (SCARAB) and awaiting retransmission; a retransmitted copy
    /// re-enters `in_flight` via a fresh injection observation.
    dropped: FxHashSet<FlitId>,
    /// Delivered at their destination. A flit may be dropped and
    /// retransmitted many times but delivered only once.
    ejected: FxHashSet<FlitId>,
    injected_total: u64,
    ejected_total: u64,
    dropped_total: u64,
    transit_lost_total: u64,
    crc_bounced_total: u64,
    lost_total: u64,
}

fn id(f: &Flit) -> FlitId {
    (f.packet.0, f.flit_index)
}

impl FlitLedger {
    pub fn new() -> FlitLedger {
        FlitLedger::default()
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    pub fn counts(&self) -> (u64, u64, u64) {
        (self.injected_total, self.ejected_total, self.dropped_total)
    }

    /// Resilience totals: `(transit-lost, crc-bounced, counted-lost)`.
    pub fn recovery_counts(&self) -> (u64, u64, u64) {
        (
            self.transit_lost_total,
            self.crc_bounced_total,
            self.lost_total,
        )
    }

    /// Whether the recovery protocol resolved this flit identity: it was
    /// eventually delivered, or formally counted lost.
    pub fn resolved(&self, fid: FlitId) -> bool {
        self.ejected.contains(&fid) || self.lost.contains(&fid)
    }

    /// Iterate over live flits (for stuck-flit reports and heatmaps).
    pub fn live(&self) -> impl Iterator<Item = (&FlitId, &FlitPos)> {
        self.in_flight.iter()
    }

    /// Remove one live instance of `fid`; returns `false` if none was live.
    fn remove_instance(&mut self, fid: FlitId) -> bool {
        if let Some(n) = self.extra.get_mut(&fid) {
            *n -= 1;
            if *n == 0 {
                self.extra.remove(&fid);
            }
            return true;
        }
        self.in_flight.remove(&fid).is_some()
    }

    /// A flit left the injection queue at `node`.
    pub fn on_inject(&mut self, f: &Flit, node: NodeId, cycle: Cycle, out: &mut Vec<Violation>) {
        let fid = id(f);
        self.injected_total += 1;
        // A retransmission of a dropped flit is a legal re-injection.
        self.dropped.remove(&fid);
        // A sanctioned NI retransmission may legally coexist with a live
        // instance (spurious timeout) or follow a delivery (lost ACK).
        if let Some(n) = self.sanctioned.get_mut(&fid) {
            *n -= 1;
            if *n == 0 {
                self.sanctioned.remove(&fid);
            }
            match self.in_flight.entry(fid) {
                std::collections::hash_map::Entry::Occupied(_) => {
                    *self.extra.entry(fid).or_insert(0) += 1;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(FlitPos {
                        node,
                        since: cycle,
                        src: f.src,
                        dst: f.dst,
                    });
                }
            }
            return;
        }
        if self.ejected.contains(&fid) {
            out.push(Violation {
                kind: ViolationKind::Duplicate,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: "flit re-injected after delivery".into(),
            });
            return;
        }
        if let Some(prev) = self.in_flight.insert(
            fid,
            FlitPos {
                node,
                since: cycle,
                src: f.src,
                dst: f.dst,
            },
        ) {
            out.push(Violation {
                kind: ViolationKind::Duplicate,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: format!(
                    "flit injected while already in flight (last seen at {} cycle {})",
                    prev.node, prev.since
                ),
            });
        }
    }

    /// A flit arrived on a link input of `node`: refresh its position.
    pub fn on_arrival(&mut self, f: &Flit, node: NodeId, cycle: Cycle, out: &mut Vec<Violation>) {
        let fid = id(f);
        match self.in_flight.get_mut(&fid) {
            Some(pos) => {
                pos.node = node;
                pos.since = cycle;
            }
            None => {
                let detail = if self.ejected.contains(&fid) {
                    "delivered flit re-appeared on a link"
                } else if self.dropped.contains(&fid) {
                    "dropped flit re-appeared on a link without retransmission"
                } else {
                    "flit on a link was never injected"
                };
                out.push(Violation {
                    kind: ViolationKind::Phantom,
                    cycle,
                    router: Some(node),
                    flits: vec![fid],
                    detail: detail.into(),
                });
            }
        }
    }

    /// A flit was ejected to the PE at `node`. Sequenced flits failing
    /// their CRC are *bounces*, not deliveries: the instance leaves the
    /// network but the identity must still be recovered or counted lost.
    pub fn on_eject(&mut self, f: &Flit, node: NodeId, cycle: Cycle, out: &mut Vec<Violation>) {
        let fid = id(f);
        if f.seq != 0 && !f.crc_ok() {
            self.crc_bounced_total += 1;
            if !self.remove_instance(fid) {
                out.push(Violation {
                    kind: ViolationKind::Phantom,
                    cycle,
                    router: Some(node),
                    flits: vec![fid],
                    detail: "corrupt flit at the ejection port was not in flight".into(),
                });
            }
            self.pending_recovery.insert(fid);
            return;
        }
        self.ejected_total += 1;
        if f.dst != node {
            out.push(Violation {
                kind: ViolationKind::WrongEjectNode,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: format!("ejected at {} but destined for {}", node, f.dst),
            });
        }
        if !self.remove_instance(fid) {
            let detail = if self.ejected.contains(&fid) {
                "flit ejected twice"
            } else {
                "ejected flit was never injected"
            };
            out.push(Violation {
                kind: if self.ejected.contains(&fid) {
                    ViolationKind::Duplicate
                } else {
                    ViolationKind::Phantom
                },
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: detail.into(),
            });
        }
        self.pending_recovery.remove(&fid);
        if !self.ejected.insert(fid) {
            // Second insert: either already reported above, or a sanctioned
            // duplicate delivery (the engine suppresses it at reassembly).
        }
    }

    /// A flit was dropped at `node` (legal only for dropping designs; the
    /// oracle checks the profile before calling this).
    pub fn on_drop(&mut self, f: &Flit, node: NodeId, cycle: Cycle, out: &mut Vec<Violation>) {
        let fid = id(f);
        self.dropped_total += 1;
        if !self.remove_instance(fid) && !self.dropped.contains(&fid) {
            out.push(Violation {
                kind: ViolationKind::Phantom,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: "dropped flit was not in flight".into(),
            });
        }
        self.dropped.insert(fid);
    }

    /// A flit instance vanished in transit (transient drop strike or a dead
    /// link). Legal, but the identity now awaits recovery: it must end the
    /// run delivered or counted lost.
    pub fn on_transit_loss(
        &mut self,
        f: &Flit,
        node: NodeId,
        cycle: Cycle,
        out: &mut Vec<Violation>,
    ) {
        let fid = id(f);
        self.transit_lost_total += 1;
        if !self.remove_instance(fid) {
            out.push(Violation {
                kind: ViolationKind::Phantom,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: "transit-lost flit was not in flight".into(),
            });
        }
        self.pending_recovery.insert(fid);
    }

    /// The source NI announced a retransmission of `f`: its next injection
    /// observation is sanctioned (not a duplicate).
    pub fn on_retransmit(&mut self, f: &Flit) {
        *self.sanctioned.entry(id(f)).or_insert(0) += 1;
    }

    /// The source NI exhausted the retry budget for `f`: the identity is
    /// formally lost, which resolves its pending recovery.
    pub fn on_lost(&mut self, f: &Flit) {
        self.lost_total += 1;
        self.lost.insert(id(f));
    }

    /// End-of-run check: nothing may still be in flight once the network
    /// reports quiescent. Dropped flits whose packet was never delivered
    /// count as leaks too (the engine retransmits until delivery).
    pub fn finalize(&self, cycle: Cycle, out: &mut Vec<Violation>) {
        if !self.in_flight.is_empty() {
            let mut flits: Vec<FlitId> = self.in_flight.keys().copied().collect();
            flits.sort_unstable();
            out.push(Violation {
                kind: ViolationKind::Leak,
                cycle,
                router: None,
                flits,
                detail: format!(
                    "{} flit(s) still in flight after drain",
                    self.in_flight.len()
                ),
            });
        }
        let undelivered: Vec<FlitId> = self
            .dropped
            .iter()
            .filter(|fid| !self.ejected.contains(*fid) && !self.lost.contains(*fid))
            .copied()
            .collect();
        if !undelivered.is_empty() {
            let mut flits = undelivered;
            flits.sort_unstable();
            out.push(Violation {
                kind: ViolationKind::Leak,
                cycle,
                router: None,
                flits: flits.clone(),
                detail: format!(
                    "{} dropped flit(s) never retransmitted to delivery",
                    flits.len()
                ),
            });
        }
        // Every flit removed in transit (or bounced by the CRC) must have
        // been recovered to delivery or formally counted lost.
        let unrecovered: Vec<FlitId> = self
            .pending_recovery
            .iter()
            .filter(|fid| !self.resolved(**fid))
            .copied()
            .collect();
        if !unrecovered.is_empty() {
            let mut flits = unrecovered;
            flits.sort_unstable();
            out.push(Violation {
                kind: ViolationKind::Leak,
                cycle,
                router: None,
                flits: flits.clone(),
                detail: format!(
                    "{} flit(s) removed in transit were neither recovered nor counted lost",
                    flits.len()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::PacketId;

    fn flit(pid: u64, src: u16, dst: u16) -> Flit {
        Flit::synthetic(PacketId(pid), NodeId(src), NodeId(dst), 0)
    }

    #[test]
    fn normal_lifecycle_is_clean() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = flit(1, 0, 3);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_arrival(&f, NodeId(1), 3, &mut v);
        led.on_arrival(&f, NodeId(3), 5, &mut v);
        led.on_eject(&f, NodeId(3), 5, &mut v);
        led.finalize(10, &mut v);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(led.counts(), (1, 1, 0));
    }

    #[test]
    fn double_ejection_is_duplicate() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = flit(1, 0, 3);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_eject(&f, NodeId(3), 5, &mut v);
        led.on_eject(&f, NodeId(3), 6, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Duplicate);
    }

    #[test]
    fn phantom_arrival_is_flagged() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        led.on_arrival(&flit(9, 0, 3), NodeId(1), 4, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Phantom);
    }

    #[test]
    fn wrong_destination_ejection_is_flagged() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = flit(1, 0, 3);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_eject(&f, NodeId(2), 5, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::WrongEjectNode);
    }

    #[test]
    fn drop_and_retransmit_is_legal_but_leak_without_delivery() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = flit(1, 0, 3);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_drop(&f, NodeId(1), 3, &mut v);
        assert!(v.is_empty());
        // Never retransmitted: finalize reports a leak.
        led.finalize(100, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Leak);
        // Retransmit + deliver clears it.
        v.clear();
        led.on_inject(&f, NodeId(0), 10, &mut v);
        led.on_eject(&f, NodeId(3), 14, &mut v);
        led.finalize(100, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    fn sequenced_flit(pid: u64, src: u16, dst: u16, seq: u32) -> Flit {
        let mut f = flit(pid, src, dst);
        f.set_seq(seq);
        f
    }

    #[test]
    fn transit_loss_recovered_by_retransmission_is_clean() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = sequenced_flit(1, 0, 3, 1);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_transit_loss(&f, NodeId(1), 3, &mut v);
        assert!(v.is_empty(), "{v:?}");
        led.on_retransmit(&f);
        led.on_inject(&f, NodeId(0), 140, &mut v);
        led.on_eject(&f, NodeId(3), 150, &mut v);
        led.finalize(200, &mut v);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(led.recovery_counts(), (1, 0, 0));
    }

    // Canary for the "NI acks the wrong sequence number" mutation: the real
    // flit's pending entry disappears, so it is never retransmitted after a
    // transit loss and never counted lost — the new oracle must flag it.
    #[test]
    fn transit_loss_without_recovery_or_loss_accounting_is_a_leak() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = sequenced_flit(1, 0, 3, 1);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_transit_loss(&f, NodeId(1), 3, &mut v);
        led.finalize(10_000, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Leak);
        assert!(v[0].detail.contains("neither recovered nor counted lost"));
    }

    #[test]
    fn give_up_resolves_pending_recovery() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = sequenced_flit(1, 0, 3, 1);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_transit_loss(&f, NodeId(1), 3, &mut v);
        led.on_lost(&f);
        led.finalize(10_000, &mut v);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(led.recovery_counts(), (1, 0, 1));
        assert!(led.resolved((1, 0)));
    }

    #[test]
    fn crc_bounce_is_not_a_delivery_and_requires_recovery() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let clean = sequenced_flit(1, 0, 3, 1);
        let mut corrupt = clean;
        corrupt.corrupt_payload(0b100);
        led.on_inject(&clean, NodeId(0), 1, &mut v);
        led.on_eject(&corrupt, NodeId(3), 9, &mut v);
        assert!(v.is_empty(), "bounce is legal: {v:?}");
        assert_eq!(led.counts().1, 0, "a bounce is not an ejection");
        led.finalize(10_000, &mut v);
        assert_eq!(v.len(), 1, "unrecovered bounce leaks");
        assert_eq!(v[0].kind, ViolationKind::Leak);
        // Retransmit + clean delivery clears it.
        v.clear();
        led.on_retransmit(&clean);
        led.on_inject(&clean, NodeId(0), 200, &mut v);
        led.on_eject(&clean, NodeId(3), 210, &mut v);
        led.finalize(10_000, &mut v);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(led.recovery_counts(), (0, 1, 0));
    }

    #[test]
    fn sanctioned_retransmit_allows_two_live_instances() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = sequenced_flit(1, 0, 3, 1);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        // Spurious timeout: a second instance enters while the first lives.
        led.on_retransmit(&f);
        led.on_inject(&f, NodeId(0), 150, &mut v);
        assert!(v.is_empty(), "sanctioned duplicate injection: {v:?}");
        // Both instances arrive; the engine suppresses the second delivery.
        led.on_eject(&f, NodeId(3), 160, &mut v);
        led.on_eject(&f, NodeId(3), 170, &mut v);
        assert!(v.is_empty(), "sanctioned duplicate delivery: {v:?}");
        led.finalize(200, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsanctioned_reinjection_is_still_a_duplicate() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let f = sequenced_flit(1, 0, 3, 1);
        led.on_inject(&f, NodeId(0), 1, &mut v);
        led.on_inject(&f, NodeId(0), 2, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Duplicate);
    }

    #[test]
    fn unflushed_flit_is_a_leak() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        led.on_inject(&flit(1, 0, 3), NodeId(0), 1, &mut v);
        led.finalize(50, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Leak);
        assert_eq!(v[0].flits, vec![(1, 0)]);
    }
}
