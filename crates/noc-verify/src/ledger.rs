//! Global flit ledger: conservation and no-duplication accounting.
//!
//! Tracks the lifecycle of every flit the network accepts: injected →
//! in-flight (at some router or on a link) → ejected exactly once, or
//! dropped with a recorded reason (SCARAB). Any flit observed outside this
//! lifecycle — ejected twice, arriving without having been injected,
//! ejected at the wrong node — is a violation.
//!
//! # What it keeps
//!
//! Memory follows what is in flight, not what was ever delivered. The
//! engine publishes a *retirement floor* each cycle
//! ([`CycleSample::retire_floor`](noc_sim::noc_trace::CycleSample)): the
//! smallest packet id any source may still inject, first time or again.
//! Delivered flags are kept per packet (one `u64` mask, a bit per flit)
//! only from the floor up; [`FlitLedger::retire_below`] drops the rest. A
//! flit of a retired packet can legally be only what it already was —
//! live in the network, dropped and on its way back (SCARAB returns the
//! flit itself, so its re-injection stays legal), or gone — so one that
//! shows up again is reported with the kind a delivered flit gets: a
//! duplicate on injection or ejection, a phantom on a link. The few delivered ids that recovery
//! bookkeeping still names when their packet retires (an instance still
//! live, a pending recovery, a drop, a corruption taint) move to a small
//! side set, so end-of-run checks answer exactly as if nothing retired.
//! The side set also takes a delivery too far past the masks to index
//! (a phantom with an absurd id, a sparse replay), so no id can make the
//! masks grow without bound.

use crate::violation::{FlitId, Violation, ViolationKind};
use noc_core::flit::Flit;
use noc_core::hash::{FxHashMap, FxHashSet};
use noc_core::types::{Cycle, NodeId};
use std::collections::VecDeque;

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
    /// Whether any retransmission was ever announced: only then can a
    /// delivered flit still have a live instance.
    any_sanctioned: bool,
    /// Vanished in transit or CRC-bounced: must end the run delivered or
    /// counted lost, else it leaked.
    pending_recovery: FxHashSet<FlitId>,
    /// Counted lost by the source NI after exhausting the retry budget.
    lost: FxHashSet<FlitId>,
    /// Dropped (SCARAB) and awaiting retransmission; a retransmitted copy
    /// re-enters `in_flight` via a fresh injection observation.
    dropped: FxHashSet<FlitId>,
    /// Outstanding corrupted instances per flit identity (taint): +1 per
    /// transit corruption, resolved by a CRC reject or a transit loss.
    tainted: FxHashMap<FlitId, u32>,
    /// Delivered flags of packets `retired..retired + delivered.len()`,
    /// one bit per flit index. A flit may be dropped and retransmitted many
    /// times but delivered only once.
    delivered: VecDeque<u64>,
    /// Every packet id below this has retired (see the module docs).
    retired: u64,
    /// Delivered flits kept one by one: those of retired packets that the
    /// sets above still name, and those too far past the masks.
    delivered_loose: FxHashSet<FlitId>,
    injected_total: u64,
    ejected_total: u64,
    dropped_total: u64,
    transit_lost_total: u64,
    crc_bounced_total: u64,
    lost_total: u64,
}

/// How far past the end of the masks a delivery may extend them; one
/// further out is kept loose.
const MAX_MASK_GAP: u64 = 1 << 16;

fn id(f: &Flit) -> FlitId {
    (f.packet.0, f.flit_index)
}

/// The flit's bit in its packet's delivered mask, if it has one
/// (`Reassembler::accept` asserts `packet_len <= 64`; a stray index past
/// that is kept loose).
fn bit(fid: FlitId) -> Option<u64> {
    1u64.checked_shl(u32::from(fid.1))
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

    /// Delivery records held: one per packet at or above the floor, plus
    /// the delivered ids of retired packets still named elsewhere. This is
    /// what a long run must not grow.
    pub fn retained_ids(&self) -> usize {
        self.delivered.len() + self.delivered_loose.len()
    }

    fn is_retired(&self, fid: FlitId) -> bool {
        fid.0 < self.retired
    }

    /// Whether `fid` was delivered. Exact at or above the floor; below it,
    /// exact for every id the recovery bookkeeping names.
    fn was_delivered(&self, fid: FlitId) -> bool {
        if !self.delivered_loose.is_empty() && self.delivered_loose.contains(&fid) {
            return true;
        }
        !self.is_retired(fid)
            && self
                .delivered
                .get((fid.0 - self.retired) as usize)
                .zip(bit(fid))
                .is_some_and(|(m, b)| m & b != 0)
    }

    /// Record the delivery of `fid`.
    fn mark_delivered(&mut self, fid: FlitId) {
        if self.is_retired(fid) {
            if self.still_named(fid) {
                self.delivered_loose.insert(fid);
            }
            return;
        }
        let i = fid.0 - self.retired;
        let len = self.delivered.len() as u64;
        let Some(b) = bit(fid).filter(|_| i < len + MAX_MASK_GAP) else {
            self.delivered_loose.insert(fid);
            return;
        };
        if i >= len {
            self.delivered.resize(i as usize + 1, 0);
        }
        self.delivered[i as usize] |= b;
    }

    /// Whether anything but the delivered flags still names `fid`: a live
    /// instance, a pending recovery, a drop or a corruption taint. Each
    /// set is asked only when it can hold anything.
    fn still_named(&self, fid: FlitId) -> bool {
        (self.any_sanctioned && self.in_flight.contains_key(&fid))
            || (!self.pending_recovery.is_empty() && self.pending_recovery.contains(&fid))
            || (!self.dropped.is_empty() && self.dropped.contains(&fid))
            || (!self.tainted.is_empty() && self.tainted.contains_key(&fid))
    }

    /// No source can inject a packet below `floor` any more, first time or
    /// again: drop the delivered flags below it. The delivered flits the
    /// recovery bookkeeping still names are kept one by one.
    pub fn retire_below(&mut self, floor: u64) {
        while self.retired < floor {
            let Some(mask) = self.delivered.pop_front() else {
                self.retired = floor;
                break;
            };
            let packet = self.retired;
            self.retired += 1;
            let mut rest = mask;
            while rest != 0 {
                let fid = (packet, rest.trailing_zeros() as u8);
                rest &= rest - 1;
                if self.still_named(fid) {
                    self.delivered_loose.insert(fid);
                }
            }
        }
    }

    /// Whether the recovery protocol resolved this flit identity: it was
    /// eventually delivered, or formally counted lost.
    pub fn resolved(&self, fid: FlitId) -> bool {
        self.was_delivered(fid) || self.lost.contains(&fid)
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
        // A retransmission of a dropped flit is a legal re-injection, also
        // of a retired packet: a SCARAB drop sends back a flit the floor
        // had already passed.
        let was_dropped = self.dropped.remove(&fid);
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
        let delivered = self.was_delivered(fid);
        if delivered || (self.is_retired(fid) && !was_dropped) {
            out.push(Violation {
                kind: ViolationKind::Duplicate,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: if delivered {
                    "flit re-injected after delivery".into()
                } else {
                    "flit re-injected after no source held its packet".into()
                },
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
                let detail = if self.was_delivered(fid) {
                    "delivered flit re-appeared on a link"
                } else if self.dropped.contains(&fid) {
                    "dropped flit re-appeared on a link without retransmission"
                } else if self.is_retired(fid) {
                    "flit re-appeared on a link after no source held its packet"
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
            let (kind, detail) = if self.was_delivered(fid) {
                (ViolationKind::Duplicate, "flit ejected twice")
            } else if self.is_retired(fid) {
                (
                    ViolationKind::Duplicate,
                    "flit ejected again after no source held its packet",
                )
            } else {
                (ViolationKind::Phantom, "ejected flit was never injected")
            };
            out.push(Violation {
                kind,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: detail.into(),
            });
        }
        self.pending_recovery.remove(&fid);
        // A second delivery is either reported above or a sanctioned
        // duplicate (the engine suppresses it at reassembly).
        self.mark_delivered(fid);
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
        // The vanished instance may have been a corrupted one; the loss
        // resolves one taint (recovery is tracked either way).
        self.untaint(fid);
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
        self.any_sanctioned = true;
        *self.sanctioned.entry(id(f)).or_insert(0) += 1;
    }

    /// An instance of `f` was corrupted in transit: it must end detected
    /// (a CRC reject or a transit loss) or its identity resolved.
    pub fn on_transit_corrupt(&mut self, f: &Flit) {
        *self.tainted.entry(id(f)).or_insert(0) += 1;
    }

    /// The engine rejected a corrupt instance of `f` at the ejection port:
    /// that detects one corruption.
    pub fn on_crc_reject(&mut self, f: &Flit) {
        self.untaint(id(f));
    }

    fn untaint(&mut self, fid: FlitId) {
        if let Some(n) = self.tainted.get_mut(&fid) {
            *n -= 1;
            if *n == 0 {
                self.tainted.remove(&fid);
            }
        }
    }

    /// Outstanding corruptions of `fid` (0 when none).
    #[cfg(test)]
    pub(crate) fn taint(&self, fid: FlitId) -> u32 {
        self.tainted.get(&fid).copied().unwrap_or(0)
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
            .filter(|fid| !self.resolved(**fid))
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

    /// Flits with a corruption that was neither detected nor resolved
    /// (delivered as a clean copy, or counted lost), sorted.
    pub fn escaped_corruptions(&self) -> Vec<FlitId> {
        let mut escaped: Vec<FlitId> = self
            .tainted
            .keys()
            .filter(|&&fid| !self.resolved(fid))
            .copied()
            .collect();
        escaped.sort_unstable();
        escaped
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

    /// One ledger input; `Floor` is what the engine publishes at a cycle
    /// end.
    #[derive(Clone, Copy)]
    enum Op {
        Inject(Flit, u16, Cycle),
        Arrive(Flit, u16, Cycle),
        Eject(Flit, u16, Cycle),
        Drop(Flit, u16, Cycle),
        TransitLoss(Flit, u16, Cycle),
        Retransmit(Flit),
        Lost(Flit),
        Floor(u64),
    }

    type Seen = Vec<(ViolationKind, Cycle, Option<NodeId>, Vec<FlitId>)>;

    /// Replay `ops` and finalize. `retire` false publishes floor 0 every
    /// cycle, which retires nothing: the ledger then keeps every delivered
    /// flag, as it did before retirement existed.
    fn replay(ops: &[Op], retire: bool) -> (Seen, FlitLedger) {
        use Op::*;
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        let mut last = 0;
        for &op in ops {
            match op {
                Inject(f, n, c) => led.on_inject(&f, NodeId(n), c, &mut v),
                Arrive(f, n, c) => led.on_arrival(&f, NodeId(n), c, &mut v),
                Eject(f, n, c) => led.on_eject(&f, NodeId(n), c, &mut v),
                Drop(f, n, c) => led.on_drop(&f, NodeId(n), c, &mut v),
                TransitLoss(f, n, c) => led.on_transit_loss(&f, NodeId(n), c, &mut v),
                Retransmit(f) => led.on_retransmit(&f),
                Lost(f) => led.on_lost(&f),
                Floor(floor) => led.retire_below(if retire { floor } else { 0 }),
            }
            if let Inject(_, _, c)
            | Arrive(_, _, c)
            | Eject(_, _, c)
            | Drop(_, _, c)
            | TransitLoss(_, _, c) = op
            {
                last = c;
            }
        }
        led.finalize(last + 100, &mut v);
        let seen = v
            .into_iter()
            .map(|v| (v.kind, v.cycle, v.router, v.flits))
            .collect();
        (seen, led)
    }

    #[test]
    fn retirement_reports_what_full_retention_reports() {
        use Op::*;
        use ViolationKind::{Duplicate, Phantom};
        let f = flit(1, 0, 3);
        let s = sequenced_flit(1, 0, 3, 1);
        // Each case publishes the highest floor the engine could: packet 1
        // retires as soon as no source holds it.
        let cases: Vec<(&str, Vec<Op>, Seen)> = vec![
            (
                "eject twice in one step",
                vec![Inject(f, 0, 1), Floor(2), Eject(f, 3, 5), Eject(f, 3, 5)],
                vec![(Duplicate, 5, Some(NodeId(3)), vec![(1, 0)])],
            ),
            (
                "eject twice 10^4 cycles apart",
                vec![
                    Inject(f, 0, 1),
                    Floor(2),
                    Eject(f, 3, 5),
                    Eject(f, 3, 10_005),
                ],
                vec![(Duplicate, 10_005, Some(NodeId(3)), vec![(1, 0)])],
            ),
            (
                "re-inject after delivery",
                vec![Inject(f, 0, 1), Floor(2), Eject(f, 3, 5), Inject(f, 0, 9)],
                vec![(Duplicate, 9, Some(NodeId(0)), vec![(1, 0)])],
            ),
            (
                "arrive after delivery",
                vec![Inject(f, 0, 1), Floor(2), Eject(f, 3, 5), Arrive(f, 2, 9)],
                vec![(Phantom, 9, Some(NodeId(2)), vec![(1, 0)])],
            ),
            (
                // The floor passed the flit while it was in flight; SCARAB
                // sends the flit itself back, so its re-injection is legal.
                "SCARAB drop, retransmit, deliver",
                vec![
                    Inject(f, 0, 1),
                    Floor(2),
                    Drop(f, 1, 3),
                    Inject(f, 0, 10),
                    Arrive(f, 3, 12),
                    Eject(f, 3, 14),
                    Floor(2),
                ],
                vec![],
            ),
            (
                // The NI holds the flit until its ACK: the floor stays at 1.
                "sanctioned retransmission after delivery (lost ACK)",
                vec![
                    Inject(s, 0, 1),
                    Floor(1),
                    Eject(s, 3, 5),
                    Floor(1),
                    Retransmit(s),
                    Inject(s, 0, 140),
                    Floor(1),
                    Eject(s, 3, 150),
                    Floor(2),
                ],
                vec![],
            ),
            (
                // A spurious timeout races the original; the ACK of the
                // first delivery releases the window while the copy is
                // still out, and the copy is then lost in transit.
                "spurious retransmission outlives its packet",
                vec![
                    Inject(s, 0, 1),
                    Floor(1),
                    Retransmit(s),
                    Inject(s, 0, 130),
                    Eject(s, 3, 135),
                    Floor(2),
                    TransitLoss(s, 2, 140),
                    Floor(2),
                ],
                vec![],
            ),
            (
                "counted lost, then delivered late",
                vec![
                    Inject(s, 0, 1),
                    Floor(1),
                    Lost(s),
                    Floor(2),
                    Eject(s, 3, 900),
                ],
                vec![],
            ),
            (
                "dropped and never retransmitted",
                vec![Inject(f, 0, 1), Floor(2), Drop(f, 1, 3), Floor(2)],
                vec![(ViolationKind::Leak, 103, None, vec![(1, 0)])],
            ),
        ];
        for (name, ops, expected) in cases {
            let (kept, _) = replay(&ops, false);
            let (retired, led) = replay(&ops, true);
            assert_eq!(kept, expected, "{name}: full retention");
            assert_eq!(retired, kept, "{name}: retirement changed the report");
            assert!(led.retained_ids() <= 1, "{name}: {}", led.retained_ids());
        }
    }

    #[test]
    fn retained_ids_follow_the_floor_not_the_run_length() {
        let mut led = FlitLedger::new();
        let mut v = Vec::new();
        for p in 0..10_000u64 {
            // Packet p is injected, its source lets go, and it is
            // delivered a few packets later.
            let f = flit(p, 0, 3);
            led.on_inject(&f, NodeId(0), p, &mut v);
            led.retire_below(p.saturating_sub(3));
            led.on_eject(&f, NodeId(3), p + 2, &mut v);
        }
        assert!(v.is_empty(), "{v:?}");
        assert!(led.retained_ids() <= 4, "{}", led.retained_ids());
        // A phantom with an absurd id is still a violation and costs one
        // loose id, not a mask per packet up to it.
        led.on_eject(&flit(u64::MAX, 0, 3), NodeId(3), 20_000, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Phantom);
        assert!(led.retained_ids() <= 5, "{}", led.retained_ids());
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
