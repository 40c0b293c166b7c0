//! Source-NI retransmission protocol (ARQ).
//!
//! Every flit leaving a source NI gets a sequence number and a clean copy in
//! the retransmit buffer. Delivery is confirmed by an ACK from the
//! destination NI; a CRC reject triggers a NACK. A pending flit whose timer
//! expires is retransmitted with capped exponential backoff; after
//! `max_retries` retransmissions the NI gives up and the flit is *counted*
//! lost. ACK/NACK ride an assumed-reliable control plane (cf. SCARAB's
//! circuit-switched NACK network) with hop-distance delay.
//!
//! Timing semantics (pinned by the boundary tests below):
//! * A flit (re)injected at cycle `t` with `r` prior retransmissions gets
//!   `deadline = t + base_timeout << min(r, backoff_cap)`.
//! * The timeout fires the first time `now >= deadline` — i.e. *exactly at*
//!   the deadline cycle, not one later.
//! * While a retransmission waits in the source queue the timer is parked
//!   (state [`TxState::Queued`]); it re-arms at actual injection, so queueing
//!   delay never burns the retry budget.

use noc_core::flit::Flit;
use noc_core::types::Cycle;
use std::collections::BTreeMap;

/// Retransmission-protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Timeout for the first transmission attempt, in cycles. The default
    /// covers a worst-case 8x8 round trip (14 hops x 2-cycle links, both
    /// ways) plus queueing headroom.
    pub base_timeout: u64,
    /// Backoff exponent cap: attempt `r` times out after
    /// `base_timeout << min(r, backoff_cap)`.
    pub backoff_cap: u32,
    /// Retransmissions allowed before the flit is counted lost.
    pub max_retries: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            base_timeout: 128,
            backoff_cap: 3,
            max_retries: 4,
        }
    }
}

impl RetransmitConfig {
    /// Timeout applied to a (re)transmission that already suffered
    /// `retries` retransmissions.
    pub fn timeout_for(&self, retries: u32) -> u64 {
        self.base_timeout << retries.min(self.backoff_cap)
    }
}

/// Where a pending transmission currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    /// In the network; the timer fires at `deadline`.
    InFlight { deadline: Cycle },
    /// Waiting in the source queue for (re)injection; timer parked.
    Queued,
}

#[derive(Debug, Clone)]
struct PendingTx {
    /// Clean (CRC-sealed, uncorrupted) copy used for retransmissions.
    flit: Flit,
    retries: u32,
    state: TxState,
}

/// What the NI wants the engine to do after a timeout or NACK.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeoutAction {
    /// Re-enqueue this clean copy at the head of the source queue.
    Retransmit(Flit),
    /// Retry budget exhausted: count the flit as lost.
    GiveUp(Flit),
}

/// Per-node source NI: sequence numbering plus the retransmit buffer.
#[derive(Debug, Clone)]
pub struct SenderNi {
    cfg: RetransmitConfig,
    next_seq: u32,
    pending: BTreeMap<u32, PendingTx>,
}

impl SenderNi {
    pub fn new(cfg: RetransmitConfig) -> SenderNi {
        SenderNi {
            cfg,
            next_seq: 1,
            pending: BTreeMap::new(),
        }
    }

    /// Outstanding transmissions (blocks quiescence while non-zero).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The smallest packet id this NI may still retransmit.
    pub fn oldest_packet(&self) -> Option<u64> {
        self.pending.values().map(|p| p.flit.packet.0).min()
    }

    /// Assign the next sequence number to an unsequenced flit and store a
    /// clean copy, parked until [`SenderNi::on_injected`]. No-op for a flit
    /// that already has a sequence number (a queued retransmission).
    pub fn sequence(&mut self, flit: &mut Flit) {
        if flit.seq != 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1).max(1);
        flit.set_seq(seq);
        self.pending.insert(
            seq,
            PendingTx {
                flit: *flit,
                retries: 0,
                state: TxState::Queued,
            },
        );
    }

    /// The flit with `seq` actually entered the network at `now`: arm (or
    /// re-arm) its timer with the backoff for its current retry count.
    pub fn on_injected(&mut self, seq: u32, now: Cycle) {
        if let Some(p) = self.pending.get_mut(&seq) {
            p.state = TxState::InFlight {
                deadline: now + self.cfg.timeout_for(p.retries),
            };
        }
    }

    /// Delivery confirmed: drop the pending entry. Returns whether the
    /// sequence number was still outstanding.
    pub fn on_ack(&mut self, seq: u32) -> bool {
        self.pending.remove(&seq).is_some()
    }

    /// The destination rejected the flit (CRC failure): retransmit
    /// immediately, or give up if the budget is spent. Ignored while a
    /// retransmission is already queued (a NACK for an older attempt).
    pub fn on_nack(&mut self, seq: u32) -> Option<TimeoutAction> {
        match self.pending.get_mut(&seq) {
            Some(p) if matches!(p.state, TxState::InFlight { .. }) => {
                Some(Self::retry_or_give_up(&mut self.pending, seq, self.cfg))
            }
            _ => None,
        }
    }

    /// Collect every timeout that has expired by `now` (fires exactly at
    /// the deadline cycle), in sequence-number order.
    pub fn poll(&mut self, now: Cycle, out: &mut Vec<TimeoutAction>) {
        let expired: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p.state, TxState::InFlight { deadline } if now >= deadline))
            .map(|(&seq, _)| seq)
            .collect();
        for seq in expired {
            out.push(Self::retry_or_give_up(&mut self.pending, seq, self.cfg));
        }
    }

    fn retry_or_give_up(
        pending: &mut BTreeMap<u32, PendingTx>,
        seq: u32,
        cfg: RetransmitConfig,
    ) -> TimeoutAction {
        let p = pending.get_mut(&seq).expect("pending entry exists");
        if p.retries < cfg.max_retries {
            p.retries += 1;
            p.state = TxState::Queued;
            let mut copy = p.flit;
            copy.retransmits = p.retries.min(u16::MAX as u32) as u16;
            TimeoutAction::Retransmit(copy)
        } else {
            let p = pending.remove(&seq).expect("pending entry exists");
            TimeoutAction::GiveUp(p.flit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::PacketId;
    use noc_core::types::NodeId;

    fn cfg() -> RetransmitConfig {
        RetransmitConfig {
            base_timeout: 16,
            backoff_cap: 2,
            max_retries: 3,
        }
    }

    fn flit(pid: u64) -> Flit {
        Flit::synthetic(PacketId(pid), NodeId(0), NodeId(5), 0)
    }

    fn sequence_and_inject(ni: &mut SenderNi, pid: u64, now: Cycle) -> u32 {
        let mut f = flit(pid);
        ni.sequence(&mut f);
        ni.on_injected(f.seq, now);
        f.seq
    }

    #[test]
    fn sequences_are_unique_and_start_at_one() {
        let mut ni = SenderNi::new(cfg());
        let mut a = flit(1);
        let mut b = flit(2);
        ni.sequence(&mut a);
        ni.sequence(&mut b);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert!(a.crc_ok() && b.crc_ok());
        assert_eq!(ni.pending_count(), 2);
    }

    #[test]
    fn sequencing_a_retransmission_is_a_noop() {
        let mut ni = SenderNi::new(cfg());
        let mut f = flit(1);
        ni.sequence(&mut f);
        let seq = f.seq;
        ni.sequence(&mut f);
        assert_eq!(f.seq, seq);
        assert_eq!(ni.pending_count(), 1);
    }

    #[test]
    fn ack_clears_pending() {
        let mut ni = SenderNi::new(cfg());
        let seq = sequence_and_inject(&mut ni, 1, 10);
        assert!(ni.on_ack(seq));
        assert_eq!(ni.pending_count(), 0);
        assert!(!ni.on_ack(seq), "double ack finds nothing");
    }

    // Satellite: timeout expiry exactly at the deadline cycle.
    #[test]
    fn timeout_fires_exactly_at_deadline() {
        let mut ni = SenderNi::new(cfg());
        let seq = sequence_and_inject(&mut ni, 1, 100);
        // deadline = 100 + 16 = 116.
        let mut out = Vec::new();
        ni.poll(115, &mut out);
        assert!(out.is_empty(), "one cycle before the deadline: no expiry");
        ni.poll(116, &mut out);
        assert_eq!(out.len(), 1, "expiry exactly at the deadline cycle");
        match &out[0] {
            TimeoutAction::Retransmit(f) => {
                assert_eq!(f.seq, seq);
                assert_eq!(f.retransmits, 1);
                assert!(f.crc_ok(), "retransmit copy is clean");
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn parked_timer_does_not_fire_until_reinjection() {
        let mut ni = SenderNi::new(cfg());
        let seq = sequence_and_inject(&mut ni, 1, 0);
        let mut out = Vec::new();
        ni.poll(16, &mut out); // first timeout -> queued retransmission
        assert_eq!(out.len(), 1);
        out.clear();
        // While queued, no amount of waiting fires the timer again.
        ni.poll(10_000, &mut out);
        assert!(out.is_empty());
        // Re-injection re-arms with the backed-off timeout (16 << 1 = 32).
        ni.on_injected(seq, 10_000);
        ni.poll(10_031, &mut out);
        assert!(out.is_empty());
        ni.poll(10_032, &mut out);
        assert_eq!(out.len(), 1);
    }

    // Satellite: backoff cap saturation.
    #[test]
    fn backoff_saturates_at_cap() {
        let c = cfg();
        assert_eq!(c.timeout_for(0), 16);
        assert_eq!(c.timeout_for(1), 32);
        assert_eq!(c.timeout_for(2), 64);
        assert_eq!(c.timeout_for(3), 64, "capped at base << backoff_cap");
        assert_eq!(c.timeout_for(100), 64);
        // And through the live path: third retransmission uses the capped
        // deadline, not base << 3.
        let mut ni = SenderNi::new(RetransmitConfig {
            max_retries: 10,
            ..c
        });
        let seq = sequence_and_inject(&mut ni, 1, 0);
        let mut now = 0;
        let mut out = Vec::new();
        for expected in [16u64, 32, 64, 64, 64] {
            out.clear();
            ni.poll(now + expected - 1, &mut out);
            assert!(
                out.is_empty(),
                "fired before deadline at retry window {expected}"
            );
            ni.poll(now + expected, &mut out);
            assert_eq!(out.len(), 1, "missed deadline at retry window {expected}");
            now += expected;
            ni.on_injected(seq, now);
        }
    }

    #[test]
    fn gives_up_after_max_retries_with_clean_flit() {
        let mut ni = SenderNi::new(cfg());
        let seq = sequence_and_inject(&mut ni, 1, 0);
        let mut out = Vec::new();
        let mut give_ups = 0;
        let mut now = 0;
        for _ in 0..10 {
            now += 10_000;
            out.clear();
            ni.poll(now, &mut out);
            for a in out.drain(..) {
                match a {
                    TimeoutAction::Retransmit(f) => ni.on_injected(f.seq, now),
                    TimeoutAction::GiveUp(f) => {
                        assert_eq!(f.seq, seq);
                        assert!(f.crc_ok());
                        give_ups += 1;
                    }
                }
            }
        }
        assert_eq!(give_ups, 1, "exactly one give-up after the retry budget");
        assert_eq!(ni.pending_count(), 0);
    }

    #[test]
    fn nack_triggers_immediate_retransmit_only_when_in_flight() {
        let mut ni = SenderNi::new(cfg());
        let seq = sequence_and_inject(&mut ni, 1, 0);
        match ni.on_nack(seq) {
            Some(TimeoutAction::Retransmit(f)) => assert_eq!(f.retransmits, 1),
            other => panic!("expected retransmit, got {other:?}"),
        }
        // Now queued: a second (stale) NACK is ignored.
        assert!(ni.on_nack(seq).is_none());
        // Unknown sequence numbers are ignored too.
        assert!(ni.on_nack(999).is_none());
    }

    #[test]
    fn nack_after_budget_exhaustion_gives_up() {
        let mut ni = SenderNi::new(RetransmitConfig {
            max_retries: 0,
            ..cfg()
        });
        let seq = sequence_and_inject(&mut ni, 1, 0);
        match ni.on_nack(seq) {
            Some(TimeoutAction::GiveUp(f)) => assert_eq!(f.seq, seq),
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(ni.pending_count(), 0);
    }

    #[test]
    fn poll_reports_multiple_expiries_in_seq_order() {
        let mut ni = SenderNi::new(cfg());
        let s1 = sequence_and_inject(&mut ni, 1, 0);
        let s2 = sequence_and_inject(&mut ni, 2, 0);
        let mut out = Vec::new();
        ni.poll(16, &mut out);
        let seqs: Vec<u32> = out
            .iter()
            .map(|a| match a {
                TimeoutAction::Retransmit(f) => f.seq,
                TimeoutAction::GiveUp(f) => f.seq,
            })
            .collect();
        assert_eq!(seqs, vec![s1, s2]);
    }
}
