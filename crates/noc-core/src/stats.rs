//! Event counting and latency statistics.
//!
//! The simulator never computes energy inline; routers record *events*
//! (buffer writes, crossbar traversals, link traversals, NACK hops, ...)
//! into [`EventCounts`], and `noc-power` later converts counts into Joules.
//! This keeps the energy model in one place and makes the accounting
//! trivially additive and testable.

use crate::types::{Cycle, NodeId};
use serde::{Deserialize, Serialize};

/// Per-event counters consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Flit written into an input buffer slot.
    pub buffer_writes: u64,
    /// Flit read out of an input buffer slot.
    pub buffer_reads: u64,
    /// Traversals of a plain matrix crossbar (primary, secondary, or the
    /// baseline's single crossbar). 13 pJ/flit in the paper.
    pub xbar_traversals: u64,
    /// Traversals of the unified dual-input crossbar (15 pJ/flit: the
    /// transmission gates cost extra).
    pub unified_xbar_traversals: u64,
    /// Link traversals (one hop of one flit).
    pub link_traversals: u64,
    /// Hops travelled by NACK signals on SCARAB's circuit-switched network.
    pub nack_hops: u64,
    /// Deflections (flit granted a non-productive port).
    pub deflections: u64,
    /// Packets dropped (SCARAB).
    pub drops: u64,
    /// Packet retransmissions (SCARAB).
    pub retransmissions: u64,
    /// Flits injected into the network.
    pub injections: u64,
    /// Flits ejected at their destination.
    pub ejections: u64,
    /// Transient soft errors that corrupted a flit's payload in transit.
    pub transit_corruptions: u64,
    /// Flits lost in transit (transient drop events and traversals of a
    /// permanently failed link).
    pub transit_losses: u64,
    /// Flits rejected at an ejection port because the payload CRC failed.
    pub crc_rejects: u64,
    /// NI-level retransmissions (NACK- or timeout-triggered).
    pub ni_retransmits: u64,
    /// Flits the source NI gave up on after exhausting its retry budget —
    /// the sanctioned packet-loss count.
    pub flits_lost: u64,
    /// Duplicate deliveries suppressed by the receiver NI (late originals or
    /// spurious-timeout retransmits).
    pub duplicates_suppressed: u64,
    /// Hops travelled by ACK/NACK control messages on the (assumed reliable)
    /// control plane.
    pub ack_hops: u64,
}

impl EventCounts {
    /// Add another accumulator into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.xbar_traversals += other.xbar_traversals;
        self.unified_xbar_traversals += other.unified_xbar_traversals;
        self.link_traversals += other.link_traversals;
        self.nack_hops += other.nack_hops;
        self.deflections += other.deflections;
        self.drops += other.drops;
        self.retransmissions += other.retransmissions;
        self.injections += other.injections;
        self.ejections += other.ejections;
        self.transit_corruptions += other.transit_corruptions;
        self.transit_losses += other.transit_losses;
        self.crc_rejects += other.crc_rejects;
        self.ni_retransmits += other.ni_retransmits;
        self.flits_lost += other.flits_lost;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.ack_hops += other.ack_hops;
    }
}

/// Streaming latency statistics with an HDR-style log-linear histogram.
///
/// Values below [`LatencyStats::LINEAR_CUTOFF`] get one exact bucket each;
/// above it every power-of-two octave is split into
/// 2^[`LatencyStats::SUBBUCKET_BITS`] equal-width sub-buckets. A sub-bucket
/// in octave `[2^o, 2^(o+1))` is `2^(o-3)` wide, so
/// [`LatencyStats::approx_percentile`] (which reports the sub-bucket's
/// upper bound) overestimates the exact percentile by at most 12.5 % —
/// `(width - 1) / lower_bound <= 1/8` — and is exact below the cutoff.
///
/// The bucket vector grows on demand, so a run whose worst latency is a few
/// thousand cycles serializes a few dozen counters, not a fixed table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

impl LatencyStats {
    /// Values below this are counted exactly, one bucket per value.
    pub const LINEAR_CUTOFF: u64 = 16;
    /// log2 of the sub-buckets per octave above the cutoff.
    pub const SUBBUCKET_BITS: u32 = 3;

    /// Histogram bucket index for a latency value.
    pub fn bucket_index(v: u64) -> usize {
        if v < Self::LINEAR_CUTOFF {
            v as usize
        } else {
            let octave = 63 - v.leading_zeros() as u64;
            let sub =
                (v >> (octave - Self::SUBBUCKET_BITS as u64)) & ((1 << Self::SUBBUCKET_BITS) - 1);
            let base_octave = Self::LINEAR_CUTOFF.trailing_zeros() as u64;
            let per_octave = 1usize << Self::SUBBUCKET_BITS;
            Self::LINEAR_CUTOFF as usize
                + (octave - base_octave) as usize * per_octave
                + sub as usize
        }
    }

    /// Inclusive `[low, high]` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if (i as u64) < Self::LINEAR_CUTOFF {
            (i as u64, i as u64)
        } else {
            let r = i as u64 - Self::LINEAR_CUTOFF;
            let per_octave = 1u64 << Self::SUBBUCKET_BITS;
            let octave = Self::LINEAR_CUTOFF.trailing_zeros() as u64 + r / per_octave;
            let sub = r % per_octave;
            let width = 1u64 << (octave - Self::SUBBUCKET_BITS as u64);
            let low = (1u64 << octave) + sub * width;
            (low, low + width - 1)
        }
    }

    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let bucket = Self::bucket_index(latency);
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile from the histogram: the upper bound of the
    /// sub-bucket containing the q-quantile (clamped to the observed max),
    /// so it is exact below [`Self::LINEAR_CUTOFF`] and otherwise within
    /// 12.5 % above the exact nearest-rank percentile. `q` in `[0, 1]`.
    pub fn approx_percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if b > 0 && seen >= target.max(1) {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Network-level statistics for one simulation run.
///
/// "Measured" quantities only include packets created inside the measurement
/// window (after warmup, before drain); the engine passes `in_window` when
/// recording.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Flits offered (created by traffic generators) during measurement.
    pub offered_flits: u64,
    /// Flits accepted (ejected at destination) that were created during
    /// measurement.
    pub accepted_flits: u64,
    /// Packets fully reassembled at their destination (measurement window).
    pub accepted_packets: u64,
    /// Per-packet latency: creation at the source PE to ejection of the last
    /// flit (includes source queueing).
    pub packet_latency: LatencyStats,
    /// Per-flit latency: creation to ejection.
    pub flit_latency: LatencyStats,
    /// Per-flit hop counts at ejection.
    pub hops: LatencyStats,
    /// Creation-to-delivery latency of flits that needed at least one NI
    /// retransmission — the recovery-latency metric of the resilience layer.
    pub recovery_latency: LatencyStats,
    /// Packet latency broken down by *source* node (grown on demand) — the
    /// fairness metric: age-based arbitration starves centre nodes unless
    /// the fairness counter intervenes.
    pub per_source_latency: Vec<LatencyStats>,
    /// All energy-relevant events over the whole run (warmup included, since
    /// power plots in the paper integrate whole-run activity; the runner can
    /// also snapshot at window boundaries).
    pub events: EventCounts,
    /// Events snapshot at the start of the measurement window (to compute
    /// window-only deltas).
    pub events_at_window_start: EventCounts,
}

impl NetStats {
    /// Record `flits` flits created by a generator (one packet's worth).
    pub fn record_offered(&mut self, flits: u64, in_window: bool) {
        if in_window {
            self.offered_flits += flits;
        }
    }

    /// Record ejection of one flit created at `created`, arriving at `now`.
    ///
    /// Throughput counts ejections that *happen* inside the measurement
    /// window (`ejected_in_window`); latency samples only packets *created*
    /// inside it (`created_in_window`) so ramp-up transients don't bias the
    /// mean. The engine computes both flags.
    pub fn record_flit_ejected(
        &mut self,
        created: Cycle,
        hops: u16,
        now: Cycle,
        ejected_in_window: bool,
        created_in_window: bool,
    ) {
        if ejected_in_window {
            self.accepted_flits += 1;
        }
        if created_in_window {
            self.flit_latency.record(now.saturating_sub(created));
            self.hops.record(hops as u64);
        }
    }

    /// Record delivery of a flit that survived only thanks to the
    /// retransmission protocol (`flit.retransmits > 0`).
    pub fn record_recovery(&mut self, created: Cycle, now: Cycle, created_in_window: bool) {
        if created_in_window {
            self.recovery_latency.record(now.saturating_sub(created));
        }
    }

    /// Record complete reassembly of a packet created at `created` by
    /// source `src`.
    pub fn record_packet_done(&mut self, src: NodeId, created: Cycle, now: Cycle, in_window: bool) {
        if in_window {
            self.accepted_packets += 1;
            let latency = now.saturating_sub(created);
            self.packet_latency.record(latency);
            let idx = src.index();
            if self.per_source_latency.len() <= idx {
                self.per_source_latency
                    .resize_with(idx + 1, LatencyStats::default);
            }
            self.per_source_latency[idx].record(latency);
        }
    }

    /// Fairness spread: worst mean source latency divided by the best —
    /// 1.0 means perfectly fair service. Returns 0.0 with no samples.
    pub fn latency_spread(&self) -> f64 {
        let means: Vec<f64> = self
            .per_source_latency
            .iter()
            .filter(|l| l.count > 0)
            .map(|l| l.mean())
            .collect();
        match (
            means.iter().cloned().fold(f64::INFINITY, f64::min),
            means.iter().cloned().fold(0.0f64, f64::max),
        ) {
            (min, max) if min.is_finite() && min > 0.0 => max / min,
            _ => 0.0,
        }
    }

    /// Worst mean packet latency over all source nodes (0.0 if empty).
    pub fn max_source_latency(&self) -> f64 {
        self.per_source_latency
            .iter()
            .filter(|l| l.count > 0)
            .map(|l| l.mean())
            .fold(0.0f64, f64::max)
    }

    /// Accepted throughput in flits/node/cycle.
    pub fn accepted_rate(&self, num_nodes: usize) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.accepted_flits as f64 / (self.measured_cycles as f64 * num_nodes as f64)
    }

    /// Offered rate in flits/node/cycle.
    pub fn offered_rate(&self, num_nodes: usize) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.offered_flits as f64 / (self.measured_cycles as f64 * num_nodes as f64)
    }

    /// Event deltas restricted to the measurement window and after.
    pub fn window_events(&self) -> EventCounts {
        let mut w = self.events;
        let s = &self.events_at_window_start;
        w.buffer_writes -= s.buffer_writes;
        w.buffer_reads -= s.buffer_reads;
        w.xbar_traversals -= s.xbar_traversals;
        w.unified_xbar_traversals -= s.unified_xbar_traversals;
        w.link_traversals -= s.link_traversals;
        w.nack_hops -= s.nack_hops;
        w.deflections -= s.deflections;
        w.drops -= s.drops;
        w.retransmissions -= s.retransmissions;
        w.injections -= s.injections;
        w.ejections -= s.ejections;
        w.transit_corruptions -= s.transit_corruptions;
        w.transit_losses -= s.transit_losses;
        w.crc_rejects -= s.crc_rejects;
        w.ni_retransmits -= s.ni_retransmits;
        w.flits_lost -= s.flits_lost;
        w.duplicates_suppressed -= s.duplicates_suppressed;
        w.ack_hops -= s.ack_hops;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_mean_min_max() {
        let mut l = LatencyStats::default();
        for v in [10, 20, 30] {
            l.record(v);
        }
        assert_eq!(l.count, 3);
        assert!((l.mean() - 20.0).abs() < 1e-9);
        assert_eq!(l.min, 10);
        assert_eq!(l.max, 30);
    }

    #[test]
    fn latency_histogram_buckets() {
        // Below the linear cutoff every value has its own exact bucket.
        let mut l = LatencyStats::default();
        l.record(0);
        l.record(1);
        l.record(1);
        l.record(2);
        l.record(15);
        assert_eq!(l.buckets[0], 1);
        assert_eq!(l.buckets[1], 2);
        assert_eq!(l.buckets[2], 1);
        assert_eq!(l.buckets[15], 1);
        // Exact percentiles in the linear range.
        assert_eq!(l.approx_percentile(0.5), 1);
        assert_eq!(l.approx_percentile(1.0), 15);
    }

    #[test]
    fn bucket_index_and_bounds_agree() {
        // Every value lands in a bucket whose bounds contain it, indices
        // are monotone, and sub-bucket width obeys the 12.5% error bound.
        let mut prev_idx = 0;
        for v in 0..100_000u64 {
            let idx = LatencyStats::bucket_index(v);
            let (lo, hi) = LatencyStats::bucket_bounds(idx);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {idx} [{lo}, {hi}]"
            );
            assert!(idx >= prev_idx, "bucket index not monotone at {v}");
            prev_idx = idx;
            if v >= LatencyStats::LINEAR_CUTOFF {
                assert!(
                    (hi - lo) as f64 / lo as f64 <= 0.125,
                    "bucket {idx} [{lo}, {hi}] wider than 12.5%"
                );
            } else {
                assert_eq!((lo, hi), (v, v));
            }
        }
    }

    #[test]
    fn approx_percentile_within_sub_bucket_of_exact() {
        // Compare against exact nearest-rank percentiles on a skewed
        // population (quadratic tail, like a latency distribution).
        let mut l = LatencyStats::default();
        let mut values: Vec<u64> = (0..5_000u64).map(|i| 3 + (i * i) % 4_096).collect();
        for &v in &values {
            l.record(v);
        }
        values.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = l.approx_percentile(q);
            assert!(
                approx >= exact,
                "q={q}: approx {approx} below exact {exact}"
            );
            let (_, hi) = LatencyStats::bucket_bounds(LatencyStats::bucket_index(exact));
            assert!(
                approx <= hi.min(l.max),
                "q={q}: approx {approx} beyond exact's sub-bucket upper bound {hi}"
            );
        }
    }

    #[test]
    fn merge_grows_bucket_vector() {
        let mut a = LatencyStats::default();
        a.record(3);
        let mut b = LatencyStats::default();
        b.record(10_000);
        let idx = LatencyStats::bucket_index(10_000);
        a.merge(&b);
        assert_eq!(a.buckets[3], 1);
        assert_eq!(a.buckets[idx], 1);
        assert_eq!(a.count, 2);
    }

    #[test]
    fn latency_merge_adds() {
        let mut a = LatencyStats::default();
        a.record(5);
        let mut b = LatencyStats::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.min, 5);
        assert_eq!(a.max, 100);
        assert_eq!(a.sum, 105);
    }

    #[test]
    fn percentile_monotone() {
        let mut l = LatencyStats::default();
        for v in 1..=1000u64 {
            l.record(v);
        }
        let p50 = l.approx_percentile(0.5);
        let p99 = l.approx_percentile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= l.max);
    }

    #[test]
    fn event_merge_adds_fieldwise() {
        let mut a = EventCounts {
            buffer_writes: 1,
            link_traversals: 2,
            ..Default::default()
        };
        let b = EventCounts {
            buffer_writes: 10,
            deflections: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.buffer_writes, 11);
        assert_eq!(a.link_traversals, 2);
        assert_eq!(a.deflections, 5);
    }

    #[test]
    fn netstats_rates() {
        let mut s = NetStats {
            measured_cycles: 100,
            ..Default::default()
        };
        for _ in 0..10 {
            s.record_offered(5, true);
        }
        for _ in 0..40 {
            s.record_flit_ejected(0, 3, 10, true, true);
        }
        // out-of-window records are ignored
        s.record_offered(1, false);
        s.record_flit_ejected(0, 3, 10, false, false);
        assert!((s.offered_rate(10) - 0.05).abs() < 1e-12);
        assert!((s.accepted_rate(10) - 0.04).abs() < 1e-12);
        assert_eq!(s.accepted_flits, 40);
    }

    #[test]
    fn ejection_and_creation_windows_are_independent() {
        let mut s = NetStats::default();
        // Ejected inside window, created before it: counts toward
        // throughput, not latency.
        s.record_flit_ejected(5, 2, 100, true, false);
        assert_eq!(s.accepted_flits, 1);
        assert_eq!(s.flit_latency.count, 0);
        // Created inside window, ejected after it: latency only.
        s.record_flit_ejected(50, 2, 10_000, false, true);
        assert_eq!(s.accepted_flits, 1);
        assert_eq!(s.flit_latency.count, 1);
    }

    #[test]
    fn window_events_subtracts_snapshot() {
        let mut s = NetStats::default();
        s.events.link_traversals = 10;
        s.events_at_window_start.link_traversals = 4;
        assert_eq!(s.window_events().link_traversals, 6);
    }

    #[test]
    fn packet_latency_from_creation() {
        let mut s = NetStats::default();
        s.record_packet_done(NodeId(3), 100, 140, true);
        assert_eq!(s.packet_latency.count, 1);
        assert_eq!(s.packet_latency.max, 40);
        assert_eq!(s.per_source_latency[3].count, 1);
    }

    #[test]
    fn latency_spread_compares_best_and_worst_sources() {
        let mut s = NetStats::default();
        s.record_packet_done(NodeId(0), 0, 10, true); // mean 10
        s.record_packet_done(NodeId(1), 0, 40, true); // mean 40
        assert!((s.latency_spread() - 4.0).abs() < 1e-9);
        assert!((s.max_source_latency() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn latency_spread_empty_is_zero() {
        let s = NetStats::default();
        assert_eq!(s.latency_spread(), 0.0);
        assert_eq!(s.max_source_latency(), 0.0);
    }
}
