//! Per-cycle time-series samplers for aggregate network state.

use noc_core::Cycle;
use serde::{Deserialize, Serialize};

/// One aggregate-state snapshot, produced by the engine each cycle while a
/// recording sink is attached.
#[derive(Debug, Clone, Copy)]
pub struct CycleSample<'a> {
    pub cycle: Cycle,
    /// Flits currently inside routers or on links.
    pub in_flight: u64,
    /// Flits waiting in source queues, not yet injected.
    pub backlog: u64,
    /// Link traversals that happened this cycle (all links).
    pub link_traversals: u64,
    /// Buffer occupancy per router, indexed by node id.
    pub per_router_occupancy: &'a [usize],
    /// No source can inject a packet with a smaller id after this cycle,
    /// first time or again: the smallest id still held at a source-queue
    /// head or further back, in an NI retransmission window or as a SCARAB
    /// retransmission, and never above the traffic model's next fresh id.
    /// 0 (retire nothing) when the model does not promise ascending ids,
    /// and when no attached observer reads step records (the one reader,
    /// the oracles' ledger, does).
    pub retire_floor: u64,
}

/// A named, strided time series of f64 samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleSeries {
    pub label: String,
    /// Cycles between consecutive samples.
    pub stride: u64,
    pub values: Vec<f64>,
}

impl SampleSeries {
    pub fn new(label: &str, stride: u64) -> Self {
        SampleSeries {
            label: label.to_string(),
            stride,
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// The standard sampler bundle: in-flight flits, injection backlog, link
/// utilization and router occupancy, each sampled every `stride` cycles,
/// plus per-node accumulators (sampled every cycle) for heatmaps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesSet {
    pub stride: u64,
    /// Cycles observed (all, not just sampled ones).
    pub observed: u64,
    pub in_flight: SampleSeries,
    pub backlog: SampleSeries,
    pub link_util: SampleSeries,
    pub mean_occupancy: SampleSeries,
    /// Sum of per-cycle buffer occupancy per node; divide by `observed`
    /// for the time-average used in heatmaps.
    pub node_occupancy_accum: Vec<f64>,
    /// Total link traversals per cycle, accumulated (for mean utilization).
    pub total_traversals: u64,
}

impl SeriesSet {
    pub fn new(stride: u64) -> Self {
        let stride = stride.max(1);
        SeriesSet {
            stride,
            observed: 0,
            in_flight: SampleSeries::new("in_flight_flits", stride),
            backlog: SampleSeries::new("injection_backlog", stride),
            link_util: SampleSeries::new("link_traversals_per_cycle", stride),
            mean_occupancy: SampleSeries::new("mean_router_occupancy", stride),
            node_occupancy_accum: Vec::new(),
            total_traversals: 0,
        }
    }

    pub fn observe(&mut self, s: &CycleSample<'_>) {
        if self.node_occupancy_accum.len() < s.per_router_occupancy.len() {
            self.node_occupancy_accum
                .resize(s.per_router_occupancy.len(), 0.0);
        }
        for (acc, &occ) in self
            .node_occupancy_accum
            .iter_mut()
            .zip(s.per_router_occupancy)
        {
            *acc += occ as f64;
        }
        self.total_traversals += s.link_traversals;

        if self.observed.is_multiple_of(self.stride) {
            let n = s.per_router_occupancy.len().max(1) as f64;
            let occ_sum: usize = s.per_router_occupancy.iter().sum();
            self.in_flight.push(s.in_flight as f64);
            self.backlog.push(s.backlog as f64);
            self.link_util.push(s.link_traversals as f64);
            self.mean_occupancy.push(occ_sum as f64 / n);
        }
        self.observed += 1;
    }

    /// Time-averaged buffer occupancy per node, for heatmap rendering.
    pub fn mean_node_occupancy(&self) -> Vec<f64> {
        let denom = self.observed.max(1) as f64;
        self.node_occupancy_accum
            .iter()
            .map(|&a| a / denom)
            .collect()
    }

    /// Mean link traversals per observed cycle.
    pub fn mean_link_utilization(&self) -> f64 {
        self.total_traversals as f64 / self.observed.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_sampling_and_accumulators() {
        let mut set = SeriesSet::new(4);
        let occ = [1usize, 3];
        for cycle in 0..12 {
            set.observe(&CycleSample {
                cycle,
                in_flight: 5,
                backlog: 2,
                link_traversals: 3,
                per_router_occupancy: &occ,
                retire_floor: 0,
            });
        }
        // Sampled on cycles 0, 4, 8.
        assert_eq!(set.in_flight.len(), 3);
        assert_eq!(set.observed, 12);
        assert_eq!(set.mean_occupancy.values[0], 2.0);
        assert_eq!(set.mean_node_occupancy(), vec![1.0, 3.0]);
        assert_eq!(set.mean_link_utilization(), 3.0);
    }

    #[test]
    fn series_set_roundtrips_through_serde() {
        let mut set = SeriesSet::new(1);
        set.observe(&CycleSample {
            cycle: 0,
            in_flight: 1,
            backlog: 0,
            link_traversals: 2,
            per_router_occupancy: &[0, 4],
            retire_floor: 0,
        });
        let json = serde_json::to_string(&set).unwrap();
        let back: SeriesSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.observed, 1);
        assert_eq!(back.in_flight.values, set.in_flight.values);
        assert_eq!(back.node_occupancy_accum, set.node_occupancy_accum);
    }
}
