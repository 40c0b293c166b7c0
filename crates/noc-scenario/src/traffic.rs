//! The multi-application traffic model: one [`BurstyTraffic`] per app over
//! its source region, globally renumbered packet ids, and per-application
//! delivery accounting keyed by source region.

use crate::spec::ScenarioSpec;
use noc_core::flit::{PacketDesc, PacketId};
use noc_core::types::Cycle;
use noc_core::SimConfig;
use noc_sim::AppStats;
use noc_topology::Mesh;
use noc_traffic::generator::DeliveredPacket;
use noc_traffic::{BurstyTraffic, TrafficModel};

/// Per-app delivery accumulator, measurement-window scoped.
#[derive(Debug, Clone, Copy, Default)]
struct AppAccum {
    offered: u64,
    accepted: u64,
    latency_sum: u64,
}

/// Open-loop injection of a whole scenario: each application polls its own
/// bursty generator over its own source region; packet ids are renumbered
/// globally so the engine sees one coherent stream. Delivery callbacks are
/// attributed back to the owning app by source node (regions are disjoint,
/// so the owner is unique), restricted to packets *created* in the
/// measurement window — the same filter the global statistics use.
#[derive(Debug, Clone)]
pub struct ScenarioTraffic {
    apps: Vec<BurstyTraffic>,
    app_names: Vec<String>,
    /// Source node -> owning app index (None outside every region).
    app_of_node: Vec<Option<usize>>,
    /// Measurement window `[start, end)` in cycles.
    window: (Cycle, Cycle),
    measure_cycles: u64,
    accum: Vec<AppAccum>,
    next_id: u64,
    scratch: Vec<PacketDesc>,
    label: String,
}

impl ScenarioTraffic {
    /// Build the model for `spec` at `offered_load` (fraction of network
    /// capacity, scaled per app by its `load_scale`). `mesh` must be the
    /// scenario-topology mesh of `cfg`.
    pub fn new(
        spec: &ScenarioSpec,
        mesh: Mesh,
        cfg: &SimConfig,
        offered_load: f64,
    ) -> ScenarioTraffic {
        let mut app_of_node: Vec<Option<usize>> = vec![None; mesh.num_nodes()];
        let mut apps = Vec::with_capacity(spec.apps.len());
        let mut app_names = Vec::with_capacity(spec.apps.len());
        for (i, a) in spec.apps.iter().enumerate() {
            let sources = a.region.nodes(&mesh);
            for &n in &sources {
                debug_assert!(app_of_node[n.index()].is_none(), "app regions overlap");
                app_of_node[n.index()] = Some(i);
            }
            let rate = cfg.injection_rate(offered_load * a.load_scale).min(1.0);
            apps.push(BurstyTraffic::for_sources(
                a.pattern,
                mesh,
                sources,
                a.source,
                rate,
                cfg.packet_len,
                cfg.seed,
            ));
            app_names.push(a.name.clone());
        }
        let start = cfg.warmup_cycles;
        ScenarioTraffic {
            apps,
            app_names,
            app_of_node,
            window: (start, start + cfg.measure_cycles),
            measure_cycles: cfg.measure_cycles,
            accum: vec![AppAccum::default(); spec.apps.len()],
            next_id: 0,
            scratch: Vec::new(),
            label: format!("scn:{}@{:.3}", spec.name, offered_load),
        }
    }

    fn in_window(&self, created: Cycle) -> bool {
        (self.window.0..self.window.1).contains(&created)
    }

    /// Per-application statistics accumulated so far (call after the run).
    pub fn app_stats(&self) -> Vec<AppStats> {
        self.apps
            .iter()
            .zip(&self.app_names)
            .zip(&self.accum)
            .map(|((app, name), acc)| {
                let nodes = app.sources().len();
                AppStats {
                    name: name.clone(),
                    traffic: app.label(),
                    src_nodes: nodes,
                    offered_packets: acc.offered,
                    accepted_packets: acc.accepted,
                    avg_packet_latency: if acc.accepted == 0 {
                        0.0
                    } else {
                        acc.latency_sum as f64 / acc.accepted as f64
                    },
                    accepted_rate: if self.measure_cycles == 0 || nodes == 0 {
                        0.0
                    } else {
                        acc.accepted as f64 / (self.measure_cycles as f64 * nodes as f64)
                    },
                }
            })
            .collect()
    }
}

impl TrafficModel for ScenarioTraffic {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();
        self.poll_into(cycle, &mut out);
        out
    }

    fn poll_into(&mut self, cycle: Cycle, out: &mut Vec<PacketDesc>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for (i, app) in self.apps.iter_mut().enumerate() {
            scratch.clear();
            app.poll_into(cycle, &mut scratch);
            for mut desc in scratch.drain(..) {
                // Renumber globally: each app numbers from 0 on its own.
                desc.id = PacketId(self.next_id);
                self.next_id += 1;
                if (self.window.0..self.window.1).contains(&desc.created) {
                    self.accum[i].offered += 1;
                }
                out.push(desc);
            }
        }
        self.scratch = scratch;
    }

    fn ascending_ids(&self) -> bool {
        true
    }

    fn on_delivered(&mut self, d: &DeliveredPacket) {
        if !self.in_window(d.created) {
            return;
        }
        if let Some(i) = self.app_of_node[d.src.index()] {
            let acc = &mut self.accum[i];
            acc.accepted += 1;
            acc.latency_sum += d.delivered.saturating_sub(d.created);
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::FlitKind;
    use noc_core::types::NodeId;

    fn cfg8() -> SimConfig {
        SimConfig {
            width: 8,
            height: 8,
            warmup_cycles: 100,
            measure_cycles: 1000,
            drain_cycles: 200,
            ..SimConfig::default()
        }
    }

    fn interfere(load: f64) -> ScenarioTraffic {
        let cfg = cfg8();
        let spec = ScenarioSpec::named("interfere2", &cfg).unwrap();
        ScenarioTraffic::new(&spec, Mesh::for_config(&cfg), &cfg, load)
    }

    #[test]
    fn packet_ids_are_globally_unique_and_sources_stay_in_region() {
        let mut t = interfere(0.3);
        let mut ids = std::collections::HashSet::new();
        for c in 0..500 {
            for p in t.poll(c) {
                assert!(ids.insert(p.id), "duplicate id {:?}", p.id);
                assert_eq!(p.kind, FlitKind::Synthetic);
                // Every source belongs to exactly one app region.
                assert!(t.app_of_node[p.src.index()].is_some());
            }
        }
        assert!(!ids.is_empty());
    }

    #[test]
    fn deliveries_attribute_to_the_source_app_within_the_window() {
        let mut t = interfere(0.2);
        // Packets created before warmup / after the window are ignored.
        for (created, counted) in [(0, false), (100, true), (1099, true), (1100, false)] {
            t.on_delivered(&DeliveredPacket {
                id: PacketId(990_000 + created),
                src: NodeId(0), // left half -> app 0 ("fg")
                dst: NodeId(63),
                kind: FlitKind::Synthetic,
                created,
                delivered: created + 20,
            });
            let stats = t.app_stats();
            assert_eq!(stats[0].accepted_packets > 0, counted || created >= 100);
        }
        let stats = t.app_stats();
        assert_eq!(stats[0].name, "fg");
        assert_eq!(stats[0].accepted_packets, 2);
        assert_eq!(stats[0].avg_packet_latency, 20.0);
        assert_eq!(stats[1].accepted_packets, 0, "bg got nothing");
        // Right-half source lands on the bg app.
        t.on_delivered(&DeliveredPacket {
            id: PacketId(7),
            src: NodeId(7),
            dst: NodeId(0),
            kind: FlitKind::Synthetic,
            created: 500,
            delivered: 530,
        });
        let stats = t.app_stats();
        assert_eq!(stats[1].name, "bg");
        assert_eq!(stats[1].accepted_packets, 1);
        assert_eq!(stats[1].avg_packet_latency, 30.0);
    }

    #[test]
    fn offered_counts_only_the_measurement_window() {
        let mut t = interfere(0.3);
        for c in 0..cfg8().warmup_cycles {
            t.poll(c);
        }
        assert!(t.app_stats().iter().all(|a| a.offered_packets == 0));
        for c in cfg8().warmup_cycles..cfg8().warmup_cycles + 200 {
            t.poll(c);
        }
        let stats = t.app_stats();
        assert!(stats.iter().all(|a| a.offered_packets > 0));
        assert_eq!(stats[0].src_nodes, 32);
        assert_eq!(stats[1].src_nodes, 32);
    }

    #[test]
    fn scenario_schedule_is_deterministic() {
        let mut a = interfere(0.25);
        let mut b = interfere(0.25);
        for c in 0..400 {
            assert_eq!(a.poll(c), b.poll(c));
        }
    }

    #[test]
    fn label_names_scenario_and_load() {
        assert_eq!(interfere(0.2).label(), "scn:interfere2@0.200");
    }
}
