//! Composable fault schedules and the reachability pre-check.

use crate::arq::RetransmitConfig;
use crate::transient::TransientSpec;
use noc_core::rng::Rng;
use noc_core::types::{Cycle, Direction, NodeId};
use noc_faults::FaultPlan;
use noc_topology::Mesh;
use std::collections::VecDeque;

/// A permanent failure of one *directed* link: from `onset` onwards, flits
/// sent by `node` through port `dir` never arrive. Generators kill both
/// directions of a physical channel; the directed form keeps targeted tests
/// expressive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Upstream router of the failed directed link.
    pub node: NodeId,
    /// Output port whose channel fails. Must be a link direction, not Local.
    pub dir: Direction,
    /// First cycle at which the link is dead.
    pub onset: Cycle,
}

/// One composable plan covering every supported fault class plus the
/// recovery-protocol parameters. `ResiliencePlan::none()` is inert: no
/// faults and default retransmission knobs.
#[derive(Debug, Clone, Default)]
pub struct ResiliencePlan {
    /// Permanent crossbar faults (the paper's §III-E class).
    pub crossbar: FaultPlan,
    /// Permanent link failures with mid-run onsets.
    pub link_faults: Vec<LinkFault>,
    /// Transient soft-error process, if any.
    pub transient: Option<TransientSpec>,
    /// NI retransmission-protocol parameters.
    pub retransmit: RetransmitConfig,
}

impl ResiliencePlan {
    /// A plan with no faults of any class.
    pub fn none() -> ResiliencePlan {
        ResiliencePlan::default()
    }

    pub fn with_crossbar(mut self, plan: FaultPlan) -> Self {
        self.crossbar = plan;
        self
    }

    pub fn with_link_faults(mut self, faults: Vec<LinkFault>) -> Self {
        for f in &faults {
            assert!(f.dir.is_link(), "link fault on the local port");
        }
        self.link_faults = faults;
        self
    }

    pub fn with_transients(mut self, spec: TransientSpec) -> Self {
        self.transient = if spec.rate > 0.0 { Some(spec) } else { None };
        self
    }

    pub fn with_retransmit(mut self, cfg: RetransmitConfig) -> Self {
        self.retransmit = cfg;
        self
    }

    /// Whether any fault of any class is scheduled.
    pub fn has_faults(&self) -> bool {
        self.crossbar.count() > 0 || self.needs_recovery()
    }

    /// Whether the plan schedules faults the routers cannot absorb on
    /// their own — link failures or transient strikes — and so needs the
    /// CRC + NI-retransmission layer armed. Crossbar faults alone do not.
    pub fn needs_recovery(&self) -> bool {
        !self.link_faults.is_empty() || self.transient.is_some()
    }

    /// Reachability of the mesh once every scheduled link fault has
    /// manifested. Run this before simulating: a partitioned pair can never
    /// deliver and would otherwise burn the full retry budget per packet.
    pub fn reachability(&self, mesh: &Mesh) -> ReachReport {
        reachability(mesh, &self.link_faults)
    }

    /// Seeded generator used by the campaign layer: a crossbar plan with
    /// `crossbar_fraction` faulty routers, `link_fault_count` failed
    /// physical channels (both directions) that provably keep the mesh
    /// connected, and a transient process at `transient_rate` events per
    /// link-cycle. Onsets fall in `[onset_min, onset_max)`.
    ///
    /// Panics if `link_fault_count` channels cannot be removed while keeping
    /// the mesh connected after 64 seeded attempts — campaign specs should
    /// stay well below the mesh's edge connectivity.
    pub fn generate(
        mesh: &Mesh,
        crossbar_fraction: f64,
        link_fault_count: usize,
        transient_rate: f64,
        onset_min: Cycle,
        onset_max: Cycle,
        seed: u64,
    ) -> ResiliencePlan {
        let crossbar = FaultPlan::generate(mesh, crossbar_fraction, onset_min, onset_max, seed);
        let link_faults = if link_fault_count > 0 {
            generate_connected_link_faults(mesh, link_fault_count, onset_min, onset_max, seed)
                .unwrap_or_else(|report| {
                    panic!(
                        "could not place {link_fault_count} link faults while keeping the mesh \
                         connected ({} components in last attempt)",
                        report.components
                    )
                })
        } else {
            Vec::new()
        };
        let mut plan = ResiliencePlan::none()
            .with_crossbar(crossbar)
            .with_link_faults(link_faults);
        if transient_rate > 0.0 {
            plan = plan.with_transients(TransientSpec {
                rate: transient_rate,
                drop_fraction: 0.5,
                seed,
            });
        }
        plan
    }
}

/// Result of the reachability pre-check.
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// Number of connected components of the degraded mesh.
    pub components: usize,
    /// All unordered node pairs that cannot reach each other (empty when
    /// fully connected).
    pub partitioned_pairs: Vec<(NodeId, NodeId)>,
}

impl ReachReport {
    pub fn is_fully_connected(&self) -> bool {
        self.components == 1
    }
}

/// BFS over the mesh with every faulted physical channel removed. A channel
/// counts as dead if *either* direction appears in `dead`, regardless of
/// onset — the report describes the eventual degraded topology.
pub fn reachability(mesh: &Mesh, dead: &[LinkFault]) -> ReachReport {
    let n = mesh.num_nodes();
    let is_dead = |a: NodeId, d: Direction| {
        dead.iter().any(|f| {
            (f.node == a && f.dir == d)
                || mesh
                    .neighbor(a, d)
                    .is_some_and(|b| f.node == b && f.dir == d.opposite())
        })
    };
    let mut component = vec![usize::MAX; n];
    let mut components = 0;
    for start in mesh.nodes() {
        if component[start.index()] != usize::MAX {
            continue;
        }
        let id = components;
        components += 1;
        let mut q = VecDeque::from([start]);
        component[start.index()] = id;
        while let Some(u) = q.pop_front() {
            for d in mesh.link_dirs(u) {
                if is_dead(u, d) {
                    continue;
                }
                let v = mesh.neighbor(u, d).expect("link_dirs yields neighbours");
                if component[v.index()] == usize::MAX {
                    component[v.index()] = id;
                    q.push_back(v);
                }
            }
        }
    }
    let mut partitioned_pairs = Vec::new();
    if components > 1 {
        for a in 0..n {
            for b in (a + 1)..n {
                if component[a] != component[b] {
                    partitioned_pairs.push((NodeId(a as u16), NodeId(b as u16)));
                }
            }
        }
    }
    ReachReport {
        components,
        partitioned_pairs,
    }
}

/// Seeded placement of `count` failed physical channels (both directions of
/// each chosen mesh edge) that keeps the mesh connected. Tries up to 64
/// derived seeds; returns the reachability report of the last failed
/// attempt if none succeeds.
pub fn generate_connected_link_faults(
    mesh: &Mesh,
    count: usize,
    onset_min: Cycle,
    onset_max: Cycle,
    seed: u64,
) -> Result<Vec<LinkFault>, ReachReport> {
    assert!(
        onset_min < onset_max || count == 0,
        "empty onset window for link faults"
    );
    // Undirected edge list: keep the (from, dir) with the smaller node id.
    let edges: Vec<(NodeId, Direction)> = mesh
        .links()
        .filter(|(from, _, to)| from.0 < to.0)
        .map(|(from, d, _)| (from, d))
        .collect();
    assert!(
        count <= edges.len(),
        "cannot fail {count} of {} channels",
        edges.len()
    );
    let mut last_report = None;
    for attempt in 0..64u64 {
        let mut rng = Rng::stream(seed ^ (attempt << 32), 0x011F_A017);
        let chosen = rng.choose_indices(edges.len(), count);
        let mut faults = Vec::with_capacity(count * 2);
        for idx in chosen {
            let (node, dir) = edges[idx];
            let onset = onset_min + rng.gen_range(onset_max - onset_min);
            let peer = mesh.neighbor(node, dir).expect("edge has a peer");
            faults.push(LinkFault { node, dir, onset });
            faults.push(LinkFault {
                node: peer,
                dir: dir.opposite(),
                onset,
            });
        }
        let report = reachability(mesh, &faults);
        if report.is_fully_connected() {
            return Ok(faults);
        }
        last_report = Some(report);
    }
    Err(last_report.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    #[test]
    fn empty_plan_is_inert_and_connected() {
        let p = ResiliencePlan::none();
        assert!(!p.has_faults());
        let r = p.reachability(&mesh());
        assert!(r.is_fully_connected());
        assert!(r.partitioned_pairs.is_empty());
    }

    #[test]
    fn single_channel_cut_keeps_4x4_connected() {
        let faults = vec![
            LinkFault {
                node: NodeId(0),
                dir: Direction::East,
                onset: 0,
            },
            LinkFault {
                node: NodeId(1),
                dir: Direction::West,
                onset: 0,
            },
        ];
        let r = reachability(&mesh(), &faults);
        assert!(r.is_fully_connected());
    }

    #[test]
    fn corner_isolation_is_reported() {
        // Cut both channels of corner node 0 (East to 1, South to 4).
        let faults = vec![
            LinkFault {
                node: NodeId(0),
                dir: Direction::East,
                onset: 0,
            },
            LinkFault {
                node: NodeId(0),
                dir: Direction::South,
                onset: 0,
            },
        ];
        let r = reachability(&mesh(), &faults);
        assert_eq!(r.components, 2);
        // Node 0 is cut off from the other 15 nodes.
        assert_eq!(r.partitioned_pairs.len(), 15);
        assert!(r.partitioned_pairs.iter().all(|&(a, _)| a == NodeId(0)));
    }

    #[test]
    fn one_directed_fault_kills_the_channel_for_reachability() {
        // Reachability treats a channel as dead if either direction failed.
        let faults = vec![
            LinkFault {
                node: NodeId(0),
                dir: Direction::East,
                onset: 0,
            },
            LinkFault {
                node: NodeId(0),
                dir: Direction::South,
                onset: 5,
            },
        ];
        let r = reachability(&mesh(), &faults);
        assert_eq!(r.components, 2);
    }

    #[test]
    fn generated_link_faults_keep_mesh_connected_and_are_deterministic() {
        let m = mesh();
        let a = generate_connected_link_faults(&m, 3, 10, 100, 42).unwrap();
        let b = generate_connected_link_faults(&m, 3, 10, 100, 42).unwrap();
        assert_eq!(a, b, "same seed must give the same placement");
        assert_eq!(a.len(), 6, "both directions of each channel fail");
        assert!(reachability(&m, &a).is_fully_connected());
        assert!(a.iter().all(|f| (10..100).contains(&f.onset)));
        let c = generate_connected_link_faults(&m, 3, 10, 100, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generate_composes_all_classes() {
        let m = mesh();
        let p = ResiliencePlan::generate(&m, 0.25, 2, 1e-4, 10, 100, 7);
        assert_eq!(p.crossbar.count(), 4);
        assert_eq!(p.link_faults.len(), 4);
        assert!(p.transient.is_some());
        assert!(p.has_faults());
        assert!(p.reachability(&m).is_fully_connected());
    }

    #[test]
    fn zero_rate_transients_are_dropped() {
        let p = ResiliencePlan::none().with_transients(TransientSpec {
            rate: 0.0,
            drop_fraction: 0.5,
            seed: 1,
        });
        assert!(p.transient.is_none());
    }

    #[test]
    #[should_panic(expected = "local port")]
    fn link_fault_on_local_port_rejected() {
        let _ = ResiliencePlan::none().with_link_faults(vec![LinkFault {
            node: NodeId(0),
            dir: Direction::Local,
            onset: 0,
        }]);
    }
}
