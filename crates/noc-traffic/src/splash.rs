//! Closed-loop SPLASH-2 coherence-workload model.
//!
//! The paper collected SPLASH-2 traces with Simics + GEMS (Tables I & II
//! give the processor and memory-hierarchy parameters). We do not have that
//! stack, so — per the substitution rule in DESIGN.md — we model the
//! *network-visible* behaviour of those runs:
//!
//! * 64 in-order cores, each with a 16-entry MSHR window: a core issues a
//!   new L2 request only while fewer than 16 are outstanding, so network
//!   latency directly throttles progress (this is what makes "execution
//!   time" sensitive to the router design, Fig. 9);
//! * each core owns a private L2 (Table II), so misses travel to one of 16
//!   directory/memory-controller nodes (odd-odd mesh coordinates); the
//!   directory either forwards the request to the current owner core
//!   (MESI cache-to-cache transfer — the owner then sends the 4-flit data
//!   reply, 64 B block / 128-bit flits) or fetches from memory and replies
//!   itself, after the Table II latencies (directory 80, memory 160,
//!   L2 hit 4 cycles). Reply sources are therefore spread over all 64
//!   nodes, as in the paper's GEMS traces;
//! * per-application parameters (issue intensity, home locality, L2 miss
//!   rate, transactions per core) differentiate the nine benchmarks.
//!
//! "Execution time" of a run is the cycle at which every core has completed
//! its transaction quota; Fig. 9 normalizes it per design.

use crate::generator::{DeliveredPacket, TrafficModel};
use noc_core::flit::{FlitKind, PacketDesc, PacketId};
use noc_core::types::{Cycle, NodeId};
use noc_core::Rng;
use noc_topology::{link::TimedChannel, Mesh};
use serde::{Deserialize, Serialize};

/// Table I — processor parameters used for the SPLASH-2 suite simulations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessorParams {
    pub frequency_ghz: u32,
    pub issue_width: u32,
    pub issue_order: &'static str,
    pub retire_order: &'static str,
    pub ld_st_units: u32,
    pub mul_div_units: u32,
    pub write_buffer_entries: u32,
    pub branch_predictor: &'static str,
    pub btb_entries: u32,
    pub ras_entries: u32,
    pub l1_size_kb: u32,
    pub l1_assoc: u32,
    pub l1_latency_cycles: u32,
    pub l1_block_bytes: u32,
}

impl Default for ProcessorParams {
    fn default() -> Self {
        ProcessorParams {
            frequency_ghz: 3,
            issue_width: 2,
            issue_order: "in-order",
            retire_order: "in-order",
            ld_st_units: 1,
            mul_div_units: 1,
            write_buffer_entries: 16,
            branch_predictor: "13-bit GHR hybrid GAg+SAg",
            btb_entries: 2048,
            ras_entries: 32,
            l1_size_kb: 64,
            l1_assoc: 4,
            l1_latency_cycles: 2,
            l1_block_bytes: 64,
        }
    }
}

/// Table II — cache and memory parameters used for the SPLASH-2 suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryParams {
    pub l2_banks: u32,
    pub l2_size_mb: u32,
    pub l2_assoc: u32,
    pub l2_latency_cycles: u64,
    pub l2_writeback: &'static str,
    pub block_bytes: u32,
    pub mshr_entries: usize,
    pub coherence: &'static str,
    pub memory_controllers: u32,
    pub memory_size_gb: u32,
    pub memory_latency_cycles: u64,
    pub directory_latency_cycles: u64,
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams {
            l2_banks: 16,
            l2_size_mb: 1,
            l2_assoc: 16,
            l2_latency_cycles: 4,
            l2_writeback: "write-back",
            block_bytes: 64,
            mshr_entries: 16,
            coherence: "MESI",
            memory_controllers: 16,
            memory_size_gb: 4,
            memory_latency_cycles: 160,
            directory_latency_cycles: 80,
        }
    }
}

/// The nine SPLASH-2 applications (with the paper's input sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplashApp {
    /// FFT (16 K points) — all-to-all transpose phases.
    Fft,
    /// LU (512x512) — blocked, mostly neighbour communication.
    Lu,
    /// Radiosity (largeroom) — irregular task-stealing traffic.
    Radiosity,
    /// Ocean (258x258) — intense nearest-neighbour stencils.
    Ocean,
    /// Raytrace (teapot) — read-mostly irregular sharing.
    Raytrace,
    /// Radix (1 M keys) — permutation-heavy, highest injection rate.
    Radix,
    /// Water (512 molecules) — low, regular traffic.
    Water,
    /// FMM (16 K particles) — tree-structured moderate traffic.
    Fmm,
    /// Barnes (16 K particles) — tree-structured moderate traffic.
    Barnes,
}

/// Per-application workload parameters (the substitution's knobs).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AppParams {
    /// Probability per core per cycle of wanting a new L2 request while
    /// under the MSHR limit (network intensity of the benchmark).
    pub issue_prob: f64,
    /// Probability that a request targets one of the 4 nearest L2 banks
    /// instead of a uniformly random bank.
    pub locality: f64,
    /// Probability that a miss must go to memory instead of being served
    /// by a cache-to-cache transfer from the owner's private L2.
    pub l2_miss_rate: f64,
    /// Transactions each core must complete.
    pub txns_per_core: u32,
    /// Requests issued back-to-back to the same home bank once the issue
    /// coin fires (cache-line streaming / coherence bursts). Bursty
    /// many-to-one traffic is what makes deflection and drop storms appear
    /// in the bufferless designs on real traces.
    pub burst_len: u32,
}

impl SplashApp {
    /// The nine applications in the paper's plotting order.
    pub const ALL: [SplashApp; 9] = [
        SplashApp::Fft,
        SplashApp::Lu,
        SplashApp::Radiosity,
        SplashApp::Ocean,
        SplashApp::Raytrace,
        SplashApp::Radix,
        SplashApp::Water,
        SplashApp::Fmm,
        SplashApp::Barnes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SplashApp::Fft => "FFT",
            SplashApp::Lu => "LU",
            SplashApp::Radiosity => "Radiosity",
            SplashApp::Ocean => "Ocean",
            SplashApp::Raytrace => "Raytrace",
            SplashApp::Radix => "Radix",
            SplashApp::Water => "Water",
            SplashApp::Fmm => "FMM",
            SplashApp::Barnes => "Barnes",
        }
    }

    /// Workload parameters for the application. Intensities are ordered to
    /// match SPLASH-2's published communication characteristics: Radix and
    /// Ocean stress the network, Water and Raytrace barely load it.
    pub fn params(self) -> AppParams {
        match self {
            SplashApp::Fft => AppParams {
                issue_prob: 0.060,
                locality: 0.20,
                l2_miss_rate: 0.10,
                txns_per_core: 400,
                burst_len: 8,
            },
            SplashApp::Lu => AppParams {
                issue_prob: 0.050,
                locality: 0.60,
                l2_miss_rate: 0.06,
                txns_per_core: 400,
                burst_len: 4,
            },
            SplashApp::Radiosity => AppParams {
                issue_prob: 0.030,
                locality: 0.40,
                l2_miss_rate: 0.05,
                txns_per_core: 300,
                burst_len: 3,
            },
            SplashApp::Ocean => AppParams {
                issue_prob: 0.120,
                locality: 0.70,
                l2_miss_rate: 0.12,
                txns_per_core: 500,
                burst_len: 8,
            },
            SplashApp::Raytrace => AppParams {
                issue_prob: 0.025,
                locality: 0.30,
                l2_miss_rate: 0.08,
                txns_per_core: 300,
                burst_len: 2,
            },
            SplashApp::Radix => AppParams {
                issue_prob: 0.150,
                locality: 0.15,
                l2_miss_rate: 0.15,
                txns_per_core: 500,
                burst_len: 10,
            },
            SplashApp::Water => AppParams {
                issue_prob: 0.020,
                locality: 0.50,
                l2_miss_rate: 0.04,
                txns_per_core: 300,
                burst_len: 2,
            },
            SplashApp::Fmm => AppParams {
                issue_prob: 0.050,
                locality: 0.35,
                l2_miss_rate: 0.07,
                txns_per_core: 350,
                burst_len: 4,
            },
            SplashApp::Barnes => AppParams {
                issue_prob: 0.060,
                locality: 0.30,
                l2_miss_rate: 0.08,
                txns_per_core: 350,
                burst_len: 4,
            },
        }
    }
}

/// Per-core progress state.
#[derive(Debug, Clone)]
struct CoreState {
    /// Transactions not yet issued.
    to_issue: u32,
    /// Requests in flight (MSHR occupancy).
    outstanding: usize,
    /// Transactions completed (data reply received).
    completed: u32,
    rng: Rng,
    /// The four nearest L2 banks, precomputed.
    near_banks: [NodeId; 4],
    /// Remaining requests of the current burst and their home bank.
    burst: u32,
    burst_home: NodeId,
}

/// Closed-loop SPLASH-2 traffic model (see module docs).
pub struct SplashTraffic {
    app: SplashApp,
    params: AppParams,
    mem: MemoryParams,
    banks: Vec<NodeId>,
    cores: Vec<CoreState>,
    num_cores: usize,
    /// Protocol actions waiting out a service latency.
    pending: TimedChannel<PendingOp>,
    pending_count: usize,
    /// Requestor of each in-flight directory->owner forward packet.
    forward_requestor: std::collections::HashMap<PacketId, NodeId>,
    next_seq: u64,
    data_flits: u8,
}

/// A protocol action scheduled after a service latency.
#[derive(Debug, Clone, Copy)]
enum PendingOp {
    /// Directory forwards the request to the owner core.
    Forward {
        directory: NodeId,
        owner: NodeId,
        requestor: NodeId,
    },
    /// `from` sends the 4-flit data block to `requestor` (either the owner
    /// core after a cache-to-cache transfer or the directory after memory).
    Data { from: NodeId, requestor: NodeId },
}

impl SplashTraffic {
    /// Workload with the application's standard parameters.
    pub fn new(app: SplashApp, mesh: Mesh, seed: u64) -> SplashTraffic {
        SplashTraffic::with_params(app, app.params(), mesh, seed)
    }

    /// Workload with custom parameters (scaled-down test runs, ablations).
    pub fn with_params(app: SplashApp, params: AppParams, mesh: Mesh, seed: u64) -> SplashTraffic {
        let mem = MemoryParams::default();
        let banks = bank_nodes(&mesh);
        assert!(!banks.is_empty());
        let cores: Vec<CoreState> = (0..mesh.num_nodes())
            .map(|i| {
                let node = NodeId(i as u16);
                let mut by_dist: Vec<NodeId> = banks.clone();
                by_dist.sort_by_key(|&b| (mesh.hop_distance(node, b), b.0));
                CoreState {
                    to_issue: params.txns_per_core,
                    outstanding: 0,
                    completed: 0,
                    rng: Rng::stream(seed, 0x59A5 ^ i as u64),
                    near_banks: [
                        by_dist[0],
                        by_dist[1.min(by_dist.len() - 1)],
                        by_dist[2.min(by_dist.len() - 1)],
                        by_dist[3.min(by_dist.len() - 1)],
                    ],
                    burst: 0,
                    burst_home: NodeId(0),
                }
            })
            .collect();
        // 64-byte block over 128-bit flits = 4 data flits.
        let data_flits = (mem.block_bytes * 8 / 128).max(1) as u8;
        let num_cores = cores.len();
        SplashTraffic {
            app,
            params,
            mem,
            banks,
            cores,
            num_cores,
            pending: TimedChannel::new(),
            pending_count: 0,
            forward_requestor: std::collections::HashMap::new(),
            next_seq: 0,
            data_flits,
        }
    }

    fn next_id(&mut self) -> PacketId {
        let id = PacketId(self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Total transactions completed so far across all cores.
    pub fn completed(&self) -> u64 {
        self.cores.iter().map(|c| c.completed as u64).sum()
    }

    /// Total transactions each run must complete.
    pub fn total_txns(&self) -> u64 {
        self.params.txns_per_core as u64 * self.cores.len() as u64
    }

    /// The L2 bank nodes.
    pub fn banks(&self) -> &[NodeId] {
        &self.banks
    }

    pub fn app(&self) -> SplashApp {
        self.app
    }
}

/// L2 banks live at the odd-odd coordinates (16 banks on an 8x8 mesh),
/// evenly spreading reply traffic.
pub fn bank_nodes(mesh: &Mesh) -> Vec<NodeId> {
    mesh.nodes()
        .filter(|&n| {
            let c = mesh.coord_of(n);
            c.x % 2 == 1 && c.y % 2 == 1
        })
        .collect()
}

impl TrafficModel for SplashTraffic {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();

        // Due protocol actions become packets.
        for op in self.pending.recv_due(cycle) {
            self.pending_count -= 1;
            match op {
                PendingOp::Forward {
                    directory,
                    owner,
                    requestor,
                } => {
                    let id = self.next_id();
                    self.forward_requestor.insert(id, requestor);
                    out.push(PacketDesc {
                        id,
                        src: directory,
                        dst: owner,
                        len: 1,
                        created: cycle,
                        kind: FlitKind::Forward,
                    });
                }
                PendingOp::Data { from, requestor } => {
                    let id = self.next_id();
                    out.push(PacketDesc {
                        id,
                        src: from,
                        dst: requestor,
                        len: self.data_flits,
                        created: cycle,
                        kind: FlitKind::Data,
                    });
                }
            }
        }

        // Cores issue new requests under the MSHR window. Issue is bursty:
        // once the coin fires, `burst_len` back-to-back requests stream to
        // the same home bank (one per cycle while the MSHR allows).
        let mshr = self.mem.mshr_entries;
        for i in 0..self.cores.len() {
            let core = &mut self.cores[i];
            if core.to_issue == 0 || core.outstanding >= mshr {
                continue;
            }
            if core.burst == 0 {
                if !core.rng.gen_bool(self.params.issue_prob) {
                    continue;
                }
                let src = NodeId(i as u16);
                let home = if core.rng.gen_bool(self.params.locality) {
                    core.near_banks[core.rng.gen_index(4)]
                } else {
                    self.banks[core.rng.gen_index(self.banks.len())]
                };
                // A bank node's own requests to itself would not use the
                // network; redirect to a random other bank.
                core.burst_home = if home == src {
                    self.banks[(self.banks.iter().position(|&b| b == src).unwrap() + 1)
                        % self.banks.len()]
                } else {
                    home
                };
                core.burst = self.params.burst_len.max(1);
            }
            core.burst -= 1;
            let src = NodeId(i as u16);
            let home = core.burst_home;
            core.to_issue -= 1;
            core.outstanding += 1;
            let id = self.next_id();
            out.push(PacketDesc {
                id,
                src,
                dst: home,
                len: 1,
                created: cycle,
                kind: FlitKind::Request,
            });
        }
        out
    }

    fn on_delivered(&mut self, d: &DeliveredPacket) {
        match d.kind {
            FlitKind::Request => {
                // The directory looks up the block. Most misses are served
                // by a cache-to-cache transfer from the owner's private L2;
                // the rest go to memory and the directory replies itself.
                let directory = d.dst;
                let requestor = d.src;
                let rng = &mut self.cores[requestor.index()].rng;
                let memory = rng.gen_bool(self.params.l2_miss_rate);
                if memory {
                    let service =
                        self.mem.directory_latency_cycles + self.mem.memory_latency_cycles;
                    self.pending.send(
                        d.delivered,
                        service.max(1),
                        PendingOp::Data {
                            from: directory,
                            requestor,
                        },
                    );
                } else {
                    // Pick the owner core: with `locality`, a neighbour of
                    // the requestor (producer-consumer sharing); otherwise
                    // any other core.
                    let n = self.num_cores;
                    let owner = if rng.gen_bool(self.params.locality) {
                        let delta = [1, n - 1, 8 % n, n - 8 % n][rng.gen_index(4)];
                        NodeId(((requestor.index() + delta) % n) as u16)
                    } else {
                        let mut o = rng.gen_index(n - 1);
                        if o >= requestor.index() {
                            o += 1;
                        }
                        NodeId(o as u16)
                    };
                    let owner = if owner == requestor {
                        NodeId(((owner.index() + 1) % n) as u16)
                    } else {
                        owner
                    };
                    if owner == directory {
                        // The directory node's own core owns the block: the
                        // forward is router-local, so only the data reply
                        // crosses the network.
                        let service =
                            self.mem.directory_latency_cycles + self.mem.l2_latency_cycles;
                        self.pending.send(
                            d.delivered,
                            service.max(1),
                            PendingOp::Data {
                                from: owner,
                                requestor,
                            },
                        );
                    } else {
                        self.pending.send(
                            d.delivered,
                            self.mem.directory_latency_cycles.max(1),
                            PendingOp::Forward {
                                directory,
                                owner,
                                requestor,
                            },
                        );
                    }
                }
                self.pending_count += 1;
            }
            FlitKind::Forward => {
                // The owner's private L2 serves the block after a hit
                // latency.
                let owner = d.dst;
                let requestor = self
                    .forward_requestor
                    .remove(&d.id)
                    .expect("forward without recorded requestor");
                self.pending.send(
                    d.delivered,
                    self.mem.l2_latency_cycles.max(1),
                    PendingOp::Data {
                        from: owner,
                        requestor,
                    },
                );
                self.pending_count += 1;
            }
            FlitKind::Data => {
                let core = &mut self.cores[d.dst.index()];
                debug_assert!(core.outstanding > 0, "reply without outstanding request");
                core.outstanding = core.outstanding.saturating_sub(1);
                core.completed += 1;
            }
            FlitKind::Synthetic => {}
        }
    }

    fn finished(&self) -> bool {
        self.pending_count == 0
            && self.forward_requestor.is_empty()
            && self
                .cores
                .iter()
                .all(|c| c.to_issue == 0 && c.outstanding == 0)
    }

    fn ascending_ids(&self) -> bool {
        true
    }

    fn lossless(&self) -> bool {
        true // every request/reply must eventually deliver or cores stall
    }

    fn label(&self) -> String {
        format!("SPLASH-2 {}", self.app.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn sixteen_banks_on_8x8() {
        let banks = bank_nodes(&mesh8());
        assert_eq!(banks.len(), 16);
        for b in banks {
            let c = mesh8().coord_of(b);
            assert_eq!(c.x % 2, 1);
            assert_eq!(c.y % 2, 1);
        }
    }

    #[test]
    fn tables_match_paper_values() {
        let p = ProcessorParams::default();
        assert_eq!(p.frequency_ghz, 3);
        assert_eq!(p.l1_size_kb, 64);
        assert_eq!(p.write_buffer_entries, 16);
        let m = MemoryParams::default();
        assert_eq!(m.l2_banks, 16);
        assert_eq!(m.l2_latency_cycles, 4);
        assert_eq!(m.memory_latency_cycles, 160);
        assert_eq!(m.directory_latency_cycles, 80);
        assert_eq!(m.mshr_entries, 16);
        assert_eq!(m.coherence, "MESI");
    }

    #[test]
    fn all_apps_have_distinct_params() {
        let mut intensities: Vec<u64> = SplashApp::ALL
            .iter()
            .map(|a| (a.params().issue_prob * 1e6) as u64)
            .collect();
        intensities.sort_unstable();
        // Radix is the most intense, Water the least.
        assert_eq!(
            SplashApp::Radix.params().issue_prob,
            *intensities
                .last()
                .map(|&v| v as f64 / 1e6)
                .as_ref()
                .unwrap()
        );
        assert_eq!(
            SplashApp::Water.params().issue_prob,
            intensities[0] as f64 / 1e6
        );
    }

    #[test]
    fn requests_target_banks_only() {
        let mut t = SplashTraffic::new(SplashApp::Ocean, mesh8(), 3);
        let banks = t.banks().to_vec();
        for c in 0..200 {
            for p in t.poll(c) {
                assert_eq!(p.kind, FlitKind::Request);
                assert!(banks.contains(&p.dst), "{} not a bank", p.dst);
                assert_ne!(p.src, p.dst);
                assert_eq!(p.len, 1);
            }
        }
    }

    #[test]
    fn mshr_window_limits_outstanding() {
        let mut t = SplashTraffic::new(SplashApp::Radix, mesh8(), 3);
        // Never deliver anything: every core saturates at 16 outstanding.
        for c in 0..2000 {
            let _ = t.poll(c);
        }
        for core in &t.cores {
            assert!(core.outstanding <= 16);
        }
        let stuck: usize = t.cores.iter().map(|c| c.outstanding).sum();
        assert_eq!(stuck, 64 * 16, "all cores should fill their MSHRs");
        // No forward progress possible -> more polls add nothing.
        assert!(t.poll(5000).is_empty());
    }

    #[test]
    fn request_reply_cycle_completes_transactions() {
        let mesh = mesh8();
        let mut t = SplashTraffic::new(SplashApp::Water, mesh, 5);
        let mut cycle = 0u64;
        let mut in_flight: Vec<PacketDesc> = Vec::new();
        // Ideal zero-latency network: deliver every packet 1 cycle later.
        while !t.finished() && cycle < 2_000_000 {
            for p in t.poll(cycle) {
                in_flight.push(p);
            }
            let deliver: Vec<PacketDesc> = std::mem::take(&mut in_flight);
            for p in deliver {
                t.on_delivered(&DeliveredPacket {
                    id: p.id,
                    src: p.src,
                    dst: p.dst,
                    kind: p.kind,
                    created: p.created,
                    delivered: cycle + 1,
                });
            }
            cycle += 1;
        }
        assert!(t.finished(), "workload did not finish");
        assert_eq!(t.completed(), t.total_txns());
    }

    #[test]
    fn data_replies_are_four_flits() {
        let mesh = mesh8();
        let mut t = SplashTraffic::new(SplashApp::Fft, mesh, 5);
        assert_eq!(t.data_flits, 4);
        // Drive one request through and look at the reply.
        let reqs = loop {
            let r = t.poll(0);
            if !r.is_empty() {
                break r;
            }
        };
        let req = reqs[0];
        t.on_delivered(&DeliveredPacket {
            id: req.id,
            src: req.src,
            dst: req.dst,
            kind: FlitKind::Request,
            created: 0,
            delivered: 10,
        });
        // Deliver any directory->owner forward instantly; the data block
        // must then follow (either from the owner or from the directory
        // after the memory path).
        let mut forward_src = None;
        let mut found = None;
        for c in 11..3000 {
            for p in t.poll(c) {
                match p.kind {
                    FlitKind::Forward => {
                        assert_eq!(p.src, req.dst, "forward leaves the directory");
                        assert_eq!(p.len, 1);
                        forward_src = Some(p.dst);
                        t.on_delivered(&DeliveredPacket {
                            id: p.id,
                            src: p.src,
                            dst: p.dst,
                            kind: FlitKind::Forward,
                            created: p.created,
                            delivered: c,
                        });
                    }
                    FlitKind::Data => found = Some(p),
                    _ => {}
                }
            }
            if found.is_some() {
                break;
            }
        }
        let reply = found.expect("no reply generated");
        assert_eq!(reply.len, 4);
        // Cache-to-cache replies come from the owner; memory replies from
        // the directory itself.
        match forward_src {
            Some(owner) => assert_eq!(reply.src, owner),
            None => assert_eq!(reply.src, req.dst),
        }
        assert_eq!(reply.dst, req.src);
    }

    #[test]
    fn forwards_spread_reply_sources_across_cores() {
        // With private L2s most replies are cache-to-cache: drive many
        // transactions through an ideal network and check that data packets
        // originate from many distinct nodes, not just the 16 directories.
        let mesh = mesh8();
        let mut t = SplashTraffic::new(SplashApp::Fft, mesh, 11);
        let mut sources = std::collections::HashSet::new();
        let mut in_flight: Vec<PacketDesc> = Vec::new();
        for cycle in 0..30_000u64 {
            for p in t.poll(cycle) {
                if p.kind == FlitKind::Data {
                    sources.insert(p.src);
                }
                in_flight.push(p);
            }
            for p in in_flight.drain(..) {
                t.on_delivered(&DeliveredPacket {
                    id: p.id,
                    src: p.src,
                    dst: p.dst,
                    kind: p.kind,
                    created: p.created,
                    delivered: cycle + 1,
                });
            }
            if t.finished() {
                break;
            }
        }
        assert!(
            sources.len() > 32,
            "reply sources too concentrated: {} nodes",
            sources.len()
        );
    }

    #[test]
    fn bursts_stream_to_one_home() {
        // Once a burst starts, its requests go back-to-back to the same
        // home bank (the paper-era coherence streams our model imitates).
        let mut t = SplashTraffic::new(SplashApp::Radix, mesh8(), 7); // burst_len 10
        let mut per_core_homes: std::collections::HashMap<u16, Vec<NodeId>> = Default::default();
        for c in 0..50 {
            for p in t.poll(c) {
                per_core_homes.entry(p.src.0).or_default().push(p.dst);
            }
        }
        // Within the first burst_len requests of any core, the home is
        // constant.
        let burst = SplashApp::Radix.params().burst_len as usize;
        let mut checked = 0;
        for homes in per_core_homes.values() {
            if homes.len() >= burst {
                let first = homes[0];
                assert!(
                    homes[..burst].iter().all(|&h| h == first),
                    "burst split homes"
                );
                checked += 1;
            }
        }
        assert!(checked > 5, "too few bursts observed ({checked})");
    }

    #[test]
    fn label_mentions_app() {
        let t = SplashTraffic::new(SplashApp::Barnes, mesh8(), 1);
        assert_eq!(t.label(), "SPLASH-2 Barnes");
    }
}
