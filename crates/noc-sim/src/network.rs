//! The network: routers + links + injection queues + ejection/reassembly +
//! SCARAB drop/NACK bookkeeping.
//!
//! # Hot-path storage
//!
//! Wires carry flits: a link is a [`DelayLine<Flit>`] ring inside the
//! receiving node's own `in_links` element, written by the upstream
//! neighbour and read in sweep order, so a hop touches no shared store.
//! Traffic *waiting to enter* the network is not flits yet: a node's
//! [`SourceQueue`] holds one 24-byte range per queued packet, and the one
//! flit a router looks at every cycle, the queue head, is built when it is
//! first offered (in the tile that owns the node) and exists nowhere else.
//! Together with the per-shard [`StepCtx`] and the scratch buffers below,
//! a warmed-up run with tracing, verification and resilience disabled
//! performs **zero heap allocations per cycle** at any tile count (pinned
//! by `tests/zero_alloc.rs` and the root crate's allocation-regression
//! test).
//!
//! # One stepping engine
//!
//! A cycle is a sequential prologue (retransmissions, traffic poll,
//! resilience timers), a sweep of [`step_tile`] over every tile of the
//! mesh, and a sequential commit that lands everything the sweep buffered
//! — seam sends, statistics, the step records the attached observers
//! read, ACKs, completions, drops — in ascending node order.
//! [`Network::set_tile_threads`] (or the `DXBAR_TILE_THREADS` environment
//! variable, read at construction) picks the number of tiles: one tile is
//! stepped inline on the caller's thread and *is* the sequential sweep; N
//! tiles are stepped by a persistent worker pool. Every observable result
//! — `RunResult` bytes, golden replay hashes, trace event streams,
//! verifier check counts, resilience accounting — is **bit-identical** at
//! any tile count. See [`crate::tiles`] for the worker half and the
//! race-freedom argument.
//!
//! # One observer seam
//!
//! Whatever watches a run — the trace recorder, the runtime oracles — is
//! an [`Observer`] attached with [`Network::attach`] and taken back with
//! [`Network::detach`]; [`crate::verify`] has the hooks and their order.

use crate::reassembly::Reassembler;
use crate::resilience::ResilienceState;
use crate::router::RouterModel;
use crate::source_queue::SourceQueue;
use crate::tiles::{step_tile, SharedGrid, SharedShards, TileEngine};
use crate::verify::{Interest, Observer};
use crate::{CREDIT_LATENCY, LINK_LATENCY};
use noc_core::flit::{Flit, PacketDesc};
use noc_core::stats::{EventCounts, NetStats};
use noc_core::types::{Cycle, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_core::SimConfig;
use noc_resilience::{ResiliencePlan, TimeoutAction};
use noc_topology::link::TimedChannel;
use noc_topology::{DelayLine, Mesh};
use noc_trace::CycleSample;
use noc_traffic::generator::{DeliveredPacket, TrafficModel};
use std::any::Any;
use std::ops::Range;

/// A complete simulated network of one router design.
///
/// `R` is the router type stepped at every node. The paper's designs run
/// statically dispatched (`Network<RouterKind>` via `Design::build`);
/// external implementors keep the dynamic form, which is the default
/// (`Network` = `Network<Box<dyn RouterModel>>`).
pub struct Network<R: RouterModel = Box<dyn RouterModel>> {
    mesh: Mesh,
    cfg: SimConfig,
    routers: Vec<R>,
    /// `neighbors[node][d]`: the node across the output link in direction
    /// `d` (`None` at mesh edges). Precomputed once — the send and credit
    /// loops look this up per flit-hop, and the table replaces a
    /// coordinate round-trip with one indexed load.
    neighbors: Vec<[Option<NodeId>; NUM_LINK_PORTS]>,
    /// `in_links[node][d]`: flits arriving at `node` on input port `d`
    /// (fed by the neighbour in direction `d`), by value. `None` at mesh
    /// edges.
    in_links: Vec<[Option<DelayLine<Flit>>; NUM_LINK_PORTS]>,
    /// `in_credits[node][d]`: credits returning to `node` for its *output*
    /// link in direction `d`.
    in_credits: Vec<[Option<DelayLine<u32>>; NUM_LINK_PORTS]>,
    /// Per-node injection queues (source side of the PE).
    source_queues: Vec<SourceQueue>,
    /// Flits taken off a link so far. Every flit put on a link counted one
    /// `events.link_traversals`, so the difference is what is on the wires
    /// now ([`flits_on_wire`](Self::flits_on_wire)).
    link_arrivals: u64,
    /// Reassembly state, one per tile shard (ejections happen at the
    /// flit's destination, so each shard's reassembler is tile-local).
    reassemblers: Vec<Reassembler>,
    /// SCARAB NACK/retransmission channel: dropped flits travel back to the
    /// source (as a NACK) and are re-enqueued at the head of its queue.
    /// Carries flits by value — a NACK in flight belongs to no node.
    retransmits: TimedChannel<Flit>,
    stats: NetStats,
    cycle: Cycle,
    /// Flits that could not be queued because the source queue was full
    /// (offered-load bookkeeping at deep saturation).
    pub source_overflow: u64,
    /// One past the largest packet id polled so far, while every poll has
    /// come from a model that promises ascending ids and kept the promise;
    /// `None` once one did not. Bounds the retirement floor.
    next_fresh_id: Option<u64>,
    /// Attached observers (trace recorder, oracles). None by default,
    /// which keeps every router's `TraceBuf` and `ProbeBuf` disabled and
    /// the hot path at one branch per emission site.
    observers: Vec<Box<dyn Observer>>,
    /// Resilience layer (fault injection + CRC/ARQ recovery). `None` keeps
    /// the engine byte-identical to a fault-free build.
    resilience: Option<ResilienceState>,
    /// The stepping engine: tile partition, worker slots, per-shard
    /// step contexts and outboxes.
    tiles: TileEngine,
    /// `DXBAR_TILE_CANARY`: deliberately release seam credits one cycle
    /// stale during the commit phase — the classic double-buffer flush
    /// bug, seeded so the worker-count equivalence suite can prove it
    /// catches real cross-seam regressions. One-tile runs have no seams
    /// and are unaffected.
    canary: bool,
    /// Scratch for `TrafficModel::poll_into` (one use per cycle).
    poll_scratch: Vec<PacketDesc>,
    /// Scratch for draining the retransmission channel.
    retx_scratch: Vec<Flit>,
    /// Scratch for the per-router occupancy snapshot — filled only when an
    /// observer is attached.
    occ_scratch: Vec<usize>,
    /// Scratch for the resilience cycle prologue.
    degraded_scratch: Vec<NodeId>,
    action_scratch: Vec<TimeoutAction>,
}

impl<R: RouterModel> Network<R> {
    /// Build a network: one router per node from `factory`.
    pub fn new(cfg: &SimConfig, factory: &dyn Fn(NodeId) -> R) -> Network<R> {
        // Unreachable from a validated plan: `RunPlan::validate` runs
        // `SimConfig::validate` first.
        cfg.validate().expect("invalid SimConfig");
        let mesh = Mesh::for_config(cfg);
        let n = mesh.num_nodes();
        let routers: Vec<R> = mesh.nodes().map(factory).collect();
        for (i, r) in routers.iter().enumerate() {
            assert_eq!(r.node(), NodeId(i as u16), "factory returned wrong node id");
        }
        let mut in_links = Vec::with_capacity(n);
        let mut in_credits = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);
        for node in mesh.nodes() {
            let mut links: [Option<DelayLine<Flit>>; NUM_LINK_PORTS] = [None, None, None, None];
            let mut credits: [Option<DelayLine<u32>>; NUM_LINK_PORTS] = [None, None, None, None];
            let mut nbrs: [Option<NodeId>; NUM_LINK_PORTS] = [None; NUM_LINK_PORTS];
            for d in LINK_DIRECTIONS {
                if let Some(nbr) = mesh.neighbor(node, d) {
                    links[d.index()] = Some(DelayLine::new(LINK_LATENCY));
                    credits[d.index()] = Some(DelayLine::new(CREDIT_LATENCY));
                    nbrs[d.index()] = Some(nbr);
                }
            }
            in_links.push(links);
            in_credits.push(credits);
            neighbors.push(nbrs);
        }
        let mut net = Network {
            tiles: TileEngine::new(mesh.width(), mesh.height(), 1),
            mesh,
            cfg: cfg.clone(),
            routers,
            neighbors,
            in_links,
            in_credits,
            source_queues: (0..n)
                .map(|_| SourceQueue::new(cfg.source_queue_cap))
                .collect(),
            link_arrivals: 0,
            reassemblers: vec![Reassembler::new()],
            retransmits: TimedChannel::new(),
            stats: NetStats::default(),
            cycle: 0,
            source_overflow: 0,
            next_fresh_id: Some(0),
            observers: Vec::new(),
            resilience: None,
            canary: std::env::var("DXBAR_TILE_CANARY").is_ok_and(|v| v.trim() == "1"),
            poll_scratch: Vec::new(),
            retx_scratch: Vec::new(),
            occ_scratch: Vec::new(),
            degraded_scratch: Vec::new(),
            action_scratch: Vec::new(),
        };
        let tile_req = rayon::tile_threads();
        if tile_req > 1 {
            net.set_tile_threads(tile_req);
        }
        net
    }

    /// Shard the mesh into (up to) `threads` rectangular tiles, one per
    /// worker of a persistent pool. `0` and `1` both mean one tile stepped
    /// inline on the caller's thread — the sequential sweep, no pool.
    /// Results are bit-identical at every setting, so this is a throughput
    /// knob only — it deliberately stays out of `SimConfig` and any result
    /// cache identity.
    ///
    /// Must be called before the first [`step`](Self::step): reassembly
    /// state re-shards along tile boundaries.
    pub fn set_tile_threads(&mut self, threads: usize) {
        assert_eq!(
            self.cycle, 0,
            "tile threads must be configured before the first step"
        );
        self.tiles = TileEngine::new(self.mesh.width(), self.mesh.height(), threads);
        let nt = self.tiles.partition.num_tiles();
        self.reassemblers = (0..nt).map(|_| Reassembler::new()).collect();
    }

    /// Number of tiles the engine steps (1 = the inline sequential sweep).
    /// May be less than requested when the mesh cannot be cut that many
    /// ways.
    pub fn tile_threads(&self) -> usize {
        self.tiles.partition.num_tiles()
    }

    /// Attach a resilience plan: link faults, transient strikes and the NI
    /// retransmission protocol become live from the next cycle. (Permanent
    /// crossbar faults live inside the router models and are configured at
    /// construction, not here.)
    pub fn set_resilience(&mut self, plan: ResiliencePlan) {
        self.resilience = Some(ResilienceState::new(&self.mesh, plan));
    }

    /// The attached resilience state, if any (read-only view).
    pub fn resilience(&self) -> Option<&ResilienceState> {
        self.resilience.as_ref()
    }

    /// Attach an observer; from the next cycle on it is fed what its
    /// [`Interest`] asks for (see [`crate::verify`]).
    pub fn attach<T: Observer>(&mut self, observer: T) {
        self.observers.push(Box::new(observer));
    }

    /// Detach the first attached observer of type `T` and hand it back, so
    /// callers can collect what it saw after a run.
    pub fn detach<T: Observer>(&mut self) -> Option<T> {
        let i = self
            .observers
            .iter()
            .position(|o| (&**o as &dyn Any).is::<T>())?;
        let observer: Box<dyn Any> = self.observers.remove(i);
        observer.downcast().ok().map(|o| *o)
    }

    /// The first attached observer of type `T` (read-only view).
    pub fn observer<T: Observer>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| (&**o as &dyn Any).downcast_ref())
    }

    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn design_name(&self) -> &'static str {
        self.routers[0].design_name()
    }

    /// Design name of the router at one node. Homogeneous networks return
    /// [`design_name`](Self::design_name) everywhere; heterogeneous mixes
    /// (the scenario engine's island fabrics) differ per node.
    pub fn router_design_name(&self, node: NodeId) -> &'static str {
        self.routers[node.index()].design_name()
    }

    /// Whether every node runs the same router design.
    pub fn is_homogeneous(&self) -> bool {
        let first = self.routers[0].design_name();
        self.routers.iter().all(|r| r.design_name() == first)
    }

    /// The measurement window, in cycles.
    fn window(&self) -> Range<Cycle> {
        let lo = self.cfg.warmup_cycles;
        lo..lo + self.cfg.measure_cycles
    }

    /// Advance the network by one cycle, pulling new packets from `model`.
    pub fn step(&mut self, model: &mut dyn TrafficModel) {
        let t = self.cycle;

        if t == self.cfg.warmup_cycles {
            self.stats.events_at_window_start = self.stats.events;
            self.stats.measured_cycles = self.cfg.measure_cycles;
        }

        // 1. Retransmissions due this cycle rejoin their source queue at the
        //    head (SCARAB's source retransmit buffer has priority).
        self.retx_scratch.clear();
        self.retransmits.recv_due_into(t, &mut self.retx_scratch);
        for k in 0..self.retx_scratch.len() {
            self.requeue_front(self.retx_scratch[k]);
        }

        // 2. New packets from the traffic model. Open-loop models tolerate
        //    source-side loss beyond the queue cap (the surplus still counts
        //    as offered load); lossless (closed-loop) models enqueue
        //    unconditionally — their in-flight volume is bounded by the
        //    workload's own windows, not by the cap.
        //
        //    When a drain phase is configured (open-loop methodology), the
        //    generator is cut off at the end of the measurement window so
        //    the drain only serves in-flight packets; closed-loop runs use
        //    drain_cycles = 0 and poll throughout.
        let window = self.window();
        if self.cfg.drain_cycles == 0 || t < window.end {
            let offered_now = window.contains(&t);
            let lossless = model.lossless();
            let ascending = model.ascending_ids();
            self.poll_scratch.clear();
            model.poll_into(t, &mut self.poll_scratch);
            for desc in &self.poll_scratch {
                self.next_fresh_id = self
                    .next_fresh_id
                    .filter(|&next| ascending && desc.id.0 >= next)
                    .map(|_| desc.id.0 + 1);
                let q = &mut self.source_queues[desc.src.index()];
                let room = if lossless {
                    usize::MAX
                } else {
                    self.cfg.source_queue_cap.saturating_sub(q.len())
                };
                self.source_overflow += q.push(desc, room) as u64;
                self.stats.record_offered(desc.len as u64, offered_now);
            }
        }

        self.cycle_tiles(t, model);
        self.cycle += 1;
    }

    /// Put `flit` at the head of its source's queue: SCARAB and ARQ
    /// retransmissions have priority over fresh traffic.
    fn requeue_front(&mut self, flit: Flit) {
        self.source_queues[flit.src.index()].requeue_front(flit);
    }

    /// Resilience-layer cycle prologue: publish link-fault onsets to the
    /// degraded routers, arm this cycle's transient strikes, deliver due
    /// ACK/NACKs to the source NIs, and fire retransmission timeouts.
    fn resilience_begin_cycle(&mut self, t: Cycle) {
        let Some(res) = self.resilience.as_mut() else {
            return;
        };
        let degraded = &mut self.degraded_scratch;
        degraded.clear();
        res.apply_onsets(t, degraded);
        for node in degraded.drain(..) {
            let mask = res.link_down[node.index()];
            self.routers[node.index()].set_faulty_links(mask);
        }

        res.arm_strikes(t);

        let mut actions = std::mem::take(&mut self.action_scratch);
        actions.clear();
        for msg in res.acks.recv_due(t) {
            let ni = &mut res.senders[msg.to.index()];
            if msg.nack {
                if let Some(a) = ni.on_nack(msg.seq) {
                    actions.push(a);
                }
            } else {
                ni.on_ack(msg.seq);
            }
        }
        for ni in res.senders.iter_mut() {
            ni.poll(t, &mut actions);
        }
        for action in actions.drain(..) {
            match action {
                TimeoutAction::Retransmit(flit) => {
                    self.stats.events.ni_retransmits += 1;
                    for o in &mut self.observers {
                        o.on_retransmit_queued(&flit);
                    }
                    self.requeue_front(flit);
                }
                TimeoutAction::GiveUp(flit) => {
                    self.stats.events.flits_lost += 1;
                    for o in &mut self.observers {
                        o.on_flit_lost(&flit);
                    }
                }
            }
        }
        self.action_scratch = actions;
    }

    /// Router phase + link phase of one cycle: workers step disjoint tiles
    /// behind a barrier (one tile: the caller steps it inline), then a
    /// sequential commit phase lands every buffered effect in the order a
    /// single ascending-node sweep would have produced it. See
    /// [`crate::tiles`] for why the result does not depend on the tiling.
    fn cycle_tiles(&mut self, t: Cycle, model: &mut dyn TrafficModel) {
        let interest = Interest {
            trace: self.observers.iter().any(|o| o.interest().trace),
            steps: self.observers.iter().any(|o| o.interest().steps),
        };
        for o in &mut self.observers {
            o.on_cycle_start(t);
        }
        self.resilience_begin_cycle(t);
        let traversals_before = self.stats.events.link_traversals;
        let window = self.window();
        let engine = &mut self.tiles;

        // Parallel phase: one worker slot per tile (the caller steps tile
        // 0), synchronised by the broadcast barrier.
        let grid = SharedGrid {
            routers: self.routers.as_mut_ptr(),
            in_links: self.in_links.as_mut_ptr(),
            in_credits: self.in_credits.as_mut_ptr(),
            queues: self.source_queues.as_mut_ptr(),
            reassemblers: self.reassemblers.as_mut_ptr(),
            neighbors: &self.neighbors,
            shard_of: engine.partition.shard_of(),
            mesh: self.mesh,
            interest,
            res: self.resilience.as_mut().map(|r| r.tile_view()),
        };
        let partition = &engine.partition;
        let shards = SharedShards(engine.shards.as_mut_ptr());
        engine.workers.broadcast(&|w: usize| {
            // SAFETY: the pool runs one slot per shard, so `w` is in bounds
            // and slot `w` is the only borrower of shard `w`; step_tile
            // touches only tile-`w`-owned grid elements (see SharedGrid),
            // and `broadcast` returns only after every slot finished, so
            // the raw views never outlive `self`.
            let shard = unsafe { shards.shard(w) };
            if interest.any() || grid.res.is_some() {
                step_tile::<R, true>(&grid, partition.nodes(w), shard, w as u16, t);
            } else {
                step_tile::<R, false>(&grid, partition.nodes(w), shard, w as u16, t);
            }
        });

        // Commit phase, sequential. Seam sends first: every delay line has
        // exactly one writer per cycle and a send at `t` lands in a slot no
        // `recv(t)` read, so flushing after the sweep leaves the channels
        // in the state an unseamed sweep would.
        let ejected_in_window = window.contains(&t);
        for shard in engine.shards.iter_mut() {
            for s in shard.seam_flits.drain(..) {
                self.in_links[s.dst.index()][s.dir.index()]
                    .as_mut()
                    .expect("reverse link exists")
                    .send(t, s.flit);
            }
            self.link_arrivals += std::mem::take(&mut shard.link_arrivals);
            // Canary: flush the credits withheld last cycle and withhold
            // this cycle's — one cycle stale. Each wire carries at most one
            // credit per cycle, so shifting every seam credit by a cycle
            // keeps the one-send-per-wire-per-cycle invariant (no DelayLine
            // overrun) while skewing upstream flow control: the seeded
            // double-buffer flush bug the equivalence suite must catch.
            if self.canary {
                std::mem::swap(&mut shard.seam_credits, &mut shard.canary_held);
            }
            for c in shard.seam_credits.drain(..) {
                self.in_credits[c.dst.index()][c.dir.index()]
                    .as_mut()
                    .expect("reverse credit wire exists")
                    .send(t, c.credits);
            }
            // Event counters, ejection statistics and recovery latencies
            // are sums, min/max and bucket increments — commutative, so
            // shard-major replay is bitwise-equal to node order.
            for events in [&mut shard.events, &mut shard.ctx.events] {
                self.stats.events.merge(events);
                *events = EventCounts::default();
            }
            for e in shard.ejects.drain(..) {
                self.stats.record_flit_ejected(
                    e.created,
                    e.hops,
                    t,
                    ejected_in_window,
                    window.contains(&e.created),
                );
            }
            for created in shard.recoveries.drain(..) {
                self.stats
                    .record_recovery(created, t, window.contains(&created));
            }
        }

        // Everything else is order-sensitive — the observers (the oracles'
        // ledger and first-violation report, the bytes of the event
        // stream), the FIFO-sequenced ACK and retransmission channels,
        // `on_delivered` into closed-loop traffic models — and replays in
        // ascending node order through the one k-way merge. The invariant:
        // every per-shard list is node-sorted, and one node's records sit
        // in one list, so the merge reproduces single-sweep order exactly.
        let stats = &mut self.stats;
        if interest.any() {
            let observers = &mut self.observers;
            engine.replay(
                |s| &mut s.steps,
                |r| r.node,
                |run| {
                    for o in observers.iter_mut() {
                        o.on_steps(run);
                    }
                    if interest.steps {
                        // Each node stepped in its own context and left the
                        // outputs in place for the observers; hand it back
                        // drained, as `reset` expects.
                        for r in run {
                            r.ctx.out_links = [None; NUM_LINK_PORTS];
                            stats.events.merge(&r.ctx.events);
                            r.ctx.events = EventCounts::default();
                        }
                    }
                },
            );
        }
        if let Some(res) = self.resilience.as_mut() {
            engine.replay(
                |s| &mut s.acks,
                |a| a.node,
                |run| {
                    for a in run {
                        res.acks.send(t, a.back_hops, a.msg);
                    }
                },
            );
        }
        engine.replay(
            |s| &mut s.dones,
            |r| r.node,
            |run| {
                for r in run {
                    let in_window = window.contains(&r.flit_created);
                    stats.record_packet_done(r.done.src, r.done.created, t, in_window);
                    model.on_delivered(&DeliveredPacket {
                        id: r.done.id,
                        src: r.done.src,
                        dst: r.done.dst,
                        kind: r.done.kind,
                        created: r.done.created,
                        delivered: t,
                    });
                }
            },
        );
        let retransmits = &mut self.retransmits;
        engine.replay(
            |s| &mut s.drops,
            |r| r.node,
            |run| {
                for r in run {
                    retransmits.send(t, r.nack_hops, r.flit);
                }
            },
        );
        for shard in engine.shards.iter_mut() {
            shard.acks.clear();
            shard.dones.clear();
            shard.drops.clear();
        }

        if !self.observers.is_empty() {
            self.occ_scratch.clear();
            for r in &self.routers {
                self.occ_scratch.push(r.occupancy());
            }
            // `flits_in_flight` from the snapshot, without a second scan.
            let in_routers: usize = self.occ_scratch.iter().sum();
            let backlog: usize = self.source_queues.iter().map(|q| q.len()).sum();
            let in_flight = in_routers + backlog + self.flits_on_wire() + self.retransmits.len();
            let sample = CycleSample {
                cycle: t,
                in_flight: in_flight as u64,
                backlog: backlog as u64,
                link_traversals: self.stats.events.link_traversals - traversals_before,
                per_router_occupancy: &self.occ_scratch,
                // Only the oracles' ledger retires ids, and it reads steps.
                retire_floor: if interest.steps {
                    self.retire_floor()
                } else {
                    0
                },
            };
            for o in &mut self.observers {
                o.on_cycle_end(&sample);
            }
        }
    }

    /// The smallest packet id any source may still inject, first time or
    /// again ([`CycleSample::retire_floor`]): queued anywhere in a source
    /// queue, travelling back as a SCARAB NACK, or held in an NI
    /// retransmission window — and never above the next fresh id. 0 while
    /// the traffic model's ids are not known to ascend.
    fn retire_floor(&self) -> u64 {
        let Some(fresh) = self.next_fresh_id else {
            return 0;
        };
        let queued = self.source_queues.iter().filter_map(|q| q.oldest_packet());
        let nacked = self.retransmits.items().map(|f| f.packet.0);
        let windows = self
            .resilience
            .iter()
            .flat_map(|r| r.senders.iter().filter_map(|ni| ni.oldest_packet()));
        queued.chain(nacked).chain(windows).fold(fresh, u64::min)
    }

    /// Run `n` cycles.
    pub fn run_cycles(&mut self, model: &mut dyn TrafficModel, n: u64) {
        for _ in 0..n {
            self.step(model);
        }
    }

    /// True when nothing is in flight anywhere (drain complete).
    pub fn is_quiescent(&self) -> bool {
        self.routers.iter().all(|r| r.is_idle())
            && self.flits_on_wire() == 0
            && self.source_queues.iter().all(|q| q.is_empty())
            && self.retransmits.is_empty()
            && self.reassemblers.iter().all(|r| r.is_empty())
            && self.resilience.as_ref().is_none_or(|r| r.is_quiescent())
    }

    /// Flits currently inside the network (diagnostics).
    pub fn flits_in_flight(&self) -> usize {
        let in_routers: usize = self.routers.iter().map(|r| r.occupancy()).sum();
        // Everything outside the routers is queued at a source, on a
        // wire, or travelling back as a NACK.
        let queued: usize = self.source_queues.iter().map(|q| q.len()).sum();
        in_routers + queued + self.flits_on_wire() + self.retransmits.len()
    }

    /// Flits on the link delay lines: sends minus arrivals, both counted
    /// per shard and merged at commit — no scan of the 4·N rings.
    fn flits_on_wire(&self) -> usize {
        (self.stats.events.link_traversals - self.link_arrivals) as usize
    }

    /// Duplicate flits seen at reassembly (must be 0; exposed for tests).
    pub fn reassembly_duplicates(&self) -> u64 {
        self.reassemblers.iter().map(|r| r.duplicates()).sum()
    }

    /// Flits buffered inside one router (spatial diagnostics).
    pub fn router_occupancy(&self, node: NodeId) -> usize {
        self.routers[node.index()].occupancy()
    }

    /// Flits waiting in one node's injection queue (spatial diagnostics).
    pub fn source_backlog(&self, node: NodeId) -> usize {
        self.source_queues[node.index()].len()
    }
}
