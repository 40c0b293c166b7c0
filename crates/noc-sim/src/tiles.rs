//! The stepping engine's per-node body and its per-tile buffers.
//!
//! The synchronous two-phase update makes the router sweep embarrassingly
//! parallel *except* for the effects one node's step has outside itself.
//! The engine partitions the node sweep into rectangular tiles (one per
//! worker, see [`TilePartition`]) and splits every such effect into a
//! race-free worker half ([`step_tile`], the only per-node body there is)
//! and a deterministic sequential commit half (`Network::cycle_tiles`).
//! One tile stepped inline on the caller's thread *is* the sequential
//! sweep: no seams, no threads, a one-way merge.
//!
//! * **Intra-tile** link/credit sends go straight onto the wires, the
//!   flit by value into the receiver's slot of the send plane — both
//!   endpoints belong to the worker's tile, and the send plane of cycle
//!   `t` is not its receive plane (see [`crate::wires`]), so sweep order
//!   within the cycle is immaterial.
//! * **Seam** sends — receiver owned by another tile — are double-buffered
//!   in the worker's outbox ([`Seam`] records) and flushed by
//!   the commit phase into the same plane. Each wire has exactly one
//!   writer (the upstream neighbour), so a slot is either worker-written
//!   or commit-written, never both; and because the flush still happens at
//!   cycle `t`, the post-cycle planes do not depend on where the seams
//!   are.
//! * **Everything that lands in network-global state** is buffered as
//!   plain records in the [`TileShard`] and replayed by the commit phase:
//!   statistics ([`EjectRec`], recovery latencies, event counters), packet
//!   completions ([`DoneRec`]), SCARAB drops ([`DropRec`]), ACK/NACK sends
//!   ([`AckRec`]), and one [`StepRecord`] per node for the observers.
//!   Commutative counters replay in shard order; everything
//!   order-sensitive replays in ascending node order through
//!   [`TileEngine::replay`], the one k-way merge.
//!
//! **Why replay order equals sweep order.** A worker visits its tile's
//! nodes in ascending id order and appends to its buffers as it goes, so
//! every per-shard list is node-sorted and one node's records are
//! contiguous in exactly one list. Merging the lists by smallest head node
//! therefore yields the records in ascending node order with each node's
//! records in emission order — exactly what a single sweep over all nodes
//! would have produced, whatever the tile grid.
//!
//! Flit storage shards with the tiles. A flit on a wire sits in the
//! receiving node's slot of a link plane, which the receiver's tile owns;
//! traffic waiting at a source sits in that node's [`SourceQueue`] as
//! packet ranges, which the sequential prologue appends to and the owning
//! tile's worker turns into flits — one at a time, as each reaches the
//! front and is offered to the router. Where a flit is built is invisible
//! in every result, which is why neither the tiling nor the queue's
//! representation can perturb a single observable bit.
//!
//! Diagnostics sit behind two facts: what the attached observers read
//! (their [`Interest`]) and whether a resilience plan is attached. The
//! body is written once and compiled twice (`step_tile::<R, DIAG>`): with
//! nobody listening and no plan the gates are constants and fold away,
//! which is worth ~4 % of `kernel_8x8`; otherwise each gate is one
//! branch. A node whose steps are observed steps in its own record's
//! context, which keeps its outputs for the observers; a trace-only run
//! steps every node in the tile's context and moves each node's events
//! into its record by swapping buffers.

use crate::reassembly::{CompletedPacket, Reassembler};
use crate::resilience::AckMsg;
use crate::router::{RouterModel, StepCtx};
use crate::source_queue::SourceQueue;
use crate::verify::{FaultEvent, Interest, StepInputs, StepRecord};
use crate::wires::Planes;
use noc_core::flit::Flit;
use noc_core::hash::FxHashSet;
use noc_core::stats::EventCounts;
use noc_core::types::{Cycle, Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_resilience::{SenderNi, TransientEffect, TransientEvent};
use noc_topology::{Mesh, TilePartition};
use noc_trace::TraceEvent;
use rayon::WorkerPool;

/// The stepping engine every `Network` owns: the tile partition, one
/// worker slot and one [`TileShard`] per tile.
pub(crate) struct TileEngine {
    pub(crate) partition: TilePartition,
    /// One slot per tile, the caller being slot 0 — so a one-tile engine
    /// spawns no thread and `broadcast` is a plain call.
    pub(crate) workers: WorkerPool,
    pub(crate) shards: Vec<TileShard>,
    /// Per-shard cursors of [`replay`](Self::replay).
    cursors: Vec<usize>,
}

impl TileEngine {
    pub(crate) fn new(width: u16, height: u16, threads: usize) -> TileEngine {
        let partition = TilePartition::new(width, height, threads);
        let nt = partition.num_tiles();
        TileEngine {
            partition,
            workers: WorkerPool::new(nt),
            shards: (0..nt).map(|_| TileShard::default()).collect(),
            cursors: vec![0; nt],
        }
    }

    /// The k-way merge: visit the records of every shard's `list` in
    /// ascending node order (see the module docs for why that is the
    /// order one sweep over all nodes emits them in), handed over as
    /// maximal runs from one shard — the records of that shard below every
    /// other shard's next node. One tile yields its whole list at once.
    /// Each list must be node-sorted, which [`step_tile`] guarantees;
    /// lists are left intact for the caller to clear or reuse.
    pub(crate) fn replay<T>(
        &mut self,
        list: impl Fn(&mut TileShard) -> &mut Vec<T>,
        node_of: impl Fn(&T) -> NodeId,
        mut visit: impl FnMut(&mut [T]),
    ) {
        self.cursors.iter_mut().for_each(|c| *c = 0);
        loop {
            // The shard with the smallest head node (the first on a tie),
            // and the smallest head node of all the others: its run stops
            // there.
            let mut pick: Option<(NodeId, usize)> = None;
            let mut bound: Option<NodeId> = None;
            for (w, shard) in self.shards.iter_mut().enumerate() {
                if let Some(rec) = list(shard).get(self.cursors[w]) {
                    let node = node_of(rec);
                    match pick {
                        Some((best, _)) if node >= best => {
                            bound = Some(bound.map_or(node, |b| b.min(node)));
                        }
                        _ => {
                            bound = pick.map(|(best, _)| best);
                            pick = Some((node, w));
                        }
                    }
                }
            }
            let Some((_, w)) = pick else { break };
            let records = list(&mut self.shards[w]);
            let start = self.cursors[w];
            let end = match bound {
                Some(b) => start + 1 + records[start + 1..].partition_point(|r| node_of(r) < b),
                None => records.len(),
            };
            visit(&mut records[start..end]);
            self.cursors[w] = end;
        }
    }
}

/// One worker's private state: its step context plus the outboxes the
/// commit phase drains. All buffers keep their capacity across cycles.
#[derive(Default)]
pub(crate) struct TileShard {
    /// Step context shared by every node of the tile (unless an observer
    /// reads steps).
    pub(crate) ctx: StepCtx,
    /// Counters the engine half of the body adds (link traversals,
    /// injections, ...). Kept apart from `ctx.events` so an observed
    /// node's own context holds exactly the router's own delta.
    pub(crate) events: EventCounts,
    /// Flits this tile's nodes took off their inbound links; with
    /// `events.link_traversals` (the sends) it keeps the on-wire count.
    pub(crate) link_arrivals: u64,
    pub(crate) seam_flits: Vec<Seam<Option<Flit>>>,
    pub(crate) seam_credits: Vec<Seam<u32>>,
    /// `DXBAR_TILE_CANARY` only: seam credits withheld from the last
    /// flush, released one cycle stale. Empty in healthy runs.
    pub(crate) canary_held: Vec<Seam<u32>>,
    pub(crate) ejects: Vec<EjectRec>,
    pub(crate) dones: Vec<DoneRec>,
    pub(crate) drops: Vec<DropRec>,
    /// One record per node of the tile, in tile order (filled only while
    /// an observer is interested; the records and their buffers are
    /// reused every cycle).
    pub(crate) steps: Vec<StepRecord>,
    /// ACK/NACK sends (resilient runs).
    pub(crate) acks: Vec<AckRec>,
    /// Creation cycles of deliveries that needed a retransmission,
    /// replayed into `NetStats::record_recovery` (resilient runs).
    pub(crate) recoveries: Vec<Cycle>,
}

/// A flit or a credit return crossing a tile seam: `item` for `dst`'s
/// input port `dir`.
#[derive(Clone, Copy)]
pub(crate) struct Seam<T> {
    pub(crate) dst: NodeId,
    pub(crate) dir: Direction,
    pub(crate) item: T,
}

/// A flit ejection, replayed into `NetStats::record_flit_ejected`.
#[derive(Clone, Copy)]
pub(crate) struct EjectRec {
    pub(crate) created: Cycle,
    pub(crate) hops: u16,
}

/// A completed packet, replayed in node order (`record_packet_done` +
/// `TrafficModel::on_delivered`). `flit_created` is the completing flit's
/// creation cycle — the measurement-window flag derives from the flit,
/// not the packet head.
#[derive(Clone, Copy)]
pub(crate) struct DoneRec {
    pub(crate) node: NodeId,
    pub(crate) done: CompletedPacket,
    pub(crate) flit_created: Cycle,
}

/// A SCARAB drop, replayed in node order into the retransmission channel
/// (its FIFO sequence numbers make replay order observable).
#[derive(Clone, Copy)]
pub(crate) struct DropRec {
    pub(crate) node: NodeId,
    pub(crate) nack_hops: u64,
    pub(crate) flit: Flit,
}

/// An ACK or NACK leaving the ejection port of `node`, replayed in node
/// order into the (FIFO-sequenced) control channel.
#[derive(Clone, Copy)]
pub(crate) struct AckRec {
    pub(crate) node: NodeId,
    pub(crate) back_hops: u64,
    pub(crate) msg: AckMsg,
}

/// Raw views of the network's per-node arrays, shared across workers for
/// the duration of one parallel phase.
///
/// # Safety contract
///
/// Workers only dereference elements their tile owns: `routers[i]` and
/// `queues[i]` for `i` in the tile, `reassemblers` at the worker's own
/// shard index, and the wire slots of tile nodes — node `i`'s receive
/// slots of `links`/`credits`, plus node `j`'s send slots for intra-tile
/// sends where `shard_of[j]` is the worker's tile. Tiles partition the
/// nodes, so element accesses from different workers never alias; and
/// within a cycle the receive and send planes differ, so one node's two
/// slots never alias either.
///
/// The resilience view ([`ResGrid`]) follows the same rule: `senders[i]`
/// (the source NI of node `i`) and `delivered[i]` (the receiver dedup set
/// of node `i` — a `(src, seq)` pair only ever ejects at its one
/// destination) are dereferenced for `i` in the worker's tile only, and
/// `link_down`/`strikes` are shared borrows nobody writes while the
/// parallel phase runs (onsets and strike arming happen in the sequential
/// cycle prologue).
pub(crate) struct SharedGrid<'a, R> {
    pub(crate) routers: *mut R,
    /// This cycle's link and credit planes.
    pub(crate) links: Planes<Option<Flit>>,
    pub(crate) credits: Planes<u32>,
    pub(crate) queues: *mut SourceQueue,
    pub(crate) reassemblers: *mut Reassembler,
    pub(crate) neighbors: &'a [[Option<NodeId>; NUM_LINK_PORTS]],
    pub(crate) shard_of: &'a [u16],
    pub(crate) mesh: Mesh,
    /// What the attached observers read; see [`step_tile`].
    pub(crate) interest: Interest,
    /// The resilience layer, when a plan is attached.
    pub(crate) res: Option<ResGrid<'a>>,
}

/// The parallel phase's view of `ResilienceState`; see the
/// [`SharedGrid`] safety contract.
pub(crate) struct ResGrid<'a> {
    pub(crate) senders: *mut SenderNi,
    pub(crate) delivered: *mut FxHashSet<(u16, u32)>,
    pub(crate) link_down: &'a [[bool; NUM_LINK_PORTS]],
    pub(crate) strikes: &'a [TransientEvent],
}

// SAFETY: per the contract above, concurrent access through the raw
// pointers is to disjoint elements only, and everything behind the shared
// borrows (`neighbors`, `shard_of`, `link_down`, `strikes`) is plain data
// nobody writes during the parallel phase. `R: Send` makes
// handing each router to whichever thread steps its tile sound; the other
// pointees (wire slots, queues, reassemblers, NIs, dedup sets) own plain
// data and are `Send` unconditionally.
unsafe impl<R: Send> Sync for SharedGrid<'_, R> {}

/// Base pointer of the shard array; each broadcast slot dereferences only
/// its own index.
pub(crate) struct SharedShards(pub(crate) *mut TileShard);

// SAFETY: slot `w` of a broadcast only ever touches shard `w` (see
// `shard`), so no two threads share a `TileShard`; a shard holds plain
// data and is `Send`.
unsafe impl Sync for SharedShards {}

impl SharedShards {
    /// # Safety
    ///
    /// `w` must be in bounds of the shard array, and no other reference
    /// to shard `w` may be live: callers pass a distinct `w` per
    /// concurrent borrow.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn shard(&self, w: usize) -> &mut TileShard {
        // SAFETY: in bounds and unaliased by the caller's contract.
        unsafe { &mut *self.0.add(w) }
    }
}

/// One worker's router phase over its tile — the per-node body of a
/// cycle, with every effect outside the tile split off per the module
/// docs. `nodes` is in ascending id order, so every outbox comes out
/// node-sorted. `DIAG = false` promises that `grid` has no interest and
/// no `res`, and compiles their gates out.
pub(crate) fn step_tile<R: RouterModel, const DIAG: bool>(
    grid: &SharedGrid<'_, R>,
    nodes: &[NodeId],
    shard: &mut TileShard,
    me: u16,
    t: Cycle,
) {
    let TileShard {
        ctx: tile_ctx,
        events,
        link_arrivals,
        seam_flits,
        seam_credits,
        canary_held: _,
        ejects,
        dones,
        drops,
        steps,
        acks,
        recoveries,
    } = shard;
    let tracing = DIAG && grid.interest.trace;
    let stepping = DIAG && grid.interest.steps;
    if (tracing || stepping) && steps.len() != nodes.len() {
        steps.clear();
        steps.extend(nodes.iter().map(|&node| StepRecord::new(node)));
    }
    // SAFETY: `reassemblers[me]` belongs to this worker's shard
    // (SharedGrid contract).
    let reassembler = unsafe { &mut *grid.reassemblers.add(me as usize) };
    for (k, &node) in nodes.iter().enumerate() {
        let i = node.index();
        debug_assert_eq!(grid.shard_of[i], me, "node outside tile");
        let (ctx, mut rec) = if stepping {
            let StepRecord {
                ctx,
                inputs,
                occupancy_before,
                occupancy_after,
                faults,
                ..
            } = &mut steps[k];
            faults.clear();
            (
                ctx,
                Some((inputs, occupancy_before, occupancy_after, faults)),
            )
        } else {
            (&mut *tile_ctx, None)
        };
        ctx.reset(t);
        ctx.trace.set_enabled(tracing);
        ctx.probe.set_enabled(stepping);

        // SAFETY: node `i` is in this worker's tile, which owns its
        // receive slots in both planes, `queues[i]` and `routers[i]`
        // (SharedGrid contract); no send of this cycle writes a receive
        // plane, so taking the slots races with nothing.
        let (arrivals, credits_in, queue, router) = unsafe {
            (
                grid.links.take(i),
                grid.credits.take(i),
                &mut *grid.queues.add(i),
                &mut *grid.routers.add(i),
            )
        };
        let neighbors = &grid.neighbors[i];
        let mut res = grid.res.as_ref().filter(|_| DIAG).map(|r| {
            // SAFETY: the source NI and the dedup set of node `i`, which
            // this worker's tile owns (SharedGrid contract).
            let (ni, seen) = unsafe { (&mut *r.senders.add(i), &mut *r.delivered.add(i)) };
            (r, ni, seen)
        });

        ctx.arrivals = arrivals;
        ctx.credits_in = credits_in;
        *link_arrivals += arrivals.iter().flatten().count() as u64;
        // The queue builds its head flit here, the first time it is
        // offered. The source NI sequences and seals it in place before
        // the offer — the head is the only copy, so the sequence number
        // survives a retransmission cutting in front of it (`sequence`
        // leaves already-sequenced retransmissions alone).
        let mut head = queue.head_mut();
        if let (Some((_, ni, _)), Some(f)) = (res.as_mut(), head.as_deref_mut()) {
            ni.sequence(f);
        }
        ctx.injection = head.copied();

        // Routers may consume (take) their arrivals, so snapshot inputs
        // before stepping. Conservation inputs feed only the debug assert
        // below and the observers; skip the occupancy scans on the
        // unobserved release fast path.
        if let Some((inputs, ..)) = rec.as_mut() {
            **inputs = StepInputs {
                arrivals: ctx.arrivals,
                injection: ctx.injection,
            };
        }
        let conserving = stepping || cfg!(debug_assertions);
        let arrivals_offered = if conserving {
            ctx.arrivals.iter().flatten().count()
        } else {
            0
        };
        let occ_before = if conserving { router.occupancy() } else { 0 };
        router.step(ctx);
        let occ_after = if conserving { router.occupancy() } else { 0 };
        // With the steps observed, conservation violations are the
        // oracles' to report (structured, non-fatal); the hard assert
        // guards unobserved runs only.
        debug_assert!(
            stepping
                || occ_before + arrivals_offered + usize::from(ctx.injected)
                    == occ_after + ctx.flits_out(),
            "flit conservation violated at {node} cycle {t}"
        );
        if let Some((_, before, after, _)) = rec.as_mut() {
            (**before, **after) = (occ_before, occ_after);
        }

        // Outgoing flits: intra-tile straight onto the wire, seam-crossing
        // into the outbox. An observed step leaves the outputs in `ctx` for
        // the observers; the commit phase clears them after replaying.
        for d in LINK_DIRECTIONS {
            let out = &mut ctx.out_links[d.index()];
            let Some(mut flit) = (if stepping { *out } else { out.take() }) else {
                continue;
            };
            let nbr = neighbors[d.index()]
                .unwrap_or_else(|| panic!("{node} routed {flit:?} off-mesh via {d}"));
            // Resilience link phase: a dead link swallows the flit, a
            // transient strike corrupts or drops it. Flits already on the
            // wire when a link dies still arrive (the onset kills future
            // sends, not in-flight data). One flit leaves per link per
            // cycle, so the first strike armed on this link is the one
            // that hits; any other dissipates.
            if let Some((r, ..)) = res.as_ref() {
                let armed = r.strikes.iter().find(|s| s.node == node && s.dir == d);
                let strike = armed.map(|s| s.effect);
                if r.link_down[i][d.index()] || strike == Some(TransientEffect::Drop) {
                    events.transit_losses += 1;
                    if let Some((.., faults)) = rec.as_mut() {
                        faults.push(FaultEvent::TransitLoss(d, flit));
                    }
                    continue;
                }
                if let Some(TransientEffect::Corrupt(mask)) = strike {
                    flit.corrupt_payload(mask);
                    events.transit_corruptions += 1;
                    if let Some((.., faults)) = rec.as_mut() {
                        faults.push(FaultEvent::TransitCorrupt(d, flit));
                    }
                }
            }
            flit.hops += 1;
            events.link_traversals += 1;
            ctx.trace.emit(|| TraceEvent::Hop {
                cycle: t,
                node,
                packet: flit.packet,
                flit_index: flit.flit_index as u16,
                dir: d,
            });
            send(
                grid.shard_of,
                me,
                grid.links,
                seam_flits,
                nbr,
                d.opposite(),
                Some(flit),
            );
        }

        // Credits upstream, same split.
        for d in LINK_DIRECTIONS {
            let c = ctx.credits_out[d.index()];
            if let Some(upstream) = neighbors[d.index()].filter(|_| c > 0) {
                send(
                    grid.shard_of,
                    me,
                    grid.credits,
                    seam_credits,
                    upstream,
                    d.opposite(),
                    c,
                );
            }
        }

        // Injection accepted?
        if ctx.injected {
            let popped = queue.pop();
            debug_assert!(popped.is_some(), "router injected a phantom flit");
            events.injections += 1;
            if let Some(flit) = popped {
                // Arm (or re-arm, for a retransmission) the ARQ timer at
                // the actual network entry, so source queueing never burns
                // the retry budget.
                if let Some((_, ni, _)) = res.as_mut() {
                    ni.on_injected(flit.seq, t);
                }
                ctx.trace.emit(|| TraceEvent::Inject {
                    cycle: t,
                    node,
                    packet: flit.packet,
                    flit_index: flit.flit_index as u16,
                });
            }
        }

        // Ejections -> CRC check/ACK (resilient runs) -> reassembly
        // (sharded by destination, so tile-local); stats, ACKs and
        // completions buffer for the commit phase. `reset` clears the
        // list, so it is read in place.
        for &flit in &ctx.ejected {
            debug_assert_eq!(flit.dst, node, "flit ejected at wrong node");
            events.ejections += 1;
            if let (Some((_, _, seen)), true) = (res.as_mut(), flit.seq != 0) {
                let back_hops = grid.mesh.hop_distance(node, flit.src).max(1) as u64;
                events.ack_hops += back_hops;
                // Detected corruption: bounce it, NACK the source NI, and
                // wait for the retransmission.
                let nack = !flit.crc_ok();
                acks.push(AckRec {
                    node,
                    back_hops,
                    msg: AckMsg {
                        to: flit.src,
                        seq: flit.seq,
                        nack,
                    },
                });
                if nack {
                    events.crc_rejects += 1;
                    if let Some((.., faults)) = rec.as_mut() {
                        faults.push(FaultEvent::CrcReject(flit));
                    }
                    continue;
                }
                if !seen.insert((flit.src.0, flit.seq)) {
                    // A spurious-timeout retransmission of a flit that
                    // already arrived: re-ACK and suppress.
                    events.duplicates_suppressed += 1;
                    continue;
                }
                if flit.retransmits > 0 {
                    // Delivery needed recovery: record creation ->
                    // final-delivery latency.
                    recoveries.push(flit.created);
                }
            }
            ctx.trace.emit(|| TraceEvent::Eject {
                cycle: t,
                node,
                packet: flit.packet,
                flit_index: flit.flit_index as u16,
                latency: t.saturating_sub(flit.created),
            });
            ejects.push(EjectRec {
                created: flit.created,
                hops: flit.hops,
            });
            if let Some(done) = reassembler.accept(&flit, t) {
                dones.push(DoneRec {
                    node,
                    done,
                    flit_created: flit.created,
                });
            }
        }

        // Drops -> NACK to source -> retransmission (SCARAB). Whole flits
        // buffer: the retransmission channel is global and FIFO-sequenced,
        // so sends happen at commit in node order.
        for mut flit in ctx.dropped.iter().copied() {
            events.drops += 1;
            ctx.trace.emit(|| TraceEvent::Drop {
                cycle: t,
                node,
                packet: flit.packet,
                flit_index: flit.flit_index as u16,
            });
            let nack_hops = grid.mesh.hop_distance(node, flit.src).max(1) as u64;
            events.nack_hops += nack_hops;
            events.retransmissions += 1;
            flit.retransmits += 1;
            drops.push(DropRec {
                node,
                nack_hops,
                flit,
            });
        }

        if tracing && !stepping {
            std::mem::swap(&mut tile_ctx.trace.events, &mut steps[k].ctx.trace.events);
        }
    }
}

/// Put `item` on the wire into `dst`'s input `port`: straight into the
/// send plane when tile `me` owns `dst`, else into the tile's outbox,
/// which the commit phase flushes into the same plane.
#[inline]
fn send<T: Copy + Default + PartialEq>(
    shard_of: &[u16],
    me: u16,
    plane: Planes<T>,
    outbox: &mut Vec<Seam<T>>,
    dst: NodeId,
    port: Direction,
    item: T,
) {
    if shard_of[dst.index()] == me {
        // SAFETY: `dst` is a mesh node in this worker's tile (checked
        // above), which owns its send slots (SharedGrid contract); the
        // send plane is not the receive plane this cycle's sweep reads,
        // and the wires stay borrowed for the whole sweep.
        unsafe { plane.put(dst.index(), port.index(), item) };
    } else {
        outbox.push(Seam {
            dst,
            dir: port,
            item,
        });
    }
}
