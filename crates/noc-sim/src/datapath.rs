//! The router datapath operations several designs share, written once.
//!
//! MinBD is the Flit-BLESS deflection datapath plus a side buffer; AFC and
//! DAMQ fall back to that same deflection when their buffers refuse a
//! flit; DXbar, Unified, Buffered-4/8, AFC, MinBD and DAMQ all park flits
//! in FIFOs. The accounting ([`EventCounts`](noc_core::stats::EventCounts))
//! and trace events of those operations live here, so no design can drift
//! from the others:
//!
//! * [`StepCtx::take_arrivals`] — take the link arrivals and eject the
//!   oldest one addressed to this node;
//! * [`StepCtx::deflection_assign`] — give every flit of an ordered slice
//!   a free output link, deflecting the ones that lose their productive
//!   ports;
//! * [`StepCtx::deflect`] — one deflection's counter and `Deflect` event,
//!   also for a router that misroutes a flit outside that assignment;
//! * [`StepCtx::buffer_enter`] / [`StepCtx::buffer_exit`] — the buffer
//!   write and read, with their counters, events and residency (`waited`);
//!   [`StepCtx::park`] / [`StepCtx::unpark`] do both for a FIFO;
//! * [`Parked`] — the FIFO element: a flit and the cycle it may leave.
//!
//! Routers never build `BufferEnter`, `BufferExit` or `Deflect` events
//! themselves, count deflections, nor call `assign_port_with_faults`.

use crate::router::StepCtx;
use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::queue::FixedQueue;
use noc_core::types::{Cycle, Direction, NodeId, PortSet, NUM_LINK_PORTS};
use noc_routing::deflection::{assign_port_with_faults, PortRanking};
use noc_topology::Mesh;
use noc_trace::TraceEvent;

/// A buffered flit and the first cycle it may be served. A buffer write
/// costs one cycle, so a flit parked in cycle `t` is ready at `t + 1`;
/// [`StepCtx::buffer_exit`] derives the flit's residency from that.
#[derive(Debug, Clone, Copy)]
pub struct Parked {
    pub flit: Flit,
    pub ready: Cycle,
}

impl StepCtx {
    /// Deliver `flit` to the local PE through the crossbar.
    #[inline]
    pub fn eject(&mut self, flit: Flit) {
        self.events.xbar_traversals += 1;
        self.ejected.push(flit);
    }

    /// Move every link arrival into `flits`. The oldest one addressed to
    /// `node` ejects instead (one PE port per cycle); returns whether it
    /// did, i.e. whether the PE port is now taken. One arrival per link
    /// fills at most four of the five slots, which leaves a caller room
    /// for its injection.
    ///
    /// This and [`StepCtx::deflection_assign`] are forced inline: left to
    /// the inliner they were outlined from the router `step`s, and the
    /// call and a by-value return slowed the Flit-BLESS and SCARAB steps
    /// by a fifth or more (EXPERIMENTS.md, "One router datapath").
    #[inline(always)]
    pub fn take_arrivals(&mut self, node: NodeId, flits: &mut InlineVec<Flit, 5>) -> bool {
        let mut oldest: Option<usize> = None;
        for a in self.arrivals.iter_mut() {
            let Some(f) = a.take() else { continue };
            if f.dst == node && oldest.is_none_or(|i| f.age_key() < flits[i].age_key()) {
                oldest = Some(flits.len());
            }
            flits.push(f);
        }
        let Some(pos) = oldest else { return false };
        let f = flits.remove(pos);
        self.eject(f);
        true
    }

    /// Give every flit of `flits`, highest priority first, a free output
    /// link this cycle; `used` marks the links already taken.
    ///
    /// Each flit takes its best free live productive port, else deflects.
    /// A dead port guarantees the flit's loss, so live ports come first; a
    /// flit whose productive ports are all dead spins its escape direction
    /// by its own deflection count, so it cannot ping-pong forever against
    /// a neighbour that routes it straight back. Only when every free port
    /// is dead does the flit exit into one (it must leave) and the engine
    /// accounts the loss.
    #[inline(always)]
    pub fn deflection_assign(
        &mut self,
        mesh: &Mesh,
        node: NodeId,
        link_down: &[bool; NUM_LINK_PORTS],
        flits: &[Flit],
        used: &mut PortSet,
    ) {
        for &(mut f) in flits {
            let ranking = PortRanking::new(mesh, node, f.dst);
            // Every caller hands over at most as many flits as the node
            // has links left free (an input per link, and injection or a
            // buffered flit only into a free slot), so a ranked port is
            // always free here.
            let (dir, deflected) =
                assign_port_with_faults(ranking, *used, link_down, f.deflections as usize)
                    .expect("flit count never exceeds free ports");
            used.insert(dir);
            if deflected {
                self.deflect(node, &mut f, ranking.first(), dir);
            }
            self.events.xbar_traversals += 1;
            debug_assert!(dir != Direction::Local);
            self.out_links[dir.index()] = Some(f);
        }
    }

    /// Account one deflection of `flit` at `node`: it wanted `wanted` and
    /// is sent to (or queued for) `got` instead.
    #[inline]
    pub fn deflect(&mut self, node: NodeId, flit: &mut Flit, wanted: Direction, got: Direction) {
        flit.deflections += 1;
        self.events.deflections += 1;
        let cycle = self.cycle;
        let (packet, flit_index) = (flit.packet, flit.flit_index as u16);
        self.trace.emit(|| TraceEvent::Deflect {
            cycle,
            node,
            packet,
            flit_index,
            wanted,
            got,
        });
    }

    /// Account `flit`'s write into a buffer that now holds `occupancy`
    /// flits.
    #[inline]
    pub fn buffer_enter(&mut self, node: NodeId, flit: &Flit, occupancy: usize) {
        self.events.buffer_writes += 1;
        let cycle = self.cycle;
        let occupancy = occupancy as u32;
        self.trace.emit(|| TraceEvent::BufferEnter {
            cycle,
            node,
            packet: flit.packet,
            flit_index: flit.flit_index as u16,
            occupancy,
        });
    }

    /// Account `parked`'s read out of its buffer this cycle; returns the
    /// flit.
    #[inline]
    pub fn buffer_exit(&mut self, node: NodeId, parked: Parked) -> Flit {
        self.events.buffer_reads += 1;
        let cycle = self.cycle;
        let flit = parked.flit;
        // Written in cycle `ready - 1`.
        let waited = cycle.saturating_sub(parked.ready.saturating_sub(1));
        self.trace.emit(|| TraceEvent::BufferExit {
            cycle,
            node,
            packet: flit.packet,
            flit_index: flit.flit_index as u16,
            waited,
        });
        flit
    }

    /// Write `flit` into `fifo`, ready next cycle; a full FIFO hands it
    /// back.
    #[inline]
    pub fn park(
        &mut self,
        node: NodeId,
        fifo: &mut FixedQueue<Parked>,
        flit: Flit,
    ) -> Result<(), Flit> {
        let ready = self.cycle + 1;
        fifo.push(Parked { flit, ready }).map_err(|p| p.flit)?;
        self.buffer_enter(node, &flit, fifo.len());
        Ok(())
    }

    /// Read the head of `fifo`, if any.
    #[inline]
    pub fn unpark(&mut self, node: NodeId, fifo: &mut FixedQueue<Parked>) -> Option<Flit> {
        let parked = fifo.pop()?;
        Some(self.buffer_exit(node, parked))
    }
}
