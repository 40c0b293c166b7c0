//! The runtime verifier: an [`Observer`] implementing the paper-level
//! invariant oracles.
//!
//! Checked every cycle, for every router, in release builds:
//!
//! * **Flit conservation** — per-router flow equation (flits in + buffered
//!   before = flits out + buffered after) and a global ledger proving every
//!   injected flit is ejected exactly once or dropped with a recorded
//!   reason (and later retransmitted to delivery).
//! * **Crossbar exclusivity** — at most one allocator grant per output
//!   column, at most one ejection per cycle, and at most one grant per
//!   input slot; two same-input winners only where the design provides a
//!   second path (DXbar's secondary crossbar, the unified design's
//!   segmented-output dual grant).
//! * **Route legality** — every link hop obeys the design's routing rule
//!   (DOR/WF turn model, minimal-adaptive for SCARAB), including during
//!   fault-degraded operation.
//! * **FIFO bounds** — secondary FIFOs never exceed their depth; router
//!   occupancy never exceeds the design's storage.
//! * **Fairness** — when the fairness counter flips priority to the
//!   buffered side, an eligible waiter must actually win that round.
//! * **Progress watchdog** — if no flit ejects for a bounded horizon while
//!   flits remain in flight, the run is declared deadlocked (nothing moved)
//!   or livelocked (flits moved but none arrived), with a stuck-flit report
//!   and a mesh heatmap.

use crate::ledger::FlitLedger;
use crate::profile::{DesignProfile, RouteRule};
use crate::violation::{FlitId, Violation, ViolationKind};
use noc_core::flit::Flit;
use noc_core::types::{Cycle, Direction, NodeId, LINK_DIRECTIONS};
use noc_routing::is_productive;
use noc_sim::diagnostics::NodeField;
use noc_sim::noc_trace::CycleSample;
use noc_sim::verify::{FaultEvent, Interest, Observer, ProbeEvent, StepRecord};
use noc_sim::{Network, StepCtx};
use noc_topology::Mesh;
use std::collections::HashMap;

/// Tunables for the runtime oracles.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Cycles without a single network-wide ejection (while flits are in
    /// flight) before the watchdog declares deadlock/livelock.
    pub watchdog_horizon: u64,
    /// Maximum violations kept with full context; further violations are
    /// counted but not stored.
    pub max_recorded: usize,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            watchdog_horizon: 2048,
            max_recorded: 32,
        }
    }
}

/// How many of each check the verifier actually performed — so a "zero
/// violations" report can prove the oracles were exercised, not skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounts {
    pub cycles: u64,
    pub router_steps: u64,
    pub conservation: u64,
    pub route_hops: u64,
    pub grants: u64,
    pub fifo_samples: u64,
    pub fairness_flips: u64,
    /// CRC verdicts recomputed on sequenced ejections.
    pub crc_checks: u64,
    /// Transit faults observed (corruptions + losses).
    pub transit_faults: u64,
    /// Recovery-protocol events observed (rejects, retransmits, give-ups).
    pub recovery_events: u64,
}

impl CheckCounts {
    /// Total individual oracle checks performed (for aggregate reporting;
    /// `cycles` and `router_steps` are bookkeeping, not checks).
    pub fn total(&self) -> u64 {
        self.conservation
            + self.route_hops
            + self.grants
            + self.fifo_samples
            + self.fairness_flips
            + self.crc_checks
    }
}

/// Outcome of a verified run.
#[derive(Debug)]
pub struct VerifyReport {
    /// Design label the profile was derived from.
    pub design: String,
    /// Recorded violations (capped at `VerifyOptions::max_recorded`).
    pub violations: Vec<Violation>,
    /// Total violations observed, including unrecorded ones.
    pub total_violations: u64,
    pub checks: CheckCounts,
    /// Ledger totals: (injected, ejected, dropped).
    pub flit_counts: (u64, u64, u64),
    /// Ledger resilience totals: (transit-lost, crc-bounced, counted-lost).
    pub recovery_counts: (u64, u64, u64),
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// One-paragraph summary suitable for logs and campaign manifests.
    pub fn summary(&self) -> String {
        let c = &self.checks;
        let mut s = format!(
            "verify[{}]: {} violation(s) over {} cycles ({} router-steps; \
             {} conservation, {} route-hop, {} grant, {} fifo, {} fairness checks; \
             {} injected / {} ejected / {} dropped)",
            self.design,
            self.total_violations,
            c.cycles,
            c.router_steps,
            c.conservation,
            c.route_hops,
            c.grants,
            c.fifo_samples,
            c.fairness_flips,
            self.flit_counts.0,
            self.flit_counts.1,
            self.flit_counts.2,
        );
        if c.crc_checks + c.transit_faults + c.recovery_events > 0 {
            s.push_str(&format!(
                "\nresilience: {} crc check(s), {} transit fault(s), {} recovery event(s); \
                 {} transit-lost / {} crc-bounced / {} counted-lost",
                c.crc_checks,
                c.transit_faults,
                c.recovery_events,
                self.recovery_counts.0,
                self.recovery_counts.1,
                self.recovery_counts.2,
            ));
        }
        for v in self.violations.iter().take(8) {
            s.push('\n');
            s.push_str(&v.to_string());
        }
        if self.violations.len() > 8 {
            s.push_str(&format!(
                "\n... and {} more recorded violation(s)",
                self.violations.len() - 8
            ));
        }
        s
    }
}

/// The runtime oracle set. Attach with [`Network::attach`] (or use
/// [`crate::runner::run_observed`]), take it back with `Network::detach`
/// and collect the [`VerifyReport`] with [`Verifier::finalize`] after the
/// run.
pub struct Verifier {
    design: String,
    /// Oracle profile per node (homogeneous networks repeat one row).
    profiles: Vec<DesignProfile>,
    mesh: Mesh,
    opts: VerifyOptions,
    ledger: FlitLedger,
    violations: Vec<Violation>,
    total_violations: u64,
    checks: CheckCounts,
    // Watchdog state.
    last_progress: Cycle,
    moved_since_progress: bool,
    ejected_this_cycle: bool,
    watchdog_tripped: bool,
    finalized: bool,
    // Resilience oracles.
    current_cycle: Cycle,
    /// Bad-CRC ejections seen this cycle that the engine has not yet
    /// confirmed rejecting; any remnant at cycle end is a silent
    /// corruption (the engine delivered a corrupt flit).
    pending_crc_rejects: Vec<(FlitId, NodeId)>,
}

impl Verifier {
    /// Oracle set on `mesh` enforcing `profiles[n]` at node `n`, so a
    /// heterogeneous fabric checks each node against its own design (a
    /// BLESS node may deflect; its buffered-island neighbour may not).
    /// `design` labels the report.
    pub fn new(
        design: impl Into<String>,
        mesh: Mesh,
        profiles: Vec<DesignProfile>,
        opts: VerifyOptions,
    ) -> Verifier {
        assert_eq!(profiles.len(), mesh.num_nodes(), "one profile per node");
        Verifier {
            design: design.into(),
            profiles,
            mesh,
            opts,
            ledger: FlitLedger::new(),
            violations: Vec::new(),
            total_violations: 0,
            checks: CheckCounts::default(),
            last_progress: 0,
            moved_since_progress: false,
            ejected_this_cycle: false,
            watchdog_tripped: false,
            finalized: false,
            current_cycle: 0,
            pending_crc_rejects: Vec::new(),
        }
    }

    /// The flit ledger (retention and totals, for tests and reports).
    pub fn ledger(&self) -> &FlitLedger {
        &self.ledger
    }

    fn push(&mut self, v: Violation) {
        self.total_violations += 1;
        if self.violations.len() < self.opts.max_recorded {
            self.violations.push(v);
        }
    }

    fn check_route_hop(&mut self, node: NodeId, dir: Direction, dst: NodeId, cycle: Cycle) {
        self.checks.route_hops += 1;
        let rule = match self.profiles[node.index()].route {
            RouteRule::Turn(alg) => {
                (!alg.route(&self.mesh, node, dst).contains(dir)).then(|| alg.name())
            }
            RouteRule::MinimalAdaptive => {
                (!is_productive(&self.mesh, node, dst, dir)).then_some("minimal-adaptive")
            }
            RouteRule::Deflecting => None,
        };
        if let Some(rule) = rule {
            self.push(Violation {
                kind: ViolationKind::RouteIllegal,
                cycle,
                router: Some(node),
                flits: vec![],
                detail: format!("hop {dir} toward {dst} violates the {rule} rule"),
            });
        }
    }

    fn check_probes(&mut self, node: NodeId, ctx: &StepCtx) {
        let profile = self.profiles[node.index()];
        let events = ctx.probe.events();
        // Winners per output column, and the input rows granted once and
        // more than once as bitsets over the whole `u8` row range.
        let mut out_winners: [u8; 5] = [0; 5];
        let mut once = [0u64; 4];
        let mut again = [0u64; 4];
        for ev in events {
            match *ev {
                ProbeEvent::Grant { input, output, .. } => {
                    self.checks.grants += 1;
                    if (output as usize) < out_winners.len() {
                        out_winners[output as usize] += 1;
                    }
                    let (word, bit) = (usize::from(input / 64), 1u64 << (input % 64));
                    again[word] |= once[word] & bit;
                    once[word] |= bit;
                }
                ProbeEvent::FifoDepth { input, depth } => {
                    self.checks.fifo_samples += 1;
                    let cap = profile.fifo_capacity;
                    if usize::from(depth) > cap {
                        self.push(Violation {
                            kind: ViolationKind::FifoOverflow,
                            cycle: ctx.cycle,
                            router: Some(node),
                            flits: vec![],
                            detail: format!("FIFO {input} holds {depth} flits, capacity {cap}"),
                        });
                    }
                }
                ProbeEvent::FairnessFlip {
                    eligible_waiter,
                    waiter_won,
                } => {
                    self.checks.fairness_flips += 1;
                    if eligible_waiter && !waiter_won {
                        self.push(Violation {
                            kind: ViolationKind::FairnessStarvation,
                            cycle: ctx.cycle,
                            router: Some(node),
                            flits: vec![],
                            detail: "fairness counter flipped priority but no eligible \
                                     buffered flit was served"
                                .into(),
                        });
                    }
                }
            }
        }
        for (o, &n) in out_winners.iter().enumerate() {
            if n > 1 {
                self.push(Violation {
                    kind: ViolationKind::Exclusivity,
                    cycle: ctx.cycle,
                    router: Some(node),
                    flits: vec![],
                    detail: format!(
                        "{n} allocator grants on output {}",
                        Direction::from_index(o)
                    ),
                });
            }
        }
        // One input row may win twice only through a second path: two
        // grants on distinct slots and distinct outputs. Rows are checked
        // in ascending order, so violations come out in a fixed order.
        for (word, mut rows) in again.into_iter().enumerate() {
            while rows != 0 {
                let input = word * 64 + rows.trailing_zeros() as usize;
                rows &= rows - 1;
                // (slot, output) of each grant of this row, in emission order.
                let row = events.iter().filter_map(|ev| match *ev {
                    ProbeEvent::Grant {
                        input: i,
                        slot,
                        output,
                    } if usize::from(i) == input => Some((slot, output)),
                    _ => None,
                });
                let mut first = row.clone();
                let dual_ok = profile.dual_input
                    && match (first.next(), first.next(), first.next()) {
                        (Some(a), Some(b), None) => a.0 != b.0 && a.1 != b.1,
                        _ => false,
                    };
                if !dual_ok {
                    let grants: Vec<(u8, u8)> = row.collect();
                    self.push(Violation {
                        kind: ViolationKind::Exclusivity,
                        cycle: ctx.cycle,
                        router: Some(node),
                        flits: vec![],
                        detail: format!(
                            "{} grants for input row {input} (slots/outputs {:?})",
                            grants.len(),
                            grants
                        ),
                    });
                }
            }
        }
    }

    fn trip_watchdog(&mut self, cycle: Cycle, in_flight: u64) {
        self.watchdog_tripped = true;
        let kind = if self.moved_since_progress {
            ViolationKind::Livelock
        } else {
            ViolationKind::Deadlock
        };
        // Oldest-stuck flits first.
        let mut stuck: Vec<_> = self.ledger.live().map(|(fid, pos)| (*fid, *pos)).collect();
        stuck.sort_unstable_by_key(|(fid, pos)| (pos.since, *fid));
        let mut detail = format!(
            "no ejection for {} cycles with {} flit(s) in flight ({})",
            self.opts.watchdog_horizon,
            in_flight,
            if kind == ViolationKind::Livelock {
                "flits still moving: livelock"
            } else {
                "nothing moved: deadlock"
            }
        );
        for (fid, pos) in stuck.iter().take(8) {
            detail.push_str(&format!(
                "\n  flit {}.{} stuck at {} since cycle {} ({} -> {})",
                fid.0, fid.1, pos.node, pos.since, pos.src, pos.dst
            ));
        }
        if stuck.len() > 8 {
            detail.push_str(&format!("\n  ... and {} more", stuck.len() - 8));
        }
        let mut per_node: HashMap<NodeId, f64> = HashMap::new();
        for (_, pos) in &stuck {
            *per_node.entry(pos.node).or_default() += 1.0;
        }
        let field = NodeField::sample("stuck flits", &self.mesh, |n| {
            per_node.get(&n).copied().unwrap_or(0.0)
        });
        detail.push('\n');
        detail.push_str(&field.render());
        let flits = stuck.iter().map(|(fid, _)| *fid).take(32).collect();
        self.push(Violation {
            kind,
            cycle,
            router: None,
            flits,
            detail,
        });
    }

    /// Close out the run: end-of-run ledger checks (only when the network
    /// has drained), reassembly-duplicate check, and report assembly.
    pub fn finalize<R: noc_sim::RouterModel>(mut self, net: &Network<R>) -> VerifyReport {
        let cycle = net.cycle();
        if net.reassembly_duplicates() > 0 {
            self.push(Violation {
                kind: ViolationKind::ReassemblyDuplicate,
                cycle,
                router: None,
                flits: vec![],
                detail: format!(
                    "{} duplicate flit(s) reached reassembly",
                    net.reassembly_duplicates()
                ),
            });
        }
        if net.is_quiescent() {
            let mut out = Vec::new();
            self.ledger.finalize(cycle, &mut out);
            for v in out {
                self.push(v);
            }
            // Every injected corruption must have been detected (CRC reject
            // or transit loss) or its flit resolved as delivered-clean-copy
            // or counted lost. Outstanding taint on an unresolved flit means
            // the corruption silently vanished from the books.
            let escaped = self.ledger.escaped_corruptions();
            if !escaped.is_empty() {
                self.push(Violation {
                    kind: ViolationKind::SilentCorruption,
                    cycle,
                    router: None,
                    flits: escaped,
                    detail: "injected corruption was neither detected nor counted lost".into(),
                });
            }
        }
        self.finalized = true;
        VerifyReport {
            design: self.design,
            violations: self.violations,
            total_violations: self.total_violations,
            checks: self.checks,
            flit_counts: self.ledger.counts(),
            recovery_counts: self.ledger.recovery_counts(),
        }
    }
}

impl Verifier {
    /// The oracles over one node's step, then over the faults that hit its
    /// traffic, in the order they happened.
    fn check_step(&mut self, step: &StepRecord) {
        let StepRecord {
            node,
            ref ctx,
            ref inputs,
            occupancy_before,
            occupancy_after,
            ref faults,
        } = *step;
        self.checks.router_steps += 1;
        let cycle = ctx.cycle;
        let mut scratch = Vec::new();

        // Ledger: arrivals refresh position; accepted injections enter.
        for f in inputs.arrivals.iter().flatten() {
            self.ledger.on_arrival(f, node, cycle, &mut scratch);
        }
        if ctx.injected {
            match &inputs.injection {
                Some(f) => self.ledger.on_inject(f, node, cycle, &mut scratch),
                None => scratch.push(Violation {
                    kind: ViolationKind::Phantom,
                    cycle,
                    router: Some(node),
                    flits: vec![],
                    detail: "router claimed injection with no flit offered".into(),
                }),
            }
        }

        // Conservation: what entered must leave or stay buffered.
        self.checks.conservation += 1;
        let inflow = occupancy_before + inputs.arrivals_offered() + usize::from(ctx.injected);
        let outflow = occupancy_after + ctx.flits_out();
        if inflow != outflow {
            scratch.push(Violation {
                kind: ViolationKind::Conservation,
                cycle,
                router: Some(node),
                flits: vec![],
                detail: format!(
                    "occ {occupancy_before} + in {} + inj {} != occ {occupancy_after} + out {}",
                    inputs.arrivals_offered(),
                    usize::from(ctx.injected),
                    ctx.flits_out()
                ),
            });
        }
        let cap = self.profiles[node.index()].router_capacity;
        if occupancy_after > cap {
            scratch.push(Violation {
                kind: ViolationKind::FifoOverflow,
                cycle,
                router: Some(node),
                flits: vec![],
                detail: format!("router holds {occupancy_after} flits, capacity {cap}"),
            });
        }

        // Every design ejects at most one flit per cycle (single PE port).
        if ctx.ejected.len() > 1 {
            scratch.push(Violation {
                kind: ViolationKind::Exclusivity,
                cycle,
                router: Some(node),
                flits: ctx
                    .ejected
                    .iter()
                    .map(|f| (f.packet.0, f.flit_index))
                    .collect(),
                detail: format!("{} flits ejected in one cycle", ctx.ejected.len()),
            });
        }
        for f in &ctx.ejected {
            // Independently recompute the CRC verdict on sequenced flits:
            // a bad-CRC ejection obliges the engine to confirm a reject
            // (checked at cycle end), robust to an engine that "forgets".
            if f.seq != 0 {
                self.checks.crc_checks += 1;
                if !f.crc_ok() {
                    self.pending_crc_rejects
                        .push(((f.packet.0, f.flit_index), node));
                }
            }
            self.ledger.on_eject(f, node, cycle, &mut scratch);
            self.ejected_this_cycle = true;
        }

        // Drops: legal only for dropping designs, and always ledgered.
        if !ctx.dropped.is_empty() && !self.profiles[node.index()].drops_allowed {
            scratch.push(Violation {
                kind: ViolationKind::Leak,
                cycle,
                router: Some(node),
                flits: ctx
                    .dropped
                    .iter()
                    .map(|f| (f.packet.0, f.flit_index))
                    .collect(),
                detail: format!("non-dropping design dropped {} flit(s)", ctx.dropped.len()),
            });
        }
        for f in &ctx.dropped {
            self.ledger.on_drop(f, node, cycle, &mut scratch);
        }

        // Route legality on every link output.
        for d in LINK_DIRECTIONS {
            if let Some(f) = &ctx.out_links[d.index()] {
                self.moved_since_progress = true;
                self.check_route_hop(node, d, f.dst, cycle);
            }
        }

        // Allocator-level probes (grants, FIFO depths, fairness flips).
        self.check_probes(node, ctx);

        for v in scratch {
            self.push(v);
        }

        for fault in faults {
            match fault {
                FaultEvent::TransitLoss(_, flit) => self.transit_loss(node, flit),
                FaultEvent::TransitCorrupt(_, flit) => self.transit_corrupt(flit),
                FaultEvent::CrcReject(flit) => self.crc_reject(node, flit),
            }
        }
    }

    fn transit_corrupt(&mut self, flit: &Flit) {
        self.checks.transit_faults += 1;
        self.ledger.on_transit_corrupt(flit);
    }

    fn transit_loss(&mut self, node: NodeId, flit: &Flit) {
        self.checks.transit_faults += 1;
        let mut scratch = Vec::new();
        self.ledger
            .on_transit_loss(flit, node, self.current_cycle, &mut scratch);
        for v in scratch {
            self.push(v);
        }
    }

    fn crc_reject(&mut self, node: NodeId, flit: &Flit) {
        self.checks.recovery_events += 1;
        let fid = (flit.packet.0, flit.flit_index);
        if let Some(i) = self
            .pending_crc_rejects
            .iter()
            .position(|&(f, n)| f == fid && n == node)
        {
            self.pending_crc_rejects.swap_remove(i);
        }
        // Detection resolves the corruption taint.
        self.ledger.on_crc_reject(flit);
    }
}

impl Observer for Verifier {
    fn interest(&self) -> Interest {
        Interest {
            trace: false,
            steps: true,
        }
    }

    fn on_cycle_start(&mut self, cycle: Cycle) {
        self.ejected_this_cycle = false;
        self.current_cycle = cycle;
    }

    fn on_retransmit_queued(&mut self, flit: &Flit) {
        self.checks.recovery_events += 1;
        self.ledger.on_retransmit(flit);
    }

    fn on_flit_lost(&mut self, flit: &Flit) {
        self.checks.recovery_events += 1;
        self.ledger.on_lost(flit);
    }

    fn on_steps(&mut self, steps: &[StepRecord]) {
        for step in steps {
            self.check_step(step);
        }
    }

    fn on_cycle_end(&mut self, sample: &CycleSample<'_>) {
        let (cycle, in_flight) = (sample.cycle, sample.in_flight);
        self.checks.cycles += 1;
        // Every bad-CRC ejection must have been matched by an engine CRC
        // reject within the cycle; a remnant means the engine delivered a
        // corrupt flit to the PE.
        while let Some((fid, node)) = self.pending_crc_rejects.pop() {
            self.push(Violation {
                kind: ViolationKind::SilentCorruption,
                cycle,
                router: Some(node),
                flits: vec![fid],
                detail: "corrupt flit reached the ejection port without a CRC reject".into(),
            });
        }
        if self.ejected_this_cycle || in_flight == 0 {
            self.last_progress = cycle;
            self.moved_since_progress = false;
            self.watchdog_tripped = false;
        } else if !self.watchdog_tripped
            && cycle.saturating_sub(self.last_progress) >= self.opts.watchdog_horizon
        {
            self.trip_watchdog(cycle, in_flight);
        }
        self.ledger.retire_below(sample.retire_floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::{Flit, PacketId};
    use noc_sim::StepInputs;

    /// A 4x4 mesh of DOR routers with DXbar's rules at depth 4.
    fn with_opts(opts: VerifyOptions) -> Verifier {
        let row = DesignProfile {
            route: RouteRule::Turn(noc_routing::Algorithm::Dor),
            router_capacity: 16,
            fifo_capacity: 4,
            dual_input: true,
            drops_allowed: false,
        };
        Verifier::new("DXbar DOR", Mesh::new(4, 4), vec![row; 16], opts)
    }

    fn mk() -> Verifier {
        with_opts(VerifyOptions::default())
    }

    fn flit(pid: u64, src: u16, dst: u16) -> Flit {
        Flit::synthetic(PacketId(pid), NodeId(src), NodeId(dst), 0)
    }

    fn step_ctx(cycle: Cycle) -> StepCtx {
        let mut ctx = StepCtx::new(cycle);
        ctx.probe.set_enabled(true);
        ctx
    }

    /// Show the verifier one node's step.
    fn step(
        v: &mut Verifier,
        node: NodeId,
        inputs: StepInputs,
        ctx: StepCtx,
        occupancy_before: usize,
        occupancy_after: usize,
    ) {
        v.on_steps(&[StepRecord {
            node,
            ctx,
            inputs,
            occupancy_before,
            occupancy_after,
            faults: vec![],
        }]);
    }

    /// End cycle `cycle` with `in_flight` flits in the network.
    fn end(v: &mut Verifier, cycle: Cycle, in_flight: u64) {
        v.on_cycle_end(&CycleSample {
            cycle,
            in_flight,
            backlog: 0,
            link_traversals: 0,
            per_router_occupancy: &[],
            retire_floor: 0,
        });
    }

    #[test]
    fn clean_forwarding_step_passes() {
        let mut v = mk();
        let f = flit(1, 0, 3);
        // Inject at n0, forward East (DOR-legal toward n3).
        let mut ctx = step_ctx(1);
        ctx.injected = true;
        ctx.out_links[Direction::East.index()] = Some(f);
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: Some(f),
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert_eq!(v.total_violations, 0);
    }

    #[test]
    fn illegal_dor_hop_is_flagged() {
        let mut v = mk();
        let f = flit(1, 0, 3); // dst is due East of n0
        let mut ctx = step_ctx(1);
        ctx.injected = true;
        ctx.out_links[Direction::South.index()] = Some(f); // Y-first: illegal under DOR
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: Some(f),
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert_eq!(v.total_violations, 1);
        assert_eq!(v.violations[0].kind, ViolationKind::RouteIllegal);
    }

    #[test]
    fn conservation_break_is_flagged() {
        let mut v = mk();
        let f = flit(1, 0, 3);
        let ctx = step_ctx(1); // arrival vanished: no output, occupancy unchanged
        let inputs = StepInputs {
            arrivals: [Some(f), None, None, None],
            injection: None,
        };
        step(&mut v, NodeId(1), inputs, ctx, 0, 0);
        assert!(v
            .violations
            .iter()
            .any(|x| x.kind == ViolationKind::Conservation));
    }

    #[test]
    fn double_output_grant_is_exclusivity_violation() {
        let mut v = mk();
        let mut ctx = step_ctx(1);
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 0,
            slot: 0,
            output: 2,
        });
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 1,
            slot: 0,
            output: 2,
        });
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert!(v
            .violations
            .iter()
            .any(|x| x.kind == ViolationKind::Exclusivity));
    }

    #[test]
    fn dual_input_grant_legal_only_with_distinct_slots_and_outputs() {
        let mut v = mk(); // DXbar: dual_input = true
        let mut ctx = step_ctx(1);
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 0,
            slot: 0,
            output: 1,
        });
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 0,
            slot: 1,
            output: 2,
        });
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert_eq!(v.total_violations, 0, "{:?}", v.violations);

        // Same slot twice: always illegal.
        let mut ctx = step_ctx(2);
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 0,
            slot: 0,
            output: 1,
        });
        ctx.probe.emit(|| ProbeEvent::Grant {
            input: 0,
            slot: 0,
            output: 2,
        });
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert!(v
            .violations
            .iter()
            .any(|x| x.kind == ViolationKind::Exclusivity));
    }

    #[test]
    fn double_granted_rows_are_reported_in_ascending_row_order() {
        let mut v = mk();
        let mut ctx = step_ctx(1);
        // Rows 3, 1 and 0 each win twice on one slot (illegal even with a
        // second crossbar); row 3 is emitted first.
        for (input, output) in [(3, 0), (1, 1), (3, 2), (0, 3), (1, 4), (0, 0)] {
            ctx.probe.emit(|| ProbeEvent::Grant {
                input,
                slot: 0,
                output,
            });
        }
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        let rows: Vec<&str> = v
            .violations
            .iter()
            .filter(|x| x.detail.contains("input row"))
            .map(|x| x.detail.as_str())
            .collect();
        assert_eq!(
            rows,
            [
                "2 grants for input row 0 (slots/outputs [(0, 3), (0, 0)])",
                "2 grants for input row 1 (slots/outputs [(0, 1), (0, 4)])",
                "2 grants for input row 3 (slots/outputs [(0, 0), (0, 2)])",
            ]
        );
    }

    #[test]
    fn fifo_overflow_is_flagged() {
        let mut v = mk();
        let mut ctx = step_ctx(1);
        ctx.probe
            .emit(|| ProbeEvent::FifoDepth { input: 2, depth: 5 });
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert!(v
            .violations
            .iter()
            .any(|x| x.kind == ViolationKind::FifoOverflow));
    }

    #[test]
    fn fairness_flip_without_service_is_starvation() {
        let mut v = mk();
        let mut ctx = step_ctx(1);
        ctx.probe.emit(|| ProbeEvent::FairnessFlip {
            eligible_waiter: true,
            waiter_won: false,
        });
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(&mut v, NodeId(0), inputs, ctx, 0, 0);
        assert_eq!(v.total_violations, 1);
        assert_eq!(v.violations[0].kind, ViolationKind::FairnessStarvation);
    }

    #[test]
    fn watchdog_trips_deadlock_then_stays_quiet() {
        let mut v = with_opts(VerifyOptions {
            watchdog_horizon: 10,
            max_recorded: 32,
        });
        // A flit is injected then nothing ever moves again.
        let f = flit(7, 0, 3);
        let mut ctx = step_ctx(0);
        ctx.injected = true;
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: Some(f),
        };
        v.on_cycle_start(0);
        step(&mut v, NodeId(0), inputs, ctx, 0, 1);
        end(&mut v, 0, 1);
        for t in 1..=12 {
            v.on_cycle_start(t);
            end(&mut v, t, 1);
        }
        assert_eq!(v.total_violations, 1, "{:?}", v.violations);
        assert_eq!(v.violations[0].kind, ViolationKind::Deadlock);
        assert!(v.violations[0].detail.contains("stuck"));
    }

    #[test]
    fn ejections_reset_watchdog() {
        let mut v = with_opts(VerifyOptions {
            watchdog_horizon: 10,
            max_recorded: 32,
        });
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        for t in 0..100 {
            v.on_cycle_start(t);
            if t % 5 == 0 {
                // A flit travels through and ejects regularly.
                let f = flit(t, 3, 3);
                let mut ctx = step_ctx(t);
                ctx.injected = true;
                let inj = StepInputs {
                    arrivals: [None; 4],
                    injection: Some(f),
                };
                let mut ectx = StepCtx::new(t);
                ectx.ejected.push(f);
                step(&mut v, NodeId(3), inj, ctx, 0, 1);
                step(&mut v, NodeId(3), inputs, ectx, 1, 0);
            }
            end(&mut v, t, 1);
        }
        assert!(
            !v.violations
                .iter()
                .any(|x| matches!(x.kind, ViolationKind::Deadlock | ViolationKind::Livelock)),
            "{:?}",
            v.violations
        );
    }

    fn corrupt_sequenced_flit(pid: u64, src: u16, dst: u16, seq: u32) -> Flit {
        let mut f = flit(pid, src, dst);
        f.set_seq(seq);
        f.corrupt_payload(0b1);
        assert!(!f.crc_ok());
        f
    }

    fn inject_at(v: &mut Verifier, node: u16, f: Flit, cycle: Cycle) {
        let mut ctx = step_ctx(cycle);
        ctx.injected = true;
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: Some(f),
        };
        step(v, NodeId(node), inputs, ctx, 0, 1);
    }

    fn eject_at(v: &mut Verifier, node: u16, f: Flit, cycle: Cycle) {
        let mut ctx = step_ctx(cycle);
        ctx.ejected.push(f);
        let inputs = StepInputs {
            arrivals: [None; 4],
            injection: None,
        };
        step(v, NodeId(node), inputs, ctx, 1, 0);
    }

    #[test]
    fn corrupt_delivery_without_reject_is_silent_corruption() {
        // Evil-engine canary: a corrupt sequenced flit reaches the ejection
        // port and the engine never confirms a CRC reject.
        let mut v = mk();
        let f = corrupt_sequenced_flit(9, 3, 3, 5);
        v.on_cycle_start(0);
        inject_at(&mut v, 3, f, 0);
        eject_at(&mut v, 3, f, 0);
        end(&mut v, 0, 0);
        assert_eq!(v.total_violations, 1, "{:?}", v.violations);
        assert_eq!(v.violations[0].kind, ViolationKind::SilentCorruption);
        assert!(v.violations[0].detail.contains("without a CRC reject"));
        assert_eq!(v.checks.crc_checks, 1);
    }

    #[test]
    fn crc_reject_and_sanctioned_retransmit_are_clean() {
        // Honest recovery: bad-CRC ejection is rejected the same cycle, a
        // retransmission is sanctioned, and the clean copy delivers.
        let mut v = mk();
        let bad = corrupt_sequenced_flit(9, 3, 3, 5);
        v.on_cycle_start(0);
        inject_at(&mut v, 3, bad, 0);
        eject_at(&mut v, 3, bad, 0);
        v.crc_reject(NodeId(3), &bad);
        v.on_retransmit_queued(&bad);
        end(&mut v, 0, 0);

        let mut clean = flit(9, 3, 3);
        clean.set_seq(5);
        assert!(clean.crc_ok());
        v.on_cycle_start(1);
        inject_at(&mut v, 3, clean, 1);
        eject_at(&mut v, 3, clean, 1);
        end(&mut v, 1, 0);

        assert_eq!(v.total_violations, 0, "{:?}", v.violations);
        assert_eq!(v.checks.crc_checks, 2);
        assert_eq!(v.checks.recovery_events, 2);
    }

    #[test]
    fn transit_fault_hooks_track_taint_and_losses() {
        let mut v = mk();
        let mut f = flit(4, 0, 3);
        f.set_seq(2);
        v.on_cycle_start(0);
        inject_at(&mut v, 0, f, 0);
        let mut struck = f;
        struck.corrupt_payload(0b10);
        v.transit_corrupt(&struck);
        assert_eq!(v.ledger.taint((4, 0)), 1);
        // The corrupted instance is then dropped in transit: the taint is
        // resolved by the loss, and the ledger starts tracking recovery.
        v.transit_loss(NodeId(0), &struck);
        assert_eq!(v.ledger.taint((4, 0)), 0);
        v.on_flit_lost(&struck);
        end(&mut v, 0, 0);
        assert_eq!(v.total_violations, 0, "{:?}", v.violations);
        assert_eq!(v.checks.transit_faults, 2);
        assert_eq!(v.checks.recovery_events, 1);
        assert_eq!(v.ledger.recovery_counts(), (1, 0, 1));
    }
}
