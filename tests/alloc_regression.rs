//! Allocation regression pin for the full router stacks.
//!
//! Same harness as `noc-sim/tests/zero_alloc.rs`, but over the real
//! statically-dispatched routers: a warmed-up 8x8 uniform-random run with
//! tracing, verification and resilience disabled must execute 1 000
//! steady-state cycles with **zero** heap allocations — engine and router
//! together. A new allocation anywhere on the per-cycle path (engine
//! scratch, queue growth, router-internal collections) turns this red.
//!
//! Two regimes: DXbar below saturation, where source queues stay short,
//! and SCARAB far above it, where every queue sits at the cap, packets are
//! refused at the source and dropped flits keep cutting back in at the
//! front. Fresh traffic lands in storage reserved at construction; the
//! per-node deques of requeued flits grow on demand, and their high-water
//! marks have a thin tail (EXPERIMENTS.md, "Source queues hold packets"):
//! the saturated case warms up past it.
//!
//! Observers pay only for what they keep. With a `Verifier` attached the
//! oracles check every router step without allocating, and the ledger
//! keeps delivered flags only for packets a source still holds, in storage
//! that stops growing once warmed up. With a `RecordingSink` attached the
//! events land in fixed-size chunks, so a run allocates about once per
//! chunk filled, plus the amortised growth of the latency table and the
//! time series.
//!
//! Allocations are counted per thread (the one-tile engine steps on the
//! caller's thread), so the tests can run side by side.

use dxbar_noc::noc_sim::noc_trace::recorder::CHUNK;
use dxbar_noc::noc_sim::noc_trace::RecordingSink;
use dxbar_noc::noc_verify::{Verifier, VerifyOptions};
use dxbar_noc::{Design, RouterKind, SimConfig};
use noc_faults::FaultPlan;
use noc_sim::Network;
use noc_topology::Mesh;
use noc_traffic::generator::SyntheticTraffic;
use noc_traffic::patterns::Pattern;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations this thread made since it started counting; `None`
    /// while it is not.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// An 8x8 uniform-random run of `design` at `load` with the observers
/// `attach` sets up, warmed `warmup` cycles up to its high-water marks.
fn warmed(
    design: Design,
    load: f64,
    warmup: u64,
    attach: impl FnOnce(&mut Network<RouterKind>),
) -> (Network<RouterKind>, SyntheticTraffic) {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 2, // whole run in-window: stats paths hot
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(8, 8);
    let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
    let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, load, 1, 42);
    attach(&mut net);
    net.run_cycles(&mut model, warmup);
    (net, model)
}

/// The allocations of 1 000 more cycles of a warmed run.
fn allocs_of_1000_cycles(net: &mut Network<RouterKind>, model: &mut SyntheticTraffic) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    net.run_cycles(model, 1_000);
    let allocs = ALLOCS.with(|n| n.take()).expect("counting was on");
    assert!(
        net.stats().accepted_flits > 0,
        "run must actually move traffic"
    );
    allocs
}

fn steady_state_allocs(
    design: Design,
    load: f64,
    warmup: u64,
    attach: impl FnOnce(&mut Network<RouterKind>),
) -> (u64, Network<RouterKind>) {
    let (mut net, mut model) = warmed(design, load, warmup, attach);
    (allocs_of_1000_cycles(&mut net, &mut model), net)
}

#[test]
fn dxbar_steady_state_cycles_do_not_allocate() {
    let (allocs, _) = steady_state_allocs(Design::DXbarDor, 0.1, 20_000, |_| {});
    assert_eq!(
        allocs, 0,
        "DXbar run allocated {allocs} times across 1000 steady-state cycles"
    );
}

#[test]
fn scarab_saturated_source_queues_do_not_allocate() {
    // A flit offered per node per cycle: a queue is at the cap whenever
    // the router did not just take one.
    let (allocs, net) = steady_state_allocs(Design::Scarab, 1.0, 40_000, |_| {});
    let cap = net.config().source_queue_cap;
    assert!(
        net.mesh().nodes().all(|n| net.source_backlog(n) + 1 >= cap),
        "every source queue must sit at the cap"
    );
    assert!(net.source_overflow > 0, "the cap must refuse traffic");
    assert!(
        net.stats().events.retransmissions > 0,
        "drops must requeue at the front"
    );
    assert_eq!(
        allocs, 0,
        "saturated SCARAB run allocated {allocs} times across 1000 steady-state cycles"
    );
}

#[test]
fn verified_steady_state_cycles_do_not_allocate() {
    for design in [Design::DXbarDor, Design::Buffered4] {
        // Warmed as long as the unobserved DXbar run, past the engine's
        // own high-water marks (latency histogram, per-tile record lists).
        let (allocs, mut net) = steady_state_allocs(design, 0.1, 20_000, |net| {
            let rows = vec![design.profile(net.config().buffer_depth); net.mesh().num_nodes()];
            let verifier =
                Verifier::new(design.name(), *net.mesh(), rows, VerifyOptions::default());
            net.attach(verifier);
        });
        let report = net
            .detach::<Verifier>()
            .expect("a Verifier was attached")
            .finalize(&net);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.checks.grants > 0, "the grant oracle must have run");
        assert_eq!(
            allocs,
            0,
            "verified {} run allocated {allocs} times across 1000 steady-state cycles",
            design.name()
        );
    }
}

#[test]
fn traced_steady_state_allocates_once_per_event_chunk() {
    let (mut net, mut model) = warmed(Design::DXbarDor, 0.1, 3_000, |net| {
        net.attach(RecordingSink::new(0, 1));
    });
    let seen = |net: &Network<RouterKind>| {
        let sink = net.observer::<RecordingSink>().expect("a RecordingSink");
        sink.recorder.total_seen() as usize
    };
    let before = seen(&net);
    let allocs = allocs_of_1000_cycles(&mut net, &mut model);
    // Chunks begun in the counted window; the last warm-up chunk may have
    // had room left.
    let chunks = (seen(&net).div_ceil(CHUNK) - before.div_ceil(CHUNK)) as u64;
    assert!(chunks > 1, "the window must fill chunks");
    assert!(
        allocs <= chunks + 4,
        "traced run allocated {allocs} times for {chunks} event chunks \
         across 1000 steady-state cycles"
    );
}
