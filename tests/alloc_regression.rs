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
//! Allocations are counted per thread (the one-tile engine steps on the
//! caller's thread), so the two tests can run side by side.

use dxbar_noc::{Design, SimConfig};
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

/// Warm an 8x8 uniform-random run of `design` at `load` up to its
/// high-water marks, then count the allocations of 1 000 more cycles.
fn steady_state_allocs(
    design: Design,
    load: f64,
    warmup: u64,
) -> (u64, Network<dxbar_noc::RouterKind>) {
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

    net.run_cycles(&mut model, warmup);

    ALLOCS.with(|n| n.set(Some(0)));
    net.run_cycles(&mut model, 1_000);
    let allocs = ALLOCS.with(|n| n.take()).expect("counting was on");

    assert!(
        net.stats().accepted_flits > 0,
        "run must actually move traffic"
    );
    (allocs, net)
}

#[test]
fn dxbar_steady_state_cycles_do_not_allocate() {
    let (allocs, _) = steady_state_allocs(Design::DXbarDor, 0.1, 20_000);
    assert_eq!(
        allocs, 0,
        "DXbar run allocated {allocs} times across 1000 steady-state cycles"
    );
}

#[test]
fn scarab_saturated_source_queues_do_not_allocate() {
    // A flit offered per node per cycle: a queue is at the cap whenever
    // the router did not just take one.
    let (allocs, net) = steady_state_allocs(Design::Scarab, 1.0, 40_000);
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
