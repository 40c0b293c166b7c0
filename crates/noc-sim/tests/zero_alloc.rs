//! Allocation regression pin for the cycle kernel.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warmup long enough to reach every buffer's high-water mark, 1 000
//! steady-state cycles with tracing, verification and resilience disabled
//! must perform **zero** heap allocations. Any new `Vec`/`Box` on the
//! engine's per-cycle path turns this red.
//!
//! The router here is a minimal deflection design written to be trivially
//! allocation-free, so the test isolates the *engine* (delay lines,
//! source queues, scratch buffers, stats). The root crate carries the same
//! test over the real DXbar router.

use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_core::SimConfig;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::Network;
use noc_topology::Mesh;
use noc_traffic::generator::SyntheticTraffic;
use noc_traffic::patterns::Pattern;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Minimal bufferless deflection router: ejects everything addressed to it,
/// assigns every other flit a productive port when free, else any free
/// port. Its `step` touches only the stack.
struct MiniDeflect {
    node: NodeId,
    mesh: Mesh,
    num_links: usize,
}

impl RouterModel for MiniDeflect {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let mut flits: InlineVec<Flit, 5> =
            ctx.arrivals.iter_mut().filter_map(|a| a.take()).collect();
        let mut i = 0;
        while i < flits.len() {
            if flits[i].dst == self.node {
                let f = flits.remove(i);
                ctx.ejected.push(f);
            } else {
                i += 1;
            }
        }
        if flits.len() < self.num_links {
            if let Some(inj) = ctx.injection {
                if inj.dst == self.node {
                    ctx.ejected.push(inj);
                } else {
                    flits.push(inj);
                }
                ctx.injected = true;
            }
        }
        let mut used = [false; NUM_LINK_PORTS];
        for f in flits.iter() {
            let c = self.mesh.coord_of(self.node);
            let d = self.mesh.coord_of(f.dst);
            let prefer = if d.x > c.x {
                Direction::East
            } else if d.x < c.x {
                Direction::West
            } else if d.y > c.y {
                Direction::South
            } else {
                Direction::North
            };
            let dir = if !used[prefer.index()] && self.mesh.neighbor(self.node, prefer).is_some() {
                prefer
            } else {
                LINK_DIRECTIONS
                    .into_iter()
                    .find(|&dd| !used[dd.index()] && self.mesh.neighbor(self.node, dd).is_some())
                    .expect("flit count never exceeds link count")
            };
            used[dir.index()] = true;
            ctx.out_links[dir.index()] = Some(f);
        }
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn occupancy(&self) -> usize {
        0
    }

    fn design_name(&self) -> &'static str {
        "MiniDeflect"
    }
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 2, // whole run in-window: stats paths hot
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(8, 8);
    let mut net = Network::new(&cfg, &|node| MiniDeflect {
        node,
        mesh: Mesh::new(8, 8),
        num_links: mesh.link_dirs(node).count(),
    });
    let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.1, 1, 42);

    // Warmup: reach the queue/stats high-water marks.
    net.run_cycles(&mut model, 20_000);

    COUNTING.store(true, Ordering::SeqCst);
    net.run_cycles(&mut model, 1_000);
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        net.stats().accepted_flits > 0,
        "run must actually move traffic"
    );
    assert_eq!(
        allocs, 0,
        "engine allocated {allocs} times across 1000 steady-state cycles"
    );
}
