//! The engine's wires as cycle planes. Every wire of one kind has latency
//! `L` and is read every cycle, so a wire needs no ring of its own: the
//! slots of all nodes that deliver at one cycle (mod `L + 1`) form a
//! plane, one `[T; 4]` per node, a slot per input port. At cycle `t` a
//! node takes its slots from plane `t`, and a send writes the receiver's
//! slot in plane `t + L`, read `L` cycles later. The two planes of a cycle
//! differ, so no send lands where a read of the same cycle looks, whatever
//! the sweep order. An empty slot is `T::default()` (`None`, or zero
//! credits); edge ports are slots nobody writes.

use noc_core::types::{Cycle, NUM_LINK_PORTS};

/// `L + 1` planes of `[T; 4]` per node, flat.
pub struct Wires<T> {
    latency: u64,
    nodes: usize,
    slots: Vec<[T; NUM_LINK_PORTS]>,
}

impl<T: Copy + Default + PartialEq> Wires<T> {
    /// Wires of `latency >= 1` cycles into every port of `nodes` nodes.
    pub fn new(latency: u64, nodes: usize) -> Wires<T> {
        assert!(latency >= 1, "wire latency must be >= 1");
        // `planes` offsets raw pointers by up to `latency * nodes` slots.
        let len = usize::try_from(latency)
            .ok()
            .and_then(|l| l.checked_add(1)?.checked_mul(nodes))
            .expect("wire planes fit the host");
        let slots = vec![[T::default(); NUM_LINK_PORTS]; len];
        Wires {
            latency,
            nodes,
            slots,
        }
    }

    /// First slot of the plane that delivers at `cycle`.
    fn plane(&self, cycle: Cycle) -> usize {
        (cycle % (self.latency + 1)) as usize * self.nodes
    }

    /// Take everything that reaches `node` at `cycle`, by input port.
    #[cfg(test)]
    pub fn recv(&mut self, cycle: Cycle, node: usize) -> [T; NUM_LINK_PORTS] {
        let at = self.plane(cycle) + node;
        std::mem::take(&mut self.slots[at])
    }

    /// Send `item` into `node`'s input `port` at `cycle`, to arrive at
    /// `cycle + latency`. Panics when the slot is still full.
    pub fn send(&mut self, cycle: Cycle, node: usize, port: usize, item: T) {
        let at = self.plane(cycle + self.latency) + node;
        put(&mut self.slots[at][port], item);
    }

    /// Cycle `t`'s receive and send planes, for the tile workers.
    pub(crate) fn planes(&mut self, t: Cycle) -> Planes<T> {
        let base = self.slots.as_mut_ptr();
        // SAFETY: a plane's first slot is below `period * nodes`, the
        // length of `slots`.
        unsafe {
            Planes {
                recv: base.add(self.plane(t)),
                send: base.add(self.plane(t + self.latency)),
            }
        }
    }
}

/// Fill an empty slot. A full one means a second send on one wire before
/// its item was read: an engine bug, not a network condition.
#[inline]
fn put<T: Default + PartialEq>(slot: &mut T, item: T) {
    assert!(
        *slot == T::default(),
        "wire overrun: a slot was sent into twice before it was read"
    );
    *slot = item;
}

/// Raw views of one cycle's receive and send planes; `tiles::SharedGrid`
/// says which thread may touch which node's slots.
#[derive(Clone, Copy)]
pub(crate) struct Planes<T> {
    recv: *mut [T; NUM_LINK_PORTS],
    send: *mut [T; NUM_LINK_PORTS],
}

impl<T: Copy + Default + PartialEq> Planes<T> {
    /// Take everything that reaches `node` this cycle, by input port.
    ///
    /// # Safety
    ///
    /// `node` is in bounds; until the view's last use the `Wires` is not
    /// moved, dropped or otherwise accessed, and no other thread touches
    /// `node`'s receive slots.
    pub(crate) unsafe fn take(self, node: usize) -> [T; NUM_LINK_PORTS] {
        // SAFETY: in bounds and unshared by the caller's contract.
        unsafe { std::mem::take(&mut *self.recv.add(node)) }
    }

    /// [`Wires::send`] through the view.
    ///
    /// # Safety
    ///
    /// As [`take`](Self::take), for `node`'s send slots.
    pub(crate) unsafe fn put(self, node: usize, port: usize, item: T) {
        // SAFETY: in bounds and unshared by the caller's contract.
        put(unsafe { &mut (*self.send.add(node))[port] }, item);
    }
}

#[cfg(test)]
#[path = "../tests/model/wires.rs"]
mod tests;
