//! Slab arena for flits parked in a buffer bank.
//!
//! [`FlitPool`] gives parked flits one contiguous slab instead of whole
//! [`Flit`] values (48 bytes) in queues that grow on the general heap: a
//! parked flit occupies one stable slot addressed by a 4-byte [`FlitId`]
//! handle, the queues move only handles, and freed slots are recycled
//! through a LIFO free-list so a warmed-up simulation stops allocating
//! entirely — the slab's high-water mark is reached during warmup and
//! every subsequent alloc pops the free-list. Its user is the DAMQ
//! router's shared buffer (`noc_zoo::slab`). The engine keeps no flits
//! here: links carry them by value in cycle planes (`noc-sim/src/wires.rs`) and
//! source queues hold packets until a flit is due (`noc_sim::source_queue`).
//!
//! Slot reuse is deterministic (LIFO), so pool-managed runs are exactly as
//! reproducible as value-carrying ones. Handles stay inside their owner:
//! routers receive and return full `Flit` values.

use crate::flit::Flit;

/// Stable handle to a flit parked in a [`FlitPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitId(u32);

impl FlitId {
    /// Raw slot index (diagnostics only).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab of parked flits with free-list reuse. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct FlitPool {
    slots: Vec<Flit>,
    free: Vec<u32>,
    /// Live-slot map, maintained only under `debug_assertions`: catches
    /// double-free and use-after-free in tests at zero release cost.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl FlitPool {
    pub fn new() -> FlitPool {
        FlitPool::default()
    }

    /// Pool with `n` slots preallocated (still empty).
    pub fn with_capacity(n: usize) -> FlitPool {
        FlitPool {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            #[cfg(debug_assertions)]
            live: Vec::with_capacity(n),
        }
    }

    /// Park a flit; returns its handle. Reuses the most recently freed slot
    /// when one exists (LIFO — deterministic), otherwise grows the slab.
    #[inline]
    pub fn alloc(&mut self, flit: Flit) -> FlitId {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = flit;
                #[cfg(debug_assertions)]
                {
                    debug_assert!(!self.live[idx as usize], "allocating a live slot");
                    self.live[idx as usize] = true;
                }
                FlitId(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("flit pool exceeds u32 slots");
                self.slots.push(flit);
                #[cfg(debug_assertions)]
                self.live.push(true);
                FlitId(idx)
            }
        }
    }

    /// Unpark: copy the flit out and recycle its slot. The handle is dead
    /// afterwards.
    #[inline]
    pub fn take(&mut self, id: FlitId) -> Flit {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[id.index()], "take of a freed slot");
            self.live[id.index()] = false;
        }
        self.free.push(id.0);
        self.slots[id.index()]
    }

    /// Read a parked flit.
    #[inline]
    pub fn get(&self, id: FlitId) -> &Flit {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.index()], "get of a freed slot");
        &self.slots[id.index()]
    }

    /// Mutate a parked flit in place (the source NI sequences the queue
    /// head this way).
    #[inline]
    pub fn get_mut(&mut self, id: FlitId) -> &mut Flit {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[id.index()], "get_mut of a freed slot");
        &mut self.slots[id.index()]
    }

    /// Flits currently parked.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slab high-water mark: total slots ever created.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use crate::types::NodeId;

    fn flit(p: u64) -> Flit {
        Flit::synthetic(PacketId(p), NodeId(0), NodeId(1), p)
    }

    #[test]
    fn alloc_take_round_trips() {
        let mut pool = FlitPool::new();
        let a = pool.alloc(flit(1));
        let b = pool.alloc(flit(2));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.get(a).packet, PacketId(1));
        assert_eq!(pool.take(b).packet, PacketId(2));
        assert_eq!(pool.take(a).packet, PacketId(1));
        assert!(pool.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut pool = FlitPool::new();
        let a = pool.alloc(flit(1));
        let b = pool.alloc(flit(2));
        let _ = pool.take(a);
        let _ = pool.take(b);
        // LIFO: b's slot comes back first, then a's; the slab never grows.
        let c = pool.alloc(flit(3));
        assert_eq!(c.index(), b.index());
        let d = pool.alloc(flit(4));
        assert_eq!(d.index(), a.index());
        assert_eq!(pool.slots(), 2);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut pool = FlitPool::new();
        let id = pool.alloc(flit(7));
        pool.get_mut(id).set_seq(9);
        assert_eq!(pool.get(id).seq, 9);
        assert_eq!(pool.take(id).seq, 9);
    }

    #[test]
    fn steady_state_churn_never_regrows() {
        let mut pool = FlitPool::with_capacity(8);
        // Warm to depth 8, then churn at that depth: slots() must not move.
        let mut ids: Vec<FlitId> = (0..8).map(|i| pool.alloc(flit(i))).collect();
        assert_eq!(pool.slots(), 8);
        for round in 0..100u64 {
            let id = ids.remove((round % 7) as usize);
            let _ = pool.take(id);
            ids.push(pool.alloc(flit(round + 8)));
        }
        assert_eq!(pool.slots(), 8);
        assert_eq!(pool.live(), 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "take of a freed slot")]
    fn double_take_is_caught_in_debug() {
        let mut pool = FlitPool::new();
        let id = pool.alloc(flit(1));
        let _ = pool.take(id);
        let _ = pool.take(id);
    }
}
