//! The flit-lifecycle event vocabulary.
//!
//! Every event carries the cycle it happened on and the router (node) it
//! happened at; flit-scoped events additionally carry the packet id and
//! flit index. JSONL encoding uses short keys to keep multi-million-event
//! traces small:
//!
//! | key     | meaning                                        |
//! |---------|------------------------------------------------|
//! | `k`     | event kind (snake_case tag)                    |
//! | `cy`    | cycle                                          |
//! | `node`  | router id                                      |
//! | `pkt`   | packet id                                      |
//! | `fi`    | flit index within the packet                   |
//! | `dir`   | link direction (Hop)                           |
//! | `occ`   | FIFO occupancy after insertion (BufferEnter)   |
//! | `wait`  | cycles spent buffered (BufferExit)             |
//! | `want`/`got` | requested vs granted port (Deflect)       |
//! | `epoch` | fairness epoch counter (FairnessFlip)          |
//! | `lat`   | packet latency in cycles (Eject)               |

use noc_core::{Cycle, Direction, NodeId, PacketId};
use serde::value::Value;
use serde::{Deserialize, Error, Serialize};

/// Discriminant-only view of [`TraceEvent`], for filtering and counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceEventKind {
    Inject,
    Hop,
    BufferEnter,
    BufferExit,
    Deflect,
    DivertSecondary,
    FairnessFlip,
    Drop,
    Eject,
}

impl TraceEventKind {
    pub const ALL: [TraceEventKind; 9] = [
        TraceEventKind::Inject,
        TraceEventKind::Hop,
        TraceEventKind::BufferEnter,
        TraceEventKind::BufferExit,
        TraceEventKind::Deflect,
        TraceEventKind::DivertSecondary,
        TraceEventKind::FairnessFlip,
        TraceEventKind::Drop,
        TraceEventKind::Eject,
    ];

    /// The snake_case tag used in the JSONL `k` field.
    pub fn tag(self) -> &'static str {
        match self {
            TraceEventKind::Inject => "inject",
            TraceEventKind::Hop => "hop",
            TraceEventKind::BufferEnter => "buffer_enter",
            TraceEventKind::BufferExit => "buffer_exit",
            TraceEventKind::Deflect => "deflect",
            TraceEventKind::DivertSecondary => "divert_secondary",
            TraceEventKind::FairnessFlip => "fairness_flip",
            TraceEventKind::Drop => "drop",
            TraceEventKind::Eject => "eject",
        }
    }

    pub fn from_tag(tag: &str) -> Option<TraceEventKind> {
        TraceEventKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One thing that happened to one flit (or one router, for
/// [`TraceEvent::FairnessFlip`]) on one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A head-of-queue flit left the source queue and entered the router.
    Inject {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
    },
    /// A flit won an output link and traversed it.
    Hop {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
        dir: Direction,
    },
    /// A flit was written into a router buffer (every buffering design) —
    /// on arrival, or after losing arbitration or a port.
    BufferEnter {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
        /// FIFO occupancy right after insertion.
        occupancy: u32,
    },
    /// A buffered flit won arbitration and left the FIFO.
    BufferExit {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
        /// Cycles the flit sat in the FIFO.
        waited: u64,
    },
    /// A bufferless router granted a non-productive port.
    Deflect {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
        wanted: Direction,
        got: Direction,
    },
    /// A buffered flit was routed through the secondary (5x5) crossbar.
    DivertSecondary {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
    },
    /// The router's fairness counter crossed its threshold and flipped
    /// priority between incoming and buffered flits.
    FairnessFlip {
        cycle: Cycle,
        node: NodeId,
        /// How many flips this router has seen, including this one.
        epoch: u64,
    },
    /// A flit was dropped (buffer overflow / fault); the source will
    /// retransmit via NACK.
    Drop {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
    },
    /// A flit reached its destination and left through the local port.
    Eject {
        cycle: Cycle,
        node: NodeId,
        packet: PacketId,
        flit_index: u16,
        /// Cycles since the packet was created at the source.
        latency: u64,
    },
}

impl TraceEvent {
    pub fn kind(&self) -> TraceEventKind {
        match self {
            TraceEvent::Inject { .. } => TraceEventKind::Inject,
            TraceEvent::Hop { .. } => TraceEventKind::Hop,
            TraceEvent::BufferEnter { .. } => TraceEventKind::BufferEnter,
            TraceEvent::BufferExit { .. } => TraceEventKind::BufferExit,
            TraceEvent::Deflect { .. } => TraceEventKind::Deflect,
            TraceEvent::DivertSecondary { .. } => TraceEventKind::DivertSecondary,
            TraceEvent::FairnessFlip { .. } => TraceEventKind::FairnessFlip,
            TraceEvent::Drop { .. } => TraceEventKind::Drop,
            TraceEvent::Eject { .. } => TraceEventKind::Eject,
        }
    }

    pub fn cycle(&self) -> Cycle {
        match self {
            TraceEvent::Inject { cycle, .. }
            | TraceEvent::Hop { cycle, .. }
            | TraceEvent::BufferEnter { cycle, .. }
            | TraceEvent::BufferExit { cycle, .. }
            | TraceEvent::Deflect { cycle, .. }
            | TraceEvent::DivertSecondary { cycle, .. }
            | TraceEvent::FairnessFlip { cycle, .. }
            | TraceEvent::Drop { cycle, .. }
            | TraceEvent::Eject { cycle, .. } => *cycle,
        }
    }

    pub fn node(&self) -> NodeId {
        match self {
            TraceEvent::Inject { node, .. }
            | TraceEvent::Hop { node, .. }
            | TraceEvent::BufferEnter { node, .. }
            | TraceEvent::BufferExit { node, .. }
            | TraceEvent::Deflect { node, .. }
            | TraceEvent::DivertSecondary { node, .. }
            | TraceEvent::FairnessFlip { node, .. }
            | TraceEvent::Drop { node, .. }
            | TraceEvent::Eject { node, .. } => *node,
        }
    }

    /// The packet involved, if this is a flit-scoped event.
    pub fn packet(&self) -> Option<PacketId> {
        match self {
            TraceEvent::Inject { packet, .. }
            | TraceEvent::Hop { packet, .. }
            | TraceEvent::BufferEnter { packet, .. }
            | TraceEvent::BufferExit { packet, .. }
            | TraceEvent::Deflect { packet, .. }
            | TraceEvent::DivertSecondary { packet, .. }
            | TraceEvent::Drop { packet, .. }
            | TraceEvent::Eject { packet, .. } => Some(*packet),
            TraceEvent::FairnessFlip { .. } => None,
        }
    }

    /// The flit index within its packet, if this is a flit-scoped event.
    pub fn flit_index(&self) -> Option<u16> {
        match self {
            TraceEvent::Inject { flit_index, .. }
            | TraceEvent::Hop { flit_index, .. }
            | TraceEvent::BufferEnter { flit_index, .. }
            | TraceEvent::BufferExit { flit_index, .. }
            | TraceEvent::Deflect { flit_index, .. }
            | TraceEvent::DivertSecondary { flit_index, .. }
            | TraceEvent::Drop { flit_index, .. }
            | TraceEvent::Eject { flit_index, .. } => Some(*flit_index),
            TraceEvent::FairnessFlip { .. } => None,
        }
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// The derive macro only covers unit-variant enums, so the payload-carrying
// TraceEvent implements serde by hand, tagged via the `k` field.
impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let tag = Value::Str(self.kind().tag().to_string());
        match self {
            TraceEvent::Inject {
                cycle,
                node,
                packet,
                flit_index,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
            ]),
            TraceEvent::Hop {
                cycle,
                node,
                packet,
                flit_index,
                dir,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
                ("dir", dir.to_value()),
            ]),
            TraceEvent::BufferEnter {
                cycle,
                node,
                packet,
                flit_index,
                occupancy,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
                ("occ", occupancy.to_value()),
            ]),
            TraceEvent::BufferExit {
                cycle,
                node,
                packet,
                flit_index,
                waited,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
                ("wait", waited.to_value()),
            ]),
            TraceEvent::Deflect {
                cycle,
                node,
                packet,
                flit_index,
                wanted,
                got,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
                ("want", wanted.to_value()),
                ("got", got.to_value()),
            ]),
            TraceEvent::DivertSecondary {
                cycle,
                node,
                packet,
                flit_index,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
            ]),
            TraceEvent::FairnessFlip { cycle, node, epoch } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("epoch", epoch.to_value()),
            ]),
            TraceEvent::Drop {
                cycle,
                node,
                packet,
                flit_index,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
            ]),
            TraceEvent::Eject {
                cycle,
                node,
                packet,
                flit_index,
                latency,
            } => obj(vec![
                ("k", tag),
                ("cy", cycle.to_value()),
                ("node", node.to_value()),
                ("pkt", packet.to_value()),
                ("fi", flit_index.to_value()),
                ("lat", latency.to_value()),
            ]),
        }
    }
}

fn get<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    T::from_value(v.field(key)).map_err(|e| Error::msg(format!("TraceEvent.{key}: {e}")))
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let tag: String = get(v, "k")?;
        let kind = TraceEventKind::from_tag(&tag)
            .ok_or_else(|| Error::msg(format!("unknown trace event kind {tag:?}")))?;
        let cycle: Cycle = get(v, "cy")?;
        let node: NodeId = get(v, "node")?;
        let ev = match kind {
            TraceEventKind::Inject => TraceEvent::Inject {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
            },
            TraceEventKind::Hop => TraceEvent::Hop {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
                dir: get(v, "dir")?,
            },
            TraceEventKind::BufferEnter => TraceEvent::BufferEnter {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
                occupancy: get(v, "occ")?,
            },
            TraceEventKind::BufferExit => TraceEvent::BufferExit {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
                waited: get(v, "wait")?,
            },
            TraceEventKind::Deflect => TraceEvent::Deflect {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
                wanted: get(v, "want")?,
                got: get(v, "got")?,
            },
            TraceEventKind::DivertSecondary => TraceEvent::DivertSecondary {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
            },
            TraceEventKind::FairnessFlip => TraceEvent::FairnessFlip {
                cycle,
                node,
                epoch: get(v, "epoch")?,
            },
            TraceEventKind::Drop => TraceEvent::Drop {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
            },
            TraceEventKind::Eject => TraceEvent::Eject {
                cycle,
                node,
                packet: get(v, "pkt")?,
                flit_index: get(v, "fi")?,
                latency: get(v, "lat")?,
            },
        };
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn one_of_each() -> Vec<TraceEvent> {
        let node = NodeId(3);
        let packet = PacketId(42);
        vec![
            TraceEvent::Inject {
                cycle: 1,
                node,
                packet,
                flit_index: 0,
            },
            TraceEvent::Hop {
                cycle: 2,
                node,
                packet,
                flit_index: 0,
                dir: Direction::East,
            },
            TraceEvent::BufferEnter {
                cycle: 3,
                node,
                packet,
                flit_index: 1,
                occupancy: 2,
            },
            TraceEvent::BufferExit {
                cycle: 9,
                node,
                packet,
                flit_index: 1,
                waited: 6,
            },
            TraceEvent::Deflect {
                cycle: 4,
                node,
                packet,
                flit_index: 0,
                wanted: Direction::East,
                got: Direction::North,
            },
            TraceEvent::DivertSecondary {
                cycle: 5,
                node,
                packet,
                flit_index: 1,
            },
            TraceEvent::FairnessFlip {
                cycle: 6,
                node,
                epoch: 2,
            },
            TraceEvent::Drop {
                cycle: 7,
                node,
                packet,
                flit_index: 2,
            },
            TraceEvent::Eject {
                cycle: 8,
                node,
                packet,
                flit_index: 0,
                latency: 7,
            },
        ]
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(TraceEventKind::from_tag("bogus"), None);
    }

    #[test]
    fn every_variant_roundtrips_through_value() {
        for ev in one_of_each() {
            let v = ev.to_value();
            let back = TraceEvent::from_value(&v).unwrap();
            assert_eq!(back, ev);
            assert_eq!(v.field("k").as_str(), Some(ev.kind().tag()));
        }
    }

    #[test]
    fn accessors_agree_with_payload() {
        for ev in one_of_each() {
            assert_eq!(ev.node(), NodeId(3));
            match ev.kind() {
                TraceEventKind::FairnessFlip => {
                    assert_eq!(ev.packet(), None);
                    assert_eq!(ev.flit_index(), None);
                }
                _ => {
                    assert_eq!(ev.packet(), Some(PacketId(42)));
                    assert!(ev.flit_index().is_some());
                }
            }
        }
    }
}
