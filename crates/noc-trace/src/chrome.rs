//! Chrome trace-event (`chrome://tracing` / Perfetto) export.
//!
//! The exporter emits the JSON object format: `{"traceEvents": [...]}`.
//! Each completed flit lifetime becomes a complete ("X") slice on the
//! track (`tid`) of its source node, spanning injection to completion;
//! router incidents (deflections, secondary-crossbar diversions, fairness
//! flips, drops) become instant ("i") events on the track of the router
//! where they happened. Timestamps are simulation cycles written into the
//! microsecond field, so 1 cycle renders as 1 µs.

use crate::event::TraceEvent;
use crate::lifetime::FlitLifetimes;
use serde::value::Value;
use serde::Serialize;
use std::borrow::Borrow;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Build the trace-event tree from an event stream (walked twice: once
/// for the lifetimes, in completion order, once for the instants). Items
/// may be borrowed or owned, as for [`write_jsonl`](crate::write_jsonl).
pub fn chrome_trace<I>(events: I) -> Value
where
    I: IntoIterator + Clone,
    I::Item: Borrow<TraceEvent>,
{
    let mut lifetimes = FlitLifetimes::new();
    let mut trace_events: Vec<Value> = Vec::new();
    for ev in events.clone() {
        let Some(lt) = lifetimes.observe(ev.borrow()) else {
            continue;
        };
        let name = if lt.dropped {
            format!("pkt{}.{} (dropped)", lt.packet, lt.flit_index)
        } else {
            format!("pkt{}.{}", lt.packet, lt.flit_index)
        };
        trace_events.push(obj(vec![
            ("name", Value::Str(name)),
            ("cat", Value::Str("flit".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", Value::U64(lt.injected)),
            (
                "dur",
                Value::U64(lt.finished.saturating_sub(lt.injected).max(1)),
            ),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(lt.src as u64)),
            (
                "args",
                obj(vec![
                    ("packet", Value::U64(lt.packet)),
                    ("flit", Value::U64(lt.flit_index as u64)),
                    ("end_node", Value::U64(lt.end_node as u64)),
                    ("dropped", Value::Bool(lt.dropped)),
                    ("latency", Value::U64(lt.reported_latency)),
                ]),
            ),
        ]));
    }

    for ev in events {
        let ev = ev.borrow();
        let name = match ev {
            TraceEvent::Deflect { .. } => "deflect",
            TraceEvent::DivertSecondary { .. } => "divert_secondary",
            TraceEvent::FairnessFlip { .. } => "fairness_flip",
            TraceEvent::Drop { .. } => "drop",
            _ => continue,
        };
        trace_events.push(obj(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str("router".to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("t".to_string())),
            ("ts", Value::U64(ev.cycle())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(ev.node().0 as u64)),
            ("args", ev.to_value()),
        ]));
    }

    obj(vec![
        ("traceEvents", Value::Array(trace_events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
        (
            "otherData",
            obj(vec![(
                "note",
                Value::Str("1 trace microsecond = 1 router cycle".to_string()),
            )]),
        ),
    ])
}

/// Render the trace-event JSON as a string ready for `chrome://tracing`.
pub fn chrome_trace_json<I>(events: I) -> String
where
    I: IntoIterator + Clone,
    I::Item: Borrow<TraceEvent>,
{
    chrome_trace(events).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{Direction, NodeId, PacketId};

    fn stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Inject {
                cycle: 10,
                node: NodeId(2),
                packet: PacketId(5),
                flit_index: 0,
            },
            TraceEvent::Deflect {
                cycle: 11,
                node: NodeId(3),
                packet: PacketId(5),
                flit_index: 0,
                wanted: Direction::East,
                got: Direction::North,
            },
            TraceEvent::Eject {
                cycle: 14,
                node: NodeId(6),
                packet: PacketId(5),
                flit_index: 0,
                latency: 4,
            },
        ]
    }

    #[test]
    fn emits_complete_and_instant_events() {
        let v = chrome_trace(&stream());
        let evs = v.field("traceEvents").as_array().unwrap();
        assert_eq!(evs.len(), 2); // one X slice + one instant
        let slice = &evs[0];
        assert_eq!(slice.field("ph").as_str(), Some("X"));
        assert_eq!(slice.field("ts").as_u64(), Some(10));
        assert_eq!(slice.field("dur").as_u64(), Some(4));
        assert_eq!(slice.field("tid").as_u64(), Some(2));
        let instant = &evs[1];
        assert_eq!(instant.field("ph").as_str(), Some("i"));
        assert_eq!(instant.field("name").as_str(), Some("deflect"));
        assert_eq!(instant.field("tid").as_u64(), Some(3));
    }

    #[test]
    fn output_parses_back_as_json_with_expected_shape() {
        let json = chrome_trace_json(&stream());
        let v = serde_json::parse(&json).unwrap();
        assert!(v.field("traceEvents").as_array().is_some());
        assert_eq!(v.field("displayTimeUnit").as_str(), Some("ms"));
    }

    #[test]
    fn zero_length_lifetime_gets_nonzero_duration() {
        let events = vec![
            TraceEvent::Inject {
                cycle: 3,
                node: NodeId(0),
                packet: PacketId(1),
                flit_index: 0,
            },
            TraceEvent::Eject {
                cycle: 3,
                node: NodeId(0),
                packet: PacketId(1),
                flit_index: 0,
                latency: 0,
            },
        ];
        let v = chrome_trace(&events);
        let evs = v.field("traceEvents").as_array().unwrap();
        assert_eq!(evs[0].field("dur").as_u64(), Some(1));
    }
}
