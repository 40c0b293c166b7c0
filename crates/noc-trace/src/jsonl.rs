//! JSONL (one JSON object per line) trace export and import.
//!
//! Events serialize in their original order with stable field ordering, so
//! two runs with the same seed produce byte-identical files.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::io::{self, Write};

/// Render events as JSONL into any writer. Items may be borrowed (a slice)
/// or owned (a [`RingRecorder`](crate::RingRecorder) decoding as it goes).
pub fn write_jsonl<W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator,
    I::Item: Borrow<TraceEvent>,
{
    for ev in events {
        let line = ev.borrow().to_value().to_json();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Render events as a JSONL string.
pub fn to_jsonl<I>(events: I) -> String
where
    I: IntoIterator,
    I::Item: Borrow<TraceEvent>,
{
    let mut out = Vec::new();
    write_jsonl(&mut out, events).expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("JSON output is UTF-8")
}

/// Parse a JSONL trace back into events. Blank lines are skipped; the
/// 1-based line number is included in parse errors.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, serde::Error> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = serde_json::parse(line)
            .map_err(|e| serde::Error::msg(format!("line {}: {e}", lineno + 1)))?;
        events.push(
            TraceEvent::from_value(&v)
                .map_err(|e| serde::Error::msg(format!("line {}: {e}", lineno + 1)))?,
        );
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{Direction, NodeId, PacketId};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Inject {
                cycle: 1,
                node: NodeId(0),
                packet: PacketId(1),
                flit_index: 0,
            },
            TraceEvent::Hop {
                cycle: 2,
                node: NodeId(0),
                packet: PacketId(1),
                flit_index: 0,
                dir: Direction::East,
            },
            TraceEvent::Eject {
                cycle: 3,
                node: NodeId(1),
                packet: PacketId(1),
                flit_index: 0,
                latency: 2,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_events_and_order() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_is_reproducible() {
        let events = sample_events();
        assert_eq!(to_jsonl(&events), to_jsonl(&events));
    }

    #[test]
    fn blank_lines_skipped_bad_lines_located() {
        let events = sample_events();
        let mut text = to_jsonl(&events);
        text.push('\n');
        assert_eq!(from_jsonl(&text).unwrap(), events);

        let bad = "{\"k\":\"inject\"}\n";
        let err = from_jsonl(bad).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
