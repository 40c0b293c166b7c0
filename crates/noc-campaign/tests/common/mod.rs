//! Shared generators for the generated-input tests of the cache and of the
//! JSON read paths: seeded `RunResult`s and points, and JSON documents that
//! are damaged or spelled unusually on purpose.

// Each test binary compiles its own copy of this module and uses a
// different subset of the helpers.
#![allow(dead_code)]

use dxbar_noc::noc_core::{EventCounts, LatencyStats, NetStats, Topology};
use dxbar_noc::noc_power::energy::EnergyBreakdown;
use dxbar_noc::noc_sim::report::AppStats;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, RunResult, SimConfig};
use noc_campaign::{CampaignSpec, PointGroup, PointSpec, WorkloadAxis};
use proptest::runtime::TestRng;
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch directory per call (no tempfile crate in the offline
/// build); removed on a best-effort basis by the caller.
pub fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "noc-campaign-gen-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A seeded source of the awkward values a serializer has to survive.
pub struct Gen(pub TestRng);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(TestRng::seed_from(seed))
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(n as u64) as usize
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    pub fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }

    pub fn u64(&mut self) -> u64 {
        match self.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => i64::MAX as u64 + 1,
            3 => self.0.next_u64(),
            _ => self.0.gen_range(1000),
        }
    }

    pub fn f64(&mut self) -> f64 {
        match self.below(10) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => 2.0,
            4 => 1e300,
            5 => f64::MIN_POSITIVE / 8.0,
            6 => -self.0.gen_f64() * 1e6,
            _ => self.0.gen_f64() * 100.0,
        }
    }

    /// Text with quotes, backslashes, control characters, non-ASCII and
    /// non-BMP characters mixed in.
    pub fn string(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\r", "\u{1}", "\u{1f}", "\u{7f}",
            "é", "中", "😀", "\u{fffd}", "UR@0.300", "dxbar",
        ];
        let len = self.pick(&[0, 1, 3, 12]);
        (0..len).map(|_| self.pick(PIECES)).collect()
    }

    fn latency(&mut self, long: bool) -> LatencyStats {
        let buckets = if long { 200 } else { self.pick(&[0, 1, 50]) };
        LatencyStats {
            count: self.u64(),
            sum: self.u64(),
            min: self.u64(),
            max: self.u64(),
            buckets: (0..buckets).map(|_| self.u64()).collect(),
        }
    }

    fn events(&mut self) -> EventCounts {
        EventCounts {
            buffer_writes: self.u64(),
            deflections: self.u64(),
            drops: self.u64(),
            injections: self.u64(),
            ejections: self.u64(),
            crc_rejects: self.u64(),
            ..EventCounts::default()
        }
    }

    pub fn run_result(&mut self) -> RunResult {
        let long = self.one_in(8);
        let stats = NetStats {
            measured_cycles: self.u64(),
            offered_flits: self.u64(),
            accepted_flits: self.u64(),
            accepted_packets: self.u64(),
            packet_latency: self.latency(long),
            flit_latency: self.latency(false),
            hops: self.latency(false),
            recovery_latency: self.latency(false),
            per_source_latency: (0..self.pick(&[0, 1, 4]))
                .map(|_| self.latency(false))
                .collect(),
            events: self.events(),
            events_at_window_start: self.events(),
        };
        let apps = (0..self.pick(&[0, 0, 2]))
            .map(|_| AppStats {
                name: self.string(),
                traffic: self.string(),
                src_nodes: self.below(64),
                offered_packets: self.u64(),
                accepted_packets: self.u64(),
                avg_packet_latency: self.f64(),
                accepted_rate: self.f64(),
            })
            .collect();
        RunResult {
            design: self.string(),
            traffic: self.string(),
            offered_load: if self.one_in(3) {
                None
            } else {
                Some(self.f64())
            },
            accepted_rate: self.f64(),
            accepted_fraction: self.f64(),
            avg_packet_latency: self.f64(),
            avg_flit_latency: self.f64(),
            avg_packet_energy_nj: self.f64(),
            energy: EnergyBreakdown {
                crossbar_pj: self.f64(),
                link_pj: self.f64(),
                buffer_pj: self.f64(),
                nack_pj: self.f64(),
            },
            accepted_packets: self.u64(),
            deflections_per_packet: self.f64(),
            drops_per_packet: self.f64(),
            buffered_fraction: self.f64(),
            max_source_latency: self.f64(),
            latency_spread: self.f64(),
            finish_cycle: if self.one_in(2) {
                None
            } else {
                Some(self.u64())
            },
            completed: self.one_in(2),
            lost_flits: self.u64(),
            crc_rejects: self.u64(),
            ni_retransmits: self.u64(),
            avg_recovery_latency: self.f64(),
            apps,
            stats,
        }
    }

    pub fn sim_config(&mut self) -> SimConfig {
        SimConfig {
            width: self.pick(&[2, 4, 8]),
            height: self.pick(&[2, 3, 8]),
            topology: self.pick(&[Topology::Mesh, Topology::Torus, Topology::CMesh]),
            buffer_depth: self.pick(&[1, 4, 8]),
            fairness_threshold: self.pick(&[0, 4, u32::MAX]),
            warmup_cycles: self.u64(),
            measure_cycles: self.u64(),
            seed: self.u64(),
            packet_len: self.pick(&[1, 4, u8::MAX]),
            ..SimConfig::default()
        }
    }

    pub fn campaign_spec(&mut self) -> CampaignSpec {
        let mut spec = CampaignSpec::new(self.string());
        spec.retry.max_retries = self.pick(&[0, 2, u32::MAX]);
        for _ in 0..self.pick(&[0, 1, 2]) {
            let workload = match self.below(3) {
                0 => WorkloadAxis::Synthetic {
                    patterns: (0..self.below(3))
                        .map(|_| self.pick(&Pattern::ALL))
                        .collect(),
                    loads: (0..self.below(3)).map(|_| self.f64()).collect(),
                },
                1 => WorkloadAxis::Splash {
                    apps: Vec::new(),
                    max_cycles: self.u64(),
                },
                _ => WorkloadAxis::Scenario {
                    scenarios: (0..self.below(3)).map(|_| self.string()).collect(),
                    loads: vec![self.f64()],
                },
            };
            spec.groups.push(PointGroup {
                label: self.string(),
                config: self.sim_config(),
                designs: (0..self.below(4))
                    .map(|_| self.pick(&Design::ALL))
                    .collect(),
                workload,
                fault_fractions: (0..self.below(3)).map(|_| self.f64()).collect(),
                transient_rates: Vec::new(),
                link_faults: (0..self.below(2)).map(|_| self.below(9)).collect(),
                seeds: (0..self.below(3)).map(|_| self.u64()).collect(),
                tag: if self.one_in(2) {
                    None
                } else {
                    Some(self.string())
                },
            });
        }
        spec
    }

    /// A JSON value of any shape, at most `depth` containers deep.
    pub fn value(&mut self, depth: usize) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.one_in(2)),
            2 => Value::U64(self.u64()),
            3 => Value::I64(-(self.0.gen_range(1 << 40) as i64) - 1),
            4 => Value::F64(self.f64()),
            5 => Value::Str(self.string()),
            6 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

/// Points of a small two-design grid, for entries to be stored under.
pub fn points() -> Vec<PointSpec> {
    CampaignSpec::new("generated")
        .with_group(PointGroup {
            label: "generated".into(),
            config: SimConfig {
                width: 4,
                height: 4,
                ..SimConfig::default()
            },
            designs: vec![Design::DXbarDor, Design::FlitBless],
            workload: WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom],
                loads: vec![0.1, 0.3],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![1],
            tag: None,
        })
        .points()
}

/// One structural edit of a JSON tree, at a node chosen by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// A key nobody reads, with some value, inserted into an object.
    UnknownKey,
    /// A second occurrence of an existing key, before or after the first.
    DuplicateKey,
    /// A key renamed to one nobody reads.
    RenameKey,
    /// A key and its value removed.
    DropKey,
    /// A value replaced by one of another shape.
    TypeSwap,
}

impl Edit {
    pub const ALL: [Edit; 5] = [
        Edit::UnknownKey,
        Edit::DuplicateKey,
        Edit::RenameKey,
        Edit::DropKey,
        Edit::TypeSwap,
    ];
}

fn nodes(v: &Value) -> usize {
    1 + match v {
        Value::Array(xs) => xs.iter().map(nodes).sum(),
        Value::Object(pairs) => pairs.iter().map(|(_, x)| nodes(x)).sum(),
        _ => 0,
    }
}

/// The `k`-th node of `v` in pre-order.
fn node_mut(v: &mut Value, k: usize) -> &mut Value {
    if k == 0 {
        return v;
    }
    let mut k = k - 1;
    let children: Vec<&mut Value> = match v {
        Value::Array(xs) => xs.iter_mut().collect(),
        Value::Object(pairs) => pairs.iter_mut().map(|(_, x)| x).collect(),
        _ => unreachable!("k is within the node count"),
    };
    for child in children {
        let n = nodes(child);
        if k < n {
            return node_mut(child, k);
        }
        k -= n;
    }
    unreachable!("k is within the node count")
}

/// Apply `edit` to a node of `v`. An object edit that finds no object (or
/// an empty one) at the chosen node swaps the node's type instead.
pub fn edit(g: &mut Gen, v: &mut Value, edit: Edit) {
    let k = g.below(nodes(v));
    let node = node_mut(v, k);
    match (edit, node) {
        (Edit::UnknownKey, Value::Object(pairs)) => {
            let at = g.below(pairs.len() + 1);
            pairs.insert(at, ("zz_unknown".into(), g.value(2)));
        }
        (Edit::DuplicateKey, Value::Object(pairs)) if !pairs.is_empty() => {
            let key = pairs[g.below(pairs.len())].0.clone();
            let value = g.value(2);
            let at = g.below(pairs.len() + 1);
            pairs.insert(at, (key, value));
        }
        (Edit::RenameKey, Value::Object(pairs)) if !pairs.is_empty() => {
            let at = g.below(pairs.len());
            pairs[at].0.push_str("_renamed");
        }
        (Edit::DropKey, Value::Object(pairs)) if !pairs.is_empty() => {
            pairs.remove(g.below(pairs.len()));
        }
        (_, node) => {
            let shape = std::mem::discriminant(node);
            let mut swapped = g.value(1);
            while std::mem::discriminant(&swapped) == shape {
                swapped = g.value(1);
            }
            *node = swapped;
        }
    }
}

/// JSON text for `v` in one of many valid spellings: compact or pretty,
/// extra whitespace, numbers written unusually (`01`, `1.`, `-.5`, `1E5`,
/// `-0`) and characters escaped (`é`, surrogate pairs, `\/`). The
/// spelling may change a number's type (`3` as `3.0` is a float) but never
/// what a tree of the text holds beyond that.
pub fn spell(g: &mut Gen, v: &Value) -> String {
    let mut out = String::new();
    let pretty = g.one_in(2);
    spell_into(g, v, pretty, 0, &mut out);
    out
}

fn ws(g: &mut Gen, out: &mut String) {
    if g.one_in(8) {
        out.push_str(g.pick(&[" ", "\n", "\t", "\r\n  "]));
    }
}

fn newline(pretty: bool, depth: usize, out: &mut String) {
    if pretty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
}

fn spell_into(g: &mut Gen, v: &Value, pretty: bool, depth: usize, out: &mut String) {
    ws(g, out);
    match v {
        Value::U64(n) => match g.below(6) {
            0 => out.push_str(&format!("0{n}")),
            1 => out.push_str(&format!("{n}.")),
            2 => out.push_str(&format!("{n}E0")),
            3 if *n == 0 => out.push_str("-0"),
            _ => out.push_str(&n.to_string()),
        },
        Value::I64(n) => match g.below(3) {
            0 => out.push_str(&format!("-0{}", n.unsigned_abs())),
            _ => out.push_str(&n.to_string()),
        },
        Value::F64(x) if x.is_finite() => {
            let canonical = Value::F64(*x).to_json();
            match g.below(5) {
                0 => out.push_str(&format!("{x:E}")),
                1 => out.push_str(&format!("{x:e}")),
                2 if canonical.starts_with("-0.") => out.push_str(&format!("-{}", &canonical[2..])),
                3 if canonical.ends_with(".0") => out.push_str(&canonical[..canonical.len() - 1]),
                _ => out.push_str(&canonical),
            }
        }
        Value::Str(s) => spell_str(g, s, out),
        Value::Array(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(pretty, depth + 1, out);
                spell_into(g, x, pretty, depth + 1, out);
            }
            if !xs.is_empty() {
                newline(pretty, depth, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, x)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(pretty, depth + 1, out);
                spell_str(g, k, out);
                ws(g, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                spell_into(g, x, pretty, depth + 1, out);
            }
            if !pairs.is_empty() {
                newline(pretty, depth, out);
            }
            out.push('}');
        }
        other => out.push_str(&other.to_json()),
    }
    ws(g, out);
}

fn spell_str(g: &mut Gen, s: &str, out: &mut String) {
    if !g.one_in(3) {
        out.push_str(&Value::Str(s.into()).to_json());
        return;
    }
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if g.one_in(2) => out.push_str("\\/"),
            c if (c as u32) < 0x20 || g.one_in(2) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One byte-level damage to JSON text that keeps it UTF-8: cut at a
/// character boundary, or one byte of an ASCII character changed to another
/// ASCII byte.
pub fn damage(g: &mut Gen, text: &str) -> String {
    if text.is_empty() {
        return text.to_owned();
    }
    if g.one_in(2) {
        let mut cut = g.below(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return text[..cut].to_owned();
    }
    let mut bytes = text.as_bytes().to_vec();
    let at = g.below(bytes.len());
    if bytes[at].is_ascii() {
        bytes[at] ^= 1 << g.below(7);
    }
    String::from_utf8(bytes).expect("ASCII stays ASCII")
}
