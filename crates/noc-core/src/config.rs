//! Simulation configuration.
//!
//! Defaults reproduce the paper's setup: an 8x8 2D mesh at 1 GHz with
//! 128-bit flits, 4-flit input buffers, a fairness threshold of 4, and a
//! 5-cycle fault-detection delay.

use serde::{Deserialize, Serialize};

/// Largest [`SimConfig::buffer_depth`] a config may ask for. Routers
/// preallocate their FIFOs, so the bound keeps a spec from aborting the
/// process on allocation; the deepest FIFO any design builds (DAMQ's
/// shared slab of 4 x depth slots) still fits a `u16` occupancy probe.
pub const MAX_BUFFER_DEPTH: usize = 256;

/// Largest [`SimConfig::packet_len`] a config may ask for: the ejection
/// side reassembles a packet in a 64-bit mask of received flits.
pub const MAX_PACKET_LEN: usize = 64;

/// Largest [`SimConfig::source_queue_cap`] a config may ask for: every
/// node preallocates its source queue.
pub const MAX_SOURCE_QUEUE_CAP: usize = 4096;

/// Fabric topology of the router grid.
///
/// * `Mesh` — the paper's plain 2D mesh (links end at the edges);
/// * `Torus` — the same grid with wraparound links on both axes, so every
///   router has all four neighbours and routing may take the shorter ring
///   direction;
/// * `CMesh` — a concentrated mesh: the router grid is unchanged, but each
///   router serves `4` terminals (a `w x h` CMesh replaces a `2w x 2h`
///   mesh), so traffic patterns are computed in terminal space and then
///   folded onto the routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    #[default]
    Mesh,
    Torus,
    CMesh,
}

impl Topology {
    /// Canonical lowercase name (CLI flags, spec JSON, figure labels).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Mesh => "mesh",
            Topology::Torus => "torus",
            Topology::CMesh => "cmesh",
        }
    }

    /// Parse a canonical name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Topology> {
        Some(match s.to_ascii_lowercase().as_str() {
            "mesh" => Topology::Mesh,
            "torus" => Topology::Torus,
            "cmesh" | "concentrated" => Topology::CMesh,
            _ => return None,
        })
    }

    /// Terminals (traffic endpoints) per router: 4 for the concentrated
    /// mesh, 1 otherwise.
    pub fn concentration(&self) -> u16 {
        match self {
            Topology::CMesh => 4,
            _ => 1,
        }
    }

    pub const ALL: [Topology; 3] = [Topology::Mesh, Topology::Torus, Topology::CMesh];
}

// Hand-written serde: the derive would work for a unit enum, but specs
// written before the topology axis existed carry no `topology` field at
// all — mapping JSON null (the shim's missing-field value) to the plain
// mesh keeps every pre-existing spec and config file loadable.
impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Topology::Mesh);
        }
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("Topology: expected string"))?;
        Topology::from_name(s).ok_or_else(|| serde::Error::msg(format!("unknown topology {s:?}")))
    }
}

/// Complete static configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Fabric topology of the `width x height` router grid.
    pub topology: Topology,
    /// Flit width in bits (128 in the paper).
    pub flit_bits: u32,
    /// Input-buffer depth in flits (DXbar secondary buffers and the
    /// Buffered-4 baseline use 4).
    pub buffer_depth: usize,
    /// Number of virtual channels for buffered baselines (Buffered-4 = 1,
    /// Buffered-8 = 2).
    pub num_vcs: usize,
    /// Consecutive incoming-flit wins before DXbar flips priority to the
    /// buffered side (the paper tunes this to 4).
    pub fairness_threshold: u32,
    /// Cycles from fault manifestation to detection (BIST assumption: 5).
    pub fault_detection_delay: u64,
    /// Warmup cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measurement-window length in cycles.
    pub measure_cycles: u64,
    /// Additional cycles after measurement to let in-flight packets drain.
    pub drain_cycles: u64,
    /// Master seed; all node/sweep streams derive from it.
    pub seed: u64,
    /// Flits per synthetic packet (the paper's flit-level evaluation uses 1;
    /// the SPLASH model uses 1-flit requests and 4-flit data replies).
    pub packet_len: u8,
    /// Maximum flits a source's injection queue may hold before the
    /// generator stalls (bounds memory at deep saturation).
    pub source_queue_cap: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            width: 8,
            height: 8,
            topology: Topology::Mesh,
            flit_bits: 128,
            buffer_depth: 4,
            num_vcs: 1,
            fairness_threshold: 4,
            fault_detection_delay: 5,
            warmup_cycles: 10_000,
            measure_cycles: 30_000,
            drain_cycles: 20_000,
            seed: 0xD15EA5E,
            packet_len: 1,
            source_queue_cap: 64,
        }
    }
}

impl SimConfig {
    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The normalization basis for "offered load as a fraction of network
    /// capacity": the injection-port bandwidth of 1 flit/node/cycle. With
    /// this normalization the paper's saturation points land where Fig. 5
    /// shows them (DXbar > 0.4, bufferless designs < 0.3) — the theoretical
    /// uniform-random ceiling is [`SimConfig::bisection_bound`], 0.5 on an
    /// 8x8 mesh, so no design can accept more than half of "capacity".
    pub fn capacity_per_node(&self) -> f64 {
        1.0
    }

    /// Ideal uniform-random throughput bound in flits/node/cycle:
    /// `2 * B_c / N` where `B_c` is the bisection channel count (both
    /// directions): 0.5 flits/node/cycle on an 8x8 mesh.
    pub fn bisection_bound(&self) -> f64 {
        let bc = 2.0 * self.width.min(self.height) as f64;
        2.0 * bc / self.num_nodes() as f64
    }

    /// Injection probability per node per cycle for a given offered load
    /// expressed as a fraction of capacity.
    pub fn injection_rate(&self, offered_load: f64) -> f64 {
        offered_load * self.capacity_per_node() / self.packet_len.max(1) as f64
    }

    /// Total simulated cycles; `None` past `u64::MAX`, which `validate`
    /// rejects.
    fn checked_total_cycles(&self) -> Option<u64> {
        let warmup_and_measure = self.warmup_cycles.checked_add(self.measure_cycles);
        warmup_and_measure?.checked_add(self.drain_cycles)
    }

    /// Total simulated cycles of a validated config.
    pub fn total_cycles(&self) -> u64 {
        self.checked_total_cycles().expect("validated cycle window")
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.width < 2 || self.height < 2 {
            return Err(format!(
                "mesh must be at least 2x2, got {}x{}",
                self.width, self.height
            ));
        }
        if self.num_nodes() > u16::MAX as usize {
            return Err("too many nodes for 16-bit NodeId".into());
        }
        if !(1..=MAX_BUFFER_DEPTH).contains(&self.buffer_depth) {
            return Err(format!(
                "buffer_depth must be in 1..={MAX_BUFFER_DEPTH}, got {}",
                self.buffer_depth
            ));
        }
        if self.num_vcs == 0 {
            return Err("num_vcs must be positive".into());
        }
        if !(1..=MAX_PACKET_LEN).contains(&usize::from(self.packet_len)) {
            return Err(format!(
                "packet_len must be in 1..={MAX_PACKET_LEN}, got {}",
                self.packet_len
            ));
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be positive".into());
        }
        if self.checked_total_cycles().is_none() {
            return Err("warmup + measure + drain cycles must fit in u64".into());
        }
        if !(1..=MAX_SOURCE_QUEUE_CAP).contains(&self.source_queue_cap) {
            return Err(format!(
                "source_queue_cap must be in 1..={MAX_SOURCE_QUEUE_CAP}, got {}",
                self.source_queue_cap
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.width, 8);
        assert_eq!(c.height, 8);
        assert_eq!(c.flit_bits, 128);
        assert_eq!(c.buffer_depth, 4);
        assert_eq!(c.fairness_threshold, 4);
        assert_eq!(c.fault_detection_delay, 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bisection_bound_8x8_is_half_flit_per_node_cycle() {
        let c = SimConfig::default();
        assert!((c.bisection_bound() - 0.5).abs() < 1e-12);
        assert!((c.capacity_per_node() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn injection_rate_scales_with_load() {
        let c = SimConfig::default();
        assert!((c.injection_rate(0.4) - 0.4).abs() < 1e-12);
        let multi = SimConfig {
            packet_len: 4,
            ..SimConfig::default()
        };
        // packet injection rate divides by packet length
        assert!((multi.injection_rate(0.4) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bisection_bound_rectangular() {
        let c = SimConfig {
            width: 4,
            height: 8,
            ..SimConfig::default()
        };
        // bisection = 2*min(4,8) = 8 channels; bound = 2*8/32 = 0.5
        assert!((c.bisection_bound() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SimConfig {
            width: 1,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        c.width = 8;
        c.buffer_depth = 0;
        assert!(c.validate().is_err());
        c.buffer_depth = MAX_BUFFER_DEPTH;
        assert!(c.validate().is_ok());
        c.buffer_depth = MAX_BUFFER_DEPTH + 1;
        assert!(c.validate().is_err());
        c.buffer_depth = 4;
        c.source_queue_cap = MAX_SOURCE_QUEUE_CAP + 1;
        assert!(c.validate().is_err());
        c.source_queue_cap = 64;
        c.packet_len = 0;
        assert!(c.validate().is_err());
        c.packet_len = MAX_PACKET_LEN as u8;
        assert!(c.validate().is_ok());
        c.packet_len = MAX_PACKET_LEN as u8 + 1;
        assert!(c.validate().is_err());
        c.packet_len = 1;
        c.warmup_cycles = u64::MAX;
        assert!(c.validate().unwrap_err().contains("must fit in u64"));
        c.warmup_cycles = 10;
        c.measure_cycles = u64::MAX;
        assert!(c.validate().is_err());
        c.measure_cycles = u64::MAX - 10 - c.drain_cycles;
        assert!(c.validate().is_ok());
        assert_eq!(c.total_cycles(), u64::MAX);
        c.drain_cycles += 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn topology_names_roundtrip_and_null_is_mesh() {
        for t in Topology::ALL {
            assert_eq!(Topology::from_name(t.name()), Some(t));
            let v = serde::Serialize::to_value(&t);
            let back: Topology = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, t);
        }
        // Specs written before the topology axis existed deserialize to
        // the plain mesh.
        let legacy: Topology = serde::Deserialize::from_value(&serde::Value::Null).unwrap();
        assert_eq!(legacy, Topology::Mesh);
        assert!(Topology::from_name("hypercube").is_none());
        assert_eq!(Topology::CMesh.concentration(), 4);
        assert_eq!(Topology::Torus.concentration(), 1);
    }

    #[test]
    fn clone_is_equal() {
        // JSON round-tripping is exercised in noc-sim, which depends on
        // serde_json; here we only need Clone + PartialEq coherence.
        let c = SimConfig::default();
        let copied = c.clone();
        assert_eq!(copied, c);
    }
}
