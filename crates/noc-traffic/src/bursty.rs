//! Bursty (self-similar) injection processes.
//!
//! Real workloads are not Bernoulli: packet arrivals cluster into bursts
//! whose on/off dwell times are correlated (MMPP) or heavy-tailed
//! (Pareto on/off, the classic self-similar traffic construction). This
//! module layers a per-node *source process* under any spatial
//! [`Pattern`]: the process decides **when** a node fires, the pattern
//! decides **where** the packet goes. All processes are parameterized so
//! their stationary mean equals the requested injection rate — bursty
//! and Bernoulli runs at the same load are directly comparable.
//!
//! Each node owns an independent, seeded process stream, so the full
//! injection schedule replays bit-identically from the seed (pinned by
//! the replay-hash goldens in `tests/determinism.rs`).

use crate::patterns::{BoundPattern, Pattern};
use noc_core::flit::{FlitKind, PacketDesc, PacketId};
use noc_core::types::{Cycle, NodeId};
use noc_core::Rng;
use noc_topology::Mesh;

use crate::TrafficModel;

/// Stationary fraction of time the MMPP spends in the high state.
const MMPP_HIGH_FRACTION: f64 = 0.25;
/// Mean sojourn in the MMPP high state, cycles (low = 3x, preserving the
/// 1:3 stationary split).
const MMPP_MEAN_HIGH: f64 = 25.0;
/// Pareto shape: 1 < alpha < 2 gives finite mean but infinite variance —
/// the heavy tail that makes aggregate traffic self-similar.
const PARETO_ALPHA: f64 = 1.5;
/// Mean Pareto ON-period length, cycles.
const PARETO_MEAN_ON: f64 = 30.0;
/// Sanity cap on a single sampled dwell time.
const PARETO_MAX_DWELL: u64 = 1_000_000;

/// A per-node injection process. The `name()` string is the canonical
/// identity used by CLI flags, scenario specs and campaign cache keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstSource {
    /// Memoryless coin flip each cycle — the PR-7 baseline process.
    Bernoulli,
    /// Two-state Markov-modulated process: a high state firing at
    /// `burstiness x rate` and a low state chosen so the stationary mean
    /// is exactly `rate`. Geometric sojourns (mean 25 / 75 cycles).
    /// `burstiness` is clamped to `[1, 4]` (at 4 the low state is silent).
    Mmpp2 { burstiness: f64 },
    /// Pareto on/off: alternating ON (fires at `rate / duty`) and OFF
    /// (silent) periods with Pareto(alpha = 1.5) dwell times — heavy
    /// tails, so bursts cluster across every timescale. `duty` is the ON
    /// fraction, clamped to `[rate, 1]` so the mean stays achievable.
    ParetoOnOff { duty: f64 },
}

impl BurstSource {
    /// Canonical parsable name: `bernoulli`, `mmpp:<burstiness>`,
    /// `pareto:<duty>`.
    pub fn name(&self) -> String {
        match self {
            BurstSource::Bernoulli => "bernoulli".to_string(),
            BurstSource::Mmpp2 { burstiness } => format!("mmpp:{burstiness:.3}"),
            BurstSource::ParetoOnOff { duty } => format!("pareto:{duty:.3}"),
        }
    }

    /// Parse [`name`](Self::name)'s format (case-insensitive kind).
    pub fn from_name(s: &str) -> Option<BurstSource> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        match (kind.to_ascii_lowercase().as_str(), param) {
            ("bernoulli", None) => Some(BurstSource::Bernoulli),
            ("mmpp", Some(p)) => p
                .parse()
                .ok()
                .map(|burstiness| BurstSource::Mmpp2 { burstiness }),
            ("mmpp", None) => Some(BurstSource::Mmpp2 { burstiness: 3.0 }),
            ("pareto", Some(p)) => p.parse().ok().map(|duty| BurstSource::ParetoOnOff { duty }),
            ("pareto", None) => Some(BurstSource::ParetoOnOff { duty: 0.25 }),
            _ => None,
        }
    }

    /// Human-readable forms for unknown-name CLI errors.
    pub const KNOWN: &'static [&'static str] = &["bernoulli", "mmpp:<burstiness>", "pareto:<duty>"];

    /// Materialize the per-node state for a mean injection rate
    /// (packets/node/cycle). `rng` seeds the initial phase so nodes start
    /// desynchronized.
    fn bind(&self, rate: f64, rng: &mut Rng) -> SourceState {
        match *self {
            BurstSource::Bernoulli => SourceState::Bernoulli { rate },
            BurstSource::Mmpp2 { burstiness } => {
                let b = burstiness.clamp(1.0, 1.0 / MMPP_HIGH_FRACTION);
                let rate_high = (b * rate).min(1.0);
                // Low-state rate balancing the stationary mean back to
                // `rate` (>= 0 by the burstiness clamp, and the high-rate
                // clamp only ever raises it).
                let rate_low = ((rate - MMPP_HIGH_FRACTION * rate_high)
                    / (1.0 - MMPP_HIGH_FRACTION))
                    .clamp(0.0, 1.0);
                SourceState::Mmpp {
                    high: rng.gen_bool(MMPP_HIGH_FRACTION),
                    rate_high,
                    rate_low,
                    leave_high: 1.0 / MMPP_MEAN_HIGH,
                    leave_low: MMPP_HIGH_FRACTION / (1.0 - MMPP_HIGH_FRACTION) / MMPP_MEAN_HIGH,
                }
            }
            BurstSource::ParetoOnOff { duty } => {
                let duty = duty.clamp(rate.clamp(1e-6, 1.0), 1.0);
                let mean_off = PARETO_MEAN_ON * (1.0 - duty) / duty;
                // Pareto mean = alpha * xm / (alpha - 1) => xm = mean / 3
                // at alpha = 1.5.
                let scale = (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
                let mut st = SourceState::Pareto {
                    on: false,
                    remaining: 0,
                    rate_on: (rate / duty).min(1.0),
                    xm_on: PARETO_MEAN_ON * scale,
                    xm_off: (mean_off * scale).max(1e-3),
                };
                // Roll the initial period so nodes start out of phase.
                st.fire(rng);
                st
            }
        }
    }
}

// Serialized as the canonical name string; JSON null (a spec written
// before the burstiness axis existed) means Bernoulli.
impl serde::Serialize for BurstSource {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name())
    }
}

impl serde::Deserialize for BurstSource {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(BurstSource::Bernoulli);
        }
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("BurstSource: expected string"))?;
        BurstSource::from_name(s)
            .ok_or_else(|| serde::Error::msg(format!("unknown burst source {s:?}")))
    }
}

/// Runtime state of one node's injection process.
#[derive(Debug, Clone)]
enum SourceState {
    Bernoulli {
        rate: f64,
    },
    Mmpp {
        high: bool,
        rate_high: f64,
        rate_low: f64,
        leave_high: f64,
        leave_low: f64,
    },
    Pareto {
        on: bool,
        remaining: u64,
        rate_on: f64,
        xm_on: f64,
        xm_off: f64,
    },
}

impl SourceState {
    /// Advance one cycle; true when the node injects a packet this cycle.
    fn fire(&mut self, rng: &mut Rng) -> bool {
        match self {
            SourceState::Bernoulli { rate } => rng.gen_bool(*rate),
            SourceState::Mmpp {
                high,
                rate_high,
                rate_low,
                leave_high,
                leave_low,
            } => {
                let leave = if *high { *leave_high } else { *leave_low };
                if rng.gen_bool(leave) {
                    *high = !*high;
                }
                let r = if *high { *rate_high } else { *rate_low };
                rng.gen_bool(r)
            }
            SourceState::Pareto {
                on,
                remaining,
                rate_on,
                xm_on,
                xm_off,
            } => {
                if *remaining == 0 {
                    *on = !*on;
                    let xm = if *on { *xm_on } else { *xm_off };
                    // Inverse-CDF Pareto sample: xm / U^(1/alpha) with
                    // U in (0, 1].
                    let u = 1.0 - rng.gen_f64();
                    let dwell = xm * u.powf(-1.0 / PARETO_ALPHA);
                    *remaining = (dwell.round() as u64).clamp(1, PARETO_MAX_DWELL);
                }
                *remaining -= 1;
                *on && rng.gen_bool(*rate_on)
            }
        }
    }
}

/// Open-loop injection of a synthetic pattern driven by a per-node
/// [`BurstSource`] process, optionally restricted to a subset of source
/// routers (the scenario engine's per-application regions).
///
/// Per-node RNG streams key on the *node id* (not the position in the
/// source list), so the same node produces the same schedule regardless
/// of which region it is grouped into.
#[derive(Debug, Clone)]
pub struct BurstyTraffic {
    pattern: BoundPattern,
    sources: Vec<NodeId>,
    states: Vec<SourceState>,
    rngs: Vec<Rng>,
    rate: f64,
    packet_len: u8,
    next_seq: u64,
    label: String,
}

impl BurstyTraffic {
    /// All routers inject. `rate` is packets/node/cycle.
    pub fn new(
        pattern: Pattern,
        mesh: Mesh,
        source: BurstSource,
        rate: f64,
        packet_len: u8,
        seed: u64,
    ) -> BurstyTraffic {
        let all = mesh.nodes().collect();
        BurstyTraffic::for_sources(pattern, mesh, all, source, rate, packet_len, seed)
    }

    /// Only `sources` inject (destinations still span the whole mesh).
    pub fn for_sources(
        pattern: Pattern,
        mesh: Mesh,
        sources: Vec<NodeId>,
        source: BurstSource,
        rate: f64,
        packet_len: u8,
        seed: u64,
    ) -> BurstyTraffic {
        assert!((0.0..=1.0).contains(&rate));
        assert!(packet_len >= 1);
        let mut rngs: Vec<Rng> = sources
            .iter()
            .map(|n| Rng::stream(seed, 0x6B57_A11C ^ n.index() as u64))
            .collect();
        let states = rngs.iter_mut().map(|rng| source.bind(rate, rng)).collect();
        let label = format!("{}+{}@{:.3}", pattern.abbrev(), source.name(), rate);
        BurstyTraffic {
            pattern: BoundPattern::new(pattern, mesh, seed),
            sources,
            states,
            rngs,
            rate,
            packet_len,
            next_seq: 0,
            label,
        }
    }

    /// The bound pattern (for tests and reports).
    pub fn pattern(&self) -> &BoundPattern {
        &self.pattern
    }

    /// Requested mean injection rate, packets/node/cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The injecting routers.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }
}

impl TrafficModel for BurstyTraffic {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();
        self.poll_into(cycle, &mut out);
        out
    }

    fn poll_into(&mut self, cycle: Cycle, out: &mut Vec<PacketDesc>) {
        for i in 0..self.sources.len() {
            let rng = &mut self.rngs[i];
            if !self.states[i].fire(rng) {
                continue;
            }
            let src = self.sources[i];
            if let Some(dst) = self.pattern.dest(src, rng) {
                out.push(PacketDesc {
                    id: PacketId(self.next_seq),
                    src,
                    dst,
                    len: self.packet_len,
                    created: cycle,
                    kind: FlitKind::Synthetic,
                });
                self.next_seq += 1;
            }
        }
    }

    fn ascending_ids(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    const RATE: f64 = 0.1;
    const CYCLES: u64 = 60_000;
    /// Burstiness window, cycles.
    const WINDOW: u64 = 100;

    /// Per-window aggregate injection counts over the whole mesh.
    fn window_counts(source: BurstSource, seed: u64) -> Vec<f64> {
        let mut t = BurstyTraffic::new(Pattern::UniformRandom, mesh8(), source, RATE, 1, seed);
        let mut counts = Vec::new();
        let mut acc = 0usize;
        for c in 0..CYCLES {
            acc += t.poll(c).len();
            if (c + 1) % WINDOW == 0 {
                counts.push(acc as f64);
                acc = 0;
            }
        }
        counts
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Index of dispersion of counts: var/mean of per-window totals —
    /// ~1 for Poisson/Bernoulli, > 1 for bursty arrivals.
    fn dispersion(xs: &[f64]) -> f64 {
        let m = mean(xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
        var / m
    }

    #[test]
    fn bursty_sources_converge_to_requested_rate() {
        for source in [
            BurstSource::Bernoulli,
            BurstSource::Mmpp2 { burstiness: 3.0 },
            BurstSource::ParetoOnOff { duty: 0.25 },
        ] {
            let counts = window_counts(source, 11);
            // UR never maps to self on >1 nodes, so every firing becomes
            // a packet: the achieved rate is directly comparable.
            let rate = mean(&counts) / (WINDOW as f64 * 64.0);
            assert!(
                (rate - RATE).abs() < 0.15 * RATE,
                "{} rate {rate} (want {RATE})",
                source.name()
            );
        }
    }

    #[test]
    fn bursty_sources_exceed_bernoulli_dispersion() {
        let base = dispersion(&window_counts(BurstSource::Bernoulli, 11));
        // Bernoulli aggregate is binomial: dispersion ~ 1 - p.
        assert!(base < 1.1, "bernoulli dispersion {base}");
        for source in [
            BurstSource::Mmpp2 { burstiness: 3.0 },
            BurstSource::ParetoOnOff { duty: 0.25 },
        ] {
            let d = dispersion(&window_counts(source, 11));
            assert!(
                d > 1.5 * base,
                "{} dispersion {d} not above bernoulli {base}",
                source.name()
            );
        }
    }

    #[test]
    fn bernoulli_source_matches_synthetic_traffic() {
        // The Bernoulli burst source consumes RNG draws exactly like the
        // plain generator: same coin, then the pattern's draws — so the
        // per-cycle packet count distribution matches.
        let mut a = BurstyTraffic::new(
            Pattern::Complement,
            mesh8(),
            BurstSource::Bernoulli,
            1.0,
            1,
            3,
        );
        assert_eq!(a.poll(0).len(), 64);
    }

    #[test]
    fn region_restriction_only_injects_from_sources() {
        let left: Vec<NodeId> = mesh8()
            .nodes()
            .filter(|n| mesh8().coord_of(*n).x < 4)
            .collect();
        let mut t = BurstyTraffic::for_sources(
            Pattern::UniformRandom,
            mesh8(),
            left.clone(),
            BurstSource::Mmpp2 { burstiness: 3.0 },
            0.5,
            1,
            7,
        );
        let mut any = false;
        for c in 0..200 {
            for p in t.poll(c) {
                any = true;
                assert!(left.contains(&p.src), "packet from outside the region");
                // Destinations may be anywhere on the mesh.
                assert!(p.dst.index() < 64);
            }
        }
        assert!(any);
    }

    #[test]
    fn node_streams_do_not_depend_on_region_grouping() {
        // The same node injects the same schedule whether it is grouped
        // alone or with the whole mesh (streams key on node id).
        let m = mesh8();
        let solo = vec![NodeId(17)];
        let mut a = BurstyTraffic::for_sources(
            Pattern::Tornado,
            m,
            solo,
            BurstSource::ParetoOnOff { duty: 0.25 },
            0.3,
            1,
            5,
        );
        let mut b = BurstyTraffic::new(
            Pattern::Tornado,
            m,
            BurstSource::ParetoOnOff { duty: 0.25 },
            0.3,
            1,
            5,
        );
        for c in 0..2_000 {
            let only: Vec<_> = b
                .poll(c)
                .into_iter()
                .filter(|p| p.src == NodeId(17))
                .collect();
            let mine = a.poll(c);
            assert_eq!(
                mine.iter()
                    .map(|p| (p.src, p.dst, p.created))
                    .collect::<Vec<_>>(),
                only.iter()
                    .map(|p| (p.src, p.dst, p.created))
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn names_roundtrip_and_reject_unknown() {
        for s in [
            BurstSource::Bernoulli,
            BurstSource::Mmpp2 { burstiness: 2.0 },
            BurstSource::ParetoOnOff { duty: 0.125 },
        ] {
            assert_eq!(BurstSource::from_name(&s.name()), Some(s));
            let v = serde::Serialize::to_value(&s);
            let back: BurstSource = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, s);
        }
        assert_eq!(
            BurstSource::from_name("mmpp"),
            Some(BurstSource::Mmpp2 { burstiness: 3.0 })
        );
        assert!(BurstSource::from_name("weibull").is_none());
        assert!(BurstSource::from_name("mmpp:abc").is_none());
        // Legacy specs without the field deserialize to Bernoulli.
        let legacy: BurstSource = serde::Deserialize::from_value(&serde::Value::Null).unwrap();
        assert_eq!(legacy, BurstSource::Bernoulli);
    }

    #[test]
    fn label_names_pattern_process_and_rate() {
        let t = BurstyTraffic::new(
            Pattern::UniformRandom,
            mesh8(),
            BurstSource::Mmpp2 { burstiness: 3.0 },
            0.2,
            1,
            1,
        );
        assert_eq!(t.label(), "UR+mmpp:3.000@0.200");
    }
}
