//! Run results and plain-text reporting.

use noc_core::stats::NetStats;
use noc_power::energy::EnergyBreakdown;
use serde::{Deserialize, Serialize};

/// Per-application slice of a multi-app (scenario) run: delivery statistics
/// attributed to the packets whose *source* lies in the application's
/// region, measured over the same window as the global aggregate. Empty for
/// single-application runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppStats {
    /// Application name from the scenario spec ("fg", "bg", ...).
    pub name: String,
    /// Traffic label of the app's generator ("UR+mmpp:3.000@0.050", ...).
    pub traffic: String,
    /// Number of source routers in the app's region.
    pub src_nodes: usize,
    /// Packets the app created in the measurement window.
    pub offered_packets: u64,
    /// Window-created packets fully delivered.
    pub accepted_packets: u64,
    /// Mean creation-to-reassembly latency of those packets, cycles.
    pub avg_packet_latency: f64,
    /// Accepted throughput, packets per source node per cycle.
    pub accepted_rate: f64,
}

/// Summary of one simulation run — everything the paper's figures plot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Router design ("DXbar DOR", "Buffered 8", ...).
    pub design: String,
    /// Traffic label ("UR@0.200", "SPLASH-2 Ocean", ...).
    pub traffic: String,
    /// Offered load as a fraction of network capacity (open-loop runs).
    pub offered_load: Option<f64>,
    /// Accepted throughput, flits/node/cycle.
    pub accepted_rate: f64,
    /// Accepted throughput as a fraction of network capacity — the y-axis
    /// of the paper's throughput plots.
    pub accepted_fraction: f64,
    /// Mean packet latency in cycles (creation to full reassembly,
    /// including source queueing).
    pub avg_packet_latency: f64,
    /// Mean flit latency in cycles.
    pub avg_flit_latency: f64,
    /// Average energy per accepted packet, nJ — the y-axis of the paper's
    /// energy plots.
    pub avg_packet_energy_nj: f64,
    /// Measurement-window energy breakdown (pJ).
    pub energy: EnergyBreakdown,
    /// Packets fully delivered in the measurement window.
    pub accepted_packets: u64,
    /// Deflections per delivered packet (bufferless designs).
    pub deflections_per_packet: f64,
    /// Drops per delivered packet (SCARAB).
    pub drops_per_packet: f64,
    /// Fraction of switched flits that went through a buffer (DXbar's
    /// "only 1/6 of packets are buffered" claim).
    pub buffered_fraction: f64,
    /// Worst mean packet latency over source nodes (fairness metric).
    pub max_source_latency: f64,
    /// Worst/best mean source latency ratio (1.0 = perfectly fair).
    pub latency_spread: f64,
    /// Completion cycle for closed-loop workloads (execution time).
    pub finish_cycle: Option<u64>,
    /// Whether a closed-loop run actually finished within its cap.
    pub completed: bool,
    /// Flits whose retry budget was exhausted and were counted lost
    /// (measurement window; 0 without a resilience plan).
    pub lost_flits: u64,
    /// Corrupted flits caught by the ejection-port CRC (measurement window).
    pub crc_rejects: u64,
    /// NI retransmissions queued (timeouts + NACKs, measurement window).
    pub ni_retransmits: u64,
    /// Mean creation-to-delivery latency of flits that needed at least one
    /// retransmission (cycles; 0.0 when nothing was recovered).
    pub avg_recovery_latency: f64,
    /// Per-application statistics for multi-app scenario runs (empty
    /// otherwise). Attribution is by source region; see [`AppStats`].
    pub apps: Vec<AppStats>,
    /// Full statistics for downstream analysis.
    pub stats: NetStats,
}

impl RunResult {
    /// The measurement window offered flits and delivered none: a network
    /// that deadlocked or livelocked, whatever its oracles say. A method,
    /// not a field, because a result's bytes are cache entries.
    pub fn stalled(&self) -> bool {
        self.stats.offered_flits > 0 && self.stats.accepted_flits == 0
    }

    /// `stalled: 0 of N offered flits delivered` for a stalled run: the one
    /// line every surface reports it with.
    pub fn stall_reason(&self) -> Option<String> {
        self.stalled().then(|| {
            format!(
                "stalled: 0 of {} offered flits delivered",
                self.stats.offered_flits
            )
        })
    }

    /// One compact text line for series printouts.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<14} {:<18} load={:<5} acc={:.3} lat={:>8.1} E/pkt={:>7.2}nJ",
            self.design,
            self.traffic,
            self.offered_load
                .map(|l| format!("{l:.2}"))
                .unwrap_or_else(|| "-".into()),
            self.accepted_fraction,
            self.avg_packet_latency,
            self.avg_packet_energy_nj,
        )
    }
}

/// Render a series of `(x, y)` points as an aligned two-column table —
/// the textual equivalent of one curve in a paper figure.
pub fn render_series(title: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("# {title}\n# {xlabel:>8}  {ylabel}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:>10.3}  {y:.4}\n"));
    }
    out
}

/// Render a series of `(x, mean, ci95)` triples as an aligned three-column
/// table — the multi-seed variant of [`render_series`], with the 95 %
/// confidence half-width of the mean in the last column.
pub fn render_series_ci(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    points: &[(f64, f64, f64)],
) -> String {
    let mut out = format!("# {title}\n# {xlabel:>8}  {ylabel}  ±95% CI\n");
    for (x, y, ci) in points {
        out.push_str(&format!("{x:>10.3}  {y:.4}  ±{ci:.4}\n"));
    }
    out
}

/// Render a grouped bar chart as text: one row per category, one column per
/// series (the textual equivalent of the paper's per-pattern bar figures).
pub fn render_bars(title: &str, series_names: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = format!("# {title}\n# {:<12}", "category");
    for n in series_names {
        out.push_str(&format!(" {n:>14}"));
    }
    out.push('\n');
    for (cat, vals) in rows {
        out.push_str(&format!("{cat:<14}"));
        for v in vals {
            out.push_str(&format!(" {v:>14.4}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_renders_all_points() {
        let s = render_series("Fig 5", "load", "accepted", &[(0.1, 0.1), (0.5, 0.35)]);
        assert!(s.contains("Fig 5"));
        assert!(s.contains("0.100"));
        assert!(s.contains("0.3500"));
    }

    #[test]
    fn series_ci_renders_ci_column() {
        let s = render_series_ci("Fig 5", "load", "accepted", &[(0.1, 0.102, 0.004)]);
        assert!(s.contains("±95% CI"));
        assert!(s.contains("±0.0040"));
        assert!(s.contains("0.1020"));
    }

    #[test]
    fn summary_line_mentions_key_fields() {
        let r = RunResult {
            design: "DXbar DOR".into(),
            traffic: "UR@0.400".into(),
            offered_load: Some(0.4),
            accepted_rate: 0.39,
            accepted_fraction: 0.39,
            avg_packet_latency: 12.5,
            avg_flit_latency: 12.5,
            avg_packet_energy_nj: 0.35,
            energy: Default::default(),
            accepted_packets: 1000,
            deflections_per_packet: 0.0,
            drops_per_packet: 0.0,
            buffered_fraction: 0.1,
            max_source_latency: 20.0,
            latency_spread: 1.5,
            finish_cycle: None,
            completed: true,
            lost_flits: 0,
            crc_rejects: 0,
            ni_retransmits: 0,
            avg_recovery_latency: 0.0,
            apps: Vec::new(),
            stats: Default::default(),
        };
        let line = r.summary_line();
        assert!(line.contains("DXbar DOR"));
        assert!(line.contains("0.40"));
        assert!(line.contains("0.35"));
    }

    #[test]
    fn bars_render_categories_and_series() {
        let s = render_bars(
            "Fig 7",
            &["DXbar", "BLESS"],
            &[
                ("UR".to_string(), vec![0.4, 0.28]),
                ("TOR".to_string(), vec![0.3, 0.2]),
            ],
        );
        assert!(s.contains("DXbar"));
        assert!(s.contains("UR"));
        assert!(s.contains("0.2800"));
    }
}
