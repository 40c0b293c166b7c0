//! Network builders for the evaluated configurations: the paper's six
//! micro-architectures (DXbar and the unified crossbar each under DOR and
//! West-First routing) plus the AFC extension.

use crate::kind::RouterKind;
use dxbar::{Allocator, DualCrossbar, DualInputRouter};
use noc_baseline::{AfcRouter, BlessRouter, BufferedRouter, BufferedVariant, ScarabRouter};
use noc_core::types::NodeId;
use noc_core::SimConfig;
use noc_faults::FaultPlan;
use noc_power::area::DesignKind;
use noc_routing::Algorithm;
use noc_sim::Network;
use noc_topology::Mesh;
use noc_verify::{DesignProfile, RouteRule};
use noc_zoo::{DamqRouter, MinBdRouter};
use serde::{Deserialize, Serialize};

/// One evaluated configuration: a router micro-architecture plus its
/// routing algorithm. Serializes as the variant name ("DXbarDor"), which
/// the campaign engine relies on for stable cache keys and spec files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    FlitBless,
    Scarab,
    Buffered4,
    Buffered8,
    DXbarDor,
    DXbarWf,
    UnifiedDor,
    UnifiedWf,
    /// Extension: simplified Adaptive Flow Control (the paper's ref. \[9\]).
    Afc,
    /// Extension: DAMQ shared-buffer router (arXiv:0910.1852).
    Damq,
    /// Extension: MinBD minimally-buffered deflection router
    /// (arXiv:2112.02516).
    MinBd,
}

impl Design {
    /// The six designs of the paper's main comparison (Figs. 5-10).
    pub const PAPER_SET: [Design; 6] = [
        Design::FlitBless,
        Design::Scarab,
        Design::Buffered4,
        Design::Buffered8,
        Design::DXbarDor,
        Design::DXbarWf,
    ];

    /// Every configuration this crate can build.
    pub const ALL: [Design; 11] = [
        Design::FlitBless,
        Design::Scarab,
        Design::Buffered4,
        Design::Buffered8,
        Design::DXbarDor,
        Design::DXbarWf,
        Design::UnifiedDor,
        Design::UnifiedWf,
        Design::Afc,
        Design::Damq,
        Design::MinBd,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Design::FlitBless => "Flit-Bless",
            Design::Scarab => "SCARAB",
            Design::Buffered4 => "Buffered 4",
            Design::Buffered8 => "Buffered 8",
            Design::DXbarDor => "DXbar DOR",
            Design::DXbarWf => "DXbar WF",
            Design::UnifiedDor => "Unified Xbar DOR",
            Design::UnifiedWf => "Unified Xbar WF",
            Design::Afc => "AFC",
            Design::Damq => "DAMQ",
            Design::MinBd => "MinBD",
        }
    }

    /// Command-line spellings, the canonical one ("dxbar-dor") first.
    pub fn spellings(self) -> &'static [&'static str] {
        match self {
            Design::FlitBless => &["flit-bless", "bless"],
            Design::Scarab => &["scarab"],
            Design::Buffered4 => &["buffered4", "b4"],
            Design::Buffered8 => &["buffered8", "b8"],
            Design::DXbarDor => &["dxbar-dor", "dxbar"],
            Design::DXbarWf => &["dxbar-wf"],
            Design::UnifiedDor => &["unified-dor", "unified"],
            Design::UnifiedWf => &["unified-wf"],
            Design::Afc => &["afc"],
            Design::Damq => &["damq"],
            Design::MinBd => &["minbd", "min-bd"],
        }
    }

    /// Parse any of the [`spellings`](Self::spellings), case-insensitively.
    pub fn parse(s: &str) -> Option<Design> {
        let is = |name: &&str| name.eq_ignore_ascii_case(s);
        Design::ALL
            .into_iter()
            .find(|d| d.spellings().iter().any(is))
    }

    /// Area-model category of the design.
    pub fn area_kind(self) -> DesignKind {
        match self {
            Design::FlitBless => DesignKind::FlitBless,
            Design::Scarab => DesignKind::Scarab,
            Design::Buffered4 => DesignKind::Buffered4,
            Design::Buffered8 => DesignKind::Buffered8,
            Design::DXbarDor | Design::DXbarWf => DesignKind::DXbar,
            Design::UnifiedDor | Design::UnifiedWf => DesignKind::UnifiedXbar,
            // AFC carries Buffered-4-class storage plus mode logic.
            Design::Afc => DesignKind::Buffered4,
            Design::Damq => DesignKind::Damq,
            Design::MinBd => DesignKind::MinBd,
        }
    }

    /// Whether the design honours an injected [`FaultPlan`] (the paper's
    /// fault study covers the dual-crossbar design only).
    pub fn supports_faults(self) -> bool {
        matches!(self, Design::DXbarDor | Design::DXbarWf)
    }

    /// What the runtime oracles hold this design to at `buffer_depth`
    /// slots per FIFO: its route rule, how many flits a router and one
    /// FIFO may hold, and whether it may grant one input row twice or drop.
    pub fn profile(self, buffer_depth: usize) -> DesignProfile {
        let d = buffer_depth;
        let row = |route, router_capacity, fifo_capacity| DesignProfile {
            route,
            router_capacity,
            fifo_capacity,
            dual_input: false,
            drops_allowed: false,
        };
        match self {
            Design::FlitBless => row(RouteRule::Deflecting, 0, 0),
            // Drops instead of deflecting, so every hop is productive.
            Design::Scarab => DesignProfile {
                drops_allowed: true,
                ..row(RouteRule::MinimalAdaptive, 0, 0)
            },
            // One (Buffered 4) or two (Buffered 8) VCs on each of 5 inputs.
            Design::Buffered4 => row(RouteRule::Turn(Algorithm::Dor), 5 * d, d),
            Design::Buffered8 => row(RouteRule::Turn(Algorithm::Dor), 5 * 2 * d, d),
            // The arrival and the buffered head of one input may both win,
            // on distinct paths to distinct outputs (Fig. 3(d)).
            Design::DXbarDor | Design::DXbarWf | Design::UnifiedDor | Design::UnifiedWf => {
                DesignProfile {
                    dual_input: true,
                    ..row(RouteRule::Turn(self.algorithm()), 4 * d, d)
                }
            }
            Design::Afc => row(RouteRule::Deflecting, 4 * d, d),
            // One shared slab of 4 x depth slots, any share of which one
            // virtual queue may take; a full slab falls back to deflection.
            Design::Damq => row(RouteRule::Deflecting, 4 * d, 4 * d),
            // A deflection datapath plus one side buffer.
            Design::MinBd => row(RouteRule::Deflecting, d, d),
        }
    }

    /// Whether the design runs without link credits, so any per-node mix
    /// of such designs composes: a credit-coupled (turn-model) design next
    /// to a neighbour that never returns credits would stall forever.
    pub fn credit_free(self) -> bool {
        !matches!(self.profile(0).route, RouteRule::Turn(_))
    }

    /// The routing algorithm a design variant uses (the paper evaluates
    /// DOR everywhere plus West-First on the two proposed designs).
    fn algorithm(self) -> Algorithm {
        match self {
            Design::DXbarWf | Design::UnifiedWf => Algorithm::WestFirst,
            _ => Algorithm::Dor,
        }
    }

    /// Build one router of this design for `node` (the factory behind
    /// [`Design::build`], exposed for micro-benchmarks).
    pub fn build_router(self, cfg: &SimConfig, faults: &FaultPlan, node: NodeId) -> RouterKind {
        let mesh = Mesh::for_config(cfg);
        let depth = cfg.buffer_depth;
        match self {
            Design::FlitBless => RouterKind::Bless(BlessRouter::new(node, mesh)),
            Design::Scarab => RouterKind::Scarab(ScarabRouter::new(node, mesh)),
            Design::Buffered4 => RouterKind::Buffered(BufferedRouter::new(
                node,
                mesh,
                BufferedVariant::Buffered4,
                Algorithm::Dor,
                depth,
            )),
            Design::Buffered8 => RouterKind::Buffered(BufferedRouter::new(
                node,
                mesh,
                BufferedVariant::Buffered8,
                Algorithm::Dor,
                depth,
            )),
            Design::DXbarDor | Design::DXbarWf | Design::UnifiedDor | Design::UnifiedWf => {
                // The dual crossbar allocates greedily and carries the
                // fault model; the unified crossbar runs the separable
                // allocator and holds no fault.
                let allocator = if self.supports_faults() {
                    Allocator::Greedy(DualCrossbar::new(
                        faults.fault_at(node),
                        cfg.fault_detection_delay,
                    ))
                } else {
                    Allocator::Separable { swaps: 0 }
                };
                RouterKind::DualInput(DualInputRouter::new(
                    node,
                    mesh,
                    self.algorithm(),
                    depth,
                    cfg.fairness_threshold,
                    allocator,
                ))
            }
            Design::Afc => RouterKind::Afc(AfcRouter::new(node, mesh, depth)),
            Design::Damq => RouterKind::Damq(DamqRouter::new(node, mesh, depth)),
            Design::MinBd => RouterKind::MinBd(MinBdRouter::new(node, mesh, depth)),
        }
    }

    /// Build a network of this design with the crossbar faults the DXbar
    /// variants model (the paper's fault study covers no other design, and
    /// `RunPlan::validate` rejects a faulty plan on one).
    ///
    /// The returned network dispatches its routers statically (see
    /// [`RouterKind`]); it accepts the same traffic models, observers and
    /// trace sinks as the dynamically dispatched default `Network`.
    pub fn build(self, cfg: &SimConfig, faults: &FaultPlan) -> Network<RouterKind> {
        Network::new(cfg, &|n| self.build_router(cfg, faults, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::generator::SyntheticTraffic;
    use noc_traffic::patterns::Pattern;

    #[test]
    fn names_unique_and_nonempty() {
        let mut names: Vec<&str> = Design::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Design::ALL.len());
    }

    #[test]
    fn every_spelling_parses_to_its_design() {
        for d in Design::ALL {
            for s in d.spellings() {
                assert_eq!(Design::parse(s), Some(d));
                assert_eq!(Design::parse(&s.to_ascii_uppercase()), Some(d));
            }
        }
        assert_eq!(Design::parse("b8"), Some(Design::Buffered8));
        assert_eq!(Design::parse("no-such-router"), None);
    }

    #[test]
    fn paper_set_is_the_six_compared_designs() {
        assert_eq!(Design::PAPER_SET.len(), 6);
        assert!(!Design::PAPER_SET.contains(&Design::UnifiedDor));
    }

    #[test]
    fn fault_support_is_dxbar_only() {
        for d in Design::ALL {
            assert_eq!(
                d.supports_faults(),
                matches!(d, Design::DXbarDor | Design::DXbarWf)
            );
        }
    }

    #[test]
    fn profile_table_at_depth_4() {
        use RouteRule::*;
        let dor = Turn(Algorithm::Dor);
        let wf = Turn(Algorithm::WestFirst);
        // (route, router capacity, FIFO capacity, dual input, drops)
        let rows = [
            (Design::FlitBless, Deflecting, 0, 0, false, false),
            (Design::Scarab, MinimalAdaptive, 0, 0, false, true),
            (Design::Buffered4, dor, 20, 4, false, false),
            (Design::Buffered8, dor, 40, 4, false, false),
            (Design::DXbarDor, dor, 16, 4, true, false),
            (Design::DXbarWf, wf, 16, 4, true, false),
            (Design::UnifiedDor, dor, 16, 4, true, false),
            (Design::UnifiedWf, wf, 16, 4, true, false),
            (Design::Afc, Deflecting, 16, 4, false, false),
            (Design::Damq, Deflecting, 16, 16, false, false),
            (Design::MinBd, Deflecting, 4, 4, false, false),
        ];
        assert_eq!(rows.map(|r| r.0), Design::ALL);
        for (d, route, router_capacity, fifo_capacity, dual_input, drops_allowed) in rows {
            let want = DesignProfile {
                route,
                router_capacity,
                fifo_capacity,
                dual_input,
                drops_allowed,
            };
            assert_eq!(d.profile(4), want, "{}", d.name());
        }
        let credit_free: Vec<Design> = Design::ALL
            .into_iter()
            .filter(|d| d.credit_free())
            .collect();
        assert_eq!(
            credit_free,
            [
                Design::FlitBless,
                Design::Scarab,
                Design::Afc,
                Design::Damq,
                Design::MinBd
            ]
        );
    }

    #[test]
    fn every_design_builds_and_steps() {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 10,
            measure_cycles: 50,
            drain_cycles: 20,
            ..SimConfig::default()
        };
        for d in Design::ALL {
            let mesh = Mesh::new(4, 4);
            let mut net = d.build(&cfg, &FaultPlan::none(&mesh));
            assert_eq!(net.design_name(), d.name());
            let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.02, 1, 1);
            net.run_cycles(&mut model, 80);
            assert!(
                net.stats().events.ejections > 0,
                "{} delivered nothing",
                d.name()
            );
        }
    }
}
