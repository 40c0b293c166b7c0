//! Scenario specifications: multi-application workloads over a fabric.
//!
//! A [`ScenarioSpec`] turns one experiment point into a declarative
//! description of *everything that varies beyond design and load*: the
//! topology (mesh, torus or concentrated mesh), a heterogeneous router mix
//! (a sparse island grid of a second design over the point's base design),
//! and a set of applications — disjoint rectangular source regions, each
//! with its own spatial pattern, burstiness process and relative load.
//!
//! Scenarios are addressed by *name* (the campaign cache identity), and a
//! name always resolves to the same spec for a given base configuration —
//! see [`ScenarioSpec::named`].

use dxbar_noc::Design;
use noc_core::types::NodeId;
use noc_core::SimConfig;
use noc_topology::{Coord, Mesh, Topology};
use noc_traffic::patterns::Pattern;
use noc_traffic::BurstSource;
use serde::{Deserialize, Error, Serialize, Value};

/// A rectangular region of routers, in router-grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    pub x0: u16,
    pub y0: u16,
    pub width: u16,
    pub height: u16,
}

impl Region {
    pub fn contains(&self, c: Coord) -> bool {
        (self.x0..self.x0 + self.width).contains(&c.x)
            && (self.y0..self.y0 + self.height).contains(&c.y)
    }

    /// Router ids inside the region, in row-major order.
    pub fn nodes(&self, mesh: &Mesh) -> Vec<NodeId> {
        mesh.nodes()
            .filter(|&n| self.contains(mesh.coord_of(n)))
            .collect()
    }

    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    fn fits(&self, mesh: &Mesh) -> bool {
        self.width >= 1
            && self.height >= 1
            && self.x0 + self.width <= mesh.width()
            && self.y0 + self.height <= mesh.height()
    }

    fn overlaps(&self, other: &Region) -> bool {
        self.x0 < other.x0 + other.width
            && other.x0 < self.x0 + self.width
            && self.y0 < other.y0 + other.height
            && other.y0 < self.y0 + self.height
    }
}

/// One application of a scenario: a source region injecting one spatial
/// pattern through one burstiness process. Destinations span the whole
/// fabric (that is what makes disjoint regions *interfere*: their traffic
/// shares links under DOR even though their sources do not overlap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Short name used in per-app reports ("fg", "bg", ...).
    pub name: String,
    pub pattern: Pattern,
    pub source: BurstSource,
    /// Multiplier on the point's offered load (1.0 = the full load).
    pub load_scale: f64,
    pub region: Region,
}

/// Per-node router assignment of a scenario.
///
/// `Uniform` keeps the campaign's design axis untouched; `Islands` overlays
/// a sparse grid of a second design on top of the point's base design —
/// island routers sit at coordinates where both `x % spacing` and
/// `y % spacing` equal `spacing - 1`, so node (0,0) always carries the base
/// design. `RunPlan::validate` restricts mixed fabrics to the credit-free
/// router family: a credit-consuming design next to a neighbour that never
/// emits credits would stall forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterMix {
    /// Every router is the campaign point's design.
    Uniform,
    /// The point's design everywhere except a sparse island grid.
    Islands { island: Design, spacing: u16 },
}

impl RouterMix {
    /// The design overriding the base at `c`, if any.
    pub fn island_at(&self, c: Coord) -> Option<Design> {
        match *self {
            RouterMix::Uniform => None,
            RouterMix::Islands { island, spacing } => {
                (c.x % spacing == spacing - 1 && c.y % spacing == spacing - 1).then_some(island)
            }
        }
    }
}

// Payload-carrying enum: the vendored serde derive covers unit enums only.
impl Serialize for RouterMix {
    fn to_value(&self) -> Value {
        match self {
            RouterMix::Uniform => {
                Value::Object(vec![("kind".into(), Value::Str("uniform".into()))])
            }
            RouterMix::Islands { island, spacing } => Value::Object(vec![
                ("kind".into(), Value::Str("islands".into())),
                ("island".into(), island.to_value()),
                ("spacing".into(), spacing.to_value()),
            ]),
        }
    }
}

impl Deserialize for RouterMix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.field("kind").as_str() {
            Some("uniform") => Ok(RouterMix::Uniform),
            Some("islands") => Ok(RouterMix::Islands {
                island: Design::from_value(v.field("island"))?,
                spacing: u16::from_value(v.field("spacing"))?,
            }),
            other => Err(Error::msg(format!(
                "RouterMix.kind must be \"uniform\" or \"islands\", got {other:?}"
            ))),
        }
    }
}

/// A complete workload scenario. Resolved from a name by
/// [`ScenarioSpec::named`]; the name is the campaign cache identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Canonical name this spec resolves from.
    pub name: String,
    /// Fabric topology (overrides the base config's topology).
    pub topology: Topology,
    pub mix: RouterMix,
    pub apps: Vec<AppSpec>,
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("topology".into(), self.topology.to_value()),
            ("mix".into(), self.mix.to_value()),
            ("apps".into(), self.apps.to_value()),
        ])
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(ScenarioSpec {
            name: String::from_value(v.field("name"))?,
            topology: Topology::from_value(v.field("topology"))?,
            mix: RouterMix::from_value(v.field("mix"))?,
            apps: Vec::from_value(v.field("apps"))?,
        })
    }
}

impl ScenarioSpec {
    /// Human-readable forms of every resolvable name, for unknown-name CLI
    /// errors and `--help` listings.
    pub const KNOWN: &'static [&'static str] = &[
        "mmpp_ur[:<burstiness>]",
        "pareto_ur[:<duty>]",
        "interfere2[:<bg-burstiness>]",
        "mixed_islands",
        "torus_ur",
        "cmesh_ur",
    ];

    /// Resolve a scenario name against a base configuration. The optional
    /// `:<param>` suffix tunes the scenario's burstiness knob: a finite
    /// number, clamped as its [`BurstSource`] documents. Region geometry
    /// adapts to the configured router grid; everything else is fixed by the
    /// name, so one name always denotes one experiment.
    pub fn named(name: &str, cfg: &SimConfig) -> Option<ScenarioSpec> {
        let (kind, param) = match name.split_once(':') {
            Some((k, p)) => (k, Some(p.parse::<f64>().ok().filter(|p| p.is_finite())?)),
            None => (name, None),
        };
        let all = Region {
            x0: 0,
            y0: 0,
            width: cfg.width,
            height: cfg.height,
        };
        let canon = |kind: &str, p: Option<f64>| match p {
            Some(p) => format!("{kind}:{p:.3}"),
            None => kind.to_string(),
        };
        let single = |topology, mix, source| ScenarioSpec {
            name: canon(kind, param),
            topology,
            mix,
            apps: vec![AppSpec {
                name: "app".into(),
                pattern: Pattern::UniformRandom,
                source,
                load_scale: 1.0,
                region: all,
            }],
        };
        match kind {
            "mmpp_ur" => Some(single(
                Topology::Mesh,
                RouterMix::Uniform,
                BurstSource::Mmpp2 {
                    burstiness: param.unwrap_or(3.0),
                },
            )),
            "pareto_ur" => Some(single(
                Topology::Mesh,
                RouterMix::Uniform,
                BurstSource::ParetoOnOff {
                    duty: param.unwrap_or(0.25),
                },
            )),
            "interfere2" if cfg.width >= 2 => {
                // Foreground: steady Bernoulli UR from the left half.
                // Background: bursty UR from the right half. Both address
                // the whole fabric, so the background's bursts congest the
                // foreground's paths — the per-app stats quantify by how
                // much.
                let lw = cfg.width / 2;
                let left = Region { width: lw, ..all };
                let right = Region {
                    x0: lw,
                    width: cfg.width - lw,
                    ..all
                };
                Some(ScenarioSpec {
                    name: canon(kind, param),
                    topology: Topology::Mesh,
                    mix: RouterMix::Uniform,
                    apps: vec![
                        AppSpec {
                            name: "fg".into(),
                            pattern: Pattern::UniformRandom,
                            source: BurstSource::Bernoulli,
                            load_scale: 1.0,
                            region: left,
                        },
                        AppSpec {
                            name: "bg".into(),
                            pattern: Pattern::UniformRandom,
                            source: BurstSource::Mmpp2 {
                                burstiness: param.unwrap_or(3.0),
                            },
                            load_scale: 1.0,
                            region: right,
                        },
                    ],
                })
            }
            "mixed_islands" if param.is_none() => Some(single(
                Topology::Mesh,
                RouterMix::Islands {
                    island: Design::Damq,
                    spacing: 3,
                },
                BurstSource::Mmpp2 { burstiness: 3.0 },
            )),
            "torus_ur" if param.is_none() => Some(single(
                Topology::Torus,
                RouterMix::Uniform,
                BurstSource::Bernoulli,
            )),
            "cmesh_ur" if param.is_none() => Some(single(
                Topology::CMesh,
                RouterMix::Uniform,
                BurstSource::Bernoulli,
            )),
            _ => None,
        }
    }

    /// [`named`](Self::named) with a CLI-grade error: unknown names list
    /// every resolvable scenario.
    pub fn resolve(name: &str, cfg: &SimConfig) -> Result<ScenarioSpec, String> {
        ScenarioSpec::named(name, cfg).ok_or_else(|| {
            format!(
                "unknown scenario {name:?}; known scenarios: {}",
                ScenarioSpec::KNOWN.join(", ")
            )
        })
    }

    /// Check the spec's own shape against a base configuration; returns the
    /// first problem. What the fabric's designs must be is a plan rule
    /// (`RunPlan::validate`).
    pub fn validate(&self, cfg: &SimConfig) -> Result<(), String> {
        let grid = Mesh::new(cfg.width, cfg.height);
        if self.apps.is_empty() {
            return Err(format!("scenario {:?} has no applications", self.name));
        }
        for (i, a) in self.apps.iter().enumerate() {
            if a.name.is_empty() {
                return Err(format!(
                    "scenario {:?}: app #{i} has an empty name",
                    self.name
                ));
            }
            if !(a.load_scale.is_finite() && a.load_scale > 0.0) {
                return Err(format!(
                    "scenario {:?}: app {:?} load_scale {} must be finite and > 0",
                    self.name, a.name, a.load_scale
                ));
            }
            a.pattern
                .check(&Mesh::with_topology(cfg.width, cfg.height, self.topology))
                .map_err(|e| format!("scenario {:?}: app {:?}: {e}", self.name, a.name))?;
            if !a.region.fits(&grid) {
                return Err(format!(
                    "scenario {:?}: app {:?} region exceeds the {}x{} router grid",
                    self.name,
                    a.name,
                    grid.width(),
                    grid.height()
                ));
            }
            for b in &self.apps[..i] {
                if a.name == b.name {
                    return Err(format!(
                        "scenario {:?}: duplicate app name {:?}",
                        self.name, a.name
                    ));
                }
                if a.region.overlaps(&b.region) {
                    return Err(format!(
                        "scenario {:?}: app regions {:?} and {:?} overlap",
                        self.name, b.name, a.name
                    ));
                }
            }
        }
        if let RouterMix::Islands { spacing, .. } = self.mix {
            if spacing < 2 {
                return Err(format!(
                    "scenario {:?}: island spacing must be >= 2",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg8() -> SimConfig {
        SimConfig {
            width: 8,
            height: 8,
            ..SimConfig::default()
        }
    }

    #[test]
    fn every_known_name_resolves_and_validates() {
        let cfg = cfg8();
        for known in ScenarioSpec::KNOWN {
            let bare = known.split(['[', ':']).next().unwrap();
            let s = ScenarioSpec::resolve(bare, &cfg).unwrap();
            s.validate(&cfg).unwrap();
            assert!(!s.apps.is_empty());
        }
        assert!(ScenarioSpec::named("nope", &cfg).is_none());
        assert!(ScenarioSpec::resolve("nope", &cfg)
            .unwrap_err()
            .contains("interfere2"));
    }

    #[test]
    fn parameterized_names_set_the_burstiness_knob() {
        let cfg = cfg8();
        let s = ScenarioSpec::named("interfere2:1.5", &cfg).unwrap();
        assert_eq!(s.name, "interfere2:1.500");
        assert_eq!(s.apps[1].source, BurstSource::Mmpp2 { burstiness: 1.5 });
        assert_eq!(s.apps[0].source, BurstSource::Bernoulli);
        let p = ScenarioSpec::named("pareto_ur:0.5", &cfg).unwrap();
        assert_eq!(p.apps[0].source, BurstSource::ParetoOnOff { duty: 0.5 });
        assert!(ScenarioSpec::named("mmpp_ur:abc", &cfg).is_none());
        assert!(ScenarioSpec::named("torus_ur:2.0", &cfg).is_none());
    }

    #[test]
    fn non_finite_parameters_do_not_resolve() {
        let cfg = cfg8();
        for name in [
            "mmpp_ur:nan",
            "mmpp_ur:inf",
            "pareto_ur:nan",
            "pareto_ur:-inf",
            "interfere2:nan",
        ] {
            assert!(ScenarioSpec::named(name, &cfg).is_none(), "{name}");
            let err = ScenarioSpec::resolve(name, &cfg).unwrap_err();
            assert!(err.contains("known scenarios"), "{name}: {err}");
        }
        // Finite values keep their documented clamping.
        let s = ScenarioSpec::named("mmpp_ur:99", &cfg).unwrap();
        assert_eq!(s.apps[0].source, BurstSource::Mmpp2 { burstiness: 99.0 });
    }

    #[test]
    fn interfere2_regions_are_disjoint_and_cover_the_mesh() {
        let cfg = cfg8();
        let s = ScenarioSpec::named("interfere2", &cfg).unwrap();
        let grid = Mesh::new(8, 8);
        let fg = s.apps[0].region.nodes(&grid);
        let bg = s.apps[1].region.nodes(&grid);
        assert_eq!(fg.len() + bg.len(), 64);
        assert!(fg.iter().all(|n| !bg.contains(n)));
    }

    #[test]
    fn island_grid_spares_the_origin_and_is_sparse() {
        let mix = RouterMix::Islands {
            island: Design::Damq,
            spacing: 3,
        };
        assert_eq!(mix.island_at(Coord { x: 0, y: 0 }), None);
        assert_eq!(mix.island_at(Coord { x: 2, y: 2 }), Some(Design::Damq));
        let grid = Mesh::new(8, 8);
        let islands = grid
            .nodes()
            .filter(|&n| mix.island_at(grid.coord_of(n)).is_some())
            .count();
        assert!(islands > 0 && islands < 16, "islands {islands}");
    }

    #[test]
    fn validation_rejects_overlaps_oversized_regions_and_dense_islands() {
        let cfg = cfg8();
        let mut s = ScenarioSpec::named("interfere2", &cfg).unwrap();
        s.apps[1].region = s.apps[0].region;
        assert!(s.validate(&cfg).unwrap_err().contains("overlap"));

        let mut s = ScenarioSpec::named("mmpp_ur", &cfg).unwrap();
        s.apps[0].region.width = 99;
        assert!(s.validate(&cfg).unwrap_err().contains("grid"));

        let mut s = ScenarioSpec::named("mixed_islands", &cfg).unwrap();
        s.validate(&cfg).unwrap();
        s.mix = RouterMix::Islands {
            island: Design::Damq,
            spacing: 1,
        };
        assert!(s.validate(&cfg).unwrap_err().contains("spacing"));
    }

    #[test]
    fn bit_permutation_apps_need_a_power_of_two_fabric() {
        let cfg = SimConfig {
            width: 3,
            height: 5,
            ..SimConfig::default()
        };
        let mut s = ScenarioSpec::named("mmpp_ur", &cfg).unwrap();
        s.validate(&cfg).unwrap();
        s.apps[0].pattern = Pattern::Complement;
        let err = s.validate(&cfg).unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
    }

    #[test]
    fn spec_serde_roundtrip() {
        let cfg = cfg8();
        for name in ["interfere2", "mixed_islands", "torus_ur"] {
            let s = ScenarioSpec::named(name, &cfg).unwrap();
            let v = Serialize::to_value(&s);
            let back = ScenarioSpec::from_value(&v).unwrap();
            assert_eq!(back, s);
        }
    }
}
