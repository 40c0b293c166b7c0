//! Rendering of the paper's Table III ("Area and energy estimation for
//! 65 nm with 1.0 V and 1 GHz").

use crate::area::{AreaModel, DesignKind};
use crate::energy::EnergyConstants;
use serde::{Deserialize, Serialize};

/// One row of Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    pub design: String,
    /// Per-router area, mm^2.
    pub area_mm2: f64,
    /// Buffer energy per buffered flit (write + read), pJ/flit; zero for the
    /// bufferless designs.
    pub buffer_energy_pj_per_flit: f64,
    /// Crossbar traversal energy, pJ/flit.
    pub xbar_energy_pj_per_flit: f64,
}

/// Buffer energy per buffered flit for a design. Bufferless designs have no
/// input buffers. Buffered-8's larger bank pays extra addressing/bitline
/// energy (the paper: "Buffered 8 consumes the most energy due to more
/// buffers").
pub fn buffer_energy_pj(e: &EnergyConstants, d: DesignKind) -> f64 {
    let per_visit = e.buffer_write_pj + e.buffer_read_pj;
    match d {
        DesignKind::FlitBless | DesignKind::Scarab => 0.0,
        DesignKind::Buffered4 => per_visit,
        DesignKind::Buffered8 => per_visit * 1.2,
        DesignKind::DXbar | DesignKind::UnifiedXbar => per_visit,
        // DAMQ's shared bank is Buffered-4-sized; MinBD's side buffer is a
        // quarter bank, so reads/writes drive shorter bitlines.
        DesignKind::Damq => per_visit,
        DesignKind::MinBd => per_visit * 0.85,
    }
}

/// Crossbar traversal energy for a design.
pub fn xbar_energy_pj(e: &EnergyConstants, d: DesignKind) -> f64 {
    match d {
        DesignKind::UnifiedXbar => e.unified_xbar_pj,
        _ => e.xbar_pj,
    }
}

/// One row per design kind: Table III's six plus the zoo extensions.
pub fn table3_rows(area: &AreaModel, energy: &EnergyConstants) -> Vec<Table3Row> {
    DesignKind::ALL
        .iter()
        .map(|&d| Table3Row {
            design: d.name().to_string(),
            area_mm2: area.router_area_mm2(d),
            buffer_energy_pj_per_flit: buffer_energy_pj(energy, d),
            xbar_energy_pj_per_flit: xbar_energy_pj(energy, d),
        })
        .collect()
}

/// Plain-text rendering mirroring the paper's table.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Design        Area (mm^2)  Buffer Energy (pJ/flit)  Xbar Energy (pJ/flit)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>10.4}  {:>22.1}  {:>20.1}\n",
            r.design, r.area_mm2, r.buffer_energy_pj_per_flit, r.xbar_energy_pj_per_flit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_design_kind() {
        let rows = table3_rows(&AreaModel::default(), &EnergyConstants::default());
        assert_eq!(rows.len(), DesignKind::ALL.len());
    }

    #[test]
    fn bufferless_rows_have_zero_buffer_energy() {
        let rows = table3_rows(&AreaModel::default(), &EnergyConstants::default());
        for (d, r) in DesignKind::ALL.into_iter().zip(&rows) {
            if matches!(d, DesignKind::FlitBless | DesignKind::Scarab) {
                assert_eq!(r.buffer_energy_pj_per_flit, 0.0);
            } else {
                assert!(r.buffer_energy_pj_per_flit > 0.0);
            }
        }
    }

    #[test]
    fn buffered8_has_highest_buffer_energy() {
        let e = EnergyConstants::default();
        let b8 = buffer_energy_pj(&e, DesignKind::Buffered8);
        for d in DesignKind::ALL {
            assert!(buffer_energy_pj(&e, d) <= b8);
        }
    }

    #[test]
    fn unified_has_highest_xbar_energy() {
        let e = EnergyConstants::default();
        assert_eq!(xbar_energy_pj(&e, DesignKind::UnifiedXbar), 15.0);
        assert_eq!(xbar_energy_pj(&e, DesignKind::DXbar), 13.0);
    }

    #[test]
    fn render_contains_all_designs() {
        let rows = table3_rows(&AreaModel::default(), &EnergyConstants::default());
        let text = render_table3(&rows);
        for d in DesignKind::ALL {
            assert!(text.contains(d.name()), "missing {}", d.name());
        }
    }
}
