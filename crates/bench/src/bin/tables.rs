//! Regenerates Tables I, II and III of the paper.
//!
//! * Table I — processor parameters of the SPLASH-2 simulations;
//! * Table II — cache and memory parameters;
//! * Table III — per-design area and energy estimates (our calibrated
//!   analytical model standing in for the paper's Synopsys synthesis; the
//!   paper's stated relationships are asserted at startup).
//!
//! ```text
//! cargo run --release -p bench --bin tables
//! ```

use bench::emit;
use dxbar_noc::noc_power::area::{AreaModel, DesignKind};
use dxbar_noc::noc_power::energy::EnergyConstants;
use dxbar_noc::noc_power::table::{render_table3, table3_rows};
use dxbar_noc::noc_traffic::splash::{MemoryParams, ProcessorParams};

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), "DXBAR_OUT");
    let p = ProcessorParams::default();
    let mut t1 = String::new();
    t1.push_str("TABLE I — processor parameters (SPLASH-2 suite simulations)\n");
    t1.push_str(&format!("{:<28} {} GHz\n", "Frequency", p.frequency_ghz));
    t1.push_str(&format!(
        "{:<28} {}, {}\n",
        "Issue", p.issue_width, p.issue_order
    ));
    t1.push_str(&format!("{:<28} {}\n", "Retire", p.retire_order));
    t1.push_str(&format!("{:<28} {}\n", "Ld/St units", p.ld_st_units));
    t1.push_str(&format!("{:<28} {}\n", "Mul/Div units", p.mul_div_units));
    t1.push_str(&format!(
        "{:<28} {}\n",
        "Write-buffer entries", p.write_buffer_entries
    ));
    t1.push_str(&format!(
        "{:<28} {}\n",
        "Branch predictor", p.branch_predictor
    ));
    t1.push_str(&format!(
        "{:<28} {}/{}\n",
        "BTB/RAS entries", p.btb_entries, p.ras_entries
    ));
    t1.push_str(&format!(
        "{:<28} {} KB, {}-way\n",
        "IL1/DL1 size, associativity", p.l1_size_kb, p.l1_assoc
    ));
    t1.push_str(&format!(
        "{:<28} {} cycles\n",
        "IL1/DL1 access latency", p.l1_latency_cycles
    ));
    t1.push_str(&format!(
        "{:<28} {} B\n",
        "IL1/DL1 block size", p.l1_block_bytes
    ));

    let m = MemoryParams::default();
    let mut t2 = String::new();
    t2.push_str("\nTABLE II — cache and memory parameters\n");
    t2.push_str(&format!("{:<28} {}\n", "L2 caches (banks)", m.l2_banks));
    t2.push_str(&format!("{:<28} {} MB\n", "Cache size", m.l2_size_mb));
    t2.push_str(&format!(
        "{:<28} {}-way\n",
        "Cache associativity", m.l2_assoc
    ));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Cache access latency", m.l2_latency_cycles
    ));
    t2.push_str(&format!("{:<28} {}\n", "Write-back policy", m.l2_writeback));
    t2.push_str(&format!("{:<28} {} B\n", "Cache block size", m.block_bytes));
    t2.push_str(&format!("{:<28} {}\n", "MSHR entries", m.mshr_entries));
    t2.push_str(&format!("{:<28} {}\n", "Coherence protocol", m.coherence));
    t2.push_str(&format!(
        "{:<28} {}\n",
        "Memory controllers", m.memory_controllers
    ));
    t2.push_str(&format!("{:<28} {} GB\n", "Memory size", m.memory_size_gb));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Memory latency", m.memory_latency_cycles
    ));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Directory latency", m.directory_latency_cycles
    ));

    let area = AreaModel::default();
    let energy = EnergyConstants::default();
    let rows = table3_rows(&area, &energy);
    let mut t3 = String::from("\nTABLE III — area and energy estimation (65 nm, 1.0 V, 1 GHz)\n");
    t3.push_str(&render_table3(&rows));

    // Assert the paper's stated relationships hold under the calibration.
    let a = |d| area.router_area_mm2(d);
    assert!(a(DesignKind::DXbar) > a(DesignKind::Buffered4));
    assert!(a(DesignKind::DXbar) < a(DesignKind::Buffered8));
    assert!(a(DesignKind::UnifiedXbar) < a(DesignKind::DXbar));
    let dxbar_rel = area.relative_area(DesignKind::DXbar, DesignKind::FlitBless);
    let unified_rel = area.relative_area(DesignKind::UnifiedXbar, DesignKind::FlitBless);
    t3.push_str(&format!(
        "\nDXbar area overhead over Flit-Bless:   {:.0}% (paper: 33%)\n",
        (dxbar_rel - 1.0) * 100.0
    ));
    t3.push_str(&format!(
        "Unified area overhead over Flit-Bless: {:.0}% (paper: 25%)\n",
        (unified_rel - 1.0) * 100.0
    ));
    t3.push_str("Critical paths: LT 0.47 ns; unified worst gate path 0.27 ns (< 1 ns clock)\n");

    let text = format!("{t1}{t2}{t3}");
    emit("tables", &text, &[]);
}
