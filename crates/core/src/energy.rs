//! Area, power and energy model — the reproduction of Table I and the
//! inputs to Figure 10.
//!
//! The paper implements ANNA in Chisel, synthesizes at TSMC 40 nm GP /
//! 1 GHz, and reports per-module area and peak power (Table I); system
//! energy is then obtained by post-processing per-component power with
//! activity ("In practice, not all modules are fully utilized at the same
//! time, and thus the actual power usage (2-3W) is lower than the peak").
//! We cannot synthesize RTL here, so the per-module area/peak-power
//! figures are taken as model constants (DESIGN.md, substitution 4) and
//! energy is computed from the simulator's activity counters exactly as
//! the paper post-processes its own numbers.

use crate::config::AnnaConfig;
use crate::timing::TimingReport;

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleBudget {
    /// Module name as printed in Table I.
    pub name: &'static str,
    /// Area in mm² at 40 nm.
    pub area_mm2: f64,
    /// Peak power in watts at 1 GHz.
    pub peak_power_w: f64,
}

/// The per-module area/power model (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    /// Codebook/Cluster Processing Module.
    pub cpm: ModuleBudget,
    /// Encoded Vector Fetch Module.
    pub efm: ModuleBudget,
    /// All Similarity Computation Modules together (16× in the paper).
    pub scm_total: ModuleBudget,
    /// Memory Access Interface.
    pub mai: ModuleBudget,
    /// Fraction of peak power drawn by an idle module (static/leakage +
    /// clock tree); chosen so a typically-utilized run lands in the
    /// paper's observed 2–3 W band.
    pub idle_fraction: f64,
}

impl AreaPowerModel {
    /// Table I of the paper.
    pub fn paper() -> Self {
        Self {
            cpm: ModuleBudget {
                name: "Codebook/Cluster Processing Module",
                area_mm2: 1.17,
                peak_power_w: 0.391,
            },
            efm: ModuleBudget {
                name: "Encoded Vector Fetch Module",
                area_mm2: 2.87,
                peak_power_w: 1.065,
            },
            scm_total: ModuleBudget {
                name: "Similarity Computation Module (16x)",
                area_mm2: 13.30,
                peak_power_w: 3.795,
            },
            mai: ModuleBudget {
                name: "Memory Access Interface (MAI)",
                area_mm2: 0.17,
                peak_power_w: 0.147,
            },
            idle_fraction: 0.15,
        }
    }

    /// Total accelerator area (the Table I "ANNA Accelerator" row:
    /// 17.51 mm²).
    pub fn total_area_mm2(&self) -> f64 {
        self.cpm.area_mm2 + self.efm.area_mm2 + self.scm_total.area_mm2 + self.mai.area_mm2
    }

    /// Total peak power (Table I: 5.398 W).
    pub fn total_peak_power_w(&self) -> f64 {
        self.cpm.peak_power_w
            + self.efm.peak_power_w
            + self.scm_total.peak_power_w
            + self.mai.peak_power_w
    }

    /// Area of `n` accelerator instances (the "ANNA Accelerators (12×)"
    /// row: 210.12 mm²).
    pub fn scaled_area_mm2(&self, n: usize) -> f64 {
        self.total_area_mm2() * n as f64
    }

    /// Peak power of `n` instances (64.776 W at n = 12).
    pub fn scaled_peak_power_w(&self, n: usize) -> f64 {
        self.total_peak_power_w() * n as f64
    }

    /// Average power drawn during a simulated run, from per-module
    /// utilization: `P = Σ_m peak_m · (idle + (1 − idle) · util_m)`.
    ///
    /// Utilizations come from the report's activity counters:
    /// CPM = busy cycles / total; SCM = busy SCM-cycles / (N_SCM · total);
    /// EFM and MAI follow memory-channel occupancy.
    pub fn average_power_w(&self, cfg: &AnnaConfig, report: &TimingReport) -> f64 {
        let total = report.cycles.max(1.0);
        let u_cpm = (report.activity.cpm_cycles / total).clamp(0.0, 1.0);
        let u_scm = (report.activity.scm_cycles / (cfg.n_scm as f64 * total)).clamp(0.0, 1.0);
        let u_mem = (report.memory_cycles / total).clamp(0.0, 1.0);
        let act = |b: &ModuleBudget, u: f64| {
            b.peak_power_w * (self.idle_fraction + (1.0 - self.idle_fraction) * u)
        };
        act(&self.cpm, u_cpm)
            + act(&self.scm_total, u_scm)
            + act(&self.efm, u_mem)
            + act(&self.mai, u_mem)
    }

    /// Per-module average power during a simulated run, in watts — the
    /// breakdown the paper's "post-process power consumption from each
    /// component" step produces. Ordered CPM, EFM, SCM (all), MAI.
    pub fn power_breakdown_w(&self, cfg: &AnnaConfig, report: &TimingReport) -> [(String, f64); 4] {
        let total = report.cycles.max(1.0);
        let u_cpm = (report.activity.cpm_cycles / total).clamp(0.0, 1.0);
        let u_scm = (report.activity.scm_cycles / (cfg.n_scm as f64 * total)).clamp(0.0, 1.0);
        let u_mem = (report.memory_cycles / total).clamp(0.0, 1.0);
        let act = |b: &ModuleBudget, u: f64| {
            b.peak_power_w * (self.idle_fraction + (1.0 - self.idle_fraction) * u)
        };
        [
            (self.cpm.name.to_string(), act(&self.cpm, u_cpm)),
            (self.efm.name.to_string(), act(&self.efm, u_mem)),
            (self.scm_total.name.to_string(), act(&self.scm_total, u_scm)),
            (self.mai.name.to_string(), act(&self.mai, u_mem)),
        ]
    }

    /// Energy in joules for a simulated run.
    pub fn energy_joules(&self, cfg: &AnnaConfig, report: &TimingReport) -> f64 {
        self.average_power_w(cfg, report) * report.seconds(cfg)
    }

    /// Energy per query in joules.
    pub fn energy_per_query_joules(&self, cfg: &AnnaConfig, report: &TimingReport) -> f64 {
        self.energy_joules(cfg, report) / report.queries.max(1) as f64
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Reference die sizes the paper compares against (Section V-C).
pub mod reference {
    /// Intel Skylake-X LCC die, mm² at 14 nm ("325.4 mm²").
    pub const CPU_DIE_MM2: f64 = 325.4;
    /// NVIDIA V100 die, mm² at 12 nm ("815 mm²").
    pub const GPU_DIE_MM2: f64 = 815.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Activity, TrafficReport};

    fn report(cycles: f64, cpm: f64, scm: f64, mem: f64) -> TimingReport {
        TimingReport {
            cycles,
            filter_cycles: 0.0,
            compute_cycles: cpm + scm,
            memory_cycles: mem,
            traffic: TrafficReport::default(),
            clusters_fetched: 0,
            scan_work: 0,
            activity: Activity {
                cpm_cycles: cpm,
                scm_cycles: scm,
                topk_inputs: 0.0,
            },
            queries: 1,
        }
    }

    #[test]
    fn table1_totals_match_paper() {
        let m = AreaPowerModel::paper();
        assert!((m.total_area_mm2() - 17.51).abs() < 1e-9);
        assert!((m.total_peak_power_w() - 5.398).abs() < 1e-9);
        assert!((m.scaled_area_mm2(12) - 210.12).abs() < 1e-9);
        assert!((m.scaled_peak_power_w(12) - 64.776).abs() < 1e-6);
    }

    #[test]
    fn fully_utilized_run_draws_peak() {
        let cfg = AnnaConfig::paper();
        let m = AreaPowerModel::paper();
        let r = report(1000.0, 1000.0, 16.0 * 1000.0, 1000.0);
        assert!((m.average_power_w(&cfg, &r) - m.total_peak_power_w()).abs() < 1e-9);
    }

    #[test]
    fn typical_run_lands_in_2_to_3_watt_band() {
        // ~50% SCM utilization, light CPM, memory mostly busy — the
        // paper's "actual power usage (2-3W)".
        let cfg = AnnaConfig::paper();
        let m = AreaPowerModel::paper();
        let r = report(1000.0, 100.0, 16.0 * 350.0, 800.0);
        let p = m.average_power_w(&cfg, &r);
        assert!(
            (1.8..3.2).contains(&p),
            "average power {p} outside the paper's band"
        );
    }

    #[test]
    fn idle_run_draws_only_leakage() {
        let cfg = AnnaConfig::paper();
        let m = AreaPowerModel::paper();
        let r = report(1000.0, 0.0, 0.0, 0.0);
        let p = m.average_power_w(&cfg, &r);
        assert!((p - m.total_peak_power_w() * m.idle_fraction).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_average_power() {
        let cfg = AnnaConfig::paper();
        let m = AreaPowerModel::paper();
        let r = report(1000.0, 150.0, 16.0 * 450.0, 900.0);
        let breakdown = m.power_breakdown_w(&cfg, &r);
        let sum: f64 = breakdown.iter().map(|(_, w)| w).sum();
        assert!((sum - m.average_power_w(&cfg, &r)).abs() < 1e-9);
        // SCMs dominate at high scan utilization, as in Table I.
        let scm = breakdown
            .iter()
            .find(|(n, _)| n.contains("Similarity"))
            .unwrap()
            .1;
        assert!(breakdown.iter().all(|(_, w)| *w <= scm + 1e-12));
    }

    #[test]
    fn energy_scales_with_time() {
        let cfg = AnnaConfig::paper();
        let m = AreaPowerModel::paper();
        let short = report(1e6, 5e5, 8e6, 5e5);
        let long = report(2e6, 1e6, 16e6, 1e6);
        let ratio = m.energy_joules(&cfg, &long) / m.energy_joules(&cfg, &short);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn die_size_ratios_match_section_5c() {
        // "effectively 151× larger" CPU / "517× larger" GPU after
        // technology scaling — raw ratios before scaling:
        let m = AreaPowerModel::paper();
        let cpu_ratio = reference::CPU_DIE_MM2 / m.total_area_mm2();
        let gpu_ratio = reference::GPU_DIE_MM2 / m.total_area_mm2();
        assert!(cpu_ratio > 18.0 && cpu_ratio < 19.0);
        assert!(gpu_ratio > 46.0 && gpu_ratio < 47.0);
    }
}
