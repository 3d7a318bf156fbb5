//! Accelerator configuration — ANNA's design parameters (Sections III, V-A).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when an [`AnnaConfig`] is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateConfigError(String);

impl ValidateConfigError {
    /// Error for an index whose `k*` the hardware does not support.
    pub fn unsupported_kstar(kstar: usize) -> Self {
        Self(format!("ANNA supports k* of 16 and 256, index has {kstar}"))
    }

    /// Error for a database whose ids exceed the 3-byte record format.
    pub fn id_overflow() -> Self {
        Self("database ids exceed the 3-byte top-k record format (2^24-1)".into())
    }
}

impl fmt::Display for ValidateConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ANNA configuration: {}", self.0)
    }
}

impl std::error::Error for ValidateConfigError {}

/// ANNA design parameters.
///
/// Defaults match the paper's evaluated configuration (Section V-A):
/// `N_cu = 96`, `N_SCM = 16`, `N_u = 64`, 1 GHz clock, 64 GB/s memory,
/// 1 MB encoded-vector buffer, `k = 1000` top-k entries.
///
/// # Example
///
/// ```
/// use anna_core::AnnaConfig;
///
/// let cfg = AnnaConfig::paper();
/// assert_eq!(cfg.n_cu, 96);
/// assert_eq!(cfg.n_scm, 16);
/// assert_eq!(cfg.n_u, 64);
/// assert!((cfg.bytes_per_cycle() - 64.0).abs() < 1e-9); // 64 GB/s at 1 GHz
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnaConfig {
    /// Compute units in the CPM, `N_cu`.
    pub n_cu: usize,
    /// Number of Similarity Computation Modules, `N_SCM`.
    pub n_scm: usize,
    /// Lookup values sum-reduced per cycle per SCM, `N_u`.
    pub n_u: usize,
    /// Clock frequency in GHz (the paper synthesizes at 1 GHz).
    pub clock_ghz: f64,
    /// Main-memory bandwidth in GB/s (64 for a single ANNA; 75 per
    /// instance in the ANNA×12 comparison against the V100).
    pub mem_bandwidth_gbps: f64,
    /// Encoded-vector buffer capacity in bytes (1 MB in the evaluation;
    /// larger clusters are streamed in buffer-sized portions).
    pub encoded_buffer_bytes: usize,
    /// Top-k entries tracked per query (`k = 1000` in the paper).
    pub topk: usize,
    /// Bytes per top-k spill/fill record: 3 B vector id + 2 B score
    /// (Section IV-B).
    pub topk_record_bytes: usize,
    /// Outstanding 64 B entries in the Memory Access Interface
    /// (MSHR-like; Section III-B(5)).
    pub mai_entries: usize,
    /// Main-memory round-trip latency in cycles (with `mai_entries`, this
    /// bounds sustainable bandwidth by Little's law).
    pub mem_latency_cycles: f64,
}

impl AnnaConfig {
    /// The configuration evaluated in the paper.
    pub fn paper() -> Self {
        Self {
            n_cu: 96,
            n_scm: 16,
            n_u: 64,
            clock_ghz: 1.0,
            mem_bandwidth_gbps: 64.0,
            encoded_buffer_bytes: 1 << 20,
            topk: 1000,
            topk_record_bytes: 5,
            mai_entries: 128,
            mem_latency_cycles: 100.0,
        }
    }

    /// The per-instance configuration of the ANNA×12 scale-out comparison
    /// (each instance paired with a 75 GB/s memory system, Section V-B).
    pub fn paper_x12_instance() -> Self {
        Self {
            mem_bandwidth_gbps: 75.0,
            ..Self::paper()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero or non-positive.
    pub fn validate(&self) -> Result<(), ValidateConfigError> {
        if self.n_cu == 0 || self.n_scm == 0 || self.n_u == 0 {
            return Err(ValidateConfigError("unit counts must be positive".into()));
        }
        if self.clock_ghz <= 0.0 || self.mem_bandwidth_gbps <= 0.0 {
            return Err(ValidateConfigError(
                "clock and bandwidth must be positive".into(),
            ));
        }
        if self.encoded_buffer_bytes == 0 {
            return Err(ValidateConfigError(
                "encoded buffer must be non-empty".into(),
            ));
        }
        if self.topk == 0 {
            return Err(ValidateConfigError("top-k must be positive".into()));
        }
        if self.topk_record_bytes == 0 {
            return Err(ValidateConfigError(
                "top-k record size must be positive".into(),
            ));
        }
        if self.mai_entries == 0 || self.mem_latency_cycles <= 0.0 {
            return Err(ValidateConfigError(
                "MAI entries and memory latency must be positive".into(),
            ));
        }
        Ok(())
    }

    /// DRAM bytes deliverable per clock cycle at the pin
    /// (`bandwidth [B/ns] / clock [cycles/ns]`).
    pub fn bytes_per_cycle(&self) -> f64 {
        let peak = self.mem_bandwidth_gbps / self.clock_ghz;
        // The MAI's outstanding-request capacity bounds what the pipeline
        // can actually sustain (Little's law; see `modules::mai`).
        let mai_limit = self.mai_entries as f64 * 64.0 / self.mem_latency_cycles;
        peak.min(mai_limit)
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// The planner parameters implied by this configuration: `N_SCM`
    /// groups to allocate, and the top-k capacity / record size that price
    /// intermediate spill/fill units (Section IV-C).
    pub fn plan_params(&self) -> anna_plan::PlanParams {
        anna_plan::PlanParams {
            n_scm: self.n_scm,
            topk_capacity: self.topk,
            topk_record_bytes: self.topk_record_bytes,
        }
    }

    /// Codebook SRAM bytes for a given `D` and `k*`: `2·k*·D`
    /// (Section III-B; 64 KB for D=128, k*=256).
    pub fn codebook_sram_bytes(&self, d: usize, kstar: usize) -> usize {
        2 * kstar * d
    }

    /// Per-SCM lookup-table SRAM bytes for a given `M` and `k*`:
    /// `2·k*·M` (32 KB for M=64, k*=256), double-buffered in hardware.
    pub fn lut_sram_bytes(&self, m: usize, kstar: usize) -> usize {
        2 * kstar * m
    }
}

impl Default for AnnaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        assert!(AnnaConfig::paper().validate().is_ok());
        assert!(AnnaConfig::paper_x12_instance().validate().is_ok());
    }

    #[test]
    fn x12_instance_has_75_gbps() {
        assert_eq!(AnnaConfig::paper_x12_instance().mem_bandwidth_gbps, 75.0);
    }

    #[test]
    fn zero_units_rejected() {
        let cfg = AnnaConfig {
            n_u: 0,
            ..AnnaConfig::paper()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn negative_bandwidth_rejected() {
        let cfg = AnnaConfig {
            mem_bandwidth_gbps: -1.0,
            ..AnnaConfig::paper()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn sram_sizes_match_section_3b() {
        let cfg = AnnaConfig::paper();
        assert_eq!(cfg.codebook_sram_bytes(128, 256), 65536); // "64KB in our evaluation"
        assert_eq!(cfg.lut_sram_bytes(64, 256), 32768); // "32KB in our evaluation"
    }

    #[test]
    fn mai_limit_throttles_bandwidth() {
        // 32 entries at 100-cycle latency sustain only 20.48 B/cycle even
        // with a 64 GB/s DRAM behind them.
        let cfg = AnnaConfig {
            mai_entries: 32,
            ..AnnaConfig::paper()
        };
        assert!((cfg.bytes_per_cycle() - 20.48).abs() < 1e-9);
        // The paper default does not throttle.
        assert!((AnnaConfig::paper().bytes_per_cycle() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn zero_mai_entries_rejected() {
        let cfg = AnnaConfig {
            mai_entries: 0,
            ..AnnaConfig::paper()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cycle_time_conversion() {
        let cfg = AnnaConfig::paper();
        assert!((cfg.cycles_to_seconds(1e9) - 1.0).abs() < 1e-12);
        let fast = AnnaConfig {
            clock_ghz: 2.0,
            ..cfg
        };
        assert!((fast.cycles_to_seconds(1e9) - 0.5).abs() < 1e-12);
        assert!((fast.bytes_per_cycle() - 32.0).abs() < 1e-12);
    }
}
