//! Experiment harness for the ANNA reproduction: one module per
//! table/figure of the paper's evaluation, one table of the reports they
//! produce ([`reports::REPORTS`]) and one driver for it, `--bin runall`.
//!
//! | Report | Paper artifact |
//! |---|---|
//! | [`fig8`] / `runall fig8` | Figure 8: throughput vs recall, 6 datasets × {4:1, 8:1} |
//! | [`fig9`] / `runall fig9` | Figure 9: single-query latency (4:1) |
//! | [`fig10`] / `runall fig10` | Figure 10: normalized energy efficiency (4:1, W=32) |
//! | [`table1`] / `runall table1` | Table I: per-module area and peak power |
//! | [`traffic_opt`] / `runall traffic_opt` | §V-B memory-traffic-optimization speedups |
//! | [`ablation`] / `runall ablation` | design-parameter sweeps (DESIGN.md ablations) |
//! | [`compression`] / `runall compression` | §V-B 16:1 recall-collapse text claim |
//! | [`timeline`] / `runall timeline` | Figure 7: steady-state execution timeline |
//! | [`related`] / `runall related_work` | §VI comparison points |
//! | [`rerank_sweep`] / `runall rerank_sweep` | two-phase re-rank: fixed-precision vs adaptive bytes/recall frontier |
//! | [`tiered_sweep`] / `runall tiered_sweep` | sharded tiered engine: bytes-from-storage vs cluster-cache capacity |
//! | [`graph_sweep`] / `runall graph_sweep` | graph vs IVF-PQ recall-vs-bytes frontiers through the shared `SearchEngine` pipeline |
//!
//! `runall` regenerates the named reports (all twelve when none is
//! named) and prints them; `--full` selects the full-scale profile (see
//! [`scale::Scale`]) and writes `reports/*.json`, `--check` compares a
//! fresh full-profile run with the committed files byte for byte. The
//! default quick profile finishes in seconds per figure and writes
//! nothing. Run with `--release`.

#![deny(missing_docs)]

pub mod ablation;
pub mod compression;
pub mod configs;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod graph_sweep;
pub mod harness;
pub mod json;
pub mod related;
pub mod reports;
pub mod rerank_sweep;
pub mod scale;
pub mod table1;
pub mod tiered_sweep;
pub mod timeline;
pub mod traffic_opt;

pub use harness::{run_plot, Plot, Series, SeriesPoint};
pub use scale::Scale;
