//! Compression-ratio sweep — the Section V-B text claims around 16:1:
//! "although not presented in the figure, those [`k* = 16`]
//! configurations fail to achieve 0.5 recall on 16:1 compression ratio
//! scenarios for the same dataset \[Deep1B\]", while "Faiss256 (CPU) can
//! achieve substantially better maximum recall".

use anna_data::PaperDataset;

use crate::configs::SearchConfig;
use crate::harness::Contexts;
use crate::json::Json;

/// Maximum recall one configuration reaches at one compression ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionRow {
    /// Dataset label.
    pub dataset: String,
    /// Configuration label.
    pub config: String,
    /// Compression ratio.
    pub compression: u32,
    /// Max recall (probing half the clusters).
    pub max_recall: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct Compression {
    /// All rows.
    pub rows: Vec<CompressionRow>,
}

/// Runs the sweep on the Deep1B stand-in (the dataset the paper calls
/// out) across 4:1, 8:1 and 16:1 for the three model families; max
/// recall probes half the clusters.
pub fn run(contexts: &mut Contexts) -> Compression {
    let dataset = PaperDataset::Deep1B;
    let w = (contexts.scale.num_clusters / 2).max(1);
    let mut rows = Vec::new();
    for compression in [4u32, 8, 16] {
        let ctx = contexts.get(dataset, compression);
        // The three CPU-family rows; the GPU row shares Faiss256's model.
        for cfg in &SearchConfig::ALL[..3] {
            rows.push(CompressionRow {
                dataset: dataset.name().to_string(),
                config: cfg.sw_name.replace(" (CPU)", ""),
                compression,
                max_recall: ctx.recall_at(cfg, w),
            });
        }
    }
    Compression { rows }
}

impl Compression {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj().set(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("dataset", r.dataset.clone())
                            .set("config", r.config.clone())
                            .set("compression", r.compression)
                            .set("max_recall", r.max_recall)
                    })
                    .collect(),
            ),
        )
    }

    /// The recall a configuration reaches at a compression ratio.
    pub fn recall_of(&self, config: &str, compression: u32) -> f64 {
        self.rows
            .iter()
            .find(|r| r.config == config && r.compression == compression)
            .map(|r| r.max_recall)
            .unwrap_or(f64::NAN)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "\n=== Compression sweep: max recall vs compression ratio (Deep1B-class) ===\n",
        );
        s.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>8}\n",
            "config", "4:1", "8:1", "16:1"
        ));
        for config in ["ScaNN16", "Faiss16", "Faiss256"] {
            s.push_str(&format!(
                "{:<12} {:>8.3} {:>8.3} {:>8.3}\n",
                config,
                self.recall_of(config, 4),
                self.recall_of(config, 8),
                self.recall_of(config, 16)
            ));
        }
        s.push_str(
            "paper (Section V-B text): k*=16 cannot exceed 0.9 recall at 8:1 and\n\
             fails to reach 0.5 at 16:1 on Deep1B; k*=256 degrades far more slowly.\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn recall_degrades_with_compression_and_k256_wins_at_16to1() {
        let mut scale = Scale::quick();
        scale.db_n = 4000;
        scale.num_queries = 16;
        scale.num_clusters = 16;
        scale.train_iters = 3;
        let c = run(&mut Contexts::new(scale));
        assert_eq!(c.rows.len(), 9);
        for config in ["ScaNN16", "Faiss16", "Faiss256"] {
            let r4 = c.recall_of(config, 4);
            let r16 = c.recall_of(config, 16);
            assert!(
                r16 <= r4 + 0.02,
                "{config}: recall should not improve with compression ({r4} -> {r16})"
            );
        }
        // The paper's point: at 16:1 the 256-codeword models hold up much
        // better than the 16-codeword ones.
        let k256 = c.recall_of("Faiss256", 16);
        let k16 = c.recall_of("Faiss16", 16);
        assert!(
            k256 >= k16 - 0.05,
            "k*=256 ({k256}) should not collapse before k*=16 ({k16}) at 16:1"
        );
    }
}
