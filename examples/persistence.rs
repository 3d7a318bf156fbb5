//! Persistence: exchange vectors in the standard TexMex `.fvecs` format
//! and save/reload a trained index as a segment file —
//! the workflow for running this reproduction on the paper's *real*
//! datasets when they are available.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

use anna::data::{fvecs, synth, Character, DatasetSpec};
use anna::index::{self, IvfPqConfig, IvfPqIndex, SearchParams};

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("anna-persistence-example");
    std::fs::create_dir_all(&dir)?;

    // 1. Generate a dataset and write it as .fvecs (what SIFT/Deep ship
    //    as; drop in the real files here to run on the paper's corpora).
    let ds = synth::generate(&DatasetSpec {
        name: "demo".into(),
        dim: 16,
        n: 5000,
        num_queries: 8,
        character: Character::SiftLike,
        num_blobs: 16,
        seed: 3,
    });
    let base_path = dir.join("base.fvecs");
    fvecs::write_fvecs(std::fs::File::create(&base_path)?, &ds.db)?;
    println!("wrote {} vectors to {}", ds.db.len(), base_path.display());

    // 2. Read it back (a real run would read sift_base.fvecs etc.).
    let db = fvecs::read_fvecs(std::fs::File::open(&base_path)?, usize::MAX)?;
    assert_eq!(db, ds.db);

    // 3. Train an index and persist the model — the (centroids, codebooks,
    //    encoded vectors) triple the host ships to the accelerator.
    let built = IvfPqIndex::build(
        &db,
        &IvfPqConfig {
            metric: ds.metric,
            num_clusters: 16,
            m: 8,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let index_path = dir.join("model.annaidx");
    index::write_segment(std::fs::File::create(&index_path)?, &built)?;
    println!(
        "saved trained model ({} bytes) to {}",
        std::fs::metadata(&index_path)?.len(),
        index_path.display()
    );

    // 4. Reload and verify the search results are identical.
    let loaded = index::read_index(std::fs::File::open(&index_path)?)?;
    let params = SearchParams {
        nprobe: 4,
        k: 5,
        ..Default::default()
    };
    for qi in 0..ds.queries.len() {
        assert_eq!(
            loaded.search(ds.queries.row(qi), &params),
            built.search(ds.queries.row(qi), &params),
        );
    }
    println!(
        "reloaded model reproduces all {} query results exactly",
        ds.queries.len()
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
