//! Loading real dataset files when available.
//!
//! The paper's datasets can be downloaded from the HPI repeatability site
//! (see README). Drop them as `data/<name>.csv` (comma-separated, header
//! row) and the harness will transparently use the real data instead of
//! the synthetic stand-in.
//!
//! Real files go through the `affidavit-store` streaming ingestion
//! pipeline with its default options (serial, chunked), which is
//! byte-identical to the table crate's CSV reader.

use std::path::Path;

use affidavit_store::{ingest, IngestOptions};
use affidavit_table::{Table, ValuePool};

use crate::specs::DatasetSpec;
use crate::synth;

/// Load `data_dir/<name>.csv` if present, otherwise generate the synthetic
/// stand-in. Returns the table, its pool, and whether real data was used.
pub fn load_or_generate(
    spec: &DatasetSpec,
    data_dir: impl AsRef<Path>,
    seed: u64,
) -> (Table, ValuePool, bool) {
    let path = data_dir.as_ref().join(format!("{}.csv", spec.name));
    if path.is_file() {
        match try_load(&path) {
            Ok((table, pool)) => return (table, pool, true),
            Err(err) => {
                eprintln!(
                    "warning: failed to read {} ({err}); falling back to synthetic data",
                    path.display()
                );
            }
        }
    }
    let (table, pool) = synth::generate(spec, seed);
    (table, pool, false)
}

fn try_load(path: &Path) -> Result<(Table, ValuePool), String> {
    let mut pool = ValuePool::new();
    let table =
        ingest::read_path(path, &mut pool, &IngestOptions::default()).map_err(|e| e.to_string())?;
    Ok((table, pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::by_name;

    #[test]
    fn falls_back_to_synthetic() {
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, "/nonexistent-dir", 1);
        assert!(!real);
        assert_eq!(t.len(), 150);
    }

    #[test]
    fn prefers_real_file() {
        let dir = std::env::temp_dir().join("affidavit-loader-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("iris.csv"), "a,b\n1,2\n").unwrap();
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, &dir, 1);
        assert!(real);
        assert_eq!(t.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_file_warns_with_context_and_falls_back() {
        let dir = std::env::temp_dir().join("affidavit-loader-badfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Record 2 (line 3) is short — the loader must fall back.
        std::fs::write(dir.join("iris.csv"), "a,b\n1,2\nonly-one\n").unwrap();
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, &dir, 1);
        assert!(!real);
        assert_eq!(t.len(), 150);
        std::fs::remove_dir_all(&dir).ok();
    }
}
