//! Atomic manifest persistence for incremental re-profiling.
//!
//! A delta manifest is a small JSON document that must never be observed
//! half-written: a crashed run leaving a truncated manifest would be
//! indistinguishable from a corrupted one, forcing a full redo on the
//! next run (safe, but wasteful). Writes therefore go through
//! write-to-temp-then-rename: the content lands in a hidden sibling
//! temp file first and is renamed into place in one atomic step, so
//! readers only ever see either the previous complete manifest or the
//! new complete manifest.

use std::io;
use std::path::Path;

/// Write `contents` to `path` atomically: temp file in the same
/// directory (same filesystem, so the rename cannot cross devices),
/// then one `rename` into place. Creates missing parent directories.
pub fn save_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("bad manifest path {}", path.display())))?;
    // The PID keeps two processes racing on the same manifest from
    // trampling each other's temp file; last rename wins either way.
    let tmp = dir.join(format!(".tmp-{}-{name}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Read a manifest back. `Ok(None)` when the file does not exist (a
/// first run), `Err` on any other I/O failure.
pub fn load_string(path: &Path) -> io::Result<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(s) => Ok(Some(s)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_is_atomic_and_load_distinguishes_absent_from_broken() {
        let dir = std::env::temp_dir().join("affidavit-manifest-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("state.json");
        // Absent reads as None, not an error.
        assert_eq!(load_string(&path).unwrap(), None);
        // Parents are created; content round-trips.
        save_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(load_string(&path).unwrap().as_deref(), Some("{\"v\":1}"));
        // Overwrite replaces wholesale and leaves no temp droppings.
        save_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(load_string(&path).unwrap().as_deref(), Some("{\"v\":2}"));
        let siblings: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(siblings, vec!["state.json"], "no temp files left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
