//! Pinned ingested snapshots for a resident profiling service.
//!
//! One-shot profiling pays CSV ingestion and pool construction on every
//! invocation. A resident service amortizes that: the first request
//! against a snapshot pair ingests it into a [`SnapshotPair`] (two
//! tables sharing one sealed [`ValuePool`]), and the [`SessionLru`] pins
//! the pair under a [`SessionKey`] — the **content fingerprints** of both
//! files — so every later request against the same bytes skips ingestion
//! entirely and starts from a clone (tables are column-`Arc`-backed; the
//! pool is an arena of a few flat buffers, copied). Keying by content
//! rather than path means a rewritten file re-ingests and an identical
//! copy under another name hits. The LRU bounds how many pairs stay
//! pinned.
//!
//! Determinism corollary: a clone of a pinned pair is byte-identical to
//! a fresh ingestion of the same files (chunked ingestion is
//! byte-identical at every thread count, and clones preserve symbol
//! numbering), so results computed from warm sessions render the same
//! bytes as the one-shot CLI.

use std::collections::HashMap;
use std::path::Path;

use affidavit_table::{Table, ValuePool};

use crate::fingerprint::{fingerprint_file, Fingerprint};
use crate::{ingest, IngestOptions, PoolConfig};

/// An ingested snapshot pair: two tables interned into one shared pool —
/// exactly what the profiler stages into a search instance. A clone is a
/// fully independent view: it shares the tables' column `Arc`s and
/// copies the pool's arena (its string bytes, offsets, hashes, decimals
/// and slot table — a few flat buffers, no per-string allocation).
#[derive(Debug, Clone)]
pub struct SnapshotPair {
    /// The source (before) snapshot.
    pub source: Table,
    /// The target (after) snapshot.
    pub target: Table,
    /// The pool both tables intern into.
    pub pool: ValuePool,
}

/// What identifies a pinned session: the content of both files.
/// Ingestion is byte-identical at every thread count and chunk size, so
/// ingestion options are deliberately *not* part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Content fingerprint of the source file.
    pub source: Fingerprint,
    /// Content fingerprint of the target file.
    pub target: Fingerprint,
}

impl SessionKey {
    /// Key a pair of files by content.
    pub fn for_files(src_path: &Path, tgt_path: &Path) -> Result<SessionKey, String> {
        let fp =
            |path: &Path| fingerprint_file(path).map_err(|e| format!("{}: {e}", path.display()));
        Ok(SessionKey {
            source: fp(src_path)?,
            target: fp(tgt_path)?,
        })
    }
}

/// Ingest a snapshot pair from its CSV files into a fresh pool — the
/// shared ingestion step under both the one-shot profiler and the
/// resident service, so failure messages (and the ingested bytes) are
/// identical in both modes. `pool_cfg` carries no settings (see
/// [`PoolConfig`]).
pub fn ingest_pair(
    src_path: &Path,
    tgt_path: &Path,
    ingest_opts: &IngestOptions,
    pool_cfg: &PoolConfig,
) -> Result<SnapshotPair, String> {
    let mut pool = pool_cfg.build();
    let read = |path: &Path, pool: &mut ValuePool| {
        ingest::read_path(path, pool, ingest_opts).map_err(|e| format!("{}: {e}", path.display()))
    };
    let source = read(src_path, &mut pool)?;
    let target = read(tgt_path, &mut pool)?;
    Ok(SnapshotPair {
        source,
        target,
        pool,
    })
}

/// Ingestion-work counters of a [`SessionLru`] — how the "a warm repeat
/// request performs zero ingestion" invariant is asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Cache misses that ran a full ingestion.
    pub ingests: u64,
    /// Requests served from a pinned pair with zero ingestion work.
    pub hits: u64,
    /// Pinned pairs dropped to respect the capacity bound.
    pub evictions: u64,
}

impl SessionCounters {
    /// Publish these counters into the process-wide metrics registry
    /// under the `session_*` series, verbatim.
    pub fn publish(&self) {
        let m = affidavit_obs::metrics();
        m.set_counter("session_ingests_total", self.ingests);
        m.set_counter("session_hits_total", self.hits);
        m.set_counter("session_evictions_total", self.evictions);
    }
}

#[derive(Debug)]
struct SessionEntry {
    pair: SnapshotPair,
    last_used: u64,
}

/// A bounded cache of pinned [`SnapshotPair`]s, least-recently-used out.
/// Single-owner by design: a server wraps it in its own lock and holds
/// it only for the (cheap) lookup-and-clone, never across a search.
#[derive(Debug)]
pub struct SessionLru {
    capacity: usize,
    tick: u64,
    entries: HashMap<SessionKey, SessionEntry>,
    counters: SessionCounters,
}

impl SessionLru {
    /// A cache pinning at most `capacity` pairs (minimum 1).
    pub fn new(capacity: usize) -> SessionLru {
        SessionLru {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            counters: SessionCounters::default(),
        }
    }

    /// The pair for `key` — a clone of the pinned one if present (zero
    /// ingestion work), otherwise freshly produced by `ingest`, pinned
    /// (evicting the least-recently-used pair over capacity) and cloned.
    pub fn get_or_ingest(
        &mut self,
        key: SessionKey,
        ingest: impl FnOnce() -> Result<SnapshotPair, String>,
    ) -> Result<SnapshotPair, String> {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            self.counters.hits += 1;
            self.counters.publish();
            affidavit_obs::point("session.hit", Vec::new());
            return Ok(entry.pair.clone());
        }
        let pair = {
            let _span = affidavit_obs::span("session.ingest");
            ingest()?
        };
        self.counters.ingests += 1;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key);
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.counters.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            SessionEntry {
                pair: pair.clone(),
                last_used: self.tick,
            },
        );
        self.counters.publish();
        Ok(pair)
    }

    /// Ingestion-work counters so far.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Pinned pairs right now.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_pair(dir: &Path, tag: &str, rows: usize) -> (PathBuf, PathBuf) {
        std::fs::create_dir_all(dir).unwrap();
        let src = dir.join(format!("{tag}-src.csv"));
        let tgt = dir.join(format!("{tag}-tgt.csv"));
        let mut s = String::from("k,v\n");
        let mut t = String::from("k,v\n");
        for i in 0..rows {
            s.push_str(&format!("k{i},{}\n", i * 100));
            t.push_str(&format!("k{i},{i}\n"));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        (src, tgt)
    }

    fn ingest_into(lru: &mut SessionLru, src: &Path, tgt: &Path) -> SnapshotPair {
        let key = SessionKey::for_files(src, tgt).unwrap();
        lru.get_or_ingest(key, || {
            ingest_pair(src, tgt, &IngestOptions::default(), &PoolConfig)
        })
        .unwrap()
    }

    #[test]
    fn warm_repeats_skip_ingestion_and_match_cold_bytes() {
        let dir = std::env::temp_dir().join("affidavit-session-test");
        std::fs::remove_dir_all(&dir).ok();
        let (src, tgt) = write_pair(&dir, "a", 30);
        let mut lru = SessionLru::new(4);
        let cold = ingest_into(&mut lru, &src, &tgt);
        assert_eq!(lru.counters().ingests, 1);
        // The warm repeat performs zero ingestion work...
        let warm = ingest_into(&mut lru, &src, &tgt);
        assert_eq!(lru.counters().ingests, 1, "repeat must not re-ingest");
        assert_eq!(lru.counters().hits, 1);
        // ...and the pinned pair is indistinguishable from the cold one.
        assert_eq!(warm.source, cold.source);
        assert_eq!(warm.target, cold.target);
        assert_eq!(warm.pool.len(), cold.pool.len());
        // Rewriting a file changes its content key: a fresh ingestion.
        std::fs::write(&src, "k,v\nk0,changed\n").unwrap();
        ingest_into(&mut lru, &src, &tgt);
        assert_eq!(lru.counters().ingests, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let dir = std::env::temp_dir().join("affidavit-session-lru-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut lru = SessionLru::new(2);
        let (a_src, a_tgt) = write_pair(&dir, "a", 5);
        let (b_src, b_tgt) = write_pair(&dir, "b", 6);
        let (c_src, c_tgt) = write_pair(&dir, "c", 7);
        ingest_into(&mut lru, &a_src, &a_tgt);
        ingest_into(&mut lru, &b_src, &b_tgt);
        // Touch a so b is the least recently used, then overflow with c.
        ingest_into(&mut lru, &a_src, &a_tgt);
        ingest_into(&mut lru, &c_src, &c_tgt);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.counters().evictions, 1);
        // a survived (recently used): a repeat is still a hit.
        ingest_into(&mut lru, &a_src, &a_tgt);
        assert_eq!(lru.counters().hits, 2);
        // b was evicted: a repeat re-ingests.
        ingest_into(&mut lru, &b_src, &b_tgt);
        assert_eq!(lru.counters().ingests, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
