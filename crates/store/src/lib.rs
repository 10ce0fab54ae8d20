//! Snapshot storage and ingestion subsystem.
//!
//! The search engine (`affidavit-core`) operates on `(Table, ValuePool)`
//! pairs; this crate is how those pairs come to exist at scale:
//!
//! * [`ingest`] — chunked streaming CSV ingestion. A
//!   [`RowChunker`](affidavit_table::csv::RowChunker) splits the byte
//!   stream into chunks of complete records in bounded memory; chunks fan
//!   out over worker threads, each running the table crate's chunk kernel
//!   ([`RowScanner::intern_records`](affidavit_table::csv::RowScanner::intern_records))
//!   into a private
//!   [`ScratchPool`](affidavit_table::ScratchPool) overlay; the driver
//!   merges worker results in chunk order via
//!   [`ValuePool::absorb`](affidavit_table::ValuePool::absorb). Because
//!   the merge order is fixed, the resulting `(Table, ValuePool)` is
//!   **byte-identical** to a serial
//!   [`csv::read_str`](affidavit_table::csv::read_str) at every thread
//!   count and chunk size.
//! * [`fingerprint`] — streaming content fingerprints (FNV-1a 64 +
//!   length) identifying snapshot files by bytes rather than path.
//! * [`manifest`] — atomic (write-temp-then-rename) persistence for the
//!   incremental re-profiling manifests of `--delta` runs.
//! * [`session`] — pinned ingested [`SnapshotPair`]s for a resident
//!   service: an LRU keyed by the content fingerprints of both files, so
//!   warm repeat requests skip ingestion entirely (counter-asserted).
//!
//! ```
//! use affidavit_store::{ingest, IngestOptions};
//! use affidavit_table::ValuePool;
//!
//! let csv = "k,v\r\n1,\"a,b\"\r\n2,plain\r\n";
//! let opts = IngestOptions { chunk_rows: 1, threads: 2, ..IngestOptions::default() };
//! let mut pool = ValuePool::new();
//! let table = ingest::read_stream(csv.as_bytes(), &mut pool, &opts).unwrap();
//! assert_eq!(table.len(), 2);
//! // Chunked parallel ingestion is byte-identical to the serial parser.
//! let mut serial = ValuePool::new();
//! let reference = affidavit_table::csv::read_str(
//!     csv, &mut serial, affidavit_table::csv::CsvOptions::default()).unwrap();
//! assert_eq!(table, reference);
//! assert_eq!(pool.len(), serial.len());
//! ```

#![warn(missing_docs)]

pub mod fingerprint;
pub mod ingest;
pub mod manifest;
pub mod session;

use affidavit_table::ValuePool;

pub use fingerprint::{fingerprint_bytes, fingerprint_file, Fingerprint, Fnv};
pub use ingest::IngestOptions;
pub use session::{ingest_pair, SessionCounters, SessionKey, SessionLru, SnapshotPair};

/// The value pool a snapshot pair is ingested into. It has no settings:
/// every pool is the one in-RAM [`ValuePool`]. The type stays only
/// because the frozen benchmark harness under `perfbench/` names
/// `ProfileOptions::pool` and passes it to [`ingest_pair`]; the next
/// change to that harness removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolConfig;

impl PoolConfig {
    /// An empty pool.
    pub fn build(&self) -> ValuePool {
        ValuePool::new()
    }
}
