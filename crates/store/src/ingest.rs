//! Streaming snapshot ingestion with parallel interning.
//!
//! The serial CSV readers intern chunk by chunk into one pool — fine for
//! the running example, a bottleneck at the paper's "hundreds of tables"
//! operating point. This module splits the byte stream into chunks of
//! complete records ([`RowChunker`], quote/CRLF-aware, bounded memory),
//! fans each window of up to `threads` chunks out as one
//! [`rayon::ordered_scan`] on `threads` scoped workers — each runs the
//! chunk kernel ([`RowScanner::intern_records`]) into a private
//! [`ScratchPool`] overlay over the frozen
//! pool — and then absorbs worker results **in chunk order** via
//! [`ValuePool::absorb`] + [`SymRemap`](affidavit_table::SymRemap).
//!
//! # Determinism invariant
//!
//! First-appearance order decides symbol numbering, and absorbing chunks
//! in stream order reproduces exactly the first-appearance order of a
//! serial row-by-row pass (strings several workers discovered collapse
//! onto the symbol of the earliest chunk). The resulting
//! `(Table, ValuePool)` is therefore **byte-identical** to
//! [`csv::read_str`](affidavit_table::csv::read_str) at every thread
//! count and every chunk size — asserted across the full matrix by
//! `tests/properties_ingest.rs`.

use std::io::BufRead;
use std::path::Path;

use affidavit_table::csv::{CsvChunk, CsvOptions, RowChunker, RowScanner};
use affidavit_table::{
    resolve_threads, NewStrings, PoolReader, ScratchPool, Sym, Table, TableError, ValuePool,
    MAX_THREADS,
};

/// Options for streaming ingestion.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// CSV dialect.
    pub csv: CsvOptions,
    /// Records per chunk (`--ingest-chunk-rows`). Smaller chunks bound
    /// memory tighter and parallelize finer; the result is identical
    /// either way.
    pub chunk_rows: usize,
    /// Worker threads: `1` = serial (default), `0` = one per hardware
    /// thread, `N` = exactly N, up to [`MAX_THREADS`].
    pub threads: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv: CsvOptions::default(),
            chunk_rows: 4096,
            threads: 1,
        }
    }
}

/// Phase-1 output of one chunk worker: the chunk's records as scratch
/// symbols, column by column, plus the overlay's new strings, ready for
/// in-order absorption.
struct ChunkOut {
    columns: Vec<Vec<Sym>>,
    rows: usize,
    new_strings: NewStrings,
    /// First error in the chunk; for `ArityMismatch` the `row` is
    /// chunk-local (1-based) and offset to a whole-stream index during the
    /// merge. Records past the error are neither scanned nor interned,
    /// matching the serial reader's stopping point.
    err: Option<TableError>,
}

fn process_chunk(
    chunk: &CsvChunk,
    reader: PoolReader<'_>,
    arity: usize,
    csv: CsvOptions,
) -> ChunkOut {
    let mut scratch = ScratchPool::new(reader);
    let mut columns = vec![Vec::new(); arity];
    let (rows, err) = RowScanner::new(&chunk.text, csv, chunk.first_line)
        .intern_records(&mut scratch, &mut columns);
    ChunkOut {
        columns,
        rows,
        new_strings: scratch.take_new_strings(),
        err,
    }
}

/// Stream a CSV table from `reader` into `pool`.
///
/// Memory stays bounded by `threads × chunk_rows` records (plus the
/// longest single record); the result is byte-identical to
/// [`csv::read_str`](affidavit_table::csv::read_str) on the same bytes.
/// A thread count above [`MAX_THREADS`] is
/// [`TableError::TooManyThreads`], before any thread is spawned.
pub fn read_stream<R: BufRead>(
    reader: R,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, TableError> {
    let _span = affidavit_obs::span("ingest.stream");
    if opts.threads > MAX_THREADS {
        return Err(TableError::TooManyThreads {
            requested: opts.threads,
        });
    }
    let threads = resolve_threads(opts.threads);
    if threads <= 1 {
        // The serial case *is* the table crate's streaming reader; one
        // canonical implementation, no scratch/absorb overhead. It still
        // meters `ingest_rows_total`: the series counts records streamed
        // through this entry point, not a particular worker topology.
        let table = affidavit_table::csv::read_buffered_with(
            reader,
            pool,
            opts.csv,
            opts.chunk_rows.max(1),
        )?;
        affidavit_obs::metrics().add_counter("ingest_rows_total", table.len() as u64);
        return Ok(table);
    }
    ingest(reader, pool, opts, threads)
}

/// Stream a CSV file from `path` into `pool` (see [`read_stream`]).
pub fn read_path(
    path: impl AsRef<Path>,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, TableError> {
    let file = affidavit_table::csv::open_snapshot(path)?;
    read_stream(std::io::BufReader::new(file), pool, opts)
}

fn ingest<R: BufRead>(
    reader: R,
    pool: &mut ValuePool,
    opts: &IngestOptions,
    threads: usize,
) -> Result<Table, TableError> {
    let csv = opts.csv;
    let chunk_rows = opts.chunk_rows.max(1);
    let mut chunker = RowChunker::new(reader, csv);
    let schema = chunker.header()?;
    let arity = schema.arity();
    let mut table = Table::new(schema);
    let mut rows_done = 0usize;
    loop {
        // One window of chunks per iteration: enough to feed every worker,
        // small enough to bound memory to `threads × chunk_rows` records.
        // A chunker error (an unterminated quote at EOF, invalid UTF-8) is
        // *behind* every
        // chunk already handed out, so it is held back until the batch's
        // records have been validated — errors surface in stream order at
        // every thread count and chunk size.
        let mut pending: Option<TableError> = None;
        let mut batch: Vec<CsvChunk> = Vec::with_capacity(threads);
        while batch.len() < threads {
            match chunker.next_chunk(chunk_rows) {
                Ok(Some(chunk)) => batch.push(chunk),
                Ok(None) => break,
                Err(err) => {
                    pending = Some(err);
                    break;
                }
            }
        }
        if batch.is_empty() {
            if let Some(err) = pending {
                return Err(err);
            }
            break;
        }
        // Phase 1 (parallel, read-only): parse + intern each chunk against
        // the frozen pool.
        let outs: Vec<ChunkOut> = {
            let _span = affidavit_obs::span("ingest.parse");
            let reader = pool.reader();
            rayon::ordered_scan(batch.len(), threads, |i| {
                (process_chunk(&batch[i], reader, arity, csv), None)
            })
            .0
        };
        affidavit_obs::metrics().add_counter("ingest_chunks_total", outs.len() as u64);
        // Phase 2 (sequential, chunk order): absorb each worker's new
        // strings, rewrite its rows through the remap, append.
        let _span = affidavit_obs::span("ingest.absorb");
        for out in outs {
            let remap = pool.absorb(&out.new_strings);
            // Column-wise absorb: one linear append per attribute, each
            // symbol rewritten through the remap. The remap is a pure
            // lookup, so the column-major traversal leaves pool evolution
            // alone.
            table.extend_columnwise(out.rows, |attr, buf| {
                buf.extend(
                    out.columns[attr.index()]
                        .iter()
                        .map(|&sym| remap.remap(sym)),
                );
            });
            if let Some(err) = out.err {
                return Err(err.after_rows(rows_done));
            }
            rows_done += out.rows;
        }
        if let Some(err) = pending {
            return Err(err);
        }
    }
    affidavit_obs::metrics().add_counter("ingest_rows_total", rows_done as u64);
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::csv;

    fn fingerprint(table: &Table, pool: &ValuePool) -> String {
        let mut out = String::new();
        for name in table.schema().names() {
            out.push_str(name);
            out.push('\u{1}');
        }
        for (_, s) in pool.iter() {
            out.push_str(s);
            out.push('\u{2}');
        }
        for record in table.rows() {
            for sym in record.iter() {
                out.push_str(&sym.0.to_string());
                out.push(',');
            }
            out.push('\u{3}');
        }
        out
    }

    #[test]
    fn matches_serial_at_every_thread_count_and_chunk_size() {
        let mut text = String::from("id,amount,unit,note\n");
        for i in 0..300 {
            text.push_str(&format!(
                "k{i},{},USD,\"row {i}, with \"\"quotes\"\"\nand a newline\"\r\n",
                i * 100
            ));
        }
        let mut serial_pool = ValuePool::new();
        let serial = csv::read_str(&text, &mut serial_pool, CsvOptions::default()).unwrap();
        let want = fingerprint(&serial, &serial_pool);
        for threads in [1usize, 2, 4] {
            for chunk_rows in [1usize, 7, 64, 4096] {
                let opts = IngestOptions {
                    chunk_rows,
                    threads,
                    ..IngestOptions::default()
                };
                let mut pool = ValuePool::new();
                let table = read_stream(text.as_bytes(), &mut pool, &opts).unwrap();
                assert_eq!(
                    fingerprint(&table, &pool),
                    want,
                    "threads={threads} chunk_rows={chunk_rows} diverged"
                );
            }
        }
    }

    #[test]
    fn arity_error_carries_whole_stream_row() {
        let mut text = String::from("a,b\n");
        for i in 0..10 {
            text.push_str(&format!("x{i},y{i}\n"));
        }
        text.push_str("only-one-field\n");
        let opts = IngestOptions {
            chunk_rows: 3,
            threads: 2,
            ..IngestOptions::default()
        };
        let mut pool = ValuePool::new();
        let err = read_stream(text.as_bytes(), &mut pool, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    line: 12,
                    row: 11,
                    expected: 2,
                    found: 1,
                }
            ),
            "{err:?}"
        );
        // Identical to the serial reader's report.
        let mut serial_pool = ValuePool::new();
        let serial_err = csv::read_str(&text, &mut serial_pool, CsvOptions::default()).unwrap_err();
        assert_eq!(format!("{err}"), format!("{serial_err}"));
    }

    #[test]
    fn error_order_is_stream_order_at_every_chunk_size() {
        // A short record on line 2 precedes an unterminated quote opening
        // on line 3. The record comes first in the stream, so every path
        // reports the arity error — identically, at any chunk size.
        let text = "a,b\nonly-one\nx,\"unterminated";
        let mut p = ValuePool::new();
        let serial = csv::read_str(text, &mut p, CsvOptions::default()).unwrap_err();
        assert!(
            matches!(
                serial,
                TableError::ArityMismatch {
                    row: 1,
                    line: 2,
                    ..
                }
            ),
            "{serial:?}"
        );
        // With clean records ahead of it, the quote error surfaces with
        // its own position.
        let text2 = "a,b\nx,y\nq,\"open";
        let mut p2 = ValuePool::new();
        let serial2 = csv::read_str(text2, &mut p2, CsvOptions::default()).unwrap_err();
        assert!(
            matches!(
                serial2,
                TableError::UnterminatedQuote { line: 3, column: 3 }
            ),
            "{serial2:?}"
        );
        for (input, want) in [(text, &serial), (text2, &serial2)] {
            for chunk_rows in [1usize, 2, 4096] {
                for threads in [1usize, 2] {
                    let opts = IngestOptions {
                        chunk_rows,
                        threads,
                        ..IngestOptions::default()
                    };
                    let mut pool = ValuePool::new();
                    let err = read_stream(input.as_bytes(), &mut pool, &opts).unwrap_err();
                    assert_eq!(
                        format!("{err}"),
                        format!("{want}"),
                        "chunk_rows={chunk_rows} threads={threads} must match serial"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_count_above_the_ceiling_is_a_typed_error() {
        let opts = IngestOptions {
            threads: usize::MAX,
            ..IngestOptions::default()
        };
        let mut pool = ValuePool::new();
        let err = read_stream("a\n1\n".as_bytes(), &mut pool, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::TooManyThreads {
                    requested: usize::MAX
                }
            ),
            "{err:?}"
        );
        assert_eq!(pool.len(), 0, "nothing is read before the check");
    }

    #[test]
    fn empty_input_is_an_error() {
        let mut pool = ValuePool::new();
        let err = read_stream("".as_bytes(), &mut pool, &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::EmptyInput));
    }
}
