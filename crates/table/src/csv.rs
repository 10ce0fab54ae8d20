//! Dependency-free RFC-4180 CSV reader/writer.
//!
//! Supports quoted fields (with escaped quotes `""`), embedded separators
//! and newlines inside quotes, `\r\n` and `\n` line endings, a UTF-8 BOM,
//! and a configurable separator. The first row is the header (schema).
//!
//! Two reading disciplines share one grammar:
//!
//! * [`read_str`] parses an in-memory string in one pass.
//! * [`read`] / [`read_path`] stream from any reader through a
//!   [`RowChunker`], which splits the byte stream into chunks of *complete
//!   records* (quote- and CRLF-aware, so a chunk boundary can never fall
//!   inside a quoted field) and parses chunk by chunk in bounded memory.
//!   The `affidavit-store` crate fans the same chunks out over worker
//!   threads for parallel interning.
//!
//! Both paths produce byte-identical `(Table, ValuePool)` results.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Sym, ValuePool};

/// CSV parsing options.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: u8,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { separator: b',' }
    }
}

/// Records per chunk used by the serial streaming reader ([`read`]).
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// A parsed CSV record together with the physical line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRow {
    /// 1-based physical line of the record's first byte (embedded newlines
    /// in earlier quoted fields are counted).
    pub line: usize,
    /// The record's fields.
    pub fields: Vec<String>,
}

/// Parse raw CSV text into rows of fields.
pub fn parse_rows(input: &str, opts: CsvOptions) -> Result<Vec<Vec<String>>, TableError> {
    Ok(parse_rows_at(input, opts, 1)?
        .into_iter()
        .map(|r| r.fields)
        .collect())
}

/// Parse raw CSV text into rows with line positions, treating the input's
/// first byte as sitting on (1-based) `first_line`. Chunked readers pass
/// the chunk's absolute starting line so errors and [`CsvRow::line`] carry
/// whole-stream positions.
pub fn parse_rows_at(
    input: &str,
    opts: CsvOptions,
    first_line: usize,
) -> Result<Vec<CsvRow>, TableError> {
    let (rows, trailing) = parse_rows_trailing(input, opts, first_line);
    match trailing {
        Some(err) => Err(err),
        None => Ok(rows),
    }
}

/// Core parser: complete rows plus an optional *trailing* error. An
/// unterminated quote consumes the rest of the input, so every complete
/// row precedes it in stream order; returning the rows alongside the
/// error lets readers validate them first and report whichever error
/// comes first in the stream — the discipline all reading paths share,
/// so serial and chunked reads fail identically at any chunk size.
fn parse_rows_trailing(
    input: &str,
    opts: CsvOptions,
    first_line: usize,
) -> (Vec<CsvRow>, Option<TableError>) {
    let bytes = input.as_bytes();
    let mut rows: Vec<CsvRow> = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    let mut line = first_line;
    let mut col = 1usize;
    let mut in_quotes = false;
    let mut quote_line = first_line;
    let mut quote_col = 1usize;
    let mut row_started = false;
    let mut row_line = first_line;

    while i < bytes.len() {
        let b = bytes[i];
        if in_quotes {
            match b {
                b'"' => {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                        field.push('"');
                        i += 2;
                        col += 2;
                    } else {
                        in_quotes = false;
                        i += 1;
                        col += 1;
                    }
                }
                b'\n' => {
                    field.push('\n');
                    line += 1;
                    col = 1;
                    i += 1;
                }
                _ => {
                    // Copy a full UTF-8 code point.
                    let ch_len = utf8_len(b);
                    field.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                    col += ch_len;
                }
            }
            continue;
        }
        match b {
            b'"' if field.is_empty() => {
                in_quotes = true;
                quote_line = line;
                quote_col = col;
                if !row_started {
                    row_started = true;
                    row_line = line;
                }
                i += 1;
                col += 1;
            }
            b'\r' => {
                i += 1; // handled by the following \n (or stripped bare)
                col += 1;
            }
            b'\n' => {
                line += 1;
                col = 1;
                i += 1;
                if row_started || !field.is_empty() || !fields.is_empty() {
                    fields.push(std::mem::take(&mut field));
                    rows.push(CsvRow {
                        line: row_line,
                        fields: std::mem::take(&mut fields),
                    });
                    row_started = false;
                }
            }
            _ if b == opts.separator => {
                fields.push(std::mem::take(&mut field));
                if !row_started {
                    row_started = true;
                    row_line = line;
                }
                i += 1;
                col += 1;
            }
            _ => {
                let ch_len = utf8_len(b);
                field.push_str(&input[i..i + ch_len]);
                if !row_started {
                    row_started = true;
                    row_line = line;
                }
                i += ch_len;
                col += ch_len;
            }
        }
    }
    if in_quotes {
        // The unterminated tail is not a row; report it after the
        // complete rows that precede it.
        return (
            rows,
            Some(TableError::UnterminatedQuote {
                line: quote_line,
                column: quote_col,
            }),
        );
    }
    if row_started || !field.is_empty() || !fields.is_empty() {
        fields.push(field);
        rows.push(CsvRow {
            line: row_line,
            fields,
        });
    }
    (rows, None)
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// A chunk of complete CSV records cut from a byte stream.
#[derive(Debug, Clone)]
pub struct CsvChunk {
    /// The chunk's raw text. Starts and ends on record boundaries, so it
    /// parses independently of its neighbours.
    pub text: String,
    /// 1-based physical line number of the chunk's first byte within the
    /// whole stream — pass it to [`parse_rows_at`].
    pub first_line: usize,
}

/// Incremental, bounded-memory splitter of a CSV byte stream into chunks
/// of complete records.
///
/// The chunker replicates the parser's quote state machine (quotes open
/// only at field starts, `""` escapes, literal quotes mid-field, `\r`
/// stripping, newlines inside quotes) byte for byte, so a chunk boundary
/// is only ever placed on a *record* boundary — a quoted field containing
/// newlines or separators can never be split, no matter how it straddles
/// the internal read buffer. A UTF-8 BOM at stream start is stripped.
///
/// Memory use is bounded by the longest single record plus the underlying
/// `BufRead` buffer, not by the stream length.
pub struct RowChunker<R> {
    reader: R,
    opts: CsvOptions,
    /// Bytes read but not yet emitted; `pos` is the scan frontier.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    bom_checked: bool,
    /// Line number of `buf[0]` (1-based, whole-stream).
    start_line: usize,
    /// Byte offset just past the last newline outside quotes (a safe
    /// split point), and the line number there.
    boundary: usize,
    boundary_line: usize,
    // Scanner state at `pos`, mirroring `parse_rows_at`.
    line: usize,
    col: usize,
    in_quotes: bool,
    field_empty: bool,
    row_started: bool,
    quote_line: usize,
    quote_col: usize,
    /// Complete records seen since the last emitted chunk.
    records: usize,
}

impl<R: BufRead> RowChunker<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R, opts: CsvOptions) -> RowChunker<R> {
        RowChunker {
            reader,
            opts,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            bom_checked: false,
            start_line: 1,
            boundary: 0,
            boundary_line: 1,
            line: 1,
            col: 1,
            in_quotes: false,
            field_empty: true,
            row_started: false,
            quote_line: 1,
            quote_col: 1,
            records: 0,
        }
    }

    /// The next chunk of up to `max_rows` complete records, or `None` once
    /// the stream is exhausted. The final chunk may end in a record with no
    /// trailing newline. Blank lines are carried along (the parser skips
    /// them) but never counted as records.
    pub fn next_chunk(&mut self, max_rows: usize) -> Result<Option<CsvChunk>, TableError> {
        let max_rows = max_rows.max(1);
        loop {
            if !self.bom_checked {
                if self.buf.len() < 3 && !self.eof {
                    self.fill()?;
                    continue;
                }
                if self.buf.starts_with(&[0xEF, 0xBB, 0xBF]) {
                    self.buf.drain(..3);
                }
                self.bom_checked = true;
            }
            while self.pos < self.buf.len() {
                let b = self.buf[self.pos];
                if self.in_quotes {
                    match b {
                        b'"' => {
                            if self.pos + 1 >= self.buf.len() && !self.eof {
                                // Can't yet tell an escaped `""` from a
                                // closing quote: wait for the next byte.
                                break;
                            }
                            if self.buf.get(self.pos + 1) == Some(&b'"') {
                                self.field_empty = false;
                                self.pos += 2;
                                self.col += 2;
                            } else {
                                self.in_quotes = false;
                                self.pos += 1;
                                self.col += 1;
                            }
                        }
                        b'\n' => {
                            self.field_empty = false;
                            self.line += 1;
                            self.col = 1;
                            self.pos += 1;
                        }
                        _ => {
                            self.field_empty = false;
                            self.pos += 1;
                            self.col += 1;
                        }
                    }
                    continue;
                }
                match b {
                    b'"' if self.field_empty => {
                        self.in_quotes = true;
                        self.quote_line = self.line;
                        self.quote_col = self.col;
                        self.row_started = true;
                        self.pos += 1;
                        self.col += 1;
                    }
                    b'\r' => {
                        self.pos += 1;
                        self.col += 1;
                    }
                    b'\n' => {
                        self.line += 1;
                        self.col = 1;
                        self.pos += 1;
                        self.field_empty = true;
                        self.boundary = self.pos;
                        self.boundary_line = self.line;
                        if self.row_started {
                            self.records += 1;
                            self.row_started = false;
                            if self.records == max_rows {
                                return Ok(Some(self.emit(self.pos)?));
                            }
                        }
                    }
                    _ => {
                        self.field_empty = b == self.opts.separator;
                        self.row_started = true;
                        self.pos += 1;
                        self.col += 1;
                    }
                }
            }
            if self.eof {
                break;
            }
            self.fill()?;
        }
        if self.in_quotes {
            // Emit the complete records buffered ahead of the unterminated
            // tail first — readers must see (and validate) every record
            // that precedes the error in the stream, at any chunk size.
            // The error itself surfaces on the next call.
            if self.boundary > 0 {
                let end = self.boundary;
                return Ok(Some(self.emit(end)?));
            }
            return Err(TableError::UnterminatedQuote {
                line: self.quote_line,
                column: self.quote_col,
            });
        }
        if self.buf.is_empty() {
            return Ok(None);
        }
        let end = self.buf.len();
        Ok(Some(self.emit(end)?))
    }

    fn fill(&mut self) -> Result<(), TableError> {
        let data = self.reader.fill_buf()?;
        if data.is_empty() {
            self.eof = true;
            return Ok(());
        }
        self.buf.extend_from_slice(data);
        let n = data.len();
        self.reader.consume(n);
        Ok(())
    }

    fn emit(&mut self, end: usize) -> Result<CsvChunk, TableError> {
        let bytes: Vec<u8> = self.buf.drain(..end).collect();
        self.pos -= end;
        let text = String::from_utf8(bytes).map_err(|e| {
            TableError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("CSV stream is not valid UTF-8: {e}"),
            ))
        })?;
        let first_line = self.start_line;
        // A split exactly at the last record boundary (the deferred-error
        // path) leaves the scan frontier beyond the emitted region, so the
        // next chunk starts at the boundary's line, not the scanner's.
        self.start_line = if end == self.boundary {
            self.boundary_line
        } else {
            self.line
        };
        self.boundary = self.boundary.saturating_sub(end);
        self.records = 0;
        Ok(CsvChunk { text, first_line })
    }
}

/// The schema a CSV header row names — the one header check every reader
/// shares, so the in-memory and streaming paths fail alike. A repeated
/// column name is a [`TableError::DuplicateColumn`]: two columns under
/// one name would make every by-name output (function lines, SQL)
/// ambiguous.
pub fn header_schema(fields: Vec<String>) -> Result<Schema, TableError> {
    // The std hasher: header names come from outside the program.
    let mut seen: std::collections::HashMap<&str, usize> = Default::default();
    for (idx, name) in fields.iter().enumerate() {
        if let Some(&first) = seen.get(name.as_str()) {
            return Err(TableError::DuplicateColumn {
                name: name.clone(),
                first: first + 1,
                second: idx + 1,
            });
        }
        seen.insert(name.as_str(), idx);
    }
    Ok(Schema::new(fields))
}

/// Read a table from CSV text. The first row is the header. A leading
/// UTF-8 BOM is stripped.
pub fn read_str(input: &str, pool: &mut ValuePool, opts: CsvOptions) -> Result<Table, TableError> {
    let input = input.strip_prefix('\u{feff}').unwrap_or(input);
    let (rows, trailing) = parse_rows_trailing(input, opts, 1);
    let mut rows = rows.into_iter();
    let Some(header) = rows.next() else {
        return Err(trailing.unwrap_or(TableError::EmptyInput));
    };
    let arity = header.fields.len();
    let schema = header_schema(header.fields)?;
    let mut table = Table::with_capacity(schema, rows.len());
    let mut syms: Vec<Sym> = Vec::new();
    for (idx, row) in rows.enumerate() {
        if row.fields.len() != arity {
            return Err(TableError::ArityMismatch {
                line: row.line,
                row: idx + 1,
                expected: arity,
                found: row.fields.len(),
            });
        }
        // Interning stays row-major (first-appearance order); the table
        // transposes the row into its columns at this edge.
        syms.clear();
        syms.extend(row.fields.iter().map(|v| pool.intern(v)));
        table.push_row(&syms);
    }
    match trailing {
        Some(err) => Err(err),
        None => Ok(table),
    }
}

/// Read a table from any reader, streaming in bounded memory.
pub fn read<R: Read>(
    reader: R,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read_buffered(BufReader::new(reader), pool, opts)
}

/// Read a table from a buffered reader, streaming chunk by chunk through a
/// [`RowChunker`] ([`DEFAULT_CHUNK_ROWS`] records at a time) instead of
/// materializing the whole input. Interning order — and therefore the
/// resulting `(Table, ValuePool)` — is byte-identical to [`read_str`] on
/// the same bytes.
pub fn read_buffered<R: BufRead>(
    reader: R,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read_buffered_with(reader, pool, opts, DEFAULT_CHUNK_ROWS)
}

/// [`read_buffered`] with an explicit chunk size (records per streamed
/// chunk) — the serial path of `affidavit-store`'s ingestion pipeline.
pub fn read_buffered_with<R: BufRead>(
    reader: R,
    pool: &mut ValuePool,
    opts: CsvOptions,
    chunk_rows: usize,
) -> Result<Table, TableError> {
    let mut chunker = RowChunker::new(reader, opts);
    let (schema, arity) = loop {
        let Some(chunk) = chunker.next_chunk(1)? else {
            return Err(TableError::EmptyInput);
        };
        let mut rows = parse_rows_at(&chunk.text, opts, chunk.first_line)?;
        if rows.is_empty() {
            continue; // blank-line-only chunk before the header
        }
        let header = rows.remove(0);
        debug_assert!(
            rows.is_empty(),
            "a 1-record chunk parses to at most one row"
        );
        let arity = header.fields.len();
        break (header_schema(header.fields)?, arity);
    };
    let mut table = Table::new(schema);
    let mut syms: Vec<Sym> = Vec::new();
    let mut row_idx = 0usize;
    while let Some(chunk) = chunker.next_chunk(chunk_rows)? {
        for row in parse_rows_at(&chunk.text, opts, chunk.first_line)? {
            row_idx += 1;
            if row.fields.len() != arity {
                return Err(TableError::ArityMismatch {
                    line: row.line,
                    row: row_idx,
                    expected: arity,
                    found: row.fields.len(),
                });
            }
            syms.clear();
            syms.extend(row.fields.iter().map(|v| pool.intern(v)));
            table.push_row(&syms);
        }
    }
    Ok(table)
}

/// Read a table from a file path, streaming in bounded memory.
pub fn read_path(
    path: impl AsRef<Path>,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read(std::fs::File::open(path)?, pool, opts)
}

/// Write a table as CSV.
pub fn write<W: Write>(
    w: W,
    table: &Table,
    pool: &ValuePool,
    opts: CsvOptions,
) -> Result<(), TableError> {
    let mut w = std::io::BufWriter::new(w);
    let sep = [opts.separator];
    let names: Vec<&str> = table.schema().names().collect();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            w.write_all(&sep)?;
        }
        write_escaped(&mut w, name, opts.separator)?;
    }
    w.write_all(b"\n")?;
    for record in table.rows() {
        for (i, sym) in record.iter().enumerate() {
            if i > 0 {
                w.write_all(&sep)?;
            }
            write_escaped(&mut w, pool.get(sym), opts.separator)?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

fn write_escaped<W: Write>(w: &mut W, field: &str, sep: u8) -> std::io::Result<()> {
    let needs_quoting = field
        .bytes()
        .any(|b| b == sep || b == b'"' || b == b'\n' || b == b'\r');
    if !needs_quoting {
        return w.write_all(field.as_bytes());
    }
    w.write_all(b"\"")?;
    let mut rest = field;
    while let Some(pos) = rest.find('"') {
        w.write_all(&rest.as_bytes()[..pos])?;
        w.write_all(b"\"\"")?;
        rest = &rest[pos + 1..];
    }
    w.write_all(rest.as_bytes())?;
    w.write_all(b"\"")
}

/// Write a table to a file path.
pub fn write_path(
    path: impl AsRef<Path>,
    table: &Table,
    pool: &ValuePool,
    opts: CsvOptions,
) -> Result<(), TableError> {
    write(std::fs::File::create(path)?, table, pool, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordId;
    use crate::schema::AttrId;

    fn opts() -> CsvOptions {
        CsvOptions::default()
    }

    #[test]
    fn simple_parse() {
        let t = "a,b\n1,2\n3,4\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn quoted_fields() {
        let t = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows[1], vec!["x,y", "he said \"hi\""]);
    }

    #[test]
    fn embedded_newline() {
        let t = "a\n\"line1\nline2\"\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows[1], vec!["line1\nline2"]);
    }

    #[test]
    fn crlf_endings() {
        let t = "a,b\r\n1,2\r\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn missing_trailing_newline() {
        let rows = parse_rows("a\n1", opts()).unwrap();
        assert_eq!(rows, vec![vec!["a"], vec!["1"]]);
    }

    #[test]
    fn empty_fields() {
        let rows = parse_rows("a,b,c\n,,\n", opts()).unwrap();
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(
            parse_rows("a\n\"oops\n", opts()),
            Err(TableError::UnterminatedQuote { line: 2, column: 1 })
        ));
    }

    #[test]
    fn arity_mismatch_carries_row_and_line() {
        let mut pool = ValuePool::new();
        let err = read_str("a,b\n1,2\n1\n", &mut pool, opts()).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                line: 3,
                row: 2,
                expected: 2,
                found: 1,
            }
        ));
    }

    #[test]
    fn arity_mismatch_line_counts_embedded_newlines() {
        // The first data record spans three physical lines; the bad record
        // therefore starts on line 5, not line 3.
        let mut pool = ValuePool::new();
        let err = read_str("a,b\n\"x\ny\nz\",2\n1\n", &mut pool, opts()).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    line: 5,
                    row: 2,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bom_is_stripped() {
        let mut pool = ValuePool::new();
        let t = read_str("\u{feff}a,b\n1,2\n", &mut pool, opts()).unwrap();
        assert_eq!(t.schema().name(AttrId(0)), "a");
        let mut pool2 = ValuePool::new();
        let t2 = read("\u{feff}a,b\n1,2\n".as_bytes(), &mut pool2, opts()).unwrap();
        assert_eq!(t2.schema().name(AttrId(0)), "a");
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn read_into_table() {
        let mut pool = ValuePool::new();
        let t = read_str("Type,Org\nA,IBM\nC,SAP\n", &mut pool, opts()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().name(AttrId(1)), "Org");
        assert_eq!(pool.get(t.value(RecordId(1), AttrId(0))), "C");
    }

    #[test]
    fn streaming_read_matches_read_str() {
        let text =
            "a,b\nplain,\"quoted,comma\"\n\"multi\r\nline\",\"q\"\"uote\"\n\n東京,x\nlast,row";
        let mut pool_mem = ValuePool::new();
        let t_mem = read_str(text, &mut pool_mem, opts()).unwrap();
        let mut pool_stream = ValuePool::new();
        let t_stream = read(text.as_bytes(), &mut pool_stream, opts()).unwrap();
        assert_eq!(t_mem.len(), t_stream.len());
        let mem: Vec<&str> = pool_mem.iter().map(|(_, s)| s).collect();
        let stream: Vec<&str> = pool_stream.iter().map(|(_, s)| s).collect();
        assert_eq!(mem, stream, "interning order must match");
        for (id, r) in t_mem.iter() {
            assert_eq!(r.to_vec().as_slice(), t_stream.record(id).values());
        }
    }

    #[test]
    fn chunker_splits_on_record_boundaries_only() {
        let text = "h\n\"a\nb\",x\n".replace(",x", ""); // header + one 2-line record
        let mut chunker = RowChunker::new(text.as_bytes(), opts());
        let c1 = chunker.next_chunk(1).unwrap().unwrap();
        assert_eq!(c1.text, "h\n");
        assert_eq!(c1.first_line, 1);
        let c2 = chunker.next_chunk(1).unwrap().unwrap();
        assert_eq!(c2.text, "\"a\nb\"\n");
        assert_eq!(c2.first_line, 2);
        assert!(chunker.next_chunk(1).unwrap().is_none());
    }

    #[test]
    fn chunker_reports_unterminated_quote_position() {
        let mut chunker = RowChunker::new("ok\nx,\"bad\n".as_bytes(), opts());
        let _ = chunker.next_chunk(1).unwrap().unwrap();
        let err = chunker.next_chunk(1).unwrap_err();
        assert!(
            matches!(err, TableError::UnterminatedQuote { line: 2, column: 3 }),
            "{err:?}"
        );
    }

    #[test]
    fn write_read_roundtrip() {
        let mut pool = ValuePool::new();
        let t = read_str(
            "a,b\nplain,\"quoted,comma\"\n\"multi\nline\",\"q\"\"uote\"\n",
            &mut pool,
            opts(),
        )
        .unwrap();
        let mut out = Vec::new();
        write(&mut out, &t, &pool, opts()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut pool2 = ValuePool::new();
        let t2 = read_str(&text, &mut pool2, opts()).unwrap();
        assert_eq!(t2.len(), t.len());
        for (id, r) in t.iter() {
            let r2 = t2.record(id);
            for (i, sym) in r.iter().enumerate() {
                assert_eq!(pool.get(sym), pool2.get(r2.get(i)));
            }
        }
    }

    #[test]
    fn custom_separator() {
        let mut pool = ValuePool::new();
        let t = read_str("a;b\n1;2\n", &mut pool, CsvOptions { separator: b';' }).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.schema().arity(), 2);
    }

    #[test]
    fn utf8_content() {
        let mut pool = ValuePool::new();
        let t = read_str("städte\nmünchen\n東京\n", &mut pool, opts()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(pool.get(t.value(RecordId(1), AttrId(0))), "東京");
    }
}
