//! Dependency-free RFC-4180 CSV reader/writer.
//!
//! Supports quoted fields (with escaped quotes `""`), embedded separators
//! and newlines inside quotes, `\r\n` and `\n` line endings, a UTF-8 BOM,
//! and a configurable separator. The first row is the header (schema).
//!
//! One grammar, [`RowScanner`], scans text record by record and yields
//! each field as a `&str` borrowed from the text; its chunk kernel,
//! [`RowScanner::intern_records`], interns the fields straight into
//! per-column symbol buffers. Two reading disciplines run it:
//!
//! * [`read_str`] scans an in-memory string in one pass.
//! * [`read`] / [`read_path`] stream from any reader through a
//!   [`RowChunker`], which splits the byte stream into chunks of *complete
//!   records* (quote- and CRLF-aware, so a chunk boundary can never fall
//!   inside a quoted field) and scans chunk by chunk in bounded memory.
//!   The `affidavit-store` crate fans the same chunks out over worker
//!   threads for parallel interning.
//!
//! Both paths produce byte-identical `(Table, ValuePool)` results.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Interner, Sym, ValuePool};

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

/// Where one field of the current record lives: a byte range of the text
/// being scanned, or of the scanner's owned buffer once a piece arrives
/// that does not continue the field in the text (a `""` escape, a
/// dropped `\r`, text after a closing quote).
#[derive(Debug, Clone, Copy)]
struct Span {
    owned: bool,
    start: usize,
    end: usize,
}

impl Span {
    const EMPTY: Span = Span {
        owned: false,
        start: 0,
        end: 0,
    };

    /// An owned span is never empty.
    #[inline]
    fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Append `text[a..b]` to the field.
    #[inline]
    fn append(&mut self, text: &str, owned: &mut String, a: usize, b: usize) {
        if a == b {
            return;
        }
        if self.owned {
            owned.push_str(&text[a..b]);
            self.end = owned.len();
        } else if self.is_empty() {
            (self.start, self.end) = (a, b);
        } else if self.end == a {
            self.end = b;
        } else {
            let start = owned.len();
            owned.push_str(&text[self.start..self.end]);
            owned.push_str(&text[a..b]);
            *self = Span {
                owned: true,
                start,
                end: owned.len(),
            };
        }
    }
}

/// The one CSV grammar: a record-at-a-time scanner over a chunk of text
/// that yields each field as a `&str` borrowed from the text.
///
/// Only a field whose bytes are not contiguous in the text — one with a
/// `""` escape, a dropped `\r`, or text after its closing quote — is
/// copied, into one owned buffer reused from record to record. The
/// grammar: a `"` opens a quoted field only at a field's start (elsewhere
/// it is literal); inside quotes `""` is one quote and separators,
/// newlines and `\r` are content; outside quotes every `\r` is dropped; a
/// line that holds nothing but `\r`s is blank and skipped.
///
/// [`RowScanner::intern_records`] is the chunk kernel every reader runs:
/// [`read_str`] over its whole input, [`read_buffered_with`] and
/// `affidavit-store`'s parallel ingestion over each [`CsvChunk`].
#[derive(Debug)]
pub struct RowScanner<'t> {
    text: &'t str,
    separator: u8,
    /// The bytes that end a run of plain field text outside quotes: `"`,
    /// `\r`, `\n` and the separator.
    special: [bool; 256],
    pos: usize,
    /// Physical line of `pos`, and the offset that line starts at.
    line: usize,
    line_start: usize,
    spans: Vec<Span>,
    owned: String,
}

impl<'t> RowScanner<'t> {
    /// A scanner over `text`, whose first byte sits on (1-based) line
    /// `first_line` — chunked readers pass the chunk's absolute starting
    /// line so errors carry whole-stream positions.
    pub fn new(text: &'t str, opts: CsvOptions, first_line: usize) -> RowScanner<'t> {
        let mut special = [false; 256];
        for b in [b'"', b'\r', b'\n', opts.separator] {
            special[b as usize] = true;
        }
        RowScanner {
            text,
            separator: opts.separator,
            special,
            pos: 0,
            line: first_line,
            line_start: 0,
            spans: Vec::new(),
            owned: String::new(),
        }
    }

    /// Scan the next record: `Ok(Some(line))` names the physical line it
    /// starts on (its fields are then [`field`](Self::field)`(0..arity)`),
    /// `Ok(None)` is the end of the text. An unterminated quote is an
    /// error that consumes the rest of the text, so every complete record
    /// precedes it.
    pub fn next_row(&mut self) -> Result<Option<usize>, TableError> {
        let text = self.text;
        let bytes = text.as_bytes();
        let n = bytes.len();
        let sep = self.separator;
        self.spans.clear();
        self.owned.clear();
        let mut i = self.pos;
        // Blank lines (nothing but `\r`s) start no record.
        loop {
            if i >= n {
                self.pos = n;
                return Ok(None);
            }
            match bytes[i] {
                b'\n' => {
                    i += 1;
                    self.line += 1;
                    self.line_start = i;
                }
                b'\r' => i += 1,
                _ => break,
            }
        }
        let row_line = self.line;
        let mut field = Span::EMPTY;
        let mut piece = i;
        loop {
            if i >= n {
                field.append(text, &mut self.owned, piece, i);
                self.spans.push(field);
                break;
            }
            let b = bytes[i];
            if b == b'"' && piece == i && field.is_empty() {
                let (quote_line, quote_col) = (self.line, i - self.line_start + 1);
                i += 1;
                piece = i;
                loop {
                    if i >= n {
                        self.pos = n;
                        return Err(TableError::UnterminatedQuote {
                            line: quote_line,
                            column: quote_col,
                        });
                    }
                    match bytes[i] {
                        b'"' if bytes.get(i + 1) == Some(&b'"') => {
                            // Keep the first quote of the pair.
                            field.append(text, &mut self.owned, piece, i + 1);
                            i += 2;
                            piece = i;
                        }
                        b'"' => {
                            field.append(text, &mut self.owned, piece, i);
                            i += 1;
                            piece = i;
                            break;
                        }
                        b'\n' => {
                            i += 1;
                            self.line += 1;
                            self.line_start = i;
                        }
                        _ => {
                            i += 1;
                            while i < n && bytes[i] != b'"' && bytes[i] != b'\n' {
                                i += 1;
                            }
                        }
                    }
                }
            } else if b == b'\r' {
                field.append(text, &mut self.owned, piece, i);
                i += 1;
                piece = i;
            } else if b == b'\n' {
                field.append(text, &mut self.owned, piece, i);
                self.spans.push(field);
                i += 1;
                self.line += 1;
                self.line_start = i;
                break;
            } else if b == sep {
                field.append(text, &mut self.owned, piece, i);
                self.spans.push(field);
                field = Span::EMPTY;
                i += 1;
                piece = i;
            } else {
                i += 1;
                while i < n && !self.special[bytes[i] as usize] {
                    i += 1;
                }
            }
        }
        self.pos = i;
        Ok(Some(row_line))
    }

    /// Number of fields in the current record.
    #[inline]
    pub fn arity(&self) -> usize {
        self.spans.len()
    }

    /// Field `k` of the current record.
    #[inline]
    pub fn field(&self, k: usize) -> &str {
        let span = self.spans[k];
        let from = if span.owned { &self.owned } else { self.text };
        &from[span.start..span.end]
    }

    /// The schema the first record names (see [`header_schema`]), or
    /// `None` when the text holds no record.
    pub fn header(&mut self) -> Result<Option<Schema>, TableError> {
        if self.next_row()?.is_none() {
            return Ok(None);
        }
        let names = (0..self.arity()).map(|k| self.field(k).to_owned());
        header_schema(names.collect()).map(Some)
    }

    /// The chunk kernel: scan the remaining records, check each one's
    /// arity against `columns.len()`, and intern its fields left to right
    /// (first-appearance order) into `columns`, one buffer per attribute.
    /// Returns the number of records interned and the first error: an
    /// [`TableError::ArityMismatch`] whose `row` counts from 1 at this
    /// call's first record (see [`TableError::after_rows`]), or an
    /// unterminated quote. Nothing past an arity error is scanned.
    pub fn intern_records<I: Interner>(
        &mut self,
        pool: &mut I,
        columns: &mut [Vec<Sym>],
    ) -> (usize, Option<TableError>) {
        let arity = columns.len();
        let mut rows = 0usize;
        loop {
            match self.next_row() {
                Ok(None) => return (rows, None),
                Err(err) => return (rows, Some(err)),
                Ok(Some(line)) => {
                    if self.arity() != arity {
                        let err = TableError::ArityMismatch {
                            line,
                            row: rows + 1,
                            expected: arity,
                            found: self.arity(),
                        };
                        return (rows, Some(err));
                    }
                    for (k, column) in columns.iter_mut().enumerate() {
                        column.push(pool.intern(self.field(k)));
                    }
                    rows += 1;
                }
            }
        }
    }
}

/// The end of the last complete (newline-terminated) record of `text`,
/// which starts on a record boundary; 0 if there is none.
fn complete_records_end(text: &str, opts: CsvOptions) -> usize {
    let mut scanner = RowScanner::new(text, opts, 1);
    let mut end = 0;
    while let Ok(Some(_)) = scanner.next_row() {
        if text.as_bytes()[scanner.pos - 1] == b'\n' {
            end = scanner.pos;
        }
    }
    end
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// A chunk of complete CSV records cut from a byte stream.
#[derive(Debug, Clone)]
pub struct CsvChunk {
    /// The chunk's raw text. Starts and ends on record boundaries, so it
    /// parses independently of its neighbours.
    pub text: String,
    /// 1-based physical line number of the chunk's first byte within the
    /// whole stream — pass it to [`RowScanner::new`].
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
    // Scanner state at `pos`, mirroring `RowScanner`.
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
                            let run = self.buf[self.pos..]
                                .iter()
                                .position(|&b| b == b'"' || b == b'\n')
                                .unwrap_or(self.buf.len() - self.pos);
                            self.field_empty = false;
                            self.pos += run;
                            self.col += run;
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
                        // A run of field text up to the next `"`, `\r` or
                        // `\n`; only its last byte decides whether a quote
                        // right after it opens a field.
                        let run = 1 + self.buf[self.pos + 1..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\r' || b == b'\n')
                            .unwrap_or(self.buf.len() - self.pos - 1);
                        self.pos += run;
                        self.col += run;
                        self.field_empty = self.buf[self.pos - 1] == self.opts.separator;
                        self.row_started = true;
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

    /// Cut `buf[..end]` off as the next chunk. A chunk that is not valid
    /// UTF-8 is cut short instead (see [`split_before_invalid`]).
    ///
    /// [`split_before_invalid`]: Self::split_before_invalid
    fn emit(&mut self, end: usize) -> Result<CsvChunk, TableError> {
        let rest = self.buf.split_off(end);
        let bytes = std::mem::replace(&mut self.buf, rest);
        let text = match String::from_utf8(bytes) {
            Ok(text) => text,
            Err(err) => {
                let valid = err.utf8_error().valid_up_to();
                let mut bytes = err.into_bytes();
                bytes.extend_from_slice(&self.buf);
                self.buf = bytes;
                return self.split_before_invalid(valid);
            }
        };
        self.pos -= end;
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

    /// The buffer is not valid UTF-8 from byte `valid` on. Emit the
    /// complete records ahead of the one holding that byte, and rescan
    /// from there; with none ahead, the record itself is
    /// [`TableError::InvalidUtf8`]. Readers so see every record before the
    /// bad one — in stream order, at any chunk size, as with an
    /// unterminated quote.
    fn split_before_invalid(&mut self, valid: usize) -> Result<CsvChunk, TableError> {
        let prefix = std::str::from_utf8(&self.buf[..valid]).unwrap_or_default();
        let end = complete_records_end(prefix, self.opts);
        if end == 0 {
            return Err(TableError::InvalidUtf8 {
                line: self.start_line + count_newlines(&self.buf[..valid]),
            });
        }
        let rest = self.buf.split_off(end);
        let text = String::from_utf8(std::mem::replace(&mut self.buf, rest))
            .expect("a prefix of the valid bytes");
        let first_line = self.start_line;
        self.start_line += count_newlines(text.as_bytes());
        // Rescan the rest from its first byte, a record boundary.
        self.pos = 0;
        self.line = self.start_line;
        self.col = 1;
        self.in_quotes = false;
        self.field_empty = true;
        self.row_started = false;
        self.boundary = 0;
        self.boundary_line = self.start_line;
        self.records = 0;
        Ok(CsvChunk { text, first_line })
    }

    /// Read the header: the schema the stream's first record names.
    pub fn header(&mut self) -> Result<Schema, TableError> {
        loop {
            let Some(chunk) = self.next_chunk(1)? else {
                return Err(TableError::EmptyInput);
            };
            // A 1-record chunk holds at most the header; a blank-only one
            // holds nothing.
            if let Some(schema) =
                RowScanner::new(&chunk.text, self.opts, chunk.first_line).header()?
            {
                return Ok(schema);
            }
        }
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
    let mut scanner = RowScanner::new(input, opts, 1);
    let schema = scanner.header()?.ok_or(TableError::EmptyInput)?;
    let mut columns = vec![Vec::new(); schema.arity()];
    match scanner.intern_records(pool, &mut columns) {
        (_, Some(err)) => Err(err),
        (_, None) => Ok(Table::from_columns(schema, columns)),
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
    let schema = chunker.header()?;
    let mut columns = vec![Vec::new(); schema.arity()];
    let mut rows_done = 0usize;
    while let Some(chunk) = chunker.next_chunk(chunk_rows)? {
        let mut scanner = RowScanner::new(&chunk.text, opts, chunk.first_line);
        let (rows, err) = scanner.intern_records(pool, &mut columns);
        if let Some(err) = err {
            return Err(err.after_rows(rows_done));
        }
        rows_done += rows;
    }
    Ok(Table::from_columns(schema, columns))
}

/// Open a snapshot file for reading. Anything but a regular file — a
/// directory, a FIFO, a device such as `/dev/zero` — is rejected before
/// it is opened, so a mistyped path is an error instead of a hang or an
/// unbounded read.
pub fn open_snapshot(path: impl AsRef<Path>) -> std::io::Result<std::fs::File> {
    let path = path.as_ref();
    if !std::fs::metadata(path)?.is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "not a regular file",
        ));
    }
    std::fs::File::open(path)
}

/// Read a table from a file path, streaming in bounded memory.
pub fn read_path(
    path: impl AsRef<Path>,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read(open_snapshot(path)?, pool, opts)
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

    /// Every record of `input` as owned fields.
    fn parse_rows(input: &str, opts: CsvOptions) -> Result<Vec<Vec<String>>, TableError> {
        let mut scanner = RowScanner::new(input, opts, 1);
        let mut rows = Vec::new();
        while scanner.next_row()?.is_some() {
            rows.push(
                (0..scanner.arity())
                    .map(|k| scanner.field(k).to_owned())
                    .collect(),
            );
        }
        Ok(rows)
    }

    #[test]
    fn grammar_quirks() {
        let rows = |t: &str| parse_rows(t, opts()).unwrap();
        // A quote opens a quoted field only at a field's start.
        assert_eq!(rows("a\"b,\"c\"d\n"), vec![vec!["a\"b", "cd"]]);
        // A bare `\r` outside quotes is dropped wherever it occurs; inside
        // quotes it is content.
        assert_eq!(rows("a\rb,\r\"q\r\"\r\n"), vec![vec!["ab", "q\r"]]);
        // A line holding only `\r` is blank; a line holding only `""` is a
        // one-field row.
        assert_eq!(rows("x\n\r\n\"\"\n"), vec![vec!["x"], vec![""]]);
        // Escapes and text after a closing quote take the owned path.
        assert_eq!(rows("\"a\"\"b\"c,d\n"), vec![vec!["a\"bc", "d"]]);
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
    fn invalid_utf8_surfaces_after_the_records_ahead_of_it() {
        let bytes: &[u8] = b"a\n1\n\n2\n3\xff\n4\n";
        for chunk_rows in [1, 2, 4096] {
            let mut chunker = RowChunker::new(bytes, opts());
            assert_eq!(chunker.header().unwrap().arity(), 1);
            let mut text = String::new();
            let err = loop {
                match chunker.next_chunk(chunk_rows) {
                    Ok(Some(chunk)) => text.push_str(&chunk.text),
                    Ok(None) => panic!("chunk_rows={chunk_rows}: no error"),
                    Err(err) => break err,
                }
            };
            assert_eq!(text, "1\n\n2\n", "chunk_rows={chunk_rows}");
            assert!(
                matches!(err, TableError::InvalidUtf8 { line: 5 }),
                "chunk_rows={chunk_rows}: {err:?}"
            );
        }
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
