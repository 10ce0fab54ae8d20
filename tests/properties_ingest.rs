//! Ingestion determinism battery.
//!
//! 1. Streaming parallel ingestion (`affidavit_store::ingest`) must
//!    produce a `(Table, ValuePool)` **byte-identical** to the serial
//!    in-memory parser (`csv::read_str`) for adversarial inputs across
//!    seeds × thread counts {1, 2, 4} × chunk sizes {1, 64, 4096} — and
//!    must reject a header that repeats a column name with the same
//!    typed error.
//! 2. A full `explain` over the Figure 1 instance and a Table 2 dataset
//!    spec, ingested in 4-row chunks, must render an **identical report**
//!    at ingestion threads 1, 2 and 4.
//! 3. A differential mutation fuzzer. Every reader runs one chunk kernel,
//!    so none of them can be the reference: the [`oracle`] module keeps a
//!    copy of the owned-`String` parser the kernel replaced. A seeded
//!    mutator inserts, deletes or flips `"`, `,`, `\r` and `\n`, adds a
//!    BOM or an invalid UTF-8 byte, and truncates, starting from the
//!    adversarial CSVs and from generated Table 2 pairs. Every reader —
//!    `read_str`, `read`, and `read_stream` across the matrix — must give
//!    the oracle's `Ok` pair or its error text, each case within
//!    [`CASE_BOUND`]. The inputs under `tests/corpus/csv/` (grammar
//!    quirks and inputs the fuzzer once failed on) replay first; a failing
//!    case is written out for the corpus. `PROPTEST_CASES` scales the
//!    case count.
//!
//! The CI matrix leg pins one (threads, chunk size) combination via
//! `AFFIDAVIT_INGEST_THREADS` / `AFFIDAVIT_INGEST_CHUNK_ROWS`; without
//! them the whole matrix runs.

use affidavit::core::config::AffidavitConfig;
use affidavit::core::instance::ProblemInstance;
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::datasets::running_example::{ATTRS, SOURCE_ROWS, TARGET_ROWS};
use std::time::{Duration, Instant};

use affidavit::store::{ingest, IngestOptions};
use affidavit::table::{csv, Table, TableError, ValuePool};

/// The `(threads, chunk_rows)` combinations under test: the env override
/// (CI matrix leg) wins, otherwise the full grid.
fn matrix() -> Vec<(usize, usize)> {
    let env_usize =
        |name: &str| -> Option<usize> { std::env::var(name).ok().and_then(|v| v.parse().ok()) };
    if let (Some(threads), Some(chunk_rows)) = (
        env_usize("AFFIDAVIT_INGEST_THREADS"),
        env_usize("AFFIDAVIT_INGEST_CHUNK_ROWS"),
    ) {
        return vec![(threads, chunk_rows)];
    }
    let mut combos = Vec::new();
    for threads in [1usize, 2, 4] {
        for chunk_rows in [1usize, 64, 4096] {
            combos.push((threads, chunk_rows));
        }
    }
    combos
}

/// Everything that makes the pair: schema, pool contents in interning
/// order, and every record's symbol tuple.
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

/// Adversarial CSV: quoted fields with embedded separators, quotes and
/// newlines, CRLF endings, empty fields, blank lines, unicode, values
/// recurring across distant chunks (so several workers "discover" the
/// same string), and a field far longer than the chunker's read buffer.
fn adversarial_csv(seed: u64) -> String {
    let mut text = String::from("id,amount,unit,\"no,te\"\n");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let units = ["USD", "k $", "h€", "", "東京"];
    for i in 0..(240 + (seed % 37)) {
        let r = next();
        let unit = units[(r % 5) as usize];
        match r % 7 {
            0 => text.push_str(&format!("k{i},{},{unit},plain\r\n", r % 100_000)),
            1 => text.push_str(&format!(
                "k{i},{},\"{unit}\",\"quo\"\"ted, with\nnewline\"\n",
                r % 1_000
            )),
            2 => text.push_str(&format!("k{i},,,\n")),
            3 => {
                // Blank line between records (skipped by the parser).
                text.push('\n');
                text.push_str(&format!("k{i},{},{unit},x\n", r % 10));
            }
            4 => text.push_str(&format!("\"k{i}\",\"{}\",{unit},\"\"\n", r % 500)),
            5 => {
                // A field much longer than one BufRead fill.
                let long = "L".repeat(9000 + (r % 100) as usize);
                text.push_str(&format!("k{i},{},{unit},\"{long}\"\n", r % 500));
            }
            _ => text.push_str(&format!("k{i},{},{unit},shared-value\n", r % 50)),
        }
    }
    text.push_str("last,0,USD,\"no trailing newline\"");
    text
}

/// What a reader made of an input: the pair's fingerprint, or the error
/// it failed with — a rejected input must fail alike on every path.
fn outcome(result: Result<Table, TableError>, pool: &ValuePool) -> String {
    match result {
        Ok(table) => fingerprint(&table, pool),
        Err(err) => format!("error: {err}"),
    }
}

/// The adversarial CSVs for `seeds`, plus one input every path must
/// reject: a header naming the same column twice (two `f_v` lines, and
/// SQL that updates the wrong column, if it were accepted).
fn inputs(seeds: &[u64]) -> Vec<String> {
    let mut texts: Vec<String> = seeds.iter().map(|&seed| adversarial_csv(seed)).collect();
    let mut duplicate = String::from(
        "id,v,w,v
",
    );
    for i in 0..200 {
        duplicate.push_str(&format!(
            "k{i},{},{},{}
",
            i % 7,
            i % 3,
            i % 5
        ));
    }
    texts.push(duplicate);
    texts
}

#[test]
fn streaming_parallel_ingestion_is_byte_identical_to_serial() {
    for (case, text) in inputs(&[1, 2, 3]).iter().enumerate() {
        let want = oracle::outcome_of(text.as_bytes());
        let mut serial_pool = ValuePool::new();
        let serial = csv::read_str(text, &mut serial_pool, csv::CsvOptions::default());
        assert_eq!(
            outcome(serial, &serial_pool),
            want,
            "input {case}: read_str"
        );
        for (threads, chunk_rows) in matrix() {
            let opts = IngestOptions {
                chunk_rows,
                threads,
                ..IngestOptions::default()
            };
            let mut pool = ValuePool::new();
            let table = ingest::read_stream(text.as_bytes(), &mut pool, &opts);
            assert_eq!(
                outcome(table, &pool),
                want,
                "input {case}: threads={threads} chunk_rows={chunk_rows} diverged from serial"
            );
        }
    }
}

#[test]
fn serial_streaming_reader_matches_in_memory_parser() {
    // The satellite fix: `csv::read` (used by `read_path`) streams through
    // the chunker instead of slurping, and must stay byte-identical.
    for text in inputs(&[4, 5]) {
        let mut mem_pool = ValuePool::new();
        let mem = csv::read_str(&text, &mut mem_pool, csv::CsvOptions::default());
        let mut stream_pool = ValuePool::new();
        let stream = csv::read(
            text.as_bytes(),
            &mut stream_pool,
            csv::CsvOptions::default(),
        );
        let mem = outcome(mem, &mem_pool);
        assert_eq!(mem, outcome(stream, &stream_pool));
        assert_eq!(mem, oracle::outcome_of(text.as_bytes()));
    }
}

#[test]
fn a_repeated_header_name_is_a_typed_error() {
    let text = inputs(&[]).pop().unwrap();
    let err = csv::read_str(&text, &mut ValuePool::new(), csv::CsvOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            TableError::DuplicateColumn { name, first: 2, second: 4 } if name == "v"
        ),
        "{err}"
    );
}

/// A test-local copy of the owned-`String` parser the chunk kernel
/// replaced — `parse_rows_trailing` plus `read_str`'s row-major intern
/// loop — kept as the reference every reader is checked against.
mod oracle {
    use affidavit::table::csv::{header_schema, CsvOptions};
    use affidavit::table::{Sym, Table, TableError, ValuePool};

    /// A parsed CSV record together with the physical line it starts on.
    pub struct CsvRow {
        pub line: usize,
        pub fields: Vec<String>,
    }

    pub fn parse_rows_trailing(
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

    /// `read_str`'s loop over parsed rows: the header, then each record's
    /// arity check and row-major interning, then the trailing error.
    fn read_rows(
        rows: Vec<CsvRow>,
        trailing: Option<TableError>,
        pool: &mut ValuePool,
    ) -> Result<Table, TableError> {
        let mut rows = rows.into_iter();
        let Some(header) = rows.next() else {
            return Err(trailing.unwrap_or(TableError::EmptyInput));
        };
        let arity = header.fields.len();
        let mut table = Table::new(header_schema(header.fields)?);
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
            syms.clear();
            syms.extend(row.fields.iter().map(|v| pool.intern(v)));
            table.push_row(&syms);
        }
        match trailing {
            Some(err) => Err(err),
            None => Ok(table),
        }
    }

    /// Stands in for each invalid UTF-8 byte, so positions stay put.
    const MASK: char = '\u{1}';

    fn mask_invalid(mut bytes: &[u8]) -> String {
        let mut out = String::new();
        loop {
            match std::str::from_utf8(bytes) {
                Ok(text) => {
                    out.push_str(text);
                    return out;
                }
                Err(err) => {
                    let (valid, rest) = bytes.split_at(err.valid_up_to());
                    out.push_str(std::str::from_utf8(valid).unwrap());
                    let bad = err.error_len().unwrap_or(rest.len());
                    out.extend(std::iter::repeat_n(MASK, bad));
                    bytes = &rest[bad..];
                }
            }
        }
    }

    /// What a reader must make of `bytes`. A leading BOM is stripped. A
    /// stream that is not valid UTF-8 meets the bad byte inside one
    /// record: every record before it is read, then that record fails at
    /// the byte's line — unless it is the unterminated quote at the end,
    /// which fails as that.
    pub fn read(bytes: &[u8], pool: &mut ValuePool) -> Result<Table, TableError> {
        let bytes = bytes.strip_prefix(b"\xEF\xBB\xBF").unwrap_or(bytes);
        let opts = CsvOptions::default();
        let Err(err) = std::str::from_utf8(bytes) else {
            let (rows, trailing) =
                parse_rows_trailing(std::str::from_utf8(bytes).unwrap(), opts, 1);
            return read_rows(rows, trailing, pool);
        };
        let line = 1 + bytes[..err.valid_up_to()]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        let (mut rows, trailing) = parse_rows_trailing(&mask_invalid(bytes), opts, 1);
        match rows
            .iter()
            .position(|row| row.fields.iter().any(|f| f.contains(MASK)))
        {
            Some(bad) => {
                rows.truncate(bad);
                read_rows(rows, Some(TableError::InvalidUtf8 { line }), pool)
            }
            None => read_rows(rows, trailing, pool),
        }
    }

    /// [`read`] into a fresh pool, as an [`outcome`](super::outcome).
    pub fn outcome_of(bytes: &[u8]) -> String {
        let mut pool = ValuePool::new();
        let result = read(bytes, &mut pool);
        super::outcome(result, &pool)
    }
}

/// The wall-time bound on one fuzz case: the oracle plus every reader
/// across the matrix, in a debug build.
const CASE_BOUND: Duration = Duration::from_secs(20);

/// Check every reader against the oracle on `bytes`. A divergence writes
/// the input out (to add under `tests/corpus/csv/`) and fails.
fn check_case(name: &str, bytes: &[u8]) {
    let started = Instant::now();
    let want = oracle::outcome_of(bytes);
    let mut got: Vec<(String, String)> = Vec::new();
    if let Ok(text) = std::str::from_utf8(bytes) {
        let mut pool = ValuePool::new();
        let table = csv::read_str(text, &mut pool, csv::CsvOptions::default());
        got.push(("read_str".to_owned(), outcome(table, &pool)));
    }
    let mut pool = ValuePool::new();
    let table = csv::read(bytes, &mut pool, csv::CsvOptions::default());
    got.push(("read".to_owned(), outcome(table, &pool)));
    for (threads, chunk_rows) in matrix() {
        let opts = IngestOptions {
            chunk_rows,
            threads,
            ..IngestOptions::default()
        };
        let mut pool = ValuePool::new();
        let table = ingest::read_stream(bytes, &mut pool, &opts);
        got.push((
            format!("read_stream threads={threads} chunk_rows={chunk_rows}"),
            outcome(table, &pool),
        ));
    }
    for (reader, outcome) in &got {
        if *outcome != want {
            let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("fuzz-{}.csv", name.replace(['/', ' '], "-")));
            std::fs::write(&path, bytes).unwrap();
            // Show both from a little before the first difference.
            let at = want
                .char_indices()
                .zip(outcome.chars())
                .find(|((_, w), g)| w != g)
                .map_or(want.len().min(outcome.len()), |((i, _), _)| i);
            let from = |s: &str| {
                let start = s.floor_char_boundary(at.saturating_sub(40).min(s.len()));
                s[start..].chars().take(120).collect::<String>()
            };
            panic!(
                "{name}: {reader} diverged from the oracle at byte {at} (input written to {})\n  want: {:?}\n   got: {:?}",
                path.display(),
                from(&want),
                from(outcome)
            );
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < CASE_BOUND,
        "{name}: took {elapsed:?}, over {CASE_BOUND:?}"
    );
}

/// A seeded byte-level CSV mutator.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One to four edits: insert, delete or flip a `"`, `,`, `\r` or `\n`;
    /// add a BOM (at the start or anywhere); add an invalid UTF-8 byte;
    /// truncate.
    fn mutate(&mut self, bytes: &mut Vec<u8>) {
        const BOM: &[u8] = b"\xEF\xBB\xBF";
        for _ in 0..1 + self.below(4) {
            let at = self.below(bytes.len() + 1);
            let special = [b'"', b',', b'\r', b'\n'][self.below(4)];
            match self.below(8) {
                0 | 1 => bytes.insert(at, special),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 if at < bytes.len() => bytes[at] = special,
                4 => drop(bytes.splice(0..0, BOM.iter().copied())),
                5 => drop(bytes.splice(at..at, BOM.iter().copied())),
                6 => bytes.insert(at, [0xFF, 0x80][self.below(2)]),
                7 => bytes.truncate(at),
                _ => {}
            }
        }
    }
}

/// Generated Table 2 pairs (source and target files), as `csv::write`
/// writes them.
fn table2_csvs() -> Vec<Vec<u8>> {
    use affidavit::datagen::blueprint::{Blueprint, GenConfig};
    use affidavit::datasets::specs::by_name;
    use affidavit::datasets::synth::generate_rows;

    let mut out = Vec::new();
    for (name, seed) in [("balance", 5u64), ("iris", 6), ("abalone", 7)] {
        let spec = by_name(name).expect("table 2 spec exists");
        let (base, pool) = generate_rows(&spec, spec.rows.min(120), seed);
        let generated =
            Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed)).materialize_full();
        for table in [&generated.instance.source, &generated.instance.target] {
            let mut bytes = Vec::new();
            csv::write(
                &mut bytes,
                table,
                &generated.instance.pool,
                csv::CsvOptions::default(),
            )
            .unwrap();
            out.push(bytes);
        }
    }
    out
}

#[test]
fn grammar_quirks_hold_on_every_reader() {
    // Each quirk, with the rows it must parse to.
    type Rows = &'static [&'static [&'static str]];
    let cases: [(&str, &[u8], Rows); 5] = [
        (
            "quote-opens-only-at-field-start",
            b"a,b\nx\"y,\"z\"\n",
            &[&["x\"y", "z"]],
        ),
        (
            "bare-cr-dropped-anywhere",
            b"a,b\nx\ry\r,\rz\r\r\n\"q\r\"\r,w\n",
            &[&["xy", "z"], &["q\r", "w"]],
        ),
        ("cr-only-line-is-blank", b"a\n\r\nb\n\r\r\n", &[&["b"]]),
        (
            "empty-quotes-line-is-a-row",
            b"a\n\"\"\nb\n",
            &[&[""], &["b"]],
        ),
        (
            "escape-and-text-after-close",
            b"a,b\n\"x\"\"y\"z,\"\"\"\"\n",
            &[&["x\"yz", "\""]],
        ),
    ];
    for (name, bytes, rows) in cases {
        check_case(name, bytes);
        let mut pool = ValuePool::new();
        let table = ingest::read_stream(bytes, &mut pool, &IngestOptions::default()).unwrap();
        let got: Vec<Vec<&str>> = table
            .rows()
            .map(|r| r.iter().map(|sym| pool.get(sym)).collect())
            .collect();
        assert_eq!(got, rows, "{name}");
    }
}

#[test]
fn checked_in_corpus_matches_the_oracle() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/csv");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the corpus is checked in");
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        check_case(&name, &std::fs::read(&path).unwrap());
    }
}

#[test]
fn mutated_csvs_match_the_oracle_on_every_reader() {
    let table2 = table2_csvs();
    let cases = proptest::num_cases();
    for case in 0..cases as u64 {
        let mut mutator = Mutator(0x9E37_79B9_7F4A_7C15 ^ (case + 1).wrapping_mul(0x2545_F491));
        let mut bytes = if case % 2 == 0 {
            adversarial_csv(case / 2).into_bytes()
        } else {
            table2[mutator.below(table2.len())].clone()
        };
        mutator.mutate(&mut bytes);
        check_case(&format!("mutant-{case}"), &bytes);
    }
}

fn rows_to_csv(header: &[&str], rows: &[&[&str]]) -> String {
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text
}

/// Ingest the pair in 4-row chunks over `threads` workers, explain it,
/// and return the rendered report plus search counters.
fn explain_streamed(source_csv: &str, target_csv: &str, threads: usize) -> String {
    let mut pool = ValuePool::new();
    let opts = IngestOptions {
        chunk_rows: 4,
        threads,
        ..IngestOptions::default()
    };
    let source = ingest::read_stream(source_csv.as_bytes(), &mut pool, &opts).unwrap();
    let target = ingest::read_stream(target_csv.as_bytes(), &mut pool, &opts).unwrap();
    let mut instance = ProblemInstance::new(source, target, pool).unwrap();
    let out =
        Affidavit::new(AffidavitConfig::paper_id().with_seed(0xEDB7_2020)).explain(&mut instance);
    format!(
        "{}\npolled={} expansions={} cost={}",
        render_report(&out.explanation, &instance),
        out.stats.polled,
        out.stats.expansions,
        out.stats.end_state_cost.to_bits()
    )
}

/// Serial streamed ingestion and parallel streamed ingestion at 2 and 4
/// threads must lead to the same report.
fn assert_thread_invariant(source_csv: &str, target_csv: &str) {
    let serial = explain_streamed(source_csv, target_csv, 1);
    for threads in [2, 4] {
        assert_eq!(
            explain_streamed(source_csv, target_csv, threads),
            serial,
            "ingestion at {threads} threads changed the explanation"
        );
    }
}

#[test]
fn streamed_ingest_renders_identical_figure1_reports() {
    let source_rows: Vec<&[&str]> = SOURCE_ROWS.iter().map(|r| &r[..]).collect();
    let target_rows: Vec<&[&str]> = TARGET_ROWS.iter().map(|r| &r[..]).collect();
    let s = rows_to_csv(&ATTRS, &source_rows);
    let t = rows_to_csv(&ATTRS, &target_rows);
    assert_thread_invariant(&s, &t);
}

#[test]
fn streamed_ingest_renders_identical_table2_reports() {
    use affidavit::datagen::blueprint::{Blueprint, GenConfig};
    use affidavit::datasets::specs::by_name;
    use affidavit::datasets::synth::generate_rows;

    // One Table 2 evaluation spec, synthetically transformed as in §5.1.
    let spec = by_name("balance").expect("table 2 spec exists");
    let (base, pool) = generate_rows(&spec, spec.rows.min(150), 11);
    let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, 11)).materialize_full();
    let mut s = Vec::new();
    let mut t = Vec::new();
    csv::write(
        &mut s,
        &generated.instance.source,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();
    csv::write(
        &mut t,
        &generated.instance.target,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();
    let s = String::from_utf8(s).unwrap();
    let t = String::from_utf8(t).unwrap();
    assert_thread_invariant(&s, &t);
}
