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
//!
//! The CI matrix leg pins one (threads, chunk size) combination via
//! `AFFIDAVIT_INGEST_THREADS` / `AFFIDAVIT_INGEST_CHUNK_ROWS`; without
//! them the whole matrix runs.

use affidavit::core::config::AffidavitConfig;
use affidavit::core::instance::ProblemInstance;
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::datasets::running_example::{ATTRS, SOURCE_ROWS, TARGET_ROWS};
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
        let mut serial_pool = ValuePool::new();
        let serial = csv::read_str(text, &mut serial_pool, csv::CsvOptions::default());
        let want = outcome(serial, &serial_pool);
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
        assert_eq!(outcome(mem, &mem_pool), outcome(stream, &stream_pool));
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
