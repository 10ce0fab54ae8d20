//! Seeded mutation fuzzing of a framed listener — the engine behind the
//! daemon's fail-closed test (`mutated_client_frames_fail_closed` in
//! `tests/properties_serve.rs`).
//!
//! Requests are JSON objects tagged by `op`. [`mutants`] turns
//! valid request frames into ones that are invalid by construction: a
//! truncated object or frame, a flipped structural byte, a tag naming no
//! operation, a field value the listener must refuse (an out-of-domain
//! number, or a string whose escape names no character), a request
//! nested thousands of levels deep, or bytes that are not UTF-8.
//! [`check_fail_closed`]
//! sends each mutant over its own connection and checks the listener's
//! contract: a whole UTF-8 frame is answered with an error frame, any
//! other mutant ends the connection, and nothing goes unanswered for a
//! stall window.

use std::io::Write as _;
use std::net::TcpStream;

use crate::frame::{configure_stream, read_frame, FrameConfig, FrameRead, MAX_FRAME_BYTES};

/// SplitMix64 — a seeded, dependency-free stream, so every run sends
/// the same mutants. `Rng(seed)` starts a stream.
pub struct Rng(pub u64);

impl Rng {
    /// The next draw, uniform enough in `0..n` for fuzzing (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The protocol-specific half of a mutation: what to write into the
/// `op` tag and into request fields.
#[derive(Debug, Clone, Copy)]
pub struct Vocabulary<'a> {
    /// Tags that name no operation of the protocol.
    pub bad_tags: &'a [&'a str],
    /// Request fields, each with raw JSON values the listener must
    /// refuse. A frame without the chosen field gets the value appended
    /// after its object instead.
    pub bad_values: &'a [(&'a str, &'a [&'a str])],
}

/// One mutated frame as it goes on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// The length the frame header announces.
    pub len: usize,
    /// The bytes actually sent; fewer than `len` means the peer stops
    /// writing mid-frame.
    pub body: Vec<u8>,
}

impl Mutant {
    /// A complete frame of these bytes.
    pub fn whole(body: Vec<u8>) -> Mutant {
        Mutant {
            len: body.len(),
            body,
        }
    }

    /// True when the frame arrives whole and as UTF-8: a request the
    /// listener must refuse with an error frame.
    pub fn is_text(&self) -> bool {
        self.len == self.body.len() && std::str::from_utf8(&self.body).is_ok()
    }
}

/// Byte offsets of the JSON structure (braces, brackets, colons, commas
/// and string delimiters) outside string contents: changing any one of
/// them leaves text that is not a request.
pub fn structural_offsets(json: &[u8]) -> Vec<usize> {
    let (mut offsets, mut in_string, mut escaped) = (Vec::new(), false, false);
    for (i, &b) in json.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    in_string = false;
                    offsets.push(i);
                }
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
            offsets.push(i);
        } else if b"{}[]:,".contains(&b) {
            offsets.push(i);
        }
    }
    offsets
}

/// Replace the value that follows `"key":` in `frame` with `raw` (raw
/// JSON, so values no Rust type can hold reach the wire too), or append
/// `raw` after the object when the frame has no such key.
pub fn with_value(frame: &str, key: &str, raw: &str) -> String {
    let key = format!("\"{key}\":");
    match frame.find(&key) {
        Some(at) => {
            let start = at + key.len();
            let end = start
                + frame[start..]
                    .find([',', '}'])
                    .unwrap_or(frame.len() - start);
            format!("{}{raw}{}", &frame[..start], &frame[end..])
        }
        None => format!("{frame}{raw}"),
    }
}

/// `json` wrapped in thousands of arrays or one-key objects: well-formed
/// structure nested far past any parser's recursion limit, in a few KB.
pub fn nest(rng: &mut Rng, json: &str) -> String {
    let depth = 1000 + rng.below(4000);
    let (open, close) = [("[", "]"), (r#"{"n":"#, "}")][rng.below(2)];
    format!("{}{json}{}", open.repeat(depth), close.repeat(depth))
}

/// One invalid mutant of `frame`, a valid `op`-tagged request.
fn mutate(rng: &mut Rng, frame: &str, vocab: &Vocabulary<'_>) -> Mutant {
    let bytes = frame.as_bytes().to_vec();
    match rng.below(7) {
        // Truncated JSON: every strict prefix of an object is invalid.
        0 => Mutant::whole(bytes[..rng.below(bytes.len())].to_vec()),
        // Truncated frame: the peer stops mid-frame.
        1 => {
            let body = bytes[..rng.below(bytes.len())].to_vec();
            Mutant {
                len: body.len() + 1,
                body,
            }
        }
        // One structural byte flipped.
        2 => {
            let mut bytes = bytes;
            let offsets = structural_offsets(&bytes);
            let at = offsets[rng.below(offsets.len())];
            bytes[at] ^= 1 + rng.below(255) as u8;
            Mutant::whole(bytes)
        }
        // A tag that names no operation.
        3 => {
            let tag = vocab.bad_tags[rng.below(vocab.bad_tags.len())];
            let start = frame.find(r#""op":""#).expect("frames are tagged by op") + 6;
            let end = start + frame[start..].find('"').unwrap();
            Mutant::whole(format!("{}{tag}{}", &frame[..start], &frame[end..]).into_bytes())
        }
        // A field value the listener must refuse.
        4 => {
            let (key, values) = vocab.bad_values[rng.below(vocab.bad_values.len())];
            let raw = values[rng.below(values.len())];
            Mutant::whole(with_value(frame, key, raw).into_bytes())
        }
        // Nested past the recursion limit.
        5 => Mutant::whole(nest(rng, frame).into_bytes()),
        // Not UTF-8.
        _ => {
            let mut bytes = bytes;
            let at = rng.below(bytes.len());
            bytes.insert(at, [0xFF, 0x80, 0xC3][rng.below(3)]);
            Mutant::whole(bytes)
        }
    }
}

/// `cases` seeded mutants, each of a frame drawn from `frames` (valid
/// requests).
pub fn mutants(seed: u64, cases: usize, frames: &[String], vocab: &Vocabulary<'_>) -> Vec<Mutant> {
    let mut rng = Rng(seed);
    (0..cases)
        .map(|_| {
            let frame = &frames[rng.below(frames.len())];
            mutate(&mut rng, frame, vocab)
        })
        .collect()
}

/// Send `mutant` to `addr` over a fresh connection and read the answer
/// within `cfg`'s stall bound; a broken exchange counts as `Closed`.
pub fn exchange(addr: &str, mutant: &Mutant, cfg: &FrameConfig) -> Result<FrameRead, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("dial {addr}: {e}"))?;
    configure_stream(&stream, cfg)?;
    let sent = stream
        .write_all(&(mutant.len as u32).to_be_bytes())
        .and_then(|()| stream.write_all(&mutant.body));
    if sent.is_err() {
        return Ok(FrameRead::Closed);
    }
    if mutant.len > mutant.body.len() {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    Ok(read_frame(&mut stream, cfg, MAX_FRAME_BYTES).unwrap_or(FrameRead::Closed))
}

/// Check the fail-closed contract for every mutant: whole UTF-8 frames
/// are answered with a frame `is_error` accepts, everything else ends
/// the connection, and nothing waits out a stall window unanswered.
/// Returns the first violation, described.
pub fn check_fail_closed(
    addr: &str,
    cfg: &FrameConfig,
    mutants: &[Mutant],
    is_error: impl Fn(&str) -> bool,
) -> Result<(), String> {
    for (case, mutant) in mutants.iter().enumerate() {
        let sent = String::from_utf8_lossy(&mutant.body);
        match exchange(addr, mutant, cfg)? {
            FrameRead::Frame(text) if mutant.is_text() && is_error(&text) => {}
            FrameRead::Frame(text) => {
                return Err(format!("case {case}: {sent:?} was answered with {text}"))
            }
            FrameRead::Closed if !mutant.is_text() => {}
            FrameRead::Closed => {
                return Err(format!("case {case}: {sent:?} closed the connection"))
            }
            FrameRead::Idle => return Err(format!("case {case}: {sent:?} got no answer")),
        }
    }
    Ok(())
}
