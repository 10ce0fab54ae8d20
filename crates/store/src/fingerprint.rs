//! Content fingerprints for snapshot files.
//!
//! A resident profiling service pins ingested `(Table, ValuePool)` pairs
//! and must decide, for every request, whether the snapshots on disk are
//! the ones it already ingested. Paths and mtimes are not enough — files
//! are rewritten in place, copied, or regenerated byte-identically — so
//! sessions are keyed by a **content fingerprint**: a 64-bit FNV-1a hash
//! of the file bytes plus the byte length. Cheap (one streaming pass, no
//! allocation proportional to the file) and fully deterministic across
//! processes and platforms, which is what lets a warm session skip
//! ingestion entirely without risking a stale answer.
//!
//! This is an integrity shortcut, not a cryptographic one: FNV-1a guards
//! against accidental collisions (different snapshots mapping to one
//! session), not adversarial ones. The length field narrows the
//! collision surface further.

use std::io::{self, Read};
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A content fingerprint: FNV-1a 64 over the bytes, plus the length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// FNV-1a 64-bit hash of the content.
    pub hash: u64,
    /// Content length in bytes.
    pub len: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}-{}", self.hash, self.len)
    }
}

impl std::str::FromStr for Fingerprint {
    type Err = String;

    /// Parse the `Display` form back (`{hash:016x}-{len}`), for manifests
    /// that persist fingerprints as strings.
    fn from_str(s: &str) -> Result<Fingerprint, String> {
        let bad = || format!("malformed fingerprint {s:?} (expected <hash:016x>-<len>)");
        let (hash, len) = s.split_once('-').ok_or_else(bad)?;
        Ok(Fingerprint {
            hash: u64::from_str_radix(hash, 16).map_err(|_| bad())?,
            len: len.parse().map_err(|_| bad())?,
        })
    }
}

/// An incremental FNV-1a 64 hasher: the streaming core shared by
/// [`fingerprint_bytes`], [`fingerprint_file`] and callers that hash
/// structured content piecewise (the delta manifests hash a staged
/// pair's resolved strings through one of these). Feeding the same bytes
/// in any chunking yields the same [`Fingerprint`].
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
    len: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv {
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// Absorb a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    /// Absorb a string length-prefixed (u64 little-endian), so adjacent
    /// variable-length fields cannot alias (`"ab","c"` ≠ `"a","bc"`).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Absorb a little-endian u64.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The fingerprint of everything absorbed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            hash: self.hash,
            len: self.len,
        }
    }
}

/// Fingerprint a byte slice.
pub fn fingerprint_bytes(bytes: &[u8]) -> Fingerprint {
    let mut fnv = Fnv::new();
    fnv.update(bytes);
    fnv.finish()
}

/// Fingerprint a file in one streaming pass (64 KiB chunks). Only regular
/// files are accepted (see [`open_snapshot`](affidavit_table::csv::open_snapshot)).
pub fn fingerprint_file(path: &Path) -> io::Result<Fingerprint> {
    let mut file = affidavit_table::csv::open_snapshot(path)?;
    let mut fnv = Fnv::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => fnv.update(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(fnv.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_files_agree_and_content_decides() {
        let dir = std::env::temp_dir().join("affidavit-fingerprint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "k,v\n1,x\n").unwrap();
        std::fs::write(&b, "k,v\n1,x\n").unwrap();
        let fa = fingerprint_file(&a).unwrap();
        // Identical content, different path: identical fingerprint.
        assert_eq!(fa, fingerprint_file(&b).unwrap());
        assert_eq!(fa, fingerprint_bytes(b"k,v\n1,x\n"));
        // One changed byte changes the fingerprint; the length field is
        // carried alongside the hash.
        std::fs::write(&b, "k,v\n1,y\n").unwrap();
        let fb = fingerprint_file(&b).unwrap();
        assert_ne!(fa, fb);
        assert_eq!(fa.len, 8);
        // Known FNV-1a vector: the empty input hashes to the offset basis.
        assert_eq!(
            fingerprint_bytes(b""),
            Fingerprint {
                hash: 0xcbf2_9ce4_8422_2325,
                len: 0
            }
        );
        assert_eq!(format!("{fa}").len(), 16 + 1 + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let fp = fingerprint_bytes(b"k,v\n1,x\n");
        let back: Fingerprint = fp.to_string().parse().unwrap();
        assert_eq!(back, fp);
        assert!("nope".parse::<Fingerprint>().is_err());
        assert!("zz-3".parse::<Fingerprint>().is_err());
        assert!("0123456789abcdef-x".parse::<Fingerprint>().is_err());
    }

    #[test]
    fn streaming_hasher_is_chunking_invariant() {
        let whole = fingerprint_bytes(b"hello delta world");
        let mut fnv = Fnv::new();
        fnv.update(b"hello ");
        fnv.update(b"delta");
        fnv.update(b" world");
        assert_eq!(fnv.finish(), whole);
        // Length prefixes keep adjacent strings from aliasing.
        let mut a = Fnv::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = Fnv::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
