//! The binary PCN format (`.pcnb`).
//!
//! At million-core scale the text `.pcn` parser dominates wall clock —
//! every edge costs a line split and three decimal parses. `.pcnb` is the
//! same data as a versioned little-endian binary layout that loads with
//! bulk byte-to-integer conversions instead:
//!
//! ```text
//! magic      8 bytes  "SNNPCNB\0"
//! version    u32      1
//! clusters   u32      n
//! edges      u64      m
//! intra      f64      intra-cluster traffic total (bit-exact)
//! — clusters section —
//! length     u64      must equal 12·n
//! neurons    u32 × n
//! synapses   u64 × n
//! — edges section (out-CSR, canonical) —
//! length     u64      must equal 8·(n+1) + 12·m
//! offsets    u64 × (n+1)   monotone, offsets[0] = 0, offsets[n] = m
//! targets    u32 × m       per row: strictly increasing, ≠ row, < n
//! weights    f32 × m       finite, ≥ 0
//! checksum   u64      FNV-1a over every preceding byte
//! ```
//!
//! The CSR is **canonical** — exactly the out-CSR a [`Pcn`] stores, so
//! [`Pcn::from_out_csr`] takes the decoded arrays as they are, with no
//! sort or re-aggregation. `.pcnb → Pcn → .pcnb` is byte-identical, and
//! `intra` carries the `f64` total bit-exactly (the text format rounds it
//! through `f32`).
//!
//! The reader streams through any [`Read`] with a bounded scratch buffer
//! (no mmap, no size-`m` trust): allocations grow with bytes actually
//! read, so a 100-byte file claiming 2⁶⁰ edges fails with
//! [`IoError::Truncated`] instead of an allocation bomb. Every other
//! inconsistency — bad magic, section-length contradictions,
//! non-canonical CSR, bit flips (caught by the checksum), trailing
//! garbage — is a typed [`IoError`], never a panic.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use snnmap_model::Pcn;

use crate::limits::MAX_CLUSTERS;
use crate::IoError;

/// The 8-byte magic that opens every `.pcnb` document.
pub const PCNB_MAGIC: [u8; 8] = *b"SNNPCNB\0";

/// The format version this build reads and writes.
pub const PCNB_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Serializes a PCN to the `.pcnb` byte layout. Deterministic: equal PCNs
/// render byte-identically.
pub fn render_pcnb(pcn: &Pcn) -> Vec<u8> {
    let n = pcn.num_clusters() as usize;
    let m = pcn.num_connections() as usize;
    let clusters_len = 12 * n as u64;
    let edges_len = 8 * (n as u64 + 1) + 12 * m as u64;
    let mut out = Vec::with_capacity(32 + 8 + clusters_len as usize + 8 + edges_len as usize + 8);
    out.extend_from_slice(&PCNB_MAGIC);
    out.extend_from_slice(&PCNB_VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&pcn.intra_traffic().to_le_bytes());

    out.extend_from_slice(&clusters_len.to_le_bytes());
    for c in 0..n as u32 {
        out.extend_from_slice(&pcn.neurons_in(c).to_le_bytes());
    }
    for c in 0..n as u32 {
        out.extend_from_slice(&pcn.synapses_in(c).to_le_bytes());
    }

    out.extend_from_slice(&edges_len.to_le_bytes());
    let mut offset = 0u64;
    out.extend_from_slice(&offset.to_le_bytes());
    for c in 0..n as u32 {
        offset += pcn.out_edges(c).count() as u64;
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for c in 0..n as u32 {
        for (t, _) in pcn.out_edges(c) {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    for c in 0..n as u32 {
        for (_, w) in pcn.out_edges(c) {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    let checksum = fnv1a(FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Writes `pcn` to `path` in the `.pcnb` format.
///
/// # Errors
///
/// [`IoError::Io`] on filesystem failures.
pub fn write_pcnb(path: impl AsRef<Path>, pcn: &Pcn) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&render_pcnb(pcn))?;
    w.flush()?;
    Ok(())
}

/// Parses a `.pcnb` document from a byte slice (see [`read_pcnb`] for the
/// streaming file variant).
///
/// # Errors
///
/// [`IoError::Truncated`] when the input ends inside a section,
/// [`IoError::Corrupt`] for magic/version/length/CSR/checksum violations,
/// [`IoError::Invalid`] for declared sizes above [`MAX_CLUSTERS`].
pub fn parse_pcnb(bytes: &[u8]) -> Result<Pcn, IoError> {
    parse_pcnb_from(bytes)
}

/// Reads a `.pcnb` file through a buffered streaming reader.
///
/// # Errors
///
/// As [`parse_pcnb`], plus [`IoError::Io`] on filesystem failures.
pub fn read_pcnb(path: impl AsRef<Path>) -> Result<Pcn, IoError> {
    parse_pcnb_from(BufReader::new(File::open(path)?))
}

/// Streaming `.pcnb` parser over any [`Read`].
fn parse_pcnb_from<R: Read>(reader: R) -> Result<Pcn, IoError> {
    let mut r = HashingReader { inner: reader, hash: FNV_OFFSET };

    let mut head = [0u8; 32];
    r.read_exact_hashed(&mut head, "header")?;
    if head[..8] != PCNB_MAGIC {
        return Err(IoError::Corrupt {
            message: format!("bad magic {:02x?}, expected \"SNNPCNB\\0\"", &head[..8]),
        });
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != PCNB_VERSION {
        return Err(IoError::Corrupt {
            message: format!("unsupported pcnb version {version}, this build reads {PCNB_VERSION}"),
        });
    }
    let n = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")) as usize;
    let m = u64::from_le_bytes(head[16..24].try_into().expect("8 bytes"));
    let intra = f64::from_le_bytes(head[24..32].try_into().expect("8 bytes"));
    if n == 0 {
        return Err(IoError::Corrupt { message: "pcnb declares zero clusters".into() });
    }
    if n > MAX_CLUSTERS {
        return Err(IoError::Invalid {
            message: format!("{n} clusters exceeds the supported maximum of {MAX_CLUSTERS}"),
        });
    }
    if !intra.is_finite() || intra < 0.0 {
        return Err(IoError::Corrupt {
            message: format!("intra traffic {intra} is not a finite non-negative number"),
        });
    }

    let clusters_len = r.read_u64("clusters")?;
    if clusters_len != 12 * n as u64 {
        return Err(IoError::Corrupt {
            message: format!(
                "clusters section declares {clusters_len} bytes but {n} clusters need {}",
                12 * n as u64
            ),
        });
    }
    let neurons = r.read_values(n as u64, "clusters", u32::from_le_bytes)?;
    let synapses = r.read_values(n as u64, "clusters", u64::from_le_bytes)?;

    let edges_len = r.read_u64("edges")?;
    let expect_edges_len = 12u64
        .checked_mul(m)
        .and_then(|x| x.checked_add(8 * (n as u64 + 1)))
        .ok_or_else(|| IoError::Corrupt {
            message: format!("{m} edges overflow the section arithmetic"),
        })?;
    if edges_len != expect_edges_len {
        return Err(IoError::Corrupt {
            message: format!(
                "edges section declares {edges_len} bytes but {m} edges over {n} clusters \
                 need {expect_edges_len}"
            ),
        });
    }
    let offsets = r.read_values(n as u64 + 1, "edges", u64::from_le_bytes)?;
    let targets = r.read_values(m, "edges", u32::from_le_bytes)?;
    let weights = r.read_values(m, "edges", f32::from_le_bytes)?;

    let computed = r.hash;
    let declared = r.read_u64("checksum")?;
    if declared != computed {
        return Err(IoError::Corrupt {
            message: format!("checksum mismatch: document says {declared:#018x}, bytes hash to {computed:#018x}"),
        });
    }
    let mut one = [0u8; 1];
    if r.inner.read(&mut one)? != 0 {
        return Err(IoError::Corrupt {
            message: "trailing bytes after the checksum".into(),
        });
    }

    // The document stores exactly the canonical out-CSR, so it becomes
    // the PCN as is; the constructor rejects any non-canonical row.
    Pcn::from_out_csr(neurons, synapses, offsets, targets, weights, intra)
        .map_err(|e| IoError::Corrupt { message: e.to_string() })
}

/// A [`Read`] wrapper that folds every byte it delivers into a running
/// FNV-1a hash, so the checksum verifies against exactly the bytes the
/// parser consumed.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn read_exact_hashed(&mut self, buf: &mut [u8], section: &str) -> Result<(), IoError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IoError::Truncated { section: section.to_owned() }
            } else {
                IoError::Io(e)
            }
        })?;
        self.hash = fnv1a(self.hash, buf);
        Ok(())
    }

    fn read_u64(&mut self, section: &str) -> Result<u64, IoError> {
        let mut buf = [0u8; 8];
        self.read_exact_hashed(&mut buf, section)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `count` little-endian `N`-byte values in bounded chunks,
    /// decoding each chunk as it arrives: memory grows with the values
    /// actually delivered, never with a hostile declared count, and no
    /// byte copy of the section is kept.
    fn read_values<T, const N: usize>(
        &mut self,
        count: u64,
        section: &str,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, IoError> {
        const CHUNK: usize = 64 * 1024; // a multiple of every N read here
        let len = count
            .checked_mul(N as u64)
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| IoError::Invalid {
                message: format!("{count} values of {N} bytes exceed the address space"),
            })?;
        let mut out = Vec::with_capacity(len.min(CHUNK) / N);
        let mut chunk = vec![0u8; CHUNK.min(len)];
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(CHUNK);
            self.read_exact_hashed(&mut chunk[..take], section)?;
            let values = chunk[..take].chunks_exact(N);
            out.extend(values.map(|b| decode(b.try_into().expect("N-byte chunks"))));
            remaining -= take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::PcnBuilder;
    use snnmap_model::generators::random_pcn;

    fn sample() -> Pcn {
        let mut b = PcnBuilder::new();
        b.add_cluster(100, 5_000);
        b.add_cluster(80, 4_000);
        b.add_cluster(120, 6_000);
        b.add_edge(0, 1, 10.5).unwrap();
        b.add_edge(1, 2, 4.25).unwrap();
        b.add_edge(0, 2, 2.0).unwrap();
        b.add_intra(1.000_000_000_123_456_7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let pcn = sample();
        let bytes = render_pcnb(&pcn);
        let again = parse_pcnb(&bytes).unwrap();
        assert_eq!(again, pcn);
        assert_eq!(render_pcnb(&again), bytes, "pcnb → Pcn → pcnb must be byte-identical");
        // The f64 intra total survives bit-exactly.
        assert_eq!(again.intra_traffic().to_bits(), pcn.intra_traffic().to_bits());
    }

    #[test]
    fn text_and_binary_agree_on_the_graph() {
        let pcn = random_pcn(200, 5.0, 42).unwrap();
        let via_binary = parse_pcnb(&render_pcnb(&pcn)).unwrap();
        let via_text = crate::parse_pcn(&crate::render_pcn(&pcn)).unwrap();
        assert_eq!(via_binary.num_clusters(), via_text.num_clusters());
        assert_eq!(via_binary.num_connections(), via_text.num_connections());
        for (f, t, w) in via_binary.iter_edges() {
            assert_eq!(via_text.edge_weight(f, t), Some(w));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("snnmap_pcnb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.pcnb");
        let pcn = sample();
        write_pcnb(&path, &pcn).unwrap();
        let again = read_pcnb(&path).unwrap();
        assert_eq!(again, pcn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_corrupt() {
        let mut bytes = render_pcnb(&sample());
        bytes[0] ^= 0xff;
        assert!(matches!(parse_pcnb(&bytes), Err(IoError::Corrupt { .. })));
        let mut bytes = render_pcnb(&sample());
        bytes[8] = 99; // version
        assert!(matches!(parse_pcnb(&bytes), Err(IoError::Corrupt { .. })));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = render_pcnb(&sample());
        for cut in [0, 7, 31, 40, bytes.len() / 2, bytes.len() - 1] {
            match parse_pcnb(&bytes[..cut]) {
                Err(IoError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = render_pcnb(&sample());
        bytes.push(0);
        assert!(matches!(parse_pcnb(&bytes), Err(IoError::Corrupt { .. })));
    }

    #[test]
    fn declared_size_bombs_fail_without_allocating() {
        // A tiny document claiming 2^60 edges must die on missing bytes,
        // not on a 2^60-sized allocation.
        let mut bytes = render_pcnb(&sample());
        bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            parse_pcnb(&bytes),
            Err(IoError::Corrupt { .. } | IoError::Truncated { .. })
        ));
        // Oversized cluster count is rejected up front.
        let mut bytes = render_pcnb(&sample());
        bytes[12..16].copy_from_slice(&(MAX_CLUSTERS as u32 + 1).to_le_bytes());
        assert!(matches!(parse_pcnb(&bytes), Err(IoError::Invalid { .. })));
    }

    #[test]
    fn non_canonical_csr_is_rejected() {
        // Swap the two targets of row 0 (and fix the checksum) so the CSR
        // is structurally sound but out of order.
        let pcn = sample();
        let mut bytes = render_pcnb(&pcn);
        let n = 3usize;
        let targets_at = 32 + 8 + 12 * n + 8 + 8 * (n + 1);
        let (a, b) = (targets_at, targets_at + 4);
        let (ta, tb): ([u8; 4], [u8; 4]) =
            (bytes[a..a + 4].try_into().unwrap(), bytes[b..b + 4].try_into().unwrap());
        bytes[a..a + 4].copy_from_slice(&tb);
        bytes[b..b + 4].copy_from_slice(&ta);
        let body_len = bytes.len() - 8;
        let fixed = fnv1a(FNV_OFFSET, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fixed.to_le_bytes());
        let err = parse_pcnb(&bytes).unwrap_err();
        assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }
}
