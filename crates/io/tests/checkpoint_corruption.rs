//! Corruption torture for the checkpoint format: a checkpoint file
//! truncated at **every** byte offset, or with a bit flipped at every
//! byte offset, is always rejected with a typed [`IoError`] — never a
//! panic and never a silently-wrong resume. The only acceptable `Ok` is
//! one whose canonical re-rendering is byte-identical to the original
//! document (e.g. a flip inside insignificant whitespace, which the
//! self-digest canonicalization absorbs).

use proptest::prelude::*;
use snnmap_core::FdCheckpoint;
use snnmap_hw::{Coord, Mesh};
use snnmap_io::{parse_checkpoint, render_checkpoint, CheckpointMeta, IoError};

fn sample_checkpoint() -> (FdCheckpoint, CheckpointMeta) {
    let mesh = Mesh::new(3, 4).unwrap();
    let coords: Vec<Coord> = (0..7).map(|i| mesh.coord_of_index(i)).collect();
    let cp = FdCheckpoint {
        mesh,
        coords,
        sweeps: 5,
        swaps: 41,
        initial_energy: 987.125,
        energy: 0.1 + 0.2,
    };
    let meta = CheckpointMeta {
        config_digest: "cfg-0123456789abcdef".into(),
        pcn_digest: "pcn-fedcba9876543210".into(),
    };
    (cp, meta)
}

/// A corrupted parse is acceptable only as a typed error, or as an `Ok`
/// that is provably the same checkpoint (canonical re-render matches the
/// pristine document byte-for-byte).
fn assert_never_silently_wrong(mutated: &str, pristine: &str, what: &str) {
    match parse_checkpoint(mutated) {
        Err(
            IoError::Json(_)
            | IoError::Invalid { .. }
            | IoError::UnsupportedVersion { .. }
            | IoError::DuplicateKey { .. }
            | IoError::Parse { .. },
        ) => {}
        Err(other) => panic!("{what}: unexpected error variant {other:?}"),
        Ok((cp, meta)) => {
            assert_eq!(
                render_checkpoint(&cp, &meta),
                pristine,
                "{what}: parsed Ok but the result differs from the original"
            );
        }
    }
}

/// Every strict prefix of a checkpoint document is rejected (or, for
/// whitespace-only tail loss, yields the identical checkpoint).
#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let (cp, meta) = sample_checkpoint();
    let text = render_checkpoint(&cp, &meta);
    assert!(text.len() > 500, "sample must be non-trivial, got {} bytes", text.len());
    for cut in 0..text.len() {
        assert_never_silently_wrong(&text[..cut], &text, &format!("truncated at byte {cut}"));
    }
}

/// Flipping bits at every byte offset never panics and never yields a
/// different checkpoint. Three masks: low bit (digit/letter nudges), bit
/// 5 (case/punctuation swaps that often keep JSON well-formed), and the
/// high bit (non-ASCII garbage).
#[test]
fn bit_flip_at_every_byte_offset_is_rejected() {
    let (cp, meta) = sample_checkpoint();
    let text = render_checkpoint(&cp, &meta);
    for mask in [0x01u8, 0x20, 0x80] {
        for pos in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= mask;
            let Ok(mutated) = String::from_utf8(bytes) else {
                // parse_checkpoint takes &str; a flip producing invalid
                // UTF-8 is rejected upstream by the file read.
                continue;
            };
            if mutated == text {
                continue;
            }
            assert_never_silently_wrong(
                &mutated,
                &text,
                &format!("byte {pos} xor {mask:#04x}"),
            );
        }
    }
}

/// The digest actually bites: a value-level edit that still parses as a
/// structurally valid checkpoint is caught by `self_sha256` alone.
#[test]
fn clean_value_swap_is_caught_by_integrity_digest() {
    let (cp, meta) = sample_checkpoint();
    let text = render_checkpoint(&cp, &meta);
    let swapped = text.replacen("\"swaps\": 41", "\"swaps\": 14", 1);
    assert_ne!(swapped, text, "the edit must land");
    match parse_checkpoint(&swapped) {
        Err(IoError::Invalid { message }) => {
            assert!(message.contains("integrity digest"), "{message}");
        }
        other => panic!("value swap must fail the digest check, got {other:?}"),
    }
}

/// A `snnmap-checkpoint-v1` document, which carried the force table as
/// `forces_bits`, is refused with a typed error naming its version:
/// whether or not it has the (then optional) `self_sha256`, and however
/// its payload looks.
#[test]
fn v1_checkpoint_is_refused_naming_its_version() {
    let (cp, meta) = sample_checkpoint();
    let v2 = render_checkpoint(&cp, &meta);
    let v1 = v2.replacen("snnmap-checkpoint-v2", "snnmap-checkpoint-v1", 1).replacen(
        "\"coords\"",
        "\"forces_bits\": [[0, 0, 0, 0]],\n  \"coords\"",
        1,
    );
    for doc in [&v1, &strip_digest(&v1)] {
        match parse_checkpoint(doc) {
            Err(e @ IoError::UnsupportedVersion { .. }) => {
                let IoError::UnsupportedVersion { found, supported } = &e else { unreachable!() };
                assert_eq!(found, "snnmap-checkpoint-v1");
                assert_eq!(supported, "snnmap-checkpoint-v2");
                assert!(e.to_string().contains("snnmap-checkpoint-v1"), "{e}");
            }
            other => panic!("a v1 document must be refused by version, got {other:?}"),
        }
    }
}

/// `self_sha256` is required: a v2 document without it does not parse.
#[test]
fn v2_checkpoint_without_digest_is_rejected() {
    let (cp, meta) = sample_checkpoint();
    let stripped = strip_digest(&render_checkpoint(&cp, &meta));
    assert!(matches!(parse_checkpoint(&stripped), Err(IoError::Json(_))));
}

/// `text` without its `self_sha256` line, still well-formed JSON.
fn strip_digest(text: &str) -> String {
    let mut s: String =
        text.lines().filter(|l| !l.contains("self_sha256")).collect::<Vec<_>>().join("\n");
    // Drop the now-trailing comma after the coords array.
    let idx = s.rfind("],").expect("coords array close");
    s.replace_range(idx..idx + 2, "]");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random multi-byte corruptions (splices, overwrites, deletions at
    /// arbitrary offsets) are no stronger than the exhaustive single-byte
    /// sweeps: still a typed error or a provably identical checkpoint.
    #[test]
    fn random_splices_never_panic_or_lie(
        start in 0usize..2000,
        len in 1usize..64,
        replacement in prop::collection::vec(32u8..127, 0..64),
    ) {
        let (cp, meta) = sample_checkpoint();
        let text = render_checkpoint(&cp, &meta);
        let start = start % text.len();
        let end = (start + len).min(text.len());
        let mut bytes = text.as_bytes()[..start].to_vec();
        bytes.extend_from_slice(&replacement);
        bytes.extend_from_slice(&text.as_bytes()[end..]);
        let mutated = String::from_utf8(bytes).expect("printable ASCII splice");
        if mutated != text {
            assert_never_silently_wrong(&mutated, &text, "random splice");
        }
    }
}
