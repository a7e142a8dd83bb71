//! The correctness gate: every map and every repair is one operation,
//! and every operation's placement is validated and digested. A failure
//! is an error, a panic, a validation violation, an unexpected degraded
//! repair, or a digest that differs from an earlier run of the same
//! operation on the same seed. Every failure is counted; none is skipped.

use std::collections::BTreeMap;
use std::fmt;

use snnmap_core::{validate, validate_board};
use snnmap_hw::{Board, FaultMap, Placement};
use snnmap_io::render_placement;
use snnmap_model::Pcn;
use snnmap_trace::sha256_hex;

/// Why an operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The program returned an error.
    Error(String),
    /// The program panicked.
    Panic(String),
    /// The placement broke a validation rule.
    Invalid(String),
    /// A repair left clusters unplaced although the board had room.
    Degraded(String),
    /// The placement differs from an earlier run of the same operation.
    DigestMismatch {
        /// Digest of the first run.
        expected: String,
        /// Digest of this run.
        got: String,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(m) => write!(f, "error: {m}"),
            Failure::Panic(m) => write!(f, "panic: {m}"),
            Failure::Invalid(m) => write!(f, "invalid placement: {m}"),
            Failure::Degraded(m) => write!(f, "unexpected degraded repair: {m}"),
            Failure::DigestMismatch { expected, got } => {
                write!(f, "digest {got} differs from the first run's {expected}")
            }
        }
    }
}

impl Failure {
    /// Wraps any displayable error.
    pub fn error(e: impl fmt::Display) -> Self {
        Failure::Error(e.to_string())
    }
}

/// The digest convention: sha256 of the placement JSON document, the
/// exact bytes `snnmap map --out` writes.
pub fn digest(placement: &Placement) -> String {
    sha256_hex(render_placement(placement).as_bytes())
}

/// Validates `placement` (against `board` when there is one, including
/// chip liveness under `faults`).
///
/// # Errors
///
/// [`Failure::Invalid`] listing the first violations, or
/// [`Failure::Error`] when validation itself cannot run.
pub fn check_placement(
    pcn: &Pcn,
    placement: &Placement,
    faults: Option<&FaultMap>,
    board: Option<&Board>,
) -> Result<(), Failure> {
    let report = match board {
        Some(b) => validate_board(pcn, placement, faults, b),
        None => validate(pcn, placement, faults, None),
    }
    .map_err(Failure::error)?;
    if report.is_ok() {
        return Ok(());
    }
    let v = report.violations();
    let shown: Vec<String> = v.iter().take(3).map(|x| format!("{x:?}")).collect();
    Err(Failure::Invalid(format!(
        "{} violation(s), first: {}",
        v.len(),
        shown.join("; ")
    )))
}

/// Counts operations and failures, and pins each operation's digest to
/// its first run.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    digests: BTreeMap<String, String>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation labelled `label`: its placement digest, or
    /// why it failed. Failures are printed to stderr as they happen.
    pub fn record(&mut self, label: &str, outcome: Result<String, Failure>) {
        self.attempted += 1;
        let outcome = outcome.and_then(|d| match self.digests.get(label) {
            Some(first) if *first != d => Err(Failure::DigestMismatch {
                expected: first.clone(),
                got: d,
            }),
            Some(_) => Ok(()),
            None => {
                self.digests.insert(label.to_owned(), d);
                Ok(())
            }
        });
        if let Err(f) = outcome {
            self.failed += 1;
            eprintln!("[snnbench] FAILED {label}: {f}");
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        crate::report::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The pinned digest of every operation label.
    pub fn digests(&self) -> &BTreeMap<String, String> {
        &self.digests
    }
}
