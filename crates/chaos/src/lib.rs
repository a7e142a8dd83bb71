//! Seeded, deterministic fault injection for the snnmap stack.
//!
//! A *failpoint* is a named site in production code (e.g. `spool.write`,
//! `checkpoint.rename`) that consults this registry before doing real
//! work. When the registry is disabled — the default — the consult is a
//! single relaxed atomic load and nothing else, so shipping the hooks
//! costs nothing. When a chaos schedule is installed, each failpoint
//! draws from its own [SplitMix64] stream seeded from the global seed
//! and the failpoint name, so a given `(seed, spec)` pair replays the
//! exact same failure schedule on every run, on every machine.
//!
//! Schedules are written as `<seed>:<spec>` where `<spec>` is a
//! comma-separated list of `<failpoint>=<fault>[@<trigger>]` rules:
//!
//! ```text
//! SNNMAP_CHAOS="42:spool.write=enospc@#2,checkpoint.write=torn@1in3"
//! ```
//!
//! Faults: `enospc` (disk full), `torn` (partial write, truncated at a
//! seeded byte offset), `fail` (generic I/O error), `short` (partial
//! read), `disconnect` (peer hangup mid-stream). Triggers: bare (every
//! hit), `#N` (only the Nth hit, 1-based), `#N+` (the Nth hit and every
//! one after), `1inN` (each hit fires with seeded probability 1/N).
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

pub mod cfs;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Environment variable holding the chaos schedule (`<seed>:<spec>`).
pub const ENV_VAR: &str = "SNNMAP_CHAOS";

/// What an armed failpoint injects at its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Write fails with `ENOSPC` (disk full); nothing is written.
    Enospc,
    /// Write persists only a seeded prefix of the payload, then errors.
    Torn,
    /// The operation fails outright with a generic injected I/O error.
    Fail,
    /// Read returns only a seeded prefix of the content (no error).
    Short,
    /// The peer connection drops mid-stream.
    Disconnect,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "enospc" => Self::Enospc,
            "torn" => Self::Torn,
            "fail" => Self::Fail,
            "short" => Self::Short,
            "disconnect" => Self::Disconnect,
            _ => return None,
        })
    }

    /// The spec-grammar name of this fault.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Enospc => "enospc",
            Self::Torn => "torn",
            Self::Fail => "fail",
            Self::Short => "short",
            Self::Disconnect => "disconnect",
        }
    }
}

/// One injected fault, as returned by [`check`].
///
/// `cut` is a fresh seeded draw; sites that truncate payloads reduce it
/// modulo `len + 1` so every offset (including 0 and `len`) is
/// reachable across seeds.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub kind: FaultKind,
    pub cut: u64,
}

impl Fault {
    /// The truncation offset for a payload of `len` bytes.
    pub fn cut_for(&self, len: usize) -> usize {
        (self.cut % (len as u64 + 1)) as usize
    }
}

/// When an armed failpoint actually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Only the `n`th hit (1-based).
    Nth(u64),
    /// The `n`th hit and every hit after it.
    From(u64),
    /// Each hit independently with seeded probability `1/n`.
    OneIn(u64),
}

/// A malformed `SNNMAP_CHAOS` schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(String);

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosError {}

fn err(msg: impl Into<String>) -> ChaosError {
    ChaosError(msg.into())
}

/// SplitMix64: tiny, seedable, full-period 2^64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, used to fold the failpoint name into its per-point seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct Rule {
    kind: FaultKind,
    trigger: Trigger,
    /// Times this failpoint was consulted while armed.
    hits: u64,
    /// Times it actually fired.
    injected: u64,
    rng: u64,
}

#[derive(Debug)]
struct Chaos {
    seed: u64,
    spec: String,
    rules: BTreeMap<String, Rule>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Option<Chaos>> = Mutex::new(None);

fn registry() -> MutexGuard<'static, Option<Chaos>> {
    // A panic while holding the lock leaves only counters in a
    // half-updated state; the schedule itself is still coherent.
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn parse_trigger(s: &str) -> Result<Trigger, ChaosError> {
    if let Some(rest) = s.strip_prefix('#') {
        let (digits, from) = match rest.strip_suffix('+') {
            Some(d) => (d, true),
            None => (rest, false),
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| err(format!("bad hit count in trigger `{s}`")))?;
        if n == 0 {
            return Err(err(format!("trigger `{s}` is 1-based; #0 never fires")));
        }
        return Ok(if from { Trigger::From(n) } else { Trigger::Nth(n) });
    }
    if let Some(rest) = s.strip_prefix("1in") {
        let n: u64 = rest
            .parse()
            .map_err(|_| err(format!("bad denominator in trigger `{s}`")))?;
        if n == 0 {
            return Err(err("trigger `1in0` divides by zero"));
        }
        return Ok(Trigger::OneIn(n));
    }
    Err(err(format!("unknown trigger `{s}` (expected #N, #N+ or 1inN)")))
}

fn parse_spec(seed: u64, spec: &str) -> Result<Chaos, ChaosError> {
    let mut rules = BTreeMap::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(err("empty rule (stray comma?)"));
        }
        let (name, rhs) = part
            .split_once('=')
            .ok_or_else(|| err(format!("rule `{part}` is missing `=<fault>`")))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(err(format!("rule `{part}` has an empty failpoint name")));
        }
        let (fault, trigger) = match rhs.split_once('@') {
            Some((f, t)) => (f.trim(), parse_trigger(t.trim())?),
            None => (rhs.trim(), Trigger::Always),
        };
        let kind = FaultKind::parse(fault).ok_or_else(|| {
            err(format!(
                "unknown fault `{fault}` (expected enospc, torn, fail, short or disconnect)"
            ))
        })?;
        let prior = rules.insert(
            name.to_string(),
            Rule {
                kind,
                trigger,
                hits: 0,
                injected: 0,
                rng: seed ^ fnv1a(name.as_bytes()),
            },
        );
        if prior.is_some() {
            return Err(err(format!("failpoint `{name}` configured twice")));
        }
    }
    if rules.is_empty() {
        return Err(err("schedule has no rules"));
    }
    Ok(Chaos { seed, spec: spec.to_string(), rules })
}

/// Installs a chaos schedule, replacing any previous one and resetting
/// all hit/injection counters.
pub fn install(seed: u64, spec: &str) -> Result<(), ChaosError> {
    let chaos = parse_spec(seed, spec)?;
    let mut guard = registry();
    INJECTED_TOTAL.store(0, Relaxed);
    *guard = Some(chaos);
    ENABLED.store(true, Relaxed);
    Ok(())
}

/// Installs the schedule from `SNNMAP_CHAOS` (format `<seed>:<spec>`),
/// if set. Returns `Ok(true)` when a schedule was installed, `Ok(false)`
/// when the variable is unset or empty.
pub fn install_from_env() -> Result<bool, ChaosError> {
    let raw = match std::env::var(ENV_VAR) {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return Ok(false),
    };
    let (seed, spec) = raw
        .split_once(':')
        .ok_or_else(|| err(format!("{ENV_VAR} must look like `<seed>:<spec>`")))?;
    let seed: u64 = seed
        .trim()
        .parse()
        .map_err(|_| err(format!("bad seed `{}` in {ENV_VAR}", seed.trim())))?;
    install(seed, spec)?;
    Ok(true)
}

/// Disarms every failpoint and drops the schedule (and its counters).
pub fn uninstall() {
    ENABLED.store(false, Relaxed);
    *registry() = None;
    INJECTED_TOTAL.store(0, Relaxed);
}

/// Whether a schedule is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Consults the failpoint `name`. Returns `Some(fault)` when the
/// schedule says this hit must fail. The disabled fast path is a single
/// relaxed atomic load.
pub fn check(name: &str) -> Option<Fault> {
    if !ENABLED.load(Relaxed) {
        return None;
    }
    let mut guard = registry();
    let rule = guard.as_mut()?.rules.get_mut(name)?;
    rule.hits += 1;
    let fire = match rule.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => rule.hits == n,
        Trigger::From(n) => rule.hits >= n,
        Trigger::OneIn(n) => splitmix64(&mut rule.rng) % n == 0,
    };
    if !fire {
        return None;
    }
    rule.injected += 1;
    INJECTED_TOTAL.fetch_add(1, Relaxed);
    let cut = splitmix64(&mut rule.rng);
    Some(Fault { kind: rule.kind, cut })
}

/// Total faults injected since the schedule was installed.
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Relaxed)
}

/// Per-failpoint `(name, hits, injected)` counters, sorted by name.
pub fn injection_counts() -> Vec<(String, u64, u64)> {
    registry()
        .as_ref()
        .map(|c| {
            c.rules
                .iter()
                .map(|(name, r)| (name.clone(), r.hits, r.injected))
                .collect()
        })
        .unwrap_or_default()
}

/// The installed `(seed, spec)`, if any.
pub fn active_spec() -> Option<(u64, String)> {
    registry().as_ref().map(|c| (c.seed, c.spec.clone()))
}

/// Serializes every test in the crate that touches the registry. The
/// registry is process-global, so all test modules must hold this one
/// lock: per-module locks would let `lib` and `cfs` tests interleave.
#[cfg(test)]
pub(crate) fn test_serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::test_serial as serial;
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _guard = serial();
        uninstall();
        assert!(!enabled());
        assert!(check("spool.write").is_none());
        assert_eq!(injected_total(), 0);
        assert!(active_spec().is_none());
    }

    #[test]
    fn always_fires_every_hit() {
        let _guard = serial();
        install(1, "spool.write=enospc").unwrap();
        for _ in 0..3 {
            let f = check("spool.write").expect("always fires");
            assert_eq!(f.kind, FaultKind::Enospc);
        }
        assert!(check("spool.rename").is_none(), "unconfigured points stay clean");
        assert_eq!(injected_total(), 3);
        assert_eq!(injection_counts(), vec![("spool.write".to_string(), 3, 3)]);
        uninstall();
    }

    #[test]
    fn nth_and_from_triggers() {
        let _guard = serial();
        install(1, "a=fail@#2,b=fail@#2+").unwrap();
        assert!(check("a").is_none());
        assert!(check("a").is_some());
        assert!(check("a").is_none(), "#N fires exactly once");
        assert!(check("b").is_none());
        assert!(check("b").is_some());
        assert!(check("b").is_some(), "#N+ keeps firing");
        uninstall();
    }

    #[test]
    fn one_in_n_is_seed_deterministic() {
        let _guard = serial();
        let run = |seed: u64| -> Vec<bool> {
            install(seed, "p=torn@1in3").unwrap();
            let fired = (0..64).map(|_| check("p").is_some()).collect();
            uninstall();
            fired
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seed, different schedule");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((8..=40).contains(&fires), "1in3 over 64 hits fired {fires} times");
    }

    #[test]
    fn torn_cuts_are_seeded_and_cover_the_range() {
        let _guard = serial();
        install(11, "w=torn").unwrap();
        let cuts: Vec<usize> =
            (0..32).map(|_| check("w").unwrap().cut_for(10)).collect();
        assert!(cuts.iter().all(|&c| c <= 10));
        assert!(cuts.iter().collect::<std::collections::BTreeSet<_>>().len() > 3);
        uninstall();
        install(11, "w=torn").unwrap();
        let replay: Vec<usize> =
            (0..32).map(|_| check("w").unwrap().cut_for(10)).collect();
        assert_eq!(cuts, replay, "reinstalling the same seed replays the cuts");
        uninstall();
    }

    #[test]
    fn install_replaces_and_resets() {
        let _guard = serial();
        install(1, "a=fail").unwrap();
        check("a");
        install(1, "b=fail").unwrap();
        assert_eq!(injected_total(), 0, "reinstall resets counters");
        assert!(check("a").is_none(), "old rules are gone");
        assert!(check("b").is_some());
        uninstall();
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "a",
            "a=",
            "=fail",
            "a=explode",
            "a=fail@",
            "a=fail@#0",
            "a=fail@1in0",
            "a=fail@sometimes",
            "a=fail,a=torn",
            "a=fail,,b=torn",
        ] {
            assert!(parse_spec(1, bad).is_err(), "spec `{bad}` must be rejected");
        }
        let e = parse_spec(1, "a=explode").unwrap_err();
        assert!(e.to_string().contains("explode"), "{e}");
    }

    #[test]
    fn fault_names_round_trip() {
        for kind in [
            FaultKind::Enospc,
            FaultKind::Torn,
            FaultKind::Fail,
            FaultKind::Short,
            FaultKind::Disconnect,
        ] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
    }
}
