//! Job leases: how N daemons share one spool without running the same
//! job twice (and how they deliberately do when a peer dies).
//!
//! Each job directory may hold a `LEASE` file:
//!
//! ```text
//! snnmap-lease-v1
//! owner <daemon id>
//! heartbeat_ms <unix millis of the last heartbeat>
//! ```
//!
//! The protocol, each step anchored to one atomic filesystem primitive:
//!
//! * **Acquire** — the record is written to a private temp file, then
//!   hard-linked to `LEASE`: like `O_CREAT|O_EXCL`, exactly one daemon
//!   creates the name and everyone else sees `AlreadyExists`, but no
//!   peer can ever read a `LEASE` that exists without its content.
//! * **Heartbeat** — temp + `rename` over `LEASE`: readers see the old
//!   record or the new one, never a torn timestamp.
//! * **Expire** — a lease whose heartbeat is older than the TTL marks a
//!   dead owner. An unparseable or empty `LEASE` (a damaged spool, or
//!   one written by a daemon that created the file before writing it)
//!   reads as heartbeat 0 — expired from birth, claimable by anyone.
//! * **Steal** — `rename(LEASE, LEASE.stale)` first: of N daemons
//!   racing to take over, exactly one rename succeeds (the others get
//!   `NotFound`), and the winner re-enters the ordinary acquire, whose
//!   link stays the sole ownership arbiter.
//!
//! The worst interleaving — two daemons both believing they own a job
//! for one heartbeat interval — is *benign* here: mapping is
//! deterministic, both compute byte-identical placements, and every
//! spool write is atomic, so the second writer replaces equal bytes
//! with equal bytes. Leases exist to avoid wasted work and takeover
//! storms, not to guard correctness; determinism guards correctness.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const FORMAT: &str = "snnmap-lease-v1";

/// A parsed `LEASE` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeaseInfo {
    pub owner: String,
    pub heartbeat_ms: u64,
}

impl LeaseInfo {
    /// Whether the owner has missed its heartbeat by more than `ttl`.
    pub fn is_expired(&self, ttl: Duration) -> bool {
        now_ms().saturating_sub(self.heartbeat_ms) > ttl.as_millis() as u64
    }
}

/// What [`acquire_or_steal`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Acquire {
    /// We own the lease (fresh, re-entered, or refreshed).
    Acquired,
    /// We own it after evicting an expired peer's lease.
    Stolen {
        /// The dead peer's daemon id.
        from: String,
    },
    /// A live peer owns it; try again after its TTL.
    Held,
}

pub(crate) fn lease_path(job_dir: &Path) -> PathBuf {
    job_dir.join("LEASE")
}

/// Unix time in milliseconds (0 if the clock is before the epoch).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

fn render(owner: &str) -> String {
    format!("{FORMAT}\nowner {owner}\nheartbeat_ms {}\n", now_ms())
}

/// Reads the lease, if any. A present-but-garbled file parses as an
/// expired lease (owner `""`, heartbeat 0) rather than `None`, so it is
/// stolen through the same rename arbitration instead of being treated
/// as free (two daemons treating garbage as free would both
/// fail to link and deadlock on it).
pub(crate) fn read(job_dir: &Path) -> Option<LeaseInfo> {
    let text = fs::read_to_string(lease_path(job_dir)).ok()?;
    Some(parse(&text).unwrap_or(LeaseInfo { owner: String::new(), heartbeat_ms: 0 }))
}

fn parse(text: &str) -> Option<LeaseInfo> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT {
        return None;
    }
    let owner = lines.next()?.strip_prefix("owner ")?.to_string();
    let heartbeat_ms = lines.next()?.strip_prefix("heartbeat_ms ")?.parse().ok()?;
    Some(LeaseInfo { owner, heartbeat_ms })
}

/// Tries to create the lease. `Ok(true)` = we own it now; `Ok(false)` =
/// someone else holds it.
///
/// Create-then-write would expose an empty `LEASE` between the two
/// steps, which a racing stealer reads as expired and steals from under
/// its creator; linking a fully written temp file into place leaves no
/// such window. The temp name is unique per process and call, and ends
/// in `.tmp` so a crash's leftover is swept at bind.
pub(crate) fn try_acquire(job_dir: &Path, owner: &str) -> io::Result<bool> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if snnmap_chaos::check("lease.acquire").is_some() {
        return Err(io::Error::other("injected lease-acquire failure"));
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = job_dir.join(format!("LEASE.{}-{seq}.tmp", std::process::id()));
    fs::write(&tmp, render(owner))?;
    let linked = fs::hard_link(&tmp, lease_path(job_dir));
    let _ = fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Refreshes our heartbeat. `Ok(false)` means the lease is no longer
/// ours (a peer stole it after deciding we were dead — benign, see the
/// module docs); `Ok(true)` means the new timestamp landed atomically.
pub(crate) fn heartbeat(job_dir: &Path, owner: &str) -> io::Result<bool> {
    match read(job_dir) {
        Some(info) if info.owner == owner => {}
        _ => return Ok(false),
    }
    let path = lease_path(job_dir);
    let tmp = job_dir.join("LEASE.hb");
    snnmap_chaos::cfs::write("lease.heartbeat", &tmp, render(owner).as_bytes())?;
    snnmap_chaos::cfs::rename("lease.heartbeat", &tmp, &path)?;
    Ok(true)
}

/// Drops the lease if we still own it. Best-effort: a missing or stolen
/// lease is already the state we wanted.
pub(crate) fn release(job_dir: &Path, owner: &str) {
    if read(job_dir).is_some_and(|info| info.owner == owner) {
        let _ = fs::remove_file(lease_path(job_dir));
    }
}

/// The full acquisition protocol: acquire a free lease, re-enter one we
/// already own, or steal an expired one (rename-arbitrated).
pub(crate) fn acquire_or_steal(
    job_dir: &Path,
    owner: &str,
    ttl: Duration,
) -> io::Result<Acquire> {
    if try_acquire(job_dir, owner)? {
        return Ok(Acquire::Acquired);
    }
    let Some(info) = read(job_dir) else {
        // Released between our acquire and read; next pass gets it.
        return Ok(Acquire::Held);
    };
    if info.owner == owner {
        // Ours from a previous run (same daemon id across a restart).
        heartbeat(job_dir, owner)?;
        return Ok(Acquire::Acquired);
    }
    if !info.is_expired(ttl) {
        return Ok(Acquire::Held);
    }
    // Expired: exactly one of the racing daemons wins this rename.
    let stale = job_dir.join("LEASE.stale");
    if fs::rename(lease_path(job_dir), &stale).is_err() {
        return Ok(Acquire::Held);
    }
    // ABA guard: between our read and our rename, a faster stealer may
    // have completed its takeover and written a *fresh* lease — which we
    // just renamed away. Check that what we moved is the expired record
    // we decided to evict; if not, put it back and yield.
    let moved = fs::read_to_string(&stale).ok().and_then(|t| parse(&t));
    if moved.as_ref() != Some(&info) && !(moved.is_none() && info.heartbeat_ms == 0) {
        let _ = fs::rename(&stale, lease_path(job_dir));
        return Ok(Acquire::Held);
    }
    let _ = fs::remove_file(&stale);
    if try_acquire(job_dir, owner)? {
        Ok(Acquire::Stolen { from: info.owner })
    } else {
        // A third daemon slipped its acquire in first; it owns it.
        Ok(Acquire::Held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snnmap_lease_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_is_exclusive_and_release_frees() {
        let dir = temp_dir("exclusive");
        assert!(try_acquire(&dir, "a").unwrap());
        assert!(!try_acquire(&dir, "b").unwrap(), "second daemon must lose");
        let info = read(&dir).unwrap();
        assert_eq!(info.owner, "a");
        assert!(info.heartbeat_ms > 0);
        release(&dir, "b");
        assert!(read(&dir).is_some(), "non-owner release is a no-op");
        release(&dir, "a");
        assert!(read(&dir).is_none());
        assert!(try_acquire(&dir, "b").unwrap(), "released lease is acquirable");
    }

    #[test]
    fn heartbeat_advances_only_for_the_owner() {
        let dir = temp_dir("heartbeat");
        assert!(try_acquire(&dir, "a").unwrap());
        let before = read(&dir).unwrap().heartbeat_ms;
        std::thread::sleep(Duration::from_millis(5));
        assert!(heartbeat(&dir, "a").unwrap());
        assert!(read(&dir).unwrap().heartbeat_ms > before);
        assert!(!heartbeat(&dir, "b").unwrap(), "a non-owner must not refresh");
        assert_eq!(read(&dir).unwrap().owner, "a");
    }

    #[test]
    fn expiry_and_steal() {
        let dir = temp_dir("steal");
        assert!(try_acquire(&dir, "dead").unwrap());
        let ttl = Duration::from_millis(30);
        assert_eq!(acquire_or_steal(&dir, "b", ttl).unwrap(), Acquire::Held);
        std::thread::sleep(Duration::from_millis(60));
        assert!(read(&dir).unwrap().is_expired(ttl));
        assert_eq!(
            acquire_or_steal(&dir, "b", ttl).unwrap(),
            Acquire::Stolen { from: "dead".to_string() }
        );
        assert_eq!(read(&dir).unwrap().owner, "b");
        // Re-entry by the new owner refreshes rather than steals.
        assert_eq!(acquire_or_steal(&dir, "b", ttl).unwrap(), Acquire::Acquired);
    }

    #[test]
    fn garbled_lease_reads_as_expired_and_is_stolen() {
        let dir = temp_dir("garbled");
        fs::write(lease_path(&dir), "not a lease at all").unwrap();
        let info = read(&dir).unwrap();
        assert_eq!(info.owner, "");
        assert!(info.is_expired(Duration::from_secs(3600)));
        assert_eq!(
            acquire_or_steal(&dir, "b", Duration::from_secs(1)).unwrap(),
            Acquire::Stolen { from: String::new() }
        );
        assert_eq!(read(&dir).unwrap().owner, "b");
    }

    #[test]
    fn empty_lease_from_a_crashed_create_is_claimable() {
        let dir = temp_dir("empty");
        // A damaged spool, or a daemon that created the file before
        // writing it, leaves this.
        fs::write(lease_path(&dir), "").unwrap();
        assert_eq!(
            acquire_or_steal(&dir, "b", Duration::from_secs(1)).unwrap(),
            Acquire::Stolen { from: String::new() }
        );
    }

    #[test]
    fn racing_stealers_elect_exactly_one_winner() {
        let dir = temp_dir("race");
        assert!(try_acquire(&dir, "dead").unwrap());
        // Force expiry without sleeping: rewrite with heartbeat 0.
        fs::write(lease_path(&dir), format!("{FORMAT}\nowner dead\nheartbeat_ms 0\n")).unwrap();
        // A TTL far longer than the test: the winner's fresh lease must
        // not expire while the losers are still racing, so the test checks
        // the steal election and not timing.
        let ttl = Duration::from_secs(60);
        let winners: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let dir = dir.clone();
                    s.spawn(move || {
                        let me = format!("daemon-{i}");
                        match acquire_or_steal(&dir, &me, ttl).unwrap() {
                            Acquire::Stolen { .. } | Acquire::Acquired => Some(me),
                            Acquire::Held => None,
                        }
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.len(), 1, "exactly one stealer may win, got {winners:?}");
        assert_eq!(read(&dir).unwrap().owner, winners[0]);
    }
}
