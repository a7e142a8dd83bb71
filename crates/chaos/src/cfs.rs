//! Chaos-aware filesystem seam.
//!
//! Production code routes its spool/checkpoint I/O through these
//! wrappers instead of `std::fs`. With no schedule installed each call
//! is one relaxed atomic load plus the real `std::fs` call; with a
//! schedule armed, the named failpoint can turn the call into a disk
//! realistically misbehaving: `enospc` before any byte lands, `torn`
//! persisting a seeded prefix, `fail`/`disconnect` erroring outright,
//! `short` handing back truncated-but-valid reads.

use std::fs;
use std::io;
use std::path::Path;

use crate::{check, Fault, FaultKind};

/// `ENOSPC` the way the kernel reports it, so callers exercising
/// `raw_os_error` / `ErrorKind` mapping see the real thing.
fn enospc() -> io::Error {
    #[cfg(unix)]
    {
        io::Error::from_raw_os_error(28)
    }
    #[cfg(not(unix))]
    {
        io::Error::other("injected ENOSPC: no space left on device")
    }
}

fn injected(fp: &str, what: &str) -> io::Error {
    io::Error::other(format!("injected {what} at failpoint `{fp}`"))
}

/// `fs::write` behind the failpoint `fp`.
///
/// `torn` writes the seeded prefix and then errors — exactly the state
/// a crash mid-`write(2)` leaves behind. `enospc` and `fail` error
/// before any byte lands.
pub fn write(fp: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(fault) = check(fp) {
        match fault.kind {
            FaultKind::Enospc => return Err(enospc()),
            FaultKind::Torn => {
                fs::write(path, &bytes[..fault.cut_for(bytes.len())])?;
                return Err(injected(fp, "torn write"));
            }
            FaultKind::Fail | FaultKind::Short | FaultKind::Disconnect => {
                return Err(injected(fp, "write failure"));
            }
        }
    }
    fs::write(path, bytes)
}

/// `fs::rename` behind the failpoint `fp`. A rename is atomic on POSIX,
/// so every injected fault leaves the target untouched: the fault model
/// is "the rename did not happen", never "half a rename".
pub fn rename(fp: &str, from: &Path, to: &Path) -> io::Result<()> {
    if let Some(fault) = check(fp) {
        let what = match fault.kind {
            FaultKind::Enospc => return Err(enospc()),
            _ => "rename failure",
        };
        return Err(injected(fp, what));
    }
    fs::rename(from, to)
}

/// `fs::read_to_string` behind the failpoint `fp`.
///
/// `short` and `torn` return `Ok` with a seeded prefix (clipped to a
/// char boundary) — the dangerous case, because the caller sees no
/// error and must reject the content on its own. Other faults error.
pub fn read_to_string(fp: &str, path: &Path) -> io::Result<String> {
    let fault = check(fp);
    match fault {
        Some(Fault { kind: FaultKind::Short | FaultKind::Torn, .. }) => {
            let mut text = fs::read_to_string(path)?;
            let fault = fault.expect("matched Some above");
            let mut cut = fault.cut_for(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            Ok(text)
        }
        Some(Fault { kind: FaultKind::Enospc, .. }) => Err(enospc()),
        Some(_) => Err(injected(fp, "read failure")),
        None => fs::read_to_string(path),
    }
}

/// `fs::create_dir` behind the failpoint `fp`. Injected faults map to
/// "the directory was not created".
pub fn create_dir(fp: &str, path: &Path) -> io::Result<()> {
    if let Some(fault) = check(fp) {
        if fault.kind == FaultKind::Enospc {
            return Err(enospc());
        }
        return Err(injected(fp, "mkdir failure"));
    }
    fs::create_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_serial as serial;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("snnmap_chaos_cfs");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn passthrough_when_disabled() {
        let _guard = serial();
        crate::uninstall();
        let path = tmp("plain.txt");
        write("spool.write", &path, b"hello").unwrap();
        assert_eq!(read_to_string("spool.read", &path).unwrap(), "hello");
        let to = tmp("plain2.txt");
        rename("spool.rename", &path, &to).unwrap();
        assert_eq!(fs::read_to_string(&to).unwrap(), "hello");
        fs::remove_file(&to).unwrap();
    }

    #[test]
    fn enospc_leaves_no_bytes() {
        let _guard = serial();
        crate::install(3, "w=enospc").unwrap();
        let path = tmp("enospc.txt");
        let _ = fs::remove_file(&path);
        let e = write("w", &path, b"payload").unwrap_err();
        #[cfg(unix)]
        assert_eq!(e.raw_os_error(), Some(28), "{e}");
        assert!(!path.exists(), "ENOSPC must not create the file");
        crate::uninstall();
    }

    #[test]
    fn torn_write_persists_a_prefix_then_errors() {
        let _guard = serial();
        crate::install(9, "w=torn").unwrap();
        let payload = b"0123456789abcdef";
        let path = tmp("torn.txt");
        let e = write("w", &path, payload).unwrap_err();
        assert!(e.to_string().contains("torn"), "{e}");
        let on_disk = fs::read(&path).unwrap();
        assert!(on_disk.len() <= payload.len());
        assert_eq!(&payload[..on_disk.len()], &on_disk[..], "prefix, not garbage");
        crate::uninstall();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_read_truncates_on_char_boundary() {
        let _guard = serial();
        let path = tmp("short.txt");
        fs::write(&path, "héllo wörld, héllo wörld").unwrap();
        crate::install(5, "r=short").unwrap();
        for _ in 0..32 {
            let text = read_to_string("r", &path).unwrap();
            assert!("héllo wörld, héllo wörld".starts_with(&text));
        }
        crate::uninstall();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_rename_leaves_source_intact() {
        let _guard = serial();
        let from = tmp("ren_src.txt");
        let to = tmp("ren_dst.txt");
        fs::write(&from, "data").unwrap();
        let _ = fs::remove_file(&to);
        crate::install(2, "mv=fail").unwrap();
        assert!(rename("mv", &from, &to).is_err());
        assert!(from.exists() && !to.exists(), "failed rename moves nothing");
        crate::uninstall();
        fs::remove_file(&from).unwrap();
    }

    #[test]
    fn create_dir_fault() {
        let _guard = serial();
        let dir = tmp("newdir");
        let _ = fs::remove_dir(&dir);
        crate::install(4, "mk=fail").unwrap();
        assert!(create_dir("mk", &dir).is_err());
        assert!(!dir.exists());
        crate::uninstall();
        create_dir("mk", &dir).unwrap();
        fs::remove_dir(&dir).unwrap();
    }
}
