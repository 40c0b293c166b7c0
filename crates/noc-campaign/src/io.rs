//! The storage-layer fault seam: every durable write the campaign engine
//! performs (cache entries, advisory claims — and, one crate up, the
//! daemon's queue journal) goes through an [`IoPolicy`].
//!
//! In production the policy is [`NoFaults`] and this module is nothing but
//! a retry loop around `write` + `rename` (or one appending `write`). Under
//! test, `noc-chaos` installs a seeded policy that injects the fault
//! classes a real deployment sees — transient `EIO`/`ENOSPC`, torn (short)
//! writes, bit-flipped records, delayed claim acquisition — and the
//! hardening here is what makes the system survive them:
//!
//! * **capped exponential backoff** — a store attempt that fails with any
//!   I/O error is retried up to [`MAX_IO_RETRIES`] times with
//!   [`backoff_delay`] between attempts, so transient conditions (full
//!   disk being cleaned, interrupted syscalls) self-heal;
//! * **corruption stays silent at write time by design** — a torn or
//!   bit-flipped payload *lands*; detection belongs to the read side
//!   (checksum + identity check in [`crate::cache`]), mirroring how real
//!   bit-rot is only observable on load. The policy's [`IoPolicy::on_detected`]
//!   hook closes the loop so a fault harness can prove every injected
//!   corruption was eventually caught, never served.
//!
//! The seam is deliberately tiny — one decision per store attempt, one
//! observation per outcome — so threading it through a call site costs a
//! single extra argument.

use std::borrow::Cow;
use std::fmt::Debug;
use std::fs::File;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Which durable operation is about to run (the policy's dispatch key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A result-cache entry store (`<cache>/<key>.json`).
    CacheStore,
    /// A daemon queue-journal store: one record appended to `journal.log`,
    /// or the one compaction of that log when a daemon loads it.
    JournalStore,
    /// An advisory claim acquisition (`<cache>/locks/<key>.lock`).
    Claim,
}

impl IoOp {
    pub fn name(self) -> &'static str {
        match self {
            IoOp::CacheStore => "cache-store",
            IoOp::JournalStore => "journal-store",
            IoOp::Claim => "claim",
        }
    }
}

/// One fault a policy may inflict on one attempt of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The attempt fails outright with this error kind (transient `EIO`,
    /// `ENOSPC`, ...). The retry loop decides whether to try again.
    Error(ErrorKind),
    /// Torn write: only the first `n` bytes of the payload land, then the
    /// rename *succeeds* — the classic power-cut shape. The caller is told
    /// the store worked; only a later load can notice.
    Truncate(usize),
    /// One bit of the payload is flipped (silent media corruption). The
    /// salt picks which: `offset = len/2 + salt % (len - len/2)`, `bit =
    /// (salt >> 32) % 8`. Offsets are confined to the second half of the
    /// payload so a flip always lands in checksummed content — flipping a
    /// cache entry's leading version-salt field would be indistinguishable
    /// from an ordinary stale entry (a quiet miss), which a fault harness
    /// could never account for.
    BitFlip(u64),
    /// The operation is stalled for this long, then proceeds normally
    /// (contended lock directory, slow NFS). Never an error.
    Delay(Duration),
}

/// The injection seam. Implementations must be cheap and thread-safe: the
/// executor consults the policy from every worker thread.
pub trait IoPolicy: Send + Sync + Debug {
    /// Fault to inject into `attempt` (1-based) of `op` on `path`, or
    /// `None` to let the attempt run clean.
    fn inject(&self, op: IoOp, path: &Path, attempt: u32) -> Option<IoFault>;

    /// `op` on `path` completed (possibly with an injected corruption that
    /// the caller could not see) at `attempt`.
    fn on_success(&self, op: IoOp, path: &Path, attempt: u32) {
        let _ = (op, path, attempt);
    }

    /// A stored record at `path` failed its read-side integrity checks
    /// (unparseable, checksum mismatch, identity mismatch) and was degraded
    /// to a cache miss.
    fn on_detected(&self, path: &Path) {
        let _ = path;
    }
}

/// The production policy: no faults, no delays, no bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl IoPolicy for NoFaults {
    fn inject(&self, _op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
        None
    }
}

/// A fresh handle to the production policy.
pub fn no_faults() -> Arc<dyn IoPolicy> {
    Arc::new(NoFaults)
}

/// Store attempts beyond the first: attempt `1 + MAX_IO_RETRIES` is the
/// last. Any chaos plan's transient-error bursts must stay within this
/// budget or the store (correctly) gives up and surfaces the error.
pub const MAX_IO_RETRIES: u32 = 4;

/// Capped exponential backoff before retrying a failed store attempt:
/// 1 ms, 2 ms, 4 ms, 8 ms, ... capped at 20 ms. Small absolute values —
/// this throttles same-process retry storms, it does not paper over an
/// unavailable disk (the cap keeps a hopeless store under ~100 ms total).
pub fn backoff_delay(attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(5);
    Duration::from_millis((1u64 << exp).min(20))
}

/// Atomically store `bytes` at `dst` via `tmp` + rename, consulting
/// `policy` per attempt and retrying failures with capped exponential
/// backoff. Returns the number of attempts used, or the final error once
/// the retry budget is exhausted. Injected corruption ([`IoFault::Truncate`],
/// [`IoFault::BitFlip`]) "succeeds" — exactly like the real thing.
pub fn store_atomic(
    policy: &dyn IoPolicy,
    op: IoOp,
    tmp: &Path,
    dst: &Path,
    bytes: &[u8],
) -> std::io::Result<u32> {
    with_retries(policy, op, dst, bytes, |payload| {
        let stored = std::fs::write(tmp, payload).and_then(|()| std::fs::rename(tmp, dst));
        if stored.is_err() {
            let _ = std::fs::remove_file(tmp);
        }
        stored
    })
}

/// Append `bytes` — one self-delimiting record — to the log `file` opened
/// at `path`, with one `write` per attempt and [`store_atomic`]'s retry,
/// backoff and fault semantics: an injected [`IoFault::Error`] writes
/// nothing and is retried, a torn or bit-flipped record lands and reports
/// success. A real write that fails part-way leaves a fragment behind and
/// the retry appends the whole record after it, so the record's framing
/// must let a reader skip the fragment.
pub fn append_record(
    policy: &dyn IoPolicy,
    op: IoOp,
    file: &mut File,
    path: &Path,
    bytes: &[u8],
) -> std::io::Result<u32> {
    with_retries(policy, op, path, bytes, |payload| file.write_all(payload))
}

/// The retry loop both stores share: one policy decision per attempt,
/// `write` handed the (possibly corrupted) payload, capped backoff between
/// failed attempts, `on_success` once.
fn with_retries(
    policy: &dyn IoPolicy,
    op: IoOp,
    path: &Path,
    bytes: &[u8],
    mut write: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<u32> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result =
            faulted(policy.inject(op, path, attempt), bytes).and_then(|payload| write(&payload));
        match result {
            Ok(()) => {
                policy.on_success(op, path, attempt);
                return Ok(attempt);
            }
            Err(e) => {
                if attempt > MAX_IO_RETRIES {
                    return Err(e);
                }
                std::thread::sleep(backoff_delay(attempt));
            }
        }
    }
}

/// What one attempt writes under `fault`: the payload, a torn or flipped
/// copy of it, or an error.
fn faulted(fault: Option<IoFault>, bytes: &[u8]) -> std::io::Result<Cow<'_, [u8]>> {
    Ok(match fault {
        Some(IoFault::Error(kind)) => {
            return Err(std::io::Error::new(kind, "injected fault"));
        }
        Some(IoFault::Truncate(n)) => Cow::Borrowed(&bytes[..n.min(bytes.len())]),
        Some(IoFault::BitFlip(salt)) if !bytes.is_empty() => {
            let mut corrupted = bytes.to_vec();
            let half = corrupted.len() / 2;
            let offset = half + (salt % (corrupted.len() - half) as u64) as usize;
            corrupted[offset] ^= 1 << ((salt >> 32) % 8);
            Cow::Owned(corrupted)
        }
        Some(IoFault::Delay(d)) => {
            std::thread::sleep(d);
            Cow::Borrowed(bytes)
        }
        Some(IoFault::BitFlip(_)) | None => Cow::Borrowed(bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-io-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Policy scripted per attempt number.
    #[derive(Debug)]
    struct Scripted {
        faults: Mutex<Vec<Option<IoFault>>>, // popped front per attempt
        successes: AtomicU32,
    }

    impl Scripted {
        fn new(faults: Vec<Option<IoFault>>) -> Scripted {
            Scripted {
                faults: Mutex::new(faults),
                successes: AtomicU32::new(0),
            }
        }
    }

    impl IoPolicy for Scripted {
        fn inject(&self, _op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
            let mut f = self.faults.lock().unwrap();
            if f.is_empty() {
                None
            } else {
                f.remove(0)
            }
        }

        fn on_success(&self, _op: IoOp, _path: &Path, _attempt: u32) {
            self.successes.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn transient_errors_are_retried_with_backoff_until_success() {
        let dir = scratch("retry");
        let p = Scripted::new(vec![
            Some(IoFault::Error(ErrorKind::Other)),
            Some(IoFault::Error(ErrorKind::StorageFull)),
            None,
        ]);
        let attempts = store_atomic(
            &p,
            IoOp::CacheStore,
            &dir.join("t.tmp"),
            &dir.join("t.json"),
            b"payload",
        )
        .expect("third attempt lands");
        assert_eq!(attempts, 3);
        assert_eq!(std::fs::read(dir.join("t.json")).unwrap(), b"payload");
        assert_eq!(p.successes.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let dir = scratch("budget");
        let p = Scripted::new(vec![Some(IoFault::Error(ErrorKind::Other)); 10]);
        let err = store_atomic(
            &p,
            IoOp::CacheStore,
            &dir.join("t.tmp"),
            &dir.join("t.json"),
            b"x",
        )
        .expect_err("every attempt fails");
        assert_eq!(err.kind(), ErrorKind::Other);
        assert!(!dir.join("t.json").exists(), "no partial entry left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_bitflipped_writes_land_silently() {
        let dir = scratch("corrupt");
        let p = Scripted::new(vec![Some(IoFault::Truncate(3))]);
        let attempts = store_atomic(
            &p,
            IoOp::CacheStore,
            &dir.join("a.tmp"),
            &dir.join("a.json"),
            b"0123456789",
        )
        .expect("torn write reports success");
        assert_eq!(attempts, 1);
        assert_eq!(std::fs::read(dir.join("a.json")).unwrap(), b"012");

        let p = Scripted::new(vec![Some(IoFault::BitFlip(0))]);
        store_atomic(
            &p,
            IoOp::CacheStore,
            &dir.join("b.tmp"),
            &dir.join("b.json"),
            b"0123456789",
        )
        .expect("bit flip reports success");
        let stored = std::fs::read(dir.join("b.json")).unwrap();
        assert_ne!(stored, b"0123456789");
        assert_eq!(stored.len(), 10);
        assert_eq!(
            stored
                .iter()
                .zip(b"0123456789")
                .filter(|(a, b)| a != b)
                .count(),
            1,
            "exactly one byte differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn append_log(dir: &Path) -> (PathBuf, File) {
        let path = dir.join("t.log");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    #[test]
    fn appended_records_retry_errors_within_the_budget_and_give_up_beyond_it() {
        let dir = scratch("append-retry");
        let (path, mut file) = append_log(&dir);
        let burst = |n: usize| vec![Some(IoFault::Error(ErrorKind::Other)); n];

        let p = Scripted::new(burst(MAX_IO_RETRIES as usize));
        let attempts = append_record(&p, IoOp::JournalStore, &mut file, &path, b"one\n")
            .expect("the attempt after the burst lands");
        assert_eq!(attempts, MAX_IO_RETRIES + 1);
        assert_eq!(p.successes.load(Ordering::Relaxed), 1);

        let p = Scripted::new(burst(MAX_IO_RETRIES as usize + 1));
        let err = append_record(&p, IoOp::JournalStore, &mut file, &path, b"two\n")
            .expect_err("every attempt fails");
        assert_eq!(err.kind(), ErrorKind::Other);
        assert_eq!(p.successes.load(Ordering::Relaxed), 0);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"one\n",
            "a failed attempt writes nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_records_land_torn_flipped_or_delayed_and_report_success() {
        let dir = scratch("append-corrupt");
        let (path, mut file) = append_log(&dir);
        let p = Scripted::new(vec![
            Some(IoFault::Truncate(3)),
            Some(IoFault::BitFlip(0)),
            Some(IoFault::Delay(Duration::from_millis(1))),
            None,
        ]);
        for record in [&b"0123456789"[..], b"abcdefghij", b"KLMNOPQRST", b"uvwxyz"] {
            let attempts = append_record(&p, IoOp::JournalStore, &mut file, &path, record)
                .expect("corruption is silent at write time");
            assert_eq!(attempts, 1);
        }
        assert_eq!(p.successes.load(Ordering::Relaxed), 4, "once per record");
        // Torn to three bytes; bit 0 of byte 5 flipped ('f' -> 'g'); the
        // delayed and the clean record whole, each after the one before.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"012abcdegghijKLMNOPQRSTuvwxyz"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_capped() {
        assert_eq!(backoff_delay(1), Duration::from_millis(1));
        assert_eq!(backoff_delay(2), Duration::from_millis(2));
        assert_eq!(backoff_delay(4), Duration::from_millis(8));
        assert_eq!(backoff_delay(60), Duration::from_millis(20));
    }
}
