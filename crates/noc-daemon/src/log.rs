//! The daemon's log: `[daemon]` lines on stderr, written a batch at a time.
//!
//! A line written straight to stderr is a system call and — stderr being a
//! pipe wherever a supervisor, a CI step or a test harness collects it — a
//! wake-up of whoever reads the other end, on the host the daemon shares
//! with it. At a few hundred warm jobs a second and two lines a job that
//! cost a fifth to a quarter of the control plane's throughput on the
//! two-vCPU reference host (EXPERIMENTS.md, "PR 21"). So a line is
//! appended to a buffer, and a writer thread puts out what gathered since
//! the first unwritten line, [`GATHER`] after it, with one write.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the first unwritten line waits for company: the most a line is
/// late, and the reciprocal of the most writes a second.
const GATHER: Duration = Duration::from_millis(20);

struct Pending {
    /// Unwritten lines, and whether the log is closed. A leaf lock, held
    /// for a push or a take and never across a write, so a line may be
    /// logged under the daemon's queue lock — where its place among the
    /// other lines is decided.
    lines: Mutex<(String, bool)>,
    wake: Condvar,
    /// Held from taking a batch until it is written: batches leave in the
    /// order their lines were logged.
    out: Mutex<()>,
}

impl Pending {
    fn write_out(&self) {
        let _out = self.out.lock().expect("a logger panicked");
        let text = std::mem::take(&mut self.lines.lock().expect("a logger panicked").0);
        if !text.is_empty() {
            // As `eprintln!`, but a log that cannot be written is no reason
            // to stop serving.
            let _ = std::io::stderr().lock().write_all(text.as_bytes());
        }
    }
}

pub(crate) struct Log {
    pending: Arc<Pending>,
    writer: Option<JoinHandle<()>>,
}

impl Log {
    pub(crate) fn start() -> std::io::Result<Log> {
        let pending = Arc::new(Pending {
            lines: Mutex::new((String::new(), false)),
            wake: Condvar::new(),
            out: Mutex::new(()),
        });
        let shared = pending.clone();
        let writer = std::thread::Builder::new()
            .name("noc-daemon-log".into())
            .spawn(move || loop {
                let lines = shared.lines.lock().expect("a logger panicked");
                let lines = shared
                    .wake
                    .wait_while(lines, |(text, closed)| text.is_empty() && !*closed)
                    .expect("a logger panicked");
                // Let more lines gather; closing the log cuts it short.
                let (lines, _) = shared
                    .wake
                    .wait_timeout_while(lines, GATHER, |(_, closed)| !*closed)
                    .expect("a logger panicked");
                let closed = lines.1;
                drop(lines);
                shared.write_out();
                if closed {
                    return;
                }
            })?;
        Ok(Log {
            pending,
            writer: Some(writer),
        })
    }

    /// Log `text`: one or more whole lines, each ending in a newline.
    pub(crate) fn lines(&self, text: &str) {
        let mut lines = self.pending.lines.lock().expect("a logger panicked");
        if lines.0.is_empty() {
            self.pending.wake.notify_one();
        }
        lines.0.push_str(text);
    }

    /// Write out everything logged so far, on the calling thread.
    pub(crate) fn flush(&self) {
        self.pending.write_out();
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        if let Ok(mut lines) = self.pending.lines.lock() {
            lines.1 = true;
        }
        self.pending.wake.notify_one();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}
