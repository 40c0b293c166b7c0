//! Calibrated seconds: a measure against a host whose speed is not constant.
//!
//! The reference host is two vCPUs that share a core with other tenants. It
//! drifts by 10-20 % over tens of seconds, longer than a run, so no statistic
//! of one run's passes removes the drift. A fixed integer loop is therefore
//! timed before and after every pass, and the pass's wall time is scaled by
//! reference time / measured time of that loop: time is counted in seconds
//! of a host that runs the loop at the reference speed. Drift slows the loop
//! and the pass alike and cancels; a change to the program moves only the
//! pass.
//!
//! The loop itself runs 30-40 % faster whenever the sibling vCPU happens to
//! be idle. So that every reading sees the same, contended, mode, one spinner
//! thread per other vCPU runs beside the loop, and only beside it: it is
//! parked before the pass starts, so a timed pass never has a harness thread
//! for company. A reading starts only once every spinner is seen running: a
//! parked spinner's vCPU halts and is slow to come back, which otherwise
//! shows as readings 2-3x too long.
//!
//! README.md ("Estimator") has the run-to-run spread of every CPU-bound
//! workload with and without the scaling: it narrows all five. The daemon
//! workload waits on sockets and timers, not on the CPU; its times are
//! reported as measured.

use crate::host;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The unit a workload's times are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// CPU-bound: wall time scaled by the calibration readings around it.
    Calibrated,
    /// Time goes into sleeps and sockets: wall time as it is.
    AsMeasured,
}

/// Seconds the calibration loop takes on the reference host with its
/// sibling vCPU busy. Only a unit: it makes calibrated seconds read like
/// seconds there.
const REFERENCE_LOOP_S: f64 = 5.5e-3;

const LOOP_STEPS: u64 = 1_000_000;

/// Branchy integer work on a table that stays in the first-level caches:
/// xorshift steps, each reading and conditionally writing one entry.
struct Loop {
    table: Vec<u32>,
    x: u64,
}

impl Loop {
    fn new() -> Loop {
        Loop {
            table: vec![1; 1 << 14],
            x: 88_172_645_463_325_252,
        }
    }

    fn run(&mut self, steps: u64) {
        let mask = self.table.len() - 1;
        let mut x = self.x;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                self.table[i] = v.wrapping_add(x as u32);
            } else {
                self.table[(i + 7) & mask] ^= v;
            }
        }
        self.x = black_box(x);
    }
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Drop the calling thread to the lowest scheduling priority. A spinner
/// wakes on the vCPU of the thread that unparked it, the one about to time
/// the loop; at equal priority the two share that vCPU until the balancer
/// moves one (readings on `kernel_8x8` came out 1.75x too long), at the
/// lowest the loop keeps it.
fn be_nice() {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: setpriority(2) takes three integers and touches no memory; on
    // Linux `who == 0` with PRIO_PROCESS names the calling thread only.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, 19) };
}

/// What a spinner shares with the thread that directs it.
#[derive(Default)]
struct Signals {
    stop: AtomicBool,
    busy: AtomicBool,
    /// Slices of work finished: proof that the spinner is on a CPU.
    beats: AtomicU64,
}

struct Spinner {
    thread: JoinHandle<()>,
    signals: Arc<Signals>,
    /// `/proc/<pid>/task/<tid>/stat` of the spinner, for its CPU time.
    stat_path: String,
}

/// The calibration loop and the spinner threads of one run.
pub struct Steady {
    timing: Timing,
    calibration: Loop,
    spinners: Vec<Spinner>,
    /// Wall seconds this thread spent in calibration loops.
    pub calibration_s: f64,
}

impl Steady {
    pub fn new(timing: Timing) -> Steady {
        let count = match timing {
            Timing::Calibrated => host::nproc().saturating_sub(1),
            Timing::AsMeasured => 0,
        };
        let spinners = (0..count)
            .map(|_| {
                let signals = Arc::new(Signals::default());
                let (tx, rx) = std::sync::mpsc::channel();
                let thread = {
                    let signals = signals.clone();
                    std::thread::spawn(move || {
                        let task = std::fs::read_link("/proc/thread-self")
                            .map(|p| format!("/proc/{}/stat", p.display()))
                            .unwrap_or_default();
                        tx.send(task).expect("the run waits for the spinner's id");
                        be_nice();
                        let mut work = Loop::new();
                        // Acquire pairs with the Release stores in `company`
                        // and `drop`, made before the unpark.
                        while !signals.stop.load(Ordering::Acquire) {
                            if signals.busy.load(Ordering::Acquire) {
                                work.run(20_000);
                                // Relaxed: a progress counter, no other data.
                                signals.beats.fetch_add(1, Ordering::Relaxed);
                            } else {
                                std::thread::park();
                            }
                        }
                    })
                };
                Spinner {
                    thread,
                    signals,
                    stat_path: rx.recv().expect("spinner reports its id"),
                }
            })
            .collect();
        Steady {
            timing,
            calibration: Loop::new(),
            spinners,
            calibration_s: 0.0,
        }
    }

    /// Start the spinners and wait until each is seen running, or park them.
    fn company(&self, on: bool) {
        for s in &self.spinners {
            s.signals.busy.store(on, Ordering::Release);
            if on {
                s.thread.thread().unpark();
            }
        }
        if on {
            // Two more beats: the first may have been under way already.
            let give_up = Instant::now() + Duration::from_millis(50);
            for s in &self.spinners {
                let seen = s.signals.beats.load(Ordering::Relaxed);
                while s.signals.beats.load(Ordering::Relaxed) < seen + 2 && Instant::now() < give_up
                {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Time the calibration loop once, in the spinners' company, and return
    /// the host-speed factor it implies (above 1 on a faster host).
    pub fn reading(&mut self) -> f64 {
        if self.timing == Timing::AsMeasured {
            return 1.0;
        }
        self.company(true);
        let t0 = Instant::now();
        self.calibration.run(LOOP_STEPS);
        let s = t0.elapsed().as_secs_f64();
        self.company(false);
        self.calibration_s += s;
        REFERENCE_LOOP_S / s
    }

    /// CPU seconds the spinner threads have consumed so far.
    pub fn spinner_cpu_s(&self) -> f64 {
        self.spinners
            .iter()
            .map(|s| host::cpu_seconds_of(&s.stat_path))
            .sum()
    }
}

impl Drop for Steady {
    fn drop(&mut self) {
        for s in self.spinners.drain(..) {
            s.signals.stop.store(true, Ordering::Release);
            s.thread.thread().unpark();
            // A spinner cannot panic short of a bug in `Loop`; nothing to
            // salvage from it either way.
            let _ = s.thread.join();
        }
    }
}

/// Calibrated seconds of a span measured as `wall_s` between two readings.
pub fn calibrated(wall_s: f64, factor_before: f64, factor_after: f64) -> f64 {
    wall_s * (factor_before + factor_after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_spinners_stop() {
        let mut steady = Steady::new(Timing::Calibrated);
        let f = steady.reading();
        assert!(f.is_finite() && f > 0.0);
        assert!(steady.calibration_s > 0.0);
        assert!(steady.spinner_cpu_s() >= 0.0);
        drop(steady); // joins every spinner; a hang here fails the test run
    }

    #[test]
    fn waiting_workloads_are_reported_as_measured() {
        let mut steady = Steady::new(Timing::AsMeasured);
        assert_eq!(steady.reading(), 1.0);
        assert_eq!(calibrated(2.0, 1.0, 1.0), 2.0);
        // A host at half speed makes the same work take twice as long.
        assert_eq!(calibrated(2.0, 0.5, 0.5), 1.0);
    }
}
