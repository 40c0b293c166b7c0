//! Seeded, deterministic chaos plans over the campaign storage seam.
//!
//! A [`ChaosPlan`] implements [`noc_campaign::io::IoPolicy`] and decides,
//! for every durable store and claim the engine performs, whether to
//! inflict a fault — a transient `EIO`/`ENOSPC` burst, a torn (short)
//! write, a flipped bit, or a stalled claim. Two properties make the plan
//! a *harness* rather than a fuzzer:
//!
//! * **determinism** — every decision is a pure hash of
//!   `(seed, operation, file name, store occurrence)`, so the same seed
//!   injects the same faults into the same entries regardless of worker
//!   count or thread interleaving;
//! * **convergence** — error bursts are bounded within the engine's retry
//!   budget ([`MAX_IO_RETRIES`]), and corruption fires only on a path's
//!   *first* store, so a detected-and-rerun entry lands clean. A chaos run
//!   therefore always terminates with correct aggregates if (and only if)
//!   the hardening works.
//!
//! Every injection is recorded in a ledger with its eventual
//! [`Resolution`], which is how the soak driver proves no fault was
//! silently dropped: errors must end [`Resolution::RetriedOk`], corruption
//! must end [`Resolution::Detected`] (read-side checksum/identity checks
//! degraded it to a miss), delays are [`Resolution::Benign`] by nature.

use noc_campaign::fnv1a64;
use noc_campaign::io::{IoFault, IoOp, IoPolicy, MAX_IO_RETRIES};
use serde::Serialize;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fault mix of one plan. Rates are per-mille per store target (a fresh
/// hash roll per path occurrence), so independent entries fault
/// independently and a whole campaign sees every class at the defaults.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: same seed, same faults, every time.
    pub seed: u64,
    /// ‰ of stores hit by a transient `EIO`-style error burst.
    pub eio_permille: u32,
    /// ‰ of stores hit by a transient `ENOSPC` burst.
    pub enospc_permille: u32,
    /// ‰ of first stores torn short (truncated payload, successful rename).
    pub torn_permille: u32,
    /// ‰ of first stores with one bit flipped in the stored record.
    pub bitflip_permille: u32,
    /// ‰ of claim acquisitions stalled by [`ChaosConfig::claim_delay_ms`].
    pub claim_delay_permille: u32,
    pub claim_delay_ms: u64,
    /// Longest injected consecutive-error burst. Clamped to
    /// [`MAX_IO_RETRIES`] so the retry loop always wins eventually.
    pub max_error_burst: u32,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            eio_permille: 150,
            enospc_permille: 100,
            torn_permille: 150,
            bitflip_permille: 150,
            claim_delay_permille: 200,
            claim_delay_ms: 20,
            max_error_burst: MAX_IO_RETRIES,
        }
    }
}

/// What eventually happened to one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Injected; outcome not yet observed. A report with pending entries
    /// means a fault was silently dropped — the soak fails on it.
    Pending,
    /// A transient error burst that a later attempt of the same store
    /// survived.
    RetriedOk,
    /// A corrupted record the read side caught and degraded to a miss.
    Detected,
    /// A delay: slows things down, cannot corrupt anything.
    Benign,
}

/// One ledger entry: a fault that was actually inflicted.
#[derive(Debug, Clone)]
pub struct Injection {
    pub op: &'static str,
    pub path: PathBuf,
    /// "eio", "enospc", "torn", "bitflip" or "claim-delay".
    pub kind: &'static str,
    pub resolution: Resolution,
}

/// Ledger roll-up, serialized into soak reports.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LedgerSummary {
    pub errors: u64,
    pub torn: u64,
    pub bitflips: u64,
    pub claim_delays: u64,
    pub retried_ok: u64,
    pub detected: u64,
    pub pending: u64,
}

/// A seeded fault-injection policy plus its injection ledger.
#[derive(Debug)]
pub struct ChaosPlan {
    cfg: ChaosConfig,
    armed: AtomicBool,
    /// Store count per target path (the "occurrence" axis of decisions).
    occurrences: Mutex<HashMap<PathBuf, u32>>,
    ledger: Mutex<Vec<Injection>>,
}

impl ChaosPlan {
    pub fn new(cfg: ChaosConfig) -> ChaosPlan {
        ChaosPlan {
            cfg,
            armed: AtomicBool::new(true),
            occurrences: Mutex::new(HashMap::new()),
            ledger: Mutex::new(Vec::new()),
        }
    }

    /// Stop injecting (detection hooks stay live). The soak's resume phase
    /// runs disarmed over the damaged cache so every corrupt entry must be
    /// caught by the read side, not overwritten by fresh chaos.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    fn record(&self, op: IoOp, path: &Path, kind: &'static str, resolution: Resolution) {
        self.ledger.lock().unwrap().push(Injection {
            op: op.name(),
            path: path.to_path_buf(),
            kind,
            resolution,
        });
    }

    /// Ledger totals by class and resolution.
    pub fn summary(&self) -> LedgerSummary {
        let ledger = self.ledger.lock().unwrap();
        let mut s = LedgerSummary::default();
        for inj in ledger.iter() {
            match inj.kind {
                "eio" | "enospc" => s.errors += 1,
                "torn" => s.torn += 1,
                "bitflip" => s.bitflips += 1,
                _ => s.claim_delays += 1,
            }
            match inj.resolution {
                Resolution::Pending => s.pending += 1,
                Resolution::RetriedOk => s.retried_ok += 1,
                Resolution::Detected => s.detected += 1,
                Resolution::Benign => {}
            }
        }
        s
    }

    /// Human-readable descriptions of injections still unaccounted for.
    pub fn unresolved(&self) -> Vec<String> {
        self.ledger
            .lock()
            .unwrap()
            .iter()
            .filter(|inj| inj.resolution == Resolution::Pending)
            .map(|inj| format!("{} {} on {}", inj.kind, inj.op, inj.path.display()))
            .collect()
    }

    fn filename(path: &Path) -> &str {
        path.file_name().and_then(|n| n.to_str()).unwrap_or("?")
    }
}

impl IoPolicy for ChaosPlan {
    fn inject(&self, op: IoOp, path: &Path, attempt: u32) -> Option<IoFault> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let fname = Self::filename(path);
        if op == IoOp::Claim {
            let h = fnv1a64(format!("{}|claim|{fname}", self.cfg.seed).as_bytes());
            if (h % 1000) < self.cfg.claim_delay_permille as u64 {
                self.record(op, path, "claim-delay", Resolution::Benign);
                return Some(IoFault::Delay(Duration::from_millis(
                    self.cfg.claim_delay_ms,
                )));
            }
            return None;
        }
        // Store occurrence of this path: bumped once per store (attempt 1),
        // stable across that store's retries, so the whole retry loop sees
        // one decision.
        let occ = {
            let mut m = self.occurrences.lock().unwrap();
            let e = m.entry(path.to_path_buf()).or_insert(0);
            if attempt == 1 {
                *e += 1;
            }
            (*e).max(1)
        };
        let h = fnv1a64(format!("{}|{}|{fname}|{occ}", self.cfg.seed, op.name()).as_bytes());
        let roll = (h % 1000) as u32;
        let eio_end = self.cfg.eio_permille;
        let err_end = eio_end + self.cfg.enospc_permille;
        let torn_end = err_end + self.cfg.torn_permille;
        let flip_end = torn_end + self.cfg.bitflip_permille;
        if roll < err_end {
            // Transient error burst, bounded within the retry budget: the
            // attempt after the burst always lands.
            let burst = 1 + ((h >> 10) as u32 % self.cfg.max_error_burst.clamp(1, MAX_IO_RETRIES));
            if attempt > burst {
                return None;
            }
            let (kind, label) = if roll < eio_end {
                (ErrorKind::Other, "eio")
            } else {
                (ErrorKind::StorageFull, "enospc")
            };
            if attempt == 1 {
                self.record(op, path, label, Resolution::Pending);
            }
            return Some(IoFault::Error(kind));
        }
        // Corruption fires only on a path's first-ever store: once detected
        // and re-stored, the entry stays clean (convergence).
        if occ > 1 || attempt > 1 {
            return None;
        }
        if roll < torn_end {
            self.record(op, path, "torn", Resolution::Pending);
            return Some(IoFault::Truncate((h >> 16) as usize % 96));
        }
        if roll < flip_end {
            self.record(op, path, "bitflip", Resolution::Pending);
            return Some(IoFault::BitFlip(h));
        }
        None
    }

    fn on_success(&self, _op: IoOp, path: &Path, attempt: u32) {
        if attempt <= 1 {
            return;
        }
        let mut ledger = self.ledger.lock().unwrap();
        if let Some(inj) = ledger.iter_mut().rev().find(|inj| {
            inj.path == path
                && inj.resolution == Resolution::Pending
                && matches!(inj.kind, "eio" | "enospc")
        }) {
            inj.resolution = Resolution::RetriedOk;
        }
    }

    fn on_detected(&self, path: &Path) {
        let mut ledger = self.ledger.lock().unwrap();
        if let Some(inj) = ledger.iter_mut().rev().find(|inj| {
            inj.path == path
                && inj.resolution == Resolution::Pending
                && matches!(inj.kind, "torn" | "bitflip")
        }) {
            inj.resolution = Resolution::Detected;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide(plan: &ChaosPlan, name: &str, attempt: u32) -> Option<IoFault> {
        plan.inject(IoOp::CacheStore, Path::new(name), attempt)
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let names: Vec<String> = (0..200).map(|i| format!("{i:04x}.json")).collect();
        let a = ChaosPlan::new(ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        });
        let b = ChaosPlan::new(ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        });
        let c = ChaosPlan::new(ChaosConfig {
            seed: 8,
            ..ChaosConfig::default()
        });
        let pick = |p: &ChaosPlan| -> Vec<Option<IoFault>> {
            names.iter().map(|n| decide(p, n, 1)).collect()
        };
        let fa = pick(&a);
        assert_eq!(fa, pick(&b), "same seed, same plan");
        assert_ne!(fa, pick(&c), "different seed, different plan");
        assert!(
            fa.iter().any(|f| f.is_some()),
            "default rates inject something across 200 targets"
        );
    }

    #[test]
    fn error_bursts_stay_within_the_retry_budget() {
        let plan = ChaosPlan::new(ChaosConfig {
            seed: 3,
            eio_permille: 1000,
            enospc_permille: 0,
            torn_permille: 0,
            bitflip_permille: 0,
            ..ChaosConfig::default()
        });
        for i in 0..50 {
            let name = format!("e{i}.json");
            let mut attempt = 1;
            while decide(&plan, &name, attempt).is_some() {
                attempt += 1;
                assert!(
                    attempt <= 1 + MAX_IO_RETRIES,
                    "burst exceeds the retry budget"
                );
            }
        }
        // Every burst ended in success; on_success closes the ledger.
        for i in 0..50 {
            let name = format!("e{i}.json");
            plan.on_success(IoOp::CacheStore, Path::new(&name), 2);
        }
        assert_eq!(plan.unresolved(), Vec::<String>::new());
    }

    #[test]
    fn corruption_fires_only_on_first_store_and_resolves_on_detection() {
        let plan = ChaosPlan::new(ChaosConfig {
            seed: 11,
            eio_permille: 0,
            enospc_permille: 0,
            torn_permille: 500,
            bitflip_permille: 500,
            ..ChaosConfig::default()
        });
        let corrupted: Vec<String> = (0..40)
            .map(|i| format!("c{i}.json"))
            .filter(|n| decide(&plan, n, 1).is_some())
            .collect();
        assert!(!corrupted.is_empty());
        for n in &corrupted {
            assert_eq!(decide(&plan, n, 1), None, "second store of {n} is clean");
        }
        assert_eq!(plan.summary().pending, corrupted.len() as u64);
        for n in &corrupted {
            plan.on_detected(Path::new(n));
        }
        let s = plan.summary();
        assert_eq!(s.pending, 0);
        assert_eq!(s.detected, corrupted.len() as u64);
    }

    /// One 4x4 point, small enough to simulate in a unit test.
    const ONE_POINT: &str = r#"{"name":"bit7","retry":{"max_retries":0},"groups":[{
        "label":"bit7","config":{"width":4,"height":4,"topology":"mesh","flit_bits":128,
        "buffer_depth":4,"num_vcs":1,"fairness_threshold":4,"fault_detection_delay":5,
        "warmup_cycles":20,"measure_cycles":100,"drain_cycles":20,"seed":1,"packet_len":1,
        "source_queue_cap":64},"designs":["DXbarDor"],"workload":{"kind":"synthetic",
        "patterns":["UniformRandom"],"loads":[0.2]},"fault_fractions":[],"transient_rates":[],
        "link_faults":[],"seeds":[],"tag":null}]}"#;

    /// One flip in eight sets bit 7 of an ASCII byte: the entry stops being
    /// UTF-8. The load must still detect it, not miss it silently and leave
    /// the injection pending.
    #[test]
    fn a_bit_7_flip_ends_detected() {
        use noc_campaign::{run_campaign, CampaignSpec, ExecOptions};
        use std::sync::Arc;

        let spec = CampaignSpec::from_json(ONE_POINT).unwrap();
        let dir = std::env::temp_dir().join(format!("noc-chaos-bit7-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |plan: &Arc<ChaosPlan>| ExecOptions {
            cache_dir: Some(dir.clone()),
            jobs: Some(1),
            io_policy: plan.clone(),
            ..ExecOptions::default()
        };
        let flips_only = |seed| {
            Arc::new(ChaosPlan::new(ChaosConfig {
                seed,
                eio_permille: 0,
                enospc_permille: 0,
                torn_permille: 0,
                bitflip_permille: 1000,
                ..ChaosConfig::default()
            }))
        };
        let key = spec.points()[0].cache_key(&opts(&flips_only(0)).cache_salt());
        let entry = dir.join(format!("{key}.json"));
        let seed = (0..)
            .find(|&seed| {
                matches!(
                    flips_only(seed).inject(IoOp::CacheStore, &entry, 1),
                    Some(IoFault::BitFlip(h)) if (h >> 32) % 8 == 7
                )
            })
            .unwrap();

        let plan = flips_only(seed);
        let cold = run_campaign(&spec, &opts(&plan)).unwrap();
        assert_eq!(cold.cache_misses(), 1);
        assert!(std::str::from_utf8(&std::fs::read(&entry).unwrap()).is_err());
        assert_eq!(plan.summary().pending, 1);

        plan.disarm();
        let resumed = run_campaign(&spec, &opts(&plan)).unwrap();
        assert_eq!(resumed.cache_hits(), 0, "the flipped entry is a miss");
        let s = plan.summary();
        assert_eq!((s.pending, s.detected), (0, 1), "{:?}", plan.unresolved());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disarm_stops_injection_but_not_detection_accounting() {
        let plan = ChaosPlan::new(ChaosConfig {
            seed: 5,
            torn_permille: 1000,
            eio_permille: 0,
            enospc_permille: 0,
            bitflip_permille: 0,
            ..ChaosConfig::default()
        });
        assert!(decide(&plan, "x.json", 1).is_some());
        plan.disarm();
        assert_eq!(decide(&plan, "y.json", 1), None);
        plan.on_detected(Path::new("x.json"));
        assert_eq!(plan.summary().detected, 1);
    }
}
