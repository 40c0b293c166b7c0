//! Incremental figure regeneration over the shared result cache.
//!
//! Every paper figure is a fixed point set (its preset spec expanded under
//! the daemon's default cache namespace). The registry tracks, per figure,
//! which of those points the memoized render found in the cache; a job
//! completion dirties a figure only by adding a point that render lacked
//! (entries are content-addressed, so a covered key cannot change the text).
//! `GET /figures/<name>` re-renders lazily and only when dirty.
//! Rendering never simulates — it reads whatever subset of the figure's
//! points the cache already holds and reports the coverage, so a daemon
//! that has only run `fig05` serves a complete fig05 table and a
//! 0-coverage stub for the SPLASH figure.

use noc_campaign::{render_table, Aggregate, PointOutcome, PointSpec, PointStatus, ResultCache};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Figures the daemon serves: the presets of the bench registry that are
/// figures too.
pub use bench::specs::FIGURES;

struct FigureEntry {
    name: &'static str,
    /// Expanded points with their cache keys, in spec order (drives
    /// aggregate ordering). Shared, so a render reads them with the
    /// registry unlocked.
    points: Arc<Vec<(PointSpec, String)>>,
    /// Every key of the point set, and whether the memoized render found it
    /// in the cache.
    covered: HashMap<String, bool>,
    /// Counts the completions that dirtied this figure. A render that ends
    /// on another count than it started on may have missed one.
    epoch: u64,
    /// The memoized text; `None` is what "dirty" means.
    rendered: Option<String>,
}

/// All figures plus their dirty state. One registry per daemon, bound to
/// one cache namespace (the daemon's default verify choice) — jobs run in
/// the other namespace simply never dirty a figure.
///
/// The mutex is a leaf: it is held for set operations only, never across
/// cache I/O, so the scheduler may take it while holding the daemon's queue
/// lock.
pub struct FigureRegistry {
    salt: String,
    entries: Mutex<Vec<FigureEntry>>,
}

impl FigureRegistry {
    /// Expand every figure preset under the given cache salt.
    pub fn new(salt: String) -> FigureRegistry {
        let entries = FIGURES
            .iter()
            .map(|&name| {
                let spec = bench::specs::preset(name).expect("known preset");
                let points: Vec<(PointSpec, String)> = spec
                    .points()
                    .into_iter()
                    .map(|p| {
                        let key = p.cache_key(&salt);
                        (p, key)
                    })
                    .collect();
                FigureEntry {
                    name,
                    covered: points.iter().map(|(_, k)| (k.clone(), false)).collect(),
                    points: Arc::new(points),
                    epoch: 0,
                    rendered: None,
                }
            })
            .collect();
        FigureRegistry {
            salt,
            entries: Mutex::new(entries),
        }
    }

    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// A job finished with these keys in the cache (stored by it, or by a
    /// sibling and adopted as hits): mark for re-render every figure that
    /// has one of them in its point set and not in its memoized render.
    pub fn note_completed(&self, completed_keys: &HashSet<String>) {
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter_mut() {
            if completed_keys
                .iter()
                .any(|k| e.covered.get(k) == Some(&false))
            {
                e.epoch += 1;
                e.rendered = None;
            }
        }
    }

    /// `(name, points, dirty, rendered)` summary rows for `GET /figures`.
    pub fn list(&self) -> Vec<(String, usize, bool, bool)> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.points.len(),
                    e.rendered.is_none(),
                    e.rendered.is_some(),
                )
            })
            .collect()
    }

    /// Render one figure from the cache (lazily; a clean figure returns
    /// the memoized text). `None` for unknown figure names.
    pub fn render(&self, name: &str, cache: &ResultCache) -> Option<String> {
        let (index, points, epoch) = {
            let entries = self.entries.lock().unwrap();
            let index = entries.iter().position(|e| e.name == name)?;
            let e = &entries[index];
            if let Some(text) = &e.rendered {
                return Some(text.clone());
            }
            (index, e.points.clone(), e.epoch)
        };
        let mut outcomes: Vec<PointOutcome> = Vec::new();
        for (p, key) in points.iter() {
            if let Some(result) = cache.load(p) {
                outcomes.push(PointOutcome {
                    point: p.clone(),
                    key: key.clone(),
                    status: PointStatus::Done(result),
                    cache_hit: true,
                    deduped: false,
                    wall_ms: 0,
                    attempts: 0,
                    verify: None,
                });
            }
        }
        let mut text = format!(
            "# figure {} — coverage {}/{} cached points (namespace {})\n",
            name,
            outcomes.len(),
            points.len(),
            self.salt,
        );
        if outcomes.is_empty() {
            text.push_str("# no cached points yet — submit the preset as a job first\n");
        } else {
            text.push_str(&render_table(&Aggregate::collect(&outcomes)));
        }
        let mut entries = self.entries.lock().unwrap();
        let e = &mut entries[index];
        for found in e.covered.values_mut() {
            *found = false;
        }
        for o in &outcomes {
            e.covered.insert(o.key.clone(), true);
        }
        // A key that completed while the cache was being read may have been
        // stored after its point was probed: stay dirty and render again.
        e.rendered = (e.epoch == epoch).then(|| text.clone());
        Some(text)
    }
}
