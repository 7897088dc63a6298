//! Starvation / straggler / cache-thrash watchdog.
//!
//! The watchdog walks flight-recorder events and service registry state on
//! a *virtual-time* cadence (served virtual ms between sweeps, so sweeps
//! are deterministic for a deterministic workload) and emits typed
//! [`Diagnosis`] values, `rheem_watchdog_*` counters, and
//! [`EventKind::Watchdog`] recorder events.
//!
//! Rules (thresholds in [`WatchdogConfig`]):
//! - **Tenant starvation** — a backlogged tenant whose normalized
//!   fair-share vtime lags the minimum vtime among *other* active tenants
//!   by more than `starvation_lag_ms`: it has queued work but the scheduler
//!   keeps (correctly or not) serving cheaper tenants.
//! - **Straggler stage** — within one completed job, a committed stage
//!   that consumed more than `straggler_factor ×` the median input tuples
//!   of its sibling stages (and at least `straggler_min_tuples`, to ignore
//!   trivially small jobs). Needs at least two siblings for a meaningful
//!   median. Tuple counts, unlike stage times, do not depend on host speed
//!   or load, so the same job is flagged the same way on every run.
//! - **Cache thrash** — evictions/inserts ratio over the sweep window
//!   above `thrash_ratio` with at least `thrash_min_inserts` inserts: the
//!   cache budget is too small for the working set and entries churn.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;

use super::recorder::{EventKind, FlightRecorder};
use crate::cache::CacheStats;
use crate::metrics::MetricsRegistry;

/// Watchdog thresholds. Defaults are deliberately conservative; tests and
/// operators tighten them per workload.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Served virtual ms between sweeps (0 sweeps on every completion).
    pub cadence_ms: f64,
    /// Normalized vtime lag beyond which a backlogged tenant is starved.
    pub starvation_lag_ms: f64,
    /// Multiple of the sibling median input tuples that flags a straggler.
    pub straggler_factor: f64,
    /// Ignore stages that consumed fewer input tuples than this.
    pub straggler_min_tuples: u64,
    /// Evictions-per-insert ratio (over a sweep window) that flags thrash.
    pub thrash_ratio: f64,
    /// Minimum inserts in the window before thrash is considered.
    pub thrash_min_inserts: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            cadence_ms: 50.0,
            starvation_lag_ms: 1_000.0,
            straggler_factor: 4.0,
            straggler_min_tuples: 10_000,
            thrash_ratio: 0.5,
            thrash_min_inserts: 16,
        }
    }
}

/// One tenant's scheduler state at sweep time.
#[derive(Clone, Debug)]
pub struct TenantState {
    /// Tenant name.
    pub name: String,
    /// Normalized fair-share virtual time.
    pub vtime: f64,
    /// Jobs waiting in the tenant's queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
}

/// Registry state handed to a sweep.
#[derive(Clone, Debug, Default)]
pub struct WatchdogSnapshot {
    /// Per-tenant scheduler state.
    pub tenants: Vec<TenantState>,
    /// Cross-job cache stats, when a cache is attached.
    pub cache: Option<CacheStats>,
}

/// A typed watchdog diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub enum Diagnosis {
    /// A backlogged tenant lags the other active tenants' vtime.
    Starvation {
        /// The starved tenant.
        tenant: String,
        /// How far its vtime lags the minimum active vtime (virtual ms).
        lag_ms: f64,
    },
    /// A stage consumed far more input than its siblings within one job.
    Straggler {
        /// Owning tenant, when known.
        tenant: Option<String>,
        /// Service job id.
        job: u64,
        /// The straggler stage.
        stage: u64,
        /// Input tuples the stage consumed.
        tuples: f64,
        /// Median input tuples of its sibling stages.
        median_tuples: f64,
    },
    /// Cache evictions churn against inserts.
    CacheThrash {
        /// Evictions over the window divided by inserts over the window.
        ratio: f64,
        /// Evictions in the window.
        evictions: u64,
        /// Inserts in the window.
        inserts: u64,
    },
}

#[derive(Debug, Default)]
struct WdState {
    /// Next recorder seq to walk for stage commits.
    next_seq: u64,
    /// Cache counters at the previous sweep (delta base).
    last_inserts: u64,
    /// Cache evictions at the previous sweep.
    last_evictions: u64,
    /// Committed stages per not-yet-completed job: job → (stage, input
    /// tuples, tenant).
    pending: BTreeMap<u64, Vec<(u64, f64, Option<String>)>>,
    /// (job, stage) pairs already flagged, so re-sweeps don't double-count.
    flagged: HashSet<(u64, u64)>,
    /// Served virtual ms accumulated since the last sweep.
    served_ms: f64,
}

/// Maximum jobs tracked for straggler analysis before the oldest is shed.
const MAX_PENDING_JOBS: usize = 1_024;

/// The watchdog itself. One per [`crate::service::JobService`].
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    state: Mutex<WdState>,
}

impl Watchdog {
    /// Watchdog with the given thresholds.
    pub fn new(config: WatchdogConfig) -> Self {
        Self { config, state: Mutex::new(WdState::default()) }
    }

    /// The active thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Account `virtual_ms` of served work; returns `true` when the sweep
    /// cadence has been reached (and resets the accumulator).
    pub fn on_served(&self, virtual_ms: f64) -> bool {
        let mut st = self.state.lock().unwrap();
        st.served_ms += virtual_ms.max(0.0);
        if st.served_ms >= self.config.cadence_ms {
            st.served_ms = 0.0;
            true
        } else {
            false
        }
    }

    /// Run one sweep: walk new recorder events for straggler analysis,
    /// check `snapshot` for starvation and cache thrash, and publish every
    /// diagnosis as `rheem_watchdog_*` counters plus a recorder event.
    pub fn sweep(
        &self,
        snapshot: &WatchdogSnapshot,
        recorder: &FlightRecorder,
        metrics: &MetricsRegistry,
    ) -> Vec<Diagnosis> {
        let mut out = Vec::new();
        let mut st = self.state.lock().unwrap();

        // Straggler stages: fold new stage.committed events into per-job
        // lists; evaluate each job when its job.completed event arrives.
        let events = recorder.events_since(st.next_seq);
        for ev in &events {
            st.next_seq = st.next_seq.max(ev.seq + 1);
            match ev.kind {
                EventKind::StageCommitted => {
                    if let (Some(job), Some(stage)) = (ev.job, ev.stage) {
                        st.pending.entry(job).or_default().push((
                            stage,
                            ev.value,
                            ev.tenant.clone(),
                        ));
                        if st.pending.len() > MAX_PENDING_JOBS {
                            let oldest = *st.pending.keys().next().unwrap();
                            st.pending.remove(&oldest);
                        }
                    }
                }
                EventKind::JobCompleted | EventKind::JobFailed => {
                    if let Some(job) = ev.job {
                        if let Some(stages) = st.pending.remove(&job) {
                            for d in stragglers_in(&stages, job, &self.config, &mut st.flagged) {
                                out.push(d);
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // Tenant starvation: compare each backlogged tenant against the
        // minimum vtime among the *other* tenants that still have work.
        for t in &snapshot.tenants {
            if t.queued == 0 {
                continue;
            }
            let min_other = snapshot
                .tenants
                .iter()
                .filter(|o| o.name != t.name && o.queued + o.running > 0)
                .map(|o| o.vtime)
                .fold(f64::INFINITY, f64::min);
            if min_other.is_finite() {
                let lag = t.vtime - min_other;
                if lag > self.config.starvation_lag_ms {
                    out.push(Diagnosis::Starvation { tenant: t.name.clone(), lag_ms: lag });
                }
            }
        }

        // Cache thrash over the window since the previous sweep. Spills
        // count as churn alongside evictions: a cache that demotes nearly
        // everything it admits is undersized even if nothing is dropped.
        if let Some(cs) = &snapshot.cache {
            let d_ins = cs.inserts.saturating_sub(st.last_inserts);
            let d_ev = (cs.evictions + cs.spills).saturating_sub(st.last_evictions);
            st.last_inserts = cs.inserts;
            st.last_evictions = cs.evictions + cs.spills;
            if d_ins >= self.config.thrash_min_inserts {
                let ratio = d_ev as f64 / d_ins as f64;
                if ratio > self.config.thrash_ratio {
                    out.push(Diagnosis::CacheThrash { ratio, evictions: d_ev, inserts: d_ins });
                }
            }
        }
        drop(st);

        metrics.inc("rheem_watchdog_sweeps_total", 1);
        for d in &out {
            match d {
                Diagnosis::Starvation { tenant, lag_ms } => {
                    metrics
                        .inc(&format!("rheem_watchdog_starvation_total{{tenant=\"{tenant}\"}}"), 1);
                    recorder.record(
                        EventKind::Watchdog,
                        Some(tenant),
                        None,
                        None,
                        *lag_ms,
                        "starvation: vtime lag beyond bound",
                    );
                }
                Diagnosis::Straggler { tenant, job, stage, tuples, median_tuples } => {
                    let t = tenant.as_deref().unwrap_or("unknown");
                    metrics.inc(&format!("rheem_watchdog_straggler_total{{tenant=\"{t}\"}}"), 1);
                    recorder.record(
                        EventKind::Watchdog,
                        tenant.as_deref(),
                        Some(*job),
                        Some(*stage),
                        *tuples,
                        &format!("straggler: {tuples} tuples vs sibling median {median_tuples}"),
                    );
                }
                Diagnosis::CacheThrash { ratio, evictions, inserts } => {
                    metrics.inc("rheem_watchdog_cache_thrash_total", 1);
                    recorder.record(
                        EventKind::Watchdog,
                        None,
                        None,
                        None,
                        *ratio,
                        &format!("cache thrash: {evictions} evictions / {inserts} inserts"),
                    );
                }
            }
        }
        out
    }
}

/// Evaluate one completed job's committed stages for stragglers.
fn stragglers_in(
    stages: &[(u64, f64, Option<String>)],
    job: u64,
    cfg: &WatchdogConfig,
    flagged: &mut HashSet<(u64, u64)>,
) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    if stages.len() < 3 {
        return out; // need >= 2 siblings for a meaningful median
    }
    for (i, (stage, tuples, tenant)) in stages.iter().enumerate() {
        if *tuples < cfg.straggler_min_tuples as f64 {
            continue;
        }
        let mut sib: Vec<f64> =
            stages.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, s)| s.1).collect();
        sib.sort_by(|a, b| a.total_cmp(b));
        let median = median_of_sorted(&sib);
        if *tuples > cfg.straggler_factor * median && flagged.insert((job, *stage)) {
            out.push(Diagnosis::Straggler {
                tenant: tenant.clone(),
                job,
                stage: *stage,
                tuples: *tuples,
                median_tuples: median,
            });
        }
    }
    out
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> FlightRecorder {
        FlightRecorder::with_capacity(1024, 1 << 20)
    }

    #[test]
    fn starvation_flags_lagging_backlogged_tenant_only() {
        let wd = Watchdog::new(WatchdogConfig { starvation_lag_ms: 100.0, ..Default::default() });
        let snap = WatchdogSnapshot {
            tenants: vec![
                TenantState { name: "starved".into(), vtime: 5_000.0, queued: 1, running: 0 },
                TenantState { name: "heavy".into(), vtime: 10.0, queued: 3, running: 1 },
            ],
            cache: None,
        };
        let (r, m) = (recorder(), MetricsRegistry::new());
        let out = wd.sweep(&snap, &r, &m);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Diagnosis::Starvation { tenant, .. } if tenant == "starved"));
        assert_eq!(m.counter("rheem_watchdog_starvation_total{tenant=\"starved\"}"), 1);
        assert_eq!(m.counter("rheem_watchdog_starvation_total{tenant=\"heavy\"}"), 0);
        // The diagnosis is also a recorder event.
        assert!(r.recent(8).iter().any(|e| e.kind == EventKind::Watchdog));
    }

    #[test]
    fn starvation_needs_another_active_tenant() {
        let wd = Watchdog::new(WatchdogConfig { starvation_lag_ms: 100.0, ..Default::default() });
        let snap = WatchdogSnapshot {
            tenants: vec![
                TenantState { name: "only".into(), vtime: 9_000.0, queued: 2, running: 0 },
                TenantState { name: "idle".into(), vtime: 0.0, queued: 0, running: 0 },
            ],
            cache: None,
        };
        assert!(wd.sweep(&snap, &recorder(), &MetricsRegistry::new()).is_empty());
    }

    #[test]
    fn straggler_flagged_once_on_job_completion() {
        let wd = Watchdog::new(WatchdogConfig {
            cadence_ms: 0.0,
            straggler_factor: 4.0,
            straggler_min_tuples: 10,
            ..Default::default()
        });
        let (r, m) = (recorder(), MetricsRegistry::new());
        let t = Some("a");
        r.record(EventKind::StageCommitted, t, Some(7), Some(0), 2.0, "");
        r.record(EventKind::StageCommitted, t, Some(7), Some(1), 40.0, "");
        r.record(EventKind::StageCommitted, t, Some(7), Some(2), 3.0, "");
        // Not evaluated until the job completes.
        assert!(wd.sweep(&WatchdogSnapshot::default(), &r, &m).is_empty());
        r.record(EventKind::JobCompleted, t, Some(7), None, 45.0, "");
        let out = wd.sweep(&WatchdogSnapshot::default(), &r, &m);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Diagnosis::Straggler { job: 7, stage: 1, .. }));
        assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"a\"}"), 1);
        // Re-sweeping never double-counts.
        assert!(wd.sweep(&WatchdogSnapshot::default(), &r, &m).is_empty());
    }

    #[test]
    fn two_stage_jobs_are_never_stragglers() {
        let wd = Watchdog::new(WatchdogConfig { straggler_min_tuples: 0, ..Default::default() });
        let (r, m) = (recorder(), MetricsRegistry::new());
        r.record(EventKind::StageCommitted, None, Some(1), Some(0), 100.0, "");
        r.record(EventKind::StageCommitted, None, Some(1), Some(1), 1.0, "");
        r.record(EventKind::JobCompleted, None, Some(1), None, 101.0, "");
        assert!(wd.sweep(&WatchdogSnapshot::default(), &r, &m).is_empty());
    }

    #[test]
    fn cache_thrash_uses_window_deltas() {
        let wd = Watchdog::new(WatchdogConfig {
            thrash_ratio: 0.5,
            thrash_min_inserts: 4,
            ..Default::default()
        });
        let (r, m) = (recorder(), MetricsRegistry::new());
        let cs = CacheStats { inserts: 10, evictions: 9, ..Default::default() };
        let snap = WatchdogSnapshot { tenants: vec![], cache: Some(cs) };
        let out = wd.sweep(&snap, &r, &m);
        assert!(matches!(out[0], Diagnosis::CacheThrash { inserts: 10, evictions: 9, .. }));
        assert_eq!(m.counter("rheem_watchdog_cache_thrash_total"), 1);
        // Same cumulative counters again: zero delta, no flag.
        let snap2 = WatchdogSnapshot { tenants: vec![], cache: Some(cs) };
        assert!(wd.sweep(&snap2, &r, &m).is_empty());
    }

    #[test]
    fn cadence_accumulates_served_virtual_ms() {
        let wd = Watchdog::new(WatchdogConfig { cadence_ms: 10.0, ..Default::default() });
        assert!(!wd.on_served(4.0));
        assert!(!wd.on_served(4.0));
        assert!(wd.on_served(4.0));
        assert!(!wd.on_served(4.0)); // accumulator reset
                                     // Zero cadence sweeps on every completion.
        let every = Watchdog::new(WatchdogConfig { cadence_ms: 0.0, ..Default::default() });
        assert!(every.on_served(0.0));
    }
}
