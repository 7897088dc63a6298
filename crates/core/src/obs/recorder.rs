//! Always-on, lock-light flight recorder: a bounded ring buffer of
//! structured events fed from service, executor, cache and fault hooks.
//!
//! Design: a single short [`Mutex`] critical section protects the ring
//! (push + evict only — no allocation-heavy work inside the lock), while
//! the `recorded` / `dropped` totals are atomics so accounting stays exact
//! even across the eviction path. The invariant the property tests pin
//! down: every recorded event is either still resident, was drained by a
//! reader, or is counted in `dropped` — nothing is lost silently.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::{json_f64, json_string};

/// Default ring capacity in entries.
pub const DEFAULT_MAX_ENTRIES: usize = 8_192;
/// Default ring capacity in approximate payload bytes.
pub const DEFAULT_MAX_BYTES: usize = 1 << 20;

/// Fixed per-event byte cost charged against the ring's byte budget on top
/// of the variable-size string fields (struct body + queue slot overhead).
const EVENT_BASE_BYTES: usize = 64;

/// What happened. String forms (for dumps and filters) are dotted
/// `subject.verb` names, e.g. `job.admitted`, `stage.committed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job passed service admission control.
    JobAdmitted,
    /// A job was rejected by admission control.
    JobRejected,
    /// An admitted job was enqueued on its tenant queue.
    JobQueued,
    /// A runner picked the job and began executing it.
    JobStarted,
    /// A stage attempt inside the job failed and was retried.
    JobRetried,
    /// The job finished with an error.
    JobFailed,
    /// The job finished successfully.
    JobCompleted,
    /// A stage run was dispatched to a platform.
    StageDispatched,
    /// A stage run committed (its results became canonical).
    StageCommitted,
    /// A cross-job cache lookup hit.
    CacheHit,
    /// A result was published to the cross-job cache.
    CacheInsert,
    /// A cache entry was evicted (quota or budget pressure).
    CacheEvicted,
    /// A cold cache entry was demoted from memory to the disk spill tier.
    CacheSpilled,
    /// A spilled cache entry was read back and promoted to memory.
    CachePromoted,
    /// The deterministic chaos plan injected a fault.
    FaultInjected,
    /// The watchdog emitted a diagnosis.
    Watchdog,
    /// A batched (columnar) stage fell back to row execution.
    BatchFallback,
}

impl EventKind {
    /// Stable dotted name used in JSON dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::JobAdmitted => "job.admitted",
            EventKind::JobRejected => "job.rejected",
            EventKind::JobQueued => "job.queued",
            EventKind::JobStarted => "job.started",
            EventKind::JobRetried => "job.retried",
            EventKind::JobFailed => "job.failed",
            EventKind::JobCompleted => "job.completed",
            EventKind::StageDispatched => "stage.dispatched",
            EventKind::StageCommitted => "stage.committed",
            EventKind::CacheHit => "cache.hit",
            EventKind::CacheInsert => "cache.insert",
            EventKind::CacheEvicted => "cache.evicted",
            EventKind::CacheSpilled => "cache.spilled",
            EventKind::CachePromoted => "cache.promoted",
            EventKind::FaultInjected => "fault.injected",
            EventKind::Watchdog => "watchdog",
            EventKind::BatchFallback => "batch.fallback",
        }
    }
}

/// One structured flight-recorder event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number (dense, assigned at record time).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Owning tenant, when known.
    pub tenant: Option<String>,
    /// Service job id, when the event happened inside a service job.
    pub job: Option<u64>,
    /// Stage id, for stage-scoped events.
    pub stage: Option<u64>,
    /// Kind-specific magnitude (input tuples for stage commits, wait ms
    /// for job starts, bytes for cache events, attempt count for retries).
    pub value: f64,
    /// Free-form detail (platform name, fault kind, diagnosis text).
    pub detail: String,
}

impl Event {
    /// Approximate bytes this event charges against the ring budget.
    fn cost(&self) -> usize {
        EVENT_BASE_BYTES + self.detail.len() + self.tenant.as_ref().map(|t| t.len()).unwrap_or(0)
    }

    /// Append this event as a JSON object to `out`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":");
        json_string(out, self.kind.as_str());
        out.push_str(",\"tenant\":");
        match &self.tenant {
            Some(t) => json_string(out, t),
            None => out.push_str("null"),
        }
        out.push_str(",\"job\":");
        match self.job {
            Some(j) => out.push_str(&j.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"stage\":");
        match self.stage {
            Some(s) => out.push_str(&s.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"value\":");
        out.push_str(&json_f64(self.value));
        out.push_str(",\"detail\":");
        json_string(out, &self.detail);
        out.push('}');
    }
}

struct Ring {
    events: VecDeque<Event>,
    bytes: usize,
}

/// Bounded ring buffer of [`Event`]s with exact drop accounting.
pub struct FlightRecorder {
    max_entries: usize,
    max_bytes: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MAX_ENTRIES, DEFAULT_MAX_BYTES)
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// Recorder bounded by `max_entries` events and `max_bytes` approximate
    /// payload bytes (whichever is hit first evicts the oldest events).
    pub fn with_capacity(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(EVENT_BASE_BYTES),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring { events: VecDeque::new(), bytes: 0 }),
        }
    }

    /// Record one event. Assigns the next sequence number; evicts the
    /// oldest resident events (counting each as dropped) until both the
    /// entry and byte budgets hold again. An event larger than the whole
    /// byte budget is dropped outright (still consuming a sequence number,
    /// so accounting stays exact).
    pub fn record(
        &self,
        kind: EventKind,
        tenant: Option<&str>,
        job: Option<u64>,
        stage: Option<u64>,
        value: f64,
        detail: &str,
    ) {
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            seq,
            kind,
            tenant: tenant.map(str::to_string),
            job,
            stage,
            value,
            detail: detail.to_string(),
        };
        let cost = ev.cost();
        if cost > self.max_bytes {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        ring.events.push_back(ev);
        ring.bytes += cost;
        while ring.events.len() > self.max_entries || ring.bytes > self.max_bytes {
            // A freshly pushed event guarantees the deque is non-empty.
            let old = ring.events.pop_front().unwrap();
            ring.bytes -= old.cost();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total events ever recorded (including later-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total events evicted or refused to honor the budgets.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently resident in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().events.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate payload bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.ring.lock().unwrap().bytes
    }

    /// Clone of the most recent `n` resident events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        let skip = ring.events.len().saturating_sub(n);
        ring.events.iter().skip(skip).cloned().collect()
    }

    /// Clone of resident events with `seq >= from`, oldest first. Used by
    /// the watchdog to walk forward incrementally (`from` = next unseen).
    pub fn events_since(&self, from: u64) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        ring.events.iter().filter(|e| e.seq >= from).cloned().collect()
    }

    /// Remove and return every resident event, oldest first. Drained events
    /// were delivered, not lost: they do not count as dropped.
    pub fn drain(&self) -> Vec<Event> {
        let mut ring = self.ring.lock().unwrap();
        ring.bytes = 0;
        ring.events.drain(..).collect()
    }

    /// Deterministic JSON dump of the most recent `n` events (all resident
    /// events when `n` is `None`), parseable by [`crate::trace::json::parse`]:
    /// `{"recorded":N,"dropped":D,"events":[...]}`.
    pub fn dump_json(&self, n: Option<usize>) -> String {
        let events = match n {
            Some(n) => self.recent(n),
            None => self.recent(usize::MAX),
        };
        let mut out = String::from("{\"recorded\":");
        out.push_str(&self.recorded().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.dropped().to_string());
        out.push_str(",\"events\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            ev.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}
