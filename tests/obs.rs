//! Observability-plane integration suite (PR 8).
//!
//! Locks down the live observability claims end to end:
//!
//! 1. **Flight-recorder budgets** hold under multi-threaded writes: the
//!    ring never exceeds its entry or byte budget, drop accounting is
//!    exact (`drained + resident + dropped == recorded`), and the JSON
//!    dump parses with the repo's own `trace::json` parser.
//! 2. **Prometheus exposition invariants** hold on a real multi-tenant
//!    service run: one `# TYPE` per family, labels merged before `le`,
//!    cumulative buckets ending in `+Inf`, deterministic double-snapshot.
//! 3. **Watchdog end-to-end**: a synthetically starved tenant and an
//!    injected straggler stage driven through the live service are flagged
//!    — and only they are — via `rheem_watchdog_*` metrics, while
//!    `/metrics`, `/healthz` and `/flight` are scraped concurrently over
//!    real TCP.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::cache::ResultCache;
use rheem_core::obs::{scrape, validate_exposition};
use rheem_core::trace::json;

// ---- plan generators -----------------------------------------------------

fn sum_reduce() -> ReduceUdf {
    ReduceUdf::new("sum", |a, b| {
        Value::pair(
            a.field(0).clone(),
            Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
        )
    })
}

/// A `rows`-sized map + keyed-reduce job. Its compute stage consumes `rows`
/// input tuples, the watchdog's straggler signal: tests pick sizes with
/// orders-of-magnitude separation from the watchdog thresholds. `salt`
/// varies the data so jobs are distinct cache entries.
fn sized_plan(rows: i64, salt: u64) -> RheemPlan {
    let data: Vec<Value> = (0..rows)
        .map(|i| Value::pair(Value::from((i + salt as i64) % 7), Value::from(i)))
        .collect();
    let mut b = PlanBuilder::new();
    b.collection(data)
        .map(MapUdf::new("m1", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .collect();
    b.build().unwrap()
}

/// A tiny, balanced job: every stage stays ~2 orders of magnitude under
/// the e2e test's `straggler_min_tuples`.
fn regular_plan(salt: u64) -> RheemPlan {
    sized_plan(200, salt)
}

/// A job whose first compute stage processes 500x the rows of a regular
/// job: one stage far above `straggler_min_tuples` against tiny
/// siblings, i.e. a deterministic straggler under `factor: 4`.
fn straggler_plan() -> RheemPlan {
    let data: Vec<Value> =
        (0..100_000).map(|i| Value::pair(Value::from(i % 7), Value::from(i))).collect();
    let mut b = PlanBuilder::new();
    b.collection(data)
        .map(MapUdf::new("hot", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .map(MapUdf::new("cool", |v| v.clone()))
        .reduce_by_key(KeyUdf::field(0), sum_reduce())
        .collect();
    b.build().unwrap()
}

// ---- 1. flight-recorder properties ---------------------------------------

#[test]
fn recorder_budgets_hold_under_concurrent_writes() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 2_000;
    const MAX_ENTRIES: usize = 256;
    const MAX_BYTES: usize = 16 * 1024;

    let rec = Arc::new(FlightRecorder::with_capacity(MAX_ENTRIES, MAX_BYTES));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(
                        EventKind::StageCommitted,
                        Some("tenant"),
                        Some(t as u64),
                        Some(i as u64),
                        i as f64,
                        "concurrent writer",
                    );
                    // Budgets must hold at every instant, not just at rest.
                    assert!(rec.len() <= MAX_ENTRIES, "entry budget exceeded");
                    assert!(rec.bytes() <= MAX_BYTES, "byte budget exceeded");
                }
            });
        }
    });

    let recorded = rec.recorded();
    assert_eq!(recorded, (THREADS * PER_THREAD) as u64);
    let drained = rec.drain();
    assert_eq!(
        drained.len() as u64 + rec.dropped(),
        recorded,
        "every event is resident, drained, or counted dropped"
    );
    // Sequence numbers are unique and dense in [0, recorded).
    let mut seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), drained.len(), "sequence numbers are unique");
    assert!(seqs.iter().all(|&s| s < recorded));
}

#[test]
fn recorder_drop_accounting_is_exact_single_thread() {
    let rec = FlightRecorder::with_capacity(4, 1 << 20);
    for i in 0..10 {
        rec.record(EventKind::JobQueued, None, Some(i), None, 0.0, "");
    }
    assert_eq!(rec.recorded(), 10);
    assert_eq!(rec.dropped(), 6);
    let drained = rec.drain();
    let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted first, newest resident");
    // Draining delivers events; it never counts them as dropped.
    assert_eq!(rec.dropped(), 6);
    assert!(rec.is_empty());
}

#[test]
fn recorder_dump_parses_and_is_deterministic() {
    let rec = FlightRecorder::with_capacity(64, 1 << 20);
    rec.record(EventKind::JobAdmitted, Some("a"), Some(1), None, 0.25, "");
    rec.record(EventKind::StageCommitted, Some("a"), Some(1), Some(3), 7.5, "java.streams");
    rec.record(EventKind::JobCompleted, Some("a\"quote"), Some(1), None, 7.5, "done \"ok\"");

    let dump = rec.dump_json(None);
    assert_eq!(dump, rec.dump_json(None), "dump is deterministic");
    let doc = json::parse(&dump).expect("dump parses with the repo's own parser");
    let obj = doc.as_obj("dump").unwrap();
    assert_eq!(json::get(obj, "recorded").unwrap().as_f64("recorded").unwrap(), 3.0);
    assert_eq!(json::get(obj, "dropped").unwrap().as_f64("dropped").unwrap(), 0.0);
    let events = json::get(obj, "events").unwrap().as_arr("events").unwrap();
    assert_eq!(events.len(), 3);
    let ev = events[1].as_obj("event").unwrap();
    assert_eq!(json::get(ev, "kind").unwrap().as_str("kind").unwrap(), "stage.committed");
    assert_eq!(json::get(ev, "stage").unwrap().as_f64("stage").unwrap(), 3.0);
    assert_eq!(json::get(ev, "detail").unwrap().as_str("detail").unwrap(), "java.streams");
    // Quotes in tenant/detail strings survive the round trip.
    let last = events[2].as_obj("event").unwrap();
    assert_eq!(json::get(last, "tenant").unwrap().as_str("tenant").unwrap(), "a\"quote");
    // The `n` limit keeps the most recent events.
    let tail = json::parse(&rec.dump_json(Some(1))).unwrap();
    let tail_events =
        json::get(tail.as_obj("dump").unwrap(), "events").unwrap().as_arr("events").unwrap();
    assert_eq!(tail_events.len(), 1);
    let t0 = tail_events[0].as_obj("event").unwrap();
    assert_eq!(json::get(t0, "seq").unwrap().as_f64("seq").unwrap(), 2.0);
}

// ---- 2. golden exposition over a real multi-tenant run -------------------

#[test]
fn prometheus_exposition_invariants_hold_after_multi_tenant_run() {
    let mut ctx = rheem::default_context();
    ctx.set_cache(Some(Arc::new(ResultCache::new(64 << 20))));
    let tenants = vec![
        TenantSpec::new("alpha").with_max_in_flight(16).with_cache_quota(8 << 20),
        TenantSpec::new("beta").with_max_in_flight(16),
    ];
    let service = JobService::new(ctx, ServiceConfig::default(), tenants).unwrap();
    let mut handles = Vec::new();
    for j in 0..6 {
        handles.push(service.submit("alpha", regular_plan(j)).unwrap());
        handles.push(service.submit("beta", regular_plan(j + 100)).unwrap());
    }
    for h in handles {
        h.wait().unwrap();
    }

    let prom = service.context().metrics().snapshot_prometheus();
    validate_exposition(&prom).expect("exposition invariants hold");
    // Deterministic: a second snapshot of the same registry is identical.
    assert_eq!(prom, service.context().metrics().snapshot_prometheus());
    // The labeled SLO histogram family appears exactly once as a TYPE and
    // merges its labels before `le` (the PR 8 exposition fix).
    let type_lines: Vec<&str> =
        prom.lines().filter(|l| l.starts_with("# TYPE rheem_tenant_job_phase_ms ")).collect();
    assert_eq!(type_lines, vec!["# TYPE rheem_tenant_job_phase_ms histogram"]);
    assert!(
        prom.contains("rheem_tenant_job_phase_ms_bucket{phase=\"exec\",tenant=\"alpha\",le=\""),
        "labels merge before le:\n{prom}"
    );
    assert!(!prom.contains("}_bucket"), "no suffix-after-labels keys:\n{prom}");
    // Both tenants observed all four phases.
    for tenant in ["alpha", "beta"] {
        for phase in rheem_core::obs::slo::PHASES {
            let key = format!("rheem_tenant_job_phase_ms{{phase=\"{phase}\",tenant=\"{tenant}\"}}");
            let h = service.context().metrics().histogram(&key).unwrap();
            assert_eq!(h.count, 6, "{key}");
        }
    }
}

// ---- 3. watchdog end-to-end under live TCP scrapes -----------------------

#[test]
fn watchdog_flags_starved_tenant_and_straggler_over_live_scrapes() {
    let mut ctx = rheem::default_context();
    ctx.set_cache(None); // keep stage timings independent of the cache leg
    let config = ServiceConfig {
        runners: 1, // serialize so the heavy backlog actually queues
        watchdog: WatchdogConfig {
            cadence_ms: 0.0, // sweep on every completion
            starvation_lag_ms: 200.0,
            straggler_factor: 4.0,
            straggler_min_tuples: 20_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let tenants = vec![
        TenantSpec::new("heavy").with_max_in_flight(32),
        TenantSpec::new("starved").with_weight(0.001).with_max_in_flight(4),
    ];
    let service = JobService::new(ctx, config, tenants).unwrap();
    let addr = service.serve("127.0.0.1:0").unwrap().to_string();
    assert!(service.obs_addr().is_some());
    assert!(service.serve("127.0.0.1:0").is_err(), "double serve is a typed error");

    // Scrape all routes concurrently with the run, over real TCP.
    // Throttled: an unthrottled loop exhausts ephemeral ports/fds and
    // starves the service itself. Transient errors are tolerated (counted),
    // sustained success is asserted after the run.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = ["/metrics", "/healthz", "/flight?n=64"]
        .into_iter()
        .map(|path| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(body) = scrape(&addr, path) {
                        // `/metrics` is legitimately empty before the first
                        // sample; the JSON routes always have a body.
                        if path == "/healthz" {
                            assert!(body.contains("\"status\":\"ok\""));
                        }
                        ok += 1;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                ok
            })
        })
        .collect();

    // Phase 1: one solo mid-sized job charges the featherweight tenant a
    // huge normalized vtime (cost / 0.001) that activation re-flooring
    // keeps in place across its later idle -> backlogged transition.
    service.submit("starved", sized_plan(4_000, 0)).unwrap().wait().unwrap();

    // Phase 2: a heavy backlog (first job carries the straggler stage)
    // with one starved job queued behind it. Fair share keeps serving
    // heavy — every completion sweep sees starved backlogged and lagging.
    let mut handles = vec![service.submit("heavy", straggler_plan()).unwrap()];
    for j in 1..8 {
        handles.push(service.submit("heavy", regular_plan(j)).unwrap());
    }
    let starved_tail = service.submit("starved", regular_plan(99)).unwrap();
    for h in handles {
        h.wait().unwrap();
    }
    starved_tail.wait().unwrap();

    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        assert!(s.join().unwrap() > 0, "every route was scraped during the run");
    }

    // Write the artifacts CI uploads on failure *before* asserting.
    let flight = scrape(&addr, "/flight?n=4096").unwrap();
    let prom = scrape(&addr, "/metrics").unwrap();
    std::fs::create_dir_all("target/obs").unwrap();
    std::fs::write("target/obs/flight_dump.json", &flight).unwrap();
    std::fs::write("target/obs/metrics_snapshot.txt", &prom).unwrap();

    let m = service.context().metrics();
    assert!(
        m.counter("rheem_watchdog_starvation_total{tenant=\"starved\"}") >= 1,
        "the starved tenant is flagged:\n{prom}"
    );
    assert_eq!(
        m.counter("rheem_watchdog_starvation_total{tenant=\"heavy\"}"),
        0,
        "the well-served tenant is not"
    );
    assert_eq!(
        m.counter("rheem_watchdog_straggler_total{tenant=\"heavy\"}"),
        1,
        "exactly the injected straggler stage is flagged:\n{prom}"
    );
    assert_eq!(m.counter("rheem_watchdog_straggler_total{tenant=\"starved\"}"), 0);
    assert!(m.counter("rheem_watchdog_sweeps_total") >= 1);

    // The scraped exposition satisfies the Prometheus invariants and the
    // flight dump parses and contains the lifecycle events.
    validate_exposition(&prom).expect("scraped exposition is well-formed");
    assert!(prom.contains("rheem_watchdog_straggler_total{tenant=\"heavy\"} 1"));
    let doc = json::parse(&flight).unwrap();
    let obj = doc.as_obj("flight").unwrap();
    let events = json::get(obj, "events").unwrap().as_arr("events").unwrap();
    assert!(!events.is_empty());
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| json::get(e.as_obj("event").unwrap(), "kind").unwrap().as_str("kind").unwrap())
        .collect();
    for expected in ["job.admitted", "job.queued", "job.started", "job.completed", "watchdog"] {
        assert!(kinds.contains(&expected), "flight dump has {expected}: {kinds:?}");
    }

    // /jobs and /tenants serve coherent JSON.
    let jobs = scrape(&addr, "/jobs").unwrap();
    let jobs_doc = json::parse(&jobs).unwrap();
    let jobs_obj = jobs_doc.as_obj("jobs").unwrap();
    assert_eq!(json::get(jobs_obj, "in_flight").unwrap().as_f64("in_flight").unwrap(), 0.0);
    assert_eq!(json::get(jobs_obj, "completed").unwrap().as_f64("completed").unwrap(), 10.0);
    let tenants_body = scrape(&addr, "/tenants").unwrap();
    let tenants_doc = json::parse(&tenants_body).unwrap();
    let arr = json::get(tenants_doc.as_obj("tenants").unwrap(), "tenants")
        .unwrap()
        .as_arr("tenants")
        .unwrap();
    assert_eq!(arr.len(), 2);
    let starved = arr
        .iter()
        .map(|t| t.as_obj("tenant").unwrap())
        .find(|t| {
            json::get(t, "name").map(|n| n.as_str("name").unwrap() == "starved").unwrap_or(false)
        })
        .expect("starved tenant is listed");
    // SLO quantiles for the starved tenant's exec phase are served.
    let slo = json::get(starved, "slo").unwrap().as_obj("slo").unwrap();
    let exec = json::get(slo, "exec").unwrap().as_obj("exec").unwrap();
    assert!(json::get(exec, "p50_ms").unwrap().as_f64("p50").unwrap() > 0.0);

    // Unknown routes 404 at the transport level (scrape surfaces an error).
    assert!(scrape(&addr, "/nope").is_err());
}
