//! `tenant_cache`: a `JobService` with 4 tenants and 2 runners, driven by
//! 2 clients with 2 jobs outstanding each (one closed-loop slot per
//! tenant), so the service queue is never empty. Jobs are a stemmed
//! WordCount and, one job in four, a query sharing its tokenize→stem
//! prefix, over 24 seeded 256 KiB corpora drawn Zipf(1.1). Each tenant caches into its own
//! namespace; the cache's memory tier is smaller than the working set and
//! a disk tier takes what it sheds, so hits, promotions, publishes, spills
//! and evictions all run while jobs queue under fair share. The only
//! workload with the cache on.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rheem::core::api::RheemContext;
use rheem::core::cache::ResultCache;
use rheem::core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem::core::service::{JobService, ServiceConfig, TenantSpec};
use rheem::core::udf::{FlatMapUdf, KeyUdf, MapUdf, PredicateUdf, ReduceUdf};
use rheem::core::value::Value;
use rheem::datagen::Rng;

use crate::measure::{plan_probe, probe_of, read_inputs, JobSpec, Measured};
use crate::refs;
use crate::spans::Tracer;

const CORPORA: usize = 24;
const CORPUS_BYTES: usize = 256 << 10;
const LINE_BYTES: usize = 60;
const ZIPF_S: f64 = 1.1;
const TENANTS: usize = 4;
const RUNNERS: usize = 2;
/// Clients × jobs outstanding per client; slot `i` submits for tenant `i`.
const SLOTS: usize = 2 * 2;
/// Memory tier: a fraction of the tenants' working set.
const MEM_BUDGET: u64 = 4 << 20;
/// Disk tier: fills during the run, so spills also evict.
const DISK_BUDGET: u64 = 8 << 20;
/// Warm-up rounds of one job per tenant, to fill the cache before timing.
const WARMUP_ROUNDS: usize = 6;

pub struct State {
    service: JobService,
    /// Same platforms, no cache: the traced run's optimize/compile probe
    /// must not touch the service's cache.
    probe_ctx: RheemContext,
    cache: Arc<ResultCache>,
    jobs: Vec<JobSpec>,
    corpus_cdf: Vec<f64>,
}

fn tenant(i: usize) -> String {
    format!("tenant{i}")
}

/// The shared prefix: an opaque per-word normalisation whose cost hint
/// makes its output worth caching.
fn stem_udf() -> MapUdf {
    MapUdf::new("stem", |v| Value::from(refs::stem(v.as_str().unwrap_or("")))).cost(64.0)
}

fn stemmed_wordcount_plan(path: &Path) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(stem_udf())
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().expect("stemmed wordcount plan"), sink)
}

fn long_stems_plan(path: &Path) -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .read_text_file(path)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(stem_udf())
        .filter(PredicateUdf::new("long", |v| v.as_str().is_some_and(|s| s.len() > 6)))
        .count()
        .collect();
    (b.build().expect("long-stems plan"), sink)
}

/// A job index: a Zipf-drawn corpus, then its WordCount (3 in 4) or its
/// shared-prefix query (1 in 4). Most shared-prefix jobs replay their
/// whole result from the cache; were they half the jobs, the median job
/// would sit on the gap between replays and executions.
fn draw(rng: &mut Rng, corpus_cdf: &[f64]) -> usize {
    let u = rng.unit();
    let corpus = corpus_cdf.iter().position(|&c| u < c).unwrap_or(CORPORA - 1);
    2 * corpus + usize::from(rng.below(4) == 0)
}

pub fn setup(seed: u64, _dir: &Path) -> State {
    let mut jobs = Vec::with_capacity(2 * CORPORA);
    for i in 0..CORPORA {
        let lines = rheem::datagen::generate_text(
            CORPUS_BYTES / LINE_BYTES,
            10,
            50_000,
            seed * 1000 + i as u64,
        );
        let path = PathBuf::from(format!("hdfs://tenants/corpus{i:02}.txt"));
        let input_bytes = rheem::storage::write_lines(&path, &lines).expect("write corpus");
        let (counts, long) = (refs::word_counts(&lines, true), refs::long_stems(&lines));
        let p = path.clone();
        jobs.push(JobSpec {
            kind: "wordcount",
            build: Box::new(move || stemmed_wordcount_plan(&p)),
            check: Box::new(move |out| refs::check_word_counts(out, &counts)),
            reads: vec![path.clone()],
            input_bytes,
        });
        let p = path.clone();
        jobs.push(JobSpec {
            kind: "long_stems",
            build: Box::new(move || long_stems_plan(&p)),
            check: Box::new(move |out| refs::check_count(out, long)),
            reads: vec![path],
            input_bytes,
        });
    }
    let weights: Vec<f64> = (1..=CORPORA).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let corpus_cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let cache = Arc::new(ResultCache::with_disk(MEM_BUDGET, DISK_BUDGET));
    let ctx = crate::pinned(rheem_bench::default_context(), Some(Arc::clone(&cache)));
    let config = ServiceConfig { runners: RUNNERS, seed, ..ServiceConfig::default() };
    let service =
        JobService::new(ctx, config, (0..TENANTS).map(|t| TenantSpec::new(&tenant(t))).collect())
            .expect("job service");
    let state = State {
        service,
        probe_ctx: crate::pinned(rheem_bench::default_context(), None),
        cache,
        jobs,
        corpus_cdf,
    };

    let mut rng = Rng::new(seed ^ 0x5eed);
    for _ in 0..WARMUP_ROUNDS {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let plan = (state.jobs[draw(&mut rng, &state.corpus_cdf)].build)().0;
                state.service.submit(&tenant(t), plan).expect("warm-up submit")
            })
            .collect();
        for h in handles {
            h.wait().expect("warm-up job");
        }
    }
    state
}

pub fn run(s: &State, seed: u64, seconds: f64, tracer: Option<Tracer>) -> Measured {
    let before = s.cache.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SLOTS)
            .map(|slot| {
                let tracer = tracer.as_ref();
                scope.spawn(move || slot_loop(s, slot, seed, deadline, tracer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut m = Measured { wall_s: start.elapsed().as_secs_f64(), ..Measured::default() };
    let mut completed = vec![0.0; TENANTS];
    for (slot, part) in parts.into_iter().enumerate() {
        completed[slot % TENANTS] += part.samples.iter().filter(|x| x.ok).count() as f64;
        m.merge(part);
    }
    m.cache = Some((before, s.cache.stats()));
    m.tenants = Some((completed, vec![1.0; TENANTS]));
    m.tracer = tracer;
    m
}

/// One closed-loop slot: submit for tenant `slot`, wait, check, repeat
/// until the deadline. With a tracer every other job is traced.
fn slot_loop(
    s: &State,
    slot: usize,
    seed: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Measured {
    let tenant = tenant(slot % TENANTS);
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ slot as u64);
    let mut m = Measured::default();
    let mut i = 0;
    while Instant::now() < deadline {
        let spec = &s.jobs[draw(&mut rng, &s.corpus_cdf)];
        match tracer.filter(|_| i % 2 == 1) {
            Some(t) => traced_job(s, &tenant, spec, t, &mut m),
            None => {
                let (plan, sink) = (spec.build)();
                let t0 = Instant::now();
                let result = s.service.submit(&tenant, plan).and_then(|h| h.wait());
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                m.record(spec, sink, result, latency_ms, false);
            }
        }
        i += 1;
    }
    m
}

/// A traced service job: build, read, optimize and compile (on the probe
/// context) inside spans, then submit and wait.
fn traced_job(s: &State, tenant: &str, spec: &JobSpec, t: &Tracer, m: &mut Measured) {
    let mut js = t.job();
    let (plan, sink) = js.span("plan.build", || (spec.build)());
    let probe = js
        .span("storage", || read_inputs(spec))
        .and_then(|()| plan_probe(&mut js, &s.probe_ctx, &plan));
    let result = js.span("service.submit", || s.service.submit(tenant, plan));
    let result = result.and_then(|h| js.span("service.wait", || h.wait()));
    let latency_ms = js.last_ms("service.submit") + js.last_ms("service.wait");
    let done = js.span("check", || m.record(spec, sink, result, latency_ms, true));
    match probe {
        Ok((opt, eplan)) => {
            let mut p = probe_of(&opt, eplan.nodes.len(), eplan.stages.len(), done.as_ref());
            p.wait_ms =
                Some(latency_ms - p.run_ms - js.last_ms("optimizer") - js.last_ms("execplan"));
            m.probes.push(p);
        }
        Err(e) => m.fail_last(format!("{} probe: {e}", spec.kind)),
    }
    js.finish();
}
