//! What one run records, the closed-loop client of the single-client
//! workloads, and the metrics computed from a run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rheem::core::api::{JobResult, RheemContext};
use rheem::core::cache::CacheStats;
use rheem::core::execplan::build_exec_plan;
use rheem::core::executor::Executor;
use rheem::core::monitor::Monitor;
use rheem::core::optimizer::OptimizedPlan;
use rheem::core::plan::{OperatorId, RheemPlan};
use rheem::core::platform::PlatformId;
use rheem::core::value::Dataset;

use crate::spans::{self, JobSpans, Tracer};
use crate::stats::{jain_index, mean, percentile};

/// Builds a job's plan; returns it with its sink.
pub type Build = Box<dyn Fn() -> (RheemPlan, OperatorId) + Send + Sync>;
/// Checks a job's output against the benchmark's reference.
pub type Check = Box<dyn Fn(&Dataset) -> Result<(), String> + Send + Sync>;

/// One job the benchmark can submit: how to build its plan, how to check
/// its output, and what it reads.
pub struct JobSpec {
    /// Label of the job kind (groups context lines and repeats per kind).
    pub kind: &'static str,
    pub build: Build,
    pub check: Check,
    /// Files the job reads through the storage layer.
    pub reads: Vec<PathBuf>,
    /// Bytes of input the job processes.
    pub input_bytes: u64,
}

/// One finished job of the measured window.
pub struct Sample {
    pub kind: &'static str,
    pub latency_ms: f64,
    pub virtual_ms: f64,
    pub input_bytes: u64,
    pub ok: bool,
    pub traced: bool,
}

/// Counts a traced job reports besides its spans.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub partials_created: f64,
    pub partials_pruned: f64,
    pub candidates: f64,
    pub est_ms: f64,
    pub nodes: f64,
    pub stages: f64,
    pub stage_runs: f64,
    pub tuples_out: f64,
    pub replans: f64,
    pub spans_per_job: f64,
    /// Executor time: the first-phase `Executor::run` probe of a direct job;
    /// the program's own `JobMetrics::real_ms` for a service job, which has
    /// no executor probe.
    pub run_ms: f64,
    /// Service jobs only: submit→result minus execution, optimize and compile.
    pub wait_ms: Option<f64>,
}

/// Plan choice of the last finished job of each kind (context, not metrics).
#[derive(Clone, Debug, Default)]
pub struct KindInfo {
    pub jobs: usize,
    pub platforms: Vec<PlatformId>,
    pub replans: u32,
    pub est_ms: f64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub probes: Vec<Probe>,
    pub kinds: BTreeMap<&'static str, KindInfo>,
    pub failures: Vec<String>,
    /// Cache counters at the start and the end of the window.
    pub cache: Option<(CacheStats, CacheStats)>,
    /// Jobs completed per tenant, with the tenants' weights.
    pub tenants: Option<(Vec<f64>, Vec<f64>)>,
    pub tracer: Option<Tracer>,
}

impl Measured {
    /// Account one finished job. `result` is the job's outcome; its output
    /// is checked here.
    pub fn record(
        &mut self,
        spec: &JobSpec,
        sink: OperatorId,
        result: rheem::core::error::Result<JobResult>,
        latency_ms: f64,
        traced: bool,
    ) -> Option<JobResult> {
        let checked = result.map_err(|e| e.to_string()).and_then(|r| {
            r.sink(sink).map_err(|e| e.to_string()).and_then(|d| (spec.check)(d)).map(|_| r)
        });
        let (ok, virtual_ms, result) = match checked {
            Ok(r) => {
                let info = self.kinds.entry(spec.kind).or_default();
                info.jobs += 1;
                info.platforms = r.metrics.platforms.clone();
                info.replans = r.metrics.replans;
                info.est_ms = r.metrics.est_ms;
                (true, r.metrics.virtual_ms, Some(r))
            }
            Err(e) => {
                self.failures.push(format!("{}: {e}", spec.kind));
                (false, 0.0, None)
            }
        };
        self.samples.push(Sample {
            kind: spec.kind,
            latency_ms,
            virtual_ms,
            input_bytes: spec.input_bytes,
            ok,
            traced,
        });
        result
    }

    /// Count the last recorded job as failed: one of its probe calls failed.
    pub fn fail_last(&mut self, why: String) {
        if let Some(s) = self.samples.last_mut() {
            s.ok = false;
        }
        self.failures.push(why);
    }

    /// Fold a client thread's measurements into this run's.
    pub fn merge(&mut self, other: Measured) {
        self.samples.extend(other.samples);
        self.probes.extend(other.probes);
        self.failures.extend(other.failures);
        for (kind, info) in other.kinds {
            let e = self.kinds.entry(kind).or_default();
            let jobs = e.jobs + info.jobs;
            *e = KindInfo { jobs, ..info };
        }
    }
}

/// Plan-level counts of the probe calls, and of the job's own trace.
pub fn probe_of(
    opt: &OptimizedPlan,
    nodes: usize,
    stages: usize,
    result: Option<&JobResult>,
) -> Probe {
    let mut p = Probe {
        partials_created: opt.stats.partials_created as f64,
        partials_pruned: opt.stats.partials_pruned as f64,
        candidates: opt.stats.candidates as f64,
        est_ms: opt.est_ms,
        nodes: nodes as f64,
        stages: stages as f64,
        ..Probe::default()
    };
    if let Some(r) = result {
        p.replans = r.metrics.replans as f64;
        p.run_ms = r.metrics.real_ms;
        if let Some(t) = &r.trace {
            p.spans_per_job = t.spans.len() as f64;
            p.stage_runs = t.runs.iter().filter(|r| !r.superseded).count() as f64;
            p.tuples_out = t
                .profiles_effective()
                .filter(|p| !p.is_pseudo())
                .map(|p| p.tuples_out as f64)
                .sum();
        }
    }
    p
}

/// Read every input of `spec` through the storage layer (the traced run's
/// storage probe).
pub fn read_inputs(spec: &JobSpec) -> Result<(), String> {
    for path in &spec.reads {
        let lines = rheem::storage::read_lines(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        std::hint::black_box(lines);
    }
    Ok(())
}

/// Optimize and compile `plan` on `ctx` inside spans; the probe a traced
/// job runs before the job itself.
pub fn plan_probe(
    js: &mut JobSpans<'_>,
    ctx: &RheemContext,
    plan: &RheemPlan,
) -> Result<(OptimizedPlan, rheem::core::execplan::ExecPlan), String> {
    let opt = js.span("optimizer", || ctx.optimize(plan)).map_err(|e| e.to_string())?;
    let eplan = js
        .span("execplan", || {
            build_exec_plan(plan, &opt, ctx.registry(), ctx.profiles(), ctx.cost_model())
        })
        .map_err(|e| e.to_string())?;
    Ok((opt, eplan))
}

/// Closed loop, one client: run jobs `pick(0), pick(1), ...` on `ctx`
/// until `seconds` have passed. With a tracer, every other round of
/// `round` jobs is traced, so traced and untraced jobs interleave over the
/// same job mix.
pub fn run_direct(
    ctx: &RheemContext,
    jobs: &[JobSpec],
    mut pick: impl FnMut(usize) -> usize,
    round: usize,
    seconds: f64,
    tracer: Option<Tracer>,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let spec = &jobs[pick(i)];
        match tracer.as_ref().filter(|_| (i / round) % 2 == 1) {
            Some(t) => traced_direct_job(ctx, spec, t, &mut m),
            None => {
                let (plan, sink) = (spec.build)();
                let t0 = Instant::now();
                let result = ctx.execute(&plan);
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                m.record(spec, sink, result, latency_ms, false);
            }
        }
        i += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.tracer = tracer;
    m
}

/// A traced direct job: build, read, optimize, compile and run the first
/// phase as probes, then the job itself through `execute`.
fn traced_direct_job(ctx: &RheemContext, spec: &JobSpec, t: &Tracer, m: &mut Measured) {
    let mut js = t.job();
    let (plan, sink) = js.span("plan.build", || (spec.build)());
    let probe = js.span("storage", || read_inputs(spec)).and_then(|()| {
        let (opt, eplan) = plan_probe(&mut js, ctx, &plan)?;
        let monitor = Monitor::new();
        js.span("executor", || {
            Executor::new(&plan, &opt, &eplan, ctx.profiles(), ctx.config(), &monitor).run()
        })
        .map_err(|e| e.to_string())?;
        Ok((opt, eplan.nodes.len(), eplan.stages.len()))
    });
    let result = js.span("execute", || ctx.execute(&plan));
    let latency_ms = js.last_ms("execute");
    let done = js.span("check", || m.record(spec, sink, result, latency_ms, true));
    match probe {
        Ok((opt, nodes, stages)) => {
            let mut p = probe_of(&opt, nodes, stages, done.as_ref());
            p.run_ms = js.last_ms("executor");
            m.probes.push(p);
        }
        Err(e) => m.fail_last(format!("{} probe: {e}", spec.kind)),
    }
    js.finish();
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn mib(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

/// High-water resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let ok: Vec<&Sample> = m.samples.iter().filter(|s| s.ok).collect();
    let latency: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let virt: Vec<f64> = ok.iter().map(|s| s.virtual_ms).collect();
    let input: f64 = ok.iter().map(|s| s.input_bytes as f64).sum();
    vec![
        ("job_ms.p50", percentile(&latency, 50.0).unwrap_or(0.0), "ms"),
        ("job_ms.p90", percentile(&latency, 90.0).unwrap_or(0.0), "ms"),
        ("jobs_per_s", ok.len() as f64 / m.wall_s, "1/s"),
        ("input_mb_per_s", mib(input) / m.wall_s, "MiB/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("virtual_ms.p50", percentile(&virt, 50.0).unwrap_or(0.0), "ms"),
    ]
}

/// The per-layer metrics of a traced run. Times are the self time of the
/// benchmark's span around each layer's call, averaged over traced jobs; a
/// layer the workload does not exercise reads 0.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let spans = m.tracer.as_ref().map(Tracer::spans).unwrap_or_default();
    let by_name = spans::self_time_by_name(&spans);
    let traced_jobs = by_name.get("job").map_or(0, |e| e.0).max(1) as f64;
    let total = |name: &str| by_name.get(name).map_or(0.0, |e| e.1);
    let per_job = |name: &str| total(name) / traced_jobs;
    let probe_mean = |f: fn(&Probe) -> f64| mean(&m.probes.iter().map(f).collect::<Vec<_>>());

    // Job wall: `execute` for direct jobs, submit→result for service jobs.
    let job_wall = total("execute") + total("service.submit") + total("service.wait");
    let optimize = total("optimizer");
    let other = total("execute") - total("optimizer") - total("execplan") - total("executor");
    let direct = total("execute") > 0.0;

    // Traced against untraced median latency, per job kind (kinds differ
    // by orders of magnitude), averaged over kinds.
    let p50_of = |kind: &str, traced: bool| {
        let v: Vec<f64> = m
            .samples
            .iter()
            .filter(|s| s.ok && s.kind == kind && s.traced == traced)
            .map(|s| s.latency_ms)
            .collect();
        percentile(&v, 50.0)
    };
    let ratios: Vec<f64> = m
        .kinds
        .keys()
        .filter_map(|k| match (p50_of(k, true), p50_of(k, false)) {
            (Some(t), Some(u)) if u > 0.0 => Some(t / u),
            _ => None,
        })
        .collect();
    let overhead = if ratios.is_empty() { 0.0 } else { mean(&ratios) - 1.0 };
    let waits: Vec<f64> = m.probes.iter().filter_map(|p| p.wait_ms).collect();
    let (c0, c1) = m.cache.unwrap_or_default();
    let (hits, misses) = ((c1.hits - c0.hits) as f64, (c1.misses - c0.misses) as f64);
    let attempted = m.samples.len().max(1) as f64;
    let failed = m.samples.iter().filter(|s| !s.ok).count() as f64;

    vec![
        ("plan.build_ms", per_job("plan.build"), "ms"),
        ("optimizer.optimize_ms", per_job("optimizer"), "ms"),
        ("optimizer.share", if job_wall > 0.0 { optimize / job_wall } else { 0.0 }, "frac"),
        ("optimizer.partials_created", probe_mean(|p| p.partials_created), "count"),
        ("optimizer.partials_pruned", probe_mean(|p| p.partials_pruned), "count"),
        ("optimizer.candidates", probe_mean(|p| p.candidates), "count"),
        (
            "optimizer.us_per_partial",
            optimize * 1e3 / m.probes.iter().map(|p| p.partials_created).sum::<f64>().max(1.0),
            "us",
        ),
        ("optimizer.est_ms", probe_mean(|p| p.est_ms), "ms"),
        ("execplan.compile_ms", per_job("execplan"), "ms"),
        ("execplan.nodes", probe_mean(|p| p.nodes), "count"),
        ("execplan.stages", probe_mean(|p| p.stages), "count"),
        ("executor.run_ms", probe_mean(|p| p.run_ms), "ms"),
        ("executor.stage_runs", probe_mean(|p| p.stage_runs), "count"),
        ("executor.tuples_out", probe_mean(|p| p.tuples_out), "count"),
        ("progressive.replans", probe_mean(|p| p.replans), "count"),
        ("progressive.other_ms", if direct { other / traced_jobs } else { 0.0 }, "ms"),
        ("storage.read_ms", per_job("storage"), "ms"),
        ("cache.hit_ratio", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 }, "frac"),
        ("cache.hits", hits, "count"),
        ("cache.misses", misses, "count"),
        ("cache.inserts", (c1.inserts - c0.inserts) as f64, "count"),
        ("cache.evictions", (c1.evictions - c0.evictions) as f64, "count"),
        ("cache.spills", (c1.spills - c0.spills) as f64, "count"),
        ("cache.promotions", (c1.promotions - c0.promotions) as f64, "count"),
        ("cache.resident_bytes", c1.bytes as f64, "B"),
        ("cache.spilled_bytes", c1.spilled_bytes as f64, "B"),
        ("service.submit_ms", per_job("service.submit"), "ms"),
        ("service.wait_ms.p50", percentile(&waits, 50.0).unwrap_or(0.0), "ms"),
        ("service.wait_ms.p90", percentile(&waits, 90.0).unwrap_or(0.0), "ms"),
        ("service.fairness", m.tenants.as_ref().map_or(0.0, |(c, w)| jain_index(c, w)), "frac"),
        ("obs.spans_per_job", probe_mean(|p| p.spans_per_job), "count"),
        ("bench.trace_overhead_frac", overhead, "frac"),
        ("failed_frac", failed / attempted, "frac"),
    ]
}
