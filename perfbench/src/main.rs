//! Wall-clock benchmark of rheem-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wordcount_6m|plan_mix|tenant_cache> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from the
//! seed into a fresh directory under `.bench_run/` (also the process's temp
//! directory, so spill files land there too), sets up the workload several
//! times, measures closed-loop jobs for the given seconds, checks every
//! job's output against a plain-Rust reference, and prints one JSON object
//! as the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` interleaves traced jobs, whose calls into each layer
//! are wrapped in spans, and reports the per-layer metrics. Spans are
//! written to `.bench_out/` after the run.

mod measure;
mod plan_mix;
mod refs;
mod spans;
mod stats;
mod tenant_cache;
mod wordcount;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rheem::core::api::RheemContext;
use rheem::core::cache::ResultCache;
use rheem::core::pool;

use measure::{Measured, Metric};
use spans::Tracer;

/// Every workload the program runs. `BENCHMARK.json` lists the ones the
/// benchmark gates on; `wordcount_6m` is left out there (see NOTES.md).
const WORKLOADS: [&str; 3] = ["wordcount_6m", "plan_mix", "tenant_cache"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| bad("expected an unsigned integer"))?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected seconds > 0"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Every setting rheem-rs would otherwise read from the environment
/// (`RHEEM_CACHE*`, `RHEEM_BATCH`, `RHEEM_SCHED`), pinned through the API.
/// The values are the ones a default build picks on this host.
pub fn pinned(ctx: RheemContext, cache: Option<Arc<ResultCache>>) -> RheemContext {
    let mut ctx = ctx.with_batch(true);
    ctx.set_cache(cache);
    let config = ctx.config_mut();
    config.concurrent = Some(pool::size() > 1);
    config.tracing = true;
    ctx
}

/// Host facts that results depend on: cores, the worker pool's size, and
/// any `RHEEM_*` variable (the pool size and the scrape address can only
/// be set that way).
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("RHEEM_")).collect();
    env.sort();
    let env = env.iter().map(|(k, v)| format!("\"{k}\":{v:?}")).collect::<Vec<_>>().join(",");
    format!("{{\"nproc\":{nproc},\"pool_size\":{},\"rheem_env\":{{{env}}}}}", pool::size())
}

/// Set up `SETUP_REPS` times, each in a fresh directory whose `hdfs/`
/// backs `hdfs://` URIs; keep the last set-up. Returns it with the median
/// set-up time in seconds.
fn timed_setups<S>(run_dir: &Path, mut setup: impl FnMut(&Path) -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for k in 0..SETUP_REPS {
        if let Some(prev) = state.take() {
            drop(prev);
            let _ = std::fs::remove_dir_all(run_dir.join(format!("setup{}", k - 1)));
        }
        let dir = run_dir.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir).expect("create set-up directory");
        rheem::storage::set_hdfs_root(dir.join("hdfs"));
        let t0 = Instant::now();
        state = Some(setup(&dir));
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::percentile(&times, 50.0).expect("at least one set-up");
    (state.expect("at least one set-up"), median)
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `.bench_run` itself goes once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn context_lines(m: &Measured) -> String {
    let mut out = String::new();
    for (kind, info) in &m.kinds {
        let platforms: Vec<String> = info.platforms.iter().map(|p| p.to_string()).collect();
        let latency: Vec<f64> =
            m.samples.iter().filter(|s| s.ok && s.kind == *kind).map(|s| s.latency_ms).collect();
        let _ = writeln!(
            out,
            "# kind {kind}: {} jobs, p50 {:.1} ms, platforms [{}], replans {}, est_ms {:.3}",
            info.jobs,
            stats::percentile(&latency, 50.0).unwrap_or(0.0),
            platforms.join(", "),
            info.replans,
            info.est_ms
        );
    }
    for f in m.failures.iter().take(5) {
        let _ = writeln!(out, "# failure: {f}");
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = std::env::current_dir()
        .expect("working directory")
        .join(".bench_run")
        .join(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("create run directory");
    let run_dir = RunDir(run_dir);
    // Spill files and graph shards go to the temp directory; keep them in
    // the run directory. No other thread exists yet.
    std::env::set_var("TMPDIR", &run_dir.0);
    println!("# host {}", host_fingerprint());

    let tracer = args.trace.then(Tracer::new);
    let seconds = args.seconds;
    let (m, setup_s): (Measured, f64) = match args.workload.as_str() {
        "wordcount_6m" => {
            let (s, setup_s) = timed_setups(&run_dir.0, |dir| wordcount::setup(args.seed, dir));
            (wordcount::run(&s, seconds, tracer), setup_s)
        }
        "plan_mix" => {
            let (s, setup_s) = timed_setups(&run_dir.0, |dir| plan_mix::setup(args.seed, dir));
            (plan_mix::run(&s, args.seed, seconds, tracer), setup_s)
        }
        "tenant_cache" => {
            let (s, setup_s) = timed_setups(&run_dir.0, |dir| tenant_cache::setup(args.seed, dir));
            (tenant_cache::run(&s, args.seed, seconds, tracer), setup_s)
        }
        other => unreachable!("workload {other} passed argument checks"),
    };

    let metrics = if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        m.tracer.as_ref().expect("traced run").write_jsonl(&path).expect("write spans");
        println!("# spans written to {}", path.display());
        measure::per_layer(&m)
    } else {
        measure::end_to_end(&m, setup_s)
    };
    print!("{}", context_lines(&m));
    let attempted = m.samples.len();
    let failed = m.samples.iter().filter(|s| !s.ok).count();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let m = Measured { wall_s: 1.0, ..Measured::default() };
        for metrics in [measure::end_to_end(&m, 1.0), measure::per_layer(&m)] {
            let mut seen = std::collections::HashSet::new();
            for (name, _, unit) in metrics {
                assert!(valid_name(name), "{name}");
                assert!(seen.insert(name), "{name} twice");
                assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            }
        }
    }

    /// BENCHMARK.json lists exactly the metrics the program prints, with
    /// the same units, and only workloads the program runs.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let m = Measured { wall_s: 1.0, ..Measured::default() };
        let printed: Vec<Metric> =
            measure::end_to_end(&m, 1.0).into_iter().chain(measure::per_layer(&m)).collect();
        for (name, _, unit) in &printed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads: Vec<&str> = spec
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split_once("\", \"why\": ").map(|(name, _)| name))
            .collect();
        assert!(workloads.len() >= 2);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(w)), "{workloads:?}");
        assert_eq!(spec.matches("{\"name\": ").count(), printed.len() + workloads.len());
    }

    #[test]
    fn metrics_print_as_json_objects() {
        let s = json_metrics(&[("a.b", 1.5, "ms"), ("c", 2.0, "1/s")]);
        assert_eq!(s, "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"1/s\"}}");
    }
}
