//! Quick end-to-end benchmark: WordCount, SGD and CrocoPR at a small fixed
//! scale, real wall-clock milliseconds, written to `BENCH_PR1.json` at the
//! repo root (plus stdout). Stdout also gives each task's median
//! `optimize()` wall time and its share of the median `execute()`. Used to track the reproduction's own execution
//! performance across PRs — virtual cluster time is reported separately by
//! the `fig*` binaries.
//!
//! Run with `cargo run --release --bin quickbench`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rheem_bench::{community_files, corpus_file, default_context, graph_context, wordcount_plan};
use rheem_core::api::RheemContext;
use rheem_core::plan::RheemPlan;

struct Entry {
    task: &'static str,
    mean_ms: f64,
    min_ms: f64,
    iters: u32,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Time `iters` executions of `plan` after one warm-up. Each iteration also
/// times `optimize()` alone, so the optimizer's share of a job is printed
/// next to the job's own latency.
fn measure(task: &'static str, iters: u32, ctx: &RheemContext, plan: &RheemPlan) -> Entry {
    ctx.execute(plan).unwrap(); // warm-up
    let mut exec = Vec::new();
    let mut opt = Vec::new();
    for _ in 0..iters {
        let t = Instant::now();
        ctx.optimize(plan).unwrap();
        opt.push(ms_since(t));
        let t = Instant::now();
        ctx.execute(plan).unwrap();
        exec.push(ms_since(t));
    }
    let e = Entry {
        task,
        mean_ms: exec.iter().sum::<f64>() / iters as f64,
        min_ms: exec.iter().copied().fold(f64::INFINITY, f64::min),
        iters,
    };
    let (opt_med, exec_med) = (median(opt), median(exec));
    println!(
        "{:<12} {:>9.2} ms mean  {:>9.2} ms min  ({} iters)  optimize {:>7.2} ms median, \
         {:>5.1}% of execute's {:.2} ms median",
        e.task,
        e.mean_ms,
        e.min_ms,
        e.iters,
        opt_med,
        100.0 * opt_med / exec_med,
        exec_med
    );
    e
}

fn main() {
    let mut entries = Vec::new();

    // WordCount: 256 KB corpus, free platform choice.
    {
        let path = corpus_file("quick_wc", 256, 5);
        let (plan, _) = wordcount_plan(&path).unwrap();
        entries.push(measure("wordcount", 10, &default_context(), &plan));
    }

    // SGD: 10k points, 4 features, 15 iterations.
    {
        let points = Arc::new(rheem_datagen::generate_points(10_000, 4, 0.05, 9).points);
        let cfg = ml4all::SgdConfig { iterations: 15, batch: 64, ..Default::default() };
        let (plan, _) =
            ml4all::build_sgd_plan(ml4all::PointSource::InMemory(points), &cfg).unwrap();
        entries.push(measure("sgd", 10, &default_context(), &plan));
    }

    // CrocoPR: ~10k edges, 5 PageRank iterations.
    {
        let (fa, fb) = community_files("quick_cpr", 10_000, 5);
        let (plan, _) = xdb::build_crocopr_plan(xdb::CrocoSource::Files(fa, fb), 5).unwrap();
        entries.push(measure("crocopr", 10, &graph_context(), &plan));
    }

    let mut json = String::from(
        "{\n  \"bench\": \"quickbench\",\n  \"unit\": \"wall_clock_ms\",\n  \"tasks\": {\n",
    );
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"iters\": {} }}{comma}",
            e.task, e.mean_ms, e.min_ms, e.iters
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_PR1.json", &json).expect("write BENCH_PR1.json");
    println!("-- wrote BENCH_PR1.json");
}
