//! Scheduler benchmark: the concurrent DAG scheduler vs the sequential
//! stage walk, on the Fig. 2(d) polystore query (TPC-H Q5 via Data
//! Civilizer), the Fig. 10(a) TPC-H join task, and a multi-sink batch of
//! independent lake tasks. Measures
//!
//! * **wall-clock of the execution region** per mode (min over iterations;
//!   the optimizer is identical in both modes and would only add noise),
//! * **virtual makespan** (critical-path composition of stage times) vs the
//!   **sequential sum** of per-stage virtual times — the virtual-time win
//!   the DAG scheduler's overlap buys, and
//! * a **worker-pool microbenchmark**: per-operator-call overhead of the
//!   shared pool vs the fresh-`thread::scope`-per-call pattern it replaced.
//!
//! Wall-clock overlap needs real cores: on a single-CPU host the adaptive
//! scheduler falls back to the in-line walk and the two modes tie, which is
//! exactly the desired behavior (concurrency must never cost wall time).
//! The virtual makespan, in contrast, is host-independent: lanes model the
//! platforms' stage capacity, so the critical-path win shows everywhere.
//!
//! Writes `BENCH_PR4.json` at the repo root and fails (non-zero exit) if
//! the concurrent makespan is worse than the sequential composition —
//! `scripts/check.sh` runs this as a gate.
//!
//! Run with `cargo run --release --bin sched_bench`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use platform_postgres::{PgDatabase, PostgresPlatform};
use rheem_bench::*;
use rheem_core::plan::RheemPlan;

const ITERS: u32 = 12;

struct TaskReport {
    task: &'static str,
    seq_wall_ms: f64,
    conc_wall_ms: f64,
    makespan_ms: f64,
    stage_sum_ms: f64,
}

fn polystore_ctx(db: &Arc<PgDatabase>, concurrent: Option<bool>) -> rheem_core::api::RheemContext {
    let mut ctx = default_context();
    ctx.register_platform(&PostgresPlatform::new(Arc::clone(db)));
    ctx.config_mut().concurrent = concurrent;
    ctx
}

/// Min execution-region wall time over `ITERS` runs (plus one warm-up).
fn min_exec_ms(db: &Arc<PgDatabase>, concurrent: Option<bool>, plan: &RheemPlan) -> f64 {
    let ctx = polystore_ctx(db, concurrent);
    ctx.execute(plan).unwrap(); // warm-up (pool spin-up, page cache)
    let mut min = f64::INFINITY;
    for _ in 0..ITERS {
        min = min.min(ctx.execute(plan).unwrap().metrics.real_ms);
    }
    min
}

fn bench_task(task: &'static str, db: &Arc<PgDatabase>, plan: &RheemPlan) -> TaskReport {
    // Forced-sequential walk vs the scheduler as shipped (adaptive).
    let seq_wall_ms = min_exec_ms(db, Some(false), plan);
    let conc_wall_ms = min_exec_ms(db, None, plan);

    // Virtual makespan and per-stage sum from one traced run. Both modes
    // produce byte-identical traces, so either serves. (Virtual times on
    // partitioned engines fold in *measured* per-partition real times, so
    // they are compared within a single run, never across runs.)
    let run = polystore_ctx(db, None).execute(plan).unwrap();
    let makespan_ms = run.metrics.virtual_ms;
    let trace = run.trace.expect("tracing on");
    let stage_sum_ms: f64 = trace.runs.iter().filter(|r| !r.superseded).map(|r| r.virtual_ms).sum();

    println!(
        "{task}: exec wall seq {seq_wall_ms:.3} ms, conc {conc_wall_ms:.3} ms (min of {ITERS}); \
         virtual makespan {makespan_ms:.1} ms vs sequential sum {stage_sum_ms:.1} ms"
    );
    TaskReport { task, seq_wall_ms, conc_wall_ms, makespan_ms, stage_sum_ms }
}

/// Per-call overhead of a scoped parallel map: fresh `std::thread::scope`
/// with one thread per partition (the pattern the partitioned engine used
/// before the pool) vs the shared worker pool its task waves now run on.
/// Returns µs/call for each.
fn pool_microbench() -> (f64, f64) {
    const CALLS: u32 = 300;
    let nparts = rheem_core::pool::size().max(2);
    let parts: Vec<Vec<u64>> =
        (0..nparts).map(|p| (0..64u64).map(|i| i + p as u64).collect()).collect();
    let work = |part: &[u64]| part.iter().copied().sum::<u64>();

    let bench = |run_call: &dyn Fn() -> u64| {
        let mut sink = 0u64;
        sink = sink.wrapping_add(run_call()); // warm-up
        let t = Instant::now();
        for _ in 0..CALLS {
            sink = sink.wrapping_add(run_call());
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / CALLS as f64;
        assert!(sink > 0);
        us
    };

    let spawn_us = bench(&|| {
        let acc = std::sync::Mutex::new(0u64);
        std::thread::scope(|s| {
            for part in &parts {
                let acc = &acc;
                s.spawn(move || {
                    let v = work(part);
                    *acc.lock().unwrap() += v;
                });
            }
        });
        let v = *acc.lock().unwrap();
        v
    });
    let pool_us = bench(&|| {
        let acc = std::sync::Mutex::new(0u64);
        rheem_core::pool::scope(|s| {
            for part in &parts {
                let acc = &acc;
                s.spawn(move || {
                    let v = work(part);
                    *acc.lock().unwrap() += v;
                });
            }
        });
        let v = *acc.lock().unwrap();
        v
    });
    println!(
        "pool microbench: thread::scope {spawn_us:.1} µs/call vs shared pool {pool_us:.1} µs/call \
         ({nparts} partitions, {CALLS} calls)"
    );
    (spawn_us, pool_us)
}

fn main() {
    let s = scale();
    let mut rows = Vec::new();

    // Fig. 2(d): the polystore Q5 — stages spread over Postgres, Spark and
    // the driver, with independent dimension-table branches to overlap.
    {
        let data = rheem_datagen::tpch::generate((1.0 * s).max(0.01), 7);
        let p = dataciv::place(&data, "sched_bench_2d").expect("placement");
        let (plan, _) = dataciv::build_q5_plan(&p, "ASIA", 1995).expect("plan");
        rows.push(bench_task("fig2d_polystore_q5", &p.db, &plan));
    }

    // Fig. 10(a): the SUPPLIER ⋈ CUSTOMER join task out of Postgres.
    {
        let data = rheem_datagen::tpch::generate((1.0 * s).max(0.01), 11);
        let p = dataciv::place(&data, "sched_bench_10a").expect("placement");
        let (plan, _) = dataciv::build_join_task(&p.db).expect("plan");
        rows.push(bench_task("fig10a_join", &p.db, &plan));
    }

    // Multi-sink batch of independent lake tasks: disjoint stage DAGs, the
    // widest overlap surface for the scheduler.
    {
        let data = rheem_datagen::tpch::generate((1.0 * s).max(0.01), 13);
        let p = dataciv::place(&data, "sched_bench_batch").expect("placement");
        let (plan, _) = dataciv::build_task_batch(&p).expect("plan");
        rows.push(bench_task("task_batch", &p.db, &plan));
    }

    let (spawn_us, pool_us) = pool_microbench();

    // Gates. Makespan must never exceed the strictly serial composition;
    // the multi-branch workloads (polystore Q5, disjoint task batch) must
    // show a strict critical-path win; and the shared pool must beat the
    // per-call thread spawn it replaced.
    for r in &rows {
        assert!(
            r.makespan_ms <= r.stage_sum_ms + 1e-9,
            "{}: concurrent makespan {:.1} ms worse than sequential sum {:.1} ms",
            r.task,
            r.makespan_ms,
            r.stage_sum_ms
        );
    }
    for task in ["fig2d_polystore_q5", "task_batch"] {
        let r = rows.iter().find(|r| r.task == task).expect("task benched");
        assert!(
            r.makespan_ms < r.stage_sum_ms,
            "{task}: virtual makespan {:.1} ms not strictly below the sequential sum {:.1} ms",
            r.makespan_ms,
            r.stage_sum_ms
        );
    }
    assert!(
        pool_us < spawn_us,
        "shared pool ({pool_us:.1} µs/call) not faster than per-call thread::scope \
         ({spawn_us:.1} µs/call)"
    );

    let mut json = String::from("{\n  \"bench\": \"sched_bench\",\n");
    let _ = writeln!(json, "  \"iters\": {ITERS},");
    let _ = writeln!(json, "  \"pool_workers\": {},", rheem_core::pool::size());
    let _ = writeln!(
        json,
        "  \"pool_microbench\": {{ \"thread_scope_us_per_call\": {spawn_us:.2}, \
         \"shared_pool_us_per_call\": {pool_us:.2}, \"speedup\": {:.2} }},",
        spawn_us / pool_us.max(1e-9)
    );
    json.push_str("  \"tasks\": {\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let speedup = r.seq_wall_ms / r.conc_wall_ms.max(1e-9);
        let overlap = (1.0 - r.makespan_ms / r.stage_sum_ms.max(1e-9)) * 100.0;
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"seq_exec_min_ms\": {:.3}, \"conc_exec_min_ms\": {:.3}, \
             \"wall_speedup\": {:.3}, \"virtual_makespan_ms\": {:.3}, \
             \"virtual_stage_sum_ms\": {:.3}, \"overlap_win_pct\": {:.2} }}{}",
            r.task,
            r.seq_wall_ms,
            r.conc_wall_ms,
            speedup,
            r.makespan_ms,
            r.stage_sum_ms,
            overlap,
            comma
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_PR4.json", &json).expect("write BENCH_PR4.json");
    println!("-- wrote BENCH_PR4.json ({} tasks)", rows.len());
}
