//! Golden tests for the tracing subsystem: EXPLAIN / EXPLAIN ANALYZE
//! snapshots on WordCount and SGD, learner-sample parity between the trace
//! and the monitor, and byte-identical span-tree structure for seeded chaos
//! runs (the determinism guarantee of `rheem_core::trace`).

use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::fault::{FaultKind, FaultPlan, FaultRule, PERSISTENT};
use rheem_core::learner::{samples_from_monitor, samples_from_trace};
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan};
use rheem_core::trace::SpanKind;
use rheem_core::udf::FlatMapUdf;

fn corpus() -> Vec<Value> {
    rheem_datagen::generate_text(60, 10, 5_000, 7).into_iter().map(Value::from).collect()
}

fn wordcount_chain(q: rheem_core::plan::DataQuanta) -> rheem_core::plan::DataQuanta {
    q.flat_map(FlatMapUdf::new("split", |v| {
        v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
    }))
    .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
    .reduce_by_key(
        KeyUdf::field(0),
        ReduceUdf::new("sum", |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
            )
        }),
    )
}

fn wordcount_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = wordcount_chain(b.collection(corpus())).collect();
    (b.build().unwrap(), sink)
}

/// WordCount pinned across two platforms, so conversion operators and more
/// than one execution platform show up in the analysis. The shuffle-bearing
/// ReduceBy lands on Spark; the narrow preprocessing on Flink.
fn hybrid_wordcount_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = wordcount_chain(
        b.collection(corpus())
            .map(MapUdf::new("lower", |v| Value::from(v.as_str().unwrap_or("").to_lowercase())))
            .with_target_platform(ids::FLINK),
    )
    .with_target_platform(ids::SPARK)
    .collect();
    (b.build().unwrap(), sink)
}

/// Listing 1's SGD shape over integers (exact arithmetic, 3 iterations).
fn sgd_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let points: Vec<Value> = (0..24i64)
        .map(|i| {
            let x = i % 5 - 2;
            Value::pair(Value::from(x), Value::from(3 * x + 1))
        })
        .collect();
    let points = b.collection(points);
    let winit = b.collection(vec![Value::from(0i64)]);
    let sink = winit
        .repeat(3, |w| {
            let grad = points
                .map(MapUdf::with_ctx("gradient", |p, ctx| {
                    let wv =
                        ctx.get_or_empty("weights").first().and_then(Value::as_int).unwrap_or(0);
                    let x = p.field(0).as_int().unwrap_or(0);
                    let y = p.field(1).as_int().unwrap_or(0);
                    Value::from(x * (x * wv - y))
                }))
                .broadcast("weights", w)
                .reduce(ReduceUdf::new("gsum", |a, b| {
                    Value::from(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0))
                }));
            w.map(MapUdf::with_ctx("update", |w, ctx| {
                let g =
                    ctx.get_or_empty("gradient_sum").first().and_then(Value::as_int).unwrap_or(0);
                Value::from(w.as_int().unwrap_or(0) - g / 64)
            }))
            .broadcast("gradient_sum", &grad)
        })
        .collect();
    (b.build().unwrap(), sink)
}

// ---- EXPLAIN golden -----------------------------------------------------

#[test]
fn explain_wordcount_golden() {
    let (plan, _) = wordcount_plan();
    let ctx = rheem::default_context();
    let explain = ctx.explain(&plan).unwrap();
    let expected = "\
estimated cost: 1.7 ms (virtual)
platforms: [java.streams]
stage 0 [rheem.driver]:
  DriverCollectionSource#0 inputs=[]
stage 1 [java.streams]:
  JavaChain2∘ReduceBy#1 inputs=[0]
stage 2 [rheem.driver]:
  DriverCollectionSink#2 inputs=[1]
";
    assert_eq!(explain, expected);
}

// ---- EXPLAIN ANALYZE ----------------------------------------------------

/// The acceptance bar: every executed operator, on every platform in the
/// plan, reports its estimated cardinality interval, measured tuples, and
/// virtual time. (tau is raised so the ReduceBy miss does not trigger a
/// replan — rewritten plans re-number operators and lose the est join.)
#[test]
fn explain_analyze_reports_estimates_and_measurements_for_every_operator() {
    for (name, (plan, _)) in [("wordcount", wordcount_plan()), ("hybrid", hybrid_wordcount_plan())]
    {
        let mut ctx = rheem::default_context();
        ctx.config_mut().mismatch_tau = 1000.0;
        let analysis = ctx.explain_analyze(&plan).unwrap();

        // Every logical operator of the submitted plan appears as a row
        // with an estimate interval and a measured profile.
        for node in plan.operators() {
            let row = analysis
                .rows
                .iter()
                .find(|r| r.op == Some(node.id))
                .unwrap_or_else(|| panic!("{name}: no row for {}", node.label()));
            let est = row.est.unwrap_or_else(|| panic!("{name}: no estimate for {}", node.label()));
            assert!(est.lo <= est.hi, "{name}: degenerate interval on {}", node.label());
            assert!(est.conf > 0.0, "{name}: zero-confidence estimate on {}", node.label());
            assert!(!row.platform.is_empty(), "{name}: no platform on {}", node.label());
            assert!(row.virtual_ms >= 0.0 && row.virtual_ms.is_finite());
            assert!(row.runs >= 1, "{name}: unexecuted row for {}", node.label());
        }
        // Sources aside, measured cardinalities flow through the rows.
        assert!(analysis.rows.iter().any(|r| r.measured_tuples > 0), "{name}: no tuples measured");
        // The Display rendering carries the whole table.
        let text = analysis.to_string();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("est.card"), "{text}");
    }
}

#[test]
fn explain_analyze_hybrid_covers_both_platforms_and_conversions() {
    let (plan, _) = hybrid_wordcount_plan();
    let mut ctx = rheem::default_context();
    ctx.config_mut().mismatch_tau = 1000.0;
    let analysis = ctx.explain_analyze(&plan).unwrap();
    let platforms: std::collections::BTreeSet<&str> =
        analysis.rows.iter().map(|r| r.platform.as_str()).collect();
    assert!(platforms.contains("spark"), "{platforms:?}");
    assert!(platforms.contains("flink"), "{platforms:?}");
    // Pinning across platforms forces channel conversions; they appear as
    // rows without a logical operator or estimate.
    assert!(
        analysis.rows.iter().any(|r| r.op.is_none() && r.est.is_none()),
        "no conversion rows in {:#?}",
        analysis.rows
    );
    // Platform-level events (shuffles, vertex submissions) landed in the trace.
    assert!(
        analysis.trace.spans.iter().any(|s| s.kind == SpanKind::Event && s.name == "spark.shuffle"),
        "no spark.shuffle event"
    );
    assert!(
        analysis.trace.spans.iter().any(|s| s.kind == SpanKind::Event && s.name == "flink.vertex"),
        "no flink.vertex event"
    );
}

/// Default tau: the word-frequency estimate is off by >2x, so EXPLAIN
/// ANALYZE must flag the miss and the trace must show the progressive
/// replan it triggered.
#[test]
fn explain_analyze_flags_miss_and_replan() {
    let (plan, _) = wordcount_plan();
    let ctx = rheem::default_context();
    let analysis = ctx.explain_analyze(&plan).unwrap();
    assert_eq!(analysis.metrics.replans, 1);
    let miss = analysis.misses().next().expect("no miss flagged");
    assert!(miss.label.starts_with("ReduceBy"), "{}", miss.label);
    assert!(miss.chain_tail);
    let structure = analysis.trace.render_structure();
    assert!(structure.contains("[plan-rewrite] plan-rewrite cause=cardinality-mismatch"));
    // Fused chains report their membership.
    assert!(analysis.rows.iter().any(|r| r.fused > 1), "no fused rows");
    assert!(analysis.to_string().contains("MISS"));
}

#[test]
fn explain_analyze_wordcount_golden_structure() {
    let (plan, _) = wordcount_plan();
    let mut ctx = rheem::default_context();
    ctx.config_mut().mismatch_tau = 1000.0;
    let analysis = ctx.explain_analyze(&plan).unwrap();
    let expected = "\
[job] job replans=0 failovers=0
  [submit] submit
  [phase] phase 1
    [optimize] optimize operators=5
      [enumeration] enumerate candidates=17 partials_created=70 partials_pruned=32
      [costing] cost platforms=[java.streams]
    [stage] stage 0 @rheem.driver stage=0 iteration=0 phase=1 run=0
      [operator] DriverCollectionSource @rheem.driver node=0 tuples_in=0 tuples_out=60
    [stage] stage 1 @java.streams stage=1 iteration=0 phase=1 run=1 lane=0
      [operator] JavaChain2∘ReduceBy @java.streams node=1 tuples_in=60 tuples_out=306 fused=3
        [event] java.fused @java.streams steps=2 terminal_agg=1
    [stage] stage 2 @rheem.driver stage=2 iteration=0 phase=1 run=2
      [operator] DriverCollectionSink @rheem.driver node=2 tuples_in=306 tuples_out=306
";
    assert_eq!(analysis.trace.render_structure(), expected);
}

#[test]
fn sgd_trace_shows_loop_iterations_and_aggregates_rows() {
    let (plan, _) = sgd_plan();
    let mut ctx = rheem::default_context();
    ctx.config_mut().mismatch_tau = 1000.0;
    let analysis = ctx.explain_analyze(&plan).unwrap();
    let t = &analysis.trace;
    assert_eq!(t.spans.iter().filter(|s| s.kind == SpanKind::Loop).count(), 1);
    assert_eq!(t.spans.iter().filter(|s| s.kind == SpanKind::Iteration).count(), 3);
    // The loop-body gradient map executed once per iteration, and EXPLAIN
    // ANALYZE folds those runs into one row.
    let grad =
        analysis.rows.iter().find(|r| r.label.contains("gradient")).expect("no gradient row");
    assert_eq!(grad.runs, 3, "{grad:#?}");
    assert!(grad.est.is_some());
    // Structure is byte-identical across executions (determinism guarantee).
    let mut ctx2 = rheem::default_context();
    ctx2.config_mut().mismatch_tau = 1000.0;
    let again = ctx2.explain_analyze(&plan).unwrap();
    assert_eq!(t.render_structure(), again.trace.render_structure());
}

// ---- learner parity -----------------------------------------------------

#[test]
fn trace_samples_match_monitor_samples() {
    for (plan, _) in [wordcount_plan(), sgd_plan()] {
        let ctx = rheem::default_context();
        let result = ctx.execute(&plan).unwrap();
        let trace = result.trace.expect("tracing on by default");
        assert_eq!(samples_from_trace(&trace), samples_from_monitor(ctx.monitor()));
    }
}

// ---- chaos determinism --------------------------------------------------

/// The acceptance bar: a seeded chaos run produces a byte-identical span
/// tree across two executions (durations are wall-derived and excluded;
/// structure, ordering, and fault events are covered).
#[test]
fn seeded_chaos_span_tree_is_byte_identical() {
    for seed in [0xC0FFEE_u64, 42, 7] {
        for (name, (plan, _)) in [("wordcount", wordcount_plan()), ("sgd", sgd_plan())] {
            let run = || {
                let mut ctx = rheem::default_context();
                ctx.config_mut().chaos_seed = Some(seed);
                match ctx.execute(&plan) {
                    Ok(r) => r.trace.expect("tracing on").render_structure(),
                    Err(e) => format!("error: {e}"),
                }
            };
            let (a, b) = (run(), run());
            assert_eq!(a, b, "seed {seed:#x} on {name}: span tree not reproducible");
        }
    }
}

/// A persistent transient fault burns the retry budget and fails over —
/// retry and failover spans must land in the trace, the superseded work
/// must be marked, and the structure must still be reproducible.
#[test]
fn retry_and_failover_spans_recorded_and_deterministic() {
    let (plan, sink) = wordcount_plan();
    let reference = {
        let ctx = rheem::default_context();
        let r = ctx.execute(&plan).unwrap();
        let mut out = r.sink(sink).unwrap().to_vec();
        out.sort();
        out
    };
    let run = || {
        let mut ctx = rheem::default_context();
        ctx.config_mut().retry_budget = 2;
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(ids::JAVA_STREAMS).failing(PERSISTENT),
        )));
        let r = ctx.execute(&plan).unwrap();
        let mut out = r.sink(sink).unwrap().to_vec();
        out.sort();
        assert_eq!(out, reference, "failover changed the answer");
        let monitor_superseded = ctx.monitor().stage_runs().iter().filter(|r| r.superseded).count();
        (r.trace.expect("tracing on"), monitor_superseded)
    };
    let (t, monitor_superseded) = run();
    let retries: Vec<_> = t.spans.iter().filter(|s| s.kind == SpanKind::Retry).collect();
    assert!(retries.len() >= 2, "budget of 2 must leave >= 2 retry spans");
    assert!(
        retries.iter().any(|s| s.attr("recovered").map(|a| a.to_string()) == Some("0".into())),
        "the exhausting attempt must be marked unrecovered"
    );
    assert!(
        t.spans.iter().any(|s| s.kind == SpanKind::Failover),
        "no failover span in {}",
        t.render_structure()
    );
    // Supersede bookkeeping mirrors the monitor exactly: the same number of
    // stage runs are marked re-executed in both views.
    assert_eq!(
        t.runs.iter().filter(|r| r.superseded).count(),
        monitor_superseded,
        "trace/monitor supersede drift"
    );
    assert!(t.profiles_effective().all(|p| !p.superseded));
    // And the whole structure is reproducible.
    assert_eq!(t.render_structure(), run().0.render_structure());
}

// ---- plan-choice lock ---------------------------------------------------

/// One Spark RDD read by two Spark consumers. A plain RDD is consumed once,
/// so the fan-out must route through `spark.rdd.cached`.
fn spark_fanout_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let words = b
        .collection(corpus())
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .with_target_platform(ids::SPARK);
    let long = words
        .filter(PredicateUdf::new("long", |v| v.as_str().unwrap_or("").len() > 4))
        .with_target_platform(ids::SPARK);
    let upper = words
        .map(MapUdf::new("upper", |v| Value::from(v.as_str().unwrap_or("").to_uppercase())))
        .with_target_platform(ids::SPARK);
    let sink = long.union(&upper).distinct().with_target_platform(ids::SPARK).collect();
    (b.build().unwrap(), sink)
}

/// SGD over 200k points: the loop body leaves the driver, so both of its
/// broadcasts go through channel conversions every iteration.
fn large_sgd_plan() -> (RheemPlan, OperatorId) {
    let mut b = PlanBuilder::new();
    let points: Vec<Value> =
        (0..200_000i64).map(|i| Value::pair(Value::from(i % 7 - 3), Value::from(i % 11))).collect();
    let points = b.collection(points);
    let winit = b.collection(vec![Value::from(0i64)]);
    let sink = winit
        .repeat(5, |w| {
            let grad = points
                .map(MapUdf::with_ctx("gradient", |p, ctx| {
                    let wv =
                        ctx.get_or_empty("weights").first().and_then(Value::as_int).unwrap_or(0);
                    Value::from(p.field(0).as_int().unwrap_or(0) * wv)
                }))
                .broadcast("weights", w)
                .reduce(ReduceUdf::new("gsum", |a, b| {
                    Value::from(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0))
                }));
            w.map(MapUdf::with_ctx("update", |w, ctx| {
                let g =
                    ctx.get_or_empty("gradient_sum").first().and_then(Value::as_int).unwrap_or(0);
                Value::from(w.as_int().unwrap_or(0) - g / 64)
            }))
            .broadcast("gradient_sum", &grad)
        })
        .collect();
    (b.build().unwrap(), sink)
}

/// What enumeration decided, exactly: the bits of `est_ms`, the platform
/// chosen per operator, and the partial-plan counts. Also checks that the
/// movement memo did its job: fewer tree solves than partials.
fn plan_lock(plan: &RheemPlan) -> String {
    let opt = rheem::default_context().optimize(plan).unwrap();
    assert!(
        opt.stats.movement_solves < opt.stats.partials_created,
        "{} tree solves for {} partials",
        opt.stats.movement_solves,
        opt.stats.partials_created
    );
    let platforms: Vec<String> =
        plan.operators().iter().map(|n| opt.platform_of(n.id).to_string()).collect();
    format!(
        "est_bits={:#018x} created={} pruned={} platforms=[{}]",
        opt.est_ms.to_bits(),
        opt.stats.partials_created,
        opt.stats.partials_pruned,
        platforms.join(",")
    )
}

/// Plan choice is locked byte for byte: these values were recorded before
/// data-movement costs were memoized, and must not move with any change
/// that only makes the optimizer faster.
#[test]
fn plan_choice_is_locked() {
    let cases = [
        (
            wordcount_plan(),
            "est_bits=0x3ffb435193d6da8e created=70 pruned=32 \
             platforms=[rheem.driver,java.streams,java.streams,java.streams,rheem.driver]",
        ),
        (
            hybrid_wordcount_plan(),
            "est_bits=0x40acc9bfbe664735 created=29 pruned=11 \
             platforms=[rheem.driver,flink,flink,flink,spark,rheem.driver]",
        ),
        (
            sgd_plan(),
            "est_bits=0x402397b4a2339c0f created=49 pruned=20 platforms=[rheem.driver,\
             rheem.driver,rheem.driver,java.streams,java.streams,java.streams,rheem.driver]",
        ),
        (
            spark_fanout_plan(),
            "est_bits=0x409f62af41fa8e67 created=13 pruned=0 \
             platforms=[rheem.driver,spark,spark,spark,spark,spark,rheem.driver]",
        ),
        (
            large_sgd_plan(),
            "est_bits=0x40b28eb573c46274 created=49 pruned=20 \
             platforms=[rheem.driver,rheem.driver,rheem.driver,flink,flink,flink,rheem.driver]",
        ),
    ];
    for ((plan, _), expected) in cases {
        assert_eq!(plan_lock(&plan), expected);
    }
    // The fan-out really routes through Spark's cached RDD.
    let (plan, _) = spark_fanout_plan();
    let explain = rheem::default_context().explain(&plan).unwrap();
    assert!(explain.contains("SparkCache"), "{explain}");
}
