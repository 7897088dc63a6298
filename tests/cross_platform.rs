//! Cross-crate integration tests for the headline behaviours of §2/§6:
//! platform independence (the optimizer picks the right engine per input
//! size), opportunistic mixing, mandatory movement out of the store, and
//! agreement of results across platforms.

use rheem::prelude::*;
use rheem_core::plan::{PlanBuilder, RheemPlan};
use rheem_core::value::Value;

fn wordcount_plan(lines: Vec<Value>) -> (RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(lines)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(
            KeyUdf::field(0),
            ReduceUdf::new("sum", |a, b| {
                Value::pair(
                    a.field(0).clone(),
                    Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
                )
            }),
        )
        .collect();
    (b.build().unwrap(), sink)
}

fn corpus(lines: usize) -> Vec<Value> {
    rheem_datagen::generate_text(lines, 10, 5_000, 7).into_iter().map(Value::from).collect()
}

#[test]
fn small_input_prefers_javastreams() {
    let ctx = rheem::default_context();
    let (plan, _) = wordcount_plan(corpus(50));
    let opt = ctx.optimize(&plan).unwrap();
    assert_eq!(
        opt.platforms,
        vec![ids::JAVA_STREAMS],
        "small inputs must avoid distributed-engine overhead"
    );
}

#[test]
fn large_input_prefers_a_distributed_engine() {
    // Datasets live on HDFS as in §6.1; a distributed engine reads splits
    // in parallel while the JavaStreams driver reads one stream.
    let path = std::path::PathBuf::from("hdfs://tests/xplat/corpus_large.txt");
    rheem_datagen::text::write_corpus(&path, 60_000, 7).unwrap(); // ≈60 MB
    let ctx = rheem::default_context();
    let mut b = PlanBuilder::new();
    b.read_text_file(&path)
        .flat_map(FlatMapUdf::new("split", |v| {
            v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
        }))
        .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::sum())
        .collect();
    let plan = b.build().unwrap();
    let opt = ctx.optimize(&plan).unwrap();
    assert!(
        opt.platforms.contains(&ids::SPARK) || opt.platforms.contains(&ids::FLINK),
        "large inputs should go distributed, got {:?}",
        opt.platforms
    );
}

#[test]
fn all_platforms_agree_on_wordcount_result() {
    let mut results = Vec::new();
    for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let (plan, sink) = wordcount_plan(corpus(300));
        let result = ctx.execute(&plan).unwrap();
        let mut data: Vec<(String, i64)> = result
            .sink(sink)
            .unwrap()
            .iter()
            .map(|v| (v.field(0).as_str().unwrap().to_string(), v.field(1).as_int().unwrap()))
            .collect();
        data.sort();
        results.push((forced, data));
    }
    for w in results.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} and {} disagree", w[0].0, w[1].0);
    }
}

#[test]
fn forced_platform_is_respected() {
    for forced in [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK] {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        let (plan, _) = wordcount_plan(corpus(500));
        let result = ctx.execute(&plan).unwrap();
        assert_eq!(result.metrics.platforms, vec![forced]);
    }
}

#[test]
fn sgd_shape_mixes_platforms_on_large_data() {
    // Fig. 3's plan shape: big point set, tiny weights, loop over
    // sample→compute→reduce→update with the weights broadcast into the body.
    let points = rheem_datagen::generate_points(60_000, 4, 0.1, 3).points;
    let mut b = PlanBuilder::new();
    let data = b.collection(points);
    let weights = b.collection(vec![Value::tuple(vec![
        Value::from(0.0),
        Value::from(0.0),
        Value::from(0.0),
        Value::from(0.0),
    ])]);
    let final_w = weights.repeat(3, |w| {
        let grad = data
            .sample(rheem_core::plan::SampleMethod::Random, rheem_core::plan::SampleSize::Count(16))
            .map(MapUdf::with_ctx("gradient", |p, ctx| {
                let w = ctx.get_or_empty("weights");
                let wf = w.first().cloned().unwrap_or(Value::Null);
                let f = p.fields().unwrap();
                let label = f[0].as_f64().unwrap();
                let margin: f64 = f[1..]
                    .iter()
                    .enumerate()
                    .map(|(i, x)| x.as_f64().unwrap() * wf.field(i).as_f64().unwrap_or(0.0))
                    .sum();
                let scale = if label * margin < 1.0 { -label } else { 0.0 };
                Value::Tuple(
                    f[1..]
                        .iter()
                        .map(|x| Value::from(scale * x.as_f64().unwrap()))
                        .collect::<Vec<_>>()
                        .into(),
                )
            }))
            .broadcast("weights", w)
            .reduce(ReduceUdf::new("sumgrad", |a, b| {
                Value::Tuple(
                    (0..4)
                        .map(|i| {
                            Value::from(
                                a.field(i).as_f64().unwrap_or(0.0)
                                    + b.field(i).as_f64().unwrap_or(0.0),
                            )
                        })
                        .collect::<Vec<_>>()
                        .into(),
                )
            }));
        w.map(MapUdf::with_ctx("update", |wv, ctx| {
            let g = ctx.get_or_empty("grad");
            let gv = g.first().cloned().unwrap_or(Value::Null);
            Value::Tuple(
                (0..4)
                    .map(|i| {
                        Value::from(
                            wv.field(i).as_f64().unwrap_or(0.0)
                                - 0.01 * gv.field(i).as_f64().unwrap_or(0.0),
                        )
                    })
                    .collect::<Vec<_>>()
                    .into(),
            )
        }))
        .broadcast("grad", &grad)
    });
    let sink = final_w.collect();
    let plan = b.build().unwrap();

    let ctx = rheem::default_context();
    let result = ctx.execute(&plan).unwrap();
    let w = result.sink(sink).unwrap();
    assert_eq!(w.len(), 1);
    // the weights moved
    assert!(w[0].fields().unwrap().iter().any(|f| f.as_f64().unwrap() != 0.0));
}

#[test]
fn mandatory_movement_out_of_postgres() {
    // Data lives in Postgres; the task (PageRank) is not executable there:
    // the optimizer must move it to a graph-capable platform (§2.3).
    let db = std::sync::Arc::new(platform_postgres::PgDatabase::new());
    let edges = rheem_datagen::generate_graph(500, 4, 3);
    db.load_table(
        "links",
        vec!["src".to_string(), "dst".to_string()],
        rheem_datagen::graph::edges_to_values(&edges),
    );
    let ctx = rheem::full_context(std::sync::Arc::clone(&db));

    let mut b = PlanBuilder::new();
    let sink = b.read_table("links").page_rank(5, 0.85).collect();
    let plan = b.build().unwrap();
    let result = ctx.execute(&plan).unwrap();
    assert!(!result.sink(sink).unwrap().is_empty());
    assert!(
        result.metrics.platforms.contains(&ids::POSTGRES),
        "scan should stay in the store: {:?}",
        result.metrics.platforms
    );
    assert!(
        result.metrics.platforms.iter().any(|p| *p != ids::POSTGRES),
        "pagerank must leave the store: {:?}",
        result.metrics.platforms
    );
}

#[test]
fn explain_describes_stages() {
    let ctx = rheem::default_context();
    let (plan, _) = wordcount_plan(corpus(100));
    let out = ctx.explain(&plan).unwrap();
    assert!(out.contains("stage 0"), "{out}");
    assert!(out.contains("estimated cost"), "{out}");
}

/// One collection feeding `n` maps, unioned and collected. The maps are
/// pinned to java.streams: the subset DP behind a 16-consumer conversion
/// tree is costly in a debug build, and pinning leaves one tree to solve.
fn fan_out_plan(n: i64) -> (RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let src = b.collection((0..10i64).map(Value::from).collect::<Vec<_>>());
    let branch = |i: i64| {
        src.map(MapUdf::new("shift", move |v| Value::from(v.as_int().unwrap() + i)))
            .with_target_platform(ids::JAVA_STREAMS)
    };
    let mut all = branch(0);
    for i in 1..n {
        all = all.union(&branch(i));
    }
    let sink = all.collect();
    (b.build().unwrap(), sink)
}

#[test]
fn sixteen_way_fan_out_runs() {
    let ctx = rheem::default_context();
    let (plan, sink) = fan_out_plan(16);
    let result = ctx.execute(&plan).unwrap();
    assert_eq!(result.sink(sink).unwrap().len(), 160);
}

#[test]
fn seventeen_way_fan_out_is_a_typed_optimizer_error() {
    let ctx = rheem::default_context();
    let (plan, _) = fan_out_plan(17);
    for err in [ctx.optimize(&plan).err(), ctx.execute(&plan).err()] {
        match err {
            Some(RheemError::Optimizer(msg)) => {
                assert!(msg.contains("17 consumers") && msg.contains("up to 16"), "{msg}")
            }
            other => panic!("expected a typed optimizer error, got {other:?}"),
        }
    }
}
