//! Differential test suite: seeded random plans must compute *identical*
//! results on every platform simulacrum — with and without fusion, with and
//! without an active fault plan. Heterogeneous backends only stay
//! trustworthy under exactly this kind of harness (cf. Calcite's experience
//! with differential testing): an injected fault may be survived (retry or
//! failover) or surfaced as a typed error, but it must never produce a
//! wrong answer.
//!
//! Plans are generated from the repo's own deterministic `SplitMix64`, so
//! every failure reproduces from its case number. The chaos seeds below are
//! the fixed CI matrix; set `CHAOS_SEED=<n>` to add one more.

use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::fault::{FaultKind, FaultPlan, FaultRule, PERSISTENT};
use rheem_core::kernels::SplitMix64;
use rheem_core::udf::{CmpOp, FlatMapUdf, Sarg};

const PLATFORMS: [PlatformId; 3] = [ids::JAVA_STREAMS, ids::SPARK, ids::FLINK];
/// Fixed chaos-seed matrix (mirrored in CI).
const CHAOS_SEEDS: [u64; 3] = [0xC0FFEE, 42, 7];

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = CHAOS_SEEDS.to_vec();
    if let Some(extra) = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()) {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

// ---- seeded plan generator ---------------------------------------------

/// One randomly generated plan: one or two op chains over (key, value)
/// pairs, optionally joined, with an optional terminal aggregation.
#[derive(Clone, Debug)]
struct Spec {
    chain_a: Vec<u8>,
    chain_b: Option<Vec<u8>>, // joined on field(0) when present
    terminal: u8,             // 0 = none, 1 = reduce_by_key, 2 = distinct, 3 = count
    data_a: Vec<Value>,
    data_b: Vec<Value>,
}

fn pairs(rng: &mut SplitMix64, max_len: usize) -> Vec<Value> {
    let len = rng.range_usize(max_len);
    (0..len)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(8) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect()
}

fn gen_spec(case: u64) -> Spec {
    let mut rng = SplitMix64(0xD1FF ^ case.wrapping_mul(0x9E37_79B9));
    let chain = |rng: &mut SplitMix64| -> Vec<u8> {
        let len = 2 + rng.range_usize(3);
        (0..len).map(|_| rng.range_usize(7) as u8).collect()
    };
    let chain_a = chain(&mut rng);
    let chain_b = rng.chance(0.4).then(|| chain(&mut rng));
    Spec {
        chain_a,
        chain_b,
        terminal: rng.range_usize(4) as u8,
        data_a: pairs(&mut rng, 60),
        data_b: pairs(&mut rng, 40),
    }
}

fn apply_op(q: rheem_core::plan::DataQuanta, code: u8) -> rheem_core::plan::DataQuanta {
    let k = |v: &Value| v.field(0).as_int().unwrap_or(0);
    let x = |v: &Value| v.field(1).as_int().unwrap_or(0);
    match code {
        0 => q.map(MapUdf::new("inc", move |v| {
            Value::pair(v.field(0).clone(), Value::from(x(v) + 1))
        })),
        1 => q.map(MapUdf::new("scale", move |v| {
            Value::pair(v.field(0).clone(), Value::from(x(v) * 3))
        })),
        2 => q.map(MapUdf::new("rekey", move |v| {
            Value::pair(Value::from((k(v) + x(v)).rem_euclid(7)), v.field(1).clone())
        })),
        3 => q.filter(PredicateUdf::new("pos", move |v| x(v) > 0)),
        4 => q.filter(PredicateUdf::new("even", move |v| x(v) % 2 == 0)),
        5 => q.flat_map(FlatMapUdf::new("dup", |v| vec![v.clone(), v.clone()])),
        _ => q.flat_map(FlatMapUdf::new("split", move |v| {
            vec![v.clone(), Value::pair(Value::from(k(v) + 1), Value::from(x(v) - 1))]
        })),
    }
}

fn sum_udf() -> ReduceUdf {
    ReduceUdf::new("sum", |a, b| {
        Value::pair(
            a.field(0).clone(),
            Value::from(a.field(1).as_int().unwrap_or(0) + b.field(1).as_int().unwrap_or(0)),
        )
    })
}

fn build_plan(spec: &Spec) -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut b = PlanBuilder::new();
    let mut q = b.collection(spec.data_a.clone());
    for &code in &spec.chain_a {
        q = apply_op(q, code);
    }
    if let Some(chain_b) = &spec.chain_b {
        let mut r = b.collection(spec.data_b.clone());
        for &code in chain_b {
            r = apply_op(r, code);
        }
        // Join on key, then flatten (l, r) pairs back into (key, sum) shape
        // so terminals compose.
        q = q.join(&r, KeyUdf::field(0), KeyUdf::field(0)).map(MapUdf::new("flatten", |v| {
            let (l, r) = (v.field(0), v.field(1));
            Value::pair(
                l.field(0).clone(),
                Value::from(l.field(1).as_int().unwrap_or(0) + r.field(1).as_int().unwrap_or(0)),
            )
        }));
    }
    q = match spec.terminal {
        1 => q.reduce_by_key(KeyUdf::field(0), sum_udf()),
        2 => q.distinct(),
        3 => q.count(),
        _ => q,
    };
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

/// Execute the spec and return the sink output in canonical (sorted) order.
fn run_spec(spec: &Spec, ctx: &RheemContext) -> Result<Vec<Value>> {
    let (plan, sink) = build_plan(spec);
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    Ok(out)
}

// ---- cross-platform agreement ------------------------------------------

/// Every random plan computes identical results on all three general-purpose
/// platforms, fused and unfused (6 executions per case).
#[test]
fn random_plans_agree_across_platforms_and_fusion() {
    for case in 0u64..10 {
        let spec = gen_spec(case);
        let reference = run_spec(&spec, &rheem::default_context()).unwrap();
        for forced in PLATFORMS {
            for fusion in [true, false] {
                let mut ctx = rheem::default_context().with_fusion(fusion);
                ctx.forced_platform = Some(forced);
                let out = run_spec(&spec, &ctx).unwrap();
                assert_eq!(
                    out, reference,
                    "case {case} diverged on {forced:?} (fusion={fusion}): {spec:?}"
                );
            }
        }
    }
}

// ---- chaos: seeded random faults ---------------------------------------

/// Under a seeded fault plan every run either survives (identical answer via
/// retry/failover) or dies with a *typed* error — never a wrong answer.
#[test]
fn seeded_chaos_never_produces_wrong_answers() {
    let mut injected_total = 0usize;
    let mut survived = 0usize;
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_spec(case);
            let baseline = run_spec(&spec, &rheem::default_context()).unwrap();
            let mut ctx = rheem::default_context();
            ctx.config_mut().chaos_seed = Some(chaos_seed);
            match run_spec(&spec, &ctx) {
                Ok(out) => {
                    assert_eq!(
                        out, baseline,
                        "chaos seed {chaos_seed:#x} case {case} changed the answer: {spec:?}"
                    );
                    survived += 1;
                }
                Err(RheemError::Fault(_) | RheemError::Exhausted(_) | RheemError::Optimizer(_)) => {
                } // typed failure: acceptable
                Err(other) => {
                    panic!("chaos seed {chaos_seed:#x} case {case}: untyped error {other}")
                }
            }
            injected_total += ctx.monitor().fault_records().len();
        }
    }
    // The fixed seeds must actually exercise the machinery (deterministic,
    // so this can never flake).
    assert!(injected_total > 0, "chaos matrix injected nothing");
    assert!(survived > 0, "chaos matrix never survived a run");
}

// ---- scheduler modes ----------------------------------------------------

/// Run the spec under one scheduler mode; returns the canonical (sorted)
/// sink output and the deterministic span-tree structure.
fn run_spec_mode(
    spec: &Spec,
    concurrent: bool,
    chaos_seed: Option<u64>,
) -> Result<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context();
    // Force the mode (`Some`) so the concurrent dispatcher is exercised even
    // on single-CPU hosts, where the adaptive default would walk in-line.
    ctx.config_mut().concurrent = Some(concurrent);
    ctx.config_mut().chaos_seed = chaos_seed;
    let (plan, sink) = build_plan(spec);
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
    Ok((out, structure))
}

/// The concurrent DAG scheduler must be invisible in every observable:
/// multi-branch random plans produce byte-identical sink outputs *and*
/// byte-identical span trees (same spans, same order, same lane
/// assignments) as the sequential stage walk.
#[test]
fn scheduler_modes_agree_on_results_and_traces() {
    for case in 0u64..10 {
        let spec = gen_spec(case);
        let (seq_out, seq_trace) = run_spec_mode(&spec, false, None).unwrap();
        let (conc_out, conc_trace) = run_spec_mode(&spec, true, None).unwrap();
        assert_eq!(
            conc_out, seq_out,
            "case {case}: concurrent scheduler changed the answer: {spec:?}"
        );
        assert_eq!(
            conc_trace, seq_trace,
            "case {case}: concurrent scheduler changed the span tree: {spec:?}"
        );
    }
}

/// Mode-agreement must also hold under seeded chaos: retry/failover of one
/// stage while others are in flight may not corrupt a concurrent lane. Both
/// modes must survive identically (same answer, same trace) or die with the
/// same typed error.
#[test]
fn scheduler_modes_agree_under_chaos() {
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_spec(case);
            let seq = run_spec_mode(&spec, false, Some(chaos_seed));
            let conc = run_spec_mode(&spec, true, Some(chaos_seed));
            match (seq, conc) {
                (Ok((so, st)), Ok((co, ct))) => {
                    assert_eq!(
                        co, so,
                        "chaos seed {chaos_seed:#x} case {case}: modes disagree on the answer"
                    );
                    assert_eq!(
                        ct, st,
                        "chaos seed {chaos_seed:#x} case {case}: modes disagree on the span tree"
                    );
                }
                (Err(se), Err(ce)) => assert_eq!(
                    se.to_string(),
                    ce.to_string(),
                    "chaos seed {chaos_seed:#x} case {case}: modes fail differently"
                ),
                (seq, conc) => panic!(
                    "chaos seed {chaos_seed:#x} case {case}: one mode survived, the other \
                     failed (seq ok={}, conc ok={})",
                    seq.is_ok(),
                    conc.is_ok()
                ),
            }
        }
    }
}

// ---- batch modes ---------------------------------------------------------

/// Run the spec with columnar batch execution forced on or off; returns the
/// canonical (sorted) sink output and the deterministic span-tree structure.
fn run_spec_batch(
    spec: &Spec,
    batch: bool,
    forced: Option<PlatformId>,
    chaos_seed: Option<u64>,
) -> Result<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.forced_platform = forced;
    ctx.config_mut().chaos_seed = chaos_seed;
    let (plan, sink) = build_plan(spec);
    let result = ctx.execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
    Ok((out, structure))
}

/// A plan built entirely from spec'd builtins, so every fused segment
/// compiles to a vector kernel: WordCount over tokenized lines.
fn vectorizable_wordcount() -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let lines: Vec<Value> =
        rheem_datagen::generate_text(300, 8, 500, 11).into_iter().map(Value::from).collect();
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(lines)
        .flat_map(FlatMapUdf::split_whitespace("split"))
        .map(MapUdf::pair_with_int("pair", 1))
        .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
        .collect();
    (b.build().unwrap(), sink)
}

/// A sargable scan + arithmetic + projection chain over int pairs.
fn vectorizable_scan() -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let mut rng = SplitMix64(0xBA7C4);
    let data: Vec<Value> = (0..400)
        .map(|_| {
            Value::pair(
                Value::from(rng.range_usize(64) as i64),
                Value::from(rng.range_usize(200) as i64 - 100),
            )
        })
        .collect();
    let sarg = Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(0i64) };
    let sp = PredicateUdf::from_sarg("pos", sarg);
    let mut b = PlanBuilder::new();
    let sink = b
        .collection(data)
        .filter_sarg(sp.pred, sp.sarg)
        .map(MapUdf::field_add_int("bump", 1, 5))
        .project([1usize, 0])
        .collect();
    (b.build().unwrap(), sink)
}

/// Batched and row execution must be observationally identical on every
/// engine: byte-identical sink outputs and byte-identical span trees, for
/// random (opaque, fallback-exercising) plans.
#[test]
fn batch_modes_agree_on_random_plans_and_traces() {
    for case in 0u64..8 {
        let spec = gen_spec(case);
        for forced in PLATFORMS {
            let (row_out, row_trace) = run_spec_batch(&spec, false, Some(forced), None).unwrap();
            let (bat_out, bat_trace) = run_spec_batch(&spec, true, Some(forced), None).unwrap();
            assert_eq!(
                bat_out, row_out,
                "case {case}: batch mode changed the answer on {forced:?}: {spec:?}"
            );
            assert_eq!(
                bat_trace, row_trace,
                "case {case}: batch mode changed the span tree on {forced:?}: {spec:?}"
            );
        }
    }
}

/// Fully vectorizable plans (WordCount, sargable scan) agree across modes on
/// every engine — this is the path that actually runs the column kernels.
#[test]
fn batch_modes_agree_on_vectorizable_plans() {
    for (label, build) in [
        ("wordcount", vectorizable_wordcount as fn() -> _),
        ("scan", vectorizable_scan as fn() -> _),
    ] {
        for forced in PLATFORMS {
            let run = |batch: bool| -> (Vec<Value>, String) {
                let mut ctx = rheem::default_context().with_batch(batch);
                ctx.forced_platform = Some(forced);
                let (plan, sink) = build();
                let result = ctx.execute(&plan).unwrap();
                let mut out = result.sink(sink).unwrap().to_vec();
                out.sort();
                let structure =
                    result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
                (out, structure)
            };
            let (row_out, row_trace) = run(false);
            let (bat_out, bat_trace) = run(true);
            assert!(!row_out.is_empty(), "{label} on {forced:?} produced nothing");
            assert_eq!(bat_out, row_out, "{label}: batch mode changed the answer on {forced:?}");
            assert_eq!(bat_trace, row_trace, "{label}: batch mode changed the trace on {forced:?}");
        }
    }
}

/// The vectorized path must actually engage on vectorizable plans (guards
/// against silently falling back to the row interpreter everywhere) and must
/// stay fully dormant in row mode.
#[test]
fn vectorizable_plans_report_vectorized_steps() {
    for (label, build) in [
        ("wordcount", vectorizable_wordcount as fn() -> _),
        ("scan", vectorizable_scan as fn() -> _),
    ] {
        let (plan, _) = build();
        let analysis = rheem::default_context().with_batch(true).explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().any(|r| r.vec_steps > 0),
            "{label}: no operator reported vectorized steps"
        );
        let analysis = rheem::default_context().with_batch(false).explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().all(|r| r.vec_steps == 0 && r.row_steps == 0),
            "{label}: row mode reported batch statistics"
        );
    }
}

// ---- shuffle/join/sort axis ---------------------------------------------

/// One randomly generated *shuffle-heavy* plan: vectorizable (spec'd builtin)
/// or opaque (closure) narrow chains feeding a wide exchange — Join, SortBy,
/// ReduceBy, or a composition. Vectorizable cases drive the columnar
/// exchange; opaque cases drive its row fallback. Both must be invisible.
#[derive(Clone, Debug)]
struct ShuffleSpec {
    pre_a: Vec<u8>,
    pre_b: Vec<u8>,
    wide: u8, // 0 join, 1 sort, 2 reduce_by, 3 join+reduce_by, 4 reduce_by+sort
    opaque: bool,
    data_a: Vec<Value>,
    data_b: Vec<Value>,
}

fn gen_shuffle_spec(case: u64) -> ShuffleSpec {
    let mut rng = SplitMix64(0x5AFE ^ case.wrapping_mul(0x9E37_79B9));
    let chain = |rng: &mut SplitMix64| -> Vec<u8> {
        let len = 1 + rng.range_usize(3);
        (0..len).map(|_| rng.range_usize(4) as u8).collect()
    };
    ShuffleSpec {
        pre_a: chain(&mut rng),
        pre_b: chain(&mut rng),
        wide: rng.range_usize(5) as u8,
        opaque: rng.chance(0.3),
        data_a: pairs(&mut rng, 80),
        data_b: pairs(&mut rng, 50),
    }
}

/// Narrow ops drawn entirely from spec'd builtins, so the whole pre-exchange
/// segment compiles to a vector kernel and partitions arrive columnar at the
/// wide operator.
fn apply_vec_op(q: rheem_core::plan::DataQuanta, code: u8) -> rheem_core::plan::DataQuanta {
    match code {
        0 => q.map(MapUdf::field_add_int("vbump", 1, 3)),
        1 => q.filter(PredicateUdf::from_sargs(
            "vpos",
            vec![Sarg { field: 1, op: CmpOp::Gt, literal: Value::from(-50i64) }],
        )),
        2 => q.map(MapUdf::field_add_float("vfadd", 1, 0.5)),
        _ => q.map(MapUdf::field_mul_float("vfmul", 1, 2.0)),
    }
}

fn build_shuffle_plan(
    spec: &ShuffleSpec,
) -> (rheem_core::plan::RheemPlan, rheem_core::plan::OperatorId) {
    let apply = |mut q: rheem_core::plan::DataQuanta, chain: &[u8]| {
        for &code in chain {
            q = if spec.opaque { apply_op(q, code) } else { apply_vec_op(q, code) };
        }
        q
    };
    let mut b = PlanBuilder::new();
    let mut q = apply(b.collection(spec.data_a.clone()), &spec.pre_a);
    let join = |q: rheem_core::plan::DataQuanta, b: &mut PlanBuilder| {
        let r = apply(b.collection(spec.data_b.clone()), &spec.pre_b);
        // Flatten the (l, r) join pairs back into (key, combined) shape so
        // downstream wide ops compose.
        q.join(&r, KeyUdf::field(0), KeyUdf::field(0)).map(MapUdf::new("flat", |v| {
            let (l, r) = (v.field(0), v.field(1));
            Value::pair(
                l.field(0).clone(),
                Value::from(l.field(1).as_int().unwrap_or(0) + r.field(1).as_int().unwrap_or(0)),
            )
        }))
    };
    q = match spec.wide {
        0 => join(q, &mut b),
        1 => q.sort_by(KeyUdf::field(0)),
        2 => q.reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum")),
        3 => join(q, &mut b).reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum")),
        _ => q
            .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("vsum"))
            .sort_by(KeyUdf::field(0)),
    };
    let sink = q.collect();
    (b.build().unwrap(), sink)
}

/// Run a shuffle spec under explicit batch/scheduler modes; returns the
/// *unsorted* sink output (order is part of the contract for SortBy) and the
/// span-tree structure.
fn run_shuffle_spec(
    spec: &ShuffleSpec,
    batch: bool,
    concurrent: bool,
    forced: Option<PlatformId>,
    chaos_seed: Option<u64>,
) -> Result<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.forced_platform = forced;
    ctx.config_mut().concurrent = Some(concurrent);
    ctx.config_mut().chaos_seed = chaos_seed;
    let (plan, sink) = build_shuffle_plan(spec);
    let result = ctx.execute(&plan)?;
    let out = result.sink(sink)?.to_vec();
    let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
    Ok((out, structure))
}

/// Shuffle-heavy random plans (Join / SortBy / ReduceBy over typed key
/// columns) must be byte-identical — including output *order* — between the
/// columnar exchange and the row exchange, on every engine and under both
/// scheduler modes.
#[test]
fn shuffle_plans_agree_across_batch_and_scheduler_modes() {
    for case in 0u64..10 {
        let spec = gen_shuffle_spec(case);
        for forced in PLATFORMS {
            let (row_out, row_trace) =
                run_shuffle_spec(&spec, false, false, Some(forced), None).unwrap();
            for (batch, concurrent) in [(true, false), (false, true), (true, true)] {
                let (out, trace) =
                    run_shuffle_spec(&spec, batch, concurrent, Some(forced), None).unwrap();
                assert_eq!(
                    out, row_out,
                    "case {case} on {forced:?} (batch={batch}, conc={concurrent}) \
                     changed the answer: {spec:?}"
                );
                assert_eq!(
                    trace, row_trace,
                    "case {case} on {forced:?} (batch={batch}, conc={concurrent}) \
                     changed the span tree: {spec:?}"
                );
            }
        }
    }
}

/// The shuffle axis must also survive the chaos matrix: batched and row
/// exchanges either recover to identical answers and traces or die with the
/// same typed error — across all chaos seeds.
#[test]
fn shuffle_plans_agree_under_chaos() {
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_shuffle_spec(case);
            let row = run_shuffle_spec(&spec, false, false, None, Some(chaos_seed));
            let bat = run_shuffle_spec(&spec, true, false, None, Some(chaos_seed));
            match (row, bat) {
                (Ok((ro, rt)), Ok((bo, bt))) => {
                    assert_eq!(
                        bo, ro,
                        "chaos seed {chaos_seed:#x} case {case}: shuffle modes disagree on the \
                         answer: {spec:?}"
                    );
                    assert_eq!(
                        bt, rt,
                        "chaos seed {chaos_seed:#x} case {case}: shuffle modes disagree on the \
                         trace: {spec:?}"
                    );
                }
                (Err(re), Err(be)) => assert_eq!(
                    re.to_string(),
                    be.to_string(),
                    "chaos seed {chaos_seed:#x} case {case}: shuffle modes fail differently"
                ),
                (row, bat) => panic!(
                    "chaos seed {chaos_seed:#x} case {case}: one shuffle mode survived, the \
                     other failed (row ok={}, batch ok={})",
                    row.is_ok(),
                    bat.is_ok()
                ),
            }
        }
    }
}

/// Vectorizable shuffle plans must actually ship batches across the exchange
/// (guards against the columnar path silently falling back to rows), and
/// opaque plans must report the fallback instead.
#[test]
fn shuffle_plans_report_columnar_exchange() {
    // Deterministic fully-vectorizable specs, one per wide-op shape: an
    // all-int chain (float maps would knock the int-sum combine back to
    // rows) feeding each exchange. Every one must ship batches.
    for wide in 0u8..5 {
        let mut spec = gen_shuffle_spec(wide as u64);
        spec.pre_a = vec![0, 1];
        spec.pre_b = vec![1, 0];
        spec.wide = wide;
        spec.opaque = false;
        let (plan, _) = build_shuffle_plan(&spec);
        // Force a distributed engine: only spark/flink run a real exchange.
        let mut ctx = rheem::default_context().with_batch(true);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().any(|r| r.exch_batches > 0),
            "wide op {wide}: columnar exchange never shipped a batch"
        );
        // Row mode must stay fully dormant.
        let mut ctx = rheem::default_context().with_batch(false);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        assert!(
            analysis.rows.iter().all(|r| r.exch_batches == 0 && r.exch_row_rows == 0),
            "wide op {wide}: row mode reported exchange batch statistics"
        );
    }
    // Opaque random specs must instead surface the row-exchange fallback
    // (and its reason) in the analyze output.
    let mut fallback_cases = 0usize;
    for case in 0u64..10 {
        let mut spec = gen_shuffle_spec(case);
        spec.opaque = true;
        let (plan, _) = build_shuffle_plan(&spec);
        let mut ctx = rheem::default_context().with_batch(true);
        ctx.forced_platform = Some(ids::SPARK);
        let analysis = ctx.explain_analyze(&plan).unwrap();
        fallback_cases +=
            usize::from(analysis.rows.iter().any(|r| r.exch_row_rows > 0 && r.fallback.is_some()));
    }
    assert!(fallback_cases > 0, "no opaque case reported a row-exchange fallback");
}

/// Mode agreement must survive the chaos matrix: with an active fault plan,
/// batched and row execution either survive with identical answers and span
/// trees or die with the same typed error.
#[test]
fn batch_modes_agree_under_chaos() {
    for chaos_seed in chaos_seeds() {
        for case in 0u64..6 {
            let spec = gen_spec(case);
            let row = run_spec_batch(&spec, false, None, Some(chaos_seed));
            let bat = run_spec_batch(&spec, true, None, Some(chaos_seed));
            match (row, bat) {
                (Ok((ro, rt)), Ok((bo, bt))) => {
                    assert_eq!(
                        bo, ro,
                        "chaos seed {chaos_seed:#x} case {case}: batch modes disagree on the answer"
                    );
                    assert_eq!(
                        bt, rt,
                        "chaos seed {chaos_seed:#x} case {case}: batch modes disagree on the trace"
                    );
                }
                (Err(re), Err(be)) => assert_eq!(
                    re.to_string(),
                    be.to_string(),
                    "chaos seed {chaos_seed:#x} case {case}: batch modes fail differently"
                ),
                (row, bat) => panic!(
                    "chaos seed {chaos_seed:#x} case {case}: one batch mode survived, the other \
                     failed (row ok={}, batch ok={})",
                    row.is_ok(),
                    bat.is_ok()
                ),
            }
        }
    }
}

// ---- targeted faults ---------------------------------------------------

/// Recoverable transient faults on every platform's operators leave results
/// byte-identical to the fault-free baseline.
#[test]
fn recoverable_transient_faults_keep_answers_identical() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        for forced in PLATFORMS {
            let baseline = {
                let mut ctx = rheem::default_context();
                ctx.forced_platform = Some(forced);
                run_spec(&spec, &ctx).unwrap()
            };
            let mut ctx = rheem::default_context();
            ctx.forced_platform = Some(forced);
            // Every operator site fails once; a generous budget keeps all
            // recovery in place (no failover possible under forcing).
            ctx.config_mut().retry_budget = 16;
            ctx.config_mut().fault_plan = Some(Arc::new(
                FaultPlan::none()
                    .with_rule(FaultRule::new(FaultKind::Transient).on_platform(forced).failing(1)),
            ));
            let out = run_spec(&spec, &ctx).unwrap();
            assert_eq!(out, baseline, "case {case} on {forced:?} changed under faults");
            assert!(
                ctx.monitor().retries() >= 1,
                "case {case} on {forced:?}: no fault was injected"
            );
        }
    }
}

/// Recoverable channel-transfer faults (collect/parallelize conversions)
/// likewise never change answers.
#[test]
fn recoverable_transfer_faults_keep_answers_identical() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        for forced in [ids::SPARK, ids::FLINK] {
            let baseline = {
                let mut ctx = rheem::default_context();
                ctx.forced_platform = Some(forced);
                run_spec(&spec, &ctx).unwrap()
            };
            let mut ctx = rheem::default_context();
            ctx.forced_platform = Some(forced);
            ctx.config_mut().retry_budget = 16;
            ctx.config_mut().fault_plan = Some(Arc::new(
                FaultPlan::none()
                    .with_rule(FaultRule::new(FaultKind::Transfer).on_platform(forced).failing(1)),
            ));
            let out = run_spec(&spec, &ctx).unwrap();
            assert_eq!(out, baseline, "case {case} on {forced:?} changed under transfer faults");
        }
    }
}

/// A persistent fault on a *forced* platform cannot fail over: it must
/// surface as a typed budget-exhaustion error, never as a wrong answer.
#[test]
fn persistent_fault_on_forced_platform_surfaces_typed() {
    let spec = gen_spec(1);
    for forced in PLATFORMS {
        let mut ctx = rheem::default_context();
        ctx.forced_platform = Some(forced);
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(forced).failing(PERSISTENT),
        )));
        match run_spec(&spec, &ctx) {
            Ok(_) => panic!("persistent fault on {forced:?} must not succeed"),
            Err(RheemError::Exhausted(x)) => assert_eq!(x.platform, forced),
            Err(other) => panic!("expected typed exhaustion on {forced:?}, got {other}"),
        }
    }
}

/// A persistent fault on the preferred platform *with free platform choice*
/// completes via failover and still matches the baseline byte-for-byte.
#[test]
fn persistent_fault_fails_over_and_matches_baseline() {
    for case in 0u64..4 {
        let spec = gen_spec(case);
        let baseline = run_spec(&spec, &rheem::default_context()).unwrap();
        // Whichever platform the optimizer prefers first, kill it for good.
        let preferred = {
            let ctx = rheem::default_context();
            let (plan, _) = build_plan(&spec);
            *ctx.optimize(&plan)
                .unwrap()
                .platforms
                .iter()
                .find(|p| PLATFORMS.contains(p))
                .expect("plan uses a general-purpose platform")
        };
        let mut ctx = rheem::default_context();
        ctx.config_mut().fault_plan = Some(Arc::new(FaultPlan::none().with_rule(
            FaultRule::new(FaultKind::Transient).on_platform(preferred).failing(PERSISTENT),
        )));
        let out = run_spec(&spec, &ctx).unwrap();
        assert_eq!(out, baseline, "case {case}: failover from {preferred:?} changed the answer");
        assert!(ctx.monitor().failovers() >= 1, "case {case}: expected a failover");
    }
}

// ---- service mode ---------------------------------------------------------

/// Run a seeded batch of specs through a [`JobService`], round-robined over
/// three tenants; returns per-job (sorted output, span-tree structure).
/// `concurrent_service` picks the submission style: the sequential reference
/// runs one runner and waits for each job before submitting the next, the
/// concurrent run submits everything up front against four runners. The
/// cross-job cache stays off so answers cannot depend on inter-job reuse.
fn run_specs_service(
    specs: &[Spec],
    concurrent_service: bool,
    sched_concurrent: bool,
    batch: bool,
) -> Vec<(Vec<Value>, String)> {
    let mut ctx = rheem::default_context().with_batch(batch);
    ctx.set_cache(None);
    ctx.config_mut().concurrent = Some(sched_concurrent);
    let tenants: Vec<TenantSpec> = (0..3)
        .map(|t| TenantSpec::new(&format!("t{t}")).with_max_in_flight(specs.len().max(1)))
        .collect();
    let config = ServiceConfig {
        runners: if concurrent_service { 4 } else { 1 },
        ..ServiceConfig::default()
    };
    let service = JobService::new(ctx, config, tenants).unwrap();

    let collect = |handle: JobHandle, sink: rheem_core::plan::OperatorId| {
        let result = handle.wait().unwrap();
        let mut out = result.sink(sink).unwrap().to_vec();
        out.sort();
        let structure = result.trace.as_ref().map(|t| t.render_structure()).unwrap_or_default();
        (out, structure)
    };

    if concurrent_service {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (plan, sink) = build_plan(spec);
                (service.submit(&format!("t{}", i % 3), plan).unwrap(), sink)
            })
            .collect();
        handles.into_iter().map(|(h, sink)| collect(h, sink)).collect()
    } else {
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (plan, sink) = build_plan(spec);
                let h = service.submit(&format!("t{}", i % 3), plan).unwrap();
                collect(h, sink)
            })
            .collect()
    }
}

/// The job service must be invisible per job: a seeded batch of random
/// plans submitted concurrently (4 runners, fair-share gate active) returns
/// exactly the outputs and span-tree structures of strictly sequential
/// submission — under both scheduler modes and with batch execution on and
/// off.
#[test]
fn service_concurrent_submission_matches_sequential() {
    let specs: Vec<Spec> = (0..6).map(|case| gen_spec(0x5E51 ^ (case * 31))).collect();
    for sched_concurrent in [false, true] {
        for batch in [false, true] {
            let seq = run_specs_service(&specs, false, sched_concurrent, batch);
            let conc = run_specs_service(&specs, true, sched_concurrent, batch);
            for (i, (s, c)) in seq.iter().zip(&conc).enumerate() {
                assert!(!s.0.is_empty(), "case {i}: sequential reference produced nothing");
                assert_eq!(
                    c.0, s.0,
                    "case {i} (sched={sched_concurrent}, batch={batch}): \
                     concurrent submission changed the answer"
                );
                assert_eq!(
                    c.1, s.1,
                    "case {i} (sched={sched_concurrent}, batch={batch}): \
                     concurrent submission changed the span tree"
                );
            }
        }
    }
}

// ---- conformance matrix: operator × input shape × platform × batch mode ----

/// The four payload shapes an operator input can arrive in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Rows, one collection: an opaque map on java.streams.
    Collection,
    /// Rows, partitioned: an opaque map on the consumer's partitioned engine.
    Partitions,
    /// Columns, one collection: a spec'd map on java.streams (batch mode).
    Batches,
    /// Columns, partitioned: a spec'd map on the consumer's partitioned
    /// engine (batch mode).
    BatchParts,
}

const SHAPES: [Shape; 4] =
    [Shape::Collection, Shape::Partitions, Shape::Batches, Shape::BatchParts];

/// The operators of the matrix: every two-input operator and every wide one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MatrixOp {
    Join,
    Cartesian,
    InequalityJoin,
    Union,
    ReduceBy,
    GroupBy,
    Distinct,
    SortBy,
    Count,
    Reduce,
}

const TWO_INPUT: [MatrixOp; 4] =
    [MatrixOp::Join, MatrixOp::Cartesian, MatrixOp::InequalityJoin, MatrixOp::Union];
const WIDE: [MatrixOp; 6] = [
    MatrixOp::ReduceBy,
    MatrixOp::GroupBy,
    MatrixOp::Distinct,
    MatrixOp::SortBy,
    MatrixOp::Count,
    MatrixOp::Reduce,
];

/// `(key, value)` int pairs. Left inputs of the exchanging operators exceed
/// one 8,192-row partition, so the partitioned engines exchange between
/// several partitions; right inputs, and the inputs of the quadratic
/// operators and Union, stay small to keep the matrix fast.
fn matrix_inputs(op: MatrixOp) -> (Vec<Value>, Vec<Value>) {
    let rows = |n: i64, salt: i64| -> Vec<Value> {
        (0..n)
            .map(|i| {
                Value::pair(
                    Value::from((i * 7 + salt) % 97),
                    Value::from((i * 37 + salt) % 201 - 100),
                )
            })
            .collect()
    };
    match op {
        MatrixOp::Cartesian | MatrixOp::InequalityJoin | MatrixOp::Union => {
            (rows(120, 1), rows(30, 5))
        }
        _ => (rows(9_000, 1), rows(30, 5)),
    }
}

/// Feed `rows` to an operator on `consumer` so that they arrive in `shape`.
/// The producing map is pinned to java.streams for the collection shapes and
/// to the consumer's engine for the partitioned ones (spark when the
/// consumer is java.streams, whose input then arrives through a collect).
/// The columnar shapes use the spec'd map, which compiles to a vector
/// kernel; the row shapes strip the spec, leaving the same closure.
fn arrive(b: &mut PlanBuilder, rows: Vec<Value>, shape: Shape, consumer: PlatformId) -> DataQuanta {
    let mut bump = MapUdf::field_add_int("bump", 1, 3);
    if matches!(shape, Shape::Collection | Shape::Partitions) {
        bump.spec = None;
    }
    let producer = match shape {
        Shape::Collection | Shape::Batches => ids::JAVA_STREAMS,
        _ if consumer == ids::JAVA_STREAMS => ids::SPARK,
        _ => consumer,
    };
    b.collection(rows).map(bump).with_target_platform(producer)
}

fn apply_matrix_op(op: MatrixOp, left: &DataQuanta, right: Option<&DataQuanta>) -> DataQuanta {
    let right = || right.expect("two-input operator has a right input");
    match op {
        MatrixOp::Join => left.join(right(), KeyUdf::field(0), KeyUdf::field(0)),
        MatrixOp::Cartesian => left.cartesian(right()),
        MatrixOp::InequalityJoin => left.inequality_join(
            right(),
            vec![IneqCond { left_field: 1, op: CmpOp::Lt, right_field: 1 }],
        ),
        MatrixOp::Union => left.union(right()),
        MatrixOp::ReduceBy => left.reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum")),
        MatrixOp::GroupBy => left.group_by(KeyUdf::field(0)),
        MatrixOp::Distinct => left.distinct(),
        MatrixOp::SortBy => left.sort_by(KeyUdf::field(0)),
        MatrixOp::Count => left.count(),
        MatrixOp::Reduce => left.reduce(ReduceUdf::pair_int_sum("sum")),
    }
}

/// Run `op` on `consumer` with its inputs arriving in `shapes`. Fusion is
/// off so the producing maps stay separate operators and their output
/// really crosses a channel. The output is sorted, except after SortBy,
/// whose order is part of the answer.
fn run_matrix_case(
    op: MatrixOp,
    shapes: &[Shape],
    consumer: PlatformId,
    batch: bool,
) -> Result<Vec<Value>> {
    let (l, r) = matrix_inputs(op);
    let mut b = PlanBuilder::new();
    let left = arrive(&mut b, l, shapes[0], consumer);
    let right = shapes.get(1).map(|&s| arrive(&mut b, r, s, consumer));
    let sink = apply_matrix_op(op, &left, right.as_ref()).with_target_platform(consumer).collect();
    let plan = b.build().unwrap();
    let result = rheem::default_context().with_batch(batch).with_fusion(false).execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    if op != MatrixOp::SortBy {
        out.sort();
    }
    Ok(out)
}

/// Every two-input and wide operator, with each input slot arriving in each
/// payload shape, computes the java.streams row answer on java.streams,
/// spark and flink, with batch execution on and off.
#[test]
fn conformance_matrix_op_shape_platform_batch() {
    let mut failures = Vec::new();
    let mut cases = 0;
    for op in TWO_INPUT.into_iter().chain(WIDE) {
        let slots = if TWO_INPUT.contains(&op) { 2 } else { 1 };
        let reference =
            run_matrix_case(op, &[Shape::Collection; 2][..slots], ids::JAVA_STREAMS, false)
                .unwrap_or_else(|e| panic!("{op:?}: java.streams row reference failed: {e}"));
        assert!(!reference.is_empty(), "{op:?}: empty reference");
        let shape_sets: Vec<Vec<Shape>> = if slots == 2 {
            SHAPES.iter().flat_map(|&l| SHAPES.iter().map(move |&r| vec![l, r])).collect()
        } else {
            SHAPES.iter().map(|&s| vec![s]).collect()
        };
        for shapes in &shape_sets {
            for consumer in PLATFORMS {
                for batch in [true, false] {
                    cases += 1;
                    let case = format!("{op:?} {shapes:?} on {consumer:?} (batch={batch})");
                    match run_matrix_case(op, shapes, consumer, batch) {
                        Ok(out) if out == reference => {}
                        Ok(out) => failures.push(format!(
                            "{case}: {} rows differ from the {}-row reference",
                            out.len(),
                            reference.len()
                        )),
                        Err(e) => failures.push(format!("{case}: {e}")),
                    }
                }
            }
        }
    }
    assert_eq!(cases, (4 * 16 + 6 * 4) * 3 * 2);
    assert!(
        failures.is_empty(),
        "{} of {cases} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The matrix's shapes are real: in batch mode the spec'd producers run
/// vectorized and the opaque ones do not, on the platform `arrive` pins.
#[test]
fn conformance_matrix_shapes_come_from_the_pinned_producer() {
    for consumer in PLATFORMS {
        for shape in SHAPES {
            let mut b = PlanBuilder::new();
            let rows = matrix_inputs(MatrixOp::Count).0;
            arrive(&mut b, rows, shape, consumer).count().with_target_platform(consumer).collect();
            let plan = b.build().unwrap();
            let analysis = rheem::default_context()
                .with_batch(true)
                .with_fusion(false)
                .explain_analyze(&plan)
                .unwrap();
            let producer =
                analysis.rows.iter().find(|r| r.label.contains("bump")).expect("map row");
            let columnar = matches!(shape, Shape::Batches | Shape::BatchParts);
            let on_engine = matches!(shape, Shape::Partitions | Shape::BatchParts);
            assert_eq!(producer.vec_steps > 0, columnar, "{shape:?} on {consumer:?}: {producer:?}");
            assert_eq!(
                producer.platform != ids::JAVA_STREAMS.0,
                on_engine,
                "{shape:?} on {consumer:?}: produced on {}",
                producer.platform
            );
        }
    }
}

// ---- conformance matrix: loop bodies and sources × platform × batch mode ----

/// Plan heads and bodies the operator matrix above does not reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoopOrSource {
    /// A `repeat` body: map + keyed reduce over the loop state.
    Repeat,
    /// A `do_while` body: a broadcast-reading map and a global reduce; the
    /// condition reads the single-row feedback, so it is order-independent.
    DoWhile,
    /// A `TextFileSource` head feeding WordCount.
    TextFile,
    /// A PageRank over a collection of edges.
    PageRank,
}

const LOOPS_AND_SOURCES: [LoopOrSource; 4] =
    [LoopOrSource::Repeat, LoopOrSource::DoWhile, LoopOrSource::TextFile, LoopOrSource::PageRank];

/// `(key, value)` int pairs, as in the operator matrix.
fn keyed_rows(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::from((i * 7 + 1) % 97), Value::from((i * 37 + 1) % 201 - 100)))
        .collect()
}

/// Run `case` with its loop body, source or PageRank pinned to `consumer`.
/// java.streams has no text-file source of its own, so there the driver
/// reads the file and java.streams runs the rest.
fn run_loop_source_case(
    case: LoopOrSource,
    consumer: PlatformId,
    batch: bool,
) -> Result<Vec<Value>> {
    let mut b = PlanBuilder::new();
    let out = match case {
        LoopOrSource::Repeat => b.collection(keyed_rows(9_000)).repeat(3, |w| {
            w.map(MapUdf::field_add_int("bump", 1, 3))
                .with_target_platform(consumer)
                .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("sum"))
                .with_target_platform(consumer)
        }),
        LoopOrSource::DoWhile => {
            let data = b.collection(keyed_rows(2_000));
            let init = b.collection(vec![Value::from(0i64)]);
            let cond = PredicateUdf::new("big", |v| v.as_int().unwrap_or(0) > 500_000);
            init.do_while(cond, 8, |w| {
                data.map(MapUdf::with_ctx("lift", |p, ctx| {
                    let w = ctx.get_or_empty("w").first().and_then(Value::as_int).unwrap_or(0);
                    Value::from(p.field(1).as_int().unwrap_or(0).abs() + w / 2_000)
                }))
                .with_target_platform(consumer)
                .broadcast("w", w)
                .reduce(ReduceUdf::new("sum", |a, b| {
                    Value::from(a.as_int().unwrap_or(0) + b.as_int().unwrap_or(0))
                }))
                .with_target_platform(consumer)
            })
        }
        LoopOrSource::TextFile => {
            let path = std::path::PathBuf::from("hdfs://tests/differential/lines.txt");
            rheem_datagen::text::write_corpus(&path, 64, 3).unwrap();
            let mut lines = b.read_text_file(&path);
            if consumer != ids::JAVA_STREAMS {
                lines = lines.with_target_platform(consumer);
            }
            lines
                .flat_map(FlatMapUdf::new("split", |v| {
                    v.as_str().unwrap_or("").split_whitespace().map(Value::from).collect()
                }))
                .with_target_platform(consumer)
                .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
                .with_target_platform(consumer)
                .reduce_by_key(KeyUdf::field(0), ReduceUdf::pair_int_sum("count"))
                .with_target_platform(consumer)
        }
        LoopOrSource::PageRank => {
            let mut rng = SplitMix64(11);
            let edges: Vec<Value> = (0..3_000)
                .map(|_| {
                    let (s, d) = (rng.next_u64() % 400, rng.next_u64() % 400);
                    Value::pair(Value::from(s as i64), Value::from(d as i64))
                })
                .collect();
            b.collection(edges).page_rank(5, 0.85).with_target_platform(consumer)
        }
    };
    let sink = out.collect();
    let plan = b.build().unwrap();
    let result = rheem::default_context().with_batch(batch).execute(&plan)?;
    let mut out = result.sink(sink)?.to_vec();
    out.sort();
    Ok(out)
}

/// Every loop body and source computes the java.streams row answer on
/// java.streams, spark and flink, with batch execution on and off.
#[test]
fn conformance_matrix_loops_and_sources() {
    let mut failures = Vec::new();
    let mut cases = 0;
    for case in LOOPS_AND_SOURCES {
        let reference = run_loop_source_case(case, ids::JAVA_STREAMS, false)
            .unwrap_or_else(|e| panic!("{case:?}: java.streams row reference failed: {e}"));
        assert!(!reference.is_empty(), "{case:?}: empty reference");
        for consumer in PLATFORMS {
            for batch in [true, false] {
                cases += 1;
                let name = format!("{case:?} on {consumer:?} (batch={batch})");
                match run_loop_source_case(case, consumer, batch) {
                    Ok(out) if out == reference => {}
                    Ok(out) => failures.push(format!(
                        "{name}: {} rows differ from the {}-row reference",
                        out.len(),
                        reference.len()
                    )),
                    Err(e) => failures.push(format!("{name}: {e}")),
                }
            }
        }
    }
    assert_eq!(cases, 4 * 3 * 2);
    assert!(
        failures.is_empty(),
        "{} of {cases} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
