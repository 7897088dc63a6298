//! The partitioned engine: one multi-threaded batch engine over partitioned
//! datasets that simulates both **Spark** and **Flink** (§6). Operators
//! execute **for real** over partitions (worker threads pull partitions off
//! a shared queue); the measured per-partition times are composed into
//! *virtual cluster time* via the platform profile's task-wave model, and
//! exchanges and broadcasts add network-transfer terms.
//!
//! The two engines share one dataflow model and differ in runtime: the
//! per-job and per-stage overheads live in each one's `PlatformProfile`;
//! everything else (per-record costs, caching, how far operator chains
//! reach, iteration cost, what the trace shows) is a field of its
//! [`Flavor`]. Spark's channels are `spark.rdd` (consumed once — Spark
//! recomputes lineage otherwise) and `spark.rdd.cached` (reusable, the
//! `Cache` operator of Fig. 3(b)); Flink pipelines one `flink.dataset`
//! channel. Flink's cheaper iterations (e.g. CrocoPR's preparation phase,
//! Fig. 9(f)) emerge from its lower stage/task overheads: the executor
//! re-dispatches loop-body stages every iteration, so cheaper stages
//! compound.

#![warn(missing_docs)]

mod convert;
mod exchange;
mod flavor;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelDescriptor, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, Fallback, OpMetrics};
use rheem_core::fused::{self, Segment};
use rheem_core::kernels;
use rheem_core::mapping::{upstream_chain, Candidate, FnMapping};
use rheem_core::plan::{LogicalOp, OpKind, OperatorNode, RheemPlan, SampleSize};
use rheem_core::platform::{Platform, PlatformId, PlatformProfile};
use rheem_core::registry::Registry;
use rheem_core::udf::{BroadcastCtx, KeySpec, KeyUdf, ReduceUdf};
use rheem_core::value::{Dataset, Value};

pub use exchange::{partition_count, shuffle};
pub use flavor::{Flavor, Trace, DATASET, RDD, RDD_CACHED};

use convert::{Conv, Convert};
use exchange::{
    bucket_bytes, bucketize, chunked, flatten_parts, par_map_each, par_map_rows, pool_size, shipped,
};

/// The partitioned platform of one flavor.
#[derive(Clone, Copy, Debug)]
pub struct PartitionedPlatform(&'static Flavor);

impl PartitionedPlatform {
    /// The Spark simulacrum.
    pub fn spark() -> Self {
        Self(&Flavor::SPARK)
    }

    /// The Flink simulacrum.
    pub fn flink() -> Self {
        Self(&Flavor::FLINK)
    }
}

/// A partitioned execution operator: one logical operator or a fused chain
/// (narrow operators, possibly ending in one of the flavor's chain
/// anchors), executed per partition in one pass.
pub(crate) struct PartitionedOperator {
    flavor: &'static Flavor,
    ops: Vec<LogicalOp>,
    name: String,
}

impl PartitionedOperator {
    /// Wrap a chain of logical operators (narrow chains fuse; wide
    /// operators stand alone or end a chain).
    pub(crate) fn new(flavor: &'static Flavor, ops: Vec<LogicalOp>) -> Self {
        let prefix = flavor.name;
        let name = match ops.as_slice() {
            [single] => format!("{prefix}{:?}", single.kind()),
            // A chain ending in a wide operator names its tail so monitor
            // logs still show what the stage aggregates into.
            [head @ .., last] if !fused::fusable(last) => {
                format!("{prefix}Chain{}\u{2218}{:?}", head.len(), last.kind())
            }
            _ => format!("{prefix}Chain{}", ops.len()),
        };
        Self { flavor, ops, name }
    }

    /// Stage input as row partitions. Partitioned inputs arrive as they are
    /// (columnar ones land 1:1, one row partition per batch); collections
    /// split by size.
    fn input_partitions(&self, input: &ChannelData, max_parts: u32) -> Result<Vec<Dataset>> {
        match input {
            ChannelData::Partitions(p) => Ok(p.as_ref().clone()),
            ChannelData::BatchParts(bs) if bs.is_empty() => Ok(vec![Arc::new(Vec::new())]),
            ChannelData::BatchParts(bs) => Ok(bs.iter().map(|b| Arc::new(b.to_values())).collect()),
            ChannelData::Collection(_) | ChannelData::Batches(_) => {
                Ok(exchange::split(&input.flatten()?, max_parts))
            }
            other => Err(RheemError::Execution(format!(
                "{} operator expects a partitioned dataset, found {other:?}",
                self.flavor.name
            ))),
        }
    }

    /// Stage input as engine parts: columnar partitions arrive 1:1 through
    /// the exchange (`BatchParts`, no row round-trip); everything else takes
    /// the row route of [`Self::input_partitions`].
    fn input_parts(&self, input: &ChannelData, max_parts: u32) -> Result<Vec<batch::Part>> {
        match input {
            ChannelData::BatchParts(bs) if !bs.is_empty() => {
                Ok(bs.iter().map(|b| batch::Part::Cols(b.clone())).collect())
            }
            _ => Ok(batch::into_row_parts(self.input_partitions(input, max_parts)?)),
        }
    }

    /// Report an exchange to the job trace, if this flavor traces exchanges.
    fn exchange_event(&self, ctx: &mut ExecCtx<'_>, op: &str, bytes: f64, partitions: usize) {
        if let Trace::PerExchange(event) = self.flavor.trace {
            let op = op.to_string();
            ctx.trace_event(event, || {
                vec![
                    ("op".to_string(), op.into()),
                    ("bytes".to_string(), bytes.into()),
                    ("partitions".to_string(), partitions.into()),
                ]
            });
        }
    }

    /// The reduce-side exchange shared by `ReduceBy` and the fused terminal
    /// aggregation: ship map-side partials to their destination partition
    /// and merge per key. When every partial stayed columnar, the
    /// `(key, sum)` batches hash-partition on their key column and merge
    /// through slot arrays — no row materialization anywhere on the path;
    /// otherwise (or in row mode) the partials travel as carried-key pairs
    /// through the row shuffle. Both paths route identically, so results
    /// and partition counts are byte-identical. Returns the merged
    /// partitions and the virtual ms of the exchange + reduce side.
    fn reduce_exchange(
        &self,
        ctx: &mut ExecCtx<'_>,
        profile: &PlatformProfile,
        combined: &[batch::Part],
        agg: &ReduceUdf,
        op: &str,
        batched: bool,
    ) -> Result<(Vec<batch::Part>, f64)> {
        let n = combined.len();
        let workers = pool_size(profile);
        let columnar = if batched { batch::all_batches(combined) } else { None };
        if let Some(buckets) = columnar.and_then(|bs| bucketize(&bs, &KeySpec::Field(0), n)) {
            let bytes = bucket_bytes(&buckets);
            self.exchange_event(ctx, op, bytes, n);
            let (sb, srows) = shipped(&buckets);
            ctx.report_exchange(sb, srows);
            let fell = AtomicUsize::new(0);
            let fell_rows = AtomicUsize::new(0);
            let (out, t2) = par_map_each(buckets.len(), workers, |j| {
                let contribs = &buckets[j];
                if let Some(m) = batch::merge_batches(contribs) {
                    return Ok(batch::Part::Cols(m));
                }
                // Per-bucket row fallback: routing matched the row shuffle,
                // so merging this bucket's keyed rows reproduces the row
                // result exactly.
                fell.fetch_add(1, Ordering::Relaxed);
                let mut rows = Vec::new();
                for b in contribs {
                    rows.extend(batch::keyed_values(b));
                }
                fell_rows.fetch_add(rows.len(), Ordering::Relaxed);
                Ok(batch::Part::Rows(Arc::new(kernels::merge_by(&rows, agg))))
            })?;
            if fell.into_inner() > 0 {
                ctx.report_exchange_fallback(fell_rows.into_inner() as u64, Fallback::TypeMismatch);
            }
            return Ok((out, profile.net_ms(bytes) + profile.parallel_ms(&t2)));
        }
        // Row exchange: partials travel as (key, acc) pairs; the merge groups
        // by the carried key, never re-extracting from accumulators.
        let keyed: Vec<Dataset> = combined
            .iter()
            .map(|p| match p {
                batch::Part::Rows(d) => Arc::clone(d),
                batch::Part::Cols(b) => Arc::new(batch::keyed_values(b)),
            })
            .collect();
        let (exchanged, bytes) = shuffle(&keyed, &KeyUdf::field(0), n);
        self.exchange_event(ctx, op, bytes, n);
        if batched {
            let rows: u64 = exchanged.iter().map(|d| d.len() as u64).sum();
            ctx.report_exchange_fallback(rows, Fallback::RowInput);
        }
        let (out, t2) = par_map_rows(&exchanged, workers, |_i, d| Ok(kernels::merge_by(d, agg)))?;
        Ok((batch::into_row_parts(out), profile.net_ms(bytes) + profile.parallel_ms(&t2)))
    }
}

/// Whether an operator is *wide* (needs an exchange).
fn is_wide(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::SortBy
            | OpKind::Distinct
            | OpKind::GroupBy
            | OpKind::ReduceBy
            | OpKind::Join
            | OpKind::Cartesian
            | OpKind::InequalityJoin
            | OpKind::PageRank
            | OpKind::Reduce
            | OpKind::Count
    )
}

/// How the partitions of one narrow pass ran: through the vector kernel or
/// the row interpreter.
#[derive(Default)]
struct PassStats {
    vec_rows: AtomicUsize,
    vec_parts: AtomicUsize,
    row_parts: AtomicUsize,
}

impl PassStats {
    /// Report a pass of `steps` operators over `parts` partitions. Without
    /// a compiled kernel every partition of a batch-mode pass fell back.
    fn report(
        self,
        ctx: &mut ExecCtx<'_>,
        steps: u32,
        compiled: bool,
        batched: bool,
        parts: usize,
    ) {
        let vb = self.vec_parts.into_inner();
        if vb > 0 {
            ctx.report_vectorized(self.vec_rows.into_inner() as u64, vb as u64, steps * vb as u32);
        }
        let rb = if compiled {
            self.row_parts.into_inner()
        } else if batched {
            parts
        } else {
            0
        };
        if rb > 0 {
            ctx.report_row_fallback(steps * rb as u32);
        }
    }
}

impl ExecutionOperator for PartitionedOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        self.flavor.id
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        self.flavor.channels()
    }

    fn output_kind(&self) -> ChannelKind {
        self.flavor.channel
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let f = self.flavor;
        let c_in: f64 = in_cards.iter().sum();
        let mut cycles = 0.0;
        let mut net_bytes = 0.0;
        let mut card = c_in;
        let mut after_fused = false;
        let mut after_vectorized = false;
        for (si, seg) in fused::segment_chain(&self.ops).into_iter().enumerate() {
            let delta = if si == 0 { f.submit_delta } else { 0.0 };
            let op = match seg {
                // A fused chain pays its job-submission δ once and one
                // per-tuple term whose UDF weight is the summed step cost.
                Segment::Fused { pipeline, .. } if pipeline.len() > 1 => {
                    // Static vectorization discount: recognized chains run on
                    // typed column slices. Keys off the plan only, never the
                    // RHEEM_BATCH runtime switch, so plan choice is
                    // mode-independent.
                    let alpha = f.fused_alpha * if pipeline.vectorizable() { 0.55 } else { 1.0 };
                    let udf = pipeline.cost_hint() * 50.0;
                    cycles += linear_cpu(model, f.key(), "fused", card, udf, alpha, delta);
                    card *= pipeline.selectivity();
                    after_fused = true;
                    after_vectorized = pipeline.vectorizable();
                    continue;
                }
                Segment::Fused { start, .. } => &self.ops[start],
                Segment::Single { op, .. } => op,
            };
            let kind = op.kind();
            let size = match kind {
                OpKind::Cartesian | OpKind::InequalityJoin => {
                    in_cards.iter().product::<f64>().max(card)
                }
                OpKind::SortBy => card * card.max(2.0).log2(),
                OpKind::PageRank => card * f.pagerank_size,
                _ => card,
            };
            // A ReduceBy fed by the preceding fused segment runs its
            // map-side combine inside the pipeline pass (fused terminal
            // aggregation): no materialized narrow output, no input re-scan.
            let alpha = if after_fused && kind == OpKind::ReduceBy {
                // Dictionary-keyed vectorized combine skips per-row hashing.
                let vec_agg = after_vectorized
                    && matches!(
                        op,
                        LogicalOp::ReduceBy { key, agg } if batch::agg_vectorizable(key, agg)
                    );
                f.alpha(kind) * if vec_agg { 0.6 } else { 0.75 }
            } else {
                f.alpha(kind)
            };
            after_fused = false;
            after_vectorized = false;
            let udf = op.udf_cost_hint() * 50.0;
            cycles += linear_cpu(model, f.key(), kind.token(), size, udf, alpha, delta);
            if is_wide(kind) {
                net_bytes += card * avg_bytes * 0.9;
            }
            card *= match kind {
                OpKind::Filter | OpKind::SargFilter => 0.5,
                OpKind::FlatMap => 4.0,
                OpKind::ReduceBy | OpKind::GroupBy | OpKind::Distinct => 0.5,
                OpKind::Count | OpKind::Reduce => 0.0,
                _ => 1.0,
            };
        }
        Load {
            cpu_cycles: cycles,
            net_bytes,
            tasks: partition_count(c_in as usize, 80) as u32,
            ..Load::default()
        }
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let f = self.flavor;
        ctx.fault_gate(f.id, self.name())?;
        let profile = ctx.profile(f.id).clone();
        let workers = pool_size(&profile);
        let seed = ctx.seed;
        let iteration = ctx.iteration;
        let batched = ctx.batch();

        // Broadcast variables ship once per executor node (~10 nodes).
        if !bc.is_empty() {
            let bytes: f64 = bc.total_quanta() as f64 * 24.0;
            ctx.add_virtual_ms(profile.net_ms(bytes * 10.0) + f.broadcast_ms);
        }

        let mut parts: Vec<batch::Part> = if self.ops[0].kind().is_source() {
            Vec::new()
        } else {
            self.input_parts(&inputs[0], profile.partitions)?
        };
        let in_card: u64 = parts.iter().map(|p| p.len() as u64).sum::<u64>()
            + inputs.get(1).and_then(|c| c.cardinality()).unwrap_or(0) as u64;
        if let Trace::PerVertex(event) = f.trace {
            let n_parts = parts.len();
            ctx.trace_event(event, || {
                vec![
                    ("workers".to_string(), workers.into()),
                    ("partitions".to_string(), n_parts.into()),
                    ("in_card".to_string(), in_card.into()),
                ]
            });
        }
        let mut virtual_ms = 0.0;
        let mut real_ms = 0.0;

        let segs = fused::segment_chain(&self.ops);
        let mut si = 0;
        while si < segs.len() {
            let seg = &segs[si];
            si += 1;
            // ---- narrow transformations: the whole fused run traverses
            // each partition exactly once (stage pipelining made literal) ----
            if let Segment::Fused { pipeline, .. } = seg {
                // Fused terminal aggregation: a chain feeding a ReduceBy runs
                // inside the map-side combine — pipeline survivors stream
                // straight into each partition's hash accumulator, so the
                // narrow output is never materialized before the combine.
                let terminal = match segs.get(si) {
                    Some(Segment::Single { op: LogicalOp::ReduceBy { key, agg }, .. }) => {
                        Some((key, agg))
                    }
                    _ => None,
                };
                let start = Instant::now();
                // Columnar runs when the chain (and the aggregation, if any)
                // is recognized; partitions whose runtime types refuse to
                // columnize fall back individually.
                let vk = batched.then(|| batch::VectorKernel::compile(pipeline)).flatten().filter(
                    |_| terminal.is_none_or(|(key, agg)| batch::agg_vectorizable(key, agg)),
                );
                let spec = terminal.and_then(|(_, agg)| agg.spec.clone());
                let stats = PassStats::default();
                let (out, times) = par_map_each(parts.len(), workers, |i| {
                    let part = &parts[i];
                    if let Some(k) = vk.as_ref() {
                        // Columnar inputs run the kernel over the shipped
                        // batch directly; row inputs columnize first.
                        let run = match part {
                            batch::Part::Cols(b) => k.run_batch(b.clone()),
                            batch::Part::Rows(d) => k.run_values(d),
                        };
                        // A terminal aggregation combines the kernel's output;
                        // `vk` is only kept for a vectorizable aggregation,
                        // which always has a spec.
                        let run = match &spec {
                            Some(spec) => run.and_then(|b| batch::combine_batch(&b, spec)),
                            None => run,
                        };
                        if let Some(b) = run {
                            stats.vec_rows.fetch_add(part.len(), Ordering::Relaxed);
                            stats.vec_parts.fetch_add(1, Ordering::Relaxed);
                            return Ok(batch::Part::Cols(b));
                        }
                        stats.row_parts.fetch_add(1, Ordering::Relaxed);
                    }
                    let rows = part.rows();
                    Ok(batch::Part::Rows(Arc::new(match terminal {
                        Some((key, agg)) => {
                            let mut state = kernels::ReduceByState::new(key, agg);
                            pipeline.run_each(&rows, bc, |v| state.feed_owned(v));
                            state.finish_keyed()
                        }
                        None => pipeline.run(&rows, bc),
                    })))
                })?;
                let steps = pipeline.len() as u32 + terminal.is_some() as u32;
                stats.report(ctx, steps, vk.is_some(), batched, parts.len());
                if let Some((_, agg)) = terminal {
                    si += 1;
                    let (merged, vms) =
                        self.reduce_exchange(ctx, &profile, &out, agg, "FusedReduceBy", batched)?;
                    parts = merged;
                    virtual_ms += profile.parallel_ms(&times) + vms;
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                } else {
                    parts = out;
                    virtual_ms += profile.parallel_ms(&times);
                    real_ms += times.iter().sum::<f64>();
                }
                continue;
            }
            let Segment::Single { op, .. } = seg else { unreachable!() };
            let start = Instant::now();
            match op {
                LogicalOp::Sample { method, size, seed: s } => {
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    let want = size.resolve(total);
                    let base_seed = s.unwrap_or(seed) ^ iteration.wrapping_mul(0x9E37_79B9);
                    let rows = batch::rows_of(&parts);
                    let (out, times) = par_map_rows(&rows, workers, |i, data| {
                        let share =
                            if total == 0 { 0 } else { (want * data.len()).div_ceil(total.max(1)) };
                        Ok(kernels::sample(
                            data,
                            *method,
                            SampleSize::Count(share),
                            base_seed.wrapping_add(i as u64),
                        ))
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.parallel_ms(&times);
                    real_ms += times.iter().sum::<f64>();
                    continue;
                }
                LogicalOp::Union => {
                    let other = self.input_parts(&inputs[1], profile.partitions)?;
                    parts.extend(other);
                    continue;
                }
                // ---- wide operators: exchange then per-partition work ----
                LogicalOp::ReduceBy { key, agg } => {
                    // Map-side combine into (key, acc) partials; reduce-side
                    // merge on the carried key (see the fused path above).
                    // Columnar inputs combine through the slot-array kernel
                    // and keep their (key, sum) batch for the exchange.
                    let vec_ok = batched && batch::agg_vectorizable(key, agg);
                    let spec = agg.spec.clone();
                    let (combined, t1) = par_map_each(parts.len(), workers, |i| {
                        let part = &parts[i];
                        if vec_ok {
                            if let (Some(b), Some(spec)) = (part.as_batch(), spec.as_ref()) {
                                if let Some(cb) = batch::combine_batch(b, spec) {
                                    return Ok(batch::Part::Cols(cb));
                                }
                            }
                        }
                        Ok(batch::Part::Rows(Arc::new(kernels::combine_by(&part.rows(), key, agg))))
                    })?;
                    let (out, vms) =
                        self.reduce_exchange(ctx, &profile, &combined, agg, "ReduceBy", batched)?;
                    parts = out;
                    virtual_ms += profile.parallel_ms(&t1) + vms;
                }
                LogicalOp::GroupBy(_) | LogicalOp::Distinct => {
                    let (label, key) = match op {
                        LogicalOp::GroupBy(key) => ("GroupBy", key.clone()),
                        _ => ("Distinct", KeyUdf::identity()),
                    };
                    let n = parts.len();
                    let rows = batch::rows_of(&parts);
                    if batched && parts.iter().any(|p| p.as_batch().is_some()) {
                        let total: u64 = rows.iter().map(|d| d.len() as u64).sum();
                        ctx.report_exchange_fallback(total, Fallback::OpaqueSegment);
                    }
                    let (exchanged, bytes) = shuffle(&rows, &key, n);
                    self.exchange_event(ctx, label, bytes, n);
                    let (out, t) = par_map_rows(&exchanged, workers, |_i, d| {
                        Ok(match op {
                            LogicalOp::GroupBy(key) => kernels::group_by(d, key),
                            _ => kernels::distinct(d),
                        })
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                }
                LogicalOp::SortBy(key) => {
                    // Sort partitions, then merge and re-split contiguously
                    // (range partitioning analogue).
                    let n = parts.len();
                    // Columnar path: per-partition batch sort (selection
                    // vector permutation, columns stay put), then a k-way
                    // merge that re-chunks exactly like the row path.
                    let mut columnar: Option<(Vec<batch::Part>, f64, f64)> = None;
                    if let (true, Some(ks), Some(bs)) =
                        (batched, key.spec.as_ref(), batch::all_batches(&parts))
                    {
                        let (sorted, t) =
                            par_map_each(bs.len(), workers, |i| Ok(batch::sort_batch(bs[i], ks)))?;
                        if let Some(sorted) = sorted.into_iter().collect::<Option<Vec<_>>>() {
                            if let Some(merged) = batch::merge_sorted(&sorted, ks, n) {
                                let bytes =
                                    sorted.iter().map(batch::batch_bytes).sum::<f64>() * 0.9;
                                let rows: u64 =
                                    merged.iter().map(|b| b.selected_len() as u64).sum();
                                ctx.report_exchange(merged.len() as u64, rows);
                                columnar = Some((
                                    merged.into_iter().map(batch::Part::Cols).collect(),
                                    profile.parallel_ms(&t),
                                    bytes,
                                ));
                            }
                        }
                    }
                    if let Some((out, tpar, bytes)) = columnar {
                        parts = out;
                        virtual_ms += tpar + profile.net_ms(bytes);
                    } else {
                        let rows = batch::rows_of(&parts);
                        if batched {
                            let total: u64 = rows.iter().map(|d| d.len() as u64).sum();
                            let why = if key.spec.is_none() {
                                Fallback::OpaqueKey
                            } else if parts.iter().any(|p| p.as_batch().is_none()) {
                                Fallback::RowInput
                            } else {
                                Fallback::TypeMismatch
                            };
                            ctx.report_exchange_fallback(total, why);
                        }
                        let (sorted, t) =
                            par_map_rows(&rows, workers, |_i, d| Ok(kernels::sort_by(d, key)))?;
                        let all = kernels::sort_by(&flatten_parts(&sorted), key);
                        let bytes = dataset_bytes(&all) * 0.9;
                        parts = batch::into_row_parts(chunked(&all, n));
                        virtual_ms += profile.parallel_ms(&t) + profile.net_ms(bytes);
                    }
                }
                LogicalOp::Count => {
                    let total: usize = parts.iter().map(|p| p.len()).sum();
                    parts = vec![batch::Part::Rows(Arc::new(vec![Value::from(total)]))];
                    virtual_ms += profile.task_overhead_ms * f.count_tasks;
                }
                LogicalOp::Reduce(agg) => {
                    let rows = batch::rows_of(&parts);
                    let (partials, t) =
                        par_map_rows(&rows, workers, |_i, d| Ok(kernels::reduce(d, agg)))?;
                    let all = flatten_parts(&partials);
                    parts = vec![batch::Part::Rows(Arc::new(kernels::reduce(&all, agg)))];
                    virtual_ms += profile.parallel_ms(&t) + profile.task_overhead_ms;
                }
                LogicalOp::Join { left_key, right_key } => {
                    let right = self.input_parts(&inputs[1], profile.partitions)?;
                    let n = parts.len().max(right.len());
                    // Columnar path: hash-partition both sides on their key
                    // columns (selection vectors only), then build/probe per
                    // destination bucket. Routing and output order match the
                    // row shuffle + hash join exactly.
                    let mut columnar = None;
                    if let (true, Some(lks), Some(rks)) =
                        (batched, left_key.spec.as_ref(), right_key.spec.as_ref())
                    {
                        if let (Some(lbs), Some(rbs)) =
                            (batch::all_batches(&parts), batch::all_batches(&right))
                        {
                            if let (Some(lb), Some(rb)) =
                                (bucketize(&lbs, lks, n), bucketize(&rbs, rks, n))
                            {
                                columnar = Some((lb, rb, lks, rks));
                            }
                        }
                    }
                    if let Some((lb, rb, lks, rks)) = columnar {
                        let bytes = bucket_bytes(&lb) + bucket_bytes(&rb);
                        self.exchange_event(ctx, "Join", bytes, n);
                        let (sl, rl) = shipped(&lb);
                        let (sr, rr) = shipped(&rb);
                        ctx.report_exchange(sl + sr, rl + rr);
                        let (out, t) = par_map_each(lb.len(), workers, |j| {
                            let rows = batch::join_buckets(&lb[j], &rb[j], lks, rks)
                                .unwrap_or_else(|| {
                                    // Bucket refused to columnize: flatten its
                                    // contributions (same record order as the
                                    // row shuffle) and hash-join row-wise.
                                    let l: Vec<Value> =
                                        lb[j].iter().flat_map(batch::Batch::to_values).collect();
                                    let r: Vec<Value> =
                                        rb[j].iter().flat_map(batch::Batch::to_values).collect();
                                    kernels::hash_join(&l, &r, left_key, right_key)
                                });
                            Ok(batch::Part::Rows(Arc::new(rows)))
                        })?;
                        parts = out;
                        virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    } else {
                        let lrows = batch::rows_of(&parts);
                        let rrows = batch::rows_of(&right);
                        if batched {
                            let total: u64 =
                                lrows.iter().chain(rrows.iter()).map(|d| d.len() as u64).sum();
                            let why = if left_key.spec.is_none() || right_key.spec.is_none() {
                                Fallback::OpaqueKey
                            } else {
                                Fallback::RowInput
                            };
                            ctx.report_exchange_fallback(total, why);
                        }
                        let (le, b1) = shuffle(&lrows, left_key, n);
                        let (re, b2) = shuffle(&rrows, right_key, n);
                        self.exchange_event(ctx, "Join", b1 + b2, n);
                        let (out, t) = par_map_rows(&le, workers, |i, d| {
                            Ok(kernels::hash_join(d, &re[i], left_key, right_key))
                        })?;
                        parts = batch::into_row_parts(out);
                        virtual_ms += profile.net_ms(b1 + b2) + profile.parallel_ms(&t);
                    }
                }
                LogicalOp::Cartesian | LogicalOp::InequalityJoin { .. } => {
                    let right = self.input_partitions(&inputs[1], profile.partitions)?;
                    let right_all = Arc::new(flatten_parts(&right));
                    let bytes = dataset_bytes(&right_all) * parts.len() as f64 * 0.9;
                    let rows = batch::rows_of(&parts);
                    let (out, t) = par_map_rows(&rows, workers, |_i, d| {
                        Ok(match op {
                            LogicalOp::InequalityJoin { conds } => {
                                kernels::ineq_join_nested(d, &right_all, conds)
                            }
                            _ => kernels::cartesian(d, &right_all),
                        })
                    })?;
                    parts = batch::into_row_parts(out);
                    virtual_ms += profile.net_ms(bytes) + profile.parallel_ms(&t);
                    real_ms += start.elapsed().as_secs_f64() * 1000.0;
                    let out_bytes: f64 = parts.iter().map(|p| dataset_bytes(&p.rows())).sum();
                    ctx.check_mem(f.id, out_bytes)?;
                    continue;
                }
                LogicalOp::PageRank { iterations, damping } => {
                    // Distributed PageRank: the shared kernel computes the
                    // result; per-iteration contribution exchanges and task
                    // dispatch are charged to the virtual clock.
                    let edges = flatten_parts(&batch::rows_of(&parts));
                    let t0 = Instant::now();
                    let ranks = kernels::page_rank(&edges, *iterations, *damping);
                    let compute_ms = t0.elapsed().as_secs_f64() * 1000.0;
                    let per_iter_bytes = dataset_bytes(&edges) * f.pagerank_iter_bytes;
                    let n = parts.len();
                    let cores = profile.cores.max(1) as f64;
                    virtual_ms += compute_ms * profile.cpu_scale / cores
                        + *iterations as f64
                            * (profile.net_ms(per_iter_bytes)
                                + profile.task_overhead_ms * n as f64 / cores);
                    parts = batch::into_row_parts(chunked(&ranks, n));
                }
                LogicalOp::TextFileSource { path } => {
                    let (lines, read_ms) = convert::read_text(path, profile.partitions)?;
                    parts = batch::into_row_parts(lines);
                    virtual_ms += read_ms
                        + profile.task_overhead_ms * parts.len() as f64
                            / profile.cores.max(1) as f64;
                }
                other => {
                    return Err(RheemError::Unsupported(format!(
                        "{} cannot execute {:?}",
                        f.name,
                        other.kind()
                    )))
                }
            }
            real_ms += start.elapsed().as_secs_f64() * 1000.0;
        }

        let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: f.id,
            in_card,
            out_card,
            virtual_ms,
            real_ms,
        });
        // Ship columns across the stage boundary when every partition stayed
        // columnar: the consumer maps them 1:1 back onto engine parts, so
        // partition counts (and hence trace structure) match the row mode.
        if batched && !parts.is_empty() {
            if let Some(bs) = batch::all_batches(&parts) {
                let owned: Vec<batch::Batch> = bs.into_iter().cloned().collect();
                return Ok(ChannelData::BatchParts(Arc::new(owned)));
            }
        }
        Ok(ChannelData::Partitions(Arc::new(batch::rows_of(&parts))))
    }
}

/// Operator kinds the engine implements (everything JavaStreams has, plus
/// the parallel text source; loops stay with the driver).
fn supported(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Map
            | OpKind::FlatMap
            | OpKind::Filter
            | OpKind::Project
            | OpKind::SargFilter
            | OpKind::Sample
            | OpKind::SortBy
            | OpKind::Distinct
            | OpKind::Count
            | OpKind::GroupBy
            | OpKind::Reduce
            | OpKind::ReduceBy
            | OpKind::Union
            | OpKind::Join
            | OpKind::Cartesian
            | OpKind::InequalityJoin
            | OpKind::PageRank
            | OpKind::TextFileSource
    )
}

impl Platform for PartitionedPlatform {
    fn id(&self) -> PlatformId {
        self.0.id
    }

    fn register(&self, registry: &mut Registry) {
        let f = self.0;
        registry.add_channel(ChannelDescriptor { kind: f.channel, reusable: false });
        if let Some(cached) = f.cached {
            registry.add_channel(ChannelDescriptor { kind: cached, reusable: true });
            registry.add_conversion(f.channel, cached, Convert::new(f, Conv::Cache));
            registry.add_conversion(cached, f.channel, Convert::new(f, Conv::Uncache));
        }
        for from in f.channels() {
            registry.add_conversion(from, kinds::COLLECTION, Convert::new(f, Conv::Collect));
        }
        registry.add_conversion(kinds::COLLECTION, f.channel, Convert::new(f, Conv::Parallelize));
        if f.cached.is_some() {
            registry.add_conversion(
                f.channel,
                kinds::HDFS_FILE,
                Convert::new(f, Conv::SaveTextFile),
            );
        }
        for file in [kinds::HDFS_FILE, kinds::LOCAL_FILE] {
            registry.add_conversion(file, f.channel, Convert::new(f, Conv::ReadTextFile));
        }

        // 1-to-1 mappings.
        registry.add_mapping(Arc::new(FnMapping(move |_plan: &RheemPlan, node: &OperatorNode| {
            if !supported(node.op.kind()) {
                return vec![];
            }
            let exec = PartitionedOperator::new(f, vec![node.op.clone()]);
            vec![Candidate::single(node.id, Arc::new(exec) as _)]
        })));
        // Operator chaining: a narrow chain fuses into one pipelined pass
        // (stage pipelining), and may end in one of the flavor's chain
        // anchors, whose map side then runs inside the same pass (fused
        // terminal aggregation: the narrow output is never materialized).
        registry.add_mapping(Arc::new(FnMapping(move |plan: &RheemPlan, node: &OperatorNode| {
            let narrow = |n: &OperatorNode| fused::fusable(&n.op);
            let chain = if narrow(node) {
                upstream_chain(plan, node, narrow)
            } else if f.chain_anchors.contains(&node.op.kind()) {
                upstream_chain(plan, node, |n| narrow(n) || n.id == node.id)
            } else {
                return vec![];
            };
            if chain.len() < 2 {
                return vec![];
            }
            let ops: Vec<LogicalOp> = chain.iter().map(|&id| plan.node(id).op.clone()).collect();
            vec![Candidate { covers: chain, exec: Arc::new(PartitionedOperator::new(f, ops)) as _ }]
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::api::RheemContext;
    use rheem_core::plan::PlanBuilder;
    use rheem_core::platform::{ids, Profiles};
    use rheem_core::udf::{FlatMapUdf, MapUdf, PredicateUdf};

    const FLAVORS: [&Flavor; 2] = [&Flavor::SPARK, &Flavor::FLINK];

    fn ctx(f: &'static Flavor) -> RheemContext {
        RheemContext::new().with_platform(&PartitionedPlatform(f))
    }

    fn sum_udf() -> ReduceUdf {
        ReduceUdf::new("sum", |a, b| {
            Value::pair(
                a.field(0).clone(),
                Value::from(a.field(1).as_int().unwrap() + b.field(1).as_int().unwrap()),
            )
        })
    }

    #[test]
    fn wordcount_on_each_flavor() {
        for f in FLAVORS {
            let mut b = PlanBuilder::new();
            let sink = b
                .collection(vec![Value::from("x y x"), Value::from("y x z")])
                .flat_map(FlatMapUdf::new("split", |v| {
                    v.as_str().unwrap().split_whitespace().map(Value::from).collect()
                }))
                .map(MapUdf::new("pair", |w| Value::pair(w.clone(), Value::from(1))))
                .reduce_by_key(KeyUdf::field(0), sum_udf())
                .collect();
            let plan = b.build().unwrap();
            let result = ctx(f).execute(&plan).unwrap();
            let data = result.sink(sink).unwrap();
            assert_eq!(data.len(), 3);
            let x = data.iter().find(|v| v.field(0).as_str() == Some("x")).unwrap();
            assert_eq!(x.field(1).as_int(), Some(3));
            // Engine overhead shows up in virtual time (startup + stages).
            assert!(result.metrics.virtual_ms > 1000.0, "{}", result.metrics.virtual_ms);
        }
    }

    #[test]
    fn join_sort_and_pagerank_on_each_flavor() {
        for f in FLAVORS {
            let mut b = PlanBuilder::new();
            let pairs = |n: i64, off: i64| -> Vec<Value> {
                (0..n).map(|i| Value::pair(Value::from(i % 5), Value::from(off + i))).collect()
            };
            let join = b.collection(pairs(50, 0));
            let join = join.join(&b.collection(pairs(20, 100)), KeyUdf::field(0), KeyUdf::field(0));
            let join = join.collect();
            let sort = b
                .collection((0..500i64).rev().map(Value::from).collect::<Vec<_>>())
                .sort_by(KeyUdf::identity())
                .collect();
            let edges: Vec<Value> = (0..100i64)
                .map(|i| Value::pair(Value::from(i % 10), Value::from((i + 1) % 10)))
                .collect();
            let rank = b.collection(edges.clone()).page_rank(5, 0.85).collect();
            let result = ctx(f).execute(&b.build().unwrap()).unwrap();
            // 50 left rows × 4 matches each
            assert_eq!(result.sink(join).unwrap().len(), 200);
            let sorted = result.sink(sort).unwrap();
            assert_eq!(sorted.len(), 500);
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(result.sink(rank).unwrap().as_ref(), &kernels::page_rank(&edges, 5, 0.85));
        }
    }

    #[test]
    fn flink_chains_into_wide_anchors_spark_only_into_reduce_by() {
        // map -> filter -> map -> group_by: Flink anchors the chain at the
        // GroupBy; Spark fuses only the narrow run in front of it.
        let mut b = PlanBuilder::new();
        let sink = b
            .collection((0..200i64).map(Value::from).collect::<Vec<_>>())
            .map(MapUdf::new("inc", |v| Value::from(v.as_int().unwrap() + 1)))
            .filter(PredicateUdf::new("even", |v| v.as_int().unwrap() % 2 == 0))
            .map(MapUdf::new("mod", |v| {
                Value::pair(Value::from(v.as_int().unwrap() % 3), v.clone())
            }))
            .group_by(KeyUdf::field(0))
            .collect();
        let plan = b.build().unwrap();
        for (f, covers) in [(&Flavor::SPARK, 1), (&Flavor::FLINK, 4)] {
            let c = ctx(f);
            let (opt, _) = c.compile(&plan).unwrap();
            assert_eq!(opt.candidates[opt.choice[4]].covers.len(), covers, "{}", f.name);
            let groups = c.execute(&plan).unwrap().sink(sink).unwrap().len();
            assert_eq!(groups, 3, "{}", f.name);
        }
    }

    #[test]
    fn cache_rejects_over_memory() {
        let mut profiles = Profiles::bare();
        profiles.get_mut(ids::SPARK).mem_mb = 0.0001;
        let mut ecx = ExecCtx::new(&profiles, 0);
        let parts = ChannelData::Partitions(Arc::new(vec![Arc::new(
            (0..10_000i64).map(Value::from).collect::<Vec<_>>(),
        )]));
        let cache = Convert::new(&Flavor::SPARK, Conv::Cache);
        assert!(cache.execute(&mut ecx, &[parts], &BroadcastCtx::new()).is_err());
    }

    #[test]
    fn collect_and_parallelize_roundtrip() {
        let profiles = Profiles::paper_testbed();
        let mut ecx = ExecCtx::new(&profiles, 0);
        for f in FLAVORS {
            let coll = ChannelData::Collection(Arc::new((0..1000i64).map(Value::from).collect()));
            let bc = BroadcastCtx::new();
            let ds = Convert::new(f, Conv::Parallelize).execute(&mut ecx, &[coll], &bc).unwrap();
            assert_eq!(ds.cardinality(), Some(1000));
            let back = Convert::new(f, Conv::Collect).execute(&mut ecx, &[ds], &bc).unwrap();
            assert_eq!(back.flatten().unwrap().len(), 1000);
        }
    }

    #[test]
    fn columnar_right_input_lands_one_row_partition_per_batch() {
        let profiles = Profiles::paper_testbed();
        let left: Vec<Value> =
            (0..4i64).map(|i| Value::pair(Value::from(i), Value::from(i))).collect();
        let right: Vec<Value> =
            (0..6i64).map(|i| Value::pair(Value::from(i), Value::from(i))).collect();
        let cols = batch::Batch::from_values;
        let right_parts =
            ChannelData::BatchParts(Arc::new(vec![cols(&right[..2]), cols(&right[2..])]));
        for f in FLAVORS {
            let op = PartitionedOperator::new(f, vec![LogicalOp::Cartesian]);
            let got = op.input_partitions(&right_parts, 8).unwrap();
            assert_eq!(got.iter().map(|p| p.len()).collect::<Vec<_>>(), vec![2, 4]);
            let mut ecx = ExecCtx::new(&profiles, 0);
            let inputs = [ChannelData::Collection(Arc::new(left.clone())), right_parts.clone()];
            let out = op.execute(&mut ecx, &inputs, &BroadcastCtx::new()).unwrap();
            assert_eq!(out.cardinality(), Some(24), "{}", f.name);
        }
    }
}
