//! Plan enumeration with the Join/Prune algebra and lossless pruning (§4.1).
//!
//! Partial plans grow along a topological order of the Rheem plan. After
//! each step, partials are grouped by their *boundary signature* — the
//! execution alternatives of all operators that can still influence future
//! costs (open producers awaiting data-movement settlement, pre-covered
//! downstream operators, and the set of started platforms) — and only the
//! cheapest partial per group survives. Because everything that affects the
//! cost of any completion is part of the signature, the pruning is lossless:
//! the optimal execution plan is never discarded.
//!
//! Data movement is costed exactly: once the last consumer of a producer has
//! chosen its alternative, the minimal conversion tree for that producer is
//! solved over the channel conversion graph (honouring channel reusability)
//! and charged, scaled by loop-iteration factors.
//! Many partials share the choices that settlement reads, so its cost is
//! memoized for the run (see `MovementMemo`).

use std::collections::HashMap;

use super::{OptimizedPlan, Optimizer};
use crate::builtin::CONTROL;
use crate::cardinality::Estimates;
use crate::channel::ChannelKind;
use crate::cost::Interval;
use crate::error::{Result, RheemError};
use crate::mapping::Candidate;
use crate::movement::{check_fanout, ConversionGraph};
use crate::plan::{OperatorId, RheemPlan};
use crate::platform::PlatformId;

const UNSET: u32 = u32::MAX;

/// Most platforms one enumeration tells apart: a partial records its
/// started platforms in a `u32` bitmask.
const MAX_PLATFORMS: usize = 32;

/// Statistics from one enumeration run (pruning ablation, §4.1's "kn plans"
/// discussion).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnumerationStats {
    /// Partial plans materialized over the whole run.
    pub partials_created: usize,
    /// Partials discarded by signature pruning.
    pub partials_pruned: usize,
    /// Candidates considered (size of the inflated plan).
    pub candidates: usize,
    /// Conversion-tree solves. Data-movement costs are memoized within one
    /// enumeration, so this counts distinct settlements, not partials.
    pub movement_solves: usize,
}

/// A consumer edge of some producer operator.
#[derive(Clone, Copy, Debug)]
struct ConsumerEdge {
    op: OperatorId,
    /// `Some(slot)` for a regular input, `None` for a broadcast edge.
    slot: Option<usize>,
}

/// The inflated plan: every alternative for every operator, annotated with
/// time estimates (Fig. 6).
struct Inflated {
    estimates: Estimates,
    topo: Vec<OperatorId>,
    pos: Vec<usize>,
    cands: Vec<Candidate>,
    /// candidate indices grouped by head (covers[0]).
    by_head: Vec<Vec<usize>>,
    /// scalar virtual-ms estimate per candidate (iteration-scaled).
    time_ms: Vec<f64>,
    /// interval estimate per candidate.
    time_iv: Vec<Interval>,
    /// distinct platforms (bitmask order), driver excluded.
    platforms: Vec<PlatformId>,
    /// per producer: consumer edges.
    consumers: Vec<Vec<ConsumerEdge>>,
    /// per topo step: producers whose movement becomes payable.
    pay_at: Vec<Vec<OperatorId>>,
}

/// Data-movement costs memoized for one enumeration.
///
/// Settling producer `p` reads only `p`'s chosen candidate and the chosen
/// candidates at the far end of each of `p`'s consumer edges; cardinality,
/// bytes, iteration factors, profiles and the cost model are fixed for the
/// run. Keying on exactly those choices therefore returns what a fresh
/// solve would, infeasible (`None`) results included: the memo is
/// lossless. Edge weights depend only on `p`'s cardinality and bytes, so
/// they are computed once per producer.
struct MovementMemo<'g> {
    graph: &'g ConversionGraph,
    /// `[p, choice[p], choice[consumer] for each edge of p]` → cost.
    costs: HashMap<Vec<u32>, Option<f64>>,
    /// Conversion edge weights per producer, filled on first use.
    weights: Vec<Option<Vec<f64>>>,
    /// Reused buffer for building lookup keys.
    key: Vec<u32>,
    /// Distinct tree solves.
    solves: usize,
}

impl<'g> MovementMemo<'g> {
    fn new(graph: &'g ConversionGraph, n: usize) -> Self {
        Self { graph, costs: HashMap::new(), weights: vec![None; n], key: Vec::new(), solves: 0 }
    }
}

#[derive(Clone)]
struct Partial {
    choice: Vec<u32>,
    cost: f64,
    mask: u32,
}

fn build_inflated(opt: &Optimizer<'_>, plan: &RheemPlan, estimates: Estimates) -> Result<Inflated> {
    let n = plan.len();
    let topo = plan.topological_order()?;
    let mut pos = vec![0usize; n];
    for (k, &id) in topo.iter().enumerate() {
        pos[id.index()] = k;
    }

    // --- inflation: gather candidates -----------------------------------
    let mut cands: Vec<Candidate> = Vec::new();
    let mut by_head = vec![Vec::new(); n];
    for node in plan.operators() {
        let mut alts = opt.registry.candidates_for(plan, node);
        if let Some(forced) = opt.forced_platform {
            // Keep the driver's control/sink/source ops available.
            alts.retain(|c| {
                let p = c.exec.platform();
                p == forced || p == CONTROL
            });
        }
        if !opt.blacklist.is_empty() {
            // Failover: blacklisted platforms are out for the rest of the
            // job; the driver survives (it is the failover mechanism).
            alts.retain(|c| {
                let p = c.exec.platform();
                p == CONTROL || !opt.blacklist.contains(&p)
            });
        }
        if alts.is_empty() {
            return Err(Optimizer::err_no_candidates(plan, node.id));
        }
        for c in alts {
            let head = c.covers[0];
            by_head[head.index()].push(cands.len());
            cands.push(c);
        }
    }

    // --- cache-aware inflation -------------------------------------------
    // For every subplan-fingerprint hit, add a zero-input CachedSource
    // candidate covering the hit operator's whole input closure. It rides
    // through costing and enumeration like any other source-headed chain
    // candidate, so reuse is *chosen*, never forced: the replay cost (cache
    // read + conversion out of the collection channel) competes against
    // recomputation. Skipped under a forced platform — a driver-side replay
    // would bypass the pin.
    if let Some(cache) = opt.cache.as_ref().filter(|_| opt.forced_platform.is_none()) {
        // Overridden fingerprints pin progressive-replan boundaries to
        // their original identities, so a re-planned remainder still hits
        // entries published before the rewrite.
        let fps = crate::cache::plan_fingerprints_with(plan, &opt.fp_overrides);
        for node in plan.operators() {
            let i = node.id.index();
            let Some(fp) = fps[i] else { continue };
            // An in-memory collection source replays for free already.
            if matches!(node.op, crate::plan::LogicalOp::CollectionSource { .. }) {
                continue;
            }
            // Namespace-scoped: the tenant's own entries first, the shared
            // namespace (public datasets) only when the scope opts in.
            let hit = cache.lookup_in(opt.cache_ns, fp).or_else(|| {
                (opt.cache_shared_read && !opt.cache_ns.is_shared())
                    .then(|| cache.lookup(fp))
                    .flatten()
            });
            let Some(hit) = hit else { continue };
            // Transitive input closure of the hit operator (fingerprintable
            // ops only, so no loop edges and no cycles).
            let mut covered = vec![false; n];
            let mut stack = vec![node.id];
            while let Some(o) = stack.pop() {
                if covered[o.index()] {
                    continue;
                }
                covered[o.index()] = true;
                let nd = plan.node(o);
                stack.extend(nd.inputs.iter().copied());
                stack.extend(nd.broadcasts.iter().map(|(_, b)| *b));
            }
            // The closure must be closed: an interior operator feeding a
            // consumer outside it would leave that consumer unwired when
            // the whole closure collapses into one execution operator.
            let closed = plan.operators().iter().filter(|m| !covered[m.id.index()]).all(|m| {
                m.inputs
                    .iter()
                    .chain(m.broadcasts.iter().map(|(_, b)| b))
                    .all(|inp| !covered[inp.index()] || *inp == node.id)
            });
            if !closed {
                continue;
            }
            // Dataflow order; input-closedness makes covers[0] a source.
            let covers: Vec<OperatorId> =
                topo.iter().copied().filter(|o| covered[o.index()]).collect();
            debug_assert!(plan.node(covers[0]).inputs.is_empty());
            debug_assert_eq!(*covers.last().unwrap(), node.id);
            let exec = std::sync::Arc::new(crate::cache::CachedSource::new(hit, fp));
            by_head[covers[0].index()].push(cands.len());
            cands.push(Candidate { covers, exec });
        }
    }

    // --- platform bitmask order ------------------------------------------
    let mut platforms: Vec<PlatformId> = Vec::new();
    for c in &cands {
        let p = c.exec.platform();
        if p != CONTROL && !platforms.contains(&p) {
            platforms.push(p);
        }
    }
    if platforms.len() > MAX_PLATFORMS {
        return Err(RheemError::Optimizer(format!(
            "{} candidate platforms; the enumerator supports up to {MAX_PLATFORMS}",
            platforms.len()
        )));
    }

    // --- cost annotation --------------------------------------------------
    let mut time_ms = Vec::with_capacity(cands.len());
    let mut time_iv = Vec::with_capacity(cands.len());
    for c in &cands {
        let head = plan.node(c.covers[0]);
        let tail = c.output_op();
        let iter = estimates.iter_factor[tail.index()];
        let (lo_cards, hi_cards, conf, avg_bytes) = if head.inputs.is_empty() {
            // Source candidates: pass the estimated output cardinality of
            // every covered operator, in chain order — a composite
            // scan+filter then sees both the table size (covers[0]) and the
            // matched-row estimate (tail). See `ExecutionOperator::load`.
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut conf = 1.0f64;
            for &o in &c.covers {
                let e = estimates.out_card(o);
                lo.push(e.lo);
                hi.push(e.hi);
                conf = conf.min(e.conf);
            }
            (lo, hi, conf, estimates.avg_bytes[tail.index()])
        } else {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut conf = 1.0f64;
            let mut bytes = 0.0;
            for &inp in &head.inputs {
                let c = estimates.out_card(inp);
                lo.push(c.lo);
                hi.push(c.hi);
                conf = conf.min(c.conf);
                bytes += estimates.avg_bytes[inp.index()];
            }
            let bytes = bytes / head.inputs.len() as f64;
            (lo, hi, conf, bytes)
        };
        let profile = opt.profiles.get(c.exec.platform());
        // A NaN load (pathological calibration, e.g. a NaN UDF cost hint)
        // must lose to every finite alternative instead of poisoning the
        // interval algebra or panicking the enumerator.
        let sane = |t: f64| if t.is_nan() { f64::INFINITY } else { t };
        let t_lo = sane(c.exec.load(&lo_cards, avg_bytes, opt.model).to_ms(profile));
        let t_hi = sane(c.exec.load(&hi_cards, avg_bytes, opt.model).to_ms(profile));
        let (mut t_lo, mut t_hi) = if t_lo <= t_hi { (t_lo, t_hi) } else { (t_hi, t_lo) };
        // Loop bodies re-dispatch their stages every iteration: charge the
        // platform's stage-submission overhead per iteration (this is what
        // makes low-overhead engines win loop bodies — the paper's SGD
        // insight, Fig. 3(b)). Chains approximate stages.
        if iter > 1.0 && c.exec.platform() != CONTROL {
            t_lo += profile.stage_overhead_ms;
            t_hi += profile.stage_overhead_ms;
        }
        let iv = Interval::new(t_lo * iter, t_hi * iter, conf);
        time_iv.push(iv);
        time_ms.push(iv.geo_mean().max(0.0));
    }

    // --- consumer edges & movement pay steps ------------------------------
    let mut consumers: Vec<Vec<ConsumerEdge>> = vec![Vec::new(); n];
    for node in plan.operators() {
        for (slot, &inp) in node.inputs.iter().enumerate() {
            consumers[inp.index()].push(ConsumerEdge { op: node.id, slot: Some(slot) });
        }
        for (_, inp) in &node.broadcasts {
            consumers[inp.index()].push(ConsumerEdge { op: node.id, slot: None });
        }
    }
    let mut pay_at: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
    for node in plan.operators() {
        let i = node.id.index();
        if consumers[i].is_empty() {
            continue;
        }
        let step = consumers[i]
            .iter()
            .map(|e| pos[e.op.index()])
            .chain(std::iter::once(pos[i]))
            .max()
            .unwrap();
        pay_at[step].push(node.id);
    }

    Ok(Inflated {
        estimates,
        topo,
        pos,
        cands,
        by_head,
        time_ms,
        time_iv,
        platforms,
        consumers,
        pay_at,
    })
}

impl Inflated {
    fn platform_bit(&self, p: PlatformId) -> u32 {
        if p == CONTROL {
            return 0;
        }
        match self.platforms.iter().position(|&q| q == p) {
            Some(i) => 1 << i,
            None => 0,
        }
    }

    /// Settle the data-movement cost of producer `p` in a partial where all
    /// of `p`'s consumers have chosen alternatives. Returns `None` when no
    /// conversion tree exists (the partial is infeasible).
    fn movement_cost(
        &self,
        opt: &Optimizer<'_>,
        plan: &RheemPlan,
        memo: &mut MovementMemo<'_>,
        partial: &Partial,
        p: OperatorId,
    ) -> Result<Option<f64>> {
        let cp = partial.choice[p.index()];
        debug_assert_ne!(cp, UNSET);
        if self.cands[cp as usize].output_op() != p {
            // Chain-internal producer: its consumers are inside the same
            // execution operator; no movement.
            return Ok(Some(0.0));
        }
        memo.key.clear();
        memo.key.extend([p.0, cp]);
        memo.key.extend(self.consumers[p.index()].iter().map(|e| partial.choice[e.op.index()]));
        if let Some(&cost) = memo.costs.get(memo.key.as_slice()) {
            return Ok(cost);
        }
        let cost = self.solve_movement(opt, plan, memo, partial, p)?;
        memo.costs.insert(memo.key.clone(), cost);
        Ok(cost)
    }

    /// [`Inflated::movement_cost`] without the memo.
    fn solve_movement(
        &self,
        opt: &Optimizer<'_>,
        plan: &RheemPlan,
        memo: &mut MovementMemo<'_>,
        partial: &Partial,
        p: OperatorId,
    ) -> Result<Option<f64>> {
        let cp = partial.choice[p.index()];
        let cand = &self.cands[cp as usize];
        let out_kind = cand.exec.output_kind();
        let producer_platform = cand.exec.platform();
        let mut consumer_kinds: Vec<Vec<ChannelKind>> = Vec::new();
        let mut stage_overhead = 0.0;
        let mut iter_mult = self.estimates.iter_factor[p.index()];
        for edge in &self.consumers[p.index()] {
            let cc = partial.choice[edge.op.index()];
            debug_assert_ne!(cc, UNSET, "consumer not yet assigned at pay step");
            if cc == cp {
                continue; // internal to the same candidate
            }
            let ccand = &self.cands[cc as usize];
            let kinds = match edge.slot {
                Some(slot) => {
                    debug_assert_eq!(
                        ccand.covers[0], edge.op,
                        "regular edges must enter a chain at its head"
                    );
                    ccand.exec.accepted_inputs(slot)
                }
                None => ccand.exec.broadcast_input_kinds(),
            };
            let consumer_platform = ccand.exec.platform();
            if consumer_platform != producer_platform
                && consumer_platform != CONTROL
                && producer_platform != CONTROL
            {
                // Crossing platforms fragments both sides' stages: the
                // consumer's platform submits a new stage, and the
                // producer's platform must be re-entered later (it pays
                // again when the flow returns — which it always does inside
                // loops, and usually does around joins).
                stage_overhead += opt.profiles.get(consumer_platform).stage_overhead_ms
                    + opt.profiles.get(producer_platform).stage_overhead_ms;
            }
            iter_mult = iter_mult.max(self.estimates.iter_factor[edge.op.index()]);
            consumer_kinds.push(kinds);
        }
        if consumer_kinds.is_empty() {
            return Ok(Some(0.0));
        }
        check_fanout(consumer_kinds.len(), &plan.node(p).label())?;
        let card = self.estimates.out_card(p).geo_mean().max(0.0);
        let avg_bytes = self.estimates.avg_bytes[p.index()];
        let graph = memo.graph;
        let weights = memo.weights[p.index()]
            .get_or_insert_with(|| graph.edge_weights(card, avg_bytes, opt.profiles, opt.model));
        memo.solves += 1;
        let Some(tree_ms) = graph.tree_cost(out_kind, &consumer_kinds, weights) else {
            return Ok(None);
        };
        // Every external edge materializes an intermediate channel — a small
        // per-quantum handoff cost that makes operator fusion (chains)
        // strictly cheaper than equivalent sequences of single operators.
        let handoff_alpha = opt.model.get("core.handoff.alpha", 25.0);
        let producer_profile = opt.profiles.get(producer_platform);
        let handoff_ms =
            consumer_kinds.len() as f64 * card * handoff_alpha / producer_profile.cycles_per_ms;
        Ok(Some((tree_ms + stage_overhead + handoff_ms) * iter_mult))
    }

    /// Boundary signature of a partial after topo step `k` (inclusive).
    fn signature(&self, partial: &Partial, k: usize) -> Vec<(u32, u32)> {
        let mut sig: Vec<(u32, u32)> = Vec::new();
        for (i, &c) in partial.choice.iter().enumerate() {
            if c == UNSET {
                continue;
            }
            let processed = self.pos[i] <= k;
            let open_producer = processed && {
                // movement not yet settled?
                let id = OperatorId(i as u32);
                !self.consumers[i].is_empty()
                    && self.consumers[i]
                        .iter()
                        .map(|e| self.pos[e.op.index()])
                        .chain(std::iter::once(self.pos[i]))
                        .max()
                        .unwrap()
                        > k
                    && self.cands[c as usize].output_op() == id
            };
            let pre_covered = !processed;
            if open_producer || pre_covered {
                sig.push((i as u32, c));
            }
        }
        sig.push((u32::MAX, partial.mask));
        sig
    }
}

pub(super) fn enumerate(
    opt: &Optimizer<'_>,
    plan: &RheemPlan,
    estimates: Estimates,
    graph: &ConversionGraph,
) -> Result<OptimizedPlan> {
    enumerate_with(opt, plan, estimates, graph, true)
}

pub(super) fn enumerate_with(
    opt: &Optimizer<'_>,
    plan: &RheemPlan,
    estimates: Estimates,
    graph: &ConversionGraph,
    prune: bool,
) -> Result<OptimizedPlan> {
    let inf = build_inflated(opt, plan, estimates)?;
    let n = plan.len();
    let mut stats = EnumerationStats { candidates: inf.cands.len(), ..Default::default() };

    let mut memo = MovementMemo::new(graph, n);
    let mut frontier: Vec<Partial> = vec![Partial { choice: vec![UNSET; n], cost: 0.0, mask: 0 }];

    for (k, &op) in inf.topo.iter().enumerate() {
        let mut next: Vec<Partial> = Vec::new();
        for partial in frontier.drain(..) {
            if partial.choice[op.index()] != UNSET {
                // Already covered by an earlier chain choice.
                next.push(partial);
                continue;
            }
            for &ci in &inf.by_head[op.index()] {
                let cand = &inf.cands[ci];
                // All covered ops must be free in this partial.
                if cand.covers.iter().any(|o| partial.choice[o.index()] != UNSET) {
                    continue;
                }
                let mut p2 = partial.clone();
                for o in &cand.covers {
                    p2.choice[o.index()] = ci as u32;
                }
                p2.cost += inf.time_ms[ci];
                let bit = inf.platform_bit(cand.exec.platform());
                if bit != 0 && p2.mask & bit == 0 {
                    p2.mask |= bit;
                    p2.cost += opt.profiles.get(cand.exec.platform()).startup_ms;
                }
                stats.partials_created += 1;
                next.push(p2);
            }
        }
        if next.is_empty() {
            return Err(RheemError::Optimizer(format!(
                "no feasible execution alternative for {} (conflicting chain choices?)",
                plan.node(op).label()
            )));
        }

        // Settle data movement that became payable at this step.
        let mut settled: Vec<Partial> = Vec::with_capacity(next.len());
        'partials: for mut partial in next {
            for &p in &inf.pay_at[k] {
                match inf.movement_cost(opt, plan, &mut memo, &partial, p)? {
                    Some(ms) => partial.cost += ms,
                    None => continue 'partials, // unreachable channels: infeasible
                }
            }
            settled.push(partial);
        }
        if settled.is_empty() {
            return Err(RheemError::Optimizer(format!(
                "no conversion path exists for the outputs settled at {}",
                plan.node(op).label()
            )));
        }

        // Lossless pruning by boundary signature.
        if prune {
            let mut best: HashMap<Vec<(u32, u32)>, Partial> = HashMap::new();
            for partial in settled {
                let sig = inf.signature(&partial, k);
                match best.get_mut(&sig) {
                    // Keep the winner under a *total* order (total_cmp sorts
                    // NaN costs last instead of panicking) with the choice
                    // vector as tie-break, so equal-cost partials survive
                    // pruning identically regardless of arrival order.
                    Some(cur) => {
                        stats.partials_pruned += 1;
                        if partial
                            .cost
                            .total_cmp(&cur.cost)
                            .then_with(|| partial.choice.cmp(&cur.choice))
                            .is_lt()
                        {
                            *cur = partial;
                        }
                    }
                    None => {
                        best.insert(sig, partial);
                    }
                }
            }
            frontier = best.into_values().collect();
        } else {
            frontier = settled;
        }
    }

    stats.movement_solves = memo.solves;

    // The frontier is rebuilt from a HashMap, so its order is unstable;
    // break cost ties on the choice vector (which identifies a partial
    // uniquely) to make the selected plan independent of iteration order,
    // and use total_cmp so a NaN-costed alternative loses instead of
    // panicking the comparator.
    let best = frontier
        .into_iter()
        .min_by(|a, b| a.cost.total_cmp(&b.cost).then_with(|| a.choice.cmp(&b.choice)))
        .ok_or_else(|| RheemError::Optimizer("enumeration produced no plan".into()))?;

    // Assemble the optimized plan.
    let choice: Vec<usize> = best.choice.iter().map(|&c| c as usize).collect();
    let mut platforms: Vec<PlatformId> = Vec::new();
    let mut est_interval = Interval::point(0.0);
    let mut counted: Vec<bool> = vec![false; inf.cands.len()];
    for &c in &choice {
        if !counted[c] {
            counted[c] = true;
            est_interval = est_interval.add(&inf.time_iv[c]);
            let p = inf.cands[c].exec.platform();
            if p != CONTROL && !platforms.contains(&p) {
                platforms.push(p);
            }
        }
    }

    Ok(OptimizedPlan {
        candidates: inf.cands,
        choice,
        estimates: inf.estimates,
        est_ms: best.cost,
        est_interval,
        platforms,
        stats,
    })
}
