//! Executable plans: the optimizer's choices wired into a concrete operator
//! graph with conversion operators inserted, split into *stages* (§4.2).
//!
//! A stage is a maximal platform-homogeneous run of operators that the
//! executor dispatches as one unit to a platform driver; loop heads get
//! their own stage because the executor must hold execution control at the
//! loop condition (Fig. 7's Stage 3).

use std::collections::HashMap;
use std::sync::Arc;

use crate::builtin::CONTROL;
use crate::channel::ChannelKind;
use crate::cost::CostModel;
use crate::error::{Result, RheemError};
use crate::exec::ExecutionOperator;
use crate::movement::{check_fanout, ConvNode, ConversionGraph};
use crate::optimizer::OptimizedPlan;
use crate::plan::{LogicalOp, OperatorId, RheemPlan};
use crate::platform::{PlatformId, Profiles};

/// Estimates with confidence below this get an optimization checkpoint
/// (stage seal) after them (§4.4).
pub const CHECKPOINT_CONF: f64 = 0.75;
/// Estimates with relative interval width above this get an optimization
/// checkpoint after them.
pub const CHECKPOINT_WIDTH: f64 = 1.0;

/// A vertex of the executable graph.
pub struct ExecNode {
    /// Node id (index into [`ExecPlan::nodes`]).
    pub id: usize,
    /// The execution operator.
    pub exec: Arc<dyn ExecutionOperator>,
    /// Input providers, in slot order (loop heads: `[initial, feedback]`).
    pub inputs: Vec<usize>,
    /// Named broadcast providers.
    pub broadcasts: Vec<(Arc<str>, usize)>,
    /// Logical operators this node covers (empty for conversion operators).
    pub logical: Vec<OperatorId>,
    /// Innermost loop whose body this node belongs to.
    pub loop_of: Option<OperatorId>,
    /// Stage id.
    pub stage: usize,
}

impl ExecNode {
    /// The logical operator whose output this node produces, if any.
    pub fn tail(&self) -> Option<OperatorId> {
        self.logical.last().copied()
    }

    /// Whether this node is a loop head (RepeatLoop / DoWhile relay).
    pub fn is_loop_head(&self, plan: &RheemPlan) -> bool {
        self.tail().map(|t| plan.node(t).op.kind().is_loop_head()).unwrap_or(false)
    }
}

/// A stage: platform-homogeneous run of nodes.
#[derive(Debug)]
pub struct Stage {
    /// Stage id.
    pub id: usize,
    /// Platform all nodes run on.
    pub platform: PlatformId,
    /// Node ids in topological order.
    pub nodes: Vec<usize>,
    /// Loop context shared by the stage's nodes.
    pub loop_of: Option<OperatorId>,
}

/// The executable plan.
pub struct ExecPlan {
    /// All nodes; indices are node ids. Topologically ordered (feedback
    /// edges excepted).
    pub nodes: Vec<ExecNode>,
    /// Stage partition.
    pub stages: Vec<Stage>,
    /// For each logical collection sink: its node.
    pub sinks: Vec<(OperatorId, usize)>,
    /// Node providing each logical operator's output (tails only).
    pub node_of_logical: HashMap<OperatorId, usize>,
}

struct Builder<'a> {
    plan: &'a RheemPlan,
    nodes: Vec<ExecNode>,
    /// candidate index -> node id
    cand_node: HashMap<usize, usize>,
}

impl<'a> Builder<'a> {
    fn effective_loop(&self, producer: OperatorId) -> Option<OperatorId> {
        let node = self.plan.node(producer);
        if node.op.kind().is_loop_head() {
            // A loop head's output changes every iteration: conversions of
            // it must re-run inside the loop body.
            Some(producer)
        } else {
            node.loop_of
        }
    }

    fn spawn_conversions(
        &mut self,
        parent_node: usize,
        tree: &ConvNode,
        loop_of: Option<OperatorId>,
        providers: &mut Vec<(usize, usize)>, // (consumer index, provider node)
    ) {
        for &c in &tree.deliver {
            providers.push((c, parent_node));
        }
        for (conv, child) in &tree.children {
            let id = self.nodes.len();
            self.nodes.push(ExecNode {
                id,
                exec: Arc::clone(&conv.op),
                inputs: vec![parent_node],
                broadcasts: Vec::new(),
                logical: Vec::new(),
                loop_of,
                stage: usize::MAX,
            });
            self.spawn_conversions(id, child, loop_of, providers);
        }
    }
}

/// Build an executable plan from the optimizer's choices, solving the final
/// minimal conversion trees and partitioning into stages.
pub fn build_exec_plan(
    plan: &RheemPlan,
    opt: &OptimizedPlan,
    registry: &crate::registry::Registry,
    profiles: &Profiles,
    model: &CostModel,
) -> Result<ExecPlan> {
    let graph = ConversionGraph::from_registry(registry);
    let mut b = Builder { plan, nodes: Vec::new(), cand_node: HashMap::new() };

    // 1. One node per distinct chosen candidate, in topological order of the
    //    candidates' head operators so providers exist before consumers...
    //    (conversion wiring below tolerates any order; stage sorting fixes
    //    the final order).
    let topo = plan.topological_order()?;
    for &op in &topo {
        let ci = opt.choice[op.index()];
        if b.cand_node.contains_key(&ci) {
            continue;
        }
        let cand = &opt.candidates[ci];
        if cand.covers[0] != op {
            continue; // node is created when the chain's head is reached
        }
        let id = b.nodes.len();
        let tail = cand.output_op();
        let head = plan.node(cand.covers[0]);
        let n_inputs = head.inputs.len();
        b.nodes.push(ExecNode {
            id,
            exec: Arc::clone(&cand.exec),
            inputs: vec![usize::MAX; n_inputs],
            broadcasts: Vec::new(),
            logical: cand.covers.clone(),
            loop_of: plan.node(tail).loop_of,
            stage: usize::MAX,
        });
        b.cand_node.insert(ci, id);
    }

    // 2. Conversion trees per producer with external consumers; collect the
    //    provider node for every consumer edge.
    //    Consumer edge order must match the kind-set order passed to the
    //    movement solver.
    let consumers = plan.consumers();
    for node in plan.operators() {
        let p = node.id;
        let cp = opt.choice[p.index()];
        let cand = &opt.candidates[cp];
        if cand.output_op() != p {
            continue; // chain-internal
        }
        // Gather external consumer edges in deterministic order.
        struct Edge {
            consumer_cand: usize,
            /// consumer node input slot for regular edges
            slot: Option<usize>,
            broadcast: Option<Arc<str>>,
            kinds: Vec<ChannelKind>,
        }
        let mut edges: Vec<Edge> = Vec::new();
        for &c_op in &consumers[p.index()] {
            let cnode = plan.node(c_op);
            let cc = opt.choice[c_op.index()];
            if cc == cp {
                continue;
            }
            let ccand = &opt.candidates[cc];
            // regular input slots
            for (slot, &inp) in cnode.inputs.iter().enumerate() {
                if inp == p {
                    edges.push(Edge {
                        consumer_cand: cc,
                        slot: Some(slot),
                        broadcast: None,
                        kinds: ccand.exec.accepted_inputs(slot),
                    });
                }
            }
            for (name, inp) in &cnode.broadcasts {
                if *inp == p {
                    edges.push(Edge {
                        consumer_cand: cc,
                        slot: None,
                        broadcast: Some(Arc::clone(name)),
                        kinds: ccand.exec.broadcast_input_kinds(),
                    });
                }
            }
        }
        if edges.is_empty() {
            continue;
        }

        // Group edges by conversion region: a producer whose value varies
        // per iteration of loop L (a body operator or the loop head itself)
        // must re-convert inside L for consumers within L, but convert the
        // *final* value once, after the loop, for outside consumers.
        let producer_dynamic_loop = b
            .effective_loop(p)
            .filter(|_l| plan.node(p).op.kind().is_loop_head() || plan.node(p).loop_of.is_some());
        let in_loop = |mut ctx: Option<OperatorId>, l: OperatorId| -> bool {
            let mut guard = 0;
            while let Some(c) = ctx {
                if c == l {
                    return true;
                }
                ctx = plan.node(c).loop_of;
                guard += 1;
                if guard > 64 {
                    break;
                }
            }
            false
        };
        let region_of_edge = |consumer_cand: usize| -> Option<OperatorId> {
            let tail = opt.candidates[consumer_cand].output_op();
            let consumer_ctx = plan.node(tail).loop_of.or_else(|| {
                // Loop-head consumers (the feedback edge) convert inside the
                // loop body: the transfer happens every iteration.
                plan.node(tail).op.kind().is_loop_head().then_some(tail)
            });
            match producer_dynamic_loop {
                Some(l) if consumer_ctx.map(|c| in_loop(Some(c), l)).unwrap_or(false) => Some(l),
                _ => plan.node(p).loop_of,
            }
        };

        let mut groups: HashMap<Option<OperatorId>, Vec<usize>> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            groups.entry(region_of_edge(e.consumer_cand)).or_default().push(i);
        }
        let mut group_list: Vec<(Option<OperatorId>, Vec<usize>)> = groups.into_iter().collect();
        group_list.sort_by_key(|(r, _)| r.map(|o| o.0));

        let card = opt.estimates.out_card(p).geo_mean().max(0.0);
        let avg_bytes = opt.estimates.avg_bytes[p.index()];
        let out_kind = cand.exec.output_kind();
        let producer_node = b.cand_node[&cp];
        for (region, edge_idxs) in group_list {
            let kind_sets: Vec<Vec<ChannelKind>> =
                edge_idxs.iter().map(|&i| edges[i].kinds.clone()).collect();
            check_fanout(kind_sets.len(), &plan.node(p).label())?;
            let tree = graph
                .best_tree(out_kind, &kind_sets, card, avg_bytes, profiles, model)
                .ok_or_else(|| {
                    RheemError::Optimizer(format!(
                        "no conversion path from {} for {}",
                        out_kind,
                        plan.node(p).label()
                    ))
                })?;
            let mut providers: Vec<(usize, usize)> = Vec::new();
            b.spawn_conversions(producer_node, &tree.tree, region, &mut providers);
            // Wire each consumer edge to its provider.
            for (local_idx, provider) in providers {
                let e = &edges[edge_idxs[local_idx]];
                let cnode_id = b.cand_node[&e.consumer_cand];
                match (&e.slot, &e.broadcast) {
                    (Some(slot), _) => b.nodes[cnode_id].inputs[*slot] = provider,
                    (None, Some(name)) => {
                        b.nodes[cnode_id].broadcasts.push((Arc::clone(name), provider))
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    // Verify wiring is complete.
    for n in &b.nodes {
        for (slot, &i) in n.inputs.iter().enumerate() {
            if i == usize::MAX {
                return Err(RheemError::Optimizer(format!(
                    "input slot {slot} of {} left unwired",
                    n.exec.name()
                )));
            }
        }
    }

    // 3. Topologically sort nodes (ignore loop feedback edges: slot 1 of
    //    loop-head nodes).
    let n = b.nodes.len();
    let mut indeg = vec![0usize; n];
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in &b.nodes {
        let is_head = node.is_loop_head(plan);
        for (slot, &i) in node.inputs.iter().enumerate() {
            if is_head && slot == 1 {
                continue;
            }
            indeg[node.id] += 1;
            fwd[i].push(node.id);
        }
        for (_, i) in &node.broadcasts {
            indeg[node.id] += 1;
            fwd[*i].push(node.id);
        }
    }
    // Platform-affine topological order: among ready nodes, prefer one on
    // the same platform (and loop context) as the previously emitted node —
    // this keeps stages contiguous so same-platform work shares one
    // submission instead of being fragmented by interleaved driver nodes.
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(n);
    let mut last: Option<usize> = None;
    while !ready.is_empty() {
        let pick = last
            .and_then(|prev| {
                ready.iter().position(|&i| {
                    b.nodes[i].exec.platform() == b.nodes[prev].exec.platform()
                        && b.nodes[i].loop_of == b.nodes[prev].loop_of
                })
            })
            .unwrap_or(0);
        let i = ready.remove(pick);
        order.push(i);
        last = Some(i);
        for &j in &fwd[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                let pos = ready.binary_search(&j).unwrap_or_else(|e| e);
                ready.insert(pos, j);
            }
        }
    }
    if order.len() != n {
        return Err(RheemError::Optimizer("execution graph contains an unexpected cycle".into()));
    }

    // 4. Stage partition: consecutive topo runs grouped by (platform, loop
    //    context); loop heads isolated. Additionally, a stage is *sealed*
    //    after any operator whose cardinality estimate is uncertain — this
    //    places the §4.4 optimization checkpoints: the data is materialized
    //    at the boundary and the executor can compare measured vs estimated
    //    cardinalities there.
    let uncertain: Vec<bool> = b
        .nodes
        .iter()
        .map(|n| {
            n.tail()
                .map(|t| {
                    let est = opt.estimates.out_card(t);
                    est.conf < CHECKPOINT_CONF || est.rel_width() > CHECKPOINT_WIDTH
                })
                .unwrap_or(false)
        })
        .collect();
    let mut stages: Vec<Stage> = Vec::new();
    let mut sealed = true;
    for &nid in &order {
        let platform = b.nodes[nid].exec.platform();
        let loop_of = b.nodes[nid].loop_of;
        let head = b.nodes[nid].is_loop_head(plan);
        let open = if sealed {
            None
        } else {
            stages.last_mut().filter(|s| {
                !head
                    && s.platform == platform
                    && s.loop_of == loop_of
                    && !b.nodes[s.nodes[s.nodes.len() - 1]].is_loop_head(plan)
            })
        };
        match open {
            Some(s) => {
                b.nodes[nid].stage = s.id;
                s.nodes.push(nid);
            }
            None => {
                let id = stages.len();
                b.nodes[nid].stage = id;
                stages.push(Stage { id, platform, nodes: vec![nid], loop_of });
            }
        }
        sealed = head || uncertain[nid];
    }

    // 5. Sink and logical-output maps.
    let mut sinks = Vec::new();
    let mut node_of_logical = HashMap::new();
    for node in &b.nodes {
        if let Some(tail) = node.tail() {
            node_of_logical.insert(tail, node.id);
            if matches!(plan.node(tail).op, LogicalOp::CollectionSink) {
                sinks.push((tail, node.id));
            }
        }
    }

    Ok(ExecPlan { nodes: b.nodes, stages, sinks, node_of_logical })
}

impl ExecPlan {
    /// Nodes in execution (stage) order.
    pub fn topo_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.stages.iter().flat_map(|s| s.nodes.iter().copied())
    }

    /// Distinct platforms used (driver excluded).
    pub fn platforms(&self) -> Vec<PlatformId> {
        let mut v = Vec::new();
        for s in &self.stages {
            if s.platform != CONTROL && !v.contains(&s.platform) {
                v.push(s.platform);
            }
        }
        v
    }

    /// Render a compact human-readable description (for examples/tests).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.stages {
            let _ = writeln!(
                out,
                "stage {} [{}]{}:",
                s.id,
                s.platform,
                s.loop_of.map(|l| format!(" (loop {l:?})")).unwrap_or_default()
            );
            for &nid in &s.nodes {
                let n = &self.nodes[nid];
                let _ = writeln!(
                    out,
                    "  {}#{} inputs={:?}{}",
                    n.exec.name(),
                    nid,
                    n.inputs,
                    if n.broadcasts.is_empty() {
                        String::new()
                    } else {
                        format!(
                            " broadcasts={:?}",
                            n.broadcasts
                                .iter()
                                .map(|(n, p)| (n.to_string(), *p))
                                .collect::<Vec<_>>()
                        )
                    }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RheemContext;
    use crate::channel::{kinds, ChannelData};
    use crate::cost::Load;
    use crate::exec::{ExecCtx, ExecutionOperator};
    use crate::mapping::{Candidate, FnMapping};
    use crate::plan::{OpKind, PlanBuilder};
    use crate::udf::{BroadcastCtx, MapUdf, PredicateUdf};
    use crate::value::Value;
    use std::sync::Arc;

    struct TestOp(&'static str, PlatformId);
    impl ExecutionOperator for TestOp {
        fn name(&self) -> &str {
            self.0
        }
        fn platform(&self) -> PlatformId {
            self.1
        }
        fn accepted_inputs(&self, _s: usize) -> Vec<crate::channel::ChannelKind> {
            vec![kinds::COLLECTION]
        }
        fn output_kind(&self) -> crate::channel::ChannelKind {
            kinds::COLLECTION
        }
        fn load(&self, _i: &[f64], _b: f64, _m: &CostModel) -> Load {
            Load::default()
        }
        fn execute(
            &self,
            _ctx: &mut ExecCtx<'_>,
            inputs: &[ChannelData],
            _bc: &BroadcastCtx,
        ) -> crate::error::Result<ChannelData> {
            Ok(inputs[0].clone())
        }
    }

    fn test_ctx() -> RheemContext {
        let mut ctx = RheemContext::new();
        ctx.registry_mut().add_mapping(Arc::new(FnMapping(
            |_p: &RheemPlan, n: &crate::plan::OperatorNode| match n.op.kind() {
                OpKind::Map => {
                    vec![Candidate::single(n.id, Arc::new(TestOp("TMap", PlatformId("tp"))) as _)]
                }
                OpKind::Filter => {
                    vec![Candidate::single(
                        n.id,
                        Arc::new(TestOp("TFilter", PlatformId("tp"))) as _,
                    )]
                }
                _ => vec![],
            },
        )));
        ctx
    }

    #[test]
    fn stages_are_platform_homogeneous() {
        let mut b = PlanBuilder::new();
        b.collection(vec![Value::from(1)])
            .map(MapUdf::new("a", |v| v.clone()))
            .map(MapUdf::new("b", |v| v.clone()))
            .collect();
        let plan = b.build().unwrap();
        let (_, eplan) = test_ctx().compile(&plan).unwrap();
        for stage in &eplan.stages {
            for &nid in &stage.nodes {
                assert_eq!(eplan.nodes[nid].exec.platform(), stage.platform);
                assert_eq!(eplan.nodes[nid].stage, stage.id);
            }
        }
        // every node is in exactly one stage
        let total: usize = eplan.stages.iter().map(|s| s.nodes.len()).sum();
        assert_eq!(total, eplan.nodes.len());
    }

    #[test]
    fn uncertain_estimates_seal_stages() {
        // A filter with a selectivity hint gets low confidence → the stage
        // is sealed right after it (the §4.4 checkpoint placement).
        let mut b = PlanBuilder::new();
        b.collection((0..100i64).map(Value::from).collect::<Vec<_>>())
            .filter(PredicateUdf::new("p", |_| true))
            .map(MapUdf::new("after", |v| v.clone()))
            .collect();
        let plan = b.build().unwrap();
        let mut ctx = RheemContext::new();
        ctx.registry_mut().add_mapping(Arc::new(FnMapping(
            |_p: &RheemPlan, n: &crate::plan::OperatorNode| match n.op.kind() {
                OpKind::Map | OpKind::Filter => {
                    vec![Candidate::single(n.id, Arc::new(TestOp("T", PlatformId("tp"))) as _)]
                }
                _ => vec![],
            },
        )));
        let (_, eplan) = ctx.compile(&plan).unwrap();
        let filter_node =
            eplan.nodes.iter().find(|n| n.tail() == Some(crate::plan::OperatorId(1))).unwrap();
        let map_node =
            eplan.nodes.iter().find(|n| n.tail() == Some(crate::plan::OperatorId(2))).unwrap();
        assert_ne!(filter_node.stage, map_node.stage, "stage must seal after the uncertain filter");
    }

    #[test]
    fn loop_heads_get_their_own_stage() {
        let mut b = PlanBuilder::new();
        let init = b.collection(vec![Value::from(0)]);
        init.repeat(2, |w| w.map(MapUdf::new("inc", |v| v.clone()))).collect();
        let plan = b.build().unwrap();
        let (_, eplan) = test_ctx().compile(&plan).unwrap();
        let head = eplan.nodes.iter().find(|n| n.is_loop_head(&plan)).expect("loop head node");
        let stage = &eplan.stages[head.stage];
        assert_eq!(stage.nodes, vec![head.id], "Fig. 7: the loop head stands alone");
    }

    #[test]
    fn describe_mentions_every_stage() {
        let mut b = PlanBuilder::new();
        b.collection(vec![Value::from(1)]).map(MapUdf::new("m", |v| v.clone())).collect();
        let plan = b.build().unwrap();
        let (_, eplan) = test_ctx().compile(&plan).unwrap();
        let text = eplan.describe();
        for s in &eplan.stages {
            assert!(text.contains(&format!("stage {}", s.id)));
        }
        assert!(!eplan.platforms().is_empty());
    }

    /// One collection feeding `n` maps, each collected.
    fn fan_out_plan(n: usize) -> RheemPlan {
        let mut b = PlanBuilder::new();
        let src = b.collection(vec![Value::from(1)]);
        for _ in 0..n {
            src.map(MapUdf::new("m", |v| v.clone())).collect();
        }
        b.build().unwrap()
    }

    #[test]
    fn fan_out_past_the_movement_limit_is_a_typed_error() {
        use crate::movement::MAX_CONSUMERS;
        // The limit itself works: `tests/cross_platform.rs` runs a 16-way
        // fan-out end to end.
        let ctx = test_ctx();
        let plan = fan_out_plan(MAX_CONSUMERS + 1);
        let limit = format!("up to {MAX_CONSUMERS}");
        match ctx.optimize(&plan) {
            Err(RheemError::Optimizer(m)) => assert!(m.contains(&limit), "{m}"),
            other => panic!("expected an optimizer error, got {:?}", other.err()),
        }
        // The enumerator never hands such a plan on; build_exec_plan still
        // checks a hand-assembled one.
        let mut candidates = Vec::new();
        let mut choice = Vec::new();
        for node in plan.operators() {
            choice.push(candidates.len());
            candidates.push(ctx.registry().candidates_for(&plan, node).remove(0));
        }
        let opt = OptimizedPlan {
            candidates,
            choice,
            estimates: crate::cardinality::Estimator::new().estimate(&plan).unwrap(),
            est_ms: 0.0,
            est_interval: crate::cost::Interval::point(0.0),
            platforms: Vec::new(),
            stats: Default::default(),
        };
        match build_exec_plan(&plan, &opt, ctx.registry(), ctx.profiles(), ctx.cost_model()) {
            Err(RheemError::Optimizer(m)) => assert!(m.contains(&limit), "{m}"),
            Err(e) => panic!("expected an optimizer error, got {e}"),
            Ok(_) => panic!("expected an optimizer error, got a plan"),
        }
    }

    #[test]
    fn too_many_platforms_is_a_typed_error() {
        let mut ctx = RheemContext::new();
        ctx.registry_mut().add_mapping(Arc::new(FnMapping(
            |_p: &RheemPlan, n: &crate::plan::OperatorNode| match n.op.kind() {
                OpKind::Map => (0..33)
                    .map(|i| {
                        let p = PlatformId(Box::leak(format!("tp{i}").into_boxed_str()));
                        Candidate::single(n.id, Arc::new(TestOp("TMap", p)) as _)
                    })
                    .collect(),
                _ => vec![],
            },
        )));
        let mut b = PlanBuilder::new();
        b.collection(vec![Value::from(1)]).map(MapUdf::new("m", |v| v.clone())).collect();
        match ctx.optimize(&b.build().unwrap()) {
            Err(RheemError::Optimizer(m)) => assert!(m.contains("up to 32"), "{m}"),
            other => panic!("expected an optimizer error, got {:?}", other.err()),
        }
    }
}
