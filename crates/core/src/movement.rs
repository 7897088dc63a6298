//! Data-movement planning over the channel conversion graph (§3, §4.1).
//!
//! Channels are vertices; conversion operators are directed edges. For a
//! producer with one consumer we need a cheapest conversion *path*; with
//! several consumers (possibly on different platforms) we need a *minimal
//! conversion tree* (MCT) — an NP-hard Steiner-tree variant the paper \[43\]
//! solves via kernelization. Here the graph is small (a dozen kinds), so we
//! solve the MCT exactly with a Dreyfus–Wagner-style subset DP, honouring
//! channel *reusability*: fan-out may only happen at reusable channels
//! (e.g. a cached RDD or a collection, but not a consumed-once RDD).

use std::collections::HashMap;
use std::sync::Arc;

use crate::channel::ChannelKind;
use crate::cost::CostModel;
use crate::error::{Result, RheemError};
use crate::platform::Profiles;
use crate::registry::{Conversion, Registry};

/// A node of an executable conversion tree. The producer's output enters at
/// the root; each child edge applies one conversion operator; consumers are
/// served at the nodes listed in `deliver`.
#[derive(Clone)]
pub struct ConvNode {
    /// Channel kind of the data at this node.
    pub kind: ChannelKind,
    /// Indices of consumers served directly at this node.
    pub deliver: Vec<usize>,
    /// Conversions applied to this node's data, with their subtrees.
    pub children: Vec<(Arc<Conversion>, ConvNode)>,
}

impl ConvNode {
    /// Total number of conversion edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(|(_, c)| 1 + c.edge_count()).sum()
    }

    /// All conversion operator names, in preorder (for tests/diagnostics).
    pub fn op_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names(&self, out: &mut Vec<String>) {
        for (conv, child) in &self.children {
            out.push(conv.op.name().to_string());
            child.collect_names(out);
        }
    }
}

impl std::fmt::Debug for ConvNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{:?}", self.kind, self.deliver)?;
        if !self.children.is_empty() {
            write!(f, " -> [")?;
            for (i, (conv, c)) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {c:?}", conv.op.name())?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A solved movement problem: the tree plus its estimated virtual cost.
#[derive(Clone, Debug)]
pub struct MovementPlan {
    /// Executable conversion tree rooted at the producer's output kind.
    pub tree: ConvNode,
    /// Estimated virtual time of all conversions, ms.
    pub cost_ms: f64,
}

#[derive(Clone, Copy)]
enum Back {
    Leaf(usize),
    Edge { to: usize, conv: usize },
    Merge { s1: usize },
    None,
}

/// Most consumers one conversion tree serves: the solver's subset DP is
/// exponential in the consumer count.
pub const MAX_CONSUMERS: usize = 16;

/// A typed error for a producer whose conversion tree would serve more
/// than [`MAX_CONSUMERS`] consumers.
pub(crate) fn check_fanout(consumers: usize, producer: &str) -> Result<()> {
    if consumers > MAX_CONSUMERS {
        return Err(RheemError::Optimizer(format!(
            "{producer} feeds {consumers} consumers through channel conversions; \
             the movement planner supports up to {MAX_CONSUMERS}"
        )));
    }
    Ok(())
}

/// One finite solve: the tree's cost and the DP back-pointers, row-major
/// by consumer subset, that rebuild it.
struct Solved {
    cost: f64,
    back: Vec<Back>,
    k: usize,
}

/// The channel conversion graph with solver.
pub struct ConversionGraph {
    kinds: Vec<ChannelKind>,
    kind_idx: HashMap<ChannelKind, usize>,
    reusable: Vec<bool>,
    /// edges[v] = outgoing (to, conversion index into `conversions`)
    edges: Vec<Vec<(usize, usize)>>,
    conversions: Vec<Arc<Conversion>>,
}

impl ConversionGraph {
    /// Build from the registry's channels and conversion operators.
    pub fn from_registry(registry: &Registry) -> Self {
        let mut kinds: Vec<ChannelKind> = registry.channel_kinds();
        // Conversions may mention kinds the registry didn't describe.
        for c in registry.conversions() {
            if !kinds.contains(&c.from) {
                kinds.push(c.from);
            }
            if !kinds.contains(&c.to) {
                kinds.push(c.to);
            }
        }
        let kind_idx: HashMap<ChannelKind, usize> =
            kinds.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        let reusable = kinds.iter().map(|k| registry.channel(*k).reusable).collect();
        let mut edges = vec![Vec::new(); kinds.len()];
        let mut conversions = Vec::new();
        for c in registry.conversions() {
            let from = kind_idx[&c.from];
            let to = kind_idx[&c.to];
            edges[from].push((to, conversions.len()));
            conversions.push(Arc::new(c.clone()));
        }
        Self { kinds, kind_idx, reusable, edges, conversions }
    }

    /// Number of channel kinds (vertices).
    pub fn kind_count(&self) -> usize {
        self.kinds.len()
    }

    /// Estimated virtual ms of every conversion (indexed like the graph's
    /// conversion edges) for `card` quanta of `avg_bytes` each. Weights
    /// depend only on the data, not on which consumers a tree serves, so a
    /// caller solving many trees for one producer computes them once.
    pub(crate) fn edge_weights(
        &self,
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Vec<f64> {
        self.conversions
            .iter()
            .map(|c| {
                let load = c.op.load(&[card], avg_bytes, model);
                load.to_ms(profiles.get(c.op.platform())) + 0.01 // epsilon: prefer fewer hops
            })
            .collect()
    }

    /// Solve the minimal-conversion-tree problem: the producer emits
    /// `from`; consumer `i` accepts any kind in `consumers[i]`. Returns
    /// `None` when some consumer is unreachable.
    ///
    /// # Panics
    ///
    /// With more than [`MAX_CONSUMERS`] consumers. The optimizer checks the
    /// fan-out first and reports it as a typed error.
    pub fn best_tree(
        &self,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Option<MovementPlan> {
        let root = *self.kind_idx.get(&from)?;
        if consumers.is_empty() {
            return Some(MovementPlan {
                tree: ConvNode { kind: from, deliver: vec![], children: vec![] },
                cost_ms: 0.0,
            });
        }
        let w = self.edge_weights(card, avg_bytes, profiles, model);
        let solved = self.solve(root, consumers, &w)?;
        let tree = self.rebuild(&solved, (1 << consumers.len()) - 1, root);
        Some(MovementPlan { tree, cost_ms: solved.cost })
    }

    /// The cost [`ConversionGraph::best_tree`] would return, from weights
    /// precomputed by [`ConversionGraph::edge_weights`], without building
    /// the tree. Same DP, same summation order: bit-identical costs.
    pub(crate) fn tree_cost(
        &self,
        from: ChannelKind,
        consumers: &[Vec<ChannelKind>],
        weights: &[f64],
    ) -> Option<f64> {
        let root = *self.kind_idx.get(&from)?;
        if consumers.is_empty() {
            return Some(0.0);
        }
        Some(self.solve(root, consumers, weights)?.cost)
    }

    /// Dreyfus–Wagner subset DP over consumer sets, rooted anywhere;
    /// `None` when the full set is unreachable from `root`.
    fn solve(&self, root: usize, consumers: &[Vec<ChannelKind>], w: &[f64]) -> Option<Solved> {
        let c = consumers.len();
        assert!(c <= MAX_CONSUMERS, "movement planner supports up to {MAX_CONSUMERS} consumers");
        let k = self.kinds.len();
        let full = (1usize << c) - 1;
        let mut dp = vec![f64::INFINITY; (full + 1) * k];
        let mut back = vec![Back::None; (full + 1) * k];

        for s in 1..=full {
            let row = s * k;
            // Singleton bases.
            if s.count_ones() == 1 {
                let i = s.trailing_zeros() as usize;
                for (vi, kind) in self.kinds.iter().enumerate() {
                    if consumers[i].contains(kind) {
                        dp[row + vi] = 0.0;
                        back[row + vi] = Back::Leaf(i);
                    }
                }
            }
            // Merges: split S at a reusable vertex.
            let mut s1 = (s - 1) & s;
            while s1 > 0 {
                let s2 = s & !s1;
                if s1 < s2 {
                    // avoid double-counting symmetric splits
                    s1 = (s1 - 1) & s;
                    continue;
                }
                for vi in 0..k {
                    if !self.reusable[vi] {
                        continue;
                    }
                    let cost = dp[s1 * k + vi] + dp[s2 * k + vi];
                    if cost < dp[row + vi] {
                        dp[row + vi] = cost;
                        back[row + vi] = Back::Merge { s1 };
                    }
                }
                s1 = (s1 - 1) & s;
            }
            // Edge relaxations (Bellman–Ford over the small graph).
            for _ in 0..k {
                let mut changed = false;
                for vi in 0..k {
                    for &(to, conv) in &self.edges[vi] {
                        let cost = dp[row + to] + w[conv];
                        if cost + 1e-12 < dp[row + vi] {
                            dp[row + vi] = cost;
                            back[row + vi] = Back::Edge { to, conv };
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let cost = dp[full * k + root];
        cost.is_finite().then_some(Solved { cost, back, k })
    }

    fn rebuild(&self, solved: &Solved, s: usize, v: usize) -> ConvNode {
        match solved.back[s * solved.k + v] {
            Back::Leaf(i) => ConvNode { kind: self.kinds[v], deliver: vec![i], children: vec![] },
            Back::Edge { to, conv } => {
                let child = self.rebuild(solved, s, to);
                ConvNode {
                    kind: self.kinds[v],
                    deliver: vec![],
                    children: vec![(Arc::clone(&self.conversions[conv]), child)],
                }
            }
            Back::Merge { s1 } => {
                let a = self.rebuild(solved, s1, v);
                let b = self.rebuild(solved, s & !s1, v);
                ConvNode {
                    kind: self.kinds[v],
                    deliver: a.deliver.into_iter().chain(b.deliver).collect(),
                    children: a.children.into_iter().chain(b.children).collect(),
                }
            }
            Back::None => ConvNode { kind: self.kinds[v], deliver: vec![], children: vec![] },
        }
    }

    /// Cheapest conversion cost from `from` to any kind in `targets` for a
    /// single consumer (the common case during plan enumeration).
    pub fn best_path_cost(
        &self,
        from: ChannelKind,
        targets: &[ChannelKind],
        card: f64,
        avg_bytes: f64,
        profiles: &Profiles,
        model: &CostModel,
    ) -> Option<f64> {
        self.best_tree(from, &[targets.to_vec()], card, avg_bytes, profiles, model)
            .map(|p| p.cost_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{kinds, ChannelData, ChannelDescriptor};
    use crate::cost::Load;
    use crate::error::Result;
    use crate::exec::{ExecCtx, ExecutionOperator};
    use crate::platform::PlatformId;
    use crate::udf::BroadcastCtx;

    const RDD: ChannelKind = ChannelKind("t.rdd");
    const RDD_CACHED: ChannelKind = ChannelKind("t.rdd.cached");

    struct Conv(&'static str, f64);
    impl ExecutionOperator for Conv {
        fn name(&self) -> &str {
            self.0
        }
        fn platform(&self) -> PlatformId {
            PlatformId("test")
        }
        fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
            vec![]
        }
        fn output_kind(&self) -> ChannelKind {
            kinds::NONE
        }
        fn load(&self, in_cards: &[f64], _b: f64, _model: &CostModel) -> Load {
            Load::cpu(self.1 * in_cards.iter().sum::<f64>().max(1.0) * 1000.0)
        }
        fn execute(
            &self,
            _ctx: &mut ExecCtx<'_>,
            inputs: &[ChannelData],
            _bc: &BroadcastCtx,
        ) -> Result<ChannelData> {
            Ok(inputs[0].clone())
        }
    }

    fn test_registry() -> Registry {
        let mut r = Registry::new();
        r.add_channel(ChannelDescriptor { kind: RDD, reusable: false });
        r.add_channel(ChannelDescriptor { kind: RDD_CACHED, reusable: true });
        r.add_conversion(RDD, RDD_CACHED, Arc::new(Conv("Cache", 1.0)));
        r.add_conversion(RDD_CACHED, kinds::COLLECTION, Arc::new(Conv("Collect", 2.0)));
        r.add_conversion(RDD, kinds::COLLECTION, Arc::new(Conv("CollectDirect", 2.5)));
        r.add_conversion(kinds::COLLECTION, RDD, Arc::new(Conv("Parallelize", 2.0)));
        r
    }

    #[test]
    fn direct_delivery_costs_nothing() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        let plan = g
            .best_tree(RDD, &[vec![RDD]], 100.0, 64.0, &Profiles::bare(), &CostModel::new())
            .unwrap();
        assert_eq!(plan.cost_ms, 0.0);
        assert_eq!(plan.tree.edge_count(), 0);
        assert_eq!(plan.tree.deliver, vec![0]);
    }

    #[test]
    fn single_consumer_takes_cheapest_path() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        let plan = g
            .best_tree(
                RDD,
                &[vec![kinds::COLLECTION]],
                100.0,
                64.0,
                &Profiles::bare(),
                &CostModel::new(),
            )
            .unwrap();
        // direct RDD->Collection (2.5) beats Cache(1)+Collect(2)=3
        assert_eq!(plan.tree.op_names(), vec!["CollectDirect"]);
    }

    #[test]
    fn fanout_on_nonreusable_channel_routes_through_cache() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        // two consumers both need RDD; RDD is not reusable, so the tree must
        // cache first and re-derive RDDs... but there is no cached->rdd edge,
        // so instead it goes rdd -> collection (reusable) -> parallelize x2?
        // cheapest valid: direct-collect (2.5) then two Parallelize (2+2)
        // vs cache(1)+collect(2) then 2x parallelize: 1+2+4=7 > 6.5
        let plan = g
            .best_tree(
                RDD,
                &[vec![RDD], vec![RDD]],
                1.0,
                64.0,
                &Profiles::bare(),
                &CostModel::new(),
            )
            .unwrap();
        let names = plan.tree.op_names();
        assert_eq!(names.iter().filter(|n| *n == "Parallelize").count(), 2, "{names:?}");
        assert!(names.contains(&"CollectDirect".to_string()), "{names:?}");
    }

    #[test]
    fn shared_prefix_is_not_duplicated() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        // one consumer wants a collection, another wants an RDD: share the
        // collect, then parallelize for the second.
        let plan = g
            .best_tree(
                RDD,
                &[vec![kinds::COLLECTION], vec![RDD]],
                1.0,
                64.0,
                &Profiles::bare(),
                &CostModel::new(),
            )
            .unwrap();
        let names = plan.tree.op_names();
        assert_eq!(names.iter().filter(|n| *n == "CollectDirect").count(), 1);
        assert_eq!(names.iter().filter(|n| *n == "Parallelize").count(), 1);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        let plan = g.best_tree(
            RDD,
            &[vec![ChannelKind("mars.rover")]],
            1.0,
            64.0,
            &Profiles::bare(),
            &CostModel::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn costs_scale_with_cardinality() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        let profiles = Profiles::bare();
        let model = CostModel::new();
        let small =
            g.best_path_cost(RDD, &[kinds::COLLECTION], 10.0, 64.0, &profiles, &model).unwrap();
        let large =
            g.best_path_cost(RDD, &[kinds::COLLECTION], 10_000.0, 64.0, &profiles, &model).unwrap();
        assert!(large > small);
    }

    #[test]
    fn tree_cost_matches_best_tree_bit_for_bit() {
        let r = test_registry();
        let g = ConversionGraph::from_registry(&r);
        let (profiles, model) = (Profiles::bare(), CostModel::new());
        let consumer_sets = [
            vec![vec![RDD]],
            vec![vec![kinds::COLLECTION]],
            vec![vec![RDD], vec![RDD]],
            vec![vec![kinds::COLLECTION], vec![RDD], vec![RDD_CACHED]],
            vec![vec![ChannelKind("mars.rover")]],
        ];
        for card in [1.0, 100.0, 12_345.0] {
            let w = g.edge_weights(card, 64.0, &profiles, &model);
            for consumers in &consumer_sets {
                let tree = g.best_tree(RDD, consumers, card, 64.0, &profiles, &model);
                let cost = g.tree_cost(RDD, consumers, &w);
                assert_eq!(
                    tree.map(|t| t.cost_ms.to_bits()),
                    cost.map(f64::to_bits),
                    "{consumers:?} at {card}"
                );
            }
        }
    }
}
