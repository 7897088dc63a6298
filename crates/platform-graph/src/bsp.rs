//! A small but real vertex-centric BSP engine (the Giraph execution model):
//! vertices are hash-partitioned; each superstep runs vertex programs over
//! their pending messages, routes emitted messages to destination
//! partitions, and synchronizes at a barrier. Per-superstep statistics
//! (per-partition compute time, message volume) feed the virtual clock.

use std::collections::HashMap;
use std::time::Instant;

/// Statistics of one superstep.
#[derive(Clone, Debug)]
pub struct SuperstepStats {
    /// Measured compute time per partition, ms.
    pub partition_ms: Vec<f64>,
    /// Total message payload routed between partitions, bytes.
    pub message_bytes: f64,
}

/// Outcome of a BSP PageRank run.
pub struct BspOutcome {
    /// Final `(vertex, rank)` pairs.
    pub ranks: Vec<(i64, f64)>,
    /// Per-superstep statistics.
    pub supersteps: Vec<SuperstepStats>,
}

struct VertexState {
    rank: f64,
    out_neighbors: Vec<i64>,
}

/// Run PageRank on the BSP engine with `partitions` workers. Produces
/// results identical to [`rheem_core::kernels::page_rank_pairs`].
pub fn pagerank_bsp(
    edges: &[(i64, i64)],
    iterations: u32,
    damping: f64,
    partitions: usize,
) -> BspOutcome {
    let partitions = partitions.max(1);
    // Build vertex set and adjacency.
    let mut vertices: Vec<i64> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for &(s, d) in edges {
            for v in [s, d] {
                if seen.insert(v) {
                    vertices.push(v);
                }
            }
        }
    }
    let n = vertices.len().max(1) as f64;
    let home = |v: i64| (v.unsigned_abs() as usize) % partitions;

    // Partitioned vertex state.
    let mut state: Vec<HashMap<i64, VertexState>> =
        (0..partitions).map(|_| HashMap::new()).collect();
    for &v in &vertices {
        state[home(v)].insert(v, VertexState { rank: 1.0 / n, out_neighbors: Vec::new() });
    }
    for &(s, d) in edges {
        state[home(s)].get_mut(&s).expect("source vertex registered").out_neighbors.push(d);
    }

    let mut supersteps = Vec::new();
    // inbox[p] = messages destined to vertices homed at partition p
    let mut inbox: Vec<Vec<(i64, f64)>> = vec![Vec::new(); partitions];

    for step in 0..=iterations {
        let mut outbox: Vec<Vec<(i64, f64)>> = vec![Vec::new(); partitions];
        let mut partition_ms = Vec::with_capacity(partitions);
        let mut message_bytes = 0.0;
        for p in 0..partitions {
            let start = Instant::now();
            // Gather this partition's messages.
            let mut sums: HashMap<i64, f64> = HashMap::new();
            for &(dst, contrib) in &inbox[p] {
                *sums.entry(dst).or_default() += contrib;
            }
            for (v, vs) in state[p].iter_mut() {
                if step > 0 {
                    let sum = sums.get(v).copied().unwrap_or(0.0);
                    vs.rank = (1.0 - damping) / n + damping * sum;
                }
                if step < iterations && !vs.out_neighbors.is_empty() {
                    let share = vs.rank / vs.out_neighbors.len() as f64;
                    for &d in &vs.out_neighbors {
                        outbox[home(d)].push((d, share));
                        message_bytes += 16.0;
                    }
                }
            }
            partition_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        inbox = outbox;
        supersteps.push(SuperstepStats { partition_ms, message_bytes });
    }

    let mut ranks = Vec::with_capacity(vertices.len());
    for &v in &vertices {
        ranks.push((v, state[home(v)][&v].rank));
    }
    BspOutcome { ranks, supersteps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_matches_reference_on_random_graph() {
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = (x >> 33) % 60;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = (x >> 33) % 60;
            edges.push((s as i64, d as i64));
        }
        let reference = rheem_core::kernels::page_rank_pairs(edges.iter().copied(), 8, 0.85);
        for parts in [1, 3, 8] {
            let out = pagerank_bsp(&edges, 8, 0.85, parts);
            assert_eq!(out.ranks.len(), reference.len());
            let map: HashMap<i64, f64> = out.ranks.iter().copied().collect();
            for (v, r) in &reference {
                assert!((map[v] - r).abs() < 1e-9, "parts={parts}, v={v}");
            }
        }
    }

    #[test]
    fn superstep_stats_collected() {
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let out = pagerank_bsp(&edges, 5, 0.85, 2);
        // iterations + 1 supersteps (final update step sends nothing)
        assert_eq!(out.supersteps.len(), 6);
        assert!(out.supersteps[0].message_bytes > 0.0);
        assert_eq!(out.supersteps.last().unwrap().message_bytes, 0.0);
        assert_eq!(out.supersteps[0].partition_ms.len(), 2);
    }

    #[test]
    fn empty_graph_is_fine() {
        let out = pagerank_bsp(&[], 3, 0.85, 4);
        assert!(out.ranks.is_empty());
    }
}
