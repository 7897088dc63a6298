//! The engine's data movement: task waves on the shared worker pool,
//! partitioning, and the row and columnar hash exchanges.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rheem_core::batch;
use rheem_core::error::Result;
use rheem_core::exec::dataset_bytes;
use rheem_core::kernels;
use rheem_core::udf::{KeySpec, KeyUdf};
use rheem_core::value::{Dataset, Value};

/// Decide how many partitions a dataset of `n` quanta gets (HDFS-block-like
/// splitting, capped by the configured parallelism).
pub fn partition_count(n: usize, max_partitions: u32) -> usize {
    ((n / 8_192) + 1).min(max_partitions.max(1) as usize)
}

/// Split a driver-side dataset into contiguous partitions; a single
/// partition shares the incoming `Arc` outright, and an empty dataset still
/// yields one (empty) partition.
pub(crate) fn split(d: &Dataset, max_partitions: u32) -> Vec<Dataset> {
    let n = partition_count(d.len(), max_partitions);
    if n <= 1 {
        return vec![Arc::clone(d)];
    }
    chunked(d, n)
}

/// Cut `all` into `n` contiguous chunks (at least one, possibly empty).
pub(crate) fn chunked(all: &[Value], n: usize) -> Vec<Dataset> {
    let chunk = all.len().div_ceil(n.max(1)).max(1);
    let parts: Vec<Dataset> = all.chunks(chunk).map(|c| Arc::new(c.to_vec())).collect();
    if parts.is_empty() {
        vec![Arc::new(Vec::new())]
    } else {
        parts
    }
}

/// How many worker threads a stage gets: the profile's core count, capped by
/// the shared worker pool's size (so measured per-partition times stay
/// honest).
pub(crate) fn pool_size(profile: &rheem_core::platform::PlatformProfile) -> usize {
    (profile.cores as usize).clamp(1, rheem_core::pool::size())
}

/// Run `f` over each row partition; returns the output partitions and the
/// measured per-partition times (ms).
pub(crate) fn par_map_rows<F>(
    parts: &[Dataset],
    workers: usize,
    f: F,
) -> Result<(Vec<Dataset>, Vec<f64>)>
where
    F: Fn(usize, &[Value]) -> Result<Vec<Value>> + Send + Sync,
{
    par_map_each(parts.len(), workers, |i| f(i, &parts[i]).map(Arc::new))
}

/// What one worker of a task wave hands back: `(index, output, ms)` per
/// task it ran, or the first error it hit.
type WorkerOutput<U> = Result<Vec<(usize, U, f64)>>;

/// The task-wave runner: run `f(i)` for every index on the process-wide
/// shared pool ([`rheem_core::pool`]) — no per-call thread spawns — where
/// workers pull indices off a shared queue and hand back
/// `(index, output, ms)` batches; indices keep the merge order-stable no
/// matter which worker produced what. Generic over the slot type so
/// columnar stages can map [`batch::Part`] partitions without a row
/// round-trip.
pub(crate) fn par_map_each<U, F>(n: usize, workers: usize, f: F) -> Result<(Vec<U>, Vec<f64>)>
where
    U: Send,
    F: Fn(usize) -> Result<U> + Send + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let next = &AtomicUsize::new(0);
    let f = &f;
    let batches: Mutex<Vec<WorkerOutput<U>>> = Mutex::new(Vec::with_capacity(workers));
    rheem_core::pool::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut failed = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let start = Instant::now();
                    match f(i) {
                        Ok(out) => {
                            let ms = start.elapsed().as_secs_f64() * 1000.0;
                            mine.push((i, out, ms));
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                let batch = match failed {
                    Some(e) => Err(e),
                    None => Ok(mine),
                };
                batches.lock().unwrap().push(batch);
            });
        }
    });
    let mut out_parts: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut times = vec![0.0; n];
    for batch in batches.into_inner().unwrap() {
        for (i, d, ms) in batch? {
            out_parts[i] = Some(d);
            times[i] = ms;
        }
    }
    // Every slot is written exactly once: the queue hands out each index to
    // one worker, and an error short-circuits above.
    Ok((out_parts.into_iter().map(|o| o.expect("slot filled")).collect(), times))
}

/// Hash-exchange: redistribute partitions by key into `n` output partitions
/// (the shuffle). Every record is routed straight into a shared, pre-sized
/// destination bucket — no per-partition partials re-appended. Returns the
/// exchanged partitions and the bytes moved across the (virtual) network.
pub fn shuffle(parts: &[Dataset], key: &KeyUdf, n: usize) -> (Vec<Dataset>, f64) {
    let n = n.max(1);
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::with_capacity(total / n + 1)).collect();
    for p in parts {
        kernels::hash_partition_into(p, key, &mut buckets);
    }
    let bytes: f64 = buckets.iter().map(|b| dataset_bytes(b)).sum();
    // Roughly (1 - 1/nodes) of shuffled bytes cross machine boundaries.
    (buckets.into_iter().map(Arc::new).collect(), bytes * 0.9)
}

pub(crate) fn flatten_parts(parts: &[Dataset]) -> Vec<Value> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend(p.iter().cloned());
    }
    out
}

/// Hash-partition every batch into `n` per-destination contribution lists —
/// the columnar exchange. Bucket `j` collects each input batch's selection
/// onto destination `j`, in input order, which is exactly the record order
/// the row shuffle would produce (same `bucket_of` routing, same stable
/// append). `None` when any key column is untyped (callers take the row
/// shuffle instead).
pub(crate) fn bucketize(
    bs: &[&batch::Batch],
    key: &KeySpec,
    n: usize,
) -> Option<Vec<Vec<batch::Batch>>> {
    let mut buckets: Vec<Vec<batch::Batch>> = (0..n.max(1)).map(|_| Vec::new()).collect();
    for b in bs {
        let pb = batch::partition_batch(b, key, n)?;
        for (j, x) in pb.into_iter().enumerate() {
            buckets[j].push(x);
        }
    }
    Some(buckets)
}

/// Wire size of an exchange's bucketed contributions (≈90 % cross machines,
/// like [`shuffle`]).
pub(crate) fn bucket_bytes(buckets: &[Vec<batch::Batch>]) -> f64 {
    buckets.iter().flatten().map(batch::batch_bytes).sum::<f64>() * 0.9
}

/// Count/row totals of the batches a columnar exchange actually ships
/// (empty selections stay local).
pub(crate) fn shipped(buckets: &[Vec<batch::Batch>]) -> (u64, u64) {
    let mut batches = 0u64;
    let mut rows = 0u64;
    for b in buckets.iter().flatten() {
        let l = b.selected_len() as u64;
        if l > 0 {
            batches += 1;
        }
        rows += l;
    }
    (batches, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_preserves_all_records() {
        let parts: Vec<Dataset> = (0..4)
            .map(|p| {
                Arc::new(
                    (0..100i64)
                        .map(|i| Value::pair(Value::from(i % 7), Value::from(p * 100 + i)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let (exchanged, bytes) = shuffle(&parts, &KeyUdf::field(0), 4);
        assert_eq!(exchanged.iter().map(|p| p.len()).sum::<usize>(), 400);
        assert!(bytes > 0.0);
        // same key never splits across partitions
        for key in 0..7i64 {
            let holders = exchanged
                .iter()
                .filter(|p| p.iter().any(|v| v.field(0).as_int() == Some(key)))
                .count();
            assert_eq!(holders, 1, "key {key}");
        }
    }

    #[test]
    fn partition_count_scales() {
        assert_eq!(partition_count(100, 80), 1);
        assert!(partition_count(1_000_000, 80) > 1);
        assert!(partition_count(100_000_000, 80) <= 80);
    }
}
