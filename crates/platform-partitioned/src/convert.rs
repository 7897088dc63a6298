//! Conversion operators: the edges the partitioned engine adds to the
//! channel conversion graph (driver hand-offs, file reads and writes, and
//! Spark's RDD cache).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rheem_core::batch;
use rheem_core::channel::{kinds, ChannelData, ChannelKind};
use rheem_core::cost::{linear_cpu, CostModel, Load};
use rheem_core::error::{Result, RheemError};
use rheem_core::exec::{dataset_bytes, ExecCtx, ExecutionOperator, OpMetrics};
use rheem_core::plan::OpKind;
use rheem_core::platform::PlatformId;
use rheem_core::udf::BroadcastCtx;
use rheem_core::value::{Dataset, Value};

use crate::exchange::{partition_count, split};
use crate::flavor::Flavor;

/// Which conversion a [`Convert`] performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Conv {
    /// `dataset -> cached dataset` (Fig. 3(b)'s Cache operator): makes the
    /// channel reusable for multiple consumers / loop iterations.
    Cache,
    /// A cached dataset serves anywhere a plain one is accepted (zero-cost
    /// view).
    Uncache,
    /// `dataset -> driver collection` (`RDD.collect()`, which the paper
    /// found faster than `toLocalIterator`; `DataSet.collect()`).
    Collect,
    /// `driver collection -> dataset` (`sc.parallelize`,
    /// `env.fromCollection`).
    Parallelize,
    /// `dataset -> HDFS file` (`saveAsTextFile`): used when downstream
    /// platforms read from the file system, and by the Musketeer baseline
    /// which materializes between every stage.
    SaveTextFile,
    /// `file -> dataset` (`sc.textFile`, `env.readTextFile`).
    ReadTextFile,
}

/// One conversion operator of a flavor.
pub(crate) struct Convert {
    flavor: &'static Flavor,
    conv: Conv,
    name: String,
    /// Files written so far (each `SaveTextFile` run gets a fresh file).
    written: AtomicUsize,
}

impl Convert {
    /// The `conv` operator of `flavor`.
    pub(crate) fn new(flavor: &'static Flavor, conv: Conv) -> Arc<Self> {
        let what = match conv {
            Conv::Cache => "Cache",
            Conv::Uncache => "Uncache",
            Conv::Collect => "Collect",
            Conv::Parallelize => flavor.parallelize.0,
            Conv::SaveTextFile => "SaveTextFile",
            Conv::ReadTextFile => "ReadTextFile",
        };
        let name = format!("{}{what}", flavor.name);
        Arc::new(Self { flavor, conv, name, written: AtomicUsize::new(0) })
    }

    fn cached(&self) -> ChannelKind {
        self.flavor.cached.expect("only flavors with a cached channel register Cache/Uncache")
    }

    fn record(&self, ctx: &mut ExecCtx<'_>, in_card: u64, out_card: u64, virtual_ms: f64) {
        ctx.record(OpMetrics {
            name: self.name.clone(),
            platform: self.flavor.id,
            in_card,
            out_card,
            virtual_ms,
            real_ms: 0.0,
        });
    }
}

impl ExecutionOperator for Convert {
    fn name(&self) -> &str {
        &self.name
    }

    fn platform(&self) -> PlatformId {
        self.flavor.id
    }

    fn accepted_inputs(&self, _slot: usize) -> Vec<ChannelKind> {
        match self.conv {
            Conv::Cache => vec![self.flavor.channel],
            Conv::Uncache => vec![self.cached()],
            Conv::Collect | Conv::SaveTextFile => self.flavor.channels(),
            Conv::Parallelize => vec![kinds::COLLECTION],
            Conv::ReadTextFile => vec![kinds::HDFS_FILE, kinds::LOCAL_FILE],
        }
    }

    fn output_kind(&self) -> ChannelKind {
        match self.conv {
            Conv::Cache => self.cached(),
            Conv::Collect => kinds::COLLECTION,
            Conv::SaveTextFile => kinds::HDFS_FILE,
            Conv::Uncache | Conv::Parallelize | Conv::ReadTextFile => self.flavor.channel,
        }
    }

    fn load(&self, in_cards: &[f64], avg_bytes: f64, model: &CostModel) -> Load {
        let f = self.flavor;
        let c = in_cards.first().copied().unwrap_or(0.0);
        let cpu = |token: &str, alpha: f64, delta: f64| {
            linear_cpu(model, f.key(), token, c, 0.0, alpha, delta)
        };
        let split_tasks = partition_count(c as usize, 80) as u32;
        match self.conv {
            Conv::Cache => Load {
                cpu_cycles: cpu("cache", 30.0, 5_000.0),
                mem_bytes: c * avg_bytes,
                tasks: split_tasks,
                ..Load::default()
            },
            Conv::Uncache => Load::default(),
            Conv::Collect | Conv::Parallelize => {
                let (token, alpha) = if self.conv == Conv::Collect {
                    ("collect", 60.0)
                } else {
                    (f.parallelize.1, 50.0)
                };
                Load {
                    cpu_cycles: cpu(token, alpha, f.handoff_delta),
                    net_bytes: c * avg_bytes * 0.9,
                    tasks: 1,
                    ..Load::default()
                }
            }
            Conv::SaveTextFile => Load {
                cpu_cycles: cpu("savetext", 220.0, 15_000.0),
                disk_bytes: c * avg_bytes,
                tasks: split_tasks,
                ..Load::default()
            },
            Conv::ReadTextFile => Load {
                cpu_cycles: cpu("readtext", f.alpha(OpKind::TextFileSource), f.read_delta),
                disk_bytes: c * avg_bytes,
                tasks: f.read_tasks.unwrap_or(split_tasks),
                ..Load::default()
            },
        }
    }

    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        inputs: &[ChannelData],
        _bc: &BroadcastCtx,
    ) -> Result<ChannelData> {
        let f = self.flavor;
        if self.conv == Conv::Uncache {
            return Ok(inputs[0].clone());
        }
        ctx.transfer_gate(f.id, self.name())?;
        match self.conv {
            Conv::Cache => {
                // Columnar stage outputs cache as-is (zero-copy Arc bump):
                // consumers get the same 1:1 batch partitions the uncached
                // channel carries.
                let (out, bytes) = match &inputs[0] {
                    ChannelData::BatchParts(bs) => {
                        let bytes: f64 = bs.iter().map(batch::batch_bytes).sum();
                        (ChannelData::BatchParts(Arc::clone(bs)), bytes)
                    }
                    _ => {
                        let parts = inputs[0].as_partitions()?.clone();
                        let bytes: f64 = parts.iter().map(|p| dataset_bytes(p)).sum();
                        (ChannelData::Partitions(parts), bytes)
                    }
                };
                ctx.check_mem(f.id, bytes)?;
                let card = inputs[0].cardinality().unwrap_or(0) as u64;
                self.record(ctx, card, card, 0.2 + bytes / 1e9);
                Ok(out)
            }
            Conv::Collect => {
                let data = inputs[0].flatten()?;
                let net = ctx.profile(f.id).net_ms(dataset_bytes(&data) * 0.9);
                let n = data.len() as u64;
                self.record(ctx, n, n, net + f.handoff_ms);
                Ok(ChannelData::Collection(data))
            }
            Conv::Parallelize => {
                // Already-partitioned handoffs pass through by Arc — no
                // flatten + re-chunk round trip through a fresh Vec.
                let (parts, card, bytes) = match &inputs[0] {
                    ChannelData::Partitions(p) => {
                        let card: usize = p.iter().map(|d| d.len()).sum();
                        let bytes: f64 = p.iter().map(|d| dataset_bytes(d)).sum();
                        (Arc::clone(p), card, bytes)
                    }
                    other => {
                        let data = other.flatten()?;
                        let parts = split(&data, ctx.profile(f.id).partitions);
                        (Arc::new(parts), data.len(), dataset_bytes(&data))
                    }
                };
                let net = ctx.profile(f.id).net_ms(bytes * 0.9);
                self.record(ctx, card as u64, card as u64, net + f.handoff_ms);
                Ok(ChannelData::Partitions(parts))
            }
            Conv::SaveTextFile => {
                let data = inputs[0].flatten()?;
                let id = self.written.fetch_add(1, Ordering::Relaxed);
                let path = PathBuf::from(format!("hdfs://{}_scratch/part-{id:05}.txt", f.key()));
                let bytes = rheem_storage::write_lines(&path, data.iter().map(|v| v.to_string()))
                    .map_err(RheemError::Io)?;
                let write_ms =
                    rheem_storage::default_costs(rheem_storage::StoreKind::Hdfs).write_ms(bytes);
                let n = data.len() as u64;
                self.record(ctx, n, n, write_ms);
                Ok(ChannelData::File(Arc::new(path)))
            }
            Conv::ReadTextFile => {
                let path = inputs[0].as_file()?.clone();
                let (parts, read_ms) = read_text(&path, ctx.profile(f.id).partitions)?;
                let out_card: u64 = parts.iter().map(|p| p.len() as u64).sum();
                self.record(ctx, 0, out_card, read_ms);
                Ok(ChannelData::Partitions(Arc::new(parts)))
            }
            Conv::Uncache => unreachable!("handled above"),
        }
    }
}

/// Read a text file into partitions of lines (one per ~40-byte line
/// block, capped by `max_partitions`); returns them with the store's
/// modelled read time.
pub(crate) fn read_text(path: &Path, max_partitions: u32) -> Result<(Vec<Dataset>, f64)> {
    let (bytes, store) = rheem_storage::stat(path).map_err(RheemError::Io)?;
    let lines = rheem_storage::read_partitioned(
        path,
        partition_count((bytes / 40).max(1) as usize, max_partitions),
    )
    .map_err(RheemError::Io)?;
    let parts = lines
        .into_iter()
        .map(|ls| Arc::new(ls.into_iter().map(Value::from).collect::<Vec<_>>()))
        .collect();
    Ok((parts, rheem_storage::default_costs(store).read_ms(bytes)))
}
