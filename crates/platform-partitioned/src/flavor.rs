//! The two engine flavors as data. Spark and Flink share one dataflow model
//! (partitioned datasets, hash exchanges, pipelined narrow chains); what
//! tells them apart in the paper is overheads, operator chaining, caching
//! and iteration cost. Every such difference is a field below, and the
//! engine reads it at the one place the behaviour happens.

use rheem_core::channel::ChannelKind;
use rheem_core::plan::OpKind;
use rheem_core::platform::{ids, PlatformId};

/// Spark's RDD channel: consumed exactly once (Spark recomputes lineage
/// otherwise).
pub const RDD: ChannelKind = ChannelKind("spark.rdd");
/// A cached RDD: reusable across consumers (`RDD.cache()`, Fig. 3(b)'s
/// Cache operator).
pub const RDD_CACHED: ChannelKind = ChannelKind("spark.rdd.cached");
/// Flink's pipelined DataSet channel (consumed once).
pub const DATASET: ChannelKind = ChannelKind("flink.dataset");

/// What an engine reports to the job trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    /// One event per exchange (`op`, `bytes`, `partitions`): Spark's
    /// shuffle boundaries.
    PerExchange(&'static str),
    /// One event per executed operator (`workers`, `partitions`,
    /// `in_card`): Flink's job vertices.
    PerVertex(&'static str),
}

/// One engine flavor. Not a trait: the engine is the same code for both,
/// parameterized by this table.
#[derive(Debug)]
pub struct Flavor {
    /// Platform id; also the cost-learner key prefix (`spark.map.alpha`).
    pub id: PlatformId,
    /// Prefix of every operator name (`SparkChain3`, `FlinkCollect`).
    pub name: &'static str,
    /// The native dataset channel (consumed once).
    pub channel: ChannelKind,
    /// A reusable cached channel, with the Cache/Uncache/SaveTextFile
    /// conversions that only an engine with an RDD cache offers.
    pub cached: Option<ChannelKind>,
    /// Per-quantum cycle costs by operator kind.
    pub alpha: &'static [(OpKind, f64)],
    /// Per-quantum cycles of kinds not in [`Flavor::alpha`].
    pub alpha_other: f64,
    /// Job-submission δ paid by the first segment of a stage.
    pub submit_delta: f64,
    /// Per-quantum cycles of a fused narrow chain.
    pub fused_alpha: f64,
    /// PageRank work per edge, relative to one pass over the edges.
    pub pagerank_size: f64,
    /// Share of the edge bytes exchanged per PageRank iteration.
    pub pagerank_iter_bytes: f64,
    /// Fixed ms of shipping broadcast variables to the executors.
    pub broadcast_ms: f64,
    /// Task overheads a global `Count` pays.
    pub count_tasks: f64,
    /// Name suffix and learner token of the driver → dataset conversion.
    pub parallelize: (&'static str, &'static str),
    /// δ of the driver hand-off conversions (Collect, Parallelize).
    pub handoff_delta: f64,
    /// Fixed ms of the driver hand-off conversions.
    pub handoff_ms: f64,
    /// δ of reading a file channel into a dataset (α is the text
    /// source's).
    pub read_delta: f64,
    /// Fixed task count of a file read; `None` splits by size.
    pub read_tasks: Option<u32>,
    /// Wide operators that may end a chained pipeline.
    pub chain_anchors: &'static [OpKind],
    /// What the engine reports to the job trace.
    pub trace: Trace,
}

impl Flavor {
    /// Spark: higher job-submission and per-record costs, a reusable RDD
    /// cache, full contribution shuffles per PageRank iteration, and
    /// pipelining only into a terminal `ReduceBy`.
    pub const SPARK: Flavor = Flavor {
        id: ids::SPARK,
        name: "Spark",
        channel: RDD,
        cached: Some(RDD_CACHED),
        alpha: &[
            (OpKind::Map, 220.0),
            (OpKind::FlatMap, 340.0),
            (OpKind::Filter, 180.0),
            (OpKind::SargFilter, 180.0),
            (OpKind::Project, 130.0),
            (OpKind::Sample, 90.0),
            (OpKind::SortBy, 1_200.0),
            (OpKind::Distinct, 500.0),
            (OpKind::Count, 40.0),
            (OpKind::GroupBy, 650.0),
            (OpKind::Reduce, 280.0),
            (OpKind::ReduceBy, 550.0),
            (OpKind::Union, 60.0),
            (OpKind::Join, 700.0),
            (OpKind::Cartesian, 120.0),
            (OpKind::InequalityJoin, 150.0),
            (OpKind::PageRank, 1_000.0),
            (OpKind::TextFileSource, 260.0),
        ],
        alpha_other: 140.0,
        submit_delta: 20_000.0,
        fused_alpha: 220.0,
        pagerank_size: 12.0,
        pagerank_iter_bytes: 0.5,
        broadcast_ms: 1.0,
        count_tasks: 2.0,
        parallelize: ("Parallelize", "parallelize"),
        handoff_delta: 10_000.0,
        handoff_ms: 0.5,
        read_delta: 15_000.0,
        read_tasks: None,
        chain_anchors: &[OpKind::ReduceBy],
        trace: Trace::PerExchange("spark.shuffle"),
    };

    /// Flink: operator chaining (managed memory makes narrow operators
    /// cheaper, and a chain may end in any keyed wide operator), lower
    /// job-submission overhead, and delta iterations that ship only
    /// changed state.
    pub const FLINK: Flavor = Flavor {
        id: ids::FLINK,
        name: "Flink",
        channel: DATASET,
        cached: None,
        alpha: &[
            (OpKind::Map, 170.0),
            (OpKind::FlatMap, 260.0),
            (OpKind::Filter, 140.0),
            (OpKind::SargFilter, 140.0),
            (OpKind::Project, 100.0),
            (OpKind::Sample, 80.0),
            (OpKind::SortBy, 1_100.0),
            (OpKind::Distinct, 460.0),
            (OpKind::Count, 35.0),
            (OpKind::GroupBy, 600.0),
            (OpKind::Reduce, 240.0),
            (OpKind::ReduceBy, 500.0),
            (OpKind::Union, 50.0),
            (OpKind::Join, 640.0),
            (OpKind::Cartesian, 130.0),
            (OpKind::InequalityJoin, 160.0),
            (OpKind::PageRank, 850.0),
            (OpKind::TextFileSource, 230.0),
        ],
        alpha_other: 120.0,
        submit_delta: 12_000.0,
        fused_alpha: 170.0,
        pagerank_size: 11.0,
        pagerank_iter_bytes: 0.25,
        broadcast_ms: 0.5,
        count_tasks: 1.0,
        parallelize: ("FromCollection", "fromcollection"),
        handoff_delta: 8_000.0,
        handoff_ms: 0.4,
        read_delta: 12_000.0,
        read_tasks: Some(8),
        chain_anchors: &[OpKind::ReduceBy, OpKind::GroupBy, OpKind::Distinct],
        trace: Trace::PerVertex("flink.vertex"),
    };

    /// Cost-learner key prefix (the platform id).
    pub fn key(&self) -> &'static str {
        self.id.0
    }

    /// Per-quantum cycle cost of an operator kind.
    pub fn alpha(&self, kind: OpKind) -> f64 {
        self.alpha.iter().find(|(k, _)| *k == kind).map_or(self.alpha_other, |&(_, a)| a)
    }

    /// Every channel an operator of this flavor consumes.
    pub fn channels(&self) -> Vec<ChannelKind> {
        std::iter::once(self.channel).chain(self.cached).collect()
    }
}
