//! # rheem-rs
//!
//! A Rust reproduction of **RHEEM: Enabling Cross-Platform Data Processing**
//! (PVLDB 11(11), 2018) — the system behind the ICDE 2018 tutorial
//! *"Cross-Platform Data Processing: Use Cases and Challenges"* and, later,
//! Apache Wayang.
//!
//! This facade crate re-exports the whole workspace: the core (plans,
//! cross-platform optimizer, executor, monitor, progressive optimizer, cost
//! learner), the platform simulacra (JavaStreams, Spark, Flink, Postgres,
//! Giraph/JGraph/GraphChi), the storage substrate (local FS + HDFS
//! simulacrum), the RheemLatin dataflow language, the paper's applications
//! (BigDansing, ML4all, xDB, Data Civilizer), the single-platform baselines,
//! and the synthetic data generators.
//!
//! ```
//! use rheem::prelude::*;
//!
//! let ctx = rheem::default_context();
//! let mut b = PlanBuilder::new();
//! let sink = b
//!     .collection((0..100i64).map(Value::from).collect::<Vec<_>>())
//!     .map(MapUdf::new("double", |v| Value::from(v.as_int().unwrap() * 2)))
//!     .collect();
//! let plan = b.build().unwrap();
//! let result = ctx.execute(&plan).unwrap();
//! assert_eq!(result.sink(sink).unwrap().len(), 100);
//! ```

#![warn(missing_docs)]

pub use bigdansing;
pub use dataciv;
pub use ml4all;
pub use platform_graph;
pub use platform_javastreams;
pub use platform_partitioned;
pub use platform_postgres;
pub use rheem_baselines as baselines;
pub use rheem_core as core;
pub use rheem_datagen as datagen;
pub use rheem_lang as lang;
pub use rheem_storage as storage;
pub use xdb;

pub use rheem_core::prelude;

use rheem_core::api::RheemContext;

/// A context with the general-purpose platforms registered (JavaStreams,
/// Spark, Flink). Add Postgres/graph platforms per application:
/// `ctx.register_platform(&PostgresPlatform::new(db))`.
pub fn default_context() -> RheemContext {
    RheemContext::new()
        .with_platform(&platform_javastreams::JavaStreamsPlatform::new())
        .with_platform(&platform_partitioned::PartitionedPlatform::spark())
        .with_platform(&platform_partitioned::PartitionedPlatform::flink())
}

/// A context with *every* platform of Fig. 5 registered, backed by the given
/// relational store.
pub fn full_context(db: std::sync::Arc<platform_postgres::PgDatabase>) -> RheemContext {
    let mut ctx = default_context();
    ctx.register_platform(&platform_postgres::PostgresPlatform::new(db));
    ctx.register_platform(&platform_graph::GiraphPlatform::new());
    ctx.register_platform(&platform_graph::JGraphPlatform::new());
    ctx.register_platform(&platform_graph::GraphChiPlatform::new());
    ctx
}
