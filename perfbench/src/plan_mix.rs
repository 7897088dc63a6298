//! `plan_mix`: one client, closed loop, a fixed round-robin over four
//! small-data jobs with many operators: TPC-H Q5 over a polystore (sf 1),
//! CrocoPR (~10k edges, graph platforms, a loop), SGD (10k points, a loop)
//! and the Data Civilizer join task. Each Q5 and CrocoPR job draws its
//! variant (a `(region, year)` pair; one of three community pairs) by the
//! seed, so some plans repeat and some do not. Here the optimizer does most
//! of the work and the kernels little.
//!
//! A round runs Q5 twice: the four kinds' latencies lie far apart, and
//! with five jobs per round the median job falls inside one kind
//! (CrocoPR) rather than on the gap between two, where it would jump
//! between them from run to run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rheem::core::api::RheemContext;
use rheem::core::value::Value;
use rheem::dataciv::Placement;
use rheem::datagen::tpch::{self, TpchData};
use rheem::datagen::Rng;
use rheem::platform_postgres::{PgDatabase, PostgresPlatform};

use crate::measure::{JobSpec, Measured};
use crate::refs;
use crate::spans::Tracer;

const TPCH_SF: f64 = 1.0;
const COMMUNITY_EDGES: usize = 10_000;
const SGD_POINTS: usize = 10_000;
const SGD_DIMS: usize = 4;
/// The all-zero start has hinge loss 1; 15 mini-batch steps must cut it
/// well below that.
const SGD_LOSS_BOUND: f64 = 0.8;
const CROCOPR_ITERATIONS: u32 = 5;
/// Q5 `(region, year)` pairs and CrocoPR community pairs.
const VARIANTS: usize = 3;
/// Job kinds of one round, as offsets into the job table.
const ROUND: [Kind; 5] = [Kind::Q5, Kind::CrocoPr, Kind::Sgd, Kind::Q5, Kind::Join];

#[derive(Clone, Copy)]
enum Kind {
    Q5,
    CrocoPr,
    Sgd,
    Join,
}

pub struct State {
    ctx: RheemContext,
    jobs: Vec<JobSpec>,
}

fn sgd_config() -> rheem::ml4all::SgdConfig {
    rheem::ml4all::SgdConfig { dims: SGD_DIMS, iterations: 15, batch: 64, ..Default::default() }
}

fn file_bytes(path: &Path) -> u64 {
    rheem::storage::stat(path).expect("generated input exists").0
}

/// Q5's placement: LINEITEM and ORDERS on HDFS, NATION on the local file
/// system (inside the set-up directory), the rest in the relational store.
fn place(data: &TpchData, dir: &Path) -> Placement {
    let db = Arc::new(PgDatabase::new());
    let cols = |c: &[&str]| c.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    db.load_table("customer", cols(&["custkey", "name", "nationkey"]), data.customer.clone());
    db.load_table("supplier", cols(&["suppkey", "name", "nationkey"]), data.supplier.clone());
    db.load_table("region", cols(&["regionkey", "name"]), data.region.clone());
    let placement = Placement {
        lineitem: PathBuf::from("hdfs://tpch/lineitem.tbl"),
        orders: PathBuf::from("hdfs://tpch/orders.tbl"),
        nation: dir.join("nation.tbl"),
        db,
    };
    for (path, rows) in [
        (&placement.lineitem, &data.lineitem),
        (&placement.orders, &data.orders),
        (&placement.nation, &data.nation),
    ] {
        rheem::storage::write_lines(path, rows.iter().map(tpch::row_to_line))
            .expect("write TPC-H table");
    }
    placement
}

type Edges = Vec<(i64, i64)>;

/// Two link communities sharing most edges: B keeps two thirds of A's
/// edges and adds a chain of its own.
fn communities(seed: u64) -> (Edges, Edges) {
    let a = rheem::datagen::generate_graph(COMMUNITY_EDGES / 4, 4, seed);
    let b = a
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, e)| *e)
        .chain((0..COMMUNITY_EDGES as i64 / 10).map(|i| (i, i + 1)))
        .collect();
    (a, b)
}

/// Every generated input of the workload.
struct Inputs {
    data: TpchData,
    placement: Placement,
    q5_params: Vec<(&'static str, i64)>,
    /// Per variant: the two community files and their edges.
    communities: Vec<([PathBuf; 2], [Edges; 2])>,
    sgd_path: PathBuf,
    points: Vec<Value>,
}

pub fn setup(seed: u64, dir: &Path) -> State {
    let data = tpch::generate(TPCH_SF, seed);
    let placement = place(&data, dir);

    let communities = (0..VARIANTS)
        .map(|v| {
            let (a, b) = communities(seed * 1000 + v as u64);
            let files = ["a", "b"].map(|c| PathBuf::from(format!("hdfs://crocopr/{v}{c}.edges")));
            for (path, edges) in files.iter().zip([&a, &b]) {
                rheem::datagen::graph::write_graph(path, edges).expect("write community");
            }
            (files, [a, b])
        })
        .collect();

    let set = rheem::datagen::generate_points(SGD_POINTS, SGD_DIMS, 0.05, seed);
    let sgd_path = PathBuf::from("hdfs://sgd/points.csv");
    rheem::datagen::points::write_points(&sgd_path, &set).expect("write points");

    let mut rng = Rng::new(seed);
    let mut q5_params = Vec::new();
    while q5_params.len() < VARIANTS {
        let p = (tpch::REGIONS[rng.below(5) as usize], 1992 + rng.below(7) as i64);
        if !q5_params.contains(&p) {
            q5_params.push(p);
        }
    }

    let mut ctx = rheem_bench::graph_context();
    ctx.register_platform(&PostgresPlatform::new(Arc::clone(&placement.db)));
    let ctx = crate::pinned(ctx, None);
    let jobs =
        jobs(Inputs { data, placement, q5_params, communities, sgd_path, points: set.points });
    for kind in [Kind::Q5, Kind::CrocoPr, Kind::Sgd, Kind::Join] {
        ctx.execute(&(jobs[kind.first_job()].build)().0).expect("warm-up job");
    }
    State { ctx, jobs }
}

impl Kind {
    /// Index of the kind's first job in the job table.
    fn first_job(self) -> usize {
        match self {
            Kind::Q5 => 0,
            Kind::CrocoPr => VARIANTS,
            Kind::Sgd => 2 * VARIANTS,
            Kind::Join => 2 * VARIANTS + 1,
        }
    }

    fn variants(self) -> usize {
        match self {
            Kind::Q5 | Kind::CrocoPr => VARIANTS,
            Kind::Sgd | Kind::Join => 1,
        }
    }
}

/// The job table with reference answers: `VARIANTS` Q5 jobs, `VARIANTS`
/// CrocoPR jobs, SGD, the join task.
fn jobs(inp: Inputs) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let p = &inp.placement;
    let q5_reads = vec![p.lineitem.clone(), p.orders.clone(), p.nation.clone()];
    let q5_bytes = q5_reads.iter().map(|f| file_bytes(f)).sum();
    for &(region, year) in &inp.q5_params {
        let expected = refs::q5(&inp.data, region, year);
        let placement = Placement {
            lineitem: p.lineitem.clone(),
            orders: p.orders.clone(),
            nation: p.nation.clone(),
            db: Arc::clone(&p.db),
        };
        jobs.push(JobSpec {
            kind: "q5",
            build: Box::new(move || {
                rheem::dataciv::build_q5_plan(&placement, region, year).expect("Q5 plan")
            }),
            check: Box::new(move |out| refs::check_q5(out, &expected)),
            reads: q5_reads.clone(),
            input_bytes: q5_bytes,
        });
    }
    for (files, [a, b]) in &inp.communities {
        let pages = refs::crocopr_pages(a, b);
        let [fa, fb] = files.clone();
        jobs.push(JobSpec {
            kind: "crocopr",
            build: Box::new(move || {
                let source = rheem::xdb::CrocoSource::Files(fa.clone(), fb.clone());
                rheem::xdb::build_crocopr_plan(source, CROCOPR_ITERATIONS).expect("CrocoPR plan")
            }),
            check: Box::new(move |out| refs::check_crocopr(out, &pages)),
            reads: files.to_vec(),
            input_bytes: files.iter().map(|f| file_bytes(f)).sum(),
        });
    }
    let (csv, points) = (inp.sgd_path.clone(), inp.points);
    jobs.push(JobSpec {
        kind: "sgd",
        build: Box::new(move || {
            let source = rheem::ml4all::PointSource::Csv(csv.clone());
            rheem::ml4all::build_sgd_plan(source, &sgd_config()).expect("SGD plan")
        }),
        check: Box::new(move |out| refs::check_sgd(out, &points, SGD_DIMS, SGD_LOSS_BOUND)),
        reads: vec![inp.sgd_path.clone()],
        input_bytes: file_bytes(&inp.sgd_path),
    });
    let expected = refs::join_task(&inp.data);
    let db = Arc::clone(&p.db);
    jobs.push(JobSpec {
        kind: "join",
        build: Box::new(move || rheem::dataciv::build_join_task(&db).expect("join plan")),
        check: Box::new(move |out| refs::check_join_task(out, &expected)),
        reads: Vec::new(),
        input_bytes: 0,
    });
    jobs
}

pub fn run(s: &State, seed: u64, seconds: f64, tracer: Option<Tracer>) -> Measured {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9);
    let pick = move |i: usize| {
        let kind = ROUND[i % ROUND.len()];
        kind.first_job() + rng.below(kind.variants() as u64) as usize
    };
    crate::measure::run_direct(&s.ctx, &s.jobs, pick, ROUND.len(), seconds, tracer)
}
