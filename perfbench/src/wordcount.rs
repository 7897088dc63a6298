//! `wordcount_6m`: one client, closed loop, WordCount over a seeded ~6 MiB
//! Zipf corpus with the cache off and a free platform choice. At this size
//! the optimizer picks a partitioned engine and re-plans once mid-job, so
//! the executor, the progressive re-planner and storage do nearly all the
//! work and the optimizer almost none.

use std::path::{Path, PathBuf};

use rheem::core::api::RheemContext;
use rheem_bench::wordcount_plan;

use crate::measure::{JobSpec, Measured};
use crate::refs;
use crate::spans::Tracer;

const CORPUS_BYTES: usize = 6 << 20;
/// The corpus generator's average line length, bytes.
const LINE_BYTES: usize = 60;

pub struct State {
    ctx: RheemContext,
    job: JobSpec,
}

pub fn setup(seed: u64, _dir: &Path) -> State {
    let lines = rheem::datagen::generate_text(CORPUS_BYTES / LINE_BYTES, 10, 50_000, seed);
    let path = PathBuf::from("hdfs://wordcount/corpus.txt");
    let input_bytes = rheem::storage::write_lines(&path, &lines).expect("write corpus");
    let expected = refs::word_counts(&lines, false);
    let job = JobSpec {
        kind: "wordcount",
        build: Box::new({
            let path = path.clone();
            move || wordcount_plan(&path).expect("wordcount plan")
        }),
        check: Box::new(move |out| refs::check_word_counts(out, &expected)),
        reads: vec![path],
        input_bytes,
    };
    let ctx = crate::pinned(rheem_bench::default_context(), None);
    ctx.execute(&(job.build)().0).expect("warm-up job");
    State { ctx, job }
}

pub fn run(s: &State, seconds: f64, tracer: Option<Tracer>) -> Measured {
    crate::measure::run_direct(&s.ctx, std::slice::from_ref(&s.job), |_| 0, 1, seconds, tracer)
}
