//! The repository benchmark: one command per workload prints every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) and checks that every output is correct. `METRICS.md` maps each
//! metric to its layer and to the end-to-end metric it should move.

pub mod calib;
pub mod inputs;
pub mod layers;
pub mod offline;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::Path;

use inputs::JobList;
use offline::Offline;
use stats::Metrics;
use trace::Tracer;

/// Minimum set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Set-ups keep repeating until this many seconds have passed, so a
/// set-up of a millisecond is timed hundreds of times.
pub const SETUP_MIN_SECONDS: f64 = 0.2;

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["paper-suite", "search-scale", "serve-mixed"];

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics to print.
    pub metrics: Metrics,
    /// Operations attempted (schedule calls or requests).
    pub attempted: u64,
    /// Operations that did not finish correct.
    pub failed: u64,
    /// Every correctness failure found.
    pub errors: Vec<String>,
    /// Lines for the run header (sample counts and the like).
    pub notes: Vec<String>,
}

/// The untraced run of `workload`: every end-to-end metric.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64, work: &Path) -> Outcome {
    match workload {
        "paper-suite" => offline::run(Offline::PaperSuite, seed, seconds),
        "search-scale" => offline::run(Offline::SearchScale, seed, seconds),
        "serve-mixed" => serve::run(seed, seconds, work),
        other => panic!("unknown workload {other:?}"),
    }
}

/// What the workload part of a traced run hands to the shared layers.
pub struct Traced {
    /// The request list the serve layers re-issue.
    pub jobs: JobList,
    /// Client latencies (ms) of an HTTP pass over `jobs`.
    pub http_ms: Vec<f64>,
    /// Wall seconds of the workload's operations, untraced.
    pub untraced_s: f64,
    /// Wall seconds of the same operations, traced.
    pub traced_s: f64,
}

/// The traced run of `workload`: the workload's operations once untraced
/// and once traced (for `trace.overhead_share`), then every layer's
/// measurements over the same inputs. Spans are written to `spans`.
pub fn run_traced(workload: &str, seed: u64, work: &Path, spans: &Path) -> Outcome {
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    let t = match workload {
        "paper-suite" => offline::traced(Offline::PaperSuite, seed, work, &mut tracer, &mut out),
        "search-scale" => offline::traced(Offline::SearchScale, seed, work, &mut tracer, &mut out),
        "serve-mixed" => serve::traced(seed, work, &mut tracer, &mut out),
        other => panic!("unknown workload {other:?}"),
    };
    out.metrics.extend(layers::request_layers(
        &mut tracer,
        &t.jobs,
        &work.join("layer.journal"),
    ));
    let (svc, errors) = serve::svc_layer(&mut tracer, &t.jobs, &t.http_ms, work);
    out.metrics.extend(svc);
    out.errors.extend(errors);
    out.attempted += t.jobs.requests.len() as u64;
    out.metrics.set(
        "trace.overhead_share",
        (t.traced_s - t.untraced_s) / t.untraced_s,
        "ratio",
    );
    out.notes.push(format!(
        "spans={} written to {}",
        tracer.spans().len(),
        spans.display()
    ));
    if let Err(e) = tracer.write(spans) {
        out.errors.push(format!("writing spans: {e}"));
    }
    out.failed = out.failed.max(out.errors.len() as u64);
    out
}
