//! The offline workloads, `paper-suite` and `search-scale`: timed LoC-MPS
//! schedule calls over seeded inputs, with the correctness gate.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use locmps_analysis::analyze_schedule;
use locmps_core::{
    makespan_lower_bound, CommModel, LocMps, LocMpsConfig, Scheduler, SchedulerOutput,
};

use crate::calib::HostClock;
use crate::inputs::{paper_slice, search_case, Case, JobList};
use crate::stats::{geomean, median, peak_rss_mb, percentile, Metrics};
use crate::trace::Tracer;
use crate::{layers, serve, Outcome, Traced, SETUP_MIN_SECONDS, SETUP_REPEATS};

/// Refinement rounds `search-scale` allows LoC-MPS (the default is
/// unbounded; one round of (500, 64) is ~120 full LoCBS passes).
pub const SEARCH_MAX_ROUNDS: usize = 1;

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// The paper slice, default LoC-MPS.
    PaperSuite,
    /// One (500, 64) graph, LoC-MPS capped at [`SEARCH_MAX_ROUNDS`].
    SearchScale,
}

impl Offline {
    /// The workload's inputs for `seed` and `draw`.
    pub fn cases(self, seed: u64, draw: u64) -> Vec<Case> {
        match self {
            Offline::PaperSuite => paper_slice(seed, draw),
            Offline::SearchScale => vec![search_case(seed, draw)],
        }
    }

    /// The scheduler under test.
    pub fn scheduler(self) -> LocMps {
        match self {
            Offline::PaperSuite => LocMps::default(),
            Offline::SearchScale => LocMps::new(LocMpsConfig {
                max_rounds: SEARCH_MAX_ROUNDS,
                ..LocMpsConfig::default()
            }),
        }
    }
}

/// One pass over the cases: per-case wall seconds and outputs.
pub struct Unit {
    /// Wall seconds of each `Scheduler::schedule` call.
    pub walls: Vec<f64>,
    /// What each call returned.
    pub outputs: Vec<SchedulerOutput>,
}

impl Unit {
    /// Summed wall seconds of the unit's schedule calls.
    pub fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// Schedules every case once; with a tracer, each call is a
/// `core.locmps.schedule` span whose id is the case index.
pub fn run_unit(sched: &LocMps, cases: &[Case], mut tracer: Option<&mut Tracer>) -> Unit {
    let mut walls = Vec::with_capacity(cases.len());
    let mut outputs = Vec::with_capacity(cases.len());
    for (i, c) in cases.iter().enumerate() {
        let call = || sched.schedule(black_box(&c.graph), &c.cluster);
        let t0 = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(t) => t.span("core.locmps.schedule", i as u64, |_| call()),
            None => call(),
        };
        walls.push(t0.elapsed().as_secs_f64());
        let out = out.unwrap_or_else(|e| panic!("{}: LoC-MPS failed: {e}", c.label));
        outputs.push(black_box(out));
    }
    Unit { walls, outputs }
}

/// Times set-ups of draws 0, 1, 2, … until at least [`SETUP_REPEATS`]
/// have run and [`SETUP_MIN_SECONDS`] have passed; returns their median
/// wall seconds and the inputs of the first `keep` draws.
pub fn timed_setups<T>(keep: usize, mut setup: impl FnMut(u64) -> T) -> (f64, Vec<T>) {
    let mut times = Vec::new();
    let mut kept = Vec::with_capacity(keep);
    let started = Instant::now();
    while times.len() < SETUP_REPEATS.max(keep)
        || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        let draw = times.len() as u64;
        let t0 = Instant::now();
        let v = black_box(setup(draw));
        times.push(t0.elapsed().as_secs_f64());
        if kept.len() < keep {
            kept.push(v);
        }
    }
    (median(&times), kept)
}

/// LM1xx errors the analyzer finds in one case's schedule.
pub fn schedule_errors(case: &Case, out: &SchedulerOutput) -> Vec<String> {
    let model = CommModel::new(&case.cluster);
    analyze_schedule(&out.schedule, &case.graph, &model)
        .diagnostics()
        .iter()
        .filter(|d| d.code.starts_with("LM1") && d.severity == locmps_analysis::Severity::Error)
        .map(|d| format!("{}: {} {}", case.label, d.code, d.message))
        .collect()
}

/// Units an untraced run prepares inputs for; a run that is still short
/// of `--seconds` after these starts over at draw 0.
const MAX_UNITS: usize = 16;

/// The untraced run: repeated set-ups, then one unit per draw while the
/// next unit still fits in `seconds`.
///
/// Every time is a best-of-N: on a shared VM, neighbours slow a run by up
/// to 40 % for tens of seconds at a time, and interference only ever adds
/// time, so each case's fastest call across the run's units is far
/// steadier than any mean or median. Times are then divided by the run's
/// host factor (see [`crate::calib`] and `METRICS.md`).
pub fn run(w: Offline, seed: u64, seconds: f64) -> Outcome {
    let mut clock = HostClock::default();
    clock.sample();
    let (setup_s, inputs) = timed_setups(MAX_UNITS, |draw| w.cases(seed, draw));
    let sched = w.scheduler();
    let started = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    while units
        .last()
        .is_none_or(|u| started.elapsed().as_secs_f64() + u.wall() <= seconds)
    {
        clock.sample();
        units.push(run_unit(&sched, &inputs[units.len() % MAX_UNITS], None));
    }
    clock.sample();
    let f = clock.factor();

    // Correctness, outside every timed region: every schedule is
    // analyzer-clean. (The traced run checks bit-for-bit repeatability.)
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut ratios = Vec::new();
    for (k, unit) in units.iter().enumerate() {
        for (case, out) in inputs[k % MAX_UNITS].iter().zip(&unit.outputs) {
            let errs = schedule_errors(case, out);
            failed += u64::from(!errs.is_empty());
            errors.extend(errs);
            ratios.push(out.makespan() / makespan_lower_bound(&case.graph, case.cluster.n_procs));
        }
    }
    let attempted = (units.len() * inputs[0].len()) as u64;
    // Per case (slot of the slice), its fastest call across the units.
    let best_ms: Vec<f64> = (0..inputs[0].len())
        .map(|i| {
            units
                .iter()
                .map(|u| u.walls[i])
                .fold(f64::INFINITY, f64::min)
                * 1e3
        })
        .collect();
    let sched_wall_s = best_ms.iter().sum::<f64>() / 1e3;
    let unit_walls: Vec<f64> = units.iter().map(Unit::wall).collect();

    let (p50, p99) = (percentile(&best_ms, 0.50).0, percentile(&best_ms, 0.99).0);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s / f, "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("sched_wall_s", sched_wall_s / f, "s");
    m.set("makespan_ratio", geomean(&ratios), "ratio");
    m.set(
        "success_share",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    m.set("latency_p50_ms", p50 / f, "ms");
    m.set("latency_p99_ms", p99 / f, "ms");
    m.set("jobs_per_s", best_ms.len() as f64 / sched_wall_s * f, "1/s");
    let notes = vec![
        format!(
            "host_factor={f:.4} raw: setup_s={setup_s:.6} sched_wall_s={sched_wall_s:.4} \
             latency_p50_ms={p50:.3} latency_p99_ms={p99:.3}"
        ),
        format!(
            "cases/unit={} units={} unit_walls_s={:?} median_unit_s={:.4}",
            inputs[0].len(),
            units.len(),
            unit_walls
                .iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            median(&unit_walls)
        ),
        format!(
            "latency samples={} (each case's fastest call; p99 is their maximum, 0 beyond)",
            best_ms.len()
        ),
    ];
    Outcome {
        metrics: m,
        attempted,
        failed,
        errors,
        notes,
    }
}

/// The workload part of the traced run: draw 0 once untraced and once
/// traced, the offline and registry layers over the traced results, and an
/// HTTP pass of the cases as `psonline` jobs for the serve layers.
pub fn traced(
    w: Offline,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Traced {
    let cases = w.cases(seed, 0);
    let sched = w.scheduler();
    let plain = run_unit(&sched, &cases, None);
    let unit = run_unit(&sched, &cases, Some(tracer));
    for ((case, a), b) in cases.iter().zip(&plain.outputs).zip(&unit.outputs) {
        if a.makespan().to_bits() != b.makespan().to_bits() {
            out.errors.push(format!(
                "{}: traced makespan differs from untraced",
                case.label
            ));
        }
        out.errors.extend(schedule_errors(case, b));
    }
    out.attempted += 2 * cases.len() as u64;
    out.metrics.extend(layers::offline_layers(
        tracer,
        &cases,
        &unit.outputs,
        &unit.walls,
    ));
    let all: Vec<&Case> = cases.iter().collect();
    out.metrics
        .extend(layers::registry_layers(tracer, &all, &all, &unit.walls));

    let jobs = JobList::from_graphs(cases.iter().map(|c| &c.graph), "psonline");
    let p = serve::pass(
        serve::Daemon::start(&work.join("serve.journal")),
        &jobs,
        true,
    );
    out.errors.extend(p.errors);
    Traced {
        http_ms: p.replies.iter().map(serve::Reply::latency_ms).collect(),
        jobs,
        untraced_s: plain.wall(),
        traced_s: unit.wall(),
    }
}
