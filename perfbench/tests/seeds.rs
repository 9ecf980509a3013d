//! Seed hygiene: inputs are a pure function of the seed, different seeds
//! give different inputs, and the exact counts of a traced run repeat.

use locmps_core::LocMps;
use locmps_perfbench::inputs::{
    paper_slice, search_case, serve_job_list, JobList, DEFAULT_SEED, HELD_OUT_SEED,
};
use locmps_perfbench::layers::{offline_layers, request_layers};
use locmps_perfbench::offline::run_unit;
use locmps_perfbench::serve::svc_layer;
use locmps_perfbench::trace::Tracer;
use locmps_serve::graph_fingerprint;

fn paper_fingerprints(seed: u64) -> Vec<u64> {
    paper_slice(seed, 0)
        .iter()
        .map(|c| graph_fingerprint(&c.graph))
        .collect()
}

fn job_list_key(seed: u64) -> Vec<(u64, usize, String)> {
    let list = serve_job_list(seed, 0);
    list.requests
        .iter()
        .map(|r| (list.jobs[r.job].fingerprint, r.tenant, r.body.clone()))
        .collect()
}

#[test]
fn same_seed_same_inputs() {
    assert_eq!(
        paper_fingerprints(DEFAULT_SEED),
        paper_fingerprints(DEFAULT_SEED)
    );
    assert_eq!(
        graph_fingerprint(&search_case(DEFAULT_SEED, 0).graph),
        graph_fingerprint(&search_case(DEFAULT_SEED, 0).graph)
    );
    assert_eq!(job_list_key(DEFAULT_SEED), job_list_key(DEFAULT_SEED));
}

#[test]
fn different_seeds_different_inputs() {
    for (a, b) in [
        (DEFAULT_SEED, HELD_OUT_SEED),
        (DEFAULT_SEED, DEFAULT_SEED + 1),
    ] {
        let (pa, pb) = (paper_fingerprints(a), paper_fingerprints(b));
        assert!(
            pa.iter().zip(&pb).all(|(x, y)| x != y),
            "every paper graph is relabelled"
        );
        assert_ne!(
            graph_fingerprint(&search_case(a, 0).graph),
            graph_fingerprint(&search_case(b, 0).graph)
        );
        assert_ne!(job_list_key(a), job_list_key(b));
    }
}

#[test]
fn serve_job_list_shape() {
    let list = serve_job_list(HELD_OUT_SEED, 0);
    let mut fps: Vec<u64> = list.jobs.iter().map(|j| j.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(
        fps.len(),
        list.jobs.len(),
        "distinct jobs have distinct cache keys"
    );
    for j in 0..list.jobs.len() {
        assert!(
            list.requests.iter().any(|r| r.job == j),
            "every job is requested"
        );
    }
    assert!(
        list.repeat_share() > 0.9,
        "most requests repeat a hot fingerprint"
    );
}

/// The exact counts of the traced run (`locmps.*`, `commcost.transfers`,
/// `timeline.queries`, `svc.schedules_computed`) on a small slice.
fn exact_counts(seed: u64) -> Vec<(String, f64)> {
    let cases: Vec<_> = paper_slice(seed, 0).into_iter().step_by(5).collect();
    let mut tracer = Tracer::new();
    let unit = run_unit(&LocMps::default(), &cases, Some(&mut tracer));
    let m = offline_layers(&mut tracer, &cases, &unit.outputs, &unit.walls);
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-seeds-{seed}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let jobs = JobList::from_graphs(cases.iter().map(|c| &c.graph), "psonline");
    request_layers(&mut tracer, &jobs, &dir.join("layer.journal"));
    let (svc, errors) = svc_layer(&mut tracer, &jobs, &[1.0], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(errors.is_empty(), "{errors:?}");
    let mut out: Vec<(String, f64)> = [
        "locmps.passes",
        "locmps.memo_hits",
        "locmps.probes_aborted",
        "locmps.commits",
        "commcost.transfers",
        "timeline.queries",
    ]
    .iter()
    .map(|k| (k.to_string(), m.get(k).expect("metric present")))
    .collect();
    out.push((
        "svc.schedules_computed".into(),
        svc.get("svc.schedules_computed").expect("metric"),
    ));
    out
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    let first = exact_counts(DEFAULT_SEED);
    assert!(first.iter().all(|(_, v)| *v > 0.0), "{first:?}");
    assert_eq!(first, exact_counts(DEFAULT_SEED));
}
