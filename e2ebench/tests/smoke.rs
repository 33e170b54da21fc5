//! Every workload at its smoke size: the correctness gate passes, the
//! digest is the pinned one, the traced run reports per-layer metrics,
//! and a perturbed digest is counted in `error_rate`.

use edn_e2ebench::workloads::digest_units;
use edn_e2ebench::{pinned_digest, run, Config, Report, Workload, DEFAULT_SEED};
use std::path::PathBuf;

fn smoke(workload: Workload, seed: u64, traced: bool, expect_digest: Option<u64>) -> Report {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{seed}-{traced}-{}",
        workload.name(),
        expect_digest.is_some()
    ));
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        traced,
        smoke: true,
        expect_digest,
        scratch,
    })
}

#[test]
fn every_workload_passes_its_gate_with_the_pinned_digest() {
    for workload in Workload::ALL {
        let report = smoke(workload, DEFAULT_SEED, false, None);
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= 1 && report.failed == 0);
        assert_eq!(report.expected_digest, Some(pinned_digest(workload, true)));
        assert_eq!(report.error_rate(), 0.0);
        for name in [
            "offered_per_s",
            "rows_per_s",
            "unit_ms_p50",
            "unit_ms_tail",
            "setup_s",
            "peak_rss_mb",
        ] {
            let value = report
                .metric(name)
                .unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
            assert!(
                value > 0.0 && value.is_finite(),
                "{}: {name} = {value}",
                workload.name()
            );
        }
    }
}

#[test]
fn a_perturbed_digest_is_counted_in_error_rate() {
    let workload = Workload::ResubmitSessions;
    let wrong = pinned_digest(workload, true) ^ 1;
    let report = smoke(workload, DEFAULT_SEED, false, Some(wrong));
    assert_eq!(report.failed, digest_units(workload, true));
    assert!(report.error_rate() > 0.0);
    assert_eq!(report.metric("error_rate"), Some(report.error_rate()));
    assert!(
        report.failures.iter().any(|f| f.contains("digest")),
        "{:?}",
        report.failures
    );
}

#[test]
fn the_seed_alone_determines_the_outcomes() {
    for workload in [Workload::ResubmitSessions, Workload::SweepReplay] {
        let first = smoke(workload, 7, false, None);
        let again = smoke(workload, 7, true, None);
        assert_eq!(
            first.digest,
            again.digest,
            "{}: tracing changed the outcomes",
            workload.name()
        );
        assert_ne!(first.digest, smoke(workload, 8, false, None).digest);
        assert_eq!(
            first.expected_digest, None,
            "only the default seed is pinned"
        );
    }
}

#[test]
fn traced_runs_report_each_layer_of_each_workload() {
    let expect: [(Workload, &[&str]); 4] = [
        (
            Workload::Fabric1m,
            &[
                "fabric.build_ms",
                "fabric.save_ms",
                "fabric.load_ms",
                "engine.build_ms",
                "engine.route_ms_p50",
                "engine.route_ns_per_offered",
                "traffic.fill_ns_per_request",
                "engine.acceptance",
            ],
        ),
        (
            Workload::PaSweep,
            &[
                "sim.estimate_ms_p50",
                "sim.estimate_ns_per_offered",
                "analytic.eq4_us",
                "sweep.plan_ms",
                "sweep.run_table_ms",
                "sweep.self_ms",
                "sweep.finish_ms",
                "sweep.workers",
                "sweep.artifact_bytes",
                "store.table_load_ms",
                "store.lookup_ns",
                "store.computed",
                "store.committed",
            ],
        ),
        (
            Workload::ResubmitSessions,
            &[
                "sim.raedn_run_ms_p50",
                "sim.mimd_run_ms_p50",
                "sim.mimd_ns_per_offered",
                "sim.raedn_cycles_mean",
                "sim.mimd_offered_per_cycle",
            ],
        ),
        (
            Workload::SweepReplay,
            &[
                "sweep.run_table_ms",
                "sweep.finish_ms",
                "store.table_load_ms",
                "store.lookup_ns",
                "store.hits",
                "store.hit_ratio",
            ],
        ),
    ];
    for (workload, names) in expect {
        let report = smoke(workload, DEFAULT_SEED, true, None);
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(!report.spans.is_empty());
        for &name in names {
            let value = report
                .metric(name)
                .unwrap_or_else(|| panic!("{}: no {name}", workload.name()));
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let accounted = report
            .metric("trace.accounted_pct")
            .expect("accounted share");
        assert!((0.0..=100.0).contains(&accounted));
    }
}
