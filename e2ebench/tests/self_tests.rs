//! Self-tests of the benchmark's own logic (no workload is run here).

use std::collections::BTreeSet;

use gncg_e2ebench::check::{fnv1a, line_digests, reference, OutputCheck};
use gncg_e2ebench::report::{result_line, Metric};
use gncg_e2ebench::stats::{median, percentile, summarize};
use gncg_e2ebench::workloads::{
    service_schedule, Step, Workload, DEFAULT_SEED, SERVICE_NEW_SPECS, SERVICE_SPEC_CELLS,
};
use gncg_suite::scenario::cell_digest;

#[test]
fn every_workload_spec_validates_and_expands_to_its_cell_count() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            let specs = w.specs(seed);
            let mut cells = 0;
            for spec in &specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert_eq!(
                    spec.base_seed,
                    seed,
                    "{}: seed must be the base seed",
                    w.name()
                );
                cells += spec.expand().len();
            }
            assert_eq!(cells, w.expected_cells(), "{}", w.name());
        }
    }
    assert_eq!(Workload::LargeNAdd.specs(0)[0].expand()[0].n, 1024);
    let service = Workload::ServiceMix.specs(0);
    assert_eq!(service.len(), SERVICE_NEW_SPECS);
    assert!(service.iter().all(|s| s.cell_count() == SERVICE_SPEC_CELLS));
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Ok(w));
    }
    assert!(Workload::parse("large-n").is_err());
}

#[test]
fn percentile_helper_reports_its_sample_count() {
    let values: Vec<f64> = (1..=11).map(f64::from).collect();
    let s = summarize(&values).expect("non-empty");
    assert_eq!(s.samples, 11);
    assert_eq!(s.p50, 6.0);
    assert_eq!(s.p90, 10.0);
    assert_eq!(summarize(&[]), None);
    assert_eq!(median(&[3.0, 1.0]), Some(2.0));
    assert_eq!(percentile(&[5.0], 0.9), Some(5.0));
}

#[test]
fn service_schedule_is_the_same_sequence_for_the_same_seed() {
    assert_eq!(service_schedule(3), service_schedule(3));
    assert_ne!(service_schedule(3), service_schedule(4));
    let schedule = service_schedule(DEFAULT_SEED);
    assert_eq!(schedule.len(), 2 * SERVICE_NEW_SPECS);
    for (i, step) in schedule.iter().enumerate() {
        let k = i / 2;
        match *step {
            Step::New(j) => assert!(i % 2 == 0 && j == k, "step {i}: {step:?}"),
            Step::Resubmit(j) => assert!(i % 2 == 1 && j <= k, "step {i}: {step:?}"),
        }
    }
}

#[test]
fn new_service_specs_never_share_a_cache_entry() {
    let digests: BTreeSet<u64> = Workload::ServiceMix
        .specs(DEFAULT_SEED)
        .iter()
        .flat_map(|s| s.expand())
        .map(|c| cell_digest(&c))
        .collect();
    assert_eq!(digests.len(), SERVICE_NEW_SPECS * SERVICE_SPEC_CELLS);
}

#[test]
fn references_cover_every_workload_at_the_default_seed() {
    for w in Workload::ALL {
        let digests = reference(w, DEFAULT_SEED).unwrap_or_else(|| panic!("{}", w.name()));
        assert_eq!(digests.len(), w.expected_cells(), "{}", w.name());
    }
}

#[test]
fn output_check_counts_mismatched_and_uncertified_lines() {
    let good = "{\"outcome\":\"converged\",\"certified\":true}\n{\"outcome\":\"cycle\"}\n";
    let mut check = OutputCheck::new(Workload::BrExact, u64::MAX);
    check.check_pass("first", good);
    check.check_pass("repeat", good);
    assert_eq!((check.attempted, check.failed), (4, 0));
    check.check_pass(
        "changed",
        "{\"outcome\":\"converged\",\"certified\":true}\n",
    );
    assert_eq!((check.attempted, check.failed), (6, 1));
    let mut uncertified = OutputCheck::new(Workload::BrExact, u64::MAX);
    uncertified.check_pass("first", "{\"outcome\":\"converged\",\"certified\":false}\n");
    assert_eq!(uncertified.failed, 1);
    assert_eq!(line_digests("a\nb"), vec![fnv1a(b"a\n"), fnv1a(b"b")]);
}

#[test]
fn result_line_is_json_with_the_four_keys() {
    let line = result_line(
        true,
        3,
        0,
        &[Metric {
            name: "wall_s",
            value: 1.25,
            unit: "s",
        }],
    );
    let v = gncg_service::json::parse(&line).expect("valid JSON");
    assert_eq!(v.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(v.get("attempted").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(v.get("failed").and_then(|v| v.as_u64()), Some(0));
    let wall = v
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("metric");
    assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
    assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
}
