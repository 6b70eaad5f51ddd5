//! `compare` verdicts on synthetic run sets, its refusals, and the
//! agreement between the metric tables and `BENCHMARK.json`.

use mpt_benchmark::compare::{compare_metric, compare_sets, parse_specs, MetricSpec, Verdict};
use mpt_benchmark::report::{Fact, LoadedRun, Report, END_TO_END, PER_LAYER};
use mpt_benchmark::WORKLOADS;
use mpt_telemetry::json::{self, Value};

fn spec(lower_is_better: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name: "unit_ms_p50".into(),
        unit: "ms".into(),
        lower_is_better,
        bound,
    }
}

#[test]
fn within_the_bound_and_tight_is_ok() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let b = [103.0, 104.0, 102.0, 103.5, 102.5];
    let row = compare_metric(&a, &b, &spec(true, 0.05));
    assert_eq!(row.verdict, Verdict::Ok);
    assert!((row.worse_by - 0.03).abs() < 1e-12);
}

#[test]
fn beyond_the_bound_is_worse_in_the_metric_s_direction() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
    assert_eq!(
        compare_metric(&a, &slower, &spec(true, 0.05)).verdict,
        Verdict::Worse
    );
    // The same numbers are an improvement for a higher-is-better
    // metric, and the reverse order a regression.
    assert_eq!(
        compare_metric(&a, &slower, &spec(false, 0.05)).verdict,
        Verdict::Ok
    );
    assert_eq!(
        compare_metric(&slower, &a, &spec(false, 0.05)).verdict,
        Verdict::Worse
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    let a = [100.0, 80.0, 120.0, 90.0, 110.0];
    let b = [101.0, 81.0, 121.0, 91.0, 111.0];
    let row = compare_metric(&a, &b, &spec(true, 0.05));
    assert!(row.spread > 0.05);
    assert_eq!(row.verdict, Verdict::Unresolved);
    // ... unless every run of B beats every run of A.
    let much_faster = [50.0, 40.0, 60.0, 45.0, 55.0];
    assert_eq!(
        compare_metric(&a, &much_faster, &spec(true, 0.05)).verdict,
        Verdict::Ok
    );
}

fn run(workload: &str, seed: u64, p50: f64, tweak: impl FnOnce(&mut Report)) -> LoadedRun {
    let mut r = Report::new(workload, seed, false);
    r.attempted = 100;
    for (name, _) in END_TO_END {
        r.metric(name, 10.0);
    }
    r.metric("unit_ms_p50", p50);
    for (k, v) in [("host_cores", 2), ("threads", 1), ("seconds", 20)] {
        r.fact(k, Fact::U64(v));
    }
    r.fact("timed_units", Fact::U64(100));
    r.fact("warmup_units", Fact::U64(8));
    r.fact("pinned", Fact::Bool(true));
    r.fact("simd_tier", Fact::Str("avx2".into()));
    r.fact("exact.final_digest", Fact::Str("00ff".into()));
    tweak(&mut r);
    LoadedRun::parse(&r.summary_json()).expect("a report parses back")
}

fn set(p50s: &[f64]) -> Vec<LoadedRun> {
    p50s.iter()
        .enumerate()
        .map(|(i, &v)| run("lenet_cpu", i as u64 + 1, v, |_| {}))
        .collect()
}

fn specs() -> Vec<MetricSpec> {
    parse_specs(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

#[test]
fn an_a_a_pair_passes_and_a_regression_fails() {
    let a = set(&[10.0, 10.1, 9.9]);
    let same = compare_sets(&a, &set(&[10.05, 10.0, 9.95]), &specs()).unwrap();
    assert!(!same.failed(), "{}", same.render());
    assert!(same.changed_facts.is_empty());
    assert_eq!(same.rows.len(), END_TO_END.len());

    let slow = compare_sets(&a, &set(&[20.0, 20.2, 19.8]), &specs()).unwrap();
    assert!(slow.failed());
    let (_, _, row) = slow
        .rows
        .iter()
        .find(|(_, s, _)| s.name == "unit_ms_p50")
        .unwrap();
    assert_eq!(row.verdict, Verdict::Worse);
    assert!(slow.render().contains("| worse |"));
}

#[test]
fn sets_measured_differently_are_refused() {
    let a = set(&[10.0, 10.1, 9.9]);
    let mut other_seeds = set(&[10.0, 10.1, 9.9]);
    other_seeds[0].seed = 99;
    assert!(compare_sets(&a, &other_seeds, &specs())
        .unwrap_err()
        .contains("different seeds"));

    for (fact, value) in [
        ("host_cores", Fact::U64(8)),
        ("pinned", Fact::Bool(false)),
        ("threads", Fact::U64(2)),
        ("simd_tier", Fact::Str("off".into())),
        ("timed_units", Fact::U64(320)),
    ] {
        let mut b = set(&[10.0, 10.1, 9.9]);
        b[1] = run("lenet_cpu", 2, 10.1, |r| r.fact(fact, value.clone()));
        let err = compare_sets(&a, &b, &specs()).unwrap_err();
        assert!(err.contains(fact), "{fact}: {err}");
    }

    let other_workload = vec![
        run("lenet_fpga", 1, 10.0, |_| {}),
        run("lenet_fpga", 2, 10.0, |_| {}),
        run("lenet_fpga", 3, 10.0, |_| {}),
    ];
    assert!(compare_sets(&a, &other_workload, &specs()).is_err());
    assert!(compare_sets(&a[..1], &a[..1], &specs()).is_err());
}

#[test]
fn changed_exact_facts_and_broken_runs_are_listed() {
    let a = set(&[10.0, 10.1, 9.9]);
    let mut b = set(&[10.0, 10.1, 9.9]);
    b[2] = run("lenet_cpu", 3, 9.9, |r| {
        r.fact("exact.final_digest", Fact::Str("00fe".into()));
    });
    let cmp = compare_sets(&a, &b, &specs()).unwrap();
    assert_eq!(cmp.changed_facts.len(), 1);
    assert!(cmp.changed_facts[0].contains("seed 3 exact.final_digest"));
    assert!(!cmp.failed(), "a changed fact is listed, not judged");

    b[0] = run("lenet_cpu", 1, 10.0, |r| r.correct = false);
    let cmp = compare_sets(&a, &b, &specs()).unwrap();
    assert!(cmp.failed());
    assert!(cmp.broken_runs[0].contains("correct=false"));
}

#[test]
fn benchmark_json_and_the_metric_tables_agree() {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit")
                        .map_or(String::new(), |u| u.as_str().unwrap().to_string()),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for s in specs() {
        assert!(
            s.bound > 0.0 && s.bound <= 0.25,
            "{}: bound {}",
            s.name,
            s.bound
        );
    }
    let setup = specs().into_iter().find(|s| s.name == "setup_s").unwrap();
    assert!(setup.lower_is_better);
    assert!(
        specs().iter().all(|s| s.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn a_run_prints_exactly_its_table_and_the_driver_s_four_keys() {
    let mut r = Report::new("lenet_cpu", 1, false);
    r.attempted = 5;
    r.metric("unit_ms_p50", 1.25);
    let line = json::parse(&r.result_line()).unwrap();
    let Value::Object(top) = &line else {
        panic!("object")
    };
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("metrics")
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    assert_eq!(
        metrics["unit_ms_p50"].get("value").unwrap().as_f64(),
        Some(1.25)
    );
    assert_eq!(
        metrics["unit_ms_p50"].get("unit").unwrap().as_str(),
        Some("ms")
    );

    let traced = Report::new("lenet_cpu", 1, true);
    let Some(Value::Object(metrics)) = json::parse(&traced.result_line())
        .unwrap()
        .get("metrics")
        .cloned()
    else {
        panic!("metrics")
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
    assert!(r.summary_json().ends_with("\"claim\":null}"));
}
