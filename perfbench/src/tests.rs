//! Tests of the benchmark's own output schema and argument handling. The
//! percentile rule and the span arithmetic are tested in `stats` and
//! `spans`.

use super::*;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`. The
/// file keeps one metric object per line.
fn benchmark_json_section(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                let rest = &l[l.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    assert_eq!(benchmark_json_section("end_to_end"), table(&END_TO_END));
    assert_eq!(benchmark_json_section("per_layer"), table(&PER_LAYER));
}

#[test]
fn readme_ledger_names_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let text = std::fs::read_to_string(path).expect("perfbench/README.md");
    for (name, _) in PER_LAYER {
        assert!(
            text.contains(&format!("| `{name}` |")),
            "README ledger lacks a row for {name}"
        );
    }
}

fn train_episode() -> train::Episode {
    train::Episode {
        setup_s: vec![0.001; 5],
        step_ms: vec![5.0; 1000],
        losses: vec![0.5; 1000],
        final_top1: 0.9,
        nmse: vec![0.02; 4000],
        sim_step_us: vec![130.0; 1000],
        fabric: vec![train::FabricCounters::default(); 1000],
        ..train::Episode::default()
    }
}

fn storm_episode() -> storm::Episode {
    storm::Episode {
        setup_s: vec![0.006; 5],
        slice_ms: vec![2.0; 1000],
        flows: 100,
        completed: 100,
        fct_us_p50: 200.0,
        fct_us_p99: 330.0,
        conserved: true,
        ..storm::Episode::default()
    }
}

fn traced_spans() -> Vec<Span> {
    vec![
        Span {
            name: "step",
            start_ns: 0,
            end_ns: 100,
            busy_ns: 100,
            calls: 1,
            parent: None,
            step: 0,
        },
        Span {
            name: "exchange",
            start_ns: 10,
            end_ns: 90,
            busy_ns: 80,
            calls: 1,
            parent: Some(0),
            step: 0,
        },
    ]
}

/// Asserts the result line carries every metric of `t` with its unit.
fn assert_schema(r: &Report, t: &[(&str, &str)]) {
    let line = r.json(t).expect("every metric measured and finite");
    assert!(line.starts_with("{\"correct\": "), "{line}");
    for (name, unit) in t {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + key.len()..];
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_in_both_modes() {
    for w in [Workload::TrainInproc, Workload::TrainFabric] {
        let mut plain = Report::default();
        summarize_train(&mut plain, w, &[train_episode(), train_episode()], &[]);
        plain.metric("peak_rss_mb", 4.0, 1);
        assert_schema(&plain, &END_TO_END);
        let mut traced = Report::default();
        summarize_train(
            &mut traced,
            w,
            &[train_episode()],
            &[(train_episode(), traced_spans())],
        );
        assert_schema(&traced, &PER_LAYER);
    }
    let mut plain = Report::default();
    summarize_storm(&mut plain, &[storm_episode(), storm_episode()], &[]);
    plain.metric("peak_rss_mb", 20.0, 1);
    assert_schema(&plain, &END_TO_END);
    let mut traced = Report::default();
    summarize_storm(
        &mut traced,
        &[storm_episode()],
        &[(storm_episode(), traced_spans())],
    );
    assert_schema(&traced, &PER_LAYER);
}

#[test]
fn a_missing_or_non_finite_metric_is_an_error() {
    let mut r = Report::default();
    assert!(r.json(&END_TO_END).is_err());
    for (name, _) in END_TO_END {
        r.metric(name, 1.0, 1);
    }
    assert!(r.json(&END_TO_END).is_ok());
    r.metric("setup_s", f64::NAN, 1);
    assert!(r.json(&END_TO_END).is_err());
}

#[test]
fn a_failed_check_marks_the_result_incorrect() {
    let mut r = Report::default();
    for (name, _) in END_TO_END {
        r.metric(name, 1.0, 1);
    }
    r.check("passes", true, "");
    assert!(r
        .json(&END_TO_END)
        .unwrap()
        .starts_with("{\"correct\": true"));
    r.check("fails", false, "");
    assert!(r
        .json(&END_TO_END)
        .unwrap()
        .starts_with("{\"correct\": false"));
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn arguments_are_checked() {
    let a = parse_args(&argv(
        "--workload fabric_storm --seed 7 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(a.workload, Workload::FabricStorm);
    assert_eq!(a.seed, 7);
    assert!(a.trace);
    for bad in [
        "--workload nope --seed 1 --seconds 10 --trace 0",
        "--workload train_inproc --seed 1 --seconds 10 --trace 2",
        "--workload train_inproc --seed 1 --seconds 0 --trace 0",
        "--workload train_inproc --seed x --seconds 10 --trace 0",
        "--workload train_inproc --seconds 10 --trace 0",
        "--workload train_inproc --seed 1 --seconds 10 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}
