//! `BENCHMARK.json` names exactly the workloads and metrics the benchmark
//! reports, in the same order.

use longtail_perfbench::report::{END_TO_END, PER_LAYER};
use longtail_perfbench::WORKLOADS;

/// Every `"name": "<value>"` of the file, in order.
fn names(json: &str) -> Vec<String> {
    json.split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.trim_start().strip_prefix(':')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_names() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let expected: Vec<String> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .map(str::to_string)
        .collect();
    assert_eq!(names(&json), expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing {entry}");
    }
}
