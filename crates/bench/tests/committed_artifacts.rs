//! Every committed benchmark artifact at the repository root
//! (`BENCH_*.json`) must be well-formed JSON. CI regenerates
//! `BENCH_TRAJECTORY.json` and compares it byte for byte, which cannot
//! notice output that is malformed on both sides; this check can.

use std::path::Path;

#[test]
fn committed_bench_artifacts_are_valid_json() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("repository root is readable")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert!(
        names.iter().any(|n| n == "BENCH_TRAJECTORY.json"),
        "BENCH_TRAJECTORY.json missing from {names:?}"
    );
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).unwrap();
        if let Err(err) = cim_trace::json::check(&text) {
            panic!("{name} is not valid JSON: {err}");
        }
    }
}
