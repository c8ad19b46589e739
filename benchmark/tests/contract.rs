//! `BENCHMARK.json` and the harness's catalogue name the same workloads
//! and metrics, within the limits the benchmark contract sets.

use unifaas_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};

/// The objects of the array under `"key"`, each as its raw text.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{key}\": [")).expect("section") + key.len() + 5;
    let body = &json[start..start + json[start..].find(']').expect("array ends")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("object ends")])
        .collect()
}

fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let rest = &object[object.find(&format!("\"{key}\": ")).expect("field") + key.len() + 4..];
    let rest = rest.trim_start();
    match rest.strip_prefix('"') {
        Some(s) => &s[..s.find('"').expect("string ends")],
        None => rest[..rest.find(',').unwrap_or(rest.len())].trim(),
    }
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(json.len() <= 64 * 1024);

    let workloads = objects(&json, "workloads");
    let names: Vec<&str> = workloads.iter().map(|o| field(o, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for o in &workloads {
        let why = field(o, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = objects(&json, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (o, &(name, unit, higher, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit);
        assert_eq!(field(o, "better"), if higher { "higher" } else { "lower" });
        assert_eq!(field(o, "bound").parse::<f64>().unwrap(), bound);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(e2e.iter().any(|o| field(o, "name") == "setup_s"));

    let layers = objects(&json, "per_layer");
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (o, &(name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit);
    }

    let mut all: Vec<&str> = WORKLOADS.to_vec();
    all.extend(END_TO_END.iter().map(|m| m.0));
    all.extend(PER_LAYER.iter().map(|m| m.0));
    assert!(
        all.iter().all(|n| valid_name(n)),
        "a name breaks the limits"
    );
    let units = END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(PER_LAYER.iter().map(|m| m.1));
    assert!(units.clone().all(valid_unit), "a unit breaks the limits");
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
}
