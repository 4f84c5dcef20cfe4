//! Every metric the benchmark emits is well named and listed, with the
//! same unit, in `BENCHMARK.json`.

use mlconf_perfbench::report::{valid_name, valid_unit, END_TO_END};
use mlconf_perfbench::trace::PER_LAYER;
use mlconf_perfbench::{serve_bo, serve_churn, tune_cli};
use mlconf_serve::json::{parse, Json};

#[test]
fn every_emitted_name_and_unit_follows_the_grammar() {
    for (name, unit) in END_TO_END
        .into_iter()
        .chain(PER_LAYER)
        .chain(serve_bo::INFO)
        .chain(serve_churn::INFO)
        .chain(tune_cli::INFO)
    {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
    }
    let mut layer: Vec<_> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    layer.sort_unstable();
    layer.dedup();
    assert_eq!(layer.len(), PER_LAYER.len(), "duplicate per-layer name");
}

fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_every_emitted_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let bench = parse(&text).expect("BENCHMARK.json is JSON");
    // Every workload prints every end-to-end metric, so the lists match.
    let e2e = listed(&bench, "end_to_end");
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(e2e, expected, "end_to_end differs from report::END_TO_END");
    let layers = listed(&bench, "per_layer");
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(layers, expected, "per_layer differs from trace::PER_LAYER");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    // serve-bo runs on request but is left out: see the README.
    assert_eq!(workloads, ["serve-churn", "tune-cli"]);
}
