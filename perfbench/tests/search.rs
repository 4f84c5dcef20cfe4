//! The `max_rps_at_slo` search on synthetic latency curves.

use mlconf_perfbench::search::{grid_rate, max_rate, Probe, GRID_LEN, GRID_RATIO, SLO_P99_MS};

/// A server with capacity `cap` steps/s: p99 = 5 ms + 1000/(cap − rate),
/// unbounded at or past capacity.
fn probe_at(cap: f64) -> impl FnMut(f64) -> Probe {
    move |rate| Probe {
        rate,
        p99_ms: if rate < cap {
            5.0 + 1000.0 / (cap - rate)
        } else {
            f64::INFINITY
        },
        failed: 0,
        lateness_growing: false,
    }
}

/// Where the curve crosses the limit.
fn threshold(cap: f64) -> f64 {
    cap - 1000.0 / (SLO_P99_MS - 5.0)
}

#[test]
fn search_is_monotone_in_capacity_and_within_one_grid_step() {
    let mut last = 0.0;
    let mut cap = 80.0;
    while cap < grid_rate(GRID_LEN - 1) {
        let (found, probes) = max_rate(probe_at(cap));
        let found = found.expect("the lowest grid rate passes");
        assert!(found >= last, "capacity {cap}: {found} < {last}");
        let limit = threshold(cap);
        assert!(
            found <= limit,
            "capacity {cap}: {found} above the limit {limit}"
        );
        assert!(
            found * GRID_RATIO > limit,
            "capacity {cap}: {found} more than a step below {limit}"
        );
        assert!(probes.len() <= 7);
        last = found;
        cap *= 1.013;
    }
}

#[test]
fn a_failure_or_a_growing_backlog_fails_a_probe() {
    let (found, _) = max_rate(|rate| Probe {
        rate,
        p99_ms: 1.0,
        failed: u64::from(rate > 200.0),
        lateness_growing: rate > 300.0,
    });
    let found = found.expect("low rates pass");
    assert!(found <= 200.0 && found * GRID_RATIO > 200.0, "{found}");
}

#[test]
fn nothing_passes_when_even_the_lowest_rate_misses() {
    let (found, probes) = max_rate(|rate| Probe {
        rate,
        p99_ms: 2.0 * SLO_P99_MS,
        failed: 0,
        lateness_growing: false,
    });
    assert_eq!(found, None);
    assert_eq!(probes.last().map(|p| p.rate), Some(grid_rate(0)));
}
