//! The open-loop scheduler, driven without a network.

use std::time::{Duration, Instant};

use mlconf_perfbench::loadgen::run_with;
use mlconf_perfbench::plan::{Event, OpKind};

#[test]
fn one_session_never_has_two_operations_in_flight() {
    // Two hot sessions, all due at once, on three workers.
    let events: Vec<Event> = (0..60)
        .map(|i| Event {
            at: 0.0,
            session: i % 2,
            kind: OpKind::Step,
        })
        .collect();
    let (records, workers) = run_with(&events, 3, &|| (), &|_: &mut (), _, _| {
        std::thread::sleep(Duration::from_millis(1));
        (true, None, 0.0)
    });
    assert_eq!(workers.len(), 3);
    assert_eq!(records.len(), events.len());
    for s in 0..2 {
        let mut mine: Vec<_> = records.iter().filter(|r| r.session == s).collect();
        mine.sort_by(|a, b| a.sent.total_cmp(&b.sent));
        for w in mine.windows(2) {
            assert!(w[0].done <= w[1].sent, "session {s} overlapped");
            assert!(w[0].event < w[1].event, "session {s} out of order");
        }
    }
}

#[test]
fn operations_wait_for_their_due_time_and_lateness_is_recorded() {
    let events: Vec<Event> = (0..5)
        .map(|i| Event {
            at: 0.02 * i as f64,
            session: i,
            kind: OpKind::Read,
        })
        .collect();
    let start = Instant::now();
    let (records, _) = run_with(&events, 2, &|| (), &|_: &mut (), _, _| (true, None, 0.0));
    assert!(start.elapsed() >= Duration::from_millis(80));
    for r in &records {
        assert!(r.sent >= r.due, "sent before due");
        assert!(r.lateness_ms() >= 0.0 && r.latency_ms() >= r.lateness_ms());
    }
}
