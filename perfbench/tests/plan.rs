//! Workload inputs are a pure function of the seed, and the seed matters.

use mlconf_perfbench::plan::{
    bo_plan, churn_plan, tune_plan, OpKind, BO_SESSIONS, CHURN_SESSIONS, TUNE_REPEATS,
};

#[test]
fn bo_plan_is_deterministic_in_the_seed_and_differs_across_seeds() {
    let a = bo_plan(7, 16.0);
    assert_eq!(a, bo_plan(7, 16.0));
    let b = bo_plan(8, 16.0);
    assert_ne!(a.sessions, b.sessions, "session seeds ignore --seed");
    assert_ne!(a.window, b.window, "arrivals ignore --seed");
    assert_ne!(a.eval_seed, b.eval_seed);
    assert_eq!(a.sessions.len(), BO_SESSIONS);
    assert!(
        a.window.windows(2).all(|w| w[0].at <= w[1].at),
        "window not sorted"
    );
    // Every session gets exactly the steps that fill its budget.
    for (i, s) in a.sessions.iter().enumerate() {
        let steps = a.window.iter().filter(|e| e.session == i).count();
        assert_eq!(s.budget, mlconf_perfbench::plan::BO_PREP_TRIALS + steps);
    }
}

#[test]
fn churn_plan_is_deterministic_in_the_seed_and_differs_across_seeds() {
    let a = churn_plan(7);
    assert_eq!(a, churn_plan(7));
    let b = churn_plan(8);
    assert_ne!(a.sessions, b.sessions);
    assert_ne!(
        a.popularity_cdf, b.popularity_cdf,
        "popularity ignores --seed"
    );
    assert_eq!(a.sessions.len(), CHURN_SESSIONS);
    let ea = a.events(200.0, 4.0);
    assert_eq!(ea, a.events(200.0, 4.0));
    assert_ne!(ea, b.events(200.0, 4.0), "arrivals ignore --seed");
    assert!(
        ea.windows(2).all(|w| w[0].at <= w[1].at),
        "events not sorted"
    );
    assert!(ea.iter().all(|e| e.at < 4.0 && e.session < CHURN_SESSIONS));
}

#[test]
fn churn_rates_stretch_one_arrival_stream() {
    // A lower rate offers a prefix of the same operations, slower.
    let plan = churn_plan(3);
    let fast = plan.events(400.0, 2.0);
    let slow = plan.events(200.0, 2.0);
    assert!(!slow.is_empty() && slow.len() < fast.len());
    for (s, f) in slow.iter().zip(&fast) {
        assert_eq!((s.session, s.kind), (f.session, f.kind));
        assert!((s.at - 2.0 * f.at).abs() < 1e-9);
    }
}

#[test]
fn churn_offers_skewed_popularity_and_reads_beside_steps() {
    let plan = churn_plan(11);
    let events = plan.events(300.0, 20.0);
    let steps = events.iter().filter(|e| e.kind == OpKind::Step).count();
    let reads = events.len() - steps;
    let ratio = steps as f64 / reads as f64;
    assert!((6.0..10.0).contains(&ratio), "steps per read {ratio}");
    let mut per_session = vec![0usize; CHURN_SESSIONS];
    for e in &events {
        per_session[e.session] += 1;
    }
    per_session.sort_unstable();
    let top = per_session[CHURN_SESSIONS - 1];
    let median = per_session[CHURN_SESSIONS / 2];
    assert!(
        top > 10 * median.max(1),
        "hot session {top} vs median {median}"
    );
}

#[test]
fn tune_plan_is_deterministic_in_the_seed_and_differs_across_seeds() {
    assert_eq!(tune_plan(5), tune_plan(5));
    assert_ne!(tune_plan(5), tune_plan(6));
    let workloads: Vec<_> = tune_plan(5).iter().map(|r| r.workload).collect();
    assert_eq!(workloads, ["mf-netflix", "w2v-wiki"].repeat(TUNE_REPEATS));
    let mut seeds: Vec<_> = tune_plan(5).iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(
        seeds.len(),
        tune_plan(5).len(),
        "every run has its own seed"
    );
}
