//! The benchmark's inputs are a pure function of the seed, and its
//! percentile helper matches hand-computed values.

use longtail_data::SyntheticConfig;
use longtail_perfbench::stats::{quantile, quantile_sorted};
use longtail_perfbench::{batch_deep, ingest_mixed, interactive, models};

#[test]
fn same_seed_same_corpus_and_schedules() {
    let config = SyntheticConfig::douban_like();
    let a = models::corpus(config.clone(), 7);
    let b = models::corpus(config.clone(), 7);
    assert_eq!(a.to_timed_ratings(), b.to_timed_ratings());
    assert_eq!(
        interactive::schedule(7, a.n_users(), 2.0),
        interactive::schedule(7, b.n_users(), 2.0)
    );
    assert_eq!(
        ingest_mixed::schedule(7, &a, 1.0),
        ingest_mixed::schedule(7, &b, 1.0)
    );
    assert_eq!(
        batch_deep::user_order(7, 900),
        batch_deep::user_order(7, 900)
    );
}

#[test]
fn different_seed_different_corpus_and_schedules() {
    let config = SyntheticConfig::douban_like();
    let a = models::corpus(config.clone(), 7);
    let b = models::corpus(config, 8);
    assert_ne!(a.to_timed_ratings(), b.to_timed_ratings());
    assert_ne!(
        interactive::schedule(7, a.n_users(), 2.0),
        interactive::schedule(8, a.n_users(), 2.0)
    );
    assert_ne!(
        ingest_mixed::schedule(7, &a, 1.0),
        ingest_mixed::schedule(8, &a, 1.0)
    );
    assert_ne!(
        batch_deep::user_order(7, 900),
        batch_deep::user_order(8, 900)
    );
}

#[test]
fn schedules_are_ordered_and_within_the_run() {
    let base = models::corpus(SyntheticConfig::douban_like(), 3);
    let [moderate, overload] = interactive::schedule(3, base.n_users(), 10.0);
    for phase in [&moderate, &overload] {
        assert!(phase.windows(2).all(|w| w[0].at <= w[1].at));
    }
    let rate = moderate.len() as f64 / (10.0 * interactive::MODERATE_SHARE);
    assert!(
        (rate / interactive::RATE_MODERATE - 1.0).abs() < 0.1,
        "rate {rate}"
    );
    let batch = moderate.iter().filter(|a| a.batch).count() as f64 / moderate.len() as f64;
    assert!(
        (batch - interactive::BATCH_SHARE).abs() < 0.05,
        "batch share {batch}"
    );
    let events = ingest_mixed::schedule(3, &base, 2.0);
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(events.last().unwrap().at < 2.0);
}

#[test]
fn quantile_matches_known_vectors() {
    let v = [15.0, 20.0, 35.0, 40.0, 50.0];
    assert_eq!(quantile(&v, 0.0), 15.0);
    assert_eq!(quantile(&v, 1.0), 50.0);
    assert_eq!(quantile(&v, 0.5), 35.0);
    assert!((quantile(&v, 0.4) - 29.0).abs() < 1e-12);
    assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
    // Order of the input does not matter.
    assert!((quantile(&[50.0, 15.0, 40.0, 20.0, 35.0], 0.4) - 29.0).abs() < 1e-12);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!((quantile_sorted(&hundred, 0.99) - 99.01).abs() < 1e-9);
    assert!((quantile_sorted(&hundred, 0.9) - 90.1).abs() < 1e-9);
    assert_eq!(quantile(&[4.0], 0.9), 4.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

#[test]
fn windowed_figures_ignore_noisy_windows() {
    use longtail_perfbench::stats::{windowed, windowed_rate, CALM_HIGH, CALM_LOW};
    // Five one-second windows; windows 1 and 3 are noise bursts.
    let mut samples = Vec::new();
    for w in 0..5 {
        for i in 0..10 {
            let v = if w == 1 || w == 3 {
                100.0
            } else {
                1.0 + i as f64
            };
            samples.push((w as f64 + i as f64 / 10.0, v));
        }
    }
    let p50 = |v: &[f64]| quantile(v, 0.5);
    assert!((windowed(&samples, 5.0, 5, CALM_LOW, p50) - 5.5).abs() < 1e-12);
    assert!((windowed(&samples, 5.0, 5, 0.5, p50) - 5.5).abs() < 1e-12);
    assert_eq!(windowed(&samples, 5.0, 5, CALM_HIGH, p50), 100.0);
    // Window 4 is empty, the other four hold 10 events per second.
    let times: Vec<f64> = samples.iter().map(|s| s.0).filter(|&t| t < 4.0).collect();
    assert_eq!(windowed_rate(&times, 5.0, 5, CALM_HIGH), 10.0);
    assert_eq!(windowed_rate(&times, 5.0, 5, 0.0), 0.0);
    assert_eq!(windowed_rate(&[], 5.0, 5, CALM_HIGH), 0.0);
}
