//! QoS scheduling tour: priority classes, earliest-deadline-first dequeue,
//! slack shedding and the per-class ledgers they are accounted in.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example qos_scheduling
//! ```

use longtail::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // 1. Two identical engines over the same HT model, one worker each —
    //    overload is the point. Both dequeue by priority class, then
    //    earliest deadline, then arrival, and shed by slack. One serves the
    //    mix below with no annotations (so in arrival order), the other
    //    with each request's class and deadline set.
    let config = SyntheticConfig {
        n_users: 300,
        n_items: 240,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let ht: Arc<dyn Recommender + Send + Sync> = Arc::new(HittingTimeRecommender::new(
        &data.dataset,
        GraphRecConfig {
            max_items: 160,
            iterations: 120,
        },
    ));
    let build = || {
        Engine::builder()
            .model("HT", Arc::clone(&ht))
            .workers(1)
            .queue_capacity(256)
            .build()
    };
    let unannotated = build();
    let annotated = build();

    // 2. Calibration: a closed-loop pass measures the per-request service
    //    time — and trains each engine's per-model EWMA, the evidence its
    //    slack shedder consults (no estimate, no shedding).
    let start = Instant::now();
    for u in 0..32u32 {
        for engine in [&unannotated, &annotated] {
            engine
                .recommend(&RecommendRequest::new("HT", u, 5))
                .unwrap();
        }
    }
    let estimate = start.elapsed().as_secs_f64() / 64.0;
    println!("calibrated: ~{:.2} ms per request", estimate * 1e3);

    // 3. The same overload mix through both engines: 60 requests against
    //    one worker — every third Interactive with a deadline at half the
    //    total demand, Batch with a generous one, Background with none.
    let n = 60usize;
    let demand = estimate * n as f64;
    let class_and_deadline = |i: usize, now: Instant| match i % 3 {
        0 => (
            Priority::Interactive,
            Some(now + Duration::from_secs_f64(0.5 * demand)),
        ),
        1 => (
            Priority::Batch,
            Some(now + Duration::from_secs_f64(1.25 * demand)),
        ),
        _ => (Priority::Background, None),
    };
    let report = |label: &str, outcomes: &[(Priority, bool)]| {
        let rate = |class: Priority| {
            let total = outcomes.iter().filter(|(c, _)| *c == class).count();
            let hit = outcomes.iter().filter(|&&(c, ok)| c == class && ok).count();
            format!("{hit}/{total}")
        };
        println!(
            "{label} under overload: interactive {} in deadline, batch {}, background {}",
            rate(Priority::Interactive),
            rate(Priority::Batch),
            rate(Priority::Background),
        );
    };

    //    Unannotated, the worker serves in arrival order, so waiting in that
    //    order sees each completion as it lands; it counts only if it beats
    //    the deadline its request would have had. Annotated, the engine
    //    serves Interactive first and sheds what would miss its deadline.
    let run = |engine: &Engine, annotate: bool| -> Vec<(Priority, bool)> {
        let now = Instant::now();
        let pending: Vec<_> = (0..n)
            .map(|i| {
                let (class, deadline) = class_and_deadline(i, now);
                let mut request = RecommendRequest::new("HT", i as u32, 5);
                if annotate {
                    request = request.with_priority(class);
                    request.deadline = deadline;
                }
                let pending = engine.submit(request).expect("capacity 256 admits all");
                (class, deadline, pending)
            })
            .collect();
        pending
            .into_iter()
            .map(|(class, deadline, pending)| {
                let served = pending.wait().is_ok();
                let in_time = annotate || deadline.is_none_or(|d| Instant::now() <= d);
                (class, served && in_time)
            })
            .collect()
    };
    report("unannotated", &run(&unannotated, false));
    report("annotated  ", &run(&annotated, true));

    // 4. Slack shedding: the EWMA says a request takes ~`estimate`; a
    //    deadline far below that is provably unmeetable, so the engine
    //    drops it at dequeue — a typed failure in microseconds instead of
    //    a worker burning a full service time on an answer nobody can use.
    let doomed = annotated
        .submit(
            RecommendRequest::new("HT", 7, 5).deadline_in(Duration::from_secs_f64(estimate * 0.2)),
        )
        .expect("admission is separate from expiry")
        .wait();
    assert_eq!(doomed, Err(ServeError::DeadlineExceeded));
    let stats: EngineStats = annotated.stats();
    println!(
        "\nunmeetable deadline -> DeadlineExceeded ({} slack-shed, {} expired at dequeue)",
        stats.shed, stats.expired_at_dequeue
    );

    // 5. Every class keeps its own ledger (plus a latency histogram): each
    //    admitted request lands in exactly one outcome bucket.
    println!("\nper-class ledgers (annotated engine):");
    for (class, priority) in stats.per_class.iter().zip(Priority::ALL) {
        let p99 = class
            .latency_p99()
            .map_or("-".into(), |s| format!("{:.1} ms", s * 1e3));
        println!(
            "  {:11} {} submitted = {} served + {} shed + {} expired + {} failed (p99 {p99})",
            priority.name(),
            class.submitted,
            class.served,
            class.shed,
            class.expired,
            class.failed,
        );
        assert_eq!(
            class.submitted,
            class.served + class.shed + class.expired + class.failed
        );
    }
}
