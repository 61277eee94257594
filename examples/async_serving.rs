//! Async serving tour: non-blocking submission, per-request deadlines and
//! explicit backpressure over the engine's worker pool.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example async_serving
//! ```

use longtail::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // 1. Data + engine: one HT model behind a small worker pool with a
    //    bounded admission queue. `Reject` keeps `submit` non-blocking
    //    under overload: a request that finds the queue full is refused at
    //    once with `Overloaded` instead of waiting for a slot.
    let config = SyntheticConfig {
        n_users: 300,
        n_items: 240,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let ht = Arc::new(HittingTimeRecommender::new(
        &data.dataset,
        GraphRecConfig {
            max_items: 120,
            iterations: 60,
        },
    ));
    let engine = Engine::builder()
        .model("HT", ht)
        .workers(2)
        .queue_capacity(16)
        .admission(AdmissionPolicy::Reject)
        .build();
    println!(
        "engine up: {} workers, queue capacity 16, Reject backpressure",
        engine.n_workers()
    );

    // 2. Non-blocking submission: enqueue now, do other work, claim later.
    //    The handle is a one-shot reply channel — poll it (`try_recv`),
    //    bound the wait (`wait_timeout`), or block (`wait`).
    let mut pending = engine
        .submit(RecommendRequest::new("HT", 7, 5))
        .expect("queue has room");
    println!(
        "submitted; caller is free (queue depth {})",
        engine.queue_depth()
    );
    let response = loop {
        match pending.wait_timeout(Duration::from_millis(50)) {
            Some(result) => break result.expect("registered model"),
            None => println!("  ...still pending, doing other work"),
        }
    };
    let items: Vec<u32> = response.items.iter().map(|s| s.item).collect();
    println!(
        "user 7 -> {items:?} (DP {}/{} iterations)",
        response.telemetry.iterations_run, response.telemetry.iterations_budget
    );

    // 3. Open-loop burst: fan out a whole batch of submissions before
    //    claiming anything — arrivals never wait on completions. This is
    //    exactly what `Engine::recommend_batch` does under the hood.
    let burst: Vec<_> = (0..48u32)
        .map(|u| engine.submit(RecommendRequest::new("HT", u % 300, 5)))
        .collect();
    let mut served = 0usize;
    let mut refused = 0usize;
    for handle in burst {
        match handle {
            Ok(p) => match p.wait() {
                Ok(_) => served += 1,
                Err(e) => panic!("unexpected failure: {e}"),
            },
            Err(ServeError::Overloaded) => refused += 1,
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    println!("\nburst of 48: {served} served, {refused} refused by backpressure");

    // 4. Deadlines: an expired request is shed at dequeue — the DP never
    //    runs for it — while a generously-deadlined one serves normally.
    let expired = engine
        .submit(RecommendRequest::new("HT", 7, 5).deadline_at(Instant::now()))
        .expect("admission is separate from expiry")
        .wait();
    assert_eq!(expired, Err(ServeError::DeadlineExceeded));
    let in_time = engine
        .submit(RecommendRequest::new("HT", 7, 5).deadline_in(Duration::from_secs(5)))
        .expect("queue has room")
        .wait();
    assert!(in_time.is_ok());
    println!("expired deadline -> DeadlineExceeded; 5s budget -> served");

    // 5. The counters tie it all together: every admitted request lands in
    //    exactly one outcome bucket; refusals were never admitted.
    let stats: EngineStats = engine.stats();
    assert_eq!(stats.rejected, refused as u64);
    println!(
        "\nengine stats: {} rejected; {} submitted = {} completed + {} shed + {} expired@dequeue + {} expired@dp + {} failed",
        stats.rejected,
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.expired_at_dequeue,
        stats.expired_in_dp,
        stats.failed,
    );
    assert_eq!(
        stats.submitted,
        stats.completed
            + stats.shed
            + stats.expired_at_dequeue
            + stats.expired_in_dp
            + stats.failed
    );
}
