//! Fault-tolerance tour: deterministic fault injection, circuit breakers,
//! retries and degraded-mode fallback to the popularity baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use longtail::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. Data + models: the paper's HT walk as the primary, the
    //    popularity head (the paper's strawman baseline) as the
    //    always-available fallback.
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
    let pop = Arc::new(PopularityRecommender::train(&data.dataset));

    // 2. Chaos: wrap HT in a deterministic fault plan — panic *bursts* of
    //    two consecutive calls (calls 0,1, 8,9, 16,17, …), so a single
    //    retry sometimes lands inside the burst and the fallback has to
    //    step in. Same schedule, same faults, every run.
    let faulty_ht = Arc::new(FaultyRecommender::new(
        ht.clone(),
        FaultPlan::new()
            .fault_every(8, 0, FaultKind::Panic)
            .fault_every(8, 1, FaultKind::Panic),
    ));
    // The default panic hook would print a backtrace for every injected
    // panic the engine catches; keep the tour output readable.
    std::panic::set_hook(Box::new(|_| {}));

    // 3. Protection: a tight breaker per model, one retry on a fresh
    //    context, and POP registered as HT's degraded-mode fallback.
    let engine = Engine::builder()
        .model("HT", faulty_ht)
        .model("POP", pop)
        .fallback("HT", "POP")
        .breakers(BreakerConfig {
            window: 8,
            failure_threshold: 4,
            cooldown: Duration::from_millis(50),
        })
        .default_retry(RetryPolicy::attempts(2))
        .workers(2)
        .build();

    // 4. Serve through the fault storm: every request is answered — some
    //    by HT after a retry, some by POP flagged degraded.
    let mut served = 0u32;
    let mut degraded = 0u32;
    for user in 0..40u32 {
        match engine
            .submit(RecommendRequest::new("HT", user % 20, 5))
            .and_then(|pending| pending.wait())
        {
            Ok(resp) => {
                served += 1;
                if resp.degraded {
                    degraded += 1;
                }
            }
            Err(err) => println!("  user {user}: refused typed ({err})"),
        }
    }
    println!("served {served}/40 requests, {degraded} degraded via POP fallback");

    // 5. Observability: the health snapshot an operator probe would export.
    let health = engine.health();
    for model in &health.models {
        println!(
            "model {:>3}: breaker {:?}, trips {}, fallback {:?}",
            model.name, model.breaker, model.breaker_trips, model.fallback
        );
    }
    let stats = health.stats;
    println!(
        "stats: completed {} (degraded {}), retries {}, panics caught {}, \
         requests lost to panics {}, breaker refusals {}, workers restarted {}",
        stats.completed,
        stats.degraded,
        stats.retries,
        stats.contexts_discarded,
        stats.panicked,
        stats.circuit_open,
        stats.workers_restarted
    );
    assert_eq!(served, 40, "with protection on, every request is answered");
    println!("availability under injected faults: 100%");
}
