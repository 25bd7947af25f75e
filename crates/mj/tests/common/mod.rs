//! Helpers shared by the integration tests.

use std::time::{Duration, Instant};

use multijoin::exec::MemoryBudget;

/// The bytes `budget` still holds once its query is fully gone. A query's
/// outcome is published by the task that concludes it, which drops its
/// edge buffers (crediting them back) a moment later, so this waits up to
/// ten seconds for the count to reach zero.
pub fn settled(budget: &MemoryBudget) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while budget.used() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    budget.used()
}
