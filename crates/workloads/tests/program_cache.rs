//! The program cache's bound and eviction order. This is its own test
//! binary, so no other test shares the process-wide cache.

use std::sync::Arc;

use ent_workloads::{lowered_cache_stats, lowered_cached, try_lowered_cached, LOWERED_CACHE_CAP};

fn source(n: usize) -> String {
    format!("class Main {{ int main() {{ return {n}; }} }}")
}

#[test]
fn the_cache_fills_to_its_cap_then_evicts_the_oldest_program() {
    try_lowered_cached("class Main { int main() { return x; } }")
        .expect_err("unbound variable should fail to compile");
    let empty = lowered_cache_stats();
    assert_eq!(
        empty.entries, 0,
        "failed compiles are never cached: {empty:?}"
    );

    let programs: Vec<_> = (0..LOWERED_CACHE_CAP)
        .map(|n| lowered_cached("cache-test", &source(n)))
        .collect();
    let full = lowered_cache_stats();
    assert_eq!(full.evictions, 0, "{full:?}");
    assert_eq!(full.entries, LOWERED_CACHE_CAP as u64, "{full:?}");

    let _ = lowered_cached("cache-test", &source(LOWERED_CACHE_CAP));
    let past = lowered_cache_stats();
    assert_eq!(past.evictions, 1, "{past:?}");
    assert_eq!(past.entries, LOWERED_CACHE_CAP as u64, "{past:?}");
    // The second program is now the oldest; look it up before the first
    // program's recompile evicts it.
    let second = lowered_cached("cache-test", &source(1));
    assert!(Arc::ptr_eq(&programs[1], &second), "second is still shared");
    let first = lowered_cached("cache-test", &source(0));
    assert!(!Arc::ptr_eq(&programs[0], &first), "first was evicted");
}
