//! Seeded fault schedules for the session server.
//!
//! Two schedules fault a running server:
//! [`crate::tcp::ChaosConfig`] faults the wire of each connection
//! (dropped requests, dropped, torn and late replies), and
//! [`CrashConfig`] kills shards and panics fragments (DESIGN.md §12).
//! Both derive one random stream per connection or shard incarnation
//! from the configured seed through `stream_seed`, so a failing run
//! reproduces from its seed alone.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Seeded server-side crash-injection rates, consumed by the session
/// server's shards (`SessionServer::with_crash`). Draws are deterministic
/// per (seed, shard, incarnation, event index), so a failing crash run
/// reproduces from its seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashConfig {
    /// Seed for the per-shard crash schedule.
    pub seed: u64,
    /// Probability (per mille) that a request entering a shard kills the
    /// whole shard first, exercising journal rebuild of its sessions.
    pub shard_kill_per_mille: u32,
    /// Probability (per mille) that a fresh sequenced request panics
    /// mid-fragment, exercising `catch_unwind` + journal rebuild.
    pub panic_per_mille: u32,
}

/// The seed of schedule stream `index` (a connection, or a shard
/// incarnation) under the configured `seed`. The seed goes through one
/// SplitMix64 step before `index` is folded in, so nearby seeds never
/// share a stream: folded in raw, seed 2's first connection would replay
/// seed 1's second.
pub(crate) fn stream_seed(seed: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(seed).next_u64() ^ index
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeds_never_share_a_stream() {
        // Seeds 1-4 (the CI matrix) x connections 1-64: no two streams
        // start alike, and no draw of one appears in another's first 32,
        // so no stream is a shifted copy of another either.
        let mut draws = HashSet::new();
        for seed in 1..=4u64 {
            for conn in 1..=64u64 {
                let mut rng = StdRng::seed_from_u64(stream_seed(seed, conn));
                for _ in 0..32 {
                    assert!(
                        draws.insert(rng.next_u64()),
                        "seed {seed} connection {conn} shares a stream"
                    );
                }
            }
        }
        assert_eq!(draws.len(), 4 * 64 * 32);
    }
}
