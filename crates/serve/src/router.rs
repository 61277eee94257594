//! User-keyed shard routing.
//!
//! A sharded model entry holds one trained recommender per shard — e.g. one
//! graph per user region, the ROADMAP's "shard the model" rung — and a
//! [`ShardRouter`] deciding which shard answers a given user's request.
//! Routing is pure (`user → shard index`), so the same request always hits
//! the same shard and engine output is pinned to "ask the owning shard
//! directly" by the equivalence property tests.

/// Maps a user id to the index of the shard that owns it.
///
/// Implementations must be pure functions of `(user, n_shards)` and return
/// an index `< n_shards` for every `n_shards >= 1`; the engine asserts the
/// bound at request time.
pub trait ShardRouter: Send + Sync {
    /// The shard (always `< n_shards`) owning `user`.
    fn route(&self, user: u32, n_shards: usize) -> usize;
}

/// Modulo routing: `user % n_shards`.
///
/// The right default when user ids carry no locality — shards stay balanced
/// for any id distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModuloRouter;

impl ShardRouter for ModuloRouter {
    fn route(&self, user: u32, n_shards: usize) -> usize {
        debug_assert!(n_shards > 0, "routing requires at least one shard");
        user as usize % n_shards.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_covers_all_shards() {
        let r = ModuloRouter;
        for user in 0..20u32 {
            let shard = r.route(user, 3);
            assert_eq!(shard, user as usize % 3);
            assert!(shard < 3);
        }
        assert_eq!(r.route(7, 1), 0);
    }
}
