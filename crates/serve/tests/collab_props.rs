//! Property: replaying *any* seeded interleaving of two writers
//! through the shared op log is deterministic — the replicas produce
//! the same frames on every run and at every replica count, because a
//! replica's world is a pure function of the log prefix it applied.
//!
//! Each shared-document `serve_differential` pass independently proves
//! every replica byte-identical to the in-process reference for that
//! seed;
//! running the same seed at two replica/shard shapes therefore proves
//! the frames identical *across* runs and replica counts too.

use atk_serve::{serve_differential, Topology, Traffic};
use proptest::prelude::*;

fn replicate(seed: u64, watchers: usize, steps: usize, shards: usize) -> Result<(), String> {
    let traffic = Traffic::shared("fig2", seed, 2, watchers, steps)?;
    let topo = Topology {
        shards,
        ..Topology::default()
    };
    serve_differential("fig2", &traffic, &topo).map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn replicated_replay_is_deterministic(seed in any::<u64>(), steps in 16usize..36) {
        let two = replicate(seed, 0, steps, 1);
        prop_assert!(two.is_ok(), "2 replicas, 1 shard: {:?}", two.err());
        let four = replicate(seed, 2, steps, 2);
        prop_assert!(four.is_ok(), "4 replicas, 2 shards: {:?}", four.err());
    }
}
