//! Property-based tests of the MPC simulator: conservation and
//! correctness of the communication fabric.

use mpc_sim::{Cluster, MpcConfig, Words};
use proptest::prelude::*;

/// Trivial state that counts words it holds.
struct Holder(Vec<u64>);

impl Words for Holder {
    fn words(&self) -> usize {
        self.0.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The router conserves messages: everything sent arrives exactly
    /// once, at the right machine, and the traffic accounting matches.
    #[test]
    fn router_conserves_messages(
        sends in proptest::collection::vec((0usize..8, 0usize..8, 0u64..1000), 0..200)
    ) {
        let m = 8;
        let config = MpcConfig::new(m, 1_000_000);
        let mut cluster: Cluster<Holder, u64> = Cluster::new(config, |_| Holder(Vec::new()));
        let plan = sends.clone();
        cluster.round("scatter", move |ctx, _st, _| {
            for &(from, to, payload) in &plan {
                if from == ctx.id {
                    ctx.send(to, payload);
                }
            }
        });
        cluster.round("gather", |_ctx, st, inbox| {
            st.0 = inbox.collect();
        });
        let total_sent = sends.len();
        let trace = cluster.trace();
        prop_assert_eq!(trace.rounds[0].total_traffic, total_sent);
        // Every payload arrived at its destination.
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); m];
        for (from, to, payload) in sends {
            let _ = from;
            expected[to].push(payload);
        }
        for (i, want) in expected.iter().enumerate() {
            let mut got = cluster.state(i).0.clone();
            let mut want = want.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
