//! Message shapes shared by the fabric, pipeline and allocation suites.

/// One sender's plan: `(messages, hot_fraction_percent, hot_dest)`.
pub type SenderPlan = (usize, usize, usize);

/// Expands per-sender plans into concrete `(dest, payload)` pair lists:
/// `hot` percent of each sender's messages go to its hot destination
/// (bursts → long runs, including self-sends), the rest round-robin.
/// Plans are cycled by sender index.
pub fn build_pairs(m: usize, plans: &[SenderPlan]) -> Vec<Vec<(usize, u64)>> {
    (0..m)
        .map(|from| {
            let (count, hot_pct, hot) = plans[from % plans.len()];
            (0..count)
                .map(|k| {
                    let to = if k % 100 < hot_pct {
                        hot % m
                    } else {
                        (from + k * 13 + 1) % m
                    };
                    (to, ((from as u64) << 32) | k as u64)
                })
                .collect()
        })
        .collect()
}
