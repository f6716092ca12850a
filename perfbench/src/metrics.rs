//! The metric catalogue: every name the benchmark can print, with its
//! unit and direction. `BENCHMARK.json` declares exactly these names;
//! the self-tests hold the two lists equal.

/// A metric's name, unit and which direction is better.
#[derive(Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// What was measured.
    pub def: &'static MetricDef,
    /// The value.
    pub value: f64,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run, in this order.
pub static END_TO_END: [MetricDef; 3] = [
    def("setup_s", "s", "lower"),
    def("solve_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Round labels of the two in-memory executors. Host time of rounds
/// with any other label lands in `executor.round.other_s`.
pub const ROUND_LABELS: [&str; 14] = [
    "subscribe",
    "stats",
    "plan",
    "classify",
    "route",
    "simulate",
    "forward",
    "party",
    "correct",
    "finalize",
    "gather",
    "scatter",
    "solve",
    "apply",
];

/// Printed by every traced run, in this order. A layer that does no work
/// on a workload reports 0 there.
pub static PER_LAYER: [MetricDef; 43] = [
    def("graph.generate_s", "s", "lower"),
    def("graph.weights_s", "s", "lower"),
    def("graph.edge_index_s", "s", "lower"),
    def("graph.stream_build_s", "s", "lower"),
    def("graph.ocsr_bytes", "bytes", "lower"),
    def("graph.edges", "count", "higher"),
    def("baselines.bye_s", "s", "lower"),
    def("executor.outside_rounds_s", "s", "lower"),
    def("executor.rounds_s", "s", "lower"),
    def("executor.round.subscribe_s", "s", "lower"),
    def("executor.round.stats_s", "s", "lower"),
    def("executor.round.plan_s", "s", "lower"),
    def("executor.round.classify_s", "s", "lower"),
    def("executor.round.route_s", "s", "lower"),
    def("executor.round.simulate_s", "s", "lower"),
    def("executor.round.forward_s", "s", "lower"),
    def("executor.round.party_s", "s", "lower"),
    def("executor.round.correct_s", "s", "lower"),
    def("executor.round.finalize_s", "s", "lower"),
    def("executor.round.gather_s", "s", "lower"),
    def("executor.round.scatter_s", "s", "lower"),
    def("executor.round.solve_s", "s", "lower"),
    def("executor.round.apply_s", "s", "lower"),
    def("executor.round.other_s", "s", "lower"),
    def("executor.phases", "count", "lower"),
    def("executor.mpc_rounds", "count", "lower"),
    def("executor.msg_words", "words", "lower"),
    def("executor.peak_round_words", "words", "lower"),
    def("executor.machines", "count", "lower"),
    def("executor.forced", "count", "lower"),
    def("executor.certified_ratio", "ratio", "lower"),
    def("executor.cover_vs_bye", "ratio", "lower"),
    def("mpc.compute_s", "s", "lower"),
    def("mpc.route_s", "s", "lower"),
    def("mpc.spill_s", "s", "lower"),
    def("mpc.route_words_per_s", "words/s", "higher"),
    def("mpc.pipelined_solve_s", "s", "lower"),
    def("mpc.spill_words", "words", "lower"),
    def("mpc.peak_resident_words", "words", "lower"),
    def("mpc.memory_cap_words", "words", "lower"),
    def("pool.speedup", "ratio", "higher"),
    def("certificate.verify_s", "s", "lower"),
    def("trace.overhead", "ratio", "lower"),
];
