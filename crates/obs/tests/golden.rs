//! Golden test for the text exposition format: ordering, escaping and
//! label rendering are pinned byte-for-byte so the output a metrics
//! endpoint would serve never drifts silently.

use rlwe_obs::{export, Registry};

#[test]
fn exposition_format_matches_the_golden_output() {
    let reg = Registry::new();
    // Registered deliberately out of name order: the render must sort.
    reg.counter(
        "rlwe_pool_hits_total",
        "Context pool cache hits.",
        &[("param_set", "P2")],
    )
    .add(2);
    reg.counter(
        "rlwe_pool_hits_total",
        "Context pool cache hits.",
        &[("param_set", "P1")],
    )
    .add(7);
    reg.gauge("rlwe_batch_queue_depth", "Items in flight.", &[])
        .set(3);
    let h = reg.histogram(
        "rlwe_kem_op_ns",
        "KEM operation latency.",
        &[("op", "decap"), ("param_set", "P1")],
    );
    for _ in 0..4 {
        h.record_ns(96); // bucket [64, 128)
    }
    reg.counter(
        "weird_total",
        "Help with a \\ backslash.",
        &[("path", "a\\b\"c\nd")],
    )
    .inc();

    let expected = concat!(
        "# HELP rlwe_batch_queue_depth Items in flight.\n",
        "# TYPE rlwe_batch_queue_depth gauge\n",
        "rlwe_batch_queue_depth 3\n",
        "# HELP rlwe_kem_op_ns KEM operation latency.\n",
        "# TYPE rlwe_kem_op_ns summary\n",
        "rlwe_kem_op_ns{op=\"decap\",param_set=\"P1\",quantile=\"0.5\"} 96\n",
        "rlwe_kem_op_ns{op=\"decap\",param_set=\"P1\",quantile=\"0.9\"} 128\n",
        "rlwe_kem_op_ns{op=\"decap\",param_set=\"P1\",quantile=\"0.99\"} 128\n",
        "rlwe_kem_op_ns_sum{op=\"decap\",param_set=\"P1\"} 384\n",
        "rlwe_kem_op_ns_count{op=\"decap\",param_set=\"P1\"} 4\n",
        "# HELP rlwe_pool_hits_total Context pool cache hits.\n",
        "# TYPE rlwe_pool_hits_total counter\n",
        "rlwe_pool_hits_total{param_set=\"P1\"} 7\n",
        "rlwe_pool_hits_total{param_set=\"P2\"} 2\n",
        "# HELP weird_total Help with a \\\\ backslash.\n",
        "# TYPE weird_total counter\n",
        "weird_total{path=\"a\\\\b\\\"c\\nd\"} 1\n",
    );
    assert_eq!(export::render_text(&reg), expected);
}

#[test]
fn render_is_stable_across_repeated_calls() {
    let reg = Registry::new();
    reg.counter("x_total", "X.", &[("b", "2")]).inc();
    reg.counter("x_total", "X.", &[("a", "1")]).inc();
    let first = export::render_text(&reg);
    for _ in 0..5 {
        assert_eq!(export::render_text(&reg), first);
    }
}
