//! The end-to-end and per-layer metric sets, and the result line.

use std::fmt::Write as _;

use crate::layers::ratio;
use crate::run::{Call, Measurement, Setup};
use crate::stats::{median, percentile};
use crate::workload::Workload;
use crate::Metric;

/// The end-to-end metrics of an untraced run. Host metrics are in CPU time
/// (see [`crate::cpu`]) over every timed call; simulated metrics cover the
/// first pass over the pool.
pub fn end_to_end(
    workload: Workload,
    setup: &Setup,
    m: &Measurement,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let f = &m.first;
    vec![
        Metric::new("setup_s", median(&setup.cpu_s), "s"),
        Metric::new("host_svds_per_cpu_s", items_per(m, |c| c.cpu_s), "1/s"),
        Metric::new(
            "host_call_cpu_ms_p50",
            median(&call_ms(m, |c| c.cpu_s)),
            "ms",
        ),
        Metric::new("sim_svds_per_s", ratio(f.items as f64, f.busy_s), "1/sim_s"),
        Metric::new("sim_e2e_us_p50", median(&f.e2e_us), "sim_us"),
        Metric::new("sim_e2e_us_tail", tail(workload, &f.e2e_us), "sim_us"),
        Metric::new(
            "sim_goodput_per_s",
            ratio(f.good as f64, f.makespan_s),
            "1/sim_s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Milliseconds of every timed call on one host clock.
pub fn call_ms(m: &Measurement, clock: impl Fn(&Call) -> f64) -> Vec<f64> {
    m.calls.iter().map(|c| clock(c) * 1.0e3).collect()
}

/// Items completed per second of one host clock, over every timed call.
pub fn items_per(m: &Measurement, clock: impl Fn(&Call) -> f64) -> f64 {
    let seconds: f64 = m.calls.iter().map(&clock).sum();
    ratio(
        m.calls.iter().map(|c| c.items).sum::<usize>() as f64,
        seconds,
    )
}

/// The workload's tail percentile of `values` (0 when empty).
pub fn tail(workload: Workload, values: &[f64]) -> f64 {
    percentile(values, workload.tail_pct()).map_or(0.0, |(x, _)| x)
}

/// Share of the machine's CPU time stolen by the hypervisor during `m`.
pub fn steal_share(m: &Measurement) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ratio(m.steal_s, m.wall_s * cpus as f64)
}

/// The per-layer metrics of a traced run: layer counts from the untraced
/// phase's first pass (a pure function of the seed), host times from the
/// traced phase, and the tracing overhead between the two phases.
pub fn per_layer(
    workload: Workload,
    setup: &Setup,
    untraced: &Measurement,
    traced: &Measurement,
) -> Vec<Metric> {
    let cpu_per_item = |m: &Measurement| ratio(1.0, items_per(m, |c| c.cpu_s));
    let serving = workload == Workload::ServeOverload;
    let entry_s = traced.first.cpu_s;
    let gen_s = median(&setup.gen_cpu_s);
    let wall_ms = call_ms(untraced, |c| c.wall_s);
    let mut out = untraced.first.layers.metrics(workload.tail_pct());
    out.extend([
        Metric::new("serve.host_s", if serving { entry_s } else { 0.0 }, "s"),
        Metric::new(
            "serve.trace_gen_host_s",
            if serving { gen_s } else { 0.0 },
            "s",
        ),
        Metric::new("core.host_s", if serving { 0.0 } else { entry_s }, "s"),
        Metric::new("linalg.gen_host_s", if serving { 0.0 } else { gen_s }, "s"),
        Metric::new(
            "bench.trace_overhead_share",
            ratio(cpu_per_item(traced), cpu_per_item(untraced)) - 1.0,
            "ratio",
        ),
        Metric::new(
            "bench.failed_share",
            ratio(
                (untraced.failed + traced.failed) as f64,
                (untraced.attempted + traced.attempted) as f64,
            ),
            "ratio",
        ),
        Metric::new("bench.check_host_s", traced.first.check_cpu_s, "s"),
        Metric::new("bench.setup_cold_s", setup.cpu_s[0], "s"),
        Metric::new("bench.setup_wall_s", median(&setup.wall_s), "s"),
        Metric::new(
            "bench.host_call_cpu_ms_tail",
            tail(workload, &call_ms(untraced, |c| c.cpu_s)),
            "ms",
        ),
        Metric::new(
            "bench.host_svds_per_wall_s",
            items_per(untraced, |c| c.wall_s),
            "1/s",
        ),
        Metric::new("bench.host_call_wall_ms_p50", median(&wall_ms), "ms"),
        Metric::new(
            "bench.host_call_wall_ms_tail",
            tail(workload, &wall_ms),
            "ms",
        ),
        Metric::new("bench.host_calls", untraced.calls.len() as f64, "count"),
        Metric::new("bench.steal_share", steal_share(untraced), "ratio"),
    ]);
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
