//! Seeds: the same seed gives identical inputs and bit-identical simulated
//! metrics and per-layer counts; a different seed changes the inputs. Also
//! pins the metric names to `BENCHMARK.json`.

use wsvd_perfbench::check::fingerprint_offline;
use wsvd_perfbench::report::{end_to_end, per_layer};
use wsvd_perfbench::run::{measure, setup, Budget, Measurement};
use wsvd_perfbench::spans::Spans;
use wsvd_perfbench::workload::{Inputs, Workload};
use wsvd_perfbench::Metric;

/// One pass over the first two pool calls.
const SHORT: Budget = Budget {
    seconds: 0.0,
    min_calls: 0,
};

fn input_bits(inputs: &Inputs) -> Vec<u64> {
    match inputs {
        Inputs::Offline(batches) => batches
            .iter()
            .flatten()
            .flat_map(|m| {
                [m.rows() as u64, m.cols() as u64]
                    .into_iter()
                    .chain(m.as_slice().iter().map(|x| x.to_bits()))
            })
            .collect(),
        Inputs::Serve(traces) => traces
            .iter()
            .flat_map(|t| &t.requests)
            .flat_map(|r| [r.arrival_us, r.rows as u64, r.cols as u64, r.data_seed])
            .collect(),
    }
}

/// The simulated end-to-end metrics and every per-layer count, as bits.
/// Host times are left out; so are the plan-cache counts when
/// `with_plan_cache` is false, since `PlanCache::global()` is shared by the
/// whole process and a second pass in one process finds it warm.
fn deterministic(w: Workload, m: &Measurement, with_plan_cache: bool) -> Vec<(&'static str, u64)> {
    let f = &m.first;
    let mut out = vec![
        ("items", f.items as u64),
        ("good", f.good as u64),
        ("busy_s", f.busy_s.to_bits()),
        ("makespan_s", f.makespan_s.to_bits()),
    ];
    out.extend(f.e2e_us.iter().map(|x| ("e2e_us", x.to_bits())));
    out.extend(
        f.layers
            .metrics(w.tail_pct())
            .into_iter()
            .filter(|x| with_plan_cache || !x.name.starts_with("batched.plan_cache"))
            .map(|x| (x.name, x.value.to_bits())),
    );
    out
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = input_bits(&w.generate(5));
        assert_eq!(a, input_bits(&w.generate(5)), "{}", w.name());
        assert_ne!(a, input_bits(&w.generate(6)), "{}", w.name());
    }
}

#[test]
fn same_seed_gives_bit_identical_simulated_metrics_and_counts() {
    for w in Workload::ALL {
        let inputs = w.generate(5).truncated(2);
        let mut spans = Spans::new(false);
        let runs: Vec<Measurement> = (0..3)
            .map(|_| measure(w, &inputs, 5, SHORT, &mut spans, 0))
            .collect();
        for m in &runs {
            assert_eq!(m.failed, 0, "{}: {:?}", w.name(), m.errors);
        }
        assert_eq!(
            deterministic(w, &runs[0], false),
            deterministic(w, &runs[1], false),
            "{}",
            w.name()
        );
        // Runs 2 and 3 both see the cache the first run filled.
        assert_eq!(
            deterministic(w, &runs[1], true),
            deterministic(w, &runs[2], true),
            "{}",
            w.name()
        );
        let other = measure(w, &w.generate(6).truncated(2), 6, SHORT, &mut spans, 0);
        assert_ne!(
            deterministic(w, &runs[0], false),
            deterministic(w, &other, false),
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_corrupted_factor_fails_the_checks() {
    let w = Workload::OfflineSmall;
    let Inputs::Offline(batches) = w.generate(3).truncated(1) else {
        unreachable!("offline workload")
    };
    let gpu = wsvd_gpu_sim::Gpu::new(wsvd_gpu_sim::V100);
    let mut out =
        wsvd_core::wcycle_svd(&gpu, &batches[0], &Default::default()).expect("finite inputs");
    let clean = fingerprint_offline(&out);
    assert!(wsvd_perfbench::check::check_factorization(&batches[0][0], &out.results[0]).is_ok());
    out.results[0].sigma[0] *= 1.0 + 1e-6;
    assert_ne!(fingerprint_offline(&out), clean);
    assert!(wsvd_perfbench::check::check_factorization(&batches[0][0], &out.results[0]).is_err());
    assert!(wsvd_perfbench::check::check_reference(&batches[0][0], &out.results[0]).is_err());
}

#[test]
fn emitted_metric_names_and_units_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let w = Workload::OfflineSmall;
    let mut spans = Spans::new(false);
    let s = setup(w, 2, 1, &mut spans);
    let inputs = w.generate(2).truncated(2);
    let m = measure(w, &inputs, 2, SHORT, &mut spans, 0);
    let listed = |x: &Metric| {
        json.contains(&format!(
            "\"name\": \"{}\", \"unit\": \"{}\"",
            x.name, x.unit
        ))
    };
    let e2e = end_to_end(w, &s, &m, 1.0);
    let layers = per_layer(w, &s, &m, &m);
    for x in e2e.iter().chain(&layers) {
        assert!(listed(x), "{} ({}) not in BENCHMARK.json", x.name, x.unit);
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        Workload::ALL.len() + e2e.len() + layers.len()
    );
}
