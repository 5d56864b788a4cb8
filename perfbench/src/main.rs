//! `wsvd-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics, one per line with the unit,
//! then a final JSON result line. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports the
//! per-layer metrics and writes its host spans to
//! `.bench_out/spans-<workload>-<seed>.json`. Exits non-zero when any output
//! check fails.

use std::process::ExitCode;

use wsvd_perfbench::report::{
    call_ms, end_to_end, items_per, per_layer, result_line, steal_share, tail,
};
use wsvd_perfbench::run::{measure, setup, Budget, Measurement};
use wsvd_perfbench::spans::Spans;
use wsvd_perfbench::stats::median;
use wsvd_perfbench::workload::Workload;
use wsvd_perfbench::{Metric, DEFAULT_SEED, HELD_OUT_SEED};

/// Fewest set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: wsvd-perfbench --workload <offline-small|offline-large|serve-overload> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsvd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seconds = args.seconds as f64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds {} trace {} \
         host threads {threads}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut spans = Spans::new(args.trace);
    let setup = setup(w, args.seed, SETUP_REPS, &mut spans);
    let first_iter = setup.cpu_s.len() as u64;
    let budget = Budget {
        seconds,
        min_calls: w.min_calls(),
    };
    let (metrics, runs): (Vec<Metric>, Vec<Measurement>) = if args.trace {
        let mut off = Spans::new(false);
        let half = Budget {
            seconds: seconds / 2.0,
            ..budget
        };
        let untraced = measure(w, &setup.inputs, args.seed, half, &mut off, first_iter);
        let iter = first_iter + untraced.calls.len() as u64;
        let traced = measure(w, &setup.inputs, args.seed, half, &mut spans, iter);
        (
            per_layer(w, &setup, &untraced, &traced),
            vec![untraced, traced],
        )
    } else {
        let m = measure(w, &setup.inputs, args.seed, budget, &mut spans, first_iter);
        (end_to_end(w, &setup, &m, peak_rss_mb()), vec![m])
    };

    let attempted: usize = runs.iter().map(|m| m.attempted).sum();
    let mut failed: usize = runs.iter().map(|m| m.failed).sum();
    for e in runs.iter().flat_map(|m| &m.errors) {
        eprintln!("check failed: {e}");
    }
    let main_run = &runs[0];
    let pct = w.tail_pct();
    let cpu_ms = call_ms(main_run, |c| c.cpu_s);
    let wall_ms = call_ms(main_run, |c| c.wall_s);
    println!(
        "host clock: {} timed calls; CPU ms per call p50 {:.3} p{pct} {:.3}; wall ms per call \
         p50 {:.3} p{pct} {:.3}; {:.3} items per wall s; hypervisor steal {:.1}% of the CPUs",
        cpu_ms.len(),
        median(&cpu_ms),
        tail(w, &cpu_ms),
        median(&wall_ms),
        tail(w, &wall_ms),
        items_per(main_run, |c| c.wall_s),
        100.0 * steal_share(main_run),
    );
    println!(
        "simulated clock: {} samples from one pass over the {}-call pool, tail = p{pct}; \
         serving arrivals are pre-materialised in simulated µs, so the load generator is never \
         late; failed_share {} of {attempted} attempted",
        main_run.first.e2e_us.len(),
        setup.inputs.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    for m in &metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite", m.name);
            failed += 1;
        }
    }
    if args.trace {
        println!(
            "self time of jacobi versus batched inside wcycle_svd needs spans inside the \
             library; not estimated here"
        );
        let path = format!(".bench_out/spans-{}-{}.json", w.name(), args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => println!("{} spans written to {path}", spans.len()),
            Err(e) => {
                eprintln!("wsvd-perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
