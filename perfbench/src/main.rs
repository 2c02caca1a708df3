//! End-to-end benchmark of the hwprof pipeline.
//!
//! ```text
//! perfbench --workload <fig3_stream|fig4_export|live_watch>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one op at a time (a closed loop with one client).  Set
//! up several times, then alternate the reference kernel and the op
//! for `--seconds`.  With `--trace 0` the last stdout line is a JSON
//! object of the end-to-end metrics; with `--trace 1` a traced run
//! composes the op from the layers' public calls and reports per-layer
//! metrics instead.  See `perfbench/README.md`.

mod alloc;
mod ops;
mod stats;
mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ops::{OpOutput, Workload};
use stats::{calibrate, median, p90, reference_ms};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = ops::DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::new(&name, seed).ok_or(format!(
        "unknown workload {name}; one of {:?}",
        Workload::NAMES
    ))?;
    Ok(Args {
        workload,
        seconds,
        trace,
    })
}

/// One metric of the result line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A metric named `name` reading `value` in `unit`.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the result line: the last line of stdout.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(match p.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match p.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".into(),
            },
        }),
    }
}

/// What set-up establishes: the op's expected output and the exact
/// simulated metrics every op must reproduce.
pub struct Baseline {
    pub expected: OpOutput,
    /// Profiled vs unprofiled busy cycles, in percent.
    pub sim_overhead_pct: f64,
    /// The unprofiled twin's busy cycles.
    pub plain_busy: u64,
}

impl Baseline {
    /// Checks one op's output against set-up's.
    pub fn check(&self, out: &OpOutput) -> Result<(), String> {
        if out != &self.expected {
            return Err(format!(
                "op output {out:?} differs from set-up's {:?}",
                self.expected
            ));
        }
        Ok(())
    }
}

/// One set-up: tag-file build, unprofiled twin run, warm-up op (whose
/// output every timed op must reproduce), and on `fig3_stream` the
/// streaming == batch check.
fn setup(w: &Workload) -> Result<Baseline, String> {
    guarded(|| {
        ops::tagfile()?;
        let (plain_busy, plain_faults) = ops::unprofiled_twin(w)?;
        let warm = ops::run_op(w)?;
        if w.kind == ops::Kind::Fig3Stream {
            ops::check_stream_equals_batch(w, warm.recon())?;
        }
        let expected = warm.output();
        if expected.page_faults != plain_faults {
            return Err(format!(
                "profiled run took {} page faults, unprofiled {plain_faults}: not identical work",
                expected.page_faults
            ));
        }
        let sim_overhead_pct = (expected.busy_cycles as f64 / plain_busy as f64 - 1.0) * 100.0;
        Ok(Baseline {
            expected,
            sim_overhead_pct,
            plain_busy,
        })
    })
}

/// Set up [`SETUP_REPS`] times, each bracketed by reference-kernel
/// runs; returns the baseline (identical across repetitions) and the
/// calibrated set-up seconds of each.
fn setup_reps(w: &Workload, process_start: Instant) -> Result<(Baseline, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut base: Option<Baseline> = None;
    let mut start = process_start;
    let mut cal_before = None;
    for _ in 0..SETUP_REPS {
        let b = setup(w)?;
        let wall = start.elapsed().as_secs_f64();
        let cal_after = reference_ms();
        let cal = cal_before.map_or(cal_after, |c: f64| (c + cal_after) / 2.0);
        secs.push(calibrate(wall, cal));
        if let Some(first) = &base {
            if first.expected != b.expected || first.plain_busy != b.plain_busy {
                return Err("set-up repetitions disagree".into());
            }
        }
        base.get_or_insert(b);
        cal_before = Some(reference_ms());
        start = Instant::now();
    }
    Ok((base.expect("at least one set-up"), secs))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (base, setup_secs) = match setup_reps(&w, process_start) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return traced::run(&w, &base, budget);
    }
    measure(&w, &base, &setup_secs, budget);
    ExitCode::SUCCESS
}

/// The untraced closed loop: reference kernel, op, reference kernel,
/// op, ... for `budget`; each op's wall time calibrated by the mean of
/// the reference runs on either side of it.
fn measure(w: &Workload, base: &Baseline, setup_secs: &[f64], budget: Duration) {
    alloc::reset_peak();
    let start = Instant::now();
    let mut cal_prev = reference_ms();
    let mut op_ms = Vec::new();
    let mut cals = vec![cal_prev];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // At least one op, then until the budget is spent.
    while attempted == 0 || start.elapsed() < budget {
        attempted += 1;
        let t = Instant::now();
        let res = guarded(|| ops::run_op(w));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cal_next = reference_ms();
        cals.push(cal_next);
        let checked = res.and_then(|r| base.check(&r.output()));
        match checked {
            Ok(()) => op_ms.push(calibrate(wall_ms, (cal_prev + cal_next) / 2.0)),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: op {attempted} failed: {e}");
            }
        }
        cal_prev = cal_next;
    }
    let peak_mb = alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
    let enough = op_ms.len() > stats::TAIL_SAMPLES;
    if !enough {
        eprintln!(
            "perfbench: {} good ops is too few for a p90 with {} beyond it",
            op_ms.len(),
            stats::TAIL_SAMPLES
        );
    }
    let (p50, p90v, mean) = if enough {
        let mean = op_ms.iter().sum::<f64>() / op_ms.len() as f64;
        (median(&op_ms), p90(&op_ms), mean)
    } else {
        (f64::NAN, f64::NAN, f64::NAN)
    };
    eprintln!(
        "perfbench: {} ops in {:.1} s, {} failed; events/op {}; reference kernel {:.3} ms median",
        attempted,
        start.elapsed().as_secs_f64(),
        failed,
        base.expected.events,
        median(&cals)
    );
    let metrics = [
        metric("op_ms_p50", p50, "ms"),
        metric("op_ms_p90", p90v, "ms"),
        metric(
            "events_per_s",
            base.expected.events as f64 / (mean / 1e3),
            "1/s",
        ),
        metric("setup_s", median(setup_secs), "s"),
        metric("peak_heap_mb", peak_mb, "MiB"),
        metric("sim_overhead_pct", base.sim_overhead_pct, "%"),
        metric("coverage_pct", base.expected.coverage_pct(), "%"),
        metric(
            "ok_pct",
            (attempted - failed) as f64 * 100.0 / attempted as f64,
            "%",
        ),
    ];
    print_result(failed == 0 && enough, attempted, failed, &metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload sets up (twin, warm-up op, streaming == batch)
    /// and reproduces its output at the default and a held-out seed.
    #[test]
    fn held_out_seed_smoke() {
        for name in Workload::NAMES {
            for seed in [ops::DEFAULT_SEED, ops::HELD_OUT_SEED] {
                let w = Workload::new(name, seed).expect("known workload");
                let base = setup(&w).unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
                let out = ops::run_op(&w).expect("op runs").output();
                base.check(&out)
                    .unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
                assert!(out.events > 0 && base.sim_overhead_pct > 0.0);
            }
        }
    }
}
