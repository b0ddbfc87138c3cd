//! Command-line entry of the benchmark.
//!
//! ```sh
//! perfbench --workload view_storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Repeats the workload for `--seed` until `--seconds` of host time have
//! passed (at least [`MIN_REPS`] times), checks every output, and prints
//! one JSON result line last. `--trace 0` reports the end-to-end metrics
//! from untraced repetitions. `--trace 1` alternates traced and untraced
//! repetitions, reports the per-layer metrics and the tracing overhead,
//! and writes the spans of the last traced repetition to `--trace-dir`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::report::{end_to_end, peak_rss_mb, per_layer, result_line, Metric};
use perfbench::{run_rep, time_setup, Rep, Workload};

/// Fewest repetitions a run makes, so a median has company.
const MIN_REPS: usize = 3;

/// Builds timed on their own before the repetitions, so `setup_s` is a
/// median over enough samples to be steady.
const EXTRA_SETUPS: usize = 6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--trace-dir" => trace_dir = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut ops = Operations::default();
    match bench(&args, &mut ops) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("perfbench: output check failed: {msg}");
            println!("{}", result_line(false, ops.attempted, ops.failed, &[]));
        }
    }
    ExitCode::SUCCESS
}

/// Operations attempted and failed over the run so far.
#[derive(Default)]
struct Operations {
    attempted: u64,
    failed: u64,
}

/// Runs the repetitions and returns the result line, or the first failed
/// check. `ops` counts the operations as they run.
fn bench(args: &Args, ops: &mut Operations) -> Result<String, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);

    let mut setups: Vec<Duration> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    loop {
        // With tracing on, even repetitions are traced and odd ones are
        // not, so both sides share the machine's state over the run.
        let traced = args.trace && reps.len().is_multiple_of(2);
        let rep = run_rep(w, args.seed, None, traced)?;
        ops.attempted += rep.outcome.attempted;
        ops.failed += rep.outcome.failed;
        if let Some(first) = reps.first() {
            if first.outcome != rep.outcome {
                return Err(format!(
                    "repetition {} of seed {} simulated a different outcome",
                    reps.len(),
                    args.seed
                ));
            }
        }
        setups.push(rep.setup);
        reps.push(rep);
        if reps.len() == 1 {
            // The high-water mark of a fresh process and one repetition;
            // later repetitions only add allocator fragmentation.
            peak_rss = peak_rss_mb()?;
        }
        let min = if args.trace { MIN_REPS + 1 } else { MIN_REPS };
        if reps.len() >= min && start.elapsed() >= budget {
            break;
        }
    }
    for _ in 0..EXTRA_SETUPS {
        setups.push(time_setup(w, args.seed));
    }

    if w == Workload::ShardedChurn {
        // The output must not depend on the worker count.
        let one = run_rep(w, args.seed, Some(1), false)?;
        if one.outcome != reps[0].outcome {
            return Err("one worker thread simulated a different outcome than two".into());
        }
    }
    sanity(&reps[0])?;

    let metrics: Vec<Metric> = if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.tracer.enabled()).collect();
        let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.tracer.enabled()).collect();
        if let Some(dir) = &args.trace_dir {
            write_trace(
                dir,
                w,
                args.seed,
                traced.last().expect("a traced repetition"),
            )?;
        }
        per_layer(&traced, &untraced)
    } else {
        end_to_end(&reps, &setups, peak_rss)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }

    let o = &reps[0].outcome;
    let runs: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "{:.3}{}",
                r.run.as_secs_f64(),
                if r.tracer.enabled() { "t" } else { "" }
            )
        })
        .collect();
    println!(
        "# {} seed {}: {} repetitions, run s [{}]; per repetition {} operations, {} failed, \
         {} admissions refused, {} scripted requests skipped; \
         {} join-delay samples, {} switch-latency samples, {} layer samples",
        w.name(),
        args.seed,
        reps.len(),
        runs.join(" "),
        o.attempted,
        o.failed,
        o.refused,
        o.skipped,
        o.join_delays_ms.len(),
        o.switch_latency_ms.len(),
        o.layer_samples,
    );
    Ok(result_line(true, ops.attempted, ops.failed, &metrics))
}

/// Checks that the outcome describes a run that served anyone at all.
fn sanity(rep: &Rep) -> Result<(), String> {
    let o = &rep.outcome;
    if o.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    if o.join_delays_ms.is_empty() || o.layer_samples == 0 {
        return Err("no viewer completed a join".into());
    }
    let rho = o.acceptance_ratio();
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(format!("acceptance ratio {rho} outside (0, 1]"));
    }
    if o.final_population == 0 {
        return Err("the audience collapsed".into());
    }
    Ok(())
}

/// Writes a traced repetition's spans as JSON lines.
fn write_trace(dir: &str, w: Workload, seed: u64, rep: &Rep) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/{}-seed{seed}.jsonl", w.name());
    let file = std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    rep.tracer
        .write_jsonl(file)
        .map_err(|e| format!("cannot write {path}: {e}"))
}
