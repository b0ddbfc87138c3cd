//! End-to-end and per-layer benchmark of the 4D TeleCast runtimes.
//!
//! Three workloads drive the public API of `telecast` from outside:
//! [`view_storm`] (one single-loop session under view-switching storms),
//! [`sharded_churn`] (the per-region `ShardedSession` on the worker
//! pool) and [`tenant_churn`] (a multi-tenant `TenantFleet`). A run
//! repeats one seed's workload until the measuring time is used up,
//! checks that every repetition produced the same simulated outcome, and
//! reports medians. A traced run wraps each call into the library in a
//! [`trace::Span`] and derives the per-layer figures from span self time
//! and the sessions' public counters.

pub mod outcome;
pub mod report;
pub mod sharded_churn;
pub mod tenant_churn;
pub mod trace;
pub mod view_storm;

use std::time::{Duration, Instant};

use outcome::SimOutcome;
use trace::{Layer, Phase, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`view_storm`].
    ViewStorm,
    /// See [`sharded_churn`].
    ShardedChurn,
    /// See [`tenant_churn`].
    TenantChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ViewStorm,
        Workload::ShardedChurn,
        Workload::TenantChurn,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ViewStorm => "view_storm",
            Workload::ShardedChurn => "sharded_churn",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Wall-clock pool figures a traced `sharded_churn` repetition adds
/// beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct HostExtras {
    /// Per-shard pool busy nanoseconds.
    pub pool_busy_ns: Vec<u64>,
    /// Per-shard barrier-wait nanoseconds.
    pub pool_wait_ns: Vec<u64>,
    /// Epoch wall time beyond the slowest shard.
    pub coordinator_ns: u64,
}

/// Adds `add` to `acc` element by element, growing `acc` as needed.
fn add_into(acc: &mut Vec<u64>, add: &[u64]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0);
    }
    for (a, b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}

/// One repetition of a workload: every instance built and run once.
#[derive(Debug)]
pub struct Rep {
    /// Host time of the builds.
    pub setup: Duration,
    /// Host time from the first request to the horizon, summed over the
    /// instances.
    pub run: Duration,
    /// The simulated outcome of all instances together.
    pub outcome: SimOutcome,
    /// The recorder (empty unless the repetition was traced).
    pub tracer: Tracer,
    /// Pool timings of a traced repetition.
    pub extras: HostExtras,
}

impl Workload {
    /// Independent instances one repetition runs, each on a seed of its
    /// own derived from the run's seed. Several smaller instances average
    /// out how much one seed's chaotic §VI resync happens to cost.
    pub fn instances(self) -> u64 {
        match self {
            Workload::ViewStorm => 16,
            Workload::ShardedChurn => 1,
            Workload::TenantChurn => 3,
        }
    }

    /// Seed of instance `k` of a run with seed `seed`; distinct runs and
    /// instances never share one.
    pub fn instance_seed(self, seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(self.instances()).wrapping_add(k)
    }
}

/// Builds and runs one repetition of `workload` for `seed`, then checks
/// the broker's books. `threads` overrides the shard worker count.
///
/// # Errors
///
/// Describes a failed output check.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    threads: Option<usize>,
    traced: bool,
) -> Result<Rep, String> {
    let mut tr = Tracer::new(traced);
    let mut extras = HostExtras::default();
    let mut outcome = SimOutcome::default();
    let (mut setup, mut run) = (Duration::ZERO, Duration::ZERO);
    for k in 0..workload.instances() {
        let seed = workload.instance_seed(seed, k);
        let (built_in, ran_in) = match workload {
            Workload::ViewStorm => {
                let params = view_storm::Params::bench(seed);
                let (mut built, s) = timed(&mut tr, "setup", |tr| view_storm::setup(&params, tr));
                let ((), r) = timed(&mut tr, "run", |tr| {
                    view_storm::run(&mut built, tr, &mut outcome)
                });
                view_storm::check(&built)?;
                (s, r)
            }
            Workload::ShardedChurn => {
                let mut params = sharded_churn::Params::bench(seed);
                if let Some(threads) = threads {
                    params.threads = threads;
                }
                let (mut built, s) =
                    timed(&mut tr, "setup", |tr| sharded_churn::setup(&params, tr));
                let (coordinator_ns, r) = timed(&mut tr, "run", |tr| {
                    sharded_churn::run(&mut built, tr, &mut outcome)
                });
                sharded_churn::check(&built)?;
                let (busy, wait) = sharded_churn::pool_stats(&built);
                add_into(&mut extras.pool_busy_ns, &busy);
                add_into(&mut extras.pool_wait_ns, &wait);
                extras.coordinator_ns += coordinator_ns;
                (s, r)
            }
            Workload::TenantChurn => {
                let params = tenant_churn::Params::bench(seed);
                let (mut built, s) = timed(&mut tr, "setup", |tr| tenant_churn::setup(&params, tr));
                let ((), r) = timed(&mut tr, "run", |tr| {
                    tenant_churn::run(&mut built, tr, &mut outcome)
                });
                tenant_churn::check(&built)?;
                (s, r)
            }
        };
        setup += built_in;
        run += ran_in;
    }
    outcome.finish();
    Ok(Rep {
        setup,
        run,
        outcome,
        tracer: tr,
        extras,
    })
}

/// Host time of building every instance of one repetition, without
/// running them.
pub fn time_setup(workload: Workload, seed: u64) -> Duration {
    let mut tr = Tracer::new(false);
    let mut total = Duration::ZERO;
    for k in 0..workload.instances() {
        let seed = workload.instance_seed(seed, k);
        let start = Instant::now();
        match workload {
            Workload::ViewStorm => {
                let built = view_storm::setup(&view_storm::Params::bench(seed), &mut tr);
                total += start.elapsed();
                drop(std::hint::black_box(built));
            }
            Workload::ShardedChurn => {
                let built = sharded_churn::setup(&sharded_churn::Params::bench(seed), &mut tr);
                total += start.elapsed();
                drop(std::hint::black_box(built));
            }
            Workload::TenantChurn => {
                let built = tenant_churn::setup(&tenant_churn::Params::bench(seed), &mut tr);
                total += start.elapsed();
                drop(std::hint::black_box(built));
            }
        }
    }
    total
}

/// Runs `f` inside a top-level benchmark span and times it.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, Duration) {
    let span = tr.begin(Layer::Bench, name, None, Phase::None, Default::default);
    let start = Instant::now();
    let out = std::hint::black_box(f(tr));
    let elapsed = start.elapsed();
    tr.end(span, Default::default);
    (out, elapsed)
}
