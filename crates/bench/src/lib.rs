//! Experiment harness for the PODS'96 reproduction: each module regenerates
//! one figure or quantitative claim of the paper (see DESIGN.md §4 for the
//! E1–E12 index, and EXPERIMENTS.md for recorded paper-vs-measured output).
//!
//! Run everything with `cargo run -p tgm-bench --bin experiments --release`.
//! The timing helpers below are shared with the `bench_json` and
//! `obs_report` binaries.

pub mod workloads;

pub mod e01_figures;
pub mod e02_nphardness;
pub mod e03_propagation;
pub mod e04_conversion;
pub mod e05_tag_construction;
pub mod e06_matching;
pub mod e07_pipeline;
pub mod e08_episodes;
pub mod e09_semantics;
pub mod e10_scaling;
pub mod e11_ablations;
pub mod e12_tightness;

/// Milliseconds elapsed while running `f`, along with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median of `reps` timed runs of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Runs `f` once untimed (a warm-up, whose result is returned), then
/// returns the median of `reps` further timed runs, in milliseconds.
pub(crate) fn warm_median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let out = f();
    let ms = median_ms(reps, || {
        std::hint::black_box(f());
    });
    (out, ms)
}

/// The observability overhead budget in percent: `OBS_OVERHEAD_BUDGET_PCT`,
/// default 3.
pub fn obs_overhead_budget_pct() -> f64 {
    std::env::var("OBS_OVERHEAD_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0)
}

/// One mode's cost against the baseline mode, from [`interleaved_overhead`].
#[derive(Clone, Copy, Debug)]
pub struct Overhead {
    /// Baseline milliseconds of the chosen round.
    pub base_ms: f64,
    /// This mode's milliseconds in the same round.
    pub mode_ms: f64,
    /// `(mode_ms / base_ms − 1) · 100`.
    pub pct: f64,
}

/// The overhead estimator every observability budget is judged by.
/// `run(mode)` times one run of `mode` in milliseconds; mode 0 is the
/// baseline. Two layers of noise rejection:
///
/// - within each of `rounds` rounds, the `modes` run interleaved `reps`
///   times (host clock drift hits every mode alike) and each keeps its
///   minimum (a descheduled sample is discarded);
/// - across rounds, each mode takes the median round by overhead ratio,
///   discarding rounds where one mode never got a quiet window.
///
/// Returns one estimate per non-baseline mode, in mode order.
pub fn interleaved_overhead(
    modes: usize,
    rounds: usize,
    reps: usize,
    mut run: impl FnMut(usize) -> f64,
) -> Vec<Overhead> {
    let mut mins: Vec<Vec<f64>> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut round = vec![f64::INFINITY; modes];
        for _ in 0..reps {
            for (mode, best) in round.iter_mut().enumerate() {
                *best = best.min(run(mode));
            }
        }
        mins.push(round);
    }
    (1..modes)
        .map(|mode| {
            let mut pairs: Vec<(f64, f64)> = mins.iter().map(|r| (r[0], r[mode])).collect();
            pairs.sort_by(|a, b| (a.1 / a.0).partial_cmp(&(b.1 / b.0)).expect("finite"));
            let (base_ms, mode_ms) = pairs[pairs.len() / 2];
            let pct = (mode_ms / base_ms.max(1e-9) - 1.0) * 100.0;
            Overhead { base_ms, mode_ms, pct }
        })
        .collect()
}

/// Prints a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}
