//! The tgm benchmark: three workloads (`mine`, `stream`, `serve`), their
//! end-to-end metrics, and a traced run that times each layer from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path tgmbench/Cargo.toml -- \
//!     --workload <mine|stream|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the program only sees the generated
//! inputs. Outputs are checked against the repository's oracles before any
//! metric is printed. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `tgmbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod mine;
mod serve;
mod stream;

use std::time::{Duration, Instant};

use tgm_granularity::{Calendar, Gran, Granularity, Second};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload (or its traced run) hands back to `main`.
#[derive(Default)]
struct Outcome {
    /// Operations attempted, oracle comparisons included.
    attempted: u64,
    /// Operations that failed, were refused, or disagreed with an oracle.
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation; `ok == false` counts it as failed
    /// and prints `what` to standard error.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("tgmbench: check failed: {}", what());
        }
    }

    /// The end-to-end metrics every workload reports, from the
    /// workload's per-operation times (ms), its throughput, set-up, and
    /// the peak memory read when the timed phase ended (before the
    /// oracles ran, so their memory is not counted).
    fn end_to_end(&mut self, setup_s: f64, op_ms: &mut [f64], throughput_per_s: f64, rss_mb: f64) {
        sort(op_ms);
        self.metric("setup_s", setup_s, "s");
        self.metric("op_ms_p50", quantile(op_ms, 0.5), "ms");
        self.metric("op_ms_p90", quantile(op_ms, 0.9), "ms");
        self.metric("throughput_per_s", throughput_per_s, "1/s");
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("ok_share", ok, "share");
        self.metric("peak_rss_mb", rss_mb, "MB");
        self.notes.push(format!("op samples: {}", op_ms.len()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tgmbench: {e}");
            eprintln!(
                "usage: tgmbench --workload <mine|stream|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run = Duration::from_secs_f64(args.seconds);
    let out = match (args.workload.as_str(), args.trace) {
        ("mine", false) => mine::run(args.seed, run),
        ("stream", false) => stream::run(args.seed, run),
        ("serve", false) => serve::run(args.seed, run),
        (w @ ("mine" | "stream" | "serve"), true) => traced(w, args.seed, run),
        (other, _) => {
            eprintln!("tgmbench: unknown workload `{other}` (mine, stream, serve)");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"host_cpus\":{}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        host_cpus()
    );
    for n in &out.notes {
        println!("# {n}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = String::new();
    if correct {
        for (i, m) in out.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            metrics.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run: the named workload untraced and then traced (for
/// `obs.trace_overhead_pct`), then every layer probe, each on the input
/// of the workload that exercises that layer.
fn traced(workload: &str, seed: u64, run: Duration) -> Outcome {
    let mut out = Outcome::default();
    let half = run / 2;
    let overhead_pct = match workload {
        "mine" => mine::overhead_pct(seed, half, &mut out),
        "stream" => stream::overhead_pct(seed, half, &mut out),
        _ => serve::overhead_pct(seed, half, &mut out),
    };
    let (cal_us, tag_us) = match workload {
        "mine" => mine::setup_layers(),
        "stream" => stream::setup_layers(),
        _ => serve::setup_layers(),
    };
    out.metric("granularity.calendar_build_us", cal_us, "us");
    out.metric("tag.build_tag_us", tag_us, "us");
    mine::layers(seed, &mut out);
    stream::layers(seed, &mut out);
    // Last: the server switches `tgm_obs` on for the rest of the process.
    serve::layers(seed, &mut out);
    out.metric("obs.trace_overhead_pct", overhead_pct, "%");
    out
}

// -- shared helpers -----------------------------------------------------------

/// Panics unless process-wide switches are at their defaults: observability
/// off, compiled granularity tables and the resolution memo on. Called at
/// the start of the untraced `mine` and `stream` loops, so a switch flipped
/// elsewhere cannot leak into their numbers.
fn assert_default_switches() {
    assert!(
        !tgm_obs::enabled(),
        "tgm_obs must be off in an untraced loop"
    );
    assert!(
        tgm_granularity::periodic::enabled(),
        "compiled granularity tables must be on (the default)"
    );
    assert!(
        tgm_granularity::cache::enabled(),
        "the granularity resolution memo must be on (the default)"
    );
}

/// Conversions into each granularity after building a calendar: enough
/// queries to pass the lazy periodic-table compile threshold, so compile
/// cost is set-up and not the first timed operation's.
const WARM_CONVERSIONS: i64 = 128;

/// Builds the standard calendar and converts sampled `second` ticks across
/// `[from, to]` into each named granularity, returning the handles.
fn warm_calendar(names: &[&str], from: Second, to: Second) -> (Calendar, Vec<Gran>) {
    let cal = Calendar::standard();
    let second = cal.get("second").expect("standard calendar has `second`");
    let grans: Vec<Gran> = names
        .iter()
        .map(|n| cal.get(n).expect("standard granularity"))
        .collect();
    let step = ((to - from) / WARM_CONVERSIONS).max(1);
    for g in &grans {
        for k in 0..WARM_CONVERSIONS {
            let z = second
                .covering_tick(from + k * step)
                .expect("second covers all time");
            std::hint::black_box(second.convert_tick_to(z, g));
        }
    }
    (cal, grans)
}

/// Runs `f` `SETUP_REPS` times; returns the median wall time in seconds
/// and the last result. Each earlier result goes to `retire`, untimed.
fn median_setup<T>(mut f: impl FnMut() -> T, mut retire: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = last.take() {
            retire(old);
        }
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&mut times), last.expect("SETUP_REPS > 0"))
}

/// Median wall time in microseconds of `reps` calls of `f`.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut times)
}

fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.5)
}

/// Peak resident memory (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// SplitMix64: the benchmark's own deterministic generator, so inputs
/// depend on the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}
