//! Implementation of the `tgm` command-line interface (see the `tgm`
//! binary). Factored into the library so the command logic is unit- and
//! integration-testable: [`run`] takes the argument vector and returns the
//! text to print (or a user-facing error).

use tgm_core::exact::{check_with, ExactOptions, ExactOutcome};
use tgm_core::propagate::propagate;
use tgm_events::io as events_io;
use tgm_granularity::format_instant;
use crate::json::structure_from_json;
use crate::prelude::*;

pub(crate) const USAGE: &str = "usage:
  tgm calendar
  tgm convert <lo> <hi> <granularity> --to <granularity>
  tgm check <structure.json> [--horizon-days <n>]
  tgm match <structure.json> --types <t0,t1,...> <events.json>
  tgm stream <structure.json> --types <t0,t1,...> <events.ndjson> \\
           [--stats-every <n>] [--stats-format ndjson|openmetrics] \\
           [--drain-after-chunks <n>]
  tgm mine <structure.json> <events.json> --reference <type> \\
           [--confidence <x>] [--pin <var>=<type>]...
  tgm serve [--addr <host:port>] [--workers <n>] [--queue-depth <n>] \\
           [--max-inflight <n>] [--max-sessions <n>] [--budget <rows>] \\
           [--timeout-ms <n>] [--port-file <path>] [--max-requests <n>]

global flags (all commands):
  --calendar <file>       load a calendar config (holiday/gran directives)
  --holiday <day-index>   add a holiday to the business calendar (repeatable)
  --gran <spec>           register a custom granularity from the granularity
                          grammar, e.g. --gran '3 month' --gran '12 month @ 2000-04'
                          --gran 'days(mon,wed,fri)'
                          --gran 'hours 9..17 of business-days' (repeatable)";

/// Dispatches a CLI invocation; returns the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("calendar") => cmd_calendar(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("match") => cmd_match(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("mine") => cmd_mine(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".into()),
    }
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    flag_values(args, name).into_iter().next()
}

fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // All our flags take one value.
            skip = args.get(i + 1).is_some();
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn calendar_from(args: &[String]) -> Result<Calendar, String> {
    // A whole calendar config file replaces the standard calendar and any
    // --holiday flags; --gran flags still register on top of it.
    let mut cal = match flag_value(args, "--calendar") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            tgm_granularity::parse::calendar_from_config(&text).map_err(|e| e.to_string())?
        }
        None => {
            let holidays: Result<Vec<i64>, _> = flag_values(args, "--holiday")
                .into_iter()
                .map(str::parse::<i64>)
                .collect();
            Calendar::with_holidays(holidays.map_err(|e| format!("bad --holiday value: {e}"))?)
        }
    };
    // Custom granularities from the granularity grammar, e.g.
    //   --gran "3 month"  --gran "days(mon,wed,fri)"  --gran "fiscal-years starting apr"
    for spec in flag_values(args, "--gran") {
        let g = tgm_granularity::parse::parse_granularity(spec).map_err(|e| e.to_string())?;
        cal.register(g).map_err(|e| e.to_string())?;
    }
    Ok(cal)
}

fn cmd_calendar(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let mut out = String::from("registered granularities:\n");
    for g in cal.iter() {
        let sample = g
            .tick_intervals(1)
            .map(|s| {
                format!(
                    "tick 1: {} .. {}",
                    format_instant(s.min()),
                    format_instant(s.max())
                )
            })
            .unwrap_or_else(|| "tick 1 out of horizon".into());
        out.push_str(&format!(
            "  {:<16} gaps: {:<5} {}\n",
            g.name(),
            Granularity::has_gaps(g),
            sample
        ));
    }
    Ok(out)
}

fn cmd_convert(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let pos = positionals(args);
    let [lo, hi, src] = pos.as_slice() else {
        return Err("convert needs <lo> <hi> <granularity>".into());
    };
    let lo: u64 = lo.parse().map_err(|e| format!("bad lo: {e}"))?;
    let hi: u64 = hi.parse().map_err(|e| format!("bad hi: {e}"))?;
    let target_name = flag_value(args, "--to").ok_or("missing --to <granularity>")?;
    let src_g = cal.get(src).map_err(|e| e.to_string())?;
    let dst_g = cal.get(target_name).map_err(|e| e.to_string())?;
    if lo > hi {
        return Err(format!("empty bounds [{lo}, {hi}]"));
    }
    if hi > Tcg::MAX_BOUND {
        return Err(format!("bound {hi} exceeds the supported maximum {}", Tcg::MAX_BOUND));
    }
    let tcg = Tcg::new(lo, hi, src_g);
    Ok(match convert_constraint(&tcg, &dst_g) {
        Some(c) => format!("{tcg}  =>  {c}"),
        None => format!("{tcg}  =>  infeasible (target `{target_name}` has gaps)"),
    })
}

/// Loads an event file, dispatching on extension: `.csv` uses the
/// `type,time` format, anything else is parsed as JSON.
fn load_events(path: &str) -> Result<(tgm_events::TypeRegistry, EventSequence), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".csv") {
        events_io::from_csv(&text).map_err(|e| e.to_string())
    } else {
        events_io::from_json(&text).map_err(|e| e.to_string())
    }
}

fn load_structure(path: &str, cal: &Calendar) -> Result<EventStructure, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    structure_from_json(&json, cal).map_err(|e| e.to_string())
}

fn cmd_check(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let pos = positionals(args);
    let [path] = pos.as_slice() else {
        return Err("check needs <structure.json>".into());
    };
    let s = load_structure(path, &cal)?;
    let mut out = format!("{s:?}\n");
    let p = propagate(&s);
    if !p.is_consistent() {
        out.push_str("propagation: INCONSISTENT (refuted by the sound §3.2 algorithm)\n");
        return Ok(out);
    }
    out.push_str("propagation: not refuted; derived constraints:\n");
    for line in p.describe(&s).lines() {
        out.push_str(&format!("  {line}\n"));
    }
    let horizon_days: i64 = flag_value(args, "--horizon-days")
        .map(|v| v.parse().map_err(|e| format!("bad --horizon-days: {e}")))
        .transpose()?
        .unwrap_or(366);
    let opts = ExactOptions {
        horizon_start: 0,
        horizon_end: horizon_days * 86_400,
        ..ExactOptions::default()
    };
    match check_with(&s, &opts) {
        Ok(ExactOutcome::Consistent(times)) => {
            out.push_str(&format!("exact ({horizon_days}-day horizon): CONSISTENT, witness:\n"));
            for v in s.vars() {
                out.push_str(&format!(
                    "  {} = {}\n",
                    s.name(v),
                    format_instant(times[v.index()])
                ));
            }
        }
        Ok(ExactOutcome::InconsistentWithinHorizon) => {
            out.push_str(&format!(
                "exact ({horizon_days}-day horizon): INCONSISTENT within horizon\n"
            ));
        }
        Err(e) => out.push_str(&format!("exact: gave up ({e})\n")),
    }
    Ok(out)
}

/// Builds the TAG for a structure file plus a `--types` assignment,
/// interning the type names into `reg` (shared between `match` and
/// `stream`).
fn tag_from_args(
    args: &[String],
    spath: &str,
    cal: &Calendar,
    reg: &mut TypeRegistry,
) -> Result<Tag, String> {
    let s = load_structure(spath, cal)?;
    let type_names = flag_value(args, "--types").ok_or("missing --types t0,t1,...")?;
    let phi: Vec<EventType> = type_names
        .split(',')
        .map(|n| reg.intern(n.trim()))
        .collect();
    if phi.len() != s.len() {
        return Err(format!(
            "--types lists {} types but the structure has {} variables",
            phi.len(),
            s.len()
        ));
    }
    Ok(build_tag(&ComplexEventType::new(s, phi)))
}

fn cmd_match(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let pos = positionals(args);
    let [spath, epath] = pos.as_slice() else {
        return Err("match needs <structure.json> <events.json>".into());
    };
    let (mut reg, seq) = load_events(epath)?;
    let tag = tag_from_args(args, spath, &cal, &mut reg)?;
    let mut session = MatchSession::new(&tag);
    session.push_batch(seq.events());
    let completions_at: Vec<Second> = session.completed().map(|c| c.at).collect();
    let mut out = format!(
        "TAG: {} states, {} clocks; scanned {} events\n",
        tag.n_states(),
        tag.clocks().len(),
        seq.len()
    );
    if completions_at.is_empty() {
        out.push_str("no occurrence found\n");
    } else {
        out.push_str(&format!("{} completion(s):\n", completions_at.len()));
        for t in completions_at {
            out.push_str(&format!("  at {}\n", format_instant(t)));
        }
    }
    Ok(out)
}

/// Events per resolve-and-push chunk in `tgm stream` — small enough to
/// behave like a stream, large enough to amortize the column append.
const STREAM_CHUNK: usize = 256;

/// Emits one `tgm stream` telemetry frame (shared by the periodic
/// `--stats-every` emissions and the final frame a drain flushes).
fn emit_stream_frame(
    ex: &mut tgm_obs::Exporter,
    s: &tgm_tag::SessionStats,
    lag: Option<f64>,
    last_frame_at: &mut std::time::Instant,
    last_frame_events: &mut u64,
    stats_format: &str,
) -> String {
    let mut frame = ex.frame();
    let now = std::time::Instant::now();
    let dt = now.duration_since(*last_frame_at).as_secs_f64();
    let delta_events = (s.events as u64).saturating_sub(*last_frame_events);
    frame.set_gauge("frontier", s.frontier as f64);
    frame.set_gauge("events_total", s.events as f64);
    frame.set_gauge(
        "events_per_sec",
        if dt > 0.0 { delta_events as f64 / dt } else { 0.0 },
    );
    // Thm-4 watermark: ticks the slowest live frontier row still has
    // before it saturates (-1 = no live clocked rows).
    frame.set_gauge("watermark_lag", lag.unwrap_or(-1.0));
    *last_frame_at = now;
    *last_frame_events = s.events as u64;
    match stats_format {
        "openmetrics" => frame.to_openmetrics(),
        _ => frame.to_ndjson(),
    }
}

fn cmd_stream(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let pos = positionals(args);
    let [spath, epath] = pos.as_slice() else {
        return Err("stream needs <structure.json> <events.ndjson>".into());
    };
    let text =
        std::fs::read_to_string(epath).map_err(|e| format!("cannot read {epath}: {e}"))?;
    let mut reg = TypeRegistry::new();
    // The parser rejects out-of-order timestamps with the offending line.
    let seq = tgm_events::io::from_ndjson_into(&text, &mut reg).map_err(|e| e.to_string())?;
    let events = seq.events();
    let tag = tag_from_args(args, spath, &cal, &mut reg)?;
    // Live telemetry: --stats-every N attaches a recorder-equipped scoped
    // metric domain to the session and emits one `tgm_obs_stream/v1`
    // delta frame (or an OpenMetrics block) every N events, ahead of the
    // final summary.
    let stats_every: Option<u64> = match flag_value(args, "--stats-every") {
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|e| format!("bad --stats-every value: {e}"))?;
            (n > 0).then_some(n)
        }
        None => None,
    };
    let stats_format = flag_value(args, "--stats-format").unwrap_or("ndjson");
    if !matches!(stats_format, "ndjson" | "openmetrics") {
        return Err(format!(
            "bad --stats-format `{stats_format}` (expected ndjson or openmetrics)"
        ));
    }
    let was_enabled = tgm_obs::enabled();
    let scope = stats_every.map(|_| {
        tgm_obs::set_enabled(true);
        tgm_obs::ObsScope::with_recorder(256)
    });
    // Enter the scope for the whole stream so every emission on this
    // thread lands in it rather than the default registry.
    let _scope_guard = scope.as_ref().map(|s| s.enter());
    let mut exporter = scope.as_ref().map(|s| tgm_obs::Exporter::new(s.clone()));
    // The streaming pipeline proper: resolve tick columns incrementally
    // per chunk, feed the session by row, drain completions as they fire.
    let grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    let mut cols = TickColumns::with_granularities(&grans);
    let mut session = MatchSession::new(&tag);
    if let (Some(n), Some(scope)) = (stats_every, scope.as_ref()) {
        session = session.with_scope(scope.clone()).with_stats_every(n);
    }
    let mut completions_at = Vec::new();
    let mut frames = String::new();
    let mut last_frame_at = std::time::Instant::now();
    let mut last_frame_events = 0u64;
    // A shutdown request (Ctrl-C/SIGTERM via the serve layer's token)
    // observed at a chunk boundary switches to the bounded finalize path:
    // stop consuming, flush one final frame, print the summary.
    // `--drain-after-chunks <n>` forces the same path after n chunks, so
    // the finalize behaviour is testable without delivering a signal.
    tgm_serve::shutdown::install();
    let shutdown_baseline = tgm_serve::shutdown::trigger_count();
    let drain_after: Option<usize> = flag_value(args, "--drain-after-chunks")
        .map(|v| v.parse().map_err(|e| format!("bad --drain-after-chunks: {e}")))
        .transpose()?;
    let mut drained = false;
    'stream: for (ci, chunk) in events.chunks(STREAM_CHUNK.max(1)).enumerate() {
        if tgm_serve::shutdown::trigger_count() > shutdown_baseline
            || drain_after.is_some_and(|n| ci >= n)
        {
            drained = true;
            break 'stream;
        }
        let base = cols.len();
        cols.append(chunk);
        for (i, &e) in chunk.iter().enumerate() {
            match session.push_row(e, &cols, base + i) {
                tgm_tag::Push::Advanced { .. } => {}
                tgm_tag::Push::Dead | tgm_tag::Push::Interrupted(_) => break 'stream,
            }
            if session.stats_due() {
                if let Some(ex) = exporter.as_mut() {
                    let lag = session.watermark_lag().map(|v| v as f64);
                    let s = session.stats();
                    frames.push_str(&emit_stream_frame(
                        ex,
                        &s,
                        lag,
                        &mut last_frame_at,
                        &mut last_frame_events,
                        stats_format,
                    ));
                }
            }
        }
        completions_at.extend(session.completed().map(|c| c.at));
    }
    completions_at.extend(session.completed().map(|c| c.at));
    let stats = session.stats();
    if drained {
        // Final telemetry frame so an operator's last scrape is complete.
        if let Some(ex) = exporter.as_mut() {
            let lag = session.watermark_lag().map(|v| v as f64);
            frames.push_str(&emit_stream_frame(
                ex,
                &stats,
                lag,
                &mut last_frame_at,
                &mut last_frame_events,
                stats_format,
            ));
        }
    }
    if scope.is_some() {
        tgm_obs::set_enabled(was_enabled);
    }
    let mut out = frames;
    if drained {
        out.push_str(&format!(
            "stream: drained ({} of {} events consumed)\n",
            stats.events,
            events.len()
        ));
    }
    out.push_str(&format!(
        "TAG: {} states, {} clocks; streamed {} events\n",
        tag.n_states(),
        tag.clocks().len(),
        stats.events
    ));
    if completions_at.is_empty() {
        out.push_str("no occurrence found\n");
    } else {
        out.push_str(&format!("{} completion(s):\n", completions_at.len()));
        for t in &completions_at {
            out.push_str(&format!("  at {}\n", format_instant(*t)));
        }
    }
    out.push_str(&format!(
        "frontier: {} live rows (peak {})\n",
        stats.frontier, stats.peak_frontier
    ));
    Ok(out)
}

fn cmd_mine(args: &[String]) -> Result<String, String> {
    let cal = calendar_from(args)?;
    let pos = positionals(args);
    let [spath, epath] = pos.as_slice() else {
        return Err("mine needs <structure.json> <events.json>".into());
    };
    let s = load_structure(spath, &cal)?;
    if s.len() > pipeline::MAX_VARIABLES {
        return Err(format!(
            "mine supports at most {} variables, the structure has {}",
            pipeline::MAX_VARIABLES,
            s.len()
        ));
    }
    let (reg, seq) = load_events(epath)?;
    let ref_name = flag_value(args, "--reference").ok_or("missing --reference <type>")?;
    let reference = reg
        .get(ref_name)
        .ok_or_else(|| format!("reference type `{ref_name}` does not occur in the events"))?;
    let confidence: f64 = flag_value(args, "--confidence")
        .map(|v| v.parse().map_err(|e| format!("bad --confidence: {e}")))
        .transpose()?
        .unwrap_or(0.5);
    if !(0.0..=1.0).contains(&confidence) {
        return Err(format!("--confidence must be within [0, 1], got {confidence}"));
    }
    let mut problem = DiscoveryProblem::new(s, confidence, reference);
    for pin in flag_values(args, "--pin") {
        let (var, ty_name) = pin
            .split_once('=')
            .ok_or_else(|| format!("bad --pin `{pin}` (want <var-index>=<type>)"))?;
        let var: usize = var.parse().map_err(|e| format!("bad --pin variable: {e}"))?;
        let ty = reg
            .get(ty_name)
            .ok_or_else(|| format!("pinned type `{ty_name}` does not occur in the events"))?;
        if var >= problem.structure.len() {
            return Err(format!("--pin variable {var} out of range"));
        }
        if VarId(var) == problem.structure.root() {
            return Err(format!(
                "--pin {var}=... targets the root variable, which is fixed to --reference {ref_name}"
            ));
        }
        problem.candidates.restrict(VarId(var), [ty]);
    }
    let (solutions, stats) = pipeline::mine(&problem, &seq);
    let mut out = format!(
        "references: {} ({}), candidates scanned: {}, TAG runs: {}\n",
        stats.refs_total, ref_name, stats.candidates_scanned, stats.tag_runs
    );
    if solutions.is_empty() {
        out.push_str(&format!("no assignment exceeds confidence {confidence}\n"));
    } else {
        for sol in &solutions {
            let names: Vec<&str> = sol.assignment.iter().map(|&t| reg.name(t)).collect();
            out.push_str(&format!(
                "  {:<60} frequency {:.3} (support {})\n",
                names.join(", "),
                sol.frequency,
                sol.support
            ));
        }
    }
    Ok(out)
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
        flag_value(args, name)
            .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
            .transpose()
    };
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let mut quotas = tgm_limits::Quotas::unlimited();
    if let Some(n) = parse_u64("--max-inflight")? {
        quotas = quotas.with_max_inflight(n as u32);
    }
    if let Some(n) = parse_u64("--max-sessions")? {
        quotas = quotas.with_max_sessions(n as u32);
    }
    if let Some(n) = parse_u64("--budget")? {
        quotas = quotas.with_budget(n);
    }
    if let Some(n) = parse_u64("--timeout-ms")? {
        quotas = quotas.with_timeout(std::time::Duration::from_millis(n));
    }
    let config = tgm_serve::ServerConfig {
        workers: parse_u64("--workers")?.unwrap_or(2) as usize,
        queue_depth: parse_u64("--queue-depth")?.unwrap_or(64) as usize,
        default_quotas: quotas,
        tenant_quotas: Vec::new(),
    };
    // Ctrl-C / SIGTERM flips the shared token; the loop below sees it and
    // drains. `--max-requests` gives tests and scripted smoke runs a
    // deterministic self-drain on the same path.
    tgm_serve::shutdown::install();
    let shutdown_baseline = tgm_serve::shutdown::trigger_count();
    let server = tgm_serve::Server::bind(addr, config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(pf) = flag_value(args, "--port-file") {
        std::fs::write(pf, format!("{}\n", server.local_addr().port()))
            .map_err(|e| format!("cannot write {pf}: {e}"))?;
    }
    let max_requests = parse_u64("--max-requests")?;
    loop {
        if tgm_serve::shutdown::trigger_count() > shutdown_baseline {
            break;
        }
        if max_requests.is_some_and(|n| server.core().requests_handled() >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let handled = server.core().requests_handled();
    let sheds = server.core().sheds();
    let frames = server.drain();
    let mut out = String::new();
    for f in &frames {
        out.push_str(f);
    }
    out.push_str(&format!(
        "serve: drained after {handled} request(s), {sheds} shed, {} tenant(s)\n",
        frames.len()
    ));
    Ok(out)
}

/// The usage text shown on errors.
pub fn usage() -> &'static str {
    USAGE
}
