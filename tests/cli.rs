//! Integration tests for the `tgm` CLI logic (`tgm::cli::run`).

use std::io::Write as _;

use tgm::cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tgm-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const STRUCTURE: &str = r#"{
  "variables": ["rise", "report", "fall"],
  "constraints": [
    {"from": 0, "to": 1, "lo": 1, "hi": 1, "granularity": "business-day"},
    {"from": 1, "to": 2, "lo": 0, "hi": 1, "granularity": "week"}
  ]
}"#;

// Monday 2000-01-03 10:00 rise; Tuesday 09:00 report; Thursday fall;
// plus a second rise with no follow-up.
const EVENTS: &str = r#"[
  {"ty":"rise","time":208800},
  {"ty":"noise","time":250000},
  {"ty":"report","time":291600},
  {"ty":"fall","time":500000},
  {"ty":"rise","time":813600}
]"#;

#[test]
fn calendar_lists_granularities() {
    let out = run(&args(&["calendar"])).unwrap();
    for name in ["second", "business-day", "weekend", "month"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn calendar_with_custom_gran() {
    let out = run(&args(&["calendar", "--gran", "3 month"])).unwrap();
    assert!(out.contains("3 month"));
    // Bad spec is a user error.
    assert!(run(&args(&["calendar", "--gran", "lightyear"])).is_err());
}

/// `--gran` takes every spelling of the granularity grammar, the calendar
/// expressions included.
#[test]
fn calendar_accepts_calendar_expressions() {
    for spec in [
        "hours 9..17 of business-days",
        "fiscal-years starting apr",
        "business-days except 2000-01-17 into quarters",
    ] {
        let out = run(&args(&["calendar", "--gran", spec])).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(out.contains(spec), "missing {spec} in:\n{out}");
    }
}

/// A malformed spec from outside the program (an impossible date, a count
/// whose period overflows, an `into` chain long enough to overflow the
/// stack if nested) exits 1 with an error naming it, not a panic.
#[test]
fn malformed_specs_exit_1_naming_the_spec() {
    let cfg = temp_file("impossible-holiday.cfg", "holiday 2000-02-30\n");
    let chain = |n: usize| vec!["day"; n].join(" into ");
    let deep = chain(10_000);
    let deep_cfg = temp_file("deep-into.cfg", &format!("gran {}\n", chain(100_000)));
    let cases = [
        ("--gran", "business-day except 2000-02-30", "business-day except 2000-02-30"),
        ("--gran", "9223372036854775807 week", "9223372036854775807 week"),
        ("--gran", "9223372036854775807 year", "9223372036854775807 year"),
        ("--calendar", cfg.to_str().unwrap(), "2000-02-30"),
        ("--gran", deep.as_str(), &deep[..64]),
        ("--calendar", deep_cfg.to_str().unwrap(), "more than 4 `into`s"),
    ];
    for (flag, value, named) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tgm"))
            .args(["calendar", flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(named), "{flag} {value}: {stderr}");
        let error_line = stderr.lines().next().unwrap_or_default();
        assert!(error_line.len() < 1024, "{flag}: a {}-byte error line", error_line.len());
    }
}

/// Counted periods past 1,000 years are refused before any tick
/// arithmetic: neither a wrapped answer nor a panic.
#[test]
fn overlong_counted_periods_exit_1() {
    let cases: [&[&str]; 2] = [
        &[
            "convert",
            "0",
            "1",
            "9223372036854775807 second",
            "--to",
            "day",
            "--gran",
            "9223372036854775807 second",
        ],
        &[
            "convert",
            "0",
            "1",
            "3 month",
            "--to",
            "768614336404564650 year",
            "--gran",
            "768614336404564650 year",
            "--gran",
            "3 month",
        ],
    ];
    for argv in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tgm"))
            .args(argv)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains("too long a period"), "{argv:?}: {stderr}");
    }
}

#[test]
fn convert_command() {
    let out = run(&args(&["convert", "0", "0", "day", "--to", "hour"])).unwrap();
    assert!(out.contains("[0,24]hour"), "{out}");
    let out = run(&args(&["convert", "0", "3", "day", "--to", "business-day"])).unwrap();
    assert!(out.contains("infeasible"), "{out}");
    assert!(run(&args(&["convert", "5", "2", "day", "--to", "hour"])).is_err());
    assert!(run(&args(&["convert", "0", "1", "day"])).is_err()); // missing --to
}

#[test]
fn check_command() {
    let path = temp_file("structure.json", STRUCTURE);
    let out = run(&args(&["check", path.to_str().unwrap(), "--horizon-days", "30"])).unwrap();
    assert!(out.contains("propagation: not refuted"), "{out}");
    assert!(out.contains("CONSISTENT"), "{out}");
    assert!(out.contains("rise ="), "{out}");
}

#[test]
fn check_refuted_structure() {
    let path = temp_file(
        "bad.json",
        r#"{"variables": ["a","b"],
            "constraints": [
              {"from":0,"to":1,"lo":0,"hi":0,"granularity":"day"},
              {"from":0,"to":1,"lo":26,"hi":30,"granularity":"hour"}
            ]}"#,
    );
    let out = run(&args(&["check", path.to_str().unwrap()])).unwrap();
    assert!(out.contains("INCONSISTENT"), "{out}");
}

#[test]
fn match_command() {
    let spath = temp_file("structure2.json", STRUCTURE);
    let epath = temp_file("events.json", EVENTS);
    let out = run(&args(&[
        "match",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
    ]))
    .unwrap();
    assert!(out.contains("1 completion(s)"), "{out}");
    // Arity mismatch is a user error.
    assert!(run(&args(&[
        "match",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--types",
        "rise,report",
    ]))
    .is_err());
}

#[test]
fn stream_command() {
    let spath = temp_file("structure3.json", STRUCTURE);
    // The same events as `match_command`, as NDJSON with a comment line.
    let epath = temp_file(
        "events.ndjson",
        r#"{"ty":"rise","time":208800}
# mid-stream comment
{"ty":"noise","time":250000}
{"ty":"report","time":291600}
{"ty":"fall","time":500000}
{"ty":"rise","time":813600}
"#,
    );
    let out = run(&args(&[
        "stream",
        spath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
        epath.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("streamed 5 events"), "{out}");
    assert!(out.contains("1 completion(s)"), "{out}");
    assert!(out.contains("frontier:"), "{out}");
    // Out-of-order timestamps are a user error.
    let bad = temp_file(
        "bad.ndjson",
        "{\"ty\":\"rise\",\"time\":500}\n{\"ty\":\"fall\",\"time\":100}\n",
    );
    assert!(run(&args(&[
        "stream",
        spath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
        bad.to_str().unwrap(),
    ]))
    .is_err());
}

#[test]
fn stream_command_with_live_stats() {
    let spath = temp_file("structure_stats.json", STRUCTURE);
    // A longer stream so several cadence windows elapse (2-hour spacing
    // keeps timestamps strictly increasing).
    let mut ndjson = String::new();
    for i in 0..24i64 {
        ndjson.push_str(&format!("{{\"ty\":\"rise\",\"time\":{}}}\n", 208_800 + i * 7_200));
    }
    let epath = temp_file("events_stats.ndjson", &ndjson);
    let base = [
        "stream",
        spath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
        epath.to_str().unwrap(),
    ];
    let mut with_stats: Vec<&str> = base.to_vec();
    with_stats.extend(["--stats-every", "4"]);
    let out = run(&args(&with_stats)).unwrap();
    let frames: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
    assert!(frames.len() >= 2, "expected several stats frames:\n{out}");
    for (i, f) in frames.iter().enumerate() {
        assert!(
            f.starts_with(&format!("{{\"schema\":\"tgm_obs_stream/v1\",\"seq\":{i},")),
            "{f}"
        );
        assert!(f.contains("\"gauges\":{"), "{f}");
        for gauge in [
            "\"frontier\":",
            "\"events_total\":",
            "\"events_per_sec\":",
            "\"evicted_rows_total\":",
            "\"watermark_lag\":",
        ] {
            assert!(f.contains(gauge), "frame missing {gauge}: {f}");
        }
    }
    // The human summary still follows the frames.
    assert!(out.contains("streamed 24 events"), "{out}");
    assert!(out.contains("frontier:"), "{out}");
    // OpenMetrics rendering carries the sanitized, prefixed gauges.
    let mut with_om: Vec<&str> = with_stats.clone();
    with_om.extend(["--stats-format", "openmetrics"]);
    let out = run(&args(&with_om)).unwrap();
    assert!(out.contains("# TYPE tgm_watermark_lag gauge"), "{out}");
    assert!(out.contains("tgm_frontier "), "{out}");
    // Unknown format is a user error.
    let mut with_bad: Vec<&str> = with_stats.clone();
    with_bad.extend(["--stats-format", "xml"]);
    assert!(run(&args(&with_bad)).is_err());
}

#[test]
fn mine_command() {
    let spath = temp_file("structure3.json", STRUCTURE);
    let epath = temp_file("events2.json", EVENTS);
    let out = run(&args(&[
        "mine",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--reference",
        "rise",
        "--confidence",
        "0.3",
        "--pin",
        "2=fall",
    ]))
    .unwrap();
    assert!(out.contains("rise, report, fall"), "{out}");
    assert!(out.contains("frequency 0.500"), "{out}");
    // Unknown reference type is a user error.
    assert!(run(&args(&[
        "mine",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--reference",
        "crash",
    ]))
    .is_err());
}

#[test]
fn bad_invocations() {
    assert!(run(&args(&[])).is_err());
    assert!(run(&args(&["frobnicate"])).is_err());
    assert!(run(&args(&["check", "/nonexistent/file.json"])).is_err());
}

#[test]
fn calendar_config_file() {
    let cfg = temp_file(
        "calendar.cfg",
        "# test calendar\nholiday 2000-01-03\ngran 3 month\n",
    );
    let out = run(&args(&["calendar", "--calendar", cfg.to_str().unwrap()])).unwrap();
    assert!(out.contains("3 month"), "{out}");
    // The holiday shifts business-day tick 1 to Tuesday 2000-01-04.
    assert!(out.contains("2000-01-04"), "{out}");
    // Bad config is a user error.
    let bad = temp_file("bad.cfg", "frobnicate\n");
    assert!(run(&args(&["calendar", "--calendar", bad.to_str().unwrap()])).is_err());
}

#[test]
fn csv_event_files() {
    let spath = temp_file("structure4.json", STRUCTURE);
    let epath = temp_file(
        "events.csv",
        "ty,time\nrise,208800\nreport,291600\nfall,500000\n",
    );
    let out = run(&args(&[
        "match",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
    ]))
    .unwrap();
    assert!(out.contains("1 completion(s)"), "{out}");
}

#[test]
fn out_of_range_confidence_is_a_clean_error() {
    let spath = temp_file("structure5.json", STRUCTURE);
    let epath = temp_file("events3.json", EVENTS);
    let err = run(&args(&[
        "mine",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--reference",
        "rise",
        "--confidence",
        "1.5",
    ]))
    .unwrap_err();
    assert!(err.contains("within [0, 1]"), "{err}");
}

#[test]
fn stream_drain_finalizes_with_a_last_frame() {
    let spath = temp_file("structure_drain.json", STRUCTURE);
    // 600 events span three 256-row chunks; draining after one chunk
    // consumes exactly 256 of them on the bounded finalize path (the same
    // path a Ctrl-C/SIGTERM trigger takes at a chunk boundary).
    let mut ndjson = String::new();
    for i in 0..600i64 {
        ndjson.push_str(&format!("{{\"ty\":\"rise\",\"time\":{}}}\n", 208_800 + i * 7_200));
    }
    let epath = temp_file("events_drain.ndjson", &ndjson);
    let base = [
        "stream",
        spath.to_str().unwrap(),
        "--types",
        "rise,report,fall",
        epath.to_str().unwrap(),
    ];
    let mut drained: Vec<&str> = base.to_vec();
    drained.extend(["--stats-every", "100", "--drain-after-chunks", "1"]);
    let out = run(&args(&drained)).unwrap();
    assert!(
        out.contains("stream: drained (256 of 600 events consumed)"),
        "{out}"
    );
    assert!(out.contains("streamed 256 events"), "{out}");
    // Beyond the two cadence emissions (at 100 and 200 events), the drain
    // flushes one final frame carrying the full consumed count, so an
    // operator's last scrape is complete.
    let frames: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
    assert!(frames.len() >= 3, "expected cadence + final frames:\n{out}");
    assert!(
        frames.last().unwrap().contains("\"events_total\":256"),
        "{out}"
    );
    // Draining before the first chunk consumes nothing, cleanly.
    let mut immediate: Vec<&str> = base.to_vec();
    immediate.extend(["--drain-after-chunks", "0"]);
    let out = run(&args(&immediate)).unwrap();
    assert!(
        out.contains("stream: drained (0 of 600 events consumed)"),
        "{out}"
    );
    // A malformed count is a user error.
    let mut bad: Vec<&str> = base.to_vec();
    bad.extend(["--drain-after-chunks", "soon"]);
    assert!(run(&args(&bad)).is_err());
}

#[test]
fn serve_command_drains_after_max_requests() {
    use std::io::BufReader;

    use tgm::serve::frame::{read_frame, write_frame};
    use tgm::serve::proto::Response;

    let port_file = temp_file("serve.port", "");
    let pf = port_file.to_str().unwrap().to_string();
    // `--max-requests 3` makes the server self-drain on the same path a
    // Ctrl-C/SIGTERM trigger takes, once the third request is handled.
    let server = std::thread::spawn(move || {
        run(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            &pf,
            "--max-requests",
            "3",
        ]))
    });
    // The port file is written after bind; poll until it is non-empty.
    let port: u16 = {
        let mut contents = String::new();
        for _ in 0..200 {
            contents = std::fs::read_to_string(&port_file).unwrap_or_default();
            if !contents.trim().is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        contents.trim().parse().expect("server never wrote its port")
    };

    let mut conn = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut roundtrip = |payload: String| -> Response {
        write_frame(&mut conn, payload.as_bytes()).unwrap();
        let raw = read_frame(&mut reader).unwrap().expect("connection closed");
        Response::parse(&String::from_utf8(raw).unwrap()).unwrap()
    };

    let pong = roundtrip(r#"{"op":"ping"}"#.to_string());
    assert!(matches!(pong, Response::Ok(_)), "{pong:?}");

    let matched = roundtrip(format!(
        r#"{{"op":"match","tenant":"acme","structure":{STRUCTURE},
            "types":["rise","report","fall"],"events":{EVENTS}}}"#
    ));
    let result = matched.result().expect("match should succeed");
    let at: Vec<i64> = result
        .get("completions")
        .and_then(tgm::events::minijson::Value::as_array)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("at").and_then(tgm::events::minijson::Value::as_i64))
        .collect();
    assert_eq!(at, [500000]);

    let stats = roundtrip(r#"{"op":"stats","tenant":"acme"}"#.to_string());
    assert!(matches!(stats, Response::Ok(_)), "{stats:?}");

    // Third request handled: the server drains, flushing one labelled
    // telemetry frame per tenant ahead of the human summary.
    let out = server.join().unwrap().unwrap();
    assert!(out.contains("serve: drained after 3 request(s)"), "{out}");
    assert!(out.contains("\"labels\":{\"tenant\":\"acme\"}"), "{out}");

    // Flag parse errors fail before binding anything.
    assert!(run(&args(&["serve", "--max-requests", "soon"])).is_err());
    assert!(run(&args(&["serve", "--timeout-ms", "never"])).is_err());
}

#[test]
fn pinning_the_root_is_rejected() {
    let spath = temp_file("structure6.json", STRUCTURE);
    let epath = temp_file("events4.json", EVENTS);
    let err = run(&args(&[
        "mine",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--reference",
        "rise",
        "--pin",
        "0=fall",
    ]))
    .unwrap_err();
    assert!(err.contains("root variable"), "{err}");
}

/// A structure of `n` variables: a root with `n - 1` children.
fn star_structure(n: usize) -> String {
    let variables: Vec<String> = (0..n).map(|i| format!("\"X{i}\"")).collect();
    let constraints: Vec<String> = (1..n)
        .map(|i| format!(r#"{{"from": 0, "to": {i}, "lo": 0, "hi": 1, "granularity": "day"}}"#))
        .collect();
    format!(
        r#"{{"variables": [{}], "constraints": [{}]}}"#,
        variables.join(", "),
        constraints.join(", ")
    )
}

#[test]
fn mine_rejects_structures_wider_than_the_pipeline() {
    let spath = temp_file("star65.json", &star_structure(65));
    let epath = temp_file("events_star.json", EVENTS);
    let err = run(&args(&[
        "mine",
        spath.to_str().unwrap(),
        epath.to_str().unwrap(),
        "--reference",
        "rise",
    ]))
    .unwrap_err();
    assert!(err.contains("at most 64 variables"), "{err}");
}
