//! End-to-end benchmark of `Scenario::run`.
//!
//! ```text
//! skipper-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole `Scenario::run` calls, back to back, for
//! `--seconds` and reports the end-to-end metrics: deliveries per host
//! second, heap allocations per delivery, the process's peak RSS and
//! set-up time, with host time scaled to one host speed by a reference
//! kernel run after each `Scenario::run` (see `reference`). `--trace 1`
//! alternates untraced runs with traced ones that time every call into
//! the engine and scheduler seams, and reports the per-layer table.
//! Each mode checks every run's virtual-time fingerprint (pinned for the
//! default seed, identical across runs and between traced and untraced
//! runs on any seed) and prints a table, a JSON detail line, and as its
//! last line the JSON result: `{"correct", "attempted", "failed",
//! "metrics"}`. It exits 1 when a check fails and 2 on bad arguments.

mod check;
mod layers;
mod reference;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use check::{Expect, Fingerprint};
use skipper::core::runtime::RunResult;
use workloads::Setup;

/// Counts every allocation (alloc and realloc) made by the process.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counter bump does not touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Timed runs made even when `--seconds` is already used up, so every
/// median has a middle.
const MIN_RUNS: usize = 3;

/// After each timed run, set-ups run alone, back to back, for this share
/// of the run's wall time; `setup_s` is the median of those samples.
const SETUP_SHARE: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: skipper-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad value for --seconds: {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn setup(args: &Args) -> Setup {
    workloads::setup(&args.workload, args.seed).expect("workload name checked by parse_args")
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run of the benchmark found.
struct Report {
    fingerprint: Fingerprint,
    /// `Scenario::run` calls measured.
    runs: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    tables: String,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks one run: invariants, plus agreement with the run's first
/// fingerprint (`reference`), which is set on first use.
fn check_run(
    r: &RunResult,
    expect: Expect,
    reference: &mut Option<Fingerprint>,
    errors: &mut Vec<String>,
) -> Fingerprint {
    errors.extend(check::invariants(r, expect));
    let fp = Fingerprint::of(r);
    match reference {
        None => *reference = Some(fp),
        Some(first) if *first != fp => errors.extend(
            fp.diff(first)
                .into_iter()
                .map(|d| format!("fingerprint changed between runs: {d}")),
        ),
        Some(_) => {}
    }
    fp
}

/// Times set-ups alone, back to back, until `budget` is spent; at least
/// one. Each sample is multiplied by `scale`.
fn setup_samples(args: &Args, budget: Duration, scale: f64, out: &mut Vec<f64>) {
    let began = Instant::now();
    loop {
        let t0 = Instant::now();
        let s = setup(args).scenario();
        out.push(t0.elapsed().as_secs_f64() * scale);
        drop(s);
        if began.elapsed() >= budget {
            break;
        }
    }
}

/// `--trace 0`: whole `Scenario::run` calls back to back, each followed
/// by the reference kernel and by set-ups alone. The run and its set-ups
/// are scaled by the kernel time measured between them.
fn timed(args: &Args) -> Report {
    let window = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let (mut setup_s, mut rate, mut per_delivery) = (Vec::new(), Vec::new(), Vec::new());
    let (mut host_rate, mut kernel_s) = (Vec::new(), Vec::new());
    let (mut reference, mut errors) = (None, Vec::new());
    while rate.len() < MIN_RUNS || began.elapsed() < window {
        let s = setup(args);
        let expect = s.expect();
        let scenario = s.scenario();
        let t0 = Instant::now();
        let a0 = allocations();
        let r = scenario.run();
        let allocs = allocations() - a0;
        let wall = t0.elapsed().as_secs_f64();
        let fp = check_run(&r, expect, &mut reference, &mut errors);
        drop(r);
        let kernel = reference::kernel_s();
        let scale = reference::REFERENCE_S / kernel;
        rate.push(fp.deliveries() as f64 / (wall * scale));
        host_rate.push(fp.deliveries() as f64 / wall);
        kernel_s.push(kernel);
        per_delivery.push(allocs as f64 / fp.deliveries() as f64);
        setup_samples(
            args,
            Duration::from_secs_f64(wall * SETUP_SHARE),
            scale,
            &mut setup_s,
        );
    }
    let runs = rate.len();
    let setups = setup_s.len();
    let fingerprint = reference.expect("at least one run");
    let metrics = vec![
        ("deliveries_per_s", median(rate), "1/s"),
        ("allocs_per_delivery", median(per_delivery), "count"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("setup_s", median(setup_s), "s"),
    ];
    let tables = table(
        &[
            "workload",
            "deliveries_per_s (1/s)",
            "allocs_per_delivery (count)",
            "peak_rss_mb (MiB)",
            "setup_s (s)",
            "unscaled deliveries/s",
            "kernel (ms)",
            "runs",
            "set-ups",
            "attempted",
            "failed",
        ],
        &[vec![
            args.workload.clone(),
            format!("{:.0}", metrics[0].1),
            format!("{:.2}", metrics[1].1),
            format!("{:.1}", metrics[2].1),
            format!("{:.6}", metrics[3].1),
            format!("{:.0}", median(host_rate)),
            format!("{:.2}", 1e3 * median(kernel_s)),
            runs.to_string(),
            setups.to_string(),
            (fingerprint.offered * runs as u64).to_string(),
            (fingerprint.failed() * runs as u64).to_string(),
        ]],
    );
    Report {
        fingerprint,
        runs: runs as u64,
        errors,
        metrics,
        tables,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A bordered text table.
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let widths: Vec<usize> = (0..headers.len())
        .map(|c| {
            rows.iter()
                .map(|r| r[c].chars().count())
                .chain([headers[c].chars().count()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let rule = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let line = |cells: Vec<&str>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = format!("+{rule}+\n|{}|\n+{rule}+\n", line(headers.to_vec()));
    for r in rows {
        out.push_str(&format!(
            "|{}|\n",
            line(r.iter().map(String::as_str).collect())
        ));
    }
    out.push_str(&format!("+{rule}+\n"));
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = if args.trace {
        layers::traced(&args)
    } else {
        timed(&args)
    };
    let fp = report.fingerprint;
    let pinned = args.seed == workloads::DEFAULT_SEED;
    if pinned {
        match check::pinned(&args.workload) {
            Some(want) => report.errors.extend(
                fp.diff(&want)
                    .into_iter()
                    .map(|d| format!("pinned fingerprint mismatch: {d}")),
            ),
            None => report.errors.push("no pinned fingerprint".to_string()),
        }
    }
    let correct = report.errors.is_empty();

    let r#virtual: [(&str, f64); 7] = [
        ("makespan_s", fp.makespan_us as f64 / 1e6),
        ("p50_response_s", fp.p50_response_us as f64 / 1e6),
        ("p99_response_s", fp.p99_response_us as f64 / 1e6),
        ("group_switches", fp.group_switches as f64),
        (
            "cache_hit_rate",
            ratio(
                fp.cache_hits as f64,
                (fp.cache_hits + fp.cache_misses) as f64,
            ),
        ),
        ("completed", fp.completed as f64),
        ("offered", fp.offered as f64),
    ];
    println!("{}", report.tables);
    let mut headers = vec!["workload (virtual time)"];
    headers.extend(r#virtual.iter().map(|v| v.0));
    let mut row = vec![args.workload.clone()];
    row.extend(r#virtual.iter().map(|v| format!("{}", v.1)));
    println!("{}", table(&headers, &[row]));
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }

    let obj = |pairs: Vec<(String, String)>| {
        format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let detail = obj(vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("runs".into(), report.runs.to_string()),
        ("fingerprint_pinned".into(), pinned.to_string()),
        (
            "virtual".into(),
            obj(r#virtual
                .iter()
                .map(|(k, v)| (k.to_string(), json_num(*v)))
                .collect()),
        ),
        (
            "fingerprint".into(),
            obj(fp
                .fields()
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()),
        ),
        (
            "errors".into(),
            format!(
                "[{}]",
                report
                    .errors
                    .iter()
                    .map(|e| json_str(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ]);
    println!("{detail}");
    let metrics = obj(report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            (
                name.to_string(),
                obj(vec![
                    ("value".into(), json_num(*v)),
                    ("unit".into(), json_str(unit)),
                ]),
            )
        })
        .collect());
    println!(
        "{}",
        obj(vec![
            ("correct".into(), correct.to_string()),
            ("attempted".into(), (fp.offered * report.runs).to_string()),
            ("failed".into(), (fp.failed() * report.runs).to_string()),
            ("metrics".into(), metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
