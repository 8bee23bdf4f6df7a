//! One benchmark for the Logical Disk stack.
//!
//! ```text
//! ld-perfbench --workload <smallfile|largefile|cleaner> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs cycles of the chosen workload (see `workloads`) until `--seconds`
//! have passed, then prints every metric by name with its unit and sample
//! count, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics from unwrapped stacks; `--trace 1` alternates
//! unwrapped and traced cycles and reports the per-layer metrics. Any
//! failed op, wrong byte, `ldck` error, broken determinism check or traced
//! op time the layer spans do not account for exits with status 1.

#![forbid(unsafe_code)]

mod counters;
mod gen;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use counters::ratio;
use stack::{Mode, Plain, Traced};
use stats::{median, percentile, tail};
use trace::{Kind, Layer, KINDS};
use workloads::{Cycle, Failure, Outcome};

/// Cycles every run completes, however short `--seconds` is.
const MIN_CYCLES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Smallfile,
    Largefile,
    Cleaner,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "smallfile" => Some(Self::Smallfile),
            "largefile" => Some(Self::Largefile),
            "cleaner" => Some(Self::Cleaner),
            _ => None,
        }
    }

    /// Whether the simulated results must repeat exactly. The cleaner's do
    /// not: `lld` re-logs records by iterating `std` `HashSet`s, whose
    /// per-instance random order decides which summary each record lands
    /// in (see README.md, "Known defect").
    fn deterministic(self) -> bool {
        self != Self::Cleaner
    }

    fn cycle<M: Mode>(self, mode: &M, seed: u64) -> Outcome<Cycle> {
        match self {
            Self::Smallfile => workloads::smallfile(mode, seed),
            Self::Largefile => workloads::largefile(mode, seed),
            Self::Cleaner => workloads::cleaner(mode, seed),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn m(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Median over cycles of a per-cycle figure.
fn per_cycle(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

fn sum_s(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

fn pooled(cycles: &[Cycle], f: impl Fn(&Cycle) -> Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = cycles.iter().flat_map(f).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn pct(sorted: &[f64], p: f64, what: &str) -> Outcome<f64> {
    percentile(sorted, p)
        .map(|p| p.value)
        .ok_or_else(|| Failure::Check(format!("too few {what} samples for p{p}")))
}

fn end_to_end(cycles: &[Cycle]) -> Outcome<Vec<Metric>> {
    let n = cycles.len();
    let host = pooled(cycles, |c| {
        c.host_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    });
    let sim = pooled(cycles, |c| c.sim_us.iter().map(|&us| us as f64).collect());
    for (what, v) in [("host_op", &host), ("sim_op", &sim)] {
        if let Some(t) = tail(v) {
            println!(
                "tail     {what}_p{}_us = {} (n={}, {} beyond)",
                t.pct, t.value, t.samples, t.beyond
            );
        }
    }
    Ok(vec![
        m("setup_s", "s", per_cycle(cycles, |c| c.setup_s), n),
        m(
            "host_ops_per_s",
            "1/s",
            per_cycle(cycles, |c| c.ops() as f64 / sum_s(&c.host_ns)),
            n,
        ),
        m(
            "host_op_p50_us",
            "us",
            pct(&host, 50.0, "host")?,
            host.len(),
        ),
        m(
            "host_op_p99_us",
            "us",
            pct(&host, 99.0, "host")?,
            host.len(),
        ),
        m(
            "peak_rss_mb",
            "MB",
            cycles[0].peak_rss_kb as f64 / 1024.0,
            1,
        ),
        m(
            "sim_ops_per_s",
            "1/sim_s",
            per_cycle(cycles, |c| {
                c.ops() as f64 / (c.sim_us.iter().sum::<u64>() as f64 / 1e6)
            }),
            n,
        ),
        m(
            "sim_op_p50_us",
            "sim_us",
            pct(&sim, 50.0, "sim")?,
            sim.len(),
        ),
        m(
            "sim_op_p99_us",
            "sim_us",
            pct(&sim, 99.0, "sim")?,
            sim.len(),
        ),
        m(
            "sim_recovery_s",
            "sim_s",
            per_cycle(cycles, |c| c.recovery_sim_us as f64 / 1e6),
            n,
        ),
        m(
            "write_amp",
            "ratio",
            per_cycle(cycles, |c| c.counters.write_amp(c.user_bytes)),
            n,
        ),
    ])
}

/// Per-layer metrics: span figures from the traced cycles, everything
/// else from the unwrapped cycles of the same run.
fn per_layer(plain: &[Cycle], traced: &[Cycle]) -> Vec<Metric> {
    let (np, nt) = (plain.len(), traced.len());
    let span = |layer: Layer, f: fn(trace::KindTotals) -> f64| {
        per_cycle(traced, |c| f(c.profile.layer(layer)))
    };
    let ctr = |f: &dyn Fn(&Cycle) -> f64| per_cycle(plain, f);
    let secs = |t: trace::KindTotals| t.self_ns as f64 / 1e9;
    let calls = |t: trace::KindTotals| t.calls as f64;
    vec![
        m("minix-fs.self_s", "s", span(Layer::MinixFs, secs), nt),
        m("minix-fs.ops", "count", span(Layer::MinixFs, calls), nt),
        m(
            "fsutil.cache_hits",
            "count",
            ctr(&|c| c.counters.cache_hits as f64),
            np,
        ),
        m(
            "fsutil.cache_misses",
            "count",
            ctr(&|c| c.counters.cache_misses as f64),
            np,
        ),
        m(
            "fsutil.cache_hit_ratio",
            "ratio",
            ctr(&|c| {
                ratio(
                    c.counters.cache_hits,
                    c.counters.cache_hits + c.counters.cache_misses,
                )
            }),
            np,
        ),
        m("lld.calls", "count", span(Layer::Lld, calls), nt),
        m("lld.self_s", "s", span(Layer::Lld, secs), nt),
        m(
            "lld.segments_sealed",
            "count",
            ctr(&|c| c.counters.lld_segments_sealed as f64),
            np,
        ),
        m(
            "lld.partial_segment_writes",
            "count",
            ctr(&|c| c.counters.lld_partial_segment_writes as f64),
            np,
        ),
        m(
            "lld.records_logged",
            "count",
            ctr(&|c| c.counters.lld_records_logged as f64),
            np,
        ),
        m(
            "lld.list_records_logged",
            "count",
            ctr(&|c| c.counters.lld_list_records_logged as f64),
            np,
        ),
        m(
            "lld.segments_cleaned",
            "count",
            ctr(&|c| c.counters.lld_segments_cleaned as f64),
            np,
        ),
        m(
            "lld.cleaner_bytes_copied",
            "B",
            ctr(&|c| c.counters.lld_cleaner_bytes_copied as f64),
            np,
        ),
        m(
            "lld.cleaner_copy_ratio",
            "ratio",
            ctr(&|c| c.counters.cleaner_copy_ratio(c.user_bytes)),
            np,
        ),
        m(
            "lld.cleaner_records_relogged",
            "count",
            ctr(&|c| c.counters.lld_cleaner_records_relogged as f64),
            np,
        ),
        m(
            "lld.reads_from_memory_ratio",
            "ratio",
            ctr(&|c| {
                ratio(
                    c.counters.lld_block_reads_from_memory,
                    c.counters.lld_block_reads,
                )
            }),
            np,
        ),
        m("recovery.host_s", "s", ctr(&|c| c.recovery_host_s), np),
        m(
            "recovery.summaries_read",
            "count",
            ctr(&|c| c.recovery_summaries as f64),
            np,
        ),
        m(
            "queue.dispatched",
            "count",
            ctr(&|c| c.counters.queue_dispatched as f64),
            np,
        ),
        m(
            "queue.coalesced_ratio",
            "ratio",
            ctr(&|c| ratio(c.counters.queue_coalesced, c.counters.queue_submitted)),
            np,
        ),
        m(
            "queue.mean_depth",
            "requests",
            ctr(&|c| ratio(c.counters.queue_depth_sum, c.counters.queue_dispatched)),
            np,
        ),
        m("simdisk.calls", "count", span(Layer::Simdisk, calls), nt),
        m("simdisk.host_s", "s", span(Layer::Simdisk, secs), nt),
        m(
            "simdisk.host_us_per_call",
            "us",
            per_cycle(traced, |c| {
                let t = c.profile.layer(Layer::Simdisk);
                ratio(t.self_ns, t.calls) / 1e3
            }),
            nt,
        ),
        m(
            "simdisk.read_ops",
            "count",
            ctr(&|c| c.counters.disk_read_ops as f64),
            np,
        ),
        m(
            "simdisk.write_ops",
            "count",
            ctr(&|c| c.counters.disk_write_ops as f64),
            np,
        ),
        m(
            "simdisk.sectors_written",
            "count",
            ctr(&|c| c.counters.disk_sectors_written as f64),
            np,
        ),
        m(
            "simdisk.seek_us",
            "sim_us",
            ctr(&|c| c.counters.disk_seek_us as f64),
            np,
        ),
        m(
            "simdisk.rotation_us",
            "sim_us",
            ctr(&|c| c.counters.disk_rotation_us as f64),
            np,
        ),
        m(
            "simdisk.transfer_us",
            "sim_us",
            ctr(&|c| c.counters.disk_transfer_us as f64),
            np,
        ),
        m(
            "simdisk.overhead_us",
            "sim_us",
            ctr(&|c| c.counters.disk_overhead_us as f64),
            np,
        ),
        m(
            "simdisk.cached_read_ratio",
            "ratio",
            ctr(&|c| ratio(c.counters.disk_cached_reads, c.counters.disk_read_ops)),
            np,
        ),
        m(
            "simdisk.resident_mb",
            "MB",
            ctr(&|c| c.resident_bytes as f64 / (1 << 20) as f64),
            np,
        ),
        m("ldck.check_s", "s", ctr(&|c| c.ldck_s), np),
        m(
            "trace.overhead_ratio",
            "ratio",
            per_cycle(traced, |c| sum_s(&c.host_ns)) / per_cycle(plain, |c| sum_s(&c.host_ns)),
            nt,
        ),
    ]
}

/// Share of the traced op and recovery time the layers' self times must
/// cover in every traced cycle. The rest is timer overhead between the op
/// timer and the outermost span.
const MIN_ACCOUNTED: f64 = 0.99;

/// Prints where the traced op time went, span by span, and fails unless
/// every traced cycle's spans account for its op time and device I/O.
fn check_profile(traced: &[Cycle]) -> Outcome<()> {
    let Some(last) = traced.last() else {
        return Ok(());
    };
    println!("spans of the last traced cycle (self time = span minus child spans):");
    for (kind, k) in KINDS.iter().zip(&last.profile.kinds) {
        if k.calls > 0 {
            println!(
                "  {:<9} {:<26} calls={:<9} total_s={:.6} self_s={:.6}",
                kind.layer().name(),
                kind.name(),
                k.calls,
                k.total_ns as f64 / 1e9,
                k.self_ns as f64 / 1e9
            );
        }
    }
    for (i, c) in traced.iter().enumerate() {
        let layers: u64 = trace::LAYERS
            .iter()
            .map(|&l| c.profile.layer(l).self_ns)
            .sum();
        let timed = c.host_ns.iter().sum::<u64>() + c.other_ns;
        let share = ratio(layers, timed);
        println!(
            "accounting: traced cycle {i}: minix-fs.self_s + lld.self_s + simdisk.host_s = {:.6} s \
             of {:.6} s traced op and recovery time ({:.2} %)",
            layers as f64 / 1e9,
            timed as f64 / 1e9,
            100.0 * share
        );
        if share < MIN_ACCOUNTED {
            return Err(Failure::Check(format!(
                "traced cycle {i}: layer spans cover {:.2} % of the traced op time, under {:.0} %",
                100.0 * share,
                100.0 * MIN_ACCOUNTED
            )));
        }
        let spanned = (
            c.profile.kinds[Kind::DevRead as usize].calls,
            c.profile.kinds[Kind::DevWrite as usize].calls,
        );
        let counted = (c.counters.disk_read_ops, c.counters.disk_write_ops);
        if spanned != counted {
            return Err(Failure::Check(format!(
                "traced cycle {i}: (read_sectors, write_sectors) spans {spanned:?} \
                 differ from DiskStats (read_ops, write_ops) {counted:?}"
            )));
        }
    }
    Ok(())
}

/// Simulated results must repeat exactly across cycles and trace modes,
/// except on the cleaner, whose spread is reported instead.
fn check_repeat(workload: Workload, seed: u64, plain: &[Cycle], traced: &[Cycle]) -> Outcome<()> {
    let first = plain[0].sim_fingerprint();
    let same_plain = plain.iter().all(|c| c.sim_fingerprint() == first);
    let same_traced = traced.iter().all(|c| c.sim_fingerprint() == first);
    if workload.deterministic() {
        if !same_plain {
            return Err(Failure::Check(
                "simulated results differ between cycles of one seed".into(),
            ));
        }
        if !same_traced {
            return Err(Failure::Check(
                "traced and untraced simulated results differ".into(),
            ));
        }
        println!(
            "repeat: simulated results identical across {} untraced and {} traced cycles",
            plain.len(),
            traced.len()
        );
        return Ok(());
    }
    let all: Vec<&Cycle> = plain.iter().chain(traced).collect();
    let mut outcomes: Vec<_> = all.iter().map(|c| c.sim_fingerprint()).collect();
    outcomes.sort();
    outcomes.dedup();
    let sim_s: Vec<f64> = all
        .iter()
        .map(|c| c.sim_us.iter().sum::<u64>() as f64 / 1e6)
        .collect();
    let cleaned: Vec<u64> = all
        .iter()
        .map(|c| c.counters.lld_segments_cleaned)
        .collect();
    println!(
        "repeat: KNOWN DEFECT — {} distinct simulated outcomes (per-op latencies, recovery, \
         counters) in {} cycles of seed {seed}: op sim time {:.6}..{:.6} s, segments cleaned \
         {}..{}; cause: lld/src/cleaner.rs re-logs records by iterating std HashSets",
        outcomes.len(),
        all.len(),
        sim_s.iter().copied().fold(f64::INFINITY, f64::min),
        sim_s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        cleaned.iter().min().unwrap_or(&0),
        cleaned.iter().max().unwrap_or(&0),
    );
    Ok(())
}

fn run(args: &Args, attempted: &mut usize) -> Outcome<Vec<Metric>> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let c = args.workload.cycle(&Plain, args.seed)?;
        *attempted += c.ops();
        plain.push(c);
        if args.trace {
            let c = args.workload.cycle(&Traced(Rc::default()), args.seed)?;
            *attempted += c.ops();
            traced.push(c);
        }
        if plain.len() >= MIN_CYCLES && Instant::now() >= deadline {
            break;
        }
    }
    for (kind, cycles) in [("untraced", &plain), ("traced", &traced)] {
        for c in cycles.iter() {
            println!(
                "cycle    {kind:<8} setup_s={:.6} op_host_s={:.6} op_sim_s={:.6} ops={}",
                c.setup_s,
                sum_s(&c.host_ns),
                c.sim_us.iter().sum::<u64>() as f64 / 1e6,
                c.ops()
            );
        }
    }
    check_repeat(args.workload, args.seed, &plain, &traced)?;
    println!("failed_op_ratio = 0 ratio (n={})", *attempted);
    if args.trace {
        check_profile(&traced)?;
        Ok(per_layer(&plain, &traced))
    } else {
        end_to_end(&plain)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ld-perfbench: {e}");
            eprintln!("usage: ld-perfbench --workload <smallfile|largefile|cleaner> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut attempted = 0;
    match run(&args, &mut attempted) {
        Ok(metrics) => {
            let mut json = Vec::new();
            for x in &metrics {
                if !x.value.is_finite() {
                    eprintln!("ld-perfbench: metric {} is not finite", x.name);
                    return ExitCode::FAILURE;
                }
                println!(
                    "metric   {:<28} {:>18} {:<8} n={}",
                    x.name, x.value, x.unit, x.samples
                );
                json.push(format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                ));
            }
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
                json.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ld-perfbench: {e}");
            let failed = usize::from(matches!(e, Failure::Op(_)));
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
                attempted.max(1)
            );
            ExitCode::FAILURE
        }
    }
}
