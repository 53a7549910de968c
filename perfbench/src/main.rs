//! End-to-end benchmark of the geocast engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn_repair|session_mix|crash_detect|shard_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its state from the seed, then runs whole rounds
//! of timed operations for `--seconds`, timing every operation from
//! outside the program through the public APIs of `overlay`, `core` and
//! `sim`. Checks run untimed at the end. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod checks;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::{Layer, Tracer};
use util::{median, quantile};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// layer a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("overlay.store.build_s", "s"),
    ("overlay.store.busy_s", "s"),
    ("overlay.store.call_ms_p50", "ms"),
    ("overlay.store.dirty_per_event", "peers"),
    ("overlay.shard.shards_touched_per_event", "shards"),
    ("overlay.shard.mirrors", "peers"),
    ("overlay.shard.build_select_s", "s"),
    ("core.groups.seed_s", "s"),
    ("core.groups.busy_s", "s"),
    ("core.groups.call_ms_p50", "ms"),
    ("core.groups.affected_per_event", "groups"),
    ("core.groups.rebuilt_members_per_op", "members"),
    ("core.groups.ctrl_msgs_per_op", "msgs/op"),
    ("core.graft.relays", "peers"),
    ("core.graft.route_hops_per_rebuild", "msgs"),
    ("core.dataplane.busy_s", "s"),
    ("core.dataplane.flush_us_p50", "us"),
    ("core.dataplane.plan_hit_ratio", "ratio"),
    ("core.dataplane.data_msgs_per_payload", "msgs/payload"),
    ("core.dataplane.epidemic_msgs_per_publish", "msgs"),
    ("sim.busy_s", "s"),
    ("sim.us_per_event", "us"),
    ("sim.detector.query_busy_s", "s"),
    ("sim.detector.suspects_per_step", "peers"),
    ("sim.detector.detect_ms_p50", "ms"),
    ("sim.detector.probe_msgs_per_peer_s", "msgs/peer/s"),
    ("core.detect.run_detection_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back: operation counts and timings, check
/// verdicts, and the per-layer counts it computed from public
/// accessors. Layer times come from the tracer.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: checks::Checks,
    /// Median wall time of one set-up.
    pub setup_s: f64,
    /// Per-operation wall times (ms), untraced rounds only.
    pub op_ms: Vec<f64>,
    /// Per-operation wall times (ms) of traced rounds.
    pub traced_op_ms: Vec<f64>,
    /// Wall and CPU seconds of the measured phase.
    pub phase_wall_s: f64,
    pub phase_cpu_s: f64,
    /// Sim events (deliveries + timers) inside traced rounds.
    pub traced_sim_events: u64,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
}

/// Runs rounds until `seconds` of wall time have passed; every round is
/// run whole. With tracing on, rounds alternate traced and untraced so
/// that the tracing overhead is measured in the same process.
pub fn run_rounds(
    args: &Args,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut round: impl FnMut(usize, &mut Tracer, &mut Vec<f64>),
) {
    let budget = std::time::Duration::from_secs(args.seconds);
    let cpu0 = util::cpu_seconds();
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed() < budget {
        let traced = args.trace && r % 2 == 0;
        tr.set_on(traced);
        let sink = if traced {
            &mut out.traced_op_ms
        } else {
            &mut out.op_ms
        };
        round(r, tr, sink);
        r += 1;
    }
    tr.set_on(false);
    out.phase_wall_s = start.elapsed().as_secs_f64();
    out.phase_cpu_s = util::cpu_seconds() - cpu0;
    out.attempted = (out.op_ms.len() + out.traced_op_ms.len()) as u64;
}

/// Times one operation from outside: wall time into `sink`, and an
/// operation span when the tracer is on.
pub fn timed<R>(tr: &mut Tracer, sink: &mut Vec<f64>, f: impl FnOnce(&mut Tracer) -> R) -> R {
    let open = tr.enter(Layer::Op);
    let t = Instant::now();
    let r = f(tr);
    let dt = t.elapsed();
    tr.exit(open);
    sink.push(util::ms(dt));
    r
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new();
    let Some(mut out) = workloads::run(&args, &mut tr) else {
        eprintln!(
            "perfbench: unknown workload {:?} (churn_repair, session_mix, crash_detect, shard_churn)",
            args.workload
        );
        std::process::exit(2);
    };

    // Layer times from the traced rounds.
    let times: BTreeMap<Layer, trace::LayerTimes> = tr.layer_times().into_iter().collect();
    let busy_s = |l: Layer| times.get(&l).map_or(0.0, |t| t.busy_s);
    let p50 = |l: Layer| times.get(&l).map_or(0.0, |t| t.call_ms_p50);
    let mut layers = std::mem::take(&mut out.layers);
    if args.trace {
        layers.insert("overlay.store.busy_s", busy_s(Layer::OverlayStore));
        layers.insert("overlay.store.call_ms_p50", p50(Layer::OverlayStore));
        layers.insert("core.groups.busy_s", busy_s(Layer::CoreGroups));
        layers.insert("core.groups.call_ms_p50", p50(Layer::CoreGroups));
        layers.insert("core.dataplane.busy_s", busy_s(Layer::CoreDataplane));
        layers.insert(
            "core.dataplane.flush_us_p50",
            p50(Layer::CoreDataplane) * 1e3,
        );
        layers.insert("sim.busy_s", busy_s(Layer::Sim));
        if out.traced_sim_events > 0 {
            layers.insert(
                "sim.us_per_event",
                busy_s(Layer::Sim) * 1e6 / out.traced_sim_events as f64,
            );
        }
        layers.insert("sim.detector.query_busy_s", busy_s(Layer::SimDetector));
        let untraced = median(&out.op_ms);
        if untraced > 0.0 {
            layers.insert(
                "bench.trace_overhead",
                median(&out.traced_op_ms) / untraced - 1.0,
            );
        }
        let path = format!(
            "perfbench/out/spans-{}-seed{}.tsv",
            args.workload, args.seed
        );
        if let Err(e) = tr.write(std::path::Path::new(&path)) {
            out.notes
                .push(format!("could not write spans to {path}: {e}"));
        } else {
            out.notes.push(format!("spans written to {path}"));
        }
    }

    let ops = out.attempted as f64;
    let all_ops: Vec<f64> = out.op_ms.iter().chain(&out.traced_op_ms).copied().collect();
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", out.setup_s);
    e2e.insert("ops_per_s", ops / out.phase_wall_s.max(1e-9));
    e2e.insert("op_ms_p50", median(&all_ops));

    e2e.insert("peak_rss_mb", util::peak_rss_mb());

    let correct = out.checks.all_ok() && out.attempted > 0;
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, verdict) in &out.checks.results {
        let v = match verdict {
            Ok(()) => "ok".to_owned(),
            Err(e) => format!("FAILED: {e}"),
        };
        println!("# check {name}: {v}");
    }
    println!(
        "# phase: {} ops in {:.3} s wall, {:.3} s cpu; {} failed",
        out.attempted, out.phase_wall_s, out.phase_cpu_s, out.failed
    );
    let value = |values: &BTreeMap<&str, f64>, name: &str| {
        json_number(values.get(name).copied().unwrap_or(0.0))
    };
    for (name, unit) in END_TO_END {
        println!("# {name} = {} {unit}", value(&e2e, name));
    }
    // Printed for reading only: its run-to-run spread on this kind of
    // host exceeds any bound the benchmark could hold (see README.md).
    println!("# op_ms_p99 = {} ms", json_number(quantile(&all_ops, 0.99)));
    for (name, unit) in PER_LAYER {
        println!("# {name} = {} {unit}", value(&layers, name));
    }

    let (listed, values) = if args.trace {
        (&PER_LAYER[..], &layers)
    } else {
        (&END_TO_END[..], &e2e)
    };
    let metrics: Vec<String> = listed
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value(values, name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
