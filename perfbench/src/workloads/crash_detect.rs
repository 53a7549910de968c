//! `crash_detect`: one sampling step of detection-driven repair.
//!
//! A round is one `core::detect` scenario replayed step by step through
//! the same public calls `run_detection` makes: N peers on
//! `TopologyStore::from_peers`, G clustered groups, a plane of
//! `DetectorNode`s on the simulator with coordinate-derived latencies,
//! and a wave of crash-stop and silent peers. One operation is one
//! sampling step:
//! 1. `Simulation::run_for(sample_every)` advances the plane (the wave
//!    fires at the first step boundary at or after `crash_at`);
//! 2. the first live observer's dead verdict triggers
//!    `remove_if_present`, then `sync`;
//! 3. the union of live observers' suspicions goes to `set_suspects`;
//! 4. each group gets one ground-truth `publish_with_failures`.
//!
//! Each round builds a fresh scenario from its own seed, so every round
//! detects a full wave.
//!
//! The step loop is a copy of `run_detection`'s loop, kept equal to it
//! in output by the round-0 check. A change behind the public calls it
//! makes (the simulator, `DetectorNode::suspected_peers`, the store, the
//! engine) shows on the end-to-end metrics directly. A change to the
//! loop inside `run_detection` itself shows on
//! `core.detect.run_detection_s`, the time of one whole
//! `run_detection` call on round 0's scenario, and reaches the
//! end-to-end metrics only once the loop here is changed to match.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use geocast_core::detect::{run_detection, CoverageSample, DetectionReport, DetectionScenario};
use geocast_core::groups::{GroupEngine, GroupId};
use geocast_core::OrthantRectPartitioner;
use geocast_geom::gen::uniform_points;
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};
use geocast_sim::workload::crash_wave_victims;
use geocast_sim::{
    CoordDistanceLatency, DetectorConfig, DetectorNode, DetectorVerdict, FaultModel, NodeId,
    SimDuration, SimTime, Simulation,
};

use super::{check_equilibrium, check_groups, sample_live, set_up};
use crate::checks::{self, Checks};
use crate::trace::{Layer, Tracer};
use crate::util::{derive, mean, median, Rng64};
use crate::{run_rounds, timed, Args, Outcome};

/// The coordinate-derived network of `core::detect`: 2 ms per message
/// plus 15 µs per unit of L2 distance.
const LATENCY_BASE_NS: u64 = 2_000_000;
const LATENCY_PER_UNIT_NS: u64 = 15_000;
const SETUPS: usize = 9;
/// Scenarios built during set-up (the first rounds).
const PREBUILT: usize = 8;

fn scenario(seed: u64) -> DetectionScenario {
    DetectionScenario {
        peers: 200,
        dim: 2,
        vmax: 1000.0,
        groups: 8,
        group_size: 16,
        seed,
        detector: DetectorConfig {
            probe_period: SimDuration::from_millis(100),
            probe_timeout: SimDuration::from_millis(50),
            indirect_peers: 2,
            suspicion_timeout: SimDuration::from_millis(400),
            max_backoff: 3,
        },
        loss: 0.0,
        burst: None,
        crash_at: SimDuration::from_millis(500),
        crash_count: 3,
        silent_count: 2,
        run_for: SimDuration::from_secs(24),
        sample_every: SimDuration::from_millis(100),
    }
}

/// One scenario's live state, built exactly as `run_detection` builds it.
struct Plane {
    sc: DetectionScenario,
    engine: GroupEngine,
    sim: Simulation<DetectorNode>,
    ids: Vec<GroupId>,
}

fn build(sc: DetectionScenario) -> Plane {
    let point_set = uniform_points(sc.peers, sc.dim, sc.vmax, sc.seed);
    let peers = PeerInfo::from_point_set(&point_set);
    let positions = point_set.into_points();
    let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
    let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
    let mut state = sc.seed;
    let ids = engine.seed_groups_clustered(&vec![sc.group_size; sc.groups], &mut state);
    let members: Vec<NodeId> = (0..sc.peers).map(NodeId).collect();
    let nodes: Vec<DetectorNode> = (0..sc.peers)
        .map(|_| DetectorNode::new(members.clone(), sc.detector))
        .collect();
    let sim = Simulation::builder(nodes)
        .seed(sc.seed)
        .latency(CoordDistanceLatency::new(
            positions,
            SimDuration::from_nanos(LATENCY_BASE_NS),
            SimDuration::from_nanos(LATENCY_PER_UNIT_NS),
        ))
        .fault(FaultModel::with_loss(sc.loss))
        .build();
    Plane {
        sc,
        engine,
        sim,
        ids,
    }
}

/// What the step loop saw in one round, in `DetectionReport` terms.
#[derive(Debug, Clone, Default, PartialEq)]
struct Seen {
    victims: BTreeSet<usize>,
    detected: Vec<(usize, SimDuration)>,
    removed: Vec<usize>,
    false_positives: usize,
    suspect_events: u64,
    refute_events: u64,
    timeline: Vec<CoverageSample>,
}

/// Compares the step loop's round with `run_detection`'s report.
fn same_as_report(seen: &Seen, report: &DetectionReport) -> Result<(), String> {
    let victims: BTreeSet<usize> = report
        .crashed
        .iter()
        .chain(&report.silent)
        .copied()
        .collect();
    let fields = [
        ("victims", seen.victims == victims),
        ("detected", seen.detected == report.detected),
        ("removed", seen.removed == report.removed),
        (
            "false positives",
            seen.false_positives == report.false_positives,
        ),
        (
            "suspect events",
            seen.suspect_events == report.suspect_events,
        ),
        ("refute events", seen.refute_events == report.refute_events),
        ("timeline", seen.timeline == report.timeline),
        ("oracle convergence", report.converged),
    ];
    match fields.iter().find(|(_, ok)| !ok) {
        Some((name, _)) => Err(format!("{name} differ from run_detection")),
        None => Ok(()),
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let round_seed = |r: usize| derive(args.seed, 200 + r as u64);
    // Set-up builds the first rounds' scenarios, so that one set-up is
    // long enough to time steadily.
    let (prebuilt, setup_s) = set_up(
        SETUPS,
        || {
            let planes: Vec<Plane> = (0..PREBUILT)
                .map(|r| build(scenario(round_seed(r))))
                .collect();
            (planes, vec![])
        },
        &mut out.layers,
    );
    out.setup_s = setup_s;
    let mut prebuilt = prebuilt.into_iter();
    let mut last: Option<Plane> = None;
    let mut rounds: Vec<Seen> = Vec::new();
    let (mut suspects_total, mut steps) = (0usize, 0usize);
    let (mut sent, mut peer_seconds) = (0u64, 0.0f64);
    let (mut epidemic_msgs, mut epidemic_publishes) = (0usize, 0usize);
    let (mut data_msgs, mut payloads) = (0u64, 0u64);
    let mut failed = 0u64;

    let mut traced_sim_events = 0u64;

    run_rounds(args, tr, &mut out, |r, tr, sink| {
        let mut p = prebuilt
            .next()
            .unwrap_or_else(|| build(scenario(round_seed(r))));
        let sc = p.sc.clone();
        let mut seen = Seen::default();
        let mut wave_at: Option<SimTime> = None;
        let mut cursors = vec![0usize; sc.peers];
        let mut removed_set: BTreeSet<usize> = BTreeSet::new();
        let end = SimTime::ZERO + sc.run_for;
        let sent0 = p.sim.counters().sent();
        loop {
            let events0 = p.sim.counters().delivered() + p.sim.counters().timers_fired();
            let (suspects, publishes) = timed(tr, sink, |tr| {
                tr.span(Layer::Sim, || {
                    p.sim.run_for(sc.sample_every);
                    if wave_at.is_none() && p.sim.now() >= SimTime::ZERO + sc.crash_at {
                        let victims = crash_wave_victims(
                            sc.peers,
                            sc.crash_count + sc.silent_count,
                            &[],
                            sc.seed,
                        );
                        for (k, &v) in victims.iter().enumerate() {
                            if k < sc.crash_count.min(victims.len()) {
                                p.sim.crash(NodeId(v));
                            } else {
                                p.sim.fault_mut().set_silent(NodeId(v), true);
                            }
                        }
                        seen.victims = victims.into_iter().collect();
                        wave_at = Some(p.sim.now());
                    }
                });
                // Verdicts from live observers only.
                let new_dead = tr.span(Layer::SimDetector, || {
                    let mut new_dead: Vec<(usize, SimTime)> = Vec::new();
                    for i in 0..sc.peers {
                        let events = p.sim.node(NodeId(i)).events();
                        if seen.victims.contains(&i) || removed_set.contains(&i) {
                            cursors[i] = events.len();
                            continue;
                        }
                        for event in &events[cursors[i]..] {
                            match event.kind {
                                DetectorVerdict::Suspect => seen.suspect_events += 1,
                                DetectorVerdict::Refute => seen.refute_events += 1,
                                DetectorVerdict::Dead => {
                                    new_dead.push((event.peer.index(), event.at));
                                }
                            }
                        }
                        cursors[i] = events.len();
                    }
                    new_dead
                });
                for (victim, at) in new_dead {
                    if !removed_set.insert(victim) {
                        continue;
                    }
                    seen.removed.push(victim);
                    if seen.victims.contains(&victim) {
                        seen.detected
                            .push((victim, at.since(wave_at.unwrap_or(SimTime::ZERO))));
                    } else {
                        seen.false_positives += 1;
                    }
                    tr.span(Layer::OverlayStore, || {
                        p.engine
                            .store_mut()
                            .remove_if_present(PeerId(victim as u64))
                    });
                }
                tr.span(Layer::CoreGroups, || p.engine.sync());
                let suspects = tr.span(Layer::SimDetector, || {
                    let mut suspects: BTreeSet<usize> = BTreeSet::new();
                    for i in 0..sc.peers {
                        if seen.victims.contains(&i) || removed_set.contains(&i) {
                            continue;
                        }
                        suspects.extend(
                            p.sim
                                .node(NodeId(i))
                                .suspected_peers()
                                .into_iter()
                                .map(|q| q.index())
                                .filter(|q| !removed_set.contains(q)),
                        );
                    }
                    suspects
                });
                let count = suspects.len();
                tr.span(Layer::CoreGroups, || p.engine.set_suspects(suspects));
                let pending: BTreeSet<usize> =
                    seen.victims.difference(&removed_set).copied().collect();
                let publishes = tr.span(Layer::CoreDataplane, || {
                    p.ids
                        .iter()
                        .map(|&g| {
                            let degraded = p.engine.is_degraded(g);
                            let outcome = p.engine.publish_with_failures(g, &pending);
                            let epidemic = p
                                .engine
                                .last_epidemic()
                                .filter(|_| degraded && outcome.is_some())
                                .map(|e| e.eager_messages + e.ihave_digests + e.iwant_pulls);
                            (p.engine.members(g).len(), degraded, outcome, epidemic)
                        })
                        .collect::<Vec<_>>()
                });
                (count, (pending.len(), publishes))
            });
            let (pending, publishes) = publishes;
            let (mut delivered, mut total, mut degraded) = (0usize, 0usize, 0usize);
            for (members, deg, outcome, epidemic) in publishes {
                total += members;
                degraded += usize::from(deg);
                if let Some(o) = outcome {
                    delivered += o.delivered;
                    data_msgs += o.messages as u64;
                    payloads += o.payloads as u64;
                }
                if let Some(m) = epidemic {
                    epidemic_msgs += m;
                    epidemic_publishes += 1;
                }
            }
            seen.timeline.push(CoverageSample {
                at: p.sim.now(),
                coverage: if total == 0 {
                    1.0
                } else {
                    delivered as f64 / total as f64
                },
                degraded_groups: degraded,
                pending_failures: pending,
            });
            if tr.is_on() {
                traced_sim_events +=
                    p.sim.counters().delivered() + p.sim.counters().timers_fired() - events0;
            }
            suspects_total += suspects;
            steps += 1;
            peer_seconds += (sc.peers - seen.victims.len()) as f64 * sc.sample_every.as_secs_f64();
            if p.sim.now() >= end {
                break;
            }
        }
        sent += p.sim.counters().sent() - sent0;
        let detected: BTreeSet<usize> = seen.detected.iter().map(|&(v, _)| v).collect();
        failed += (seen.victims.len() - detected.len()) as u64 + seen.false_positives as u64;
        rounds.push(seen);
        last = Some(p);
    });
    out.failed = failed;
    out.traced_sim_events = traced_sim_events;

    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|s| s.detected.iter().map(|(_, d)| d.as_secs_f64() * 1e3))
        .collect();
    out.layers
        .insert("sim.detector.detect_ms_p50", median(&latencies));
    out.layers.insert(
        "sim.detector.probe_msgs_per_peer_s",
        sent as f64 / peer_seconds.max(1e-9),
    );
    out.layers.insert(
        "sim.detector.suspects_per_step",
        mean(suspects_total as f64, steps),
    );
    out.layers.insert(
        "core.dataplane.epidemic_msgs_per_publish",
        mean(epidemic_msgs as f64, epidemic_publishes),
    );
    out.layers.insert(
        "core.dataplane.data_msgs_per_payload",
        mean(data_msgs as f64, payloads as usize),
    );

    // Checks, untimed.
    let sc0 = scenario(round_seed(0));
    let suspicion_ms = sc0.detector.suspicion_timeout.as_secs_f64() * 1e3;
    let mut result = Ok(());
    for (r, seen) in rounds.iter().enumerate() {
        let lat: Vec<(usize, f64)> = seen
            .detected
            .iter()
            .map(|&(v, d)| (v, d.as_secs_f64() * 1e3))
            .collect();
        if let Err(e) = checks::detections(suspicion_ms, &lat, &seen.removed, &seen.victims) {
            result = Err(format!("round {r}: {e}"));
            break;
        }
    }
    out.checks
        .record(&format!("detections ({} rounds)", rounds.len()), result);
    let t = Instant::now();
    let report = run_detection(&sc0);
    out.layers
        .insert("core.detect.run_detection_s", t.elapsed().as_secs_f64());
    if let Some(seen) = rounds.first() {
        self_test_detections(seen, suspicion_ms, &mut out.checks);
        out.checks.record(
            "round 0 reproduces run_detection",
            same_as_report(seen, &report),
        );
        let mut bad = seen.clone();
        if let Some(s) = bad.timeline.last_mut() {
            s.degraded_groups += 1;
        }
        out.checks
            .expect_reject("run_detection replay", same_as_report(&bad, &report));
    }
    if let Some(p) = &last {
        let mut sample_rng = Rng64::new(derive(args.seed, 3));
        let sample = sample_live(p.engine.store(), 32, &mut sample_rng);
        check_equilibrium(p.engine.store(), &sample, &mut out.checks);
        check_groups(&p.engine, &mut out.checks);
    }
    out.notes.push(format!(
        "crash_detect: N={}, {} groups of {}, {} rounds of {} steps, {} detections",
        sc0.peers,
        sc0.groups,
        sc0.group_size,
        rounds.len(),
        steps / rounds.len().max(1),
        latencies.len()
    ));
    out
}

fn self_test_detections(seen: &Seen, suspicion_ms: f64, checks: &mut Checks) {
    let lat: Vec<(usize, f64)> = seen
        .detected
        .iter()
        .map(|&(v, d)| (v, d.as_secs_f64() * 1e3))
        .collect();
    let mut early = lat.clone();
    if let Some(first) = early.first_mut() {
        first.1 = suspicion_ms / 2.0;
    }
    checks.expect_reject(
        "detections: early verdict",
        checks::detections(suspicion_ms, &early, &seen.removed, &seen.victims),
    );
    let mut removed = seen.removed.clone();
    if let Some(live) = (0..).find(|p| !seen.victims.contains(p)) {
        removed.push(live);
    }
    checks.expect_reject(
        "detections: live peer evicted",
        checks::detections(suspicion_ms, &lat, &removed, &seen.victims),
    );
}
