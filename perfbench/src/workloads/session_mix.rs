//! `session_mix`: one session tick of membership writes, publishes and
//! occasional churn over many scattered groups.
//!
//! Set-up: N uniform peers on `TopologyStore::from_peers`, G scattered
//! groups with Zipf sizes. One tick applies a few `GroupWorkload` ops
//! (subscribe, unsubscribe, publish) with `apply_workload_op`, then
//! sends one Zipf `PublishWorkload` batch with `enqueue` and
//! `flush_tick`. The last tick of every round also applies one peer
//! join or leave (alternating by round) and `sync`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use geocast_core::groups::{AppliedOp, GroupEngine, GroupId};
use geocast_core::OrthantRectPartitioner;
use geocast_geom::gen::uniform_points;
use geocast_geom::Point;
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};
use geocast_sim::workload::{zipf_group_sizes, GroupWorkload, PublishWorkload};

use super::{check_equilibrium, check_groups, sample_live, set_up, tree_view, RebuildWatch};
use crate::checks;
use crate::trace::{Layer, Tracer};
use crate::util::{derive, mean, Rng64};
use crate::{run_rounds, timed, Args, Outcome};

const PEERS: usize = 2000;
const VMAX: f64 = 1000.0;
const GROUPS: usize = 64;
const SUBSCRIPTIONS: usize = 1500;
const SIZE_ZIPF: f64 = 1.0;
const OPS_PER_TICK: usize = 4;
const TICKS_PER_ROUND: usize = 8;
const PUBLISH_ZIPF: f64 = 1.2;
const PAYLOADS_PER_TICK: usize = 32;
const SETUPS: usize = 3;

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut engine, setup_s) = set_up(
        SETUPS,
        || {
            let peers = PeerInfo::from_point_set(&uniform_points(PEERS, 2, VMAX, args.seed));
            let t = Instant::now();
            let store = TopologyStore::from_peers(peers, Arc::new(EmptyRectSelection));
            let build_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut engine = GroupEngine::new(store, Arc::new(OrthantRectPartitioner::median()));
            let mut state = derive(args.seed, 1);
            engine.seed_groups(
                &zipf_group_sizes(GROUPS, SUBSCRIPTIONS, SIZE_ZIPF),
                &mut state,
            );
            let seed_s = t.elapsed().as_secs_f64();
            (
                engine,
                vec![
                    ("overlay.store.build_s", build_s),
                    ("core.groups.seed_s", seed_s),
                ],
            )
        },
        &mut out.layers,
    );
    out.setup_s = setup_s;

    let membership = GroupWorkload {
        groups: GROUPS,
        exponent: SIZE_ZIPF,
        events: OPS_PER_TICK * TICKS_PER_ROUND,
        subscribe_weight: 1,
        unsubscribe_weight: 1,
        publish_weight: 2,
    };
    let publishing = PublishWorkload {
        groups: GROUPS,
        exponent: PUBLISH_ZIPF,
        ticks: usize::MAX,
        payloads_per_tick: PAYLOADS_PER_TICK,
    };
    let mut rng = Rng64::new(derive(args.seed, 2));
    let mut bind_state = derive(args.seed, 4);
    let mut live: Vec<usize> = (0..engine.store().len()).collect();
    let mut watch = RebuildWatch::new(&engine);
    let rebuilt0 = engine.totals().rebuilt_members;
    let plans0 = engine.plan_stats();
    let (mut data_msgs, mut payloads) = (0u64, 0u64);
    // Per group: (rebuild count, payloads, messages) of every batch.
    let mut recorded: Vec<(GroupId, u64, usize, usize)> = Vec::new();
    let mut failed = 0u64;
    let mut tick = 0usize;

    run_rounds(args, tr, &mut out, |r, tr, sink| {
        let ops = membership.ops(derive(args.seed, 100 + r as u64));
        for (t, chunk) in ops.chunks(OPS_PER_TICK).enumerate() {
            let counts = publishing.tick_payloads(args.seed, tick);
            tick += 1;
            let churn = (t + 1 == TICKS_PER_ROUND).then(|| {
                if r % 2 == 1 {
                    Err(live.swap_remove(rng.below(live.len())))
                } else {
                    Ok(Point::new(vec![rng.unit() * VMAX, rng.unit() * VMAX])
                        .expect("finite coordinates"))
                }
            });
            let joins = matches!(churn, Some(Ok(_)));
            let (applied, batches) = timed(tr, sink, |tr| {
                let applied: Vec<AppliedOp> = tr.span(Layer::CoreGroups, || {
                    chunk
                        .iter()
                        .map(|&op| engine.apply_workload_op(op, &mut bind_state))
                        .collect()
                });
                let batches = tr.span(Layer::CoreDataplane, || {
                    for (g, &n) in counts.iter().enumerate() {
                        engine.enqueue(GroupId(g as u32), n);
                    }
                    engine.flush_tick()
                });
                // Name the tree each batch rode by its rebuild count,
                // before the churn event below can rebuild it.
                let batches: Vec<_> = batches
                    .into_iter()
                    .map(|b| (engine.rebuild_count(b.group), b))
                    .collect();
                if let Some(event) = churn {
                    tr.span(Layer::OverlayStore, || match event {
                        Ok(point) => {
                            engine.store_mut().insert(point);
                        }
                        Err(victim) => engine.store_mut().remove(PeerId(victim as u64)),
                    });
                    tr.span(Layer::CoreGroups, || engine.sync());
                }
                (applied, batches)
            });
            if joins {
                live.push(engine.store().len() - 1);
            }
            for a in applied {
                if let AppliedOp::Published(_, o) = a {
                    data_msgs += o.messages as u64;
                    payloads += o.payloads as u64;
                }
            }
            for (rebuilds, b) in batches {
                data_msgs += b.messages as u64;
                payloads += b.payloads as u64;
                recorded.push((b.group, rebuilds, b.payloads, b.messages));
            }
            if watch.observe(&engine) {
                failed += 1;
            }
        }
    });
    out.failed = failed;

    let ops = out.attempted as usize;
    let plans = engine.plan_stats();
    let (hits, misses) = (plans.hits - plans0.hits, plans.misses - plans0.misses);
    out.layers.insert(
        "core.groups.rebuilt_members_per_op",
        mean((engine.totals().rebuilt_members - rebuilt0) as f64, ops),
    );
    out.layers.insert(
        "core.groups.ctrl_msgs_per_op",
        mean(watch.ctrl_msgs as f64, ops),
    );
    out.layers.insert(
        "core.graft.route_hops_per_rebuild",
        mean(watch.route_hops as f64, watch.rebuilds as usize),
    );
    out.layers
        .insert("core.graft.relays", super::total_relays(&engine) as f64);
    out.layers.insert(
        "core.dataplane.plan_hit_ratio",
        mean(hits as f64, (hits + misses) as usize),
    );
    out.layers.insert(
        "core.dataplane.data_msgs_per_payload",
        mean(data_msgs as f64, payloads as usize),
    );

    // Checks, untimed.
    let mut sample_rng = Rng64::new(derive(args.seed, 3));
    let sample = sample_live(engine.store(), 64, &mut sample_rng);
    check_equilibrium(engine.store(), &sample, &mut out.checks);
    check_groups(&engine, &mut out.checks);
    check_batches(&mut engine, &recorded, &mut out.checks);
    out.notes.push(format!(
        "session_mix: N={PEERS}, {GROUPS} scattered groups, {tick} ticks, {} batches",
        recorded.len()
    ));
    out
}

/// Recorded batches of groups whose tree has not been rebuilt since are
/// recounted against the current tree; then every group flushes a
/// batch of 1 and of 7 payloads, which must cost the same recount.
fn check_batches(
    engine: &mut GroupEngine,
    recorded: &[(GroupId, u64, usize, usize)],
    checks: &mut crate::checks::Checks,
) {
    let mut by_group: BTreeMap<GroupId, Vec<(usize, usize)>> = BTreeMap::new();
    for &(g, rebuilds, p, m) in recorded {
        if engine.rebuild_count(g) == rebuilds {
            by_group.entry(g).or_default().push((p, m));
        }
    }
    for gi in 0..engine.group_count() {
        let g = GroupId(gi as u32);
        for p in [1, 7] {
            if let Some(b) = engine.publish_batch(g, p) {
                by_group
                    .entry(g)
                    .or_default()
                    .push((b.payloads, b.messages));
            }
        }
    }
    let mut result = Ok(());
    let mut count = 0;
    let mut sample = None;
    for (g, batches) in &by_group {
        let Some(view) = tree_view(engine, *g) else {
            continue;
        };
        count += batches.len();
        if let Err(e) = checks::batches(&view, batches) {
            result = Err(format!("{g}: {e}"));
            break;
        }
        sample = Some((view, batches.clone()));
    }
    checks.record(&format!("batches ({count} recounted)"), result);
    if let Some((view, mut batches)) = sample {
        batches[0].1 += 1;
        checks.expect_reject("batches", checks::batches(&view, &batches));
    }
}
