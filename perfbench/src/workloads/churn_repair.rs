//! `churn_repair`: one peer replacement (a leave, then a join) on the
//! default store, absorbed by the group engine.
//!
//! Set-up: N uniform peers in a 1000 × 1000 square on
//! `TopologyStore::from_peers` (the store `core::detect` and the CLI
//! use), G clustered groups with Zipf sizes, and the §3 forest under
//! `PreferredPolicy::MaxT`. One operation (and one round) is one
//! replacement: the leave of a uniformly drawn live peer, then a join
//! at a fresh uniform point, each applied through
//! `GroupEngine::store_mut()` and absorbed by `GroupEngine::sync()`.
//! Timing the pair keeps the operation time unimodal: a median over a
//! half-and-half mix of cheap leaves and dear joins falls in the gap
//! between them and jumps across it from run to run.

use std::sync::Arc;
use std::time::Instant;

use geocast_core::groups::GroupEngine;
use geocast_core::stability::PreferredPolicy;
use geocast_core::OrthantRectPartitioner;
use geocast_geom::gen::uniform_points;
use geocast_geom::Point;
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerId, PeerInfo, TopologyStore};
use geocast_sim::workload::zipf_group_sizes;

use super::{check_equilibrium, check_forest, check_groups, sample_live, set_up, RebuildWatch};
use crate::trace::{Layer, Tracer};
use crate::util::{derive, mean, Rng64};
use crate::{run_rounds, timed, Args, Outcome};

const PEERS: usize = 3000;
const VMAX: f64 = 1000.0;
const GROUPS: usize = 128;
const SUBSCRIPTIONS: usize = 4000;
const ZIPF: f64 = 1.0;
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
            let sizes = zipf_group_sizes(GROUPS, SUBSCRIPTIONS, ZIPF);
            engine.seed_groups_clustered(&sizes, &mut state);
            engine.enable_stability(PreferredPolicy::MaxT);
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

    let mut rng = Rng64::new(derive(args.seed, 2));
    let mut live: Vec<usize> = (0..engine.store().len()).collect();
    let mut watch = RebuildWatch::new(&engine);
    let rebuilt0 = engine.totals().rebuilt_members;
    let (mut dirty, mut affected, mut events) = (0usize, 0usize, 0usize);
    let mut failed = 0u64;

    run_rounds(args, tr, &mut out, |_, tr, sink| {
        let victim = live.swap_remove(rng.below(live.len()));
        let point =
            Point::new(vec![rng.unit() * VMAX, rng.unit() * VMAX]).expect("finite coordinates");
        let (leave_dirty, leave_affected) = timed(tr, sink, |tr| {
            tr.span(Layer::OverlayStore, || {
                engine.store_mut().remove(PeerId(victim as u64));
            });
            tr.span(Layer::CoreGroups, || engine.sync());
            let leave = (
                engine.store().last_delta().len(),
                engine.last_sync().affected_groups,
            );
            tr.span(Layer::OverlayStore, || {
                engine.store_mut().insert(point);
            });
            tr.span(Layer::CoreGroups, || engine.sync());
            leave
        });
        live.push(engine.store().len() - 1);
        dirty += leave_dirty + engine.store().last_delta().len();
        affected += leave_affected + engine.last_sync().affected_groups;
        events += 2;
        if watch.observe(&engine) {
            failed += 1;
        }
    });
    out.failed = failed;

    let ops = out.attempted as usize;
    out.layers
        .insert("overlay.store.dirty_per_event", mean(dirty as f64, events));
    out.layers.insert(
        "core.groups.affected_per_event",
        mean(affected as f64, events),
    );
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

    let mut sample_rng = Rng64::new(derive(args.seed, 3));
    let sample = sample_live(engine.store(), 64, &mut sample_rng);
    check_equilibrium(engine.store(), &sample, &mut out.checks);
    check_groups(&engine, &mut out.checks);
    let sample = sample_live(engine.store(), 256, &mut sample_rng);
    check_forest(&engine, &sample, &mut out.checks);
    out.notes.push(format!(
        "churn_repair: N={PEERS}, {GROUPS} clustered groups (zipf {ZIPF}, {SUBSCRIPTIONS} subscriptions), {events} churn events"
    ));
    out
}
