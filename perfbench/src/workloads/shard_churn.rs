//! `shard_churn`: one peer replacement on the region-sharded store.
//!
//! Set-up: N uniform peers on `TopologyStore::from_peers_sharded` with
//! K shards on the serial dispatcher (no worker threads: K workers
//! would exceed the cores) and no groups. One operation (and one
//! round) is one replacement: the leave of a uniformly drawn live peer,
//! then a join at a fresh uniform point.

use std::sync::Arc;
use std::time::Instant;

use geocast_geom::gen::uniform_points;
use geocast_geom::Point;
use geocast_overlay::select::EmptyRectSelection;
use geocast_overlay::{PeerId, PeerInfo, ShardConfig, TopologyStore};

use super::{check_equilibrium, sample_live, set_up};
use crate::trace::{Layer, Tracer};
use crate::util::{derive, mean, Rng64};
use crate::{run_rounds, timed, Args, Outcome};

const PEERS: usize = 10_000;
const VMAX: f64 = 1000.0;
const SHARDS: usize = 16;
const SETUPS: usize = 3;

fn heads(store: &TopologyStore) -> Vec<u64> {
    let engine = store.sharding().expect("sharded store");
    (0..engine.shard_count())
        .map(|s| engine.shard_log(s).local_head())
        .collect()
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut store, setup_s) = set_up(
        SETUPS,
        || {
            let peers = PeerInfo::from_point_set(&uniform_points(PEERS, 2, VMAX, args.seed));
            let t = Instant::now();
            let store = TopologyStore::from_peers_sharded(
                peers,
                Arc::new(EmptyRectSelection),
                &ShardConfig::new(SHARDS),
            );
            let build_s = t.elapsed().as_secs_f64();
            let stats = store.sharding().expect("sharded store").build_stats();
            let select_s: f64 = stats.shard_select.iter().map(|d| d.as_secs_f64()).sum();
            (
                store,
                vec![
                    ("overlay.store.build_s", build_s),
                    ("overlay.shard.build_select_s", select_s),
                ],
            )
        },
        &mut out.layers,
    );
    out.setup_s = setup_s;
    let engine = store.sharding().expect("sharded store");
    let mirrors: usize = (0..engine.shard_count())
        .map(|s| engine.mirror_count(s))
        .sum();
    out.layers.insert("overlay.shard.mirrors", mirrors as f64);

    let mut rng = Rng64::new(derive(args.seed, 2));
    let mut live: Vec<usize> = (0..store.len()).collect();
    let (mut dirty, mut touched, mut events) = (0usize, 0u64, 0usize);
    let mut before = heads(&store);

    run_rounds(args, tr, &mut out, |_, tr, sink| {
        let victim = live.swap_remove(rng.below(live.len()));
        let point =
            Point::new(vec![rng.unit() * VMAX, rng.unit() * VMAX]).expect("finite coordinates");
        let leave_dirty = timed(tr, sink, |tr| {
            tr.span(Layer::OverlayStore, || store.remove(PeerId(victim as u64)));
            let leave_dirty = store.last_delta().len();
            tr.span(Layer::OverlayStore, || {
                store.insert(point);
            });
            leave_dirty
        });
        live.push(store.len() - 1);
        dirty += leave_dirty + store.last_delta().len();
        let after = heads(&store);
        touched += after.iter().zip(&before).map(|(a, b)| a - b).sum::<u64>();
        before = after;
        events += 2;
    });

    out.layers
        .insert("overlay.store.dirty_per_event", mean(dirty as f64, events));
    out.layers.insert(
        "overlay.shard.shards_touched_per_event",
        mean(touched as f64, events),
    );
    let mut sample_rng = Rng64::new(derive(args.seed, 3));
    let sample = sample_live(&store, 64, &mut sample_rng);
    check_equilibrium(&store, &sample, &mut out.checks);
    out.notes.push(format!(
        "shard_churn: N={PEERS}, K={SHARDS} shards, serial dispatcher, {events} churn events"
    ));
    out
}
