//! The four workloads and the helpers they share for copying program
//! state out for the checks.

mod churn_repair;
mod crash_detect;
mod session_mix;
mod shard_churn;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use geocast_core::groups::{build_group_tree_on_store, GroupEngine, GroupId};
use geocast_core::OrthantRectPartitioner;
use geocast_overlay::{PeerId, TopologyStore};

use crate::checks::{self, Checks, TreeView};
use crate::trace::Tracer;
use crate::util::{median, Rng64};
use crate::{Args, Outcome};

/// Runs the named workload, or `None` if there is no such workload.
pub fn run(args: &Args, tr: &mut Tracer) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "churn_repair" => churn_repair::run(args, tr),
        "session_mix" => session_mix::run(args, tr),
        "crash_detect" => crash_detect::run(args, tr),
        "shard_churn" => shard_churn::run(args, tr),
        _ => return None,
    })
}

/// Builds the workload state `times` times (dropping each before the
/// next) and returns the last one with the median wall time of a
/// build. `build` returns the state and its named sub-phase times.
pub fn set_up<S>(
    times: usize,
    mut build: impl FnMut() -> (S, Vec<(&'static str, f64)>),
    layers: &mut BTreeMap<&'static str, f64>,
) -> (S, f64) {
    let mut walls = Vec::new();
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut state = None;
    for _ in 0..times {
        drop(state.take());
        let t = std::time::Instant::now();
        let (s, sub) = build();
        walls.push(t.elapsed().as_secs_f64());
        for (name, v) in sub {
            parts.entry(name).or_default().push(v);
        }
        state = Some(s);
    }
    for (name, v) in parts {
        layers.insert(name, median(&v));
    }
    (state.expect("at least one set-up"), median(&walls))
}

fn point_2d(store: &TopologyStore, i: usize) -> [f64; 2] {
    let c = store.peers()[i].point().coords();
    [c[0], c[1]]
}

fn is_live(store: &TopologyStore, i: usize) -> bool {
    !store.is_departed(PeerId(i as u64))
}

pub fn overlay_edge(store: &TopologyStore, a: usize, b: usize) -> bool {
    store.out_neighbors(a).contains(&b) || store.out_neighbors(b).contains(&a)
}

/// A seeded sample of `k` live peers.
pub fn sample_live(store: &TopologyStore, k: usize, rng: &mut Rng64) -> Vec<usize> {
    let live: Vec<usize> = (0..store.len()).filter(|&i| is_live(store, i)).collect();
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    while picked.len() < k.min(live.len()) {
        picked.insert(live[rng.below(live.len())]);
    }
    picked.into_iter().collect()
}

/// Equilibrium check on a sample of live peers, plus its self-test.
pub fn check_equilibrium(store: &TopologyStore, sample: &[usize], checks: &mut Checks) {
    let points: Vec<[f64; 2]> = (0..store.len()).map(|i| point_2d(store, i)).collect();
    let live: Vec<bool> = (0..store.len()).map(|i| is_live(store, i)).collect();
    let observed: Vec<(usize, Vec<usize>)> = sample
        .iter()
        .map(|&i| (i, store.out_neighbors(i).to_vec()))
        .collect();
    checks.record(
        &format!("equilibrium ({} sampled peers)", sample.len()),
        checks::equilibrium(&points, &live, &observed),
    );
    if let Some(first) = observed.first() {
        let mut bad = observed.clone();
        bad[0].1 = match first.1.split_first() {
            Some((_, rest)) => rest.to_vec(),
            None => vec![(first.0 + 1) % store.len()],
        };
        checks.expect_reject("equilibrium", checks::equilibrium(&points, &live, &bad));
    }
}

/// Copies one group's tree out of the engine. The §2 reach is taken
/// from a fresh §2 build over the same members, without grafting.
pub fn tree_view(engine: &GroupEngine, g: GroupId) -> Option<TreeView> {
    let gb = engine.group_build(g)?;
    let root = engine.root(g)?;
    let tree = &gb.build.tree;
    let parent = (0..tree.len())
        .filter(|&i| tree.is_reached(i))
        .map(|i| (i, tree.parent(i)))
        .collect();
    let members = engine.members(g).clone();
    let plain = build_group_tree_on_store(
        engine.store(),
        root,
        &members,
        &OrthantRectPartitioner::median(),
    );
    Some(TreeView {
        root,
        parent,
        members,
        relays: gb.build.relays.iter().copied().collect(),
        messages: gb.build.messages,
        section2_reached: plain.tree.reached_count(),
    })
}

/// Group-tree check over every group, plus its self-tests.
pub fn check_groups(engine: &GroupEngine, checks: &mut Checks) {
    let store = engine.store();
    let edge = |a: usize, b: usize| overlay_edge(store, a, b);
    let mut result = Ok(());
    let mut sample: Option<TreeView> = None;
    let mut checked = 0;
    for gi in 0..engine.group_count() {
        let g = GroupId(gi as u32);
        let Some(view) = tree_view(engine, g) else {
            continue;
        };
        checked += 1;
        if let Err(e) = checks::group_tree(&view, &edge) {
            result = Err(format!("{g}: {e}"));
            break;
        }
        if sample
            .as_ref()
            .is_none_or(|s| view.parent.len() > s.parent.len())
        {
            sample = Some(view);
        }
    }
    checks.record(&format!("group trees ({checked} groups)"), result);
    let Some(view) = sample else { return };
    let mut bad = view.clone();
    bad.messages += 1;
    checks.expect_reject(
        "group tree: extra §2 request",
        checks::group_tree(&bad, &edge),
    );
    if let Some(&m) = view.members.iter().find(|&&m| m != view.root) {
        let mut bad = view.clone();
        bad.parent.remove(&m);
        // Keep the map a tree: drop m's children too, stranding them.
        bad.parent.retain(|_, p| *p != Some(m));
        checks.expect_reject(
            "group tree: unreached member",
            checks::group_tree(&bad, &edge),
        );
    }
    if let Some((&c, _)) = view.parent.iter().find(|(&c, _)| c != view.root) {
        let mut bad = view.clone();
        let far = (0..store.len())
            .find(|&x| x != c && view.parent.contains_key(&x) && !edge(c, x))
            .unwrap_or(c);
        bad.parent.insert(c, Some(far));
        checks.expect_reject(
            "group tree: non-overlay edge",
            checks::group_tree(&bad, &edge),
        );
    }
}

/// §3 forest check on a sample of live peers, plus its self-test.
pub fn check_forest(engine: &GroupEngine, sample: &[usize], checks: &mut Checks) {
    let store = engine.store();
    let Some(forest) = engine.stability_forest() else {
        checks.record("§3 forest", Err("stability forest not enabled".to_owned()));
        return;
    };
    let t_of = |i: usize| store.peers()[i].point().coords()[0];
    let observed: Vec<(usize, Vec<usize>, Option<usize>)> = sample
        .iter()
        .map(|&i| {
            let mut nbrs: BTreeSet<usize> = store.out_neighbors(i).iter().copied().collect();
            nbrs.extend(store.rev_neighbors(i).iter().copied());
            (i, nbrs.into_iter().collect(), forest.preferred()[i])
        })
        .collect();
    checks.record(
        &format!("§3 forest ({} sampled peers)", sample.len()),
        checks::forest(&t_of, &observed),
    );
    // Corrupt: point a link at the lowest-T neighbour instead.
    if let Some(pos) = observed
        .iter()
        .position(|(_, n, p)| p.is_some() && n.len() > 1)
    {
        let mut bad = observed.clone();
        let (_, nbrs, preferred) = &mut bad[pos];
        *preferred = nbrs
            .iter()
            .copied()
            .filter(|&j| Some(j) != *preferred)
            .min_by(|&a, &b| t_of(a).total_cmp(&t_of(b)));
        checks.expect_reject("§3 forest", checks::forest(&t_of, &bad));
    }
}

/// `true` if some live member of `stranded` has an overlay path to
/// `root` — a stranding the relay grafts should have closed.
pub fn stranded_but_connected(store: &TopologyStore, root: usize, stranded: &[usize]) -> bool {
    if stranded.is_empty() {
        return false;
    }
    let mut seen = vec![false; store.len()];
    seen[root] = true;
    let mut queue = VecDeque::from([root]);
    let mut buf = Vec::new();
    while let Some(u) = queue.pop_front() {
        store.undirected_neighbors_into(u, &mut buf);
        for &v in &buf {
            if !seen[v] && is_live(store, v) {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    stranded.iter().any(|&m| seen[m])
}

/// Follows every group's rebuild counter between operations: control
/// messages of rebuilt groups and strandings an operation left behind.
#[derive(Debug, Default)]
pub struct RebuildWatch {
    seen: Vec<u64>,
    pub rebuilds: u64,
    pub ctrl_msgs: u64,
    pub route_hops: u64,
}

impl RebuildWatch {
    pub fn new(engine: &GroupEngine) -> Self {
        let mut w = RebuildWatch::default();
        w.observe(engine);
        w.rebuilds = 0;
        w.ctrl_msgs = 0;
        w.route_hops = 0;
        w
    }

    /// Accounts the groups rebuilt since the last call; returns `true`
    /// if one of them left an overlay-connected live member stranded.
    pub fn observe(&mut self, engine: &GroupEngine) -> bool {
        let mut stranded = false;
        self.seen.resize(engine.group_count(), u64::MAX);
        for gi in 0..engine.group_count() {
            let g = GroupId(gi as u32);
            let count = engine.rebuild_count(g);
            if self.seen[gi] == count {
                continue;
            }
            self.seen[gi] = count;
            self.rebuilds += 1;
            if let Some(gb) = engine.group_build(g) {
                self.ctrl_msgs +=
                    (gb.build.messages + gb.graft.route_hops + gb.graft.flood_messages) as u64;
                self.route_hops += gb.graft.route_hops as u64;
                if let Some(root) = engine.root(g) {
                    stranded |= stranded_but_connected(engine.store(), root, &gb.build.stranded);
                }
            }
        }
        stranded
    }
}

/// Total relays over every group.
pub fn total_relays(engine: &GroupEngine) -> usize {
    (0..engine.group_count())
        .map(|gi| engine.relays(GroupId(gi as u32)).len())
        .sum()
}
