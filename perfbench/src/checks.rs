//! Output checks, computed apart from the program.
//!
//! Each check takes plain data copied out of the program through its
//! public accessors and compares it with an independent computation
//! or with a property the method must have. [`Checks::expect_reject`]
//! feeds a check a corrupted copy of its input and records a failure
//! unless the check rejects it, so a check that cannot fail shows.

use std::collections::{BTreeMap, BTreeSet};

/// Verdicts of every check a run made.
#[derive(Debug, Default)]
pub struct Checks {
    pub results: Vec<(String, Result<(), String>)>,
}

impl Checks {
    pub fn record(&mut self, name: &str, result: Result<(), String>) {
        self.results.push((name.to_owned(), result));
    }

    /// Records the self-test of a check: `result` is the check run on
    /// a corrupted copy and must be an error.
    pub fn expect_reject(&mut self, name: &str, result: Result<(), String>) {
        let verdict = match result {
            Err(_) => Ok(()),
            Ok(()) => Err("accepted a corrupted copy".to_owned()),
        };
        self.results.push((format!("self-test {name}"), verdict));
    }

    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_ok())
    }
}

/// Empty-rectangle selection of peer `i` by brute force in 2-D: `q`
/// is selected iff no other live peer lies strictly inside the open
/// rectangle spanned by `i` and `q`. Per quadrant, candidates sorted by
/// |dx| form a staircase: `q` is selected iff every candidate with a
/// strictly smaller |dx| has |dy| ≥ |dy(q)|. A candidate sharing a
/// coordinate with `i` spans an empty interior and is always selected.
pub fn empty_rect_brute(points: &[[f64; 2]], live: &[bool], i: usize) -> Vec<usize> {
    let p = points[i];
    let mut picked = Vec::new();
    let mut quadrants: [Vec<(f64, f64, usize)>; 4] = Default::default();
    for (j, q) in points.iter().enumerate() {
        if j == i || !live[j] {
            continue;
        }
        let (dx, dy) = (q[0] - p[0], q[1] - p[1]);
        if dx == 0.0 || dy == 0.0 {
            picked.push(j);
            continue;
        }
        let k = usize::from(dx > 0.0) * 2 + usize::from(dy > 0.0);
        quadrants[k].push((dx.abs(), dy.abs(), j));
    }
    for quad in &mut quadrants {
        quad.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut min_dy_before = f64::INFINITY;
        let mut g = 0;
        while g < quad.len() {
            // Candidates with equal |dx| do not shadow one another.
            let mut h = g;
            while h < quad.len() && quad[h].0 == quad[g].0 {
                h += 1;
            }
            let mut group_min = f64::INFINITY;
            for &(_, ady, j) in &quad[g..h] {
                if min_dy_before >= ady {
                    picked.push(j);
                }
                group_min = group_min.min(ady);
            }
            min_dy_before = min_dy_before.min(group_min);
            g = h;
        }
    }
    picked.sort_unstable();
    picked
}

/// Equilibrium: the program's out-neighbours of each sampled peer equal
/// the brute-force empty-rectangle selection over all live peers.
pub fn equilibrium(
    points: &[[f64; 2]],
    live: &[bool],
    observed: &[(usize, Vec<usize>)],
) -> Result<(), String> {
    for (i, out) in observed {
        let want = empty_rect_brute(points, live, *i);
        if *out != want {
            return Err(format!("peer {i}: program {out:?}, brute force {want:?}"));
        }
    }
    Ok(())
}

/// One group tree, copied out of the program.
#[derive(Debug, Clone)]
pub struct TreeView {
    pub root: usize,
    /// Reached node → parent (`None` only for the root).
    pub parent: BTreeMap<usize, Option<usize>>,
    pub members: BTreeSet<usize>,
    pub relays: BTreeSet<usize>,
    /// §2 construction requests (`BuildResult::messages`).
    pub messages: usize,
    /// Nodes the §2 construction alone reaches from the root over the
    /// member-induced subgraph, before relay grafting.
    pub section2_reached: usize,
}

/// Group tree: rooted at a member, one parent per node, no cycles,
/// every tree edge an undirected overlay edge, every live member
/// reached, every node a member or a relay, and exactly one §2
/// request per member the §2 part reached other than the root.
pub fn group_tree(t: &TreeView, edge: &dyn Fn(usize, usize) -> bool) -> Result<(), String> {
    if t.parent.get(&t.root) != Some(&None) {
        return Err(format!("root {} is not a parentless tree node", t.root));
    }
    if !t.members.contains(&t.root) {
        return Err(format!("root {} is not a member", t.root));
    }
    for (&c, &p) in &t.parent {
        if c == t.root {
            continue;
        }
        let Some(p) = p else {
            return Err(format!("node {c} has no parent"));
        };
        if !t.parent.contains_key(&p) {
            return Err(format!("parent {p} of {c} is not in the tree"));
        }
        if !edge(c, p) {
            return Err(format!("tree edge {p}->{c} is not an overlay edge"));
        }
        if !t.members.contains(&c) && !t.relays.contains(&c) {
            return Err(format!("node {c} is neither member nor relay"));
        }
        // Walking up must reach the root within |tree| steps.
        let mut cur = c;
        let mut steps = 0;
        while cur != t.root {
            cur = match t.parent.get(&cur) {
                Some(Some(p)) => *p,
                _ => return Err(format!("path above {c} leaves the tree at {cur}")),
            };
            steps += 1;
            if steps > t.parent.len() {
                return Err(format!("cycle above node {c}"));
            }
        }
    }
    if let Some(m) = t.members.iter().find(|m| !t.parent.contains_key(m)) {
        return Err(format!("member {m} is not reached"));
    }
    if t.messages + 1 != t.section2_reached {
        return Err(format!(
            "{} §2 requests for {} §2-reached members",
            t.messages, t.section2_reached
        ));
    }
    Ok(())
}

/// Distinct tree edges on the root-to-member paths, recounted.
pub fn path_edges(t: &TreeView) -> usize {
    let mut on_path: BTreeSet<usize> = BTreeSet::new();
    for &m in &t.members {
        let mut cur = m;
        while cur != t.root && t.parent.contains_key(&cur) && on_path.insert(cur) {
            match t.parent[&cur] {
                Some(p) => cur = p,
                None => break,
            }
        }
    }
    on_path.len()
}

/// Batch: every recorded batch of a group carried exactly the recounted
/// number of edge messages, whatever its payload count.
pub fn batches(t: &TreeView, recorded: &[(usize, usize)]) -> Result<(), String> {
    let want = path_edges(t);
    for &(payloads, messages) in recorded {
        if messages != want {
            return Err(format!(
                "batch of {payloads} sent {messages} messages, tree paths have {want} edges"
            ));
        }
    }
    Ok(())
}

/// §3 forest: each sampled peer's preferred link goes to the overlay
/// neighbour with the largest `T` among those with a larger `T` than
/// its own (ties to the smaller id), or nowhere if there is none.
pub fn forest(
    t_of: &dyn Fn(usize) -> f64,
    observed: &[(usize, Vec<usize>, Option<usize>)],
) -> Result<(), String> {
    for (i, nbrs, preferred) in observed {
        let ti = t_of(*i);
        let mut best: Option<usize> = None;
        for &j in nbrs {
            let tj = t_of(j);
            if tj <= ti {
                continue;
            }
            best = match best {
                Some(b) if t_of(b) > tj || (t_of(b) == tj && b < j) => Some(b),
                _ => Some(j),
            };
        }
        if best != *preferred {
            return Err(format!(
                "peer {i}: program {preferred:?}, expected {best:?}"
            ));
        }
    }
    Ok(())
}

/// crash_detect: every latency is at least the suspicion timeout and
/// every eviction is an injected victim.
pub fn detections(
    suspicion_ms: f64,
    latencies_ms: &[(usize, f64)],
    evicted: &[usize],
    victims: &BTreeSet<usize>,
) -> Result<(), String> {
    if let Some((p, l)) = latencies_ms.iter().find(|(_, l)| *l < suspicion_ms) {
        return Err(format!(
            "peer {p} detected after {l} ms < {suspicion_ms} ms"
        ));
    }
    if let Some(p) = evicted.iter().find(|p| !victims.contains(p)) {
        return Err(format!("evicted live peer {p}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_matches_the_definition() {
        let mut rng = crate::util::Rng64::new(5);
        let points: Vec<[f64; 2]> = (0..200)
            .map(|_| [(rng.unit() * 50.0).floor(), (rng.unit() * 50.0).floor()])
            .collect();
        let live = vec![true; points.len()];
        for i in 0..points.len() {
            let want: Vec<usize> = (0..points.len())
                .filter(|&j| j != i)
                .filter(|&j| {
                    let (p, q) = (points[i], points[j]);
                    !(0..points.len()).any(|k| {
                        k != i
                            && k != j
                            && (0..2).all(|d| {
                                let (lo, hi) = (p[d].min(q[d]), p[d].max(q[d]));
                                lo < points[k][d] && points[k][d] < hi
                            })
                    })
                })
                .collect();
            assert_eq!(empty_rect_brute(&points, &live, i), want, "peer {i}");
        }
    }
}
