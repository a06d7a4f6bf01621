//! M-NDP: the multi-hop neighbor-discovery protocol (Section V-C).
//!
//! Two physical neighbors that failed D-NDP can still discover each other
//! through a *jamming-resilient path*: a chain of already-discovered
//! logical links, each protected by a secret session spread code. The
//! request floods outward up to `ν` hops, accumulating per-hop identity /
//! neighbor-list / signature entries; the response retraces the path; the
//! final over-the-air HELLO (spread with the freshly derived session code
//! `C_BA`) closes the loop iff the two nodes really are in radio range.
//!
//! Two implementations are provided:
//!
//! * [`initiate`] — the full message-level protocol over [`Node`] state,
//!   with real signature chains, duplicate suppression, hop limits, the
//!   optional GPS false-positive filter, and per-node verification-cost
//!   accounting. Used by the Fig. 1 integration test and the DoS study.
//! * the graph-level closure — a pair is discoverable iff a logical path
//!   of ≤ ν hops connects it — run over strips of pairs at any thread
//!   count. It reads a network instance as D-NDP left it: the physical
//!   pairs in canonical order and one verdict bit per pair, set where
//!   D-NDP discovered it, with strips as index lists into that list. One
//!   fused first pass searches each pair once, for Theorem 3's count and
//!   round one together; later rounds revisit only the pairs still
//!   pending. Each search is a pooled bidirectional relay search that
//!   stops at the first meeting of the two sides or once their depths add
//!   up to ν, over a flat `u32` snapshot of the logical graph, laid out
//!   from the verdicts, behind a component pre-check. It is behind every
//!   network run ([`crate::network`] as one strip, [`crate::scale`] as
//!   field strips; [`crate::timeline`] runs the same search per initiator
//!   over its [`Graph`]); [`closure_pass`] is one round of it over two
//!   [`Graph`]s. Tests prove it equivalent to [`initiate`] on small
//!   networks and to a remove-and-search oracle on random ones.

use crate::analysis::mndp::t_mndp;
use crate::messages::{ChainEntry, MndpRequest, MndpResponse};
use crate::node::{DiscoveryKind, Node};
use crate::params::Params;
use jrsnd_crypto::ibc::NodeId;
use jrsnd_crypto::nonce::Nonce;
use jrsnd_sim::geom::Point;
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::topology::Graph;
use jrsnd_sim::{metric_counter, metric_histogram, sim_trace};
use std::collections::{HashSet, VecDeque};

/// Statistics from one initiator's M-NDP run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MndpStats {
    /// Newly discovered `(initiator, peer, logical_hops)` triples.
    pub discovered: Vec<(usize, usize, usize)>,
    /// Responders that transmitted a HELLO although they are not physical
    /// neighbors of the source (the paper's false-positive overhead).
    pub wasted_responses: usize,
    /// Requests delivered (one per (recipient, message)).
    pub requests_delivered: usize,
    /// Responses generated.
    pub responses_sent: usize,
}

/// Optional GPS-based false-positive filter: responders check the source's
/// claimed position against their own before replying.
#[derive(Debug, Clone, Copy)]
pub struct GpsFilter<'a> {
    /// Node positions by index.
    pub positions: &'a [Point],
    /// Transmission range in metres.
    pub range: f64,
}

/// Runs one full message-level M-NDP initiation from `initiator`.
///
/// `nodes[i].id()` must equal `NodeId(i as u32)` — the engine maps
/// identities to indices directly.
///
/// # Panics
///
/// Panics if `initiator` is out of range or `nu == 0`.
pub fn initiate(
    nodes: &mut [Node],
    physical: &Graph,
    gps: Option<GpsFilter<'_>>,
    initiator: usize,
    nonce: Nonce,
    nu: usize,
) -> MndpStats {
    assert!(nu >= 1, "nu must be at least 1");
    assert!(initiator < nodes.len(), "initiator out of range");
    let source_id = nodes[initiator].id();
    let mut run = Initiation {
        physical,
        gps,
        initiator,
        seen: HashSet::from([initiator]),
        queue: VecDeque::new(),
        stats: MndpStats::default(),
    };

    // A -> each logical neighbor C: {ID_A, L_A, n_A, nu, SIG_A}.
    let source_entry_neighbors = nodes[initiator].logical_ids();
    let mut base = MndpRequest {
        source: source_id,
        nonce,
        nu,
        chain: vec![ChainEntry {
            id: source_id,
            neighbors: source_entry_neighbors,
            signature: jrsnd_crypto::ibc::IbSignature::forged(source_id, 0),
        }],
    };
    let payload = base.signing_payload(0);
    base.chain[0].signature = nodes[initiator].private_key().sign(&payload);

    run.queue.extend(
        nodes[initiator]
            .logical_indices()
            .into_iter()
            .map(|c| (c, base.clone())),
    );
    while let Some((at, req)) = run.queue.pop_front() {
        run.stats.requests_delivered += 1;
        process_request(nodes, &mut run, at, &req);
    }
    let stats = run.stats;
    metric_counter!("mndp.requests_delivered").add(stats.requests_delivered as u64);
    metric_counter!("mndp.responses_sent").add(stats.responses_sent as u64);
    metric_counter!("mndp.discovered").add(stats.discovered.len() as u64);
    metric_counter!("mndp.wasted_responses").add(stats.wasted_responses as u64);
    stats
}

/// One initiation in flight: the topology and filter it runs over, and
/// the state every delivered request reads and updates.
struct Initiation<'a> {
    physical: &'a Graph,
    gps: Option<GpsFilter<'a>>,
    initiator: usize,
    /// Nodes that processed this request.
    seen: HashSet<usize>,
    queue: VecDeque<(usize, MndpRequest)>,
    stats: MndpStats,
}

/// Handles one delivered request at node `at`. Returns `false` when the
/// request was dropped.
fn process_request(
    nodes: &mut [Node],
    run: &mut Initiation<'_>,
    at: usize,
    req: &MndpRequest,
) -> bool {
    // Duplicate suppression: each node processes one copy per initiation.
    if !run.seen.insert(at) {
        return false;
    }
    let initiator = run.initiator;

    // 1. Verify every signature in the chain.
    for (i, entry) in req.chain.iter().enumerate() {
        let payload = req.signing_payload(i);
        let sig = entry.signature;
        let verified = nodes[at].verify_counted(&payload, &sig);
        if verified {
            metric_counter!("mndp.verifications_passed").inc();
        } else {
            metric_counter!("mndp.verifications_failed").inc();
            sim_trace!(
                0.0,
                "mndp",
                "node {at} rejected chain entry {i}: bad signature"
            );
        }
        if !verified || sig.signer() != entry.id {
            return false;
        }
    }

    // 2. Path validation: consecutive chain entries must list each other
    //    as logical neighbors, and the last forwarder must be a logical
    //    neighbor of this node.
    for w in req.chain.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if !prev.neighbors.contains(&cur.id) || !cur.neighbors.contains(&prev.id) {
            return false;
        }
    }
    let last = req.chain.last().expect("chain is never empty");
    let last_idx = last.id.0 as usize;
    if !nodes[at].is_logical(last_idx) {
        return false;
    }

    // A node that is already a logical neighbor of the source got the
    // request redundantly (stale lists) — nothing to discover, but it may
    // still forward.
    let already_logical = nodes[at].is_logical(initiator);

    // 3. Respond: derive the session material and HELLO for tau_h.
    if !already_logical {
        let in_claimed_range = run
            .gps
            .is_none_or(|g| g.positions[initiator].distance(g.positions[at]) <= g.range);
        if in_claimed_range {
            run.stats.responses_sent += 1;
            let response_ok = deliver_response(nodes, initiator, at, req);
            let physically_adjacent = run.physical.has_edge(initiator, at);
            if response_ok && physically_adjacent {
                // A hears {HELLO}_{C_BA}, confirms; both adopt the link.
                let peer_id = nodes[at].id();
                let src_id = nodes[initiator].id();
                nodes[initiator].add_logical(at, peer_id, DiscoveryKind::MultiHop);
                nodes[at].add_logical(initiator, src_id, DiscoveryKind::MultiHop);
                run.stats.discovered.push((initiator, at, req.chain.len()));
            } else if response_ok {
                run.stats.wasted_responses += 1;
            }
        }
    }

    // 4. Forward while the hop budget allows. The request has traversed
    //    `chain.len()` hops upon delivery here.
    let traversed = req.chain.len();
    if traversed < req.nu {
        // Exclude everyone who already saw (or was sent) the request per
        // the chained neighbor lists, plus chain members and the source.
        let mut excluded: HashSet<NodeId> = HashSet::new();
        excluded.insert(req.source);
        for entry in &req.chain {
            excluded.insert(entry.id);
            excluded.extend(entry.neighbors.iter().copied());
        }
        let my_id = nodes[at].id();
        let my_neighbors = nodes[at].logical_ids();
        let targets: Vec<usize> = nodes[at]
            .logical_indices()
            .into_iter()
            .filter(|&t| !excluded.contains(&nodes[t].id()))
            .collect();
        if !targets.is_empty() {
            let mut fwd = req.clone();
            fwd.chain.push(ChainEntry {
                id: my_id,
                neighbors: my_neighbors,
                signature: jrsnd_crypto::ibc::IbSignature::forged(my_id, 0),
            });
            let payload = fwd.signing_payload(fwd.chain.len() - 1);
            let sig = nodes[at].private_key().sign(&payload);
            fwd.chain.last_mut().expect("just pushed").signature = sig;
            for t in targets {
                run.queue.push_back((t, fwd.clone()));
            }
        }
    }
    true
}

/// Walks the M-NDP response back along the request path, verifying
/// signatures at every intermediate node and at the source. Returns
/// whether the source accepted the response.
fn deliver_response(
    nodes: &mut [Node],
    initiator: usize,
    responder: usize,
    req: &MndpRequest,
) -> bool {
    let responder_id = nodes[responder].id();
    let mut resp = MndpResponse {
        source: req.source,
        responder: responder_id,
        nonce: Nonce::from_value(responder as u32 + 1), // n_B; value is irrelevant to control flow
        nu: req.nu,
        chain: vec![ChainEntry {
            id: responder_id,
            neighbors: nodes[responder].logical_ids(),
            signature: jrsnd_crypto::ibc::IbSignature::forged(responder_id, 0),
        }],
    };
    let payload = resp.signing_payload(0);
    resp.chain[0].signature = nodes[responder].private_key().sign(&payload);

    // Reverse path: the chain's forwarders after the source, walked back.
    let reverse_path: Vec<usize> = req
        .chain
        .iter()
        .skip(1)
        .rev()
        .map(|e| e.id.0 as usize)
        .collect();
    for hop in reverse_path {
        // Each intermediate verifies the accumulated response signatures.
        for (i, entry) in resp.chain.clone().iter().enumerate() {
            let payload = resp.signing_payload(i);
            if nodes[hop].verify_counted(&payload, &entry.signature) {
                metric_counter!("mndp.verifications_passed").inc();
            } else {
                metric_counter!("mndp.verifications_failed").inc();
                return false;
            }
        }
        let hop_id = nodes[hop].id();
        resp.chain.push(ChainEntry {
            id: hop_id,
            neighbors: nodes[hop].logical_ids(),
            signature: jrsnd_crypto::ibc::IbSignature::forged(hop_id, 0),
        });
        let payload = resp.signing_payload(resp.chain.len() - 1);
        let sig = nodes[hop].private_key().sign(&payload);
        resp.chain.last_mut().expect("just pushed").signature = sig;
    }

    // The source verifies everything and checks the path closes: the last
    // forwarder must be one of its logical neighbors.
    for (i, entry) in resp.chain.iter().enumerate() {
        let payload = resp.signing_payload(i);
        let sig = entry.signature;
        if nodes[initiator].verify_counted(&payload, &sig) {
            metric_counter!("mndp.verifications_passed").inc();
        } else {
            metric_counter!("mndp.verifications_failed").inc();
            return false;
        }
    }
    match resp.chain.last() {
        Some(last) if resp.chain.len() > 1 => nodes[initiator].is_logical(last.id.0 as usize),
        _ => true, // direct response from a 1-hop... cannot happen (dropped as already-logical)
    }
}

/// Neighbor lists a relay search walks: the closure's flat snapshot, or
/// the [`Graph`] that [`crate::timeline`] mutates between searches.
pub(crate) trait Adjacency {
    /// The neighbors of node `x`.
    fn neighbors(&self, x: usize) -> impl Iterator<Item = usize> + '_;
}

impl Adjacency for Graph {
    fn neighbors(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        Graph::neighbors(self, x).iter().copied()
    }
}

/// A logical graph as one flat `u32` adjacency array with room to grow:
/// node `x`'s neighbors are `adj[start[x]..end[x]]`, and its free slots
/// run on to `start[x + 1]`. The closure lays it out once per network
/// instance and adds each round's discoveries in place.
#[derive(Default)]
pub(crate) struct FlatGraph {
    start: Vec<u32>,
    end: Vec<u32>,
    adj: Vec<u32>,
}

impl FlatGraph {
    /// The logical graph on `n` nodes of a canonical pair list and its
    /// verdicts: room at each node for every pair it is in (its physical
    /// degree, which fits every later discovery), filled with the pairs
    /// whose verdict is set in canonical order, so every list ascends.
    ///
    /// # Panics
    ///
    /// Panics if the slots do not fit `u32` offsets.
    fn fill(&mut self, n: usize, pairs: &[(u32, u32)], verdicts: &[u64]) {
        let slots = 2 * pairs.len();
        assert!(
            u32::try_from(slots).is_ok(),
            "{slots} adjacency slots overflow u32 offsets"
        );
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &(u, v) in pairs {
            self.start[u as usize + 1] += 1;
            self.start[v as usize + 1] += 1;
        }
        let mut acc = 0;
        for room in self.start.iter_mut() {
            acc += *room;
            *room = acc;
        }
        self.end.clear();
        self.end.extend_from_slice(&self.start[..n]);
        self.adj.clear();
        self.adj.resize(slots, 0);
        for i in set_bits(verdicts) {
            let (u, v) = pairs[i];
            self.add_edge(u, v);
        }
    }

    /// Adds the undirected edge `(u, v)` in both endpoints' free slots.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has no free slot left.
    fn add_edge(&mut self, u: u32, v: u32) {
        for (a, b) in [(u as usize, v), (v as usize, u)] {
            let slot = self.end[a];
            assert!(slot < self.start[a + 1], "no room left at node {a}");
            self.adj[slot as usize] = b;
            self.end[a] = slot + 1;
        }
    }
}

/// Whether bit `i` of a bitset is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// The indices of a bitset's set bits, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let i = 64 * w + word.trailing_zeros() as usize;
                word &= word - 1;
                i
            })
        })
    })
}

impl Adjacency for FlatGraph {
    fn neighbors(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[self.start[x] as usize..self.end[x] as usize]
            .iter()
            .map(|&y| y as usize)
    }
}

/// Relay searches run and the nodes they reached, counted in plain
/// integers by each strip and added to the `mndp.relay_searches` and
/// `mndp.relay_nodes_visited` counters once per round.
#[derive(Debug, Clone, Copy, Default)]
struct RelayWork {
    searches: u64,
    visited: u64,
}

impl RelayWork {
    /// Adds the work of one round's strips to the metrics counters.
    fn record(strips: impl IntoIterator<Item = RelayWork>) {
        let total = strips
            .into_iter()
            .fold(RelayWork::default(), |a, b| RelayWork {
                searches: a.searches + b.searches,
                visited: a.visited + b.visited,
            });
        metric_counter!("mndp.relay_searches").add(total.searches);
        metric_counter!("mndp.relay_nodes_visited").add(total.visited);
    }
}

/// Pooled bidirectional relay-path search over a logical graph: one side
/// tag per node plus each side's reached list, which doubles as its
/// level-ordered queue and as the touched list a reset walks, so a reset
/// costs O(visited), not O(n).
#[derive(Default)]
pub(crate) struct RelayBfs {
    /// 0 for unreached, else 1 + the side (0 from `u`, 1 from `v`).
    side: Vec<u8>,
    /// The nodes each side reached, level by level; its last level is
    /// its frontier.
    reached: [Vec<u32>; 2],
    work: RelayWork,
}

impl RelayBfs {
    /// Scratch for graphs of up to `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        let mut bfs = RelayBfs::default();
        bfs.reset(n);
        bfs
    }

    /// Adds the searches run since the last call to the metrics counters,
    /// for a caller that searches outside [`close`].
    pub(crate) fn record_work(&mut self) {
        RelayWork::record([std::mem::take(&mut self.work)]);
    }

    /// Readies the scratch for graphs of up to `n` nodes, keeping its
    /// buffers.
    fn reset(&mut self, n: usize) {
        self.side.clear();
        self.side.resize(n, 0);
        self.reached.iter_mut().for_each(Vec::clear);
    }

    /// Hop count of the shortest path between `u ≠ v` of at most
    /// `max_hops` hops that does not use the direct `(u, v)` edge —
    /// `remove_edge(u, v)`, [`Graph::shortest_path_within`],
    /// `add_edge(u, v)`, without mutating the graph.
    ///
    /// Meet in the middle, level-synchronously: each step expands the
    /// smaller frontier by one whole level, skipping the banned edge at
    /// either end. With the sides at depths `la` and `lb` and no meeting
    /// yet, the distance exceeds `la + lb`, so the first edge into the
    /// other side's ball closes a shortest path of `la + lb + 1` hops.
    /// The search gives up once `la + lb` reaches `max_hops` or a
    /// frontier empties. Exact for every `max_hops`.
    pub(crate) fn relay_hops(
        &mut self,
        g: &impl Adjacency,
        u: usize,
        v: usize,
        max_hops: usize,
    ) -> Option<usize> {
        let ends = [u, v];
        for (s, &end) in ends.iter().enumerate() {
            self.side[end] = s as u8 + 1;
            self.reached[s].push(end as u32);
        }
        let mut front = [0usize; 2];
        let mut depth = [0usize; 2];
        let found = loop {
            if depth[0] + depth[1] >= max_hops {
                break None;
            }
            let width = [0, 1].map(|s| self.reached[s].len() - front[s]);
            let s = usize::from(width[1] < width[0]);
            if width[s] == 0 {
                break None;
            }
            let level_end = self.reached[s].len();
            if self.expand(g, s, front[s], ends[1 - s]) {
                break Some(depth[0] + depth[1] + 1);
            }
            front[s] = level_end;
            depth[s] += 1;
        };
        self.work.searches += 1;
        for reached in &mut self.reached {
            self.work.visited += reached.len() as u64;
            for &x in reached.iter() {
                self.side[x as usize] = 0;
            }
            reached.clear();
        }
        found
    }

    /// Expands side `s`'s frontier, `reached[s][from..]`, by one level.
    /// Returns whether it met the other side; the edge from this side's
    /// end to `other_end` is the banned direct edge.
    fn expand(&mut self, g: &impl Adjacency, s: usize, from: usize, other_end: usize) -> bool {
        let (mine, theirs) = (s as u8 + 1, 2 - s as u8);
        let (own_end, level_end) = (self.reached[s][0] as usize, self.reached[s].len());
        for i in from..level_end {
            let a = self.reached[s][i] as usize;
            let banned = if a == own_end { other_end } else { usize::MAX };
            for b in g.neighbors(a) {
                if b == banned {
                    continue;
                }
                let tag = self.side[b];
                if tag == 0 {
                    self.side[b] = mine;
                    self.reached[s].push(b as u32);
                } else if tag == theirs {
                    return true;
                }
            }
        }
        false
    }
}

/// Flat component labels of the logical graph of a pair list and its
/// verdicts (union-find, then one flattening pass), written into `parent`:
/// the read-only pre-check that skips the search for pairs in different
/// components.
fn component_labels_into(n: usize, pairs: &[(u32, u32)], verdicts: &[u64], parent: &mut Vec<u32>) {
    parent.clear();
    parent.extend(0..n as u32);
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    for i in set_bits(verdicts) {
        let (u, v) = pairs[i];
        let (ru, rv) = (find(parent, u), find(parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    for i in 0..n as u32 {
        let r = find(parent, i);
        parent[i as usize] = r;
    }
}

/// One closure round of the graph-level shortcut: every physical pair not
/// yet logical that is connected by a logical path of at most `nu` hops
/// gets discovered. Returns `(u, v, hops)` triples (edges NOT yet added)
/// in `physical.edges()` order.
///
/// The pairs are `physical`'s edges and their verdicts `logical`'s, laid
/// out as the snapshot every network run's closure searches.
///
/// # Panics
///
/// Panics if `logical` has an edge that `physical` lacks.
pub fn closure_pass(logical: &Graph, physical: &Graph, nu: usize) -> Vec<(usize, usize, usize)> {
    let n = physical.len();
    let pairs: Vec<(u32, u32)> = physical
        .edges()
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    let mut verdicts = vec![0u64; pairs.len().div_ceil(64)];
    for (i, &(u, v)) in pairs.iter().enumerate() {
        verdicts[i / 64] |= u64::from(logical.has_edge(u as usize, v as usize)) << (i % 64);
    }
    assert_eq!(
        set_bits(&verdicts).count(),
        logical.edge_count(),
        "every logical edge must be a physical pair"
    );
    let mut flat = FlatGraph::default();
    flat.fill(n, &pairs, &verdicts);
    let mut comp = Vec::new();
    component_labels_into(n, &pairs, &verdicts, &mut comp);
    let mut bfs = RelayBfs::new(n);
    let found = pairs
        .iter()
        .enumerate()
        .filter(|&(i, &(u, v))| !bit(&verdicts, i) && comp[u as usize] == comp[v as usize])
        .filter_map(|(_, &(u, v))| {
            let (u, v) = (u as usize, v as usize);
            bfs.relay_hops(&flat, u, v, nu).map(|hops| (u, v, hops))
        })
        .collect();
    bfs.record_work();
    found
}

/// What [`close`] found in one network instance.
pub(crate) struct Closure {
    /// Pairs with a relay path of 2..=ν hops in the logical graph `close`
    /// was given, their own edge excluded — Theorem 3's quantity.
    pub(crate) capable: usize,
    /// Pairs the first round discovered: the paper's single M-NDP round.
    pub(crate) first_round: usize,
    /// Pairs later rounds discovered, up to the fixpoint.
    pub(crate) later: usize,
    /// Rounds that discovered at least one pair.
    pub(crate) rounds: usize,
    /// Theorem 4's latency at each first-round discovery's hop count,
    /// pushed in strip order.
    pub(crate) latency: RunningStats,
}

/// One strip of the pairs [`close`] searches: indices into the canonical
/// pair list, ascending, and the strip's search state, which keeps its
/// buffers from round to round and from run to run.
#[derive(Default)]
pub(crate) struct Strip {
    /// The strip's pairs, as indices into the pair list.
    pub(crate) pairs: Vec<u32>,
    /// The pairs still pending after the last round.
    pending: Vec<u32>,
    /// `(pair, hops)` of each discovery of the last round.
    found: Vec<(u32, u32)>,
    /// Pairs with a set verdict that have a relay path too.
    relayed: usize,
    bfs: RelayBfs,
}

impl Strip {
    /// A strip of the pairs at indices `pairs`, ascending.
    pub(crate) fn new(pairs: Vec<u32>) -> Self {
        Strip {
            pairs,
            ..Strip::default()
        }
    }
}

/// The reusable state of [`close`]: the flat snapshot, the component
/// labels and one [`Strip`] per strip of pairs, whose `pairs` the caller
/// fills.
#[derive(Default)]
pub(crate) struct CloseScratch {
    flat: FlatGraph,
    comp: Vec<u32>,
    pub(crate) strips: Vec<Strip>,
}

/// The M-NDP closure of a network instance on `n` nodes: its physical
/// `pairs` in canonical order and their `verdicts`, one bit per pair,
/// set where D-NDP discovered it. Theorem 3's capable pairs, then rounds
/// to fixpoint over the pairs of `scratch.strips`. Each round checks every
/// pair not yet logical against the graph as it stood at the round's
/// start, then adds the union of its discoveries in strip order — the
/// fixpoint of sequential re-initiation, because a pair found against a
/// subgraph is still found against any supergraph.
///
/// The first pass searches each pair once. A pair with a set verdict is
/// searched with its own edge banned, for Theorem 3's count only. Any
/// other pair in one component gets one search whose answer serves both
/// the count and round one; the pair is then found or pending, and later
/// rounds revisit only pending pairs. Pairs in different components are
/// never searched: a discovery joins two nodes a logical path already
/// connects, so the components never change.
///
/// The rounds search a flat `u32` snapshot of the logical graph: each
/// node's room is its physical degree, the pairs with a set verdict are
/// filled in canonical order, so every adjacency list starts ascending,
/// and each round's discoveries are added in place between rounds. Strips
/// run on `threads` workers over the shared read-only snapshot; the
/// result, and the work counted in `mndp.relay_searches` and
/// `mndp.relay_nodes_visited`, are the same for every thread count. A
/// warm `scratch` on one thread allocates nothing.
pub(crate) fn close(
    scratch: &mut CloseScratch,
    n: usize,
    pairs: &[(u32, u32)],
    verdicts: &[u64],
    params: &Params,
    mean_degree: f64,
    threads: usize,
) -> Closure {
    let nu = params.nu;
    let CloseScratch { flat, comp, strips } = scratch;
    flat.fill(n, pairs, verdicts);
    component_labels_into(n, pairs, verdicts, comp);
    let (snapshot, comp) = (&*flat, &*comp);
    crate::for_each_shard(strips, threads, |strip| {
        let Strip {
            pairs: indices,
            pending,
            found,
            relayed,
            bfs,
        } = strip;
        bfs.reset(n);
        pending.clear();
        found.clear();
        *relayed = 0;
        for &p in indices.iter() {
            let (u, v) = pairs[p as usize];
            let (u, v) = (u as usize, v as usize);
            if bit(verdicts, p as usize) {
                *relayed += usize::from(bfs.relay_hops(snapshot, u, v, nu).is_some());
            } else if comp[u] == comp[v] {
                match bfs.relay_hops(snapshot, u, v, nu) {
                    Some(hops) => found.push((p, hops as u32)),
                    None => pending.push(p),
                }
            }
        }
    });
    RelayWork::record(
        strips
            .iter_mut()
            .map(|strip| std::mem::take(&mut strip.bfs.work)),
    );
    let capable = strips
        .iter()
        .map(|strip| strip.relayed + strip.found.len())
        .sum();
    let mut latency = RunningStats::new();
    let mut found = 0;
    for strip in strips.iter() {
        found += strip.found.len();
        for &(p, hops) in &strip.found {
            let (u, v) = pairs[p as usize];
            flat.add_edge(u, v);
            latency.push(t_mndp(params, hops as usize, mean_degree));
        }
    }
    let (first_round, mut later, mut rounds) = (found, 0, 0usize);
    while found > 0 {
        rounds += 1;
        let snapshot = &*flat;
        crate::for_each_shard(strips, threads, |strip| {
            let Strip {
                pending,
                found,
                bfs,
                ..
            } = strip;
            found.clear();
            pending.retain(|&p| {
                let (u, v) = pairs[p as usize];
                match bfs.relay_hops(snapshot, u as usize, v as usize, nu) {
                    Some(hops) => {
                        found.push((p, hops as u32));
                        false
                    }
                    None => true,
                }
            });
        });
        RelayWork::record(
            strips
                .iter_mut()
                .map(|strip| std::mem::take(&mut strip.bfs.work)),
        );
        found = 0;
        for strip in strips.iter() {
            found += strip.found.len();
            for &(p, _) in &strip.found {
                let (u, v) = pairs[p as usize];
                flat.add_edge(u, v);
            }
        }
        later += found;
    }
    metric_counter!("mndp.closure_runs").inc();
    metric_counter!("mndp.closure_discoveries").add(later as u64);
    metric_histogram!("mndp.epochs_to_fixpoint", 0.0, 16.0, 16)
        .record(rounds.saturating_sub(1) as f64);
    Closure {
        capable,
        first_round,
        later,
        rounds,
        latency,
    }
}

/// The closure by its definition, for tests: Theorem 3's count removes
/// each pair's own edge and searches [`Graph::shortest_path_within`];
/// then rounds search every pair not yet logical against the round-start
/// graph, in `pairs` order, and add what they found, until a round finds
/// nothing. Returns the closed graph too.
#[cfg(test)]
pub(crate) fn sequential_closure(
    logical: &Graph,
    pairs: &[(usize, usize)],
    params: &Params,
    mean_degree: f64,
) -> (Closure, Graph) {
    let mut g = logical.clone();
    let hops = |g: &Graph, u, v| g.shortest_path_within(u, v, params.nu).map(|p| p.len() - 1);
    let mut capable = 0usize;
    for &(u, v) in pairs {
        let had = g.remove_edge(u, v);
        capable += usize::from(hops(&g, u, v).is_some());
        if had {
            g.add_edge(u, v);
        }
    }
    let (mut first_round, mut later, mut rounds) = (0, 0, 0);
    let mut latency = RunningStats::new();
    loop {
        let found: Vec<(usize, usize, usize)> = pairs
            .iter()
            .filter(|&&(u, v)| !g.has_edge(u, v))
            .filter_map(|&(u, v)| hops(&g, u, v).map(|h| (u, v, h)))
            .collect();
        if found.is_empty() {
            break;
        }
        for &(u, v, h) in &found {
            g.add_edge(u, v);
            if rounds == 0 {
                latency.push(t_mndp(params, h, mean_degree));
            }
        }
        if rounds == 0 {
            first_round = found.len();
        } else {
            later += found.len();
        }
        rounds += 1;
    }
    let closure = Closure {
        capable,
        first_round,
        later,
        rounds,
        latency,
    };
    (closure, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_dsss::code::CodeId;
    use proptest::prelude::*;

    /// Builds nodes 0..n with identities NodeId(i) and the given logical
    /// edges pre-established.
    fn build_nodes(n: usize, logical_edges: &[(usize, usize)]) -> Vec<Node> {
        let authority = Authority::from_seed(b"mndp-test");
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| {
                Node::new(
                    i,
                    vec![CodeId(i as u32)],
                    authority.issue(NodeId(i as u32)),
                    authority.verifier(),
                )
            })
            .collect();
        for &(u, v) in logical_edges {
            let (vid, uid) = (NodeId(v as u32), NodeId(u as u32));
            nodes[u].add_logical(v, vid, DiscoveryKind::Direct);
            nodes[v].add_logical(u, uid, DiscoveryKind::Direct);
        }
        nodes
    }

    fn logical_graph(nodes: &[Node]) -> Graph {
        let mut g = Graph::new(nodes.len());
        for node in nodes {
            for peer in node.logical_indices() {
                if peer > node.index() {
                    g.add_edge(node.index(), peer);
                }
            }
        }
        g
    }

    #[test]
    fn two_hop_discovery_through_common_neighbor() {
        // A(0) - C(2) - B(1) logically; A-B physically adjacent.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(1), 2);
        assert_eq!(stats.discovered, vec![(0, 1, 2)]);
        assert!(nodes[0].is_logical(1));
        assert!(nodes[1].is_logical(0));
        assert_eq!(stats.wasted_responses, 0);
        assert!(stats.responses_sent >= 1);
    }

    #[test]
    fn hop_limit_is_enforced() {
        // Logical path 0-2-3-1 (3 hops). Physical edge 0-1.
        let edges = [(0, 2), (2, 3), (3, 1)];
        let physical = Graph::from_edges(4, [(0, 1), (0, 2), (2, 3), (3, 1)]);
        let mut nodes = build_nodes(4, &edges);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(2), 2);
        assert!(stats.discovered.is_empty(), "nu = 2 cannot span 3 hops");
        let mut nodes = build_nodes(4, &edges);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(3), 3);
        assert_eq!(stats.discovered, vec![(0, 1, 3)]);
    }

    #[test]
    fn non_physical_neighbors_waste_responses() {
        // 0-2-1 logically, but 0 and 1 are NOT in radio range.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 2), (1, 2)]);
        let stats = initiate(&mut nodes, &physical, None, 0, Nonce::from_value(4), 2);
        assert!(stats.discovered.is_empty());
        assert_eq!(stats.wasted_responses, 1, "node 1 HELLOed into the void");
        assert!(!nodes[0].is_logical(1));
    }

    #[test]
    fn gps_filter_suppresses_wasted_responses() {
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 2), (1, 2)]);
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1000.0, 0.0), // far from node 0
            Point::new(150.0, 0.0),
        ];
        let gps = GpsFilter {
            positions: &positions,
            range: 300.0,
        };
        let stats = initiate(&mut nodes, &physical, Some(gps), 0, Nonce::from_value(5), 2);
        assert_eq!(stats.wasted_responses, 0);
        assert_eq!(stats.responses_sent, 0);
    }

    #[test]
    fn signature_verifications_are_counted() {
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        initiate(&mut nodes, &physical, None, 0, Nonce::from_value(6), 2);
        // C (node 2) verified the request; B (node 1) verified the chain;
        // C and A verified the response.
        assert!(
            nodes[2].verifications() >= 2,
            "relay verifies request + response"
        );
        assert!(
            nodes[1].verifications() >= 2,
            "responder verifies both chain sigs"
        );
        assert!(
            nodes[0].verifications() >= 2,
            "source verifies the response chain"
        );
    }

    #[test]
    fn tampered_chain_is_dropped() {
        // Forge: node 2 claims node 1 is reachable via a chain whose
        // signature is garbage. Build it manually.
        let mut nodes = build_nodes(3, &[(0, 2), (2, 1)]);
        let physical = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let bogus = MndpRequest {
            source: NodeId(0),
            nonce: Nonce::from_value(7),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(0),
                neighbors: vec![NodeId(2)],
                signature: jrsnd_crypto::ibc::IbSignature::forged(NodeId(0), 0xAB),
            }],
        };
        let mut run = Initiation {
            physical: &physical,
            gps: None,
            initiator: 0,
            seen: HashSet::from([0]),
            queue: VecDeque::new(),
            stats: MndpStats::default(),
        };
        let accepted = process_request(&mut nodes, &mut run, 2, &bogus);
        assert!(!accepted);
        assert!(run.stats.discovered.is_empty());
        assert!(run.queue.is_empty(), "invalid requests must not propagate");
    }

    #[test]
    fn closure_pass_finds_exactly_reachable_pairs() {
        // Logical: 0-2, 2-1, 3 isolated. Physical: 0-1, 0-3.
        let logical = Graph::from_edges(4, [(0, 2), (2, 1)]);
        let physical = Graph::from_edges(4, [(0, 1), (0, 3), (0, 2), (1, 2)]);
        let found = closure_pass(&logical, &physical, 2);
        assert_eq!(found, vec![(0, 1, 2)]);
    }

    #[test]
    fn closure_iterates_to_fixpoint() {
        // A cascade: logical 0-2, 2-1, 1-4 with physical pairs (0,1) and
        // (0,4). No logical path of at most 2 hops joins 0 and 4 until the
        // first round adds 0-1, so each round enables the next discovery.
        let logical = Graph::from_edges(5, [(0, 2), (2, 1), (1, 4)]);
        let physical = Graph::from_edges(5, [(0, 1), (0, 4), (0, 2), (1, 2), (1, 4)]);
        let (closure, closed) = close_one_strip(&logical, &physical, 2);
        // Round 1: (0,1) via 0-2-1. Round 2: (0,4) via the new 0-1 edge.
        assert_eq!(closure.rounds, 2);
        let mut after_first = logical.clone();
        after_first.add_edge(0, 1);
        let found = [
            closure_pass(&logical, &physical, 2),
            closure_pass(&after_first, &physical, 2),
        ]
        .concat();
        assert_eq!(found, vec![(0, 1, 2), (0, 4, 2)]);
        assert_eq!((closure.first_round, closure.later), (1, 1));
        assert_eq!(
            closed,
            Graph::from_edges(5, logical.edges().chain([(0, 1), (0, 4)]))
        );
    }

    /// `physical`'s canonical pairs and their verdicts: `logical`'s edges.
    fn pairs_and_verdicts(logical: &Graph, physical: &Graph) -> (Vec<(u32, u32)>, Vec<u64>) {
        let pairs: Vec<(u32, u32)> = physical
            .edges()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let mut verdicts = vec![0u64; pairs.len().div_ceil(64)];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if logical.has_edge(u as usize, v as usize) {
                verdicts[i / 64] |= 1 << (i % 64);
            }
        }
        (pairs, verdicts)
    }

    /// [`close`] over `physical`'s pairs as one strip on one thread, and
    /// the closed graph it left.
    fn close_one_strip(logical: &Graph, physical: &Graph, nu: usize) -> (Closure, Graph) {
        let params = Params {
            nu,
            ..Params::table1()
        };
        let (pairs, verdicts) = pairs_and_verdicts(logical, physical);
        let mut scratch = CloseScratch::default();
        scratch
            .strips
            .push(Strip::new((0..pairs.len() as u32).collect()));
        let n = physical.len();
        let closure = close(
            &mut scratch,
            n,
            &pairs,
            &verdicts,
            &params,
            physical.mean_degree(),
            1,
        );
        (closure, closed_graph(&scratch.flat))
    }

    /// A flat snapshot as a [`Graph`].
    fn closed_graph(flat: &FlatGraph) -> Graph {
        let n = flat.end.len();
        Graph::from_edges(
            n,
            (0..n).flat_map(|x| Adjacency::neighbors(flat, x).map(move |y| (x, y))),
        )
    }

    proptest! {
        #[test]
        fn relay_hops_matches_the_remove_and_search_oracle(
            n in 2usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
            ends in (0usize..20, 0usize..20),
            direct in any::<bool>(),
            split in any::<bool>(),
            nu_pick in 0usize..23,
        ) {
            // `split` drops every edge between the two halves of the node
            // range, so the ends may sit in different components.
            let half = |x: usize| 2 * x < n;
            let mut g = Graph::new(n);
            for (a, b) in edges {
                let (a, b) = (a % n, b % n);
                if a != b && !(split && half(a) != half(b)) {
                    g.add_edge(a, b);
                }
            }
            let u = ends.0 % n;
            let v = (u + 1 + ends.1 % (n - 1)) % n;
            if direct {
                g.add_edge(u, v);
            } else {
                g.remove_edge(u, v);
            }
            // ν covers 1..=n+1, then the unbounded limit.
            let nu = if nu_pick <= n { nu_pick + 1 } else { usize::MAX };
            let mut oracle = g.clone();
            oracle.remove_edge(u, v);
            let want = oracle.shortest_path_within(u, v, nu).map(|path| path.len() - 1);
            // Free slots (zeros, a real node id) must stay out of the
            // search: the snapshot has room for every pair of nodes.
            let everything = Graph::from_edges(n, (0..n).flat_map(|a| (0..a).map(move |b| (a, b))));
            let (pairs, verdicts) = pairs_and_verdicts(&g, &everything);
            let mut flat = FlatGraph::default();
            flat.fill(n, &pairs, &verdicts);
            let mut bfs = RelayBfs::new(n);
            prop_assert_eq!(bfs.relay_hops(&g, u, v, nu), want);
            prop_assert_eq!(bfs.relay_hops(&flat, u, v, nu), want);
            // The reset scratch answers the next query from scratch.
            prop_assert_eq!(bfs.relay_hops(&g, v, u, nu), want);
            prop_assert_eq!(bfs.relay_hops(&flat, v, u, nu), want);
            prop_assert_eq!(bfs.work.searches, 4);
            prop_assert!(bfs.side.iter().all(|&t| t == 0));
        }

        #[test]
        fn close_matches_the_sequential_oracle(
            n in 2usize..=40,
            edges in proptest::collection::vec((0usize..40, 0usize..40, any::<bool>()), 0..160),
            nu_pick in 0usize..6,
            cuts in proptest::collection::vec(0usize..1000, 0..4),
            interleave in any::<bool>(),
            threads in 1usize..=3,
        ) {
            // A random physical graph and a logical subgraph of it.
            let mut physical = Graph::new(n);
            let mut logical = Graph::new(n);
            for (a, b, is_logical) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    physical.add_edge(a, b);
                    if is_logical {
                        logical.add_edge(a, b);
                    }
                }
            }
            let nu = [1, 2, 3, 6, n - 1, usize::MAX][nu_pick];
            let params = Params {
                nu,
                ..Params::table1()
            };
            let (pairs, verdicts) = pairs_and_verdicts(&logical, &physical);
            // 1–4 strips, some possibly empty: contiguous runs of pairs, or
            // (as scale's field strips) ascending indices dealt out by a
            // label, which pushes first-round latencies in strip order.
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (pairs.len() + 1)).collect();
            bounds.sort_unstable();
            let mut scratch = CloseScratch {
                strips: [0]
                    .into_iter()
                    .chain(bounds.iter().copied())
                    .zip(bounds.iter().copied().chain([pairs.len()]))
                    .map(|(a, b)| Strip::new((a as u32..b as u32).collect()))
                    .collect(),
                ..CloseScratch::default()
            };
            if interleave {
                let k = scratch.strips.len();
                for strip in scratch.strips.iter_mut() {
                    strip.pairs.clear();
                }
                for i in 0..pairs.len() {
                    scratch.strips[i * 7919 % 13 % k].pairs.push(i as u32);
                }
            }
            let mean_degree = physical.mean_degree();
            let got = close(&mut scratch, n, &pairs, &verdicts, &params, mean_degree, threads);
            let pairs: Vec<(usize, usize)> = physical.edges().collect();
            let (want, closed) = sequential_closure(&logical, &pairs, &params, mean_degree);
            prop_assert_eq!(got.capable, want.capable);
            prop_assert_eq!(got.first_round, want.first_round);
            prop_assert_eq!(got.later, want.later);
            prop_assert_eq!(got.rounds, want.rounds);
            if interleave {
                prop_assert_eq!(got.latency.count(), want.latency.count());
                prop_assert!((got.latency.mean() - want.latency.mean()).abs() < 1e-9);
            } else {
                prop_assert_eq!(format!("{:?}", got.latency), format!("{:?}", want.latency));
            }
            prop_assert_eq!(closed_graph(&scratch.flat), closed);
            // A warm scratch gives the same answer again.
            let again = close(&mut scratch, n, &pairs_and_verdicts(&logical, &physical).0, &verdicts, &params, mean_degree, threads);
            prop_assert_eq!((again.capable, again.first_round, again.later), (want.capable, want.first_round, want.later));
        }
    }

    #[test]
    fn protocol_equals_closure_on_random_networks() {
        use jrsnd_sim::rng::SimRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let n = 24;
            // Random physical graph and a random logical subgraph of it.
            let mut physical = Graph::new(n);
            let mut logical_edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.18) {
                        physical.add_edge(u, v);
                        if rng.gen_bool(0.6) {
                            logical_edges.push((u, v));
                        }
                    }
                }
            }
            // Closure shortcut.
            let logical = Graph::from_edges(n, logical_edges.iter().copied());
            let (_, closure_graph) = close_one_strip(&logical, &physical, 2);
            // Full protocol, every node initiating, repeated to fixpoint.
            let mut nodes = build_nodes(n, &logical_edges);
            let mut round = 0u32;
            loop {
                let mut any = false;
                for i in 0..n {
                    let nonce = Nonce::from_value(round * 1000 + i as u32);
                    let stats = initiate(&mut nodes, &physical, None, i, nonce, 2);
                    any |= !stats.discovered.is_empty();
                }
                round += 1;
                if !any {
                    break;
                }
                assert!(round < 50, "protocol failed to converge");
            }
            let protocol_graph = logical_graph(&nodes);
            assert_eq!(
                protocol_graph, closure_graph,
                "seed {seed}: protocol and closure disagree"
            );
        }
    }
}
