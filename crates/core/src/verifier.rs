//! The self-stabilizing verifier (§7–§8), as a [`NodeProgram`].
//!
//! Each activation, every node:
//!
//! 1. runs the **structural 1-round checks**: the Example SP / NumK
//!    conditions, the RS/EPS string legality conditions of §5, and the
//!    representation of the two partitions;
//! 2. advances its two **trains** (one per partition, §7.1): the piece of the
//!    current slot climbs from its permanent holder to the part root, is
//!    flooded back down with the *membership flag* of §7.1, and the part root
//!    advances the slot once its whole part acknowledges (an ack-paced
//!    variant of the paper's pipelined train — see `DESIGN.md`); the part
//!    root also checks that pieces arrive in the prescribed cyclic order
//!    (§8);
//! 3. runs the **comparison machinery** (§7.2): it copies its own member
//!    piece of the current level into its `Ask` buffer, walks its neighbours
//!    round-robin, uses the `Want` register to make a neighbour's train hold
//!    the piece it needs (§7.2.2), and on every event `E(v, u, j)` evaluates
//!    the minimality checks C1/C2 and the equality checks of Claim 8.3;
//! 4. tracks, per cycle, which of its own levels it has seen (the cycle-set
//!    completeness check of §8) and raises an alarm if a needed piece never
//!    arrives.
//!
//! Any violation makes the node output [`Verdict::Reject`] — "raising an
//! alarm" in the paper's terminology.

use crate::labels::{CoreLabel, PieceInfo};
use crate::strings::{check_strings, EndpSym, RootSym, StringNeighborhood};
use smst_graph::weight::CompositeWeight;
use smst_graph::{ComponentMap, NodeId, Port, WeightedGraph};
use smst_sim::{Network, NodeContext, NodeProgram, Verdict};

/// Which of the two partitions a train belongs to.
pub const TRAIN_TOP: usize = 0;
/// Index of the Bottom-partition train.
pub const TRAIN_BOTTOM: usize = 1;

/// A piece climbing towards the part root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpItem {
    /// The slot being collected.
    pub slot: u8,
    /// The piece contents.
    pub piece: PieceInfo,
}

/// A piece flooding down from the part root, carrying the membership flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownItem {
    /// The slot being distributed.
    pub slot: u8,
    /// The piece contents.
    pub piece: PieceInfo,
    /// Whether this node belongs to the piece's fragment (§7.1's flag).
    pub member: bool,
}

/// The per-train dynamic registers of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainState {
    /// The slot currently being circulated (driven by the part root).
    pub want: u8,
    /// The piece climbing up (§7.1 convergecast direction).
    pub up: Option<UpItem>,
    /// The piece flooding down (§7.1 broadcast direction), a.k.a. `Show`.
    pub down: Option<DownItem>,
    /// `Some(slot)` once this node's whole part-subtree holds the slot's
    /// piece — the acknowledgement that paces the root.
    pub done: Option<u8>,
    /// How long the node has delayed replacing its `down` buffer because a
    /// neighbour `Want`s the currently shown piece.
    pub delay: u8,
    /// Cycle boundaries (slot counter wrap-arounds) observed since the last
    /// completeness check.
    pub wraps: u8,
    /// The key of the last piece completed at the root (cyclic-order check).
    pub last_key: Option<(u32, u64)>,
}

impl TrainState {
    fn fresh() -> Self {
        TrainState {
            want: 0,
            up: None,
            down: None,
            done: None,
            delay: 0,
            wraps: 0,
            last_key: None,
        }
    }
}

/// The comparison (client) state of §7.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareState {
    /// Index into the node's level list `J(v)` of the level being compared.
    pub level_idx: u8,
    /// The held piece `I(F_j(v))` (the `Ask` buffer).
    pub ask: Option<PieceInfo>,
    /// The port of the neighbour currently being compared.
    pub neighbor_ptr: u16,
    /// The `Want` register: `(neighbour identity, level)` this node is
    /// waiting to see.
    pub want_cmp: Option<(u64, u32)>,
    /// The last observed slot counters of the watched neighbour's two trains
    /// (used to count that neighbour's cycle boundaries).
    pub watched_prev: [u8; 2],
    /// Cycle boundaries observed on the watched neighbour's trains.
    pub watched_wraps: [u8; 2],
}

impl CompareState {
    fn fresh() -> Self {
        CompareState {
            level_idx: 0,
            ask: None,
            neighbor_ptr: 0,
            want_cmp: None,
            watched_prev: [0, 0],
            watched_wraps: [0, 0],
        }
    }
}

/// The full register of a node running the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    /// The node's label (the corruptible proof).
    pub label: CoreLabel,
    /// The two trains (Top, Bottom).
    pub trains: [TrainState; 2],
    /// The comparison machinery.
    pub compare: CompareState,
    /// Bitmask over levels: member pieces seen since the last completeness
    /// check.
    pub seen_levels: u64,
    /// The node's current verdict.
    pub verdict: Verdict,
}

/// The verifier program. It carries the (read-only) network inputs every node
/// legitimately has locally: the graph's weights/ports/identities and the
/// component pointers of the candidate subgraph, plus the initial labels
/// (which become the per-node registers and may be corrupted by faults).
#[derive(Debug)]
pub struct CoreVerifier {
    graph: WeightedGraph,
    components: ComponentMap,
    labels: Vec<CoreLabel>,
}

impl CoreVerifier {
    /// Bundles the verifier's inputs.
    pub fn new(graph: WeightedGraph, components: ComponentMap, labels: Vec<CoreLabel>) -> Self {
        CoreVerifier {
            graph,
            components,
            labels,
        }
    }

    /// The graph the verifier runs on.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// The component map of the candidate subgraph being verified.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Builds the simulator network whose registers hold the initial labels.
    pub fn network(&self) -> Network<Self> {
        Network::new(self, self.graph.clone())
    }

    // ----- helpers ---------------------------------------------------------

    /// The parent port of a node according to its component pointer.
    fn parent_port(&self, v: NodeId) -> Option<Port> {
        self.components
            .pointer(v)
            .filter(|p| p.index() < self.graph.degree(v))
    }

    fn edge_weight(
        &self,
        v: NodeId,
        port: Port,
        neighbor: &CoreState,
        is_tree: bool,
    ) -> CompositeWeight {
        let e = self.graph.incident_edges(v)[port.index()];
        CompositeWeight::new(
            self.graph.weight(e),
            is_tree,
            self.graph.id(v),
            neighbor.label.sp.own_id,
        )
    }

    /// Whether the edge behind `port` is a tree edge (the neighbour is this
    /// node's component parent, or claims this node as its parent).
    fn is_tree_edge(&self, ctx: &NodeContext, port: Port, neighbor: &CoreState) -> bool {
        self.parent_port(ctx.node) == Some(port) || neighbor.label.sp.parent_id == Some(ctx.id)
    }

    // ----- structural 1-round checks (§5, SP, NumK, partitions) ------------

    fn structural_ok(&self, ctx: &NodeContext, own: &CoreState, neighbors: &[&CoreState]) -> bool {
        let v = ctx.node;
        let label = &own.label;
        // SP: truthful identity, agreement on the root, distance rules
        if label.sp.own_id != ctx.id {
            return false;
        }
        if neighbors
            .iter()
            .any(|s| s.label.sp.root_id != label.sp.root_id)
        {
            return false;
        }
        let parent_port = self.parent_port(v);
        let parent = parent_port.map(|p| neighbors[p.index()]);
        match parent {
            None => {
                if self.components.pointer(v).is_some() {
                    return false; // pointer names a non-existent port
                }
                if label.sp.dist != 0 || label.sp.root_id != ctx.id || label.sp.parent_id.is_some()
                {
                    return false;
                }
            }
            Some(p) => {
                if label.sp.dist != p.label.sp.dist + 1
                    || label.sp.parent_id != Some(p.label.sp.own_id)
                {
                    return false;
                }
            }
        }
        // NumK: agreement on n and subtree aggregation
        if neighbors.iter().any(|s| s.label.n_claim != label.n_claim) {
            return false;
        }
        let children: Vec<&&CoreState> = neighbors
            .iter()
            .filter(|s| s.label.sp.parent_id == Some(ctx.id))
            .collect();
        let child_sum: u64 = children.iter().map(|s| s.label.subtree_count).sum();
        if label.subtree_count != 1 + child_sum {
            return false;
        }
        if parent.is_none() && label.subtree_count != label.n_claim {
            return false;
        }
        // strings legality (RS / EPS conditions); `seen_levels` has one bit
        // per level, so a label with more levels than bits is illegal
        if label.strings.len() > MAX_LEVELS {
            return false;
        }
        let max_len = (label.n_claim.max(2) as f64).log2().ceil() as usize + 1;
        let view = StringNeighborhood {
            own: &label.strings,
            parent: parent.map(|p| &p.label.strings),
            children: children.iter().map(|c| &c.label.strings).collect(),
            is_tree_root: parent.is_none(),
            max_len,
        };
        if check_strings(&view).is_err() {
            return false;
        }
        // partition representation: parts are subtrees, so a non-root of a
        // part must have its tree parent in the same part; diameters and
        // piece counts are bounded and agreed upon inside the part
        let log_n = (label.n_claim.max(2) as f64).log2().ceil() as u64;
        for (mine, getter) in [
            (
                &label.top_part,
                top_part_of as fn(&CoreState) -> &crate::labels::PartLabel,
            ),
            (
                &label.bottom_part,
                bottom_part_of as fn(&CoreState) -> &crate::labels::PartLabel,
            ),
        ] {
            let i_am_part_root = mine.part_root_id == ctx.id;
            if i_am_part_root {
                if mine.depth_in_part != 0 {
                    return false;
                }
            } else {
                match parent {
                    None => return false,
                    Some(p) => {
                        let pp = getter(p);
                        if pp.part_root_id != mine.part_root_id {
                            return false;
                        }
                        if mine.depth_in_part != pp.depth_in_part + 1 {
                            return false;
                        }
                        if pp.diameter_bound != mine.diameter_bound
                            || pp.piece_count != mine.piece_count
                        {
                            return false;
                        }
                    }
                }
            }
            if mine.diameter_bound > 6 * log_n + 6 {
                return false;
            }
            if u64::from(mine.piece_count) > 2 * (log_n + 2) {
                return false;
            }
            if mine.depth_in_part > mine.diameter_bound {
                return false;
            }
            if mine.stored.len() > 2 {
                return false;
            }
            if mine.stored.iter().any(|s| s.slot >= mine.piece_count) {
                return false;
            }
        }
        // the delimiter must not exceed the string length
        if usize::from(label.top_min_level) > label.strings.len() {
            return false;
        }
        true
    }

    // ----- train step (§7.1, ack-paced variant) -----------------------------

    /// Whether some neighbour currently `Want`s a member piece shown by this
    /// node.
    fn neighbor_wants_shown(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
    ) -> bool {
        let shown: Vec<u32> = own
            .trains
            .iter()
            .filter_map(|t| t.down.as_ref())
            .filter(|d| d.member)
            .map(|d| d.piece.level)
            .collect();
        if shown.is_empty() {
            return false;
        }
        neighbors.iter().any(|s| {
            s.compare
                .want_cmp
                .map(|(id, lev)| id == ctx.id && shown.contains(&lev))
                .unwrap_or(false)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn step_train(
        &self,
        which: usize,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
        next: &mut CoreState,
        wants_hold: bool,
        alarm: &mut bool,
    ) {
        let v = ctx.node;
        let part = if which == TRAIN_TOP {
            &own.label.top_part
        } else {
            &own.label.bottom_part
        };
        let k = part.piece_count;
        let train = &own.trains[which];
        let out = &mut next.trains[which];
        if k == 0 {
            *out = TrainState::fresh();
            return;
        }
        let i_am_root = part.part_root_id == ctx.id;
        let parent_port = self.parent_port(v);
        let parent_state = parent_port.map(|p| neighbors[p.index()]);
        let parent_same_part = parent_state
            .map(|p| part_of(p, which).part_root_id == part.part_root_id)
            .unwrap_or(false);
        // part children: tree children in the same part
        let part_children: Vec<&&CoreState> = neighbors
            .iter()
            .filter(|s| {
                s.label.sp.parent_id == Some(ctx.id)
                    && part_of(s, which).part_root_id == part.part_root_id
            })
            .collect();

        // 1. the slot being circulated
        let mut wraps = train.wraps;
        let want = if i_am_root {
            let mut w = if train.want >= k { 0 } else { train.want };
            // advance once the whole part acknowledged and no neighbour holds us
            let done_here = train.done == Some(w);
            let held = wants_hold && train.delay < DELAY_MAX;
            if done_here && !held {
                // cyclic-order check of §8: the completed piece's key must
                // strictly increase within a cycle
                if let Some(d) = &train.down {
                    let key = (d.piece.level, d.piece.root_id);
                    if let Some(last) = train.last_key {
                        if w != 0 && key <= last {
                            *alarm = true;
                        }
                    }
                    out.last_key = Some(key);
                }
                w = (w + 1) % k;
                if w == 0 {
                    wraps = wraps.saturating_add(1);
                }
            }
            out.delay = if done_here && held {
                train.delay.saturating_add(1)
            } else {
                0
            };
            w
        } else {
            let w = parent_state
                .filter(|_| parent_same_part)
                .map(|p| p.trains[which].want)
                .unwrap_or(0);
            let w = if w >= k { 0 } else { w };
            if w < train.want {
                wraps = wraps.saturating_add(1);
            }
            w
        };
        out.want = want;
        out.wraps = wraps;
        if i_am_root {
            if out.want == 0 && want != train.want {
                out.last_key = None;
            } else if out.last_key.is_none() {
                out.last_key = train.last_key;
            }
        }

        // 2. the upward (convergecast) buffer
        let stored = part.stored.iter().find(|s| s.slot == want);
        out.up = if let Some(s) = stored {
            Some(UpItem {
                slot: want,
                piece: s.piece,
            })
        } else if train.up.map(|u| u.slot == want).unwrap_or(false) {
            train.up
        } else {
            part_children
                .iter()
                .filter_map(|c| c.trains[which].up)
                .find(|u| u.slot == want)
        };

        // 3. the downward (broadcast / Show) buffer, with the membership flag
        let replace_with: Option<DownItem> = if i_am_root {
            let source = stored
                .map(|s| s.piece)
                .or_else(|| out.up.filter(|u| u.slot == want).map(|u| u.piece));
            source.map(|piece| DownItem {
                slot: want,
                piece,
                member: self.root_membership(which, &own.label, piece),
            })
        } else {
            parent_state
                .filter(|_| parent_same_part)
                .and_then(|p| p.trains[which].down)
                .filter(|d| d.slot == want)
                .map(|d| DownItem {
                    slot: d.slot,
                    piece: d.piece,
                    member: self.child_membership(&own.label, ctx, d),
                })
        };
        let current_ok = train.down.map(|d| d.slot == want).unwrap_or(false);
        out.down = match (current_ok, replace_with) {
            (true, _) => train.down,
            (false, Some(new)) => {
                // §7.2.2: do not overwrite a piece a neighbour still wants
                if wants_hold && train.delay < DELAY_MAX && train.down.is_some() {
                    out.delay = train.delay.saturating_add(1);
                    train.down
                } else {
                    if !i_am_root {
                        out.delay = 0;
                    }
                    Some(new)
                }
            }
            (false, None) => train.down,
        };

        // 4. the acknowledgement
        let have = out.down.map(|d| d.slot == want).unwrap_or(false);
        let children_done = part_children
            .iter()
            .all(|c| c.trains[which].done == Some(want));
        out.done = if have && children_done {
            Some(want)
        } else {
            None
        };

        // 5. checks on the member piece currently shown (§8, Claim 8.3)
        if let Some(d) = out.down {
            if d.member {
                let j = d.piece.level as usize;
                let strings = &own.label.strings;
                if j >= strings.len() || strings.roots[j] == RootSym::Absent {
                    *alarm = true;
                } else {
                    next.seen_levels |= level_bit(j);
                    if strings.roots[j] == RootSym::Root && d.piece.root_id != ctx.id {
                        *alarm = true;
                    }
                    // only the top fragment (the whole tree) has no outgoing edge
                    if d.piece.min_out.is_none() && j + 1 != strings.len() {
                        *alarm = true;
                    }
                }
            }
        }
    }

    /// Membership rule at the part root (§7.1's flag, initial value).
    fn root_membership(&self, which: usize, label: &CoreLabel, piece: PieceInfo) -> bool {
        let j = piece.level as usize;
        if j >= label.strings.len() || label.strings.roots[j] == RootSym::Absent {
            return false;
        }
        match which {
            TRAIN_TOP => {
                // the part intersects at most one top fragment per level
                // (Claim 6.3), so having a top fragment at this level means it
                // is the piece's fragment
                piece.level >= u32::from(label.top_min_level)
            }
            _ => piece.root_id == label.sp.own_id,
        }
    }

    /// Membership rule when copying the piece from the part parent.
    fn child_membership(&self, label: &CoreLabel, ctx: &NodeContext, d: DownItem) -> bool {
        let j = d.piece.level as usize;
        if d.piece.root_id == ctx.id {
            return true;
        }
        d.member && j < label.strings.len() && label.strings.roots[j] == RootSym::NonRoot
    }

    // ----- comparison machinery (§7.2, §8) ----------------------------------

    #[allow(clippy::too_many_arguments)]
    fn step_compare(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
        next: &mut CoreState,
        alarm: &mut bool,
    ) {
        let levels = own.label.strings.levels_present();
        if levels.is_empty() {
            next.compare = CompareState::fresh();
            return;
        }
        let mut cmp = own.compare.clone();
        if usize::from(cmp.level_idx) >= levels.len() {
            cmp = CompareState::fresh();
        }
        let level = levels[usize::from(cmp.level_idx)] as u32;

        // obtain the Ask piece for the current level from one of our trains
        if cmp.ask.map(|p| p.level != level).unwrap_or(false) {
            cmp.ask = None;
        }
        if cmp.ask.is_none() {
            cmp.ask = next
                .trains
                .iter()
                .filter_map(|t| t.down)
                .find(|d| d.member && d.piece.level == level)
                .map(|d| d.piece);
            cmp.neighbor_ptr = 0;
            cmp.want_cmp = None;
            cmp.watched_wraps = [0, 0];
        }
        let Some(ask) = cmp.ask else {
            next.compare = cmp;
            return;
        };

        // walk the neighbours round-robin
        let mut advanced = true;
        while advanced && usize::from(cmp.neighbor_ptr) < ctx.degree {
            advanced = false;
            let port = Port(usize::from(cmp.neighbor_ptr));
            let u = neighbors[port.index()];
            let j = level as usize;
            let u_has_level =
                j < u.label.strings.len() && u.label.strings.roots[j] != RootSym::Absent;
            if !u_has_level {
                // the neighbour has no level-j fragment: the edge is outgoing
                self.check_outgoing(ctx, own, port, u, ask, level, alarm);
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
                advanced = true;
                continue;
            }
            // does the neighbour currently show its member level-j piece?
            let shown = u
                .trains
                .iter()
                .filter_map(|t| t.down)
                .find(|d| d.member && d.piece.level == level);
            if let Some(d) = shown {
                self.check_event(ctx, own, port, u, ask, d.piece, level, alarm);
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
                advanced = true;
                continue;
            }
            // not shown: file a Want and count the neighbour's cycles
            cmp.want_cmp = Some((u.label.sp.own_id, level));
            let cur = [u.trains[0].want, u.trains[1].want];
            for (t, &c) in cur.iter().enumerate() {
                if c < cmp.watched_prev[t] {
                    cmp.watched_wraps[t] = cmp.watched_wraps[t].saturating_add(1);
                }
            }
            cmp.watched_prev = cur;
            if cmp.watched_wraps.iter().all(|&w| w >= MAX_WATCH_WRAPS) {
                // the neighbour's trains completed several full cycles and the
                // needed piece never appeared
                *alarm = true;
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
            }
        }
        if usize::from(cmp.neighbor_ptr) >= ctx.degree {
            // done with this level: move on
            cmp.level_idx = ((usize::from(cmp.level_idx) + 1) % levels.len()) as u8;
            cmp.ask = None;
            cmp.neighbor_ptr = 0;
            cmp.want_cmp = None;
            cmp.watched_wraps = [0, 0];
        }
        next.compare = cmp;
    }

    /// Checks C1/C2 for an edge known to be outgoing (the neighbour has no
    /// level-`j` fragment).
    #[allow(clippy::too_many_arguments)]
    fn check_outgoing(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        ask: PieceInfo,
        level: u32,
        alarm: &mut bool,
    ) {
        let is_tree = self.is_tree_edge(ctx, port, u);
        let w = self.edge_weight(ctx.node, port, u, is_tree);
        match ask.min_out {
            None => *alarm = true, // the whole-tree fragment has no outgoing edge
            Some(mw) => {
                if w < mw {
                    *alarm = true; // C2
                }
                if self.is_candidate_edge(ctx, own, port, u, level) && mw != w {
                    *alarm = true; // C1
                }
            }
        }
    }

    /// Checks performed when the event `E(v, u, j)` occurs.
    #[allow(clippy::too_many_arguments)]
    fn check_event(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        ask: PieceInfo,
        their: PieceInfo,
        level: u32,
        alarm: &mut bool,
    ) {
        let j = level as usize;
        let is_tree = self.is_tree_edge(ctx, port, u);
        let is_parent = self.parent_port(ctx.node) == Some(port);
        let same_fragment = ask.root_id == their.root_id;
        // Claim 8.3: tree neighbours in the same fragment must hold identical
        // pieces; the strings already tell whether the parent shares the
        // fragment
        if is_parent && own.label.strings.roots.get(j) == Some(&RootSym::NonRoot) && ask != their {
            *alarm = true;
        }
        if same_fragment && ask != their {
            *alarm = true;
        }
        if !same_fragment {
            let w = self.edge_weight(ctx.node, port, u, is_tree);
            match ask.min_out {
                None => *alarm = true,
                Some(mw) => {
                    if w < mw {
                        *alarm = true; // C2
                    }
                    if self.is_candidate_edge(ctx, own, port, u, level) && mw != w {
                        *alarm = true; // C1
                    }
                }
            }
        } else if self.is_candidate_edge(ctx, own, port, u, level) {
            // the candidate edge must be outgoing
            *alarm = true;
        }
    }

    /// Whether the edge behind `port` is this node's candidate edge at the
    /// given level, according to the EndP/Parents strings.
    fn is_candidate_edge(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        level: u32,
    ) -> bool {
        let j = level as usize;
        if j >= own.label.strings.len() {
            return false;
        }
        match own.label.strings.endp[j] {
            EndpSym::Up => self.parent_port(ctx.node) == Some(port),
            EndpSym::Down => {
                u.label.sp.parent_id == Some(ctx.id)
                    && j < u.label.strings.len()
                    && u.label.strings.parents[j]
            }
            _ => false,
        }
    }
}

/// Maximum activations a node delays its train for a wanting neighbour
/// (guards against corrupted `Want` registers).
const DELAY_MAX: u8 = 64;
/// Full cycles of a watched neighbour's trains after which a missing piece is
/// reported.
const MAX_WATCH_WRAPS: u8 = 3;
/// Cycles of both own trains after which the completeness check fires.
const COMPLETENESS_WRAPS: u8 = 2;
/// Most string levels a legal label has: one per bit of `seen_levels`.
const MAX_LEVELS: usize = u64::BITS as usize;

/// The `seen_levels` bit of level `j`. A level of [`MAX_LEVELS`] or more has
/// none (its label fails the structural check), so its pieces never count
/// as seen.
fn level_bit(j: usize) -> u64 {
    if j < MAX_LEVELS {
        1 << j
    } else {
        0
    }
}

fn part_of(s: &CoreState, which: usize) -> &crate::labels::PartLabel {
    if which == TRAIN_TOP {
        &s.label.top_part
    } else {
        &s.label.bottom_part
    }
}

fn top_part_of(s: &CoreState) -> &crate::labels::PartLabel {
    &s.label.top_part
}

fn bottom_part_of(s: &CoreState) -> &crate::labels::PartLabel {
    &s.label.bottom_part
}

impl NodeProgram for CoreVerifier {
    type State = CoreState;

    fn init(&self, ctx: &NodeContext) -> CoreState {
        CoreState {
            label: self.labels[ctx.node.index()].clone(),
            trains: [TrainState::fresh(), TrainState::fresh()],
            compare: CompareState::fresh(),
            seen_levels: 0,
            verdict: Verdict::Working,
        }
    }

    fn step(&self, ctx: &NodeContext, own: &CoreState, neighbors: &[&CoreState]) -> CoreState {
        let mut alarm = false;
        let mut next = own.clone();
        next.verdict = Verdict::Accept;

        // 1. structural 1-round checks
        if !self.structural_ok(ctx, own, neighbors) {
            alarm = true;
        }

        // 2. trains
        let wants_hold = self.neighbor_wants_shown(ctx, own, neighbors);
        self.step_train(
            TRAIN_TOP, ctx, own, neighbors, &mut next, wants_hold, &mut alarm,
        );
        self.step_train(
            TRAIN_BOTTOM,
            ctx,
            own,
            neighbors,
            &mut next,
            wants_hold,
            &mut alarm,
        );

        // 3. comparisons
        self.step_compare(ctx, own, neighbors, &mut next, &mut alarm);

        // 4. completeness (cycle-set) check of §8
        if next.trains.iter().all(|t| t.wraps >= COMPLETENESS_WRAPS) {
            for j in own.label.strings.levels_present() {
                if next.seen_levels & level_bit(j) == 0 {
                    alarm = true;
                }
            }
            next.seen_levels = 0;
            for t in &mut next.trains {
                t.wraps = 0;
            }
        }

        if alarm {
            next.verdict = Verdict::Reject;
        }
        next
    }

    fn verdict(&self, _ctx: &NodeContext, state: &CoreState) -> Verdict {
        state.verdict
    }

    fn state_bits(&self, ctx: &NodeContext, state: &CoreState) -> u64 {
        let g = &self.graph;
        let max_id = g.nodes().map(|v| g.id(v)).max().unwrap_or(1);
        let max_w = g.edges().iter().map(|e| e.weight).max().unwrap_or(1);
        let n = g.node_count();
        let piece_bits = PieceInfo::bits(max_id, max_w, state.label.strings.len().max(1));
        let train_bits = 2 * (8 + 9 + 8 + 8 + (8 + piece_bits) + (9 + piece_bits) + 48);
        let compare_bits = 8 + piece_bits + 16 + (64 + 32) + 16 + 16;
        let _ = ctx;
        state.label.bits(max_id, max_w, n)
            + train_bits
            + compare_bits
            + state.label.strings.len() as u64 // seen_levels bitmask
            + 2
    }

    fn name(&self) -> &str {
        "core-mst-verifier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marker::Marker;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_labeling::Instance;
    use smst_sim::SyncRunner;

    fn setup(n: usize, m: usize, seed: u64) -> (Instance, CoreVerifier) {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        (inst, verifier)
    }

    /// A generous synchronous-time budget: polylogarithmic in n.
    fn budget(n: usize) -> usize {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        600 * log_n * log_n * log_n + 600
    }

    #[test]
    fn correct_instance_is_accepted_and_stays_accepted() {
        let (inst, verifier) = setup(24, 60, 1);
        let n = inst.node_count();
        let net = verifier.network();
        let mut runner = SyncRunner::new(&verifier, net);
        runner.run_rounds(budget(n));
        assert!(
            runner.network().alarming_nodes(&verifier).is_empty(),
            "no node may reject a correct, marker-labelled instance"
        );
        assert!(runner.network().all_accept(&verifier));
    }

    #[test]
    fn every_level_piece_is_eventually_seen() {
        let (inst, verifier) = setup(32, 80, 2);
        let n = inst.node_count();
        let net = verifier.network();
        let mut runner = SyncRunner::new(&verifier, net);
        runner.run_rounds(budget(n));
        // the completeness check never fired, so the verdict is Accept
        assert!(runner.network().all_accept(&verifier));
    }

    #[test]
    fn structural_check_rejects_more_than_64_levels() {
        // node 1 is node 0's tree child; both claim n = u64::MAX, so RS1
        // allows up to ⌈log₂ n⌉ + 1 = 65 levels, and the top level is
        // repeated until the strings reach the wanted length
        let g = smst_graph::generators::path_graph(2, 3);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (marked, _) = Marker.label(&inst).unwrap();
        let structural_ok_at_child = |levels: usize| {
            let labels: Vec<CoreLabel> = marked
                .iter()
                .map(|l| {
                    let mut l = l.clone();
                    l.n_claim = u64::MAX;
                    let s = &mut l.strings;
                    let top = s.len() - 1;
                    s.roots.resize(levels, s.roots[top]);
                    s.endp.resize(levels, s.endp[top]);
                    s.parents.resize(levels, s.parents[top]);
                    s.or_endp.resize(levels, s.or_endp[top]);
                    l
                })
                .collect();
            let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
            let net = verifier.network();
            let child = NodeId(1);
            let neighbors: Vec<&CoreState> = inst
                .graph
                .incident_edges(child)
                .iter()
                .map(|&e| net.state(inst.graph.edge(e).other(child)))
                .collect();
            verifier.structural_ok(net.context(child), net.state(child), &neighbors)
        };
        assert!(structural_ok_at_child(64), "64 levels are legal");
        assert!(!structural_ok_at_child(65), "65 levels must be rejected");
    }

    #[test]
    fn memory_is_logarithmic() {
        let (inst, verifier) = setup(64, 160, 3);
        let net = verifier.network();
        let bits = net.memory_bits(&verifier);
        let log_n = (inst.node_count() as f64).log2();
        for b in bits {
            assert!(
                (b as f64) < 120.0 * log_n + 300.0,
                "{b} bits is not O(log n)"
            );
        }
    }
}
