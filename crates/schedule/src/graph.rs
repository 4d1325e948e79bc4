//! Serialization (conflict) graphs and conflict serializability.
//!
//! The serialization-graph test is the standard efficient *sufficient*
//! condition for Herbrand serializability: build a digraph on transactions
//! with an edge `T_i → T_k` whenever some step of `T_i` precedes a
//! conflicting step of `T_k` in the schedule; the schedule is conflict
//! serializable (CSR) iff the graph is acyclic, and any topological order is
//! then an equivalent serial order.
//!
//! The paper's Section 5.3 identifies commutations of adjacent
//! non-conflicting steps ("elementary transformations") as the homotopy
//! moves of the progress-space geometry; CSR is exactly the class reachable
//! from a serial schedule by such moves.

use crate::schedule::Schedule;
use ccopt_model::ids::TxnId;
use ccopt_model::syntax::Syntax;

/// The serialization graph of a schedule.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    n: usize,
    /// Adjacency matrix: `edges[i * n + k]` = edge `T_i → T_k`.
    edges: Vec<bool>,
}

/// Result of the conflict-serializability test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SerializationVerdict {
    /// Acyclic graph; the payload is a witnessing equivalent serial order.
    Serializable(Vec<TxnId>),
    /// A cycle was found; the payload is one cycle (transaction indices).
    Cyclic(Vec<TxnId>),
}

impl SerializationVerdict {
    /// True for the serializable verdict.
    pub fn is_serializable(&self) -> bool {
        matches!(self, SerializationVerdict::Serializable(_))
    }
}

impl ConflictGraph {
    /// Build the serialization graph of `h` under the conflict relation of
    /// `syntax`.
    pub fn build(syntax: &Syntax, h: &Schedule) -> Self {
        let n = syntax.num_txns();
        let mut edges = vec![false; n * n];
        let steps = h.steps();
        for (p, &a) in steps.iter().enumerate() {
            for &b in &steps[p + 1..] {
                if syntax.conflict(a, b) {
                    let i = a.txn.index();
                    let k = b.txn.index();
                    if i != k {
                        edges[i * n + k] = true;
                    }
                }
            }
        }
        ConflictGraph { n, edges }
    }

    /// Number of transactions (nodes).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Is there an edge `T_i → T_k`?
    pub fn has_edge(&self, i: TxnId, k: TxnId) -> bool {
        self.edges[i.index() * self.n + k.index()]
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for k in 0..self.n {
                if self.edges[i * self.n + k] {
                    out.push((TxnId(i as u32), TxnId(k as u32)));
                }
            }
        }
        out
    }

    /// Test acyclicity; on success return a topological order (an equivalent
    /// serial order), otherwise return one cycle.
    pub fn check(&self) -> SerializationVerdict {
        // Kahn's algorithm with deterministic (index) tie-breaking.
        let mut indeg = vec![0usize; self.n];
        for i in 0..self.n {
            for (k, d) in indeg.iter_mut().enumerate() {
                if self.edges[i * self.n + k] {
                    *d += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(self.n);
        let mut removed = vec![false; self.n];
        loop {
            let next = (0..self.n).find(|&k| !removed[k] && indeg[k] == 0);
            match next {
                Some(k) => {
                    removed[k] = true;
                    order.push(TxnId(k as u32));
                    for (m, d) in indeg.iter_mut().enumerate() {
                        if self.edges[k * self.n + m] {
                            *d -= 1;
                        }
                    }
                }
                None => break,
            }
        }
        if order.len() == self.n {
            SerializationVerdict::Serializable(order)
        } else {
            SerializationVerdict::Cyclic(self.find_cycle(&removed))
        }
    }

    /// Locate a cycle among the nodes not removed by Kahn's algorithm.
    fn find_cycle(&self, removed: &[bool]) -> Vec<TxnId> {
        // Every remaining node has nonzero indegree within the remaining
        // set, so walking *predecessors* from any remaining node must
        // revisit one — the revisited stretch, reversed, is a forward cycle.
        let start = (0..self.n)
            .find(|&k| !removed[k])
            .expect("cycle exists when Kahn terminates early");
        let mut path = vec![start];
        let mut seen_at = vec![usize::MAX; self.n];
        seen_at[start] = 0;
        let mut cur = start;
        loop {
            let pred = (0..self.n)
                .find(|&m| !removed[m] && self.edges[m * self.n + cur])
                .expect("remaining nodes have remaining predecessors");
            if seen_at[pred] != usize::MAX {
                let mut cycle: Vec<TxnId> = path[seen_at[pred]..]
                    .iter()
                    .map(|&i| TxnId(i as u32))
                    .collect();
                cycle.reverse();
                return cycle;
            }
            seen_at[pred] = path.len();
            path.push(pred);
            cur = pred;
        }
    }
}

/// Is `h` conflict serializable under `syntax`'s conflict relation?
pub fn is_csr(syntax: &Syntax, h: &Schedule) -> bool {
    ConflictGraph::build(syntax, h).check().is_serializable()
}

/// Conflict-serializability verdict with witness.
pub fn csr_verdict(syntax: &Syntax, h: &Schedule) -> SerializationVerdict {
    ConflictGraph::build(syntax, h).check()
}

/// Is `h` conflict serializable when every read takes effect at its own
/// position and every write at its transaction's final step — the
/// deferred write phase of optimistic concurrency control?
pub fn is_csr_deferred(syntax: &Syntax, h: &Schedule) -> bool {
    let n = syntax.num_txns();
    let steps = h.steps();
    let mut last = vec![0; n];
    for (p, s) in steps.iter().enumerate() {
        last[s.txn.index()] = p;
    }
    // (effective position, transaction, variable, writes)
    let mut events = Vec::with_capacity(2 * steps.len());
    for (p, &s) in steps.iter().enumerate() {
        let syn = syntax.step(s);
        if syn.kind.reads() {
            events.push((p, s.txn, syn.var, false));
        }
        if syn.kind.writes() {
            events.push((last[s.txn.index()], s.txn, syn.var, true));
        }
    }
    // Events sharing a position belong to one transaction, so ties are
    // harmless.
    events.sort_by_key(|e| e.0);
    let mut edges = vec![false; n * n];
    for (k, a) in events.iter().enumerate() {
        for b in &events[k + 1..] {
            if a.1 != b.1 && a.2 == b.2 && (a.3 || b.3) {
                edges[a.1.index() * n + b.1.index()] = true;
            }
        }
    }
    ConflictGraph { n, edges }.check().is_serializable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_schedules;
    use ccopt_model::ids::StepId;
    use ccopt_model::syntax::SyntaxBuilder;
    use ccopt_model::systems;

    fn sid(t: u32, j: u32) -> StepId {
        StepId::new(t, j)
    }

    #[test]
    fn fig1_interleaving_is_cyclic() {
        let sys = systems::fig1();
        let h = Schedule::new_unchecked(vec![sid(0, 0), sid(1, 0), sid(0, 1)]);
        let g = ConflictGraph::build(&sys.syntax, &h);
        assert!(g.has_edge(TxnId(0), TxnId(1)));
        assert!(g.has_edge(TxnId(1), TxnId(0)));
        let verdict = g.check();
        assert!(!verdict.is_serializable());
        match verdict {
            SerializationVerdict::Cyclic(c) => assert_eq!(c.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn serial_schedules_are_always_csr() {
        let sys = systems::banking();
        for s in Schedule::all_serials(&sys.format()) {
            let v = csr_verdict(&sys.syntax, &s);
            assert!(v.is_serializable(), "serial schedule {s} not CSR");
        }
    }

    #[test]
    fn topological_witness_respects_edges() {
        let sys = systems::banking();
        for h in all_schedules(&sys.format()).into_iter().take(200) {
            let g = ConflictGraph::build(&sys.syntax, &h);
            if let SerializationVerdict::Serializable(order) = g.check() {
                let pos: std::collections::HashMap<_, _> =
                    order.iter().enumerate().map(|(p, &t)| (t, p)).collect();
                for (a, b) in g.edges() {
                    assert!(pos[&a] < pos[&b], "edge {a}->{b} violated by witness");
                }
            }
        }
    }

    #[test]
    fn read_read_steps_produce_no_edge() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.read("x"))
            .txn("T2", |t| t.read("x"))
            .build();
        let h = Schedule::new_unchecked(vec![sid(0, 0), sid(1, 0)]);
        let g = ConflictGraph::build(&syn, &h);
        assert!(g.edges().is_empty());
        assert!(g.check().is_serializable());
    }

    #[test]
    fn three_cycle_is_detected() {
        // T1: x y, T2: y z, T3: z x, interleaved so edges 1->2->3->1.
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("y"))
            .txn("T2", |t| t.update("y").update("z"))
            .txn("T3", |t| t.update("z").update("x"))
            .build();
        // Order: T1(y@2 after T2 reads y? construct manually):
        // T2,1 (y), T1,1 (x), T1,2 (y) -> edge 2->1 on y;
        // T3,1 (z), T2,2 (z) -> edge 3->2;
        // T3,2 (x) after T1,1 (x) -> edge 1->3.
        let h = Schedule::new_unchecked(vec![
            sid(1, 0),
            sid(0, 0),
            sid(0, 1),
            sid(2, 0),
            sid(1, 1),
            sid(2, 1),
        ]);
        assert!(h.is_legal(&[2, 2, 2]));
        let g = ConflictGraph::build(&syn, &h);
        assert!(g.has_edge(TxnId(1), TxnId(0)));
        assert!(g.has_edge(TxnId(2), TxnId(1)));
        assert!(g.has_edge(TxnId(0), TxnId(2)));
        let verdict = g.check();
        assert!(!verdict.is_serializable());
        if let SerializationVerdict::Cyclic(c) = verdict {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn deferred_writes_serialize_an_in_place_cycle() {
        // An OCC fixpoint: T1 = u1 w1 r1, T2 = w0, T3 = w2 r1. In place,
        // T1's update of v1 precedes T3's read (T1 -> T3) and T3's read
        // precedes T1's write (T3 -> T1). With T1's writes at its final
        // step only T3 -> T1 remains.
        let syn = SyntaxBuilder::new()
            .vars(["v0", "v1", "v2"])
            .txn("T1", |t| t.update("v1").write("v1").read("v1"))
            .txn("T2", |t| t.write("v0"))
            .txn("T3", |t| t.write("v2").read("v1"))
            .build();
        let h = Schedule::new_unchecked(vec![
            sid(0, 0),
            sid(1, 0),
            sid(2, 0),
            sid(2, 1),
            sid(0, 1),
            sid(0, 2),
        ]);
        assert!(!is_csr(&syn, &h));
        assert!(is_csr_deferred(&syn, &h));
    }

    #[test]
    fn csr_count_on_fig3_pair() {
        // T1: x y; T2: y x. |H| = 6; the two serials plus... every
        // interleaving conflicts on both variables, so only the serials and
        // interleavings with one-directional conflicts survive.
        let sys = systems::fig3_pair();
        let all = all_schedules(&sys.format());
        let csr: Vec<_> = all.iter().filter(|h| is_csr(&sys.syntax, h)).collect();
        // Manual analysis: schedules where all conflicts point one way.
        // (T11 T12 T21 T22), (T21 T22 T11 T12) serial;
        // (T11 T21 T12 T22): T1->T2 on... T11(x) before T22(x): 1->2;
        //   T21(y) before T12(y): 2->1 — cyclic.
        // By symmetry only the 2 serials are CSR here.
        assert_eq!(csr.len(), 2);
        for h in csr {
            assert!(h.is_serial());
        }
    }
}
