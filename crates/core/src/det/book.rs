//! Replicated moat bookkeeping: the partition of terminals into moats,
//! label classes and activity, maintained identically by every node from
//! the globally known labels and merge sets.

use dsf_graph::union_find::UnionFind;
use dsf_graph::NodeId;
use dsf_steiner::Instance;

/// Replicated moat bookkeeping: the partition of terminals into moats,
/// label classes, and activity — the state every node maintains from the
/// globally known labels and merge sets.
#[derive(Debug, Clone)]
pub(crate) struct MoatBook {
    pub(crate) moats: UnionFind,
    labels: UnionFind,
    /// Terminals per label-class root.
    total: Vec<usize>,
    /// Activity per moat root.
    act: Vec<bool>,
    /// Original label index per terminal.
    term_label: Vec<usize>,
}

impl MoatBook {
    pub(crate) fn new(minimal: &Instance, terms: &[NodeId]) -> Self {
        let k = minimal.k();
        let mut total = vec![0usize; k];
        let mut term_label = vec![0usize; terms.len()];
        for (i, &t) in terms.iter().enumerate() {
            let l = minimal.label(t).expect("terminal").idx();
            term_label[i] = l;
            total[l] += 1;
        }
        MoatBook {
            moats: UnionFind::new(terms.len()),
            labels: UnionFind::new(k),
            total,
            act: vec![true; terms.len()],
            term_label,
        }
    }

    pub(crate) fn moat_active(&mut self, term: usize) -> bool {
        let r = self.moats.find(term);
        self.act[r]
    }

    pub(crate) fn active_moats(&mut self) -> usize {
        (0..self.act.len())
            .filter(|&i| self.moats.find(i) == i && self.act[i])
            .count()
    }

    /// Applies a merge; returns `(involved_inactive, new_moat_active)`.
    ///
    /// Activity handling mirrors [`dsf_steiner::moat`]'s `Grower::merge`:
    /// Algorithm 1 re-evaluates the new moat at once
    /// (`defer_deactivation = false`); Algorithm 2 (line 33) keeps merged
    /// moats active until the next checkpoint.
    pub(crate) fn merge(&mut self, a: usize, b: usize, defer_deactivation: bool) -> (bool, bool) {
        let (ra, rb) = (self.moats.find(a), self.moats.find(b));
        assert_ne!(ra, rb, "cycle-closing merge reached bookkeeping");
        let involved_inactive = !self.act[ra] || !self.act[rb];
        let (la, lb) = (
            self.labels.find(self.term_label[a]),
            self.labels.find(self.term_label[b]),
        );
        if la != lb {
            self.labels.union(la, lb);
            let lr = self.labels.find(la);
            self.total[lr] = self.total[la] + self.total[lb];
        }
        let lr = self.labels.find(la);
        self.moats.union(a, b);
        let mr = self.moats.find(a);
        let new_active = defer_deactivation || self.moats.set_size(mr) != self.total[lr];
        self.act[mr] = new_active;
        (involved_inactive, new_active)
    }

    /// Re-evaluates every moat's activity (Algorithm 2's checkpoint,
    /// lines 20-25): inactive iff the moat holds its whole label class.
    pub(crate) fn checkpoint_activities(&mut self) {
        let n = self.act.len();
        for i in 0..n {
            if self.moats.find(i) == i {
                let lr = self.labels.find(self.term_label[i]);
                self.act[i] = self.moats.set_size(i) != self.total[lr];
            }
        }
    }
}
