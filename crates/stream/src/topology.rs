//! Stage topology export — the composed pipeline as an analyzable
//! graph.
//!
//! A link knows which parts it chains and in what order; static
//! analysis (p5-lint's link-composition pass) wants exactly that shape,
//! without holding the live stages themselves.  [`Topology`] is the
//! value-type answer: stage names plus directed `upstream → downstream`
//! edges.  Simplex links export a chain; duplex links (two
//! directions through shared devices) export rings by combining
//! topologies with [`Topology::connect`].

/// A pipeline's shape: named stages and directed edges between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Graph name, used as the module name of composition reports.
    pub name: String,
    /// Stage names, in source→sink order for linear pipelines.
    pub stages: Vec<String>,
    /// Directed `(upstream, downstream)` stage-index pairs.
    pub edges: Vec<(usize, usize)>,
}

impl Topology {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// A linear source→sink chain.
    pub fn chain(name: impl Into<String>, stages: Vec<String>) -> Self {
        let edges = (1..stages.len()).map(|i| (i - 1, i)).collect();
        Self {
            name: name.into(),
            stages,
            edges,
        }
    }

    /// Append a stage, returning its index.
    pub fn push_stage(&mut self, name: impl Into<String>) -> usize {
        self.stages.push(name.into());
        self.stages.len() - 1
    }

    /// Add a directed edge.  Out-of-range indices are ignored rather
    /// than panicking — the analysis side validates shape.
    pub fn connect(&mut self, upstream: usize, downstream: usize) {
        if upstream < self.stages.len() && downstream < self.stages.len() {
            self.edges.push((upstream, downstream));
        }
    }

    /// Splice another topology in, returning the index offset its
    /// stages received.
    pub fn extend_with(&mut self, other: &Topology) -> usize {
        let offset = self.stages.len();
        self.stages.extend(other.stages.iter().cloned());
        self.edges
            .extend(other.edges.iter().map(|&(a, b)| (a + offset, b + offset)));
        offset
    }

    /// Is this a simple source→sink chain?
    pub fn is_linear(&self) -> bool {
        self.edges.len() + 1 == self.stages.len().max(1)
            && self
                .edges
                .iter()
                .enumerate()
                .all(|(i, &(a, b))| a == i && b == i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_linear() {
        let t = Topology::chain("c", vec!["a".into(), "b".into(), "c".into()]);
        assert!(t.is_linear());
        assert_eq!(t.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn rings_are_not_linear() {
        let mut t = Topology::chain("r", vec!["a".into(), "b".into()]);
        t.connect(1, 0);
        assert!(!t.is_linear());
    }

    #[test]
    fn extend_offsets_edges() {
        let mut t = Topology::chain("x", vec!["a".into(), "b".into()]);
        let other = Topology::chain("y", vec!["c".into(), "d".into()]);
        let off = t.extend_with(&other);
        assert_eq!(off, 2);
        assert_eq!(t.edges, vec![(0, 1), (2, 3)]);
        t.connect(1, 2);
        t.connect(3, 0);
        assert!(!t.is_linear());
        assert_eq!(t.stages.len(), 4);
    }

    #[test]
    fn out_of_range_connects_are_dropped() {
        let mut t = Topology::new("empty");
        t.connect(0, 1);
        assert!(t.edges.is_empty());
    }
}
