//! Computational DAGs (paper §2.3), built by executing loop nests.
//!
//! Every write to an array element creates a *new version* of that element,
//! and every version is a distinct vertex — the representation Figure 3
//! illustrates for LU with N = 4. Edges run from each input version to the
//! output version a statement produces.

use std::collections::HashMap;

/// Vertex id.
pub type NodeId = usize;

/// A computational DAG with vertex labels.
#[derive(Debug, Clone, Default)]
pub struct Cdag {
    /// Predecessors of each vertex.
    pub preds: Vec<Vec<NodeId>>,
    /// Successors of each vertex.
    pub succs: Vec<Vec<NodeId>>,
    /// Debug labels: `(array, indices, version)`.
    pub labels: Vec<(String, Vec<usize>, usize)>,
}

impl Cdag {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Vertices with no incoming edges (graph inputs: initial element
    /// versions).
    pub fn inputs(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&v| self.preds[v].is_empty())
            .collect()
    }

    /// Vertices with no outgoing edges (graph outputs).
    pub fn outputs(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&v| self.succs[v].is_empty())
            .collect()
    }

    /// Non-input vertices (the computations).
    pub(crate) fn compute_vertices(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&v| !self.preds[v].is_empty())
            .collect()
    }

    /// Out-degree of a vertex.
    #[cfg(test)]
    pub(crate) fn out_degree(&self, v: NodeId) -> usize {
        self.succs[v].len()
    }

    /// A topological order (inputs first).
    ///
    /// # Panics
    /// If the graph has a cycle (cannot happen for versioned builds).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut stack: Vec<NodeId> = (0..self.len()).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(v) = stack.pop() {
            order.push(v);
            for &s in &self.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        assert_eq!(order.len(), self.len(), "cDAG has a cycle");
        order
    }

    fn add_vertex(&mut self, label: (String, Vec<usize>, usize)) -> NodeId {
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.labels.push(label);
        self.preds.len() - 1
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.preds[to].push(from);
        self.succs[from].push(to);
    }
}

/// Incremental cDAG builder: tracks the live version of every array element
/// and materializes new vertices on writes.
#[derive(Debug, Default)]
pub struct Builder {
    graph: Cdag,
    /// `(array, indices)` → (vertex of newest version, version number).
    live: HashMap<(String, Vec<usize>), (NodeId, usize)>,
}

impl Builder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The vertex currently holding `array[idx]`, creating the initial
    /// (input) version if the element was never touched.
    pub fn read(&mut self, array: &str, idx: &[usize]) -> NodeId {
        let key = (array.to_string(), idx.to_vec());
        if let Some(&(v, _)) = self.live.get(&key) {
            return v;
        }
        let v = self.graph.add_vertex((array.to_string(), idx.to_vec(), 0));
        self.live.insert(key, (v, 0));
        v
    }

    /// Execute one statement instance: read every input (possibly creating
    /// initial versions), then produce a new version of the output element
    /// with edges from all inputs. Returns the new vertex.
    pub fn compute(&mut self, output: (&str, &[usize]), inputs: &[(&str, &[usize])]) -> NodeId {
        let in_nodes: Vec<NodeId> = inputs.iter().map(|(a, i)| self.read(a, i)).collect();
        let key = (output.0.to_string(), output.1.to_vec());
        let version = self.live.get(&key).map_or(0, |&(_, ver)| ver + 1);
        let v = self
            .graph
            .add_vertex((output.0.to_string(), output.1.to_vec(), version));
        for u in in_nodes {
            self.graph.add_edge(u, v);
        }
        self.live.insert(key, (v, version));
        v
    }

    /// Finish and return the graph.
    pub fn build(self) -> Cdag {
        self.graph
    }
}

/// The LU cDAG of Figure 3 for an `n × n` matrix (no pivoting).
pub fn lu_cdag(n: usize) -> Cdag {
    let mut b = Builder::new();
    for k in 0..n {
        for i in k + 1..n {
            // S1: A[i,k] ← A[i,k] / A[k,k]
            b.compute(("A", &[i, k]), &[("A", &[i, k]), ("A", &[k, k])]);
        }
        for i in k + 1..n {
            for j in k + 1..n {
                // S2: A[i,j] ← A[i,j] − A[i,k]·A[k,j]
                b.compute(
                    ("A", &[i, j]),
                    &[("A", &[i, j]), ("A", &[i, k]), ("A", &[k, j])],
                );
            }
        }
    }
    b.build()
}

/// The Cholesky cDAG of Listing 1 for an `n × n` matrix.
pub fn cholesky_cdag(n: usize) -> Cdag {
    let mut b = Builder::new();
    for k in 0..n {
        // S1: L[k,k] ← sqrt(L[k,k])
        b.compute(("L", &[k, k]), &[("L", &[k, k])]);
        for i in k + 1..n {
            // S2: L[i,k] ← L[i,k] / L[k,k]
            b.compute(("L", &[i, k]), &[("L", &[i, k]), ("L", &[k, k])]);
        }
        for i in k + 1..n {
            for j in k + 1..=i {
                // S3: L[i,j] ← L[i,j] − L[i,k]·L[j,k]
                b.compute(
                    ("L", &[i, j]),
                    &[("L", &[i, j]), ("L", &[i, k]), ("L", &[j, k])],
                );
            }
        }
    }
    b.build()
}

/// The classic matrix-multiplication cDAG (`C += A·B`, `n × n`).
pub fn mmm_cdag(n: usize) -> Cdag {
    let mut b = Builder::new();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                b.compute(
                    ("C", &[i, j]),
                    &[("C", &[i, j]), ("A", &[i, k]), ("B", &[k, j])],
                );
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_create_distinct_vertices() {
        let mut b = Builder::new();
        let v0 = b.read("A", &[0]);
        let v1 = b.compute(("A", &[0]), &[("A", &[0])]);
        let v2 = b.compute(("A", &[0]), &[("A", &[0])]);
        let g = b.build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.labels[v0].2, 0);
        assert_eq!(g.labels[v1].2, 1);
        assert_eq!(g.labels[v2].2, 2);
        assert_eq!(g.preds[v2], vec![v1], "reads see the newest version");
    }

    #[test]
    fn lu_cdag_counts_match_the_paper() {
        // |V1| = N(N-1)/2 S1-vertices, |V2| = Σ_k (N-k-1)² S2-vertices,
        // plus N² input vertices.
        for n in 2..7 {
            let g = lu_cdag(n);
            let v1 = n * (n - 1) / 2;
            let v2: usize = (0..n).map(|k| (n - k - 1) * (n - k - 1)).sum();
            assert_eq!(g.inputs().len(), n * n, "n={n}");
            assert_eq!(g.compute_vertices().len(), v1 + v2, "n={n}");
        }
    }

    #[test]
    fn cholesky_cdag_counts() {
        for n in 2..7 {
            let g = cholesky_cdag(n);
            // S1: N, S2: N(N-1)/2, S3: Σ_k Σ_{i>k} (i-k).
            let v1 = n;
            let v2 = n * (n - 1) / 2;
            let v3: usize = (0..n)
                .map(|k| (k + 1..n).map(|i| i - k).sum::<usize>())
                .sum();
            // Inputs: lower triangle incl. diagonal.
            assert_eq!(g.inputs().len(), n * (n + 1) / 2, "n={n}");
            assert_eq!(g.compute_vertices().len(), v1 + v2 + v3, "n={n}");
        }
    }

    #[test]
    fn mmm_cdag_counts() {
        let n = 4;
        let g = mmm_cdag(n);
        assert_eq!(g.compute_vertices().len(), n * n * n);
        assert_eq!(g.inputs().len(), 3 * n * n, "A, B and C⁰ are inputs");
    }

    #[test]
    fn lu_figure3_n4_has_the_pictured_structure() {
        let g = lu_cdag(4);
        // Figure 3's cDAG: the final A[3,3] vertex depends on a chain
        // through all three elimination steps — depth ≥ 3 statements.
        let topo = g.topo_order();
        assert_eq!(topo.len(), g.len());
        // Every S2 vertex has exactly 3 predecessors; S1 vertices have 2.
        for v in g.compute_vertices() {
            let d = g.preds[v].len();
            assert!(d == 2 || d == 3, "unexpected in-degree {d}");
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = lu_cdag(5);
        let topo = g.topo_order();
        let mut position = vec![0; g.len()];
        for (i, &v) in topo.iter().enumerate() {
            position[v] = i;
        }
        for v in 0..g.len() {
            for &p in &g.preds[v] {
                assert!(position[p] < position[v]);
            }
        }
    }
}
