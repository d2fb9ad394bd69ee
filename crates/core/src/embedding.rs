//! The [`Embedding`] container and the [`Embedder`] trait implemented by
//! every embedding method in the workspace (NRP, ApproxPPR and all
//! baselines).

use std::io::{BufWriter, Write};
use std::path::Path;

use nrp_graph::{Graph, NodeId};
use nrp_linalg::DenseMatrix;

use crate::context::{EmbedContext, EmbedOutput};
use crate::{NrpError, Result};

mod json;

/// A set of node embeddings.
///
/// Following the paper (Section 3.1), every node `v` owns a **forward**
/// vector `X_v` and a **backward** vector `Y_v`, each of length `k/2`, so
/// that the directed proximity from `u` to `v` is scored as `X_u · Y_v`.
/// Methods that natively produce a single vector per node (DeepWalk, VERSE,
/// …) store it as both the forward and backward block, which reduces the
/// inner-product score to the usual symmetric similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    forward: DenseMatrix,
    backward: DenseMatrix,
    method: String,
}

impl Embedding {
    /// Wraps forward/backward matrices produced by an embedder.
    ///
    /// Both must have the same shape (`n x k/2`).
    pub fn new(
        forward: DenseMatrix,
        backward: DenseMatrix,
        method: impl Into<String>,
    ) -> Result<Self> {
        if forward.shape() != backward.shape() {
            return Err(NrpError::InvalidParameter(format!(
                "forward shape {:?} != backward shape {:?}",
                forward.shape(),
                backward.shape()
            )));
        }
        Ok(Self {
            forward,
            backward,
            method: method.into(),
        })
    }

    /// Builds a "symmetric" embedding where forward and backward blocks are
    /// the same single vector per node.
    pub fn symmetric(vectors: DenseMatrix, method: impl Into<String>) -> Self {
        Self {
            backward: vectors.clone(),
            forward: vectors,
            method: method.into(),
        }
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.forward.rows()
    }

    /// The per-side dimensionality `k/2`.
    pub fn half_dimension(&self) -> usize {
        self.forward.cols()
    }

    /// The total per-node space budget `k` (forward + backward).
    pub fn dimension(&self) -> usize {
        2 * self.forward.cols()
    }

    /// Name of the method that produced this embedding.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The forward embedding matrix `X` (`n x k/2`).
    pub fn forward(&self) -> &DenseMatrix {
        &self.forward
    }

    /// The backward embedding matrix `Y` (`n x k/2`).
    pub fn backward(&self) -> &DenseMatrix {
        &self.backward
    }

    /// Forward vector of node `u`.
    pub fn forward_vector(&self, u: NodeId) -> &[f64] {
        self.forward.row(u as usize)
    }

    /// Backward vector of node `v`.
    pub fn backward_vector(&self, v: NodeId) -> &[f64] {
        self.backward.row(v as usize)
    }

    /// Directed proximity score `X_u · Y_v` — the quantity that approximates
    /// `π(u, v)` (ApproxPPR) or `w⃗_u π(u, v) w⃖_v` (NRP).
    pub fn score(&self, u: NodeId, v: NodeId) -> f64 {
        nrp_linalg::matrix::dot(self.forward_vector(u), self.backward_vector(v))
    }

    /// Symmetric score `X_u·Y_v + X_v·Y_u`, useful on undirected graphs.
    pub fn symmetric_score(&self, u: NodeId, v: NodeId) -> f64 {
        self.score(u, v) + self.score(v, u)
    }

    /// Per-node feature vector for node classification: the L2-normalized
    /// forward vector concatenated with the L2-normalized backward vector,
    /// exactly the representation the paper feeds to the one-vs-rest
    /// classifier (Section 5.4).
    pub fn classification_features(&self, u: NodeId) -> Vec<f64> {
        let mut features = Vec::with_capacity(self.dimension());
        features.extend_from_slice(&normalized(self.forward_vector(u)));
        features.extend_from_slice(&normalized(self.backward_vector(u)));
        features
    }

    /// True if every stored value is finite.
    pub fn is_finite(&self) -> bool {
        self.forward.is_finite() && self.backward.is_finite()
    }

    /// Serializes the embedding to the JSON document [`Embedding::from_json`]
    /// reads: one object with the keys `method`, `num_nodes`,
    /// `half_dimension`, `forward` and `backward`, the two matrices as flat
    /// row-major arrays.  Every finite entry is written in Rust's shortest
    /// round-trip form, so the document reads back bit for bit; NaN and
    /// infinities are written as `null`, which the reader rejects.
    pub fn to_json(&self) -> Result<String> {
        let mut out = Vec::new();
        json::write_document(self, &mut out)?;
        String::from_utf8(out).map_err(|e| NrpError::Serialization(e.to_string()))
    }

    /// Parses a document written by [`Embedding::to_json`].
    ///
    /// **Accepted:** a single JSON object, with optional whitespace around
    /// any token, holding each of `method` (a string), `num_nodes` and
    /// `half_dimension` (non-negative integers; an integral float such as
    /// `3.0` also counts), `forward` and `backward` (flat arrays of
    /// `num_nodes × half_dimension` numbers) exactly once, in any order.
    /// Array entries may be integers or floats with an optional exponent;
    /// an integer `-0` reads as `+0.0`.
    ///
    /// **Rejected**, each as [`NrpError::Serialization`] naming the byte
    /// offset: malformed JSON, trailing bytes, unknown or repeated keys, a
    /// missing key, a non-number in an array (`null`, strings, nested
    /// arrays), a negative or fractional size, and arrays whose length is
    /// not `num_nodes × half_dimension` (or whose product overflows).
    ///
    /// **Memory:** the two factor matrices, sized from the array text rather
    /// than from the header, next to the caller's document.  `forward` is
    /// parsed on the calling thread and `backward` on one scoped thread
    /// (inline if the thread cannot be spawned); the result does not depend
    /// on which.
    pub fn from_json(json: &str) -> Result<Self> {
        json::parse_document(json.as_bytes())
    }

    /// Writes the embedding to a file in the [`Embedding::to_json`] format,
    /// streaming the numbers without building the document in memory.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let file = std::fs::File::create(path)?;
        let mut writer = BufWriter::new(file);
        json::write_document(self, &mut writer)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads an embedding previously written by [`Embedding::save`].
    ///
    /// Reads the file once into memory and parses it as
    /// [`Embedding::from_json`] does (same format, same rejections; bytes
    /// that are not UTF-8 inside the `method` string are rejected too).
    /// Peak memory is the file plus the two factor matrices at 8 bytes per
    /// entry: a 50,000-node, 128-dimension embedding is a 126 MB file and
    /// 51 MB of factors.  The file buffer is freed before this returns.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        json::parse_document(&bytes)
    }
}

fn normalized(v: &[f64]) -> Vec<f64> {
    let norm = nrp_linalg::matrix::norm2(v);
    if norm > 0.0 {
        v.iter().map(|x| x / norm).collect()
    } else {
        v.to_vec()
    }
}

/// A method that maps a graph to node embeddings (interface v2).
///
/// Every method in the workspace — NRP, ApproxPPR and the nine baselines —
/// implements this trait, so evaluation tasks and benchmark harnesses drive
/// them uniformly.  A run takes an [`EmbedContext`] (seed override, thread
/// budget, cancellation flag) and returns an [`EmbedOutput`] (the
/// [`Embedding`] plus per-stage wall-clock timings and the effective
/// parameters echoed as a [`MethodConfig`](crate::config::MethodConfig)).
///
/// Callers that only need the vectors under default execution settings can
/// use the provided [`Embedder::embed_default`].
pub trait Embedder {
    /// Human-readable method name (used in benchmark tables and as the
    /// `method` tag of the method's `MethodConfig` variant).
    fn name(&self) -> &'static str;

    /// The configured parameters as declarative data.
    fn config(&self) -> crate::config::MethodConfig;

    /// Computes embeddings for every node of `graph` under `ctx`.
    fn embed(&self, graph: &Graph, ctx: &EmbedContext) -> Result<EmbedOutput>;

    /// Convenience wrapper: runs [`Embedder::embed`] with a default context
    /// and returns just the embedding.
    fn embed_default(&self, graph: &Graph) -> Result<Embedding> {
        Ok(self
            .embed(graph, &EmbedContext::default())?
            .into_embedding())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embedding {
        let forward = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        let backward = DenseMatrix::from_rows(&[&[0.5, 0.5], &[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        Embedding::new(forward, backward, "test").unwrap()
    }

    #[test]
    fn dimensions() {
        let e = sample();
        assert_eq!(e.num_nodes(), 3);
        assert_eq!(e.half_dimension(), 2);
        assert_eq!(e.dimension(), 4);
        assert_eq!(e.method(), "test");
    }

    #[test]
    fn score_is_forward_backward_inner_product() {
        let e = sample();
        assert_eq!(e.score(0, 1), 1.0);
        assert_eq!(e.score(1, 0), 1.0);
        assert_eq!(e.score(0, 2), 0.0);
        assert_eq!(e.symmetric_score(0, 2), e.score(0, 2) + e.score(2, 0));
    }

    #[test]
    fn directed_scores_are_asymmetric() {
        let e = sample();
        assert_ne!(e.score(1, 2), e.score(2, 1));
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let forward = DenseMatrix::zeros(3, 2);
        let backward = DenseMatrix::zeros(3, 3);
        assert!(Embedding::new(forward, backward, "bad").is_err());
    }

    #[test]
    fn symmetric_embedding_scores_symmetrically() {
        let vectors = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let e = Embedding::symmetric(vectors, "sym");
        assert_eq!(e.score(0, 1), e.score(1, 0));
    }

    #[test]
    fn classification_features_are_normalized_concatenation() {
        let e = sample();
        let f = e.classification_features(1);
        assert_eq!(f.len(), 4);
        let forward_norm: f64 = f[..2].iter().map(|x| x * x).sum::<f64>().sqrt();
        let backward_norm: f64 = f[2..].iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((forward_norm - 1.0).abs() < 1e-12);
        assert!((backward_norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_features_stay_zero() {
        let forward = DenseMatrix::zeros(2, 2);
        let backward = DenseMatrix::zeros(2, 2);
        let e = Embedding::new(forward, backward, "zero").unwrap();
        assert_eq!(e.classification_features(0), vec![0.0; 4]);
    }

    #[test]
    fn json_round_trip() {
        let e = sample();
        let json = e.to_json().unwrap();
        let back = Embedding::from_json(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn file_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("embedding.json");
        let e = sample();
        e.save(&path).unwrap();
        let back = Embedding::load(&path).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn corrupted_json_is_rejected() {
        assert!(Embedding::from_json("{not json").is_err());
    }

    #[test]
    fn finiteness_check() {
        let e = sample();
        assert!(e.is_finite());
        let mut forward = DenseMatrix::zeros(1, 1);
        forward.set(0, 0, f64::NAN);
        let bad = Embedding::new(forward, DenseMatrix::zeros(1, 1), "nan").unwrap();
        assert!(!bad.is_finite());
    }
}
