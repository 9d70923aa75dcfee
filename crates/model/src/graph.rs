//! Sequential model graphs.
//!
//! HetPipe (like PipeDream and GPipe) partitions the model into `k`
//! contiguous ranges of layers, so the graph is an ordered list of
//! [`Layer`] units plus the input activation size (what stage 1
//! receives from the data loader).

use crate::layer::Layer;

/// A DNN model as an ordered list of partitionable layer units.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    /// Model name (e.g. `"VGG-19"`).
    pub name: String,
    /// Minibatch size the profile was built for.
    pub batch_size: usize,
    /// Input bytes for one minibatch (images entering stage 1).
    pub input_bytes: u64,
    layers: Vec<Layer>,
    /// Prefix sums of `param_bytes` (`len() + 1` entries): layer-range
    /// byte totals are the partition DP's innermost memory probe, so
    /// they must be O(1) range queries rather than per-call
    /// re-summations.
    pub(crate) prefix_param: Vec<u64>,
    /// Prefix sums of `stored_bytes` (`len() + 1` entries).
    pub(crate) prefix_stored: Vec<u64>,
}

impl ModelGraph {
    /// Creates a graph from parts.
    pub fn new(
        name: impl Into<String>,
        batch_size: usize,
        input_bytes: u64,
        layers: Vec<Layer>,
    ) -> Self {
        let mut prefix_param = Vec::with_capacity(layers.len() + 1);
        let mut prefix_stored = Vec::with_capacity(layers.len() + 1);
        let (mut params, mut stored) = (0u64, 0u64);
        prefix_param.push(0);
        prefix_stored.push(0);
        for l in &layers {
            params += l.param_bytes;
            stored += l.stored_bytes;
            prefix_param.push(params);
            prefix_stored.push(stored);
        }
        ModelGraph {
            name: name.into(),
            batch_size,
            input_bytes,
            layers,
            prefix_param,
            prefix_stored,
        }
    }

    /// The layer units in execution order.
    #[inline]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layer units.
    #[inline]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable-parameter bytes of the model.
    ///
    /// The paper quotes 548 MB for VGG-19 and 230 MB for ResNet-152
    /// (Section 8.3); the zoo tests pin these totals.
    pub fn total_param_bytes(&self) -> u64 {
        self.param_bytes_in(0..self.layers.len())
    }

    /// Total FLOPs of one training step (forward + backward) per minibatch.
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.total_flops()).sum()
    }

    /// Total bytes held for backward across the whole model (one
    /// in-flight minibatch).
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes_in(0..self.layers.len())
    }

    /// Trainable-parameter bytes of the contiguous layer range — an
    /// O(1) prefix-sum range query (the memory model's per-stage probe
    /// sits in the partition DP's innermost loop).
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    #[inline]
    pub fn param_bytes_in(&self, range: std::ops::Range<usize>) -> u64 {
        self.prefix_param[range.end] - self.prefix_param[range.start]
    }

    /// Stored-activation bytes (held for backward) of the contiguous
    /// layer range for one in-flight minibatch — an O(1) prefix-sum
    /// range query.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    #[inline]
    pub fn stored_bytes_in(&self, range: std::ops::Range<usize>) -> u64 {
        self.prefix_stored[range.end] - self.prefix_stored[range.start]
    }

    /// The activation bytes crossing the boundary after layer `i`
    /// (i.e. between layers `i` and `i + 1`).
    ///
    /// For `i == len() - 1` this is the final output (loss/labels),
    /// which never crosses a pipeline boundary.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn boundary_bytes(&self, i: usize) -> u64 {
        self.layers[i].activation_bytes
    }

    /// The input-activation bytes of layer `i`: the model input for
    /// `i == 0`, otherwise the output of layer `i - 1`.
    #[inline]
    pub fn input_bytes_of(&self, i: usize) -> u64 {
        if i == 0 {
            self.input_bytes
        } else {
            self.layers[i - 1].activation_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn tiny() -> ModelGraph {
        let mk = |name: &str, act: u64, params: u64| Layer {
            name: name.into(),
            kind: LayerKind::Conv2d,
            param_bytes: params,
            activation_bytes: act,
            stored_bytes: act,
            fwd_flops: 10.0,
            bwd_flops: 20.0,
            membound_bytes: 0,
            kernels: 1,
        };
        ModelGraph::new(
            "tiny",
            8,
            100,
            vec![mk("a", 50, 4), mk("b", 30, 8), mk("c", 10, 12)],
        )
    }

    #[test]
    fn totals() {
        let g = tiny();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.total_param_bytes(), 24);
        assert_eq!(g.total_flops(), 90.0);
        assert_eq!(g.total_stored_bytes(), 90);
    }

    #[test]
    fn range_queries_match_direct_sums() {
        let g = tiny();
        for start in 0..=g.len() {
            for end in start..=g.len() {
                let params: u64 = g.layers()[start..end].iter().map(|l| l.param_bytes).sum();
                let stored: u64 = g.layers()[start..end].iter().map(|l| l.stored_bytes).sum();
                assert_eq!(g.param_bytes_in(start..end), params, "{start}..{end}");
                assert_eq!(g.stored_bytes_in(start..end), stored, "{start}..{end}");
            }
        }
    }

    #[test]
    fn boundaries() {
        let g = tiny();
        assert_eq!(g.input_bytes_of(0), 100);
        assert_eq!(g.input_bytes_of(1), 50);
        assert_eq!(g.boundary_bytes(1), 30);
        assert_eq!(g.input_bytes_of(2), 30);
    }
}
