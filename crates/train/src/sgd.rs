//! SGD with momentum on flat parameter vectors.

/// SGD with classical momentum.
///
/// Operating on flat `Vec<f32>` parameter/gradient vectors (the
/// [`crate::mlp::Mlp::to_flat`] layout) keeps the optimizer independent
/// of the model structure — the same shape the parameter server works
/// with.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimizer for `param_count` parameters.
    pub fn new(param_count: usize, lr: f32, momentum: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            velocity: vec![0.0; param_count],
        }
    }

    /// Computes the update *delta* for a gradient (to be added to the
    /// weights), updating internal momentum state.
    ///
    /// Returned delta is `-lr * v` where `v = momentum * v + grad` —
    /// callers apply it with `w += delta`, and the same delta is what a
    /// WSP wave aggregates and pushes.
    ///
    /// # Panics
    ///
    /// Panics if `grad` length differs from the optimizer's size.
    pub fn delta(&mut self, grad: &[f32]) -> Vec<f32> {
        assert_eq!(grad.len(), self.velocity.len(), "gradient size mismatch");
        let mut out = Vec::with_capacity(grad.len());
        for (v, &g) in self.velocity.iter_mut().zip(grad) {
            *v = self.momentum * *v + g;
            out.push(-self.lr * *v);
        }
        out
    }

    /// The momentum state.
    pub(crate) fn velocity(&self) -> &[f32] {
        &self.velocity
    }
}

/// Adds `delta` into `w` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn apply_delta(w: &mut [f32], delta: &[f32]) {
    assert_eq!(w.len(), delta.len(), "delta size mismatch");
    for (wi, &d) in w.iter_mut().zip(delta) {
        *wi += d;
    }
}

/// Element-wise accumulation `acc += x`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn accumulate(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "accumulator size mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_delta() {
        let mut opt = Sgd::new(3, 0.1, 0.0);
        let d = opt.delta(&[1.0, -2.0, 0.0]);
        assert_eq!(d, vec![-0.1, 0.2, 0.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1, 1.0, 0.9);
        let d1 = opt.delta(&[1.0]);
        assert_eq!(d1, vec![-1.0]);
        let d2 = opt.delta(&[1.0]);
        // v = 0.9 * 1 + 1 = 1.9.
        assert!((d2[0] + 1.9).abs() < 1e-6);
    }

    #[test]
    fn apply_and_accumulate() {
        let mut w = vec![1.0, 2.0];
        apply_delta(&mut w, &[0.5, -1.0]);
        assert_eq!(w, vec![1.5, 1.0]);
        let mut acc = vec![0.0, 0.0];
        accumulate(&mut acc, &[1.0, 2.0]);
        accumulate(&mut acc, &[0.5, 0.5]);
        assert_eq!(acc, vec![1.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "gradient size mismatch")]
    fn size_mismatch_rejected() {
        let mut opt = Sgd::new(2, 0.1, 0.0);
        let _ = opt.delta(&[1.0]);
    }
}
