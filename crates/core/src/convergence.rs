//! Composing throughput with statistical efficiency.
//!
//! Figures 5 and 6 of the paper plot top-1 accuracy against wall-clock
//! time. That curve factors into two effects this reproduction measures
//! separately:
//!
//! 1. **Throughput** — minibatch updates per second under a given
//!    configuration (from the discrete-event simulator).
//! 2. **Statistical efficiency** — accuracy as a function of the
//!    *number of updates* under a given staleness regime (from the real
//!    trainer in `hetpipe-train`, which produces genuinely stale
//!    gradients).
//!
//! `accuracy(t) = curve(throughput × t)` composes the two, preserving
//! both the paper's "HetPipe finishes more minibatches per hour" and
//! "higher staleness costs statistical efficiency" effects.

/// Accuracy as a function of cumulative minibatch updates.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCurve {
    /// Cumulative update counts (strictly increasing).
    pub steps: Vec<u64>,
    /// Accuracy at each step count (same length as `steps`).
    pub accuracy: Vec<f64>,
}

impl AccuracyCurve {
    /// Creates a curve.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length, are empty, or steps
    /// are not strictly increasing.
    pub fn new(steps: Vec<u64>, accuracy: Vec<f64>) -> Self {
        assert_eq!(steps.len(), accuracy.len(), "lengths must match");
        assert!(!steps.is_empty(), "curve must have at least one point");
        assert!(
            steps.windows(2).all(|w| w[0] < w[1]),
            "steps must be strictly increasing"
        );
        AccuracyCurve { steps, accuracy }
    }

    /// Accuracy after `n` updates (linear interpolation; clamps at the
    /// ends).
    pub fn at(&self, n: f64) -> f64 {
        let steps = &self.steps;
        if n <= steps[0] as f64 {
            return self.accuracy[0];
        }
        if n >= *steps.last().expect("non-empty") as f64 {
            return *self.accuracy.last().expect("non-empty");
        }
        let idx = steps.partition_point(|&s| (s as f64) <= n);
        let (s0, s1) = (steps[idx - 1] as f64, steps[idx] as f64);
        let (a0, a1) = (self.accuracy[idx - 1], self.accuracy[idx]);
        a0 + (a1 - a0) * (n - s0) / (s1 - s0)
    }

    /// The smallest update count reaching `target` accuracy, if the
    /// curve ever does.
    pub fn steps_to_accuracy(&self, target: f64) -> Option<u64> {
        self.steps
            .iter()
            .zip(&self.accuracy)
            .find(|(_, &a)| a >= target)
            .map(|(&s, _)| s)
    }
}

/// Wall-clock seconds to reach `target` accuracy at the given update
/// throughput, if the curve ever reaches it.
pub fn time_to_accuracy(
    minibatches_per_sec: f64,
    curve: &AccuracyCurve,
    target: f64,
) -> Option<f64> {
    if minibatches_per_sec <= 0.0 {
        return None;
    }
    curve
        .steps_to_accuracy(target)
        .map(|steps| steps as f64 / minibatches_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> AccuracyCurve {
        AccuracyCurve::new(vec![0, 100, 200, 400], vec![0.1, 0.5, 0.7, 0.74])
    }

    #[test]
    fn interpolation() {
        let c = curve();
        assert_eq!(c.at(0.0), 0.1);
        assert!((c.at(50.0) - 0.3).abs() < 1e-12);
        assert!((c.at(150.0) - 0.6).abs() < 1e-12);
        assert_eq!(c.at(1000.0), 0.74);
    }

    #[test]
    fn steps_to_target() {
        let c = curve();
        assert_eq!(c.steps_to_accuracy(0.5), Some(100));
        assert_eq!(c.steps_to_accuracy(0.74), Some(400));
        assert_eq!(c.steps_to_accuracy(0.9), None);
    }

    #[test]
    fn faster_throughput_converges_sooner() {
        let c = curve();
        let slow = time_to_accuracy(1.0, &c, 0.7).unwrap();
        let fast = time_to_accuracy(2.0, &c, 0.7).unwrap();
        assert!((slow - 200.0).abs() < 1e-12);
        assert!((fast - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_steps() {
        let _ = AccuracyCurve::new(vec![0, 5, 5], vec![0.0, 0.1, 0.2]);
    }

    #[test]
    fn zero_throughput_never_converges() {
        assert_eq!(time_to_accuracy(0.0, &curve(), 0.5), None);
    }
}
