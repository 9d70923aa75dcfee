//! Stage-order search for heterogeneous virtual workers.
//!
//! With heterogeneous GPUs inside one virtual worker, which GPU serves
//! which pipeline position matters twice over: memory-poor GPUs prefer
//! *late* stages (fewer in-flight minibatches to hold, per the
//! Figure-1 analysis), and the inter-stage links depend on which GPUs
//! end up adjacent. The paper fixes an assignment per allocation policy;
//! the system builder additionally searches the distinct stage orders
//! enumerated here and keeps the best.

use hetpipe_cluster::gpu::GpuSpec;
use std::collections::HashSet;

/// Enumerates the distinct kind-orders of `gpus` (permutations
/// deduplicated by their GPU-kind name sequence), in a fixed
/// deterministic order — the order [`evaluate_orders`] reports in and
/// the system builder's order search breaks proxy ties by.
///
/// # Panics
///
/// Panics if `gpus` is empty.
pub fn distinct_kind_orders(gpus: &[GpuSpec]) -> Vec<Vec<usize>> {
    assert!(!gpus.is_empty(), "need at least one GPU");
    let mut orders = Vec::new();
    let mut seen = HashSet::new();
    let mut indices: Vec<usize> = (0..gpus.len()).collect();
    permute(&mut indices, 0, &mut |order| {
        // Deduplicate orders that read identically kind-wise.
        let key: Vec<&'static str> = order.iter().map(|&i| gpus[i].name).collect();
        if seen.insert(key) {
            orders.push(order.to_vec());
        }
    });
    orders
}

/// Evaluates every distinct kind-order of `gpus` in turn and returns
/// the per-order results **in enumeration order**: slot `i` holds
/// `eval` of the `i`-th order of [`distinct_kind_orders`]. `None` marks
/// an infeasible order.
///
/// # Panics
///
/// Panics if `gpus` is empty.
pub fn evaluate_orders<R: Send>(
    gpus: &[GpuSpec],
    eval: impl Fn(&[usize]) -> Option<R> + Sync,
) -> Vec<(Vec<usize>, Option<R>)> {
    distinct_kind_orders(gpus)
        .into_iter()
        .map(|order| {
            let result = eval(&order);
            (order, result)
        })
        .collect()
}

/// Heap-style in-place permutation visitor.
fn permute(items: &mut Vec<usize>, start: usize, visit: &mut impl FnMut(&[usize])) {
    if start == items.len() {
        visit(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, visit);
        items.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PartitionProblem;
    use crate::solver::PartitionSolver;
    use hetpipe_cluster::network::LinkKind;
    use hetpipe_cluster::GpuKind;
    use hetpipe_model::resnet152;

    #[test]
    fn homogeneous_order_is_unique() {
        let gpus = vec![GpuKind::TitanV.spec(); 4];
        // All orders of identical GPUs coincide.
        assert_eq!(distinct_kind_orders(&gpus), [[0, 1, 2, 3]]);
    }

    #[test]
    fn heterogeneous_order_count() {
        let gpus = vec![
            GpuKind::TitanV.spec(),
            GpuKind::TitanV.spec(),
            GpuKind::QuadroP4000.spec(),
            GpuKind::QuadroP4000.spec(),
        ];
        // 4!/(2!2!) = 6 distinct kind-orders.
        assert_eq!(distinct_kind_orders(&gpus).len(), 6);
    }

    #[test]
    fn evaluate_orders_fills_slots_in_enumeration_order() {
        let g = resnet152(32);
        let gpus = vec![
            GpuKind::QuadroP4000.spec(),
            GpuKind::Rtx2060.spec(),
            GpuKind::TitanRtx.spec(),
            GpuKind::TitanV.spec(),
        ];
        let eval = |order: &[usize]| {
            let ordered: Vec<GpuSpec> = order.iter().map(|&i| gpus[i].clone()).collect();
            let problem = PartitionProblem::new(&g, ordered, vec![LinkKind::Pcie; 3], 4);
            PartitionSolver::solve(&problem)
                .ok()
                .map(|plan| -plan.bottleneck_secs)
        };
        let results = evaluate_orders(&gpus, eval);
        assert_eq!(results.len(), 24);
        assert_eq!(
            results.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
            distinct_kind_orders(&gpus)
        );
        for (order, score) in &results {
            assert_eq!(
                score.map(f64::to_bits),
                eval(order).map(f64::to_bits),
                "slot content must match a direct evaluation"
            );
        }
    }
}
