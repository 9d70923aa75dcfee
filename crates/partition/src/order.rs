//! Stage-order search for heterogeneous virtual workers.
//!
//! With heterogeneous GPUs inside one virtual worker, which GPU serves
//! which pipeline position matters twice over: memory-poor GPUs prefer
//! *late* stages (fewer in-flight minibatches to hold, per the
//! Figure-1 analysis), and the inter-stage links depend on which GPUs
//! end up adjacent. The paper fixes an assignment per allocation policy;
//! we additionally search over distinct stage orders and keep the best.

use hetpipe_cluster::gpu::GpuSpec;
use std::collections::HashSet;

/// Enumerates the distinct kind-orders of `gpus` (permutations
/// deduplicated by their GPU-kind name sequence), in a fixed
/// deterministic order — the enumeration order every search and
/// reduction below is defined against.
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

/// Evaluates every distinct kind-order of `gpus`, fanning the
/// (independent) evaluations across `std::thread::scope` worker
/// threads, and returns the per-order results **in enumeration
/// order**. Each result lands in the slot of its own index, so the
/// output — and anything reduced from it — is bit-identical to a
/// serial evaluation regardless of thread count or completion order.
///
/// Each order's evaluation is typically a full partition solve (or an
/// `Nm` sweep of them), so the fan-out amortizes even at the paper's
/// 4-GPU scale (24 distinct orders).
///
/// # Panics
///
/// Panics if `gpus` is empty.
pub fn evaluate_orders<R: Send>(
    gpus: &[GpuSpec],
    eval: impl Fn(&[usize]) -> Option<R> + Sync,
) -> Vec<(Vec<usize>, Option<R>)> {
    let orders = distinct_kind_orders(gpus);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(orders.len());
    let mut results: Vec<Option<R>> = Vec::with_capacity(orders.len());
    results.resize_with(orders.len(), || None);
    if threads <= 1 {
        for (order, slot) in orders.iter().zip(results.iter_mut()) {
            *slot = eval(order);
        }
    } else {
        let chunk = orders.len().div_ceil(threads);
        let eval = &eval;
        std::thread::scope(|scope| {
            for (os, rs) in orders.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (order, slot) in os.iter().zip(rs.iter_mut()) {
                        *slot = eval(order);
                    }
                });
            }
        });
    }
    orders.into_iter().zip(results).collect()
}

/// Searches all distinct kind-orders of `gpus`, scoring each with a
/// caller-supplied evaluator (higher is better; `None` = infeasible),
/// and returns the best `(order, score, evaluated_count)`.
///
/// This is the *serial reference* engine behind the parallel
/// [`search_orders_par`] (kept because `FnMut` evaluators cannot fan
/// out, and as the parity oracle `tests/planner_parity.rs` holds the
/// parallel search against); system-level callers use the parallel
/// form with richer objectives (e.g. an estimated-throughput proxy
/// that accounts for the memory-limited `Max_m` of each order).
///
/// # Panics
///
/// Panics if `gpus` is empty.
pub fn search_orders(
    gpus: &[GpuSpec],
    mut eval: impl FnMut(&[usize]) -> Option<f64>,
) -> Option<(Vec<usize>, f64, usize)> {
    let orders = distinct_kind_orders(gpus);
    let evaluated = orders.len();
    let mut best: Option<(Vec<usize>, f64)> = None;
    for order in orders {
        if let Some(score) = eval(&order) {
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((order, score));
            }
        }
    }
    best.map(|(order, score)| (order, score, evaluated))
}

/// [`search_orders`] with the evaluations fanned across scoped worker
/// threads. The reduction walks the results in enumeration order and
/// replaces only on a strictly greater score — exactly the serial
/// fold — so the winning order is bit-identical to [`search_orders`]
/// for the same evaluator.
///
/// # Panics
///
/// Panics if `gpus` is empty.
pub fn search_orders_par(
    gpus: &[GpuSpec],
    eval: impl Fn(&[usize]) -> Option<f64> + Sync,
) -> Option<(Vec<usize>, f64, usize)> {
    let results = evaluate_orders(gpus, eval);
    let evaluated = results.len();
    let mut best: Option<(Vec<usize>, f64)> = None;
    for (order, score) in results {
        if let Some(score) = score {
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((order, score));
            }
        }
    }
    best.map(|(order, score)| (order, score, evaluated))
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
    fn parallel_search_matches_serial_exactly() {
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
        let serial = search_orders(&gpus, eval).unwrap();
        let parallel = search_orders_par(&gpus, eval).unwrap();
        assert_eq!(serial.0, parallel.0, "winning order must be bit-identical");
        assert_eq!(serial.1.to_bits(), parallel.1.to_bits(), "score");
        assert_eq!(serial.2, parallel.2, "evaluated count");
        // The raw fan-out result set is in enumeration order.
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
