//! The model zoo: the paper's two evaluation models plus extras.
//!
//! Section 8.1 of the paper evaluates ResNet-152 and VGG-19 on ImageNet
//! with a minibatch size of 32. The builders below reconstruct those
//! architectures layer by layer; the resulting parameter totals match the
//! sizes the paper quotes in Section 8.3 (VGG-19 ≈ 548 MB, ResNet-152
//! ≈ 230 MB — the paper reports binary megabytes).

use crate::builder::ConvNetBuilder;
use crate::graph::ModelGraph;
use crate::layer::{Layer, LayerKind};

/// ImageNet input resolution.
const IMAGENET_HW: usize = 224;
/// ImageNet class count.
const IMAGENET_CLASSES: usize = 1000;

/// Builds VGG-19 (configuration E of Simonyan & Zisserman) for ImageNet
/// at the given minibatch size.
///
/// 16 convolutional layers in five groups separated by max-pools, then
/// two 4096-wide fully-connected layers and the classifier. The three
/// dense layers carry ~86% of the 143.7 M parameters, which is what
/// makes VGG-19 the paper's "large parameter set" stress case for
/// parameter synchronization (548 MB pushed per wave).
///
/// # Examples
///
/// ```
/// let g = hetpipe_model::vgg19(32);
/// let mib = g.total_param_bytes() as f64 / (1024.0 * 1024.0);
/// assert!((mib - 548.0).abs() < 5.0, "paper quotes 548 MB: {mib}");
/// ```
pub fn vgg19(batch: usize) -> ModelGraph {
    let mut b = ConvNetBuilder::new("VGG-19", batch, 3, IMAGENET_HW, IMAGENET_HW);
    // Group 1: 64 channels.
    b.conv("conv1_1", 64, 3, 1, 1)
        .conv("conv1_2", 64, 3, 1, 1)
        .pool("pool1", 2, 2);
    // Group 2: 128 channels.
    b.conv("conv2_1", 128, 3, 1, 1)
        .conv("conv2_2", 128, 3, 1, 1)
        .pool("pool2", 2, 2);
    // Group 3: 256 channels, four convs.
    b.conv("conv3_1", 256, 3, 1, 1)
        .conv("conv3_2", 256, 3, 1, 1)
        .conv("conv3_3", 256, 3, 1, 1)
        .conv("conv3_4", 256, 3, 1, 1)
        .pool("pool3", 2, 2);
    // Group 4: 512 channels, four convs.
    b.conv("conv4_1", 512, 3, 1, 1)
        .conv("conv4_2", 512, 3, 1, 1)
        .conv("conv4_3", 512, 3, 1, 1)
        .conv("conv4_4", 512, 3, 1, 1)
        .pool("pool4", 2, 2);
    // Group 5: 512 channels, four convs.
    b.conv("conv5_1", 512, 3, 1, 1)
        .conv("conv5_2", 512, 3, 1, 1)
        .conv("conv5_3", 512, 3, 1, 1)
        .conv("conv5_4", 512, 3, 1, 1)
        .pool("pool5", 2, 2);
    // Classifier.
    b.flatten("flatten")
        .linear("fc6", 4096)
        .linear("fc7", 4096)
        .linear("fc8", IMAGENET_CLASSES)
        .loss("softmax", IMAGENET_CLASSES);
    b.build()
}

/// Builds a ResNet for ImageNet with the given per-stage block counts.
fn resnet(name: &str, batch: usize, blocks: [usize; 4]) -> ModelGraph {
    let mut b = ConvNetBuilder::new(name, batch, 3, IMAGENET_HW, IMAGENET_HW);
    b.conv("conv1", 64, 7, 2, 3).pool("pool1", 2, 2);
    let mids = [64, 128, 256, 512];
    let outs = [256, 512, 1024, 2048];
    for stage in 0..4 {
        for i in 0..blocks[stage] {
            // The first block of stages 2-4 downsamples.
            let stride = if stage > 0 && i == 0 { 2 } else { 1 };
            let lname = format!("res{}{}", stage + 2, block_suffix(i));
            b.bottleneck(&lname, mids[stage], outs[stage], stride);
        }
    }
    b.global_avg_pool("avgpool")
        .flatten("flatten")
        .linear("fc", IMAGENET_CLASSES)
        .loss("softmax", IMAGENET_CLASSES);
    b.build()
}

fn block_suffix(i: usize) -> String {
    if i == 0 {
        "a".to_string()
    } else {
        format!("b{i}")
    }
}

/// Builds ResNet-152 for ImageNet at the given minibatch size.
///
/// Stage block counts (3, 8, 36, 3) per He et al.; ~60 M parameters
/// (the paper quotes 230 MB). At batch 32 its training footprint
/// exceeds the 6 GB of a GeForce RTX 2060, which is why the paper's
/// Horovod baseline can only use 12 of the 16 GPUs (Section 8.3).
///
/// # Examples
///
/// ```
/// let g = hetpipe_model::resnet152(32);
/// let mib = g.total_param_bytes() as f64 / (1024.0 * 1024.0);
/// assert!((mib - 230.0).abs() < 15.0, "paper quotes 230 MB: {mib}");
/// ```
pub fn resnet152(batch: usize) -> ModelGraph {
    resnet("ResNet-152", batch, [3, 8, 36, 3])
}

/// Builds ResNet-50 for ImageNet (stage blocks 3, 4, 6, 3).
///
/// Not part of the paper's evaluation; included as a smaller workload
/// for examples and ablations.
pub fn resnet50(batch: usize) -> ModelGraph {
    resnet("ResNet-50", batch, [3, 4, 6, 3])
}

/// Builds a BERT-style Transformer encoder for sequence classification.
///
/// Not part of the paper's evaluation, but squarely in its motivation:
/// Section 1 cites attention models among the "continuously growing"
/// networks that outgrow single GPUs. Each encoder block (multi-head
/// attention + feed-forward + layer norms) is one partitionable unit;
/// `transformer_encoder(12, 768, 12, 128, 32)` approximates BERT-Base
/// (~110 M parameters).
///
/// # Examples
///
/// ```
/// let g = hetpipe_model::transformer_encoder(12, 768, 12, 128, 32);
/// let m = g.total_param_bytes() / 4 / 1_000_000;
/// assert!((85..=115).contains(&m), "BERT-Base-ish parameter count: {m}M");
/// ```
pub fn transformer_encoder(
    layers: usize,
    hidden: usize,
    heads: usize,
    seq: usize,
    batch: usize,
) -> ModelGraph {
    let f32b = 4u64;
    let b = batch as f64;
    let (h, s) = (hidden as f64, seq as f64);
    let mut units = Vec::new();

    // Token + position embeddings (vocabulary 30k, as BERT).
    let vocab = 30_000usize;
    let act = (batch * seq * hidden) as u64 * f32b;
    units.push(Layer {
        name: "embeddings".into(),
        kind: LayerKind::Linear,
        param_bytes: ((vocab + seq) * hidden) as u64 * f32b,
        activation_bytes: act,
        stored_bytes: act,
        // Embedding lookup is a gather: memory-bound, negligible FLOPs.
        fwd_flops: (batch * seq * hidden) as f64,
        bwd_flops: (batch * seq * hidden) as f64,
        membound_bytes: act * 2,
        kernels: 3,
    });

    for i in 0..layers {
        // Attention: 4 projections (Q, K, V, O) of h x h, plus the
        // score/value matmuls (2 * s^2 * h per sequence); FFN: two
        // h x 4h GEMMs; 2 layer norms.
        let proj_macs = 4.0 * h * h * s * b;
        let attn_macs = 2.0 * s * s * h * b;
        let ffn_macs = 2.0 * 4.0 * h * h * s * b;
        let fwd_flops = 2.0 * (proj_macs + attn_macs + ffn_macs);

        let params = (4 * hidden * hidden + 8 * hidden * hidden + 4 * hidden) as u64 * f32b;
        // Stored for backward: block I/O, FFN intermediate (4h), and
        // the per-head attention probabilities (heads x s x s).
        let stored = ((batch * seq * hidden * 6 + batch * heads * seq * seq) as u64) * f32b;
        units.push(Layer {
            name: format!("encoder{i}"),
            kind: LayerKind::TransformerBlock,
            param_bytes: params,
            activation_bytes: act,
            stored_bytes: stored,
            fwd_flops,
            bwd_flops: 2.0 * fwd_flops,
            membound_bytes: act * 6,
            kernels: 16,
        });
    }

    // Pooled classifier head.
    units.push(Layer {
        name: "classifier".into(),
        kind: LayerKind::Linear,
        param_bytes: (hidden * 2) as u64 * f32b,
        activation_bytes: (batch * 2) as u64 * f32b,
        stored_bytes: (batch * 2) as u64 * f32b,
        fwd_flops: 2.0 * h * 2.0 * b,
        bwd_flops: 4.0 * h * 2.0 * b,
        membound_bytes: (batch * hidden) as u64 * f32b,
        kernels: 2,
    });
    units.push(Layer {
        name: "softmax".into(),
        kind: LayerKind::Loss,
        param_bytes: 0,
        activation_bytes: (batch * 2) as u64 * f32b,
        stored_bytes: (batch * 2) as u64 * f32b,
        fwd_flops: (10 * batch) as f64,
        bwd_flops: (4 * batch) as f64,
        membound_bytes: (batch * 2) as u64 * f32b * 2,
        kernels: 2,
    });

    ModelGraph::new(
        format!("Transformer-{layers}L-{hidden}H"),
        batch,
        (batch * seq) as u64 * f32b,
        units,
    )
}

/// Builds a plain multi-layer perceptron: `dims[0] -> dims[1] -> …`,
/// with a softmax loss over the last width.
///
/// Used by the real trainer (`hetpipe-train`) and as a small,
/// exactly-analyzable workload in partitioner tests.
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn mlp(batch: usize, dims: &[usize]) -> ModelGraph {
    assert!(dims.len() >= 2, "an MLP needs an input and an output width");
    let f32b = 4u64;
    let mut layers = Vec::new();
    for (i, win) in dims.windows(2).enumerate() {
        let (d_in, d_out) = (win[0], win[1]);
        let macs = (d_in * d_out * batch) as f64;
        layers.push(Layer {
            name: format!("fc{}", i + 1),
            kind: LayerKind::Linear,
            param_bytes: ((d_in * d_out) + d_out) as u64 * f32b,
            activation_bytes: (batch * d_out) as u64 * f32b,
            stored_bytes: (batch * d_out) as u64 * f32b,
            fwd_flops: 2.0 * macs,
            bwd_flops: 4.0 * macs,
            membound_bytes: (batch * d_out) as u64 * f32b,
            kernels: 2,
        });
    }
    let classes = *dims.last().expect("non-empty dims");
    layers.push(Layer {
        name: "softmax".into(),
        kind: LayerKind::Loss,
        param_bytes: 0,
        activation_bytes: (batch * classes) as u64 * f32b,
        stored_bytes: (batch * classes) as u64 * f32b,
        fwd_flops: (5 * batch * classes) as f64,
        bwd_flops: (2 * batch * classes) as f64,
        membound_bytes: (batch * classes) as u64 * f32b * 2,
        kernels: 2,
    });
    ModelGraph::new(
        format!("MLP-{}", dims.len() - 1),
        batch,
        (batch * dims[0]) as u64 * f32b,
        layers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn vgg19_matches_paper_parameter_size() {
        let g = vgg19(32);
        let mib = g.total_param_bytes() as f64 / MIB;
        // Section 8.3: "VGG-19 whose parameter size is 548MB".
        assert!((mib - 548.0).abs() < 5.0, "VGG-19 params = {mib:.1} MiB");
        // 143.7M parameters, per Simonyan & Zisserman.
        let m = g.total_param_bytes() / 4 / 1_000_000;
        assert_eq!(m, 143);
    }

    #[test]
    fn resnet152_matches_paper_parameter_size() {
        let g = resnet152(32);
        let mib = g.total_param_bytes() as f64 / MIB;
        // Section 8.3: "ResNet-152 whose parameter size is 230MB".
        assert!(
            (mib - 230.0).abs() < 15.0,
            "ResNet-152 params = {mib:.1} MiB"
        );
    }

    #[test]
    fn resnet152_has_152_conv_layers() {
        // 152 = 1 (stem) + 3*(3+8+36+3) (three convs per bottleneck) + 1 (fc).
        let g = resnet152(32);
        let blocks = g
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::ResidualBlock)
            .count();
        assert_eq!(blocks, 50);
        assert_eq!(1 + 3 * blocks + 1, 152);
    }

    #[test]
    fn vgg19_has_19_weight_layers() {
        let g = vgg19(32);
        let convs = g
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::Conv2d)
            .count();
        let fcs = g
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::Linear)
            .count();
        assert_eq!(convs, 16);
        assert_eq!(fcs, 3);
        assert_eq!(convs + fcs, 19);
    }

    #[test]
    fn vgg19_dense_layers_dominate_params() {
        let g = vgg19(32);
        let dense: u64 = g
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::Linear)
            .map(|l| l.param_bytes)
            .sum();
        let frac = dense as f64 / g.total_param_bytes() as f64;
        assert!(frac > 0.8, "FC layers carry {:.0}% of params", frac * 100.0);
    }

    #[test]
    fn resnet_flops_scale_with_depth() {
        let r50 = resnet50(32);
        let r152 = resnet152(32);
        let ratio = r152.total_flops() / r50.total_flops();
        // Published GFLOPs: ~11.5 vs ~4.1 forward => ratio ~2.8.
        assert!(ratio > 2.2 && ratio < 3.4, "ratio = {ratio:.2}");
    }

    #[test]
    fn vgg19_flops_per_image_near_published() {
        let g = vgg19(1);
        let fwd: f64 = g.layers().iter().map(|l| l.fwd_flops).sum();
        let gflops = fwd / 1e9;
        // Published forward cost ~19.6 GFLOPs/image (2x MACs).
        assert!(
            (gflops - 39.2).abs() < 4.0,
            "VGG-19 fwd = {gflops:.1} GFLOPs (2x MAC counting)"
        );
    }

    #[test]
    fn batch_scales_activations_not_params() {
        let a = vgg19(16);
        let b = vgg19(32);
        assert_eq!(a.total_param_bytes(), b.total_param_bytes());
        assert_eq!(
            2 * a.layers()[0].activation_bytes,
            b.layers()[0].activation_bytes
        );
        assert!((2.0 * a.total_flops() - b.total_flops()).abs() / b.total_flops() < 1e-12);
    }

    #[test]
    fn transformer_encoder_profile() {
        let g = transformer_encoder(12, 768, 12, 128, 32);
        assert_eq!(g.len(), 1 + 12 + 2, "embeddings + blocks + head + loss");
        // Every encoder block carries identical parameters.
        let blocks: Vec<&Layer> = g
            .layers()
            .iter()
            .filter(|l| l.kind == LayerKind::TransformerBlock)
            .collect();
        assert_eq!(blocks.len(), 12);
        assert!(blocks
            .windows(2)
            .all(|w| w[0].param_bytes == w[1].param_bytes));
        // ~7M parameters per block (12 * h^2 + norms at h = 768).
        let per_block = blocks[0].param_bytes / 4;
        assert!((6_500_000..7_500_000).contains(&per_block), "{per_block}");
        // Attention probabilities make stored bytes exceed plain I/O.
        assert!(blocks[0].stored_bytes > blocks[0].activation_bytes * 4);
    }

    #[test]
    fn transformer_partitionable_on_testbed_vw() {
        // The encoder splits cleanly across a heterogeneous VW.
        use hetpipe_cluster::GpuKind;
        let g = transformer_encoder(24, 1024, 16, 256, 32);
        let total = g.total_flops();
        assert!(total > 0.0);
        let _ = GpuKind::ALL;
        assert!(
            g.total_param_bytes() > (300u64 << 20),
            "a deliberately large model"
        );
    }

    #[test]
    fn mlp_builder() {
        let g = mlp(8, &[784, 256, 10]);
        assert_eq!(g.len(), 3, "two linears + loss");
        assert_eq!(
            g.total_param_bytes(),
            ((784 * 256 + 256) + (256 * 10 + 10)) as u64 * 4
        );
        assert_eq!(g.input_bytes, 8 * 784 * 4);
    }

    #[test]
    #[should_panic(expected = "an MLP needs")]
    fn mlp_rejects_single_width() {
        let _ = mlp(8, &[784]);
    }

    #[test]
    fn resnet_activation_memory_exceeds_vgg() {
        // The crux of the paper's memory gate: ResNet-152 stores more
        // activation bytes than VGG-19 despite fewer parameters.
        let r = resnet152(32);
        let v = vgg19(32);
        assert!(r.total_stored_bytes() > v.total_stored_bytes());
        assert!(r.total_param_bytes() < v.total_param_bytes());
    }
}
