#include "models/workload.h"

#include <charconv>
#include <initializer_list>
#include <iterator>

#include "common/fingerprint.h"
#include "common/intern.h"
#include "common/logging.h"

namespace flexnerfer {
namespace {

// Op names are literals with static storage, one table per MLP (its
// layers, then its head): a frame never formats or owns a name.
constexpr std::string_view kTrunk8Names[] = {
    "mlp_fc0", "mlp_fc1", "mlp_fc2", "mlp_fc3", "mlp_fc4",
    "mlp_fc5", "mlp_fc6", "mlp_fc7", "mlp_head"};
constexpr std::string_view kTrunk3Names[] = {"mlp_fc0", "mlp_fc1",
                                             "mlp_fc2", "mlp_head"};
constexpr std::string_view kRgbBranchNames[] = {"rgb_branch_fc0",
                                                "rgb_branch_head"};
constexpr std::string_view kTinyMlpNames[] = {"tiny_mlp_fc0", "tiny_mlp_fc1",
                                              "tiny_mlp_head"};
constexpr std::string_view kDensityMlpNames[] = {"density_mlp_fc0",
                                                 "density_mlp_head"};
constexpr std::string_view kColorMlpNames[] = {
    "color_mlp_fc0", "color_mlp_fc1", "color_mlp_head"};
constexpr std::string_view kQkvNames[] = {"ray_transformer_qkv_fc0",
                                          "ray_transformer_qkv_fc1",
                                          "ray_transformer_qkv_head"};
constexpr std::string_view kAggregationNames[] = {"aggregation_fc0",
                                                  "aggregation_head"};
constexpr std::string_view kDecodeMlpNames[] = {"decode_mlp_fc0",
                                                "decode_mlp_head"};
constexpr std::string_view kCnnConvNames[] = {"cnn_conv0", "cnn_conv1",
                                              "cnn_conv2", "cnn_conv3"};

/**
 * Helper appending an MLP chain: input layer, hidden layers, output
 * head, named from @p names (one entry per hidden layer, then the
 * head). @p deps feeds the first layer (the encodings or upstream head
 * whose activations it reads); every later layer chains on its
 * predecessor. Returns the head's op index so downstream stages (a
 * color branch, volume rendering) can depend on it.
 */
template <std::size_t N>
std::size_t
AppendMlp(NerfWorkload* w, const std::string_view (&names)[N], double samples,
          std::int64_t input_dim, std::initializer_list<std::int64_t> hidden,
          std::int64_t output_dim, const WorkloadParams& params,
          OpDeps deps = {})
{
    FLEX_CHECK_MSG(N == hidden.size() + 1,
                   "MLP '" << names[N - 1] << "' has " << N
                           << " names for " << hidden.size() + 1
                           << " layers");
    std::int64_t in = input_dim;
    const auto samples_i = static_cast<std::int64_t>(samples);
    std::size_t layer = 0;
    for (const std::int64_t width : hidden) {
        WorkloadOp op;
        op.kind = OpKind::kGemm;
        op.name = names[layer];
        op.deps = layer == 0 ? deps : OpDeps{w->ops.size() - 1};
        // First layer reads freshly encoded activations (dense); hidden
        // layers see post-ReLU sparsity.
        const double density_a =
            layer == 0 ? 1.0 : params.activation_density;
        op.gemm = {samples_i, in, width, density_a, 1.0,
                   params.weight_prune_ratio};
        op.activations_on_chip = layer != 0;
        w->ops.push_back(op);
        in = width;
        ++layer;
    }
    WorkloadOp head;
    head.kind = OpKind::kGemm;
    head.name = names[N - 1];
    head.deps = hidden.size() == 0 ? deps : OpDeps{w->ops.size() - 1};
    head.gemm = {samples_i, in, output_dim, params.activation_density, 1.0,
                 params.weight_prune_ratio};
    head.activations_on_chip = true;
    w->ops.push_back(head);
    return w->ops.size() - 1;
}

std::size_t
AppendPosEnc(NerfWorkload* w, std::string_view name, double values,
             OpDeps deps = {})
{
    WorkloadOp op;
    op.kind = OpKind::kPositionalEncoding;
    op.name = name;
    op.deps = deps;
    op.encoding_values = values;
    w->ops.push_back(op);
    return w->ops.size() - 1;
}

std::size_t
AppendHashEnc(NerfWorkload* w, std::string_view name, double queries,
              int levels, OpDeps deps = {})
{
    WorkloadOp op;
    op.kind = OpKind::kHashEncoding;
    op.name = name;
    op.deps = deps;
    op.encoding_values = queries * levels;
    w->ops.push_back(op);
    return w->ops.size() - 1;
}

std::size_t
AppendOther(NerfWorkload* w, std::string_view name, double flops,
            OpDeps deps = {})
{
    WorkloadOp op;
    op.kind = OpKind::kOther;
    op.name = name;
    op.deps = deps;
    op.other_flops = flops;
    w->ops.push_back(op);
    return w->ops.size() - 1;
}

}  // namespace

double
WorkloadOp::Macs() const
{
    if (kind != OpKind::kGemm) return 0.0;
    return static_cast<double>(gemm.m) * gemm.k * gemm.n;
}

double
NerfWorkload::TotalGemmMacs() const
{
    double total = 0.0;
    for (const WorkloadOp& op : ops) total += op.Macs();
    return total;
}

double
NerfWorkload::TotalEncodingValues() const
{
    double total = 0.0;
    for (const WorkloadOp& op : ops) total += op.encoding_values;
    return total;
}

void
AppendFingerprint(const NerfWorkload& workload, std::string* out)
{
    FingerprintAppend(out, workload.name);
    FingerprintAppend(out, workload.samples_per_frame);
    FingerprintAppend(out, workload.batch_size);
    FingerprintAppend(out,
                      static_cast<std::uint64_t>(workload.ops.size()));
    for (const WorkloadOp& op : workload.ops) {
        FingerprintAppend(out, static_cast<std::uint8_t>(op.kind));
        FingerprintAppend(out, op.name);
        AppendFingerprint(op.gemm, out);
        FingerprintAppend(out, op.activations_on_chip);
        FingerprintAppend(out, op.encoding_values);
        FingerprintAppend(out, op.other_flops);
        // Dependency edges change the compiled DAG (layering, critical
        // path), so they are part of the plan-cache identity.
        FingerprintAppend(out, static_cast<std::uint64_t>(op.deps.size()));
        for (const std::size_t dep : op.deps) {
            FingerprintAppend(out, static_cast<std::uint64_t>(dep));
        }
    }
}

std::string
WorkloadFingerprint(const NerfWorkload& workload)
{
    std::string out;
    // Ops dominate the encoding at ~100 bytes each.
    out.reserve(64 + workload.ops.size() * 112);
    AppendFingerprint(workload, &out);
    return out;
}

NerfWorkload
FuseBatch(const NerfWorkload& base, std::size_t elements)
{
    if (elements == 0) Fatal("FuseBatch needs at least one element");
    if (elements == 1) return base;
    if (base.ops.empty()) {
        Fatal("cannot batch-fuse workload '" + std::string(base.name) +
              "' with no ops");
    }
    NerfWorkload fused;
    // "+batch<n>", joined to the base name in the interned table: a
    // repeated fuse allocates no name.
    char batch[32] = "+batch";
    const char* const batch_end =
        std::to_chars(batch + 6, std::end(batch), elements).ptr;
    fused.name =
        InternName(base.name, std::string_view(batch, batch_end - batch));
    fused.batch_size = base.batch_size;
    fused.samples_per_frame =
        base.samples_per_frame * static_cast<double>(elements);
    const std::size_t stride = base.ops.size();
    fused.ops.reserve(stride * elements);
    for (std::size_t element = 0; element < elements; ++element) {
        // "#e<k>": interned, so a second fuse of this shape finds every
        // name without allocating.
        char tag[24] = "#e";
        const char* const tag_end =
            std::to_chars(tag + 2, std::end(tag), element).ptr;
        const std::string_view suffix(tag, tag_end - tag);
        for (std::size_t i = 0; i < stride; ++i) {
            WorkloadOp op = base.ops[i];
            op.name = InternName(op.name, suffix);
            // Intra-element edges shift with the replica...
            for (std::size_t& dep : op.deps) dep += element * stride;
            // ...and each stage waits for the previous element to clear
            // it: unit stage occupancy, the pipeline's only coupling.
            if (element > 0) op.deps.push_back((element - 1) * stride + i);
            fused.ops.push_back(op);
        }
    }
    return fused;
}

const std::vector<std::string>&
AllModelNames()
{
    static const std::vector<std::string> names = {
        "NeRF",       "KiloNeRF", "NSVF",    "Mip-NeRF",
        "Instant-NGP", "IBRNet",   "TensoRF"};
    return names;
}

NerfWorkload
BuildWorkload(const std::string& model_name, const WorkloadParams& params)
{
    NerfWorkload w;
    w.name = InternName(model_name);
    w.batch_size = params.batch_size;
    // Sized once: the largest model (NeRF) has 14 ops.
    w.ops.reserve(14);

    const double pixels =
        static_cast<double>(params.image_width) * params.image_height;

    // Dependency edges encode each model's stage structure — the
    // sampling -> feature(encoding) -> color(MLP) -> compositing chain
    // of the paper's runtime breakdown (fig. 3/13) — so the plan layer
    // can overlap whatever is NOT on that chain. Op order stays the
    // publication order (it is the deterministic reduction order);
    // edges may point forward (e.g. an encoding that waits on a
    // sampling op appended after it).
    if (model_name == "NeRF") {
        // Vanilla NeRF: 64 coarse + 128 fine samples per ray, 8 x 256 MLP
        // on 60-d positional encodings plus a 24-d view branch.
        const double samples = pixels * 192.0 * params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t posenc =
            AppendPosEnc(&w, "posenc_xyz_dir", samples * 5.0 * 10.0);
        const std::size_t trunk = AppendMlp(
            &w, kTrunk8Names, samples, 60,
            {256, 256, 256, 256, 256, 256, 256, 256}, 256, params,
            {posenc});
        // The color branch reads the trunk features and the (already
        // computed) view-direction encoding.
        const std::size_t rgb = AppendMlp(&w, kRgbBranchNames, samples,
                                          256 + 24, {128}, 3, params,
                                          {trunk, posenc});
        AppendOther(&w, "volume_rendering", samples * 12.0, {rgb});
        const std::size_t march =
            AppendOther(&w, "ray_marching", pixels * 192.0 * 4.0);
        // Sampling produces the query points the encoder consumes.
        w.ops[posenc].deps = {march};
    } else if (model_name == "KiloNeRF") {
        // Thousands of tiny 2 x 32 MLPs; empty-space skipping keeps ~38%
        // of the vanilla sample count alive, so encoding is a large share.
        const double samples = pixels * 192.0 * 0.38 *
                               params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t posenc =
            AppendPosEnc(&w, "posenc", samples * 5.0 * 10.0);
        const std::size_t head = AppendMlp(&w, kTinyMlpNames, samples, 60,
                                           {32, 32}, 4, params, {posenc});
        AppendOther(&w, "volume_rendering", samples * 12.0, {head});
        // Routing samples to their tiny MLPs precedes encoding them.
        const std::size_t routing =
            AppendOther(&w, "grid_routing", samples * 8.0);
        w.ops[posenc].deps = {routing};
    } else if (model_name == "NSVF") {
        // Sparse voxel embeddings (grid lookups) feeding a 3-layer MLP;
        // voxel filtering keeps ~25% of samples.
        const double samples = pixels * 192.0 * 0.25 *
                               params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t embed =
            AppendHashEnc(&w, "voxel_embedding", samples, 1);
        const std::size_t posenc =
            AppendPosEnc(&w, "posenc", samples * 5.0 * 6.0);
        // Both feature paths feed the MLP and run concurrently once
        // traversal has emitted the surviving samples.
        AppendMlp(&w, kTrunk3Names, samples, 32 + 24, {128, 128, 128}, 4,
                  params, {embed, posenc});
        const std::size_t traversal =
            AppendOther(&w, "voxel_traversal", samples * 16.0);
        w.ops[embed].deps = {traversal};
        w.ops[posenc].deps = {traversal};
    } else if (model_name == "Mip-NeRF") {
        // Integrated positional encoding over conical frustums, single
        // 8 x 256 multiscale MLP, 128 samples per ray.
        const double samples = pixels * 128.0 * params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t posenc = AppendPosEnc(
            &w, "integrated_posenc", samples * 5.0 * 16.0);
        const std::size_t trunk = AppendMlp(
            &w, kTrunk8Names, samples, 96,
            {256, 256, 256, 256, 256, 256, 256, 256}, 256, params,
            {posenc});
        const std::size_t rgb = AppendMlp(&w, kRgbBranchNames, samples,
                                          256 + 24, {128}, 3, params,
                                          {trunk, posenc});
        AppendOther(&w, "volume_rendering", samples * 12.0, {rgb});
    } else if (model_name == "Instant-NGP") {
        // Multiresolution hash encoding (16 levels) + tiny MLPs; occupancy
        // grids keep ~26 samples per ray alive.
        const double samples = pixels * 26.0 * params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t hash =
            AppendHashEnc(&w, "hash_encoding", samples, 16);
        const std::size_t density = AppendMlp(&w, kDensityMlpNames, samples,
                                              32, {64}, 16, params, {hash});
        const std::size_t color = AppendMlp(&w, kColorMlpNames, samples,
                                            16 + 16, {64, 64}, 3, params,
                                            {density});
        AppendOther(&w, "volume_rendering", samples * 12.0, {color});
        const std::size_t march =
            AppendOther(&w, "occupancy_marching", pixels * 26.0 * 6.0);
        w.ops[hash].deps = {march};
    } else if (model_name == "IBRNet") {
        // CNN feature extraction over 10 source views + ray transformer.
        const double views = 10.0;
        const double feat_pixels = pixels / 16.0;  // stride-4 feature maps
        w.samples_per_frame = pixels * 64.0 * params.scene_complexity;
        for (int layer = 0; layer < 4; ++layer) {
            WorkloadOp conv;
            conv.kind = OpKind::kGemm;
            conv.name = kCnnConvNames[layer];
            // Convolution layers chain; conv0 reads the source views.
            if (layer > 0) conv.deps = {w.ops.size() - 1};
            // im2col GEMM: (HW) x (9 * C_in) x C_out per view.
            conv.gemm = {static_cast<std::int64_t>(feat_pixels * views),
                         9 * (layer == 0 ? 3 : 32), 32, 1.0, 1.0,
                         params.weight_prune_ratio};
            w.ops.push_back(conv);
        }
        const std::size_t cnn_out = w.ops.size() - 1;
        const double samples = w.samples_per_frame;
        // The ray transformer's QKV projections read per-sample ray
        // state, so they run concurrently with the per-view CNN; the
        // two branches meet at aggregation, which blends the CNN's
        // view features under the attention weights.
        const std::size_t qkv =
            AppendMlp(&w, kQkvNames, samples, 35, {64, 64}, 16,
                      params);
        const std::size_t agg = AppendMlp(&w, kAggregationNames, samples,
                                          16 * 10, {64}, 4, params);
        const std::size_t softmax = AppendOther(
            &w, "attention_softmax", samples * views * 8.0, {qkv});
        w.ops[agg - 1].deps = {cnn_out, softmax};
        AppendOther(&w, "volume_rendering", samples * 12.0, {agg});
    } else if (model_name == "TensoRF") {
        // Tensorial decomposition: plane/line feature interpolation
        // (grid-style lookups) + small decoding MLP, ~50 samples per ray.
        const double samples = pixels * 50.0 * params.scene_complexity;
        w.samples_per_frame = samples;
        const std::size_t interp =
            AppendHashEnc(&w, "tensor_interp", samples, 3);
        const std::size_t posenc =
            AppendPosEnc(&w, "posenc_app", samples * 3.0 * 2.0);
        const std::size_t head = AppendMlp(&w, kDecodeMlpNames, samples,
                                           27 + 120, {128}, 3, params);
        const std::size_t products = AppendOther(
            &w, "tensor_products", samples * 48.0, {interp});
        // The decoder reads the contracted tensor features plus the
        // appearance encoding, which run as parallel branches.
        w.ops[head - 1].deps = {products, posenc};
        AppendOther(&w, "volume_rendering", samples * 12.0, {head});
    } else {
        Fatal("unknown NeRF model '" + model_name + "'");
    }
    return w;
}

}  // namespace flexnerfer
