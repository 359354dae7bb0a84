#ifndef SESEMI_INFERENCE_COMPILED_MODEL_H_
#define SESEMI_INFERENCE_COMPILED_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "model/graph.h"
#include "model/quantize.h"

namespace sesemi::inference {

/// One layer of the compiled pipeline: every shape- and weight-dependent
/// quantity Execute would otherwise derive per request, resolved once at
/// compile time. Weight/bias/packed fields are offsets (into the owning
/// model's weight blob and packed buffer respectively), so a CompiledModel
/// stays movable.
struct CompiledLayer {
  model::LayerKind kind = model::LayerKind::kInput;
  int32_t in0 = -1;  ///< first input layer index (-1 for kInput)
  int32_t in1 = -1;  ///< second input layer index (kAdd/kConcat)
  model::TensorShape in_shape;   ///< shape of input 0
  model::TensorShape in1_shape;  ///< shape of input 1 (kAdd/kConcat)
  model::TensorShape out_shape;
  uint64_t in_elems = 0;
  uint64_t in1_elems = 0;
  uint64_t out_elems = 0;
  uint64_t arena_offset = 0;  ///< per-sample activation slot (floats)
  int kernel = 0;
  int stride = 1;
  int out_channels = 0;
  int units = 0;
  /// GEMM B dims for kConv2d/kDense (N = out_c/units, K = patch/in_features;
  /// M is the im2col tile height or the batch, chosen at execute). Zero
  /// otherwise.
  int gemm_n = 0, gemm_k = 0;
  uint64_t weight_offset = 0;  ///< into the graph weight blob
  /// Offset of this layer's B panels in the packed buffer, or kNotPacked.
  uint64_t packed_offset = 0;
  /// Offset of the bias vector in the graph weight blob (weighted layers).
  uint64_t bias_offset = 0;
  /// Int8 tier (Options::quantize): offset of this layer's K-grouped int8
  /// panels in the quantized panel buffer, or kNotPacked when the layer runs
  /// fp32.
  uint64_t qpacked_offset = kNotPacked;
  /// First of this layer's gemm_n entries in the per-output-channel scale and
  /// column-sum arrays (quantized layers only).
  uint64_t qmeta_offset = 0;

  static constexpr uint64_t kNotPacked = ~0ull;
};

/// A model compiled once at MODEL_LOAD into an immutable execute-many
/// artifact (the µTVM compile-once/execute-many split): per-layer arena
/// offsets, conv im2col scratch bounds, batch-major strides, and — when
/// Options::pack_weights is set — every Dense/Conv weight matrix re-laid into
/// the 16-wide B panels the GEMM micro-kernels consume (gemm::PackB). The
/// steady-state Execute path does zero shape math and zero heap allocation:
/// all sizing lives here, the caller brings the arena.
///
/// Arena layout (unbatched): one slot per layer back-to-back (DenseNet-style
/// concat topologies keep many activations live, so per-layer slots are the
/// simple correct choice), then one shared conv scratch region. Batched: each
/// slot is replicated batch-major ([batch][elements] rows back-to-back — the
/// contiguity that turns Dense into one M=batch GEMM), followed by one
/// scratch lane per batch-parallel worker (see batch_scratch_lanes).
///
/// \par Thread-safety
/// A CompiledModel is immutable after Compile; any number of threads may run
/// Execute/ExecuteBatch concurrently with disjoint arenas.
class CompiledModel {
 public:
  struct Options {
    /// Pre-pack Dense/Conv weights at compile time (µTVM compiled-executor
    /// semantics: extra resident bytes, faster execution). When false the
    /// kernels read the graph's row-major weights in place (µTFLM
    /// interpreter semantics: no load-time weight processing).
    bool pack_weights = true;
    /// Int8 tier: quantize every Dense/Conv weight matrix at compile time
    /// (symmetric per-output-channel), drop the fp32 matrices from the weight
    /// blob, and execute those layers through the int8 GEMM kernels with
    /// dynamically quantized u7 activations. The compiled artifact is ~4x
    /// smaller than fp32 pack_weights (int8 panels replace both the fp32
    /// matrices and the fp32 panels); Execute stays allocation-free.
    bool quantize = false;
  };

  /// Build the compiled artifact. Validates the graph and takes ownership of
  /// it; weights in the returned object are immutable.
  static Result<CompiledModel> Compile(model::ModelGraph graph,
                                       const Options& options);
  /// Default options (pack_weights on).
  static Result<CompiledModel> Compile(model::ModelGraph graph);

  /// Compile a model whose int8 weights were already produced elsewhere (a
  /// parsed version-2 model file): `graph` may be compacted (quantized
  /// layers' fp32 slices reduced to bias-only) or full fp32, `quant` carries
  /// the matching int8 matrices. Implies Options::quantize.
  static Result<CompiledModel> Compile(model::ModelGraph graph,
                                       model::ModelQuant quant,
                                       const Options& options);

  CompiledModel(CompiledModel&&) = default;
  CompiledModel& operator=(CompiledModel&&) = default;
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  const model::ModelGraph& graph() const { return graph_; }
  bool quantized() const { return options_.quantize; }

  /// Bytes of the pre-packed panel buffers (fp32 panels, plus the int8
  /// panels/scales/column-sums when quantized; 0 when pack_weights is off and
  /// quantize is off). Counted by enclave memory accounting as part of the
  /// loaded model.
  uint64_t packed_weight_bytes() const {
    return packed_.size() * sizeof(float) + packed_q_.size() +
           qscales_.size() * sizeof(float) + qcolsums_.size() * sizeof(int32_t);
  }

  /// Total floats of arena required for one sample (slots + conv scratch).
  uint64_t arena_elements() const { return total_elements_ + scratch_elements_; }
  uint64_t arena_bytes() const { return arena_elements() * sizeof(float); }

  /// Floats of the trailing conv scratch region inside the arena.
  uint64_t scratch_elements() const { return scratch_elements_; }

  /// Floats of the final layer's activation (the Execute output size).
  uint64_t output_elements() const;

  /// Scratch lanes a batch of `batch` samples uses: one per worker that can
  /// fan the batch dimension out (min(batch, ParallelismDegree())).
  int batch_scratch_lanes(int batch) const;

  /// Arena floats a batched execution over `batch` samples needs. Quantized
  /// models append one region for the batch-wide Dense activation rows
  /// (batch x padded-K u7 bytes plus per-row scale/zero-point).
  uint64_t batch_arena_elements(int batch) const {
    return total_elements_ * static_cast<uint64_t>(batch) +
           scratch_elements_ * static_cast<uint64_t>(batch_scratch_lanes(batch)) +
           quant_batch_elements(batch);
  }

  /// Run one sample, writing the final activation (output_elements() floats)
  /// into `out`. Allocation-free: the steady-state inference path. `arena`
  /// must hold arena_elements() floats.
  Status ExecuteInto(ByteSpan input, float* arena, float* out) const;

  /// Run one sample and return the final activation as raw float32 bytes
  /// (one output allocation on top of ExecuteInto).
  Result<Bytes> Execute(ByteSpan input, float* arena) const;

  /// Run the graph once for `inputs.size()` samples — the scheduler's
  /// same-model batch. Dense layers run as ONE M=batch GEMM over the
  /// contiguous batch-major slot rows; elementwise layers fuse into a single
  /// pass over batch*elements; spatial layers (conv/pool/concat/softmax) fan
  /// the batch dimension out over the process fork-join pool, one im2col
  /// scratch lane per worker. Per-element accumulation order is identical to
  /// Execute, so outputs match the unbatched path regardless of how the
  /// batch is carved up. `arena` must hold batch_arena_elements() floats.
  Status ExecuteBatch(const std::vector<ByteSpan>& inputs, float* arena,
                      std::vector<Bytes>* outputs) const;

 private:
  CompiledModel() = default;

  static Result<CompiledModel> CompileImpl(model::ModelGraph graph,
                                           model::ModelQuant quant,
                                           const Options& options);

  /// Run one sample of layer i: activations at the given slot pointers,
  /// conv im2col tiles (and quantized u8 staging) through `scratch`.
  void RunLayerSample(const CompiledLayer& layer, const float* in0,
                      const float* in1, float* out, float* scratch) const;

  /// Floats of the trailing per-batch quantized-Dense region (0 for fp32
  /// models): batch rows of padded-K u7 activations + per-row quant params.
  uint64_t quant_batch_elements(int batch) const {
    if (max_dense_k4_ == 0) return 0;
    const uint64_t bytes =
        static_cast<uint64_t>(batch) * (max_dense_k4_ + 2 * sizeof(float));
    return (bytes + sizeof(float) - 1) / sizeof(float);
  }

  const float* layer_weights(const CompiledLayer& layer) const {
    return graph_.weights.data() + layer.weight_offset;
  }
  const float* layer_bias(const CompiledLayer& layer) const {
    return graph_.weights.data() + layer.bias_offset;
  }
  const float* layer_packed(const CompiledLayer& layer) const {
    return packed_.data() + layer.packed_offset;
  }
  const int8_t* layer_qpacked(const CompiledLayer& layer) const {
    return packed_q_.data() + layer.qpacked_offset;
  }
  const float* layer_qscales(const CompiledLayer& layer) const {
    return qscales_.data() + layer.qmeta_offset;
  }
  const int32_t* layer_qcolsums(const CompiledLayer& layer) const {
    return qcolsums_.data() + layer.qmeta_offset;
  }

  model::ModelGraph graph_;
  Options options_;
  std::vector<CompiledLayer> layers_;
  std::vector<float> packed_;    ///< all layers' fp32 B panels, back-to-back
  std::vector<int8_t> packed_q_; ///< all layers' int8 K-grouped panels
  std::vector<float> qscales_;   ///< per-output-channel weight scales
  std::vector<int32_t> qcolsums_;  ///< per-column weight sums (zp correction)
  uint64_t total_elements_ = 0;
  uint64_t scratch_elements_ = 0;
  uint64_t max_dense_k4_ = 0;  ///< widest padded Dense K of a quantized layer
};

}  // namespace sesemi::inference

#endif  // SESEMI_INFERENCE_COMPILED_MODEL_H_
