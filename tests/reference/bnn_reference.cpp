#include "reference/bnn_reference.hpp"

#include "baselines/float_ops.hpp"
#include "core/binarize.hpp"
#include "core/bn_fold.hpp"

namespace phonebit::baselines {

using core::Activation;
using core::ConvLayerSpec;
using core::DenseLayerSpec;
using core::FloatModel;
using core::PoolLayerSpec;

namespace {

/// Elementwise sign of a tensor, as ±1 floats (weight binarization).
FloatTensor sign_of(const FloatTensor& t) {
  FloatTensor out(t.shape(), t.layout());
  const Shape& s = t.shape();
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t w = 0; w < s.w; ++w)
        for (std::int64_t c = 0; c < s.c; ++c)
          out(n, h, w, c) = t(n, h, w, c) >= 0.0f ? 1.0f : -1.0f;
  return out;
}

/// Folded BN + Eqn 8 binarization over channels, emitting ±1 floats.
FloatTensor fold_and_binarize(const FloatTensor& x1,
                              const std::vector<core::BatchNormParams>& bn,
                              const std::vector<float>& bias) {
  const auto folded = core::fold_batch_norm(bn, bias);
  FloatTensor out(x1.shape(), x1.layout());
  const Shape& s = x1.shape();
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t w = 0; w < s.w; ++w)
        for (std::int64_t c = 0; c < s.c; ++c) {
          const std::size_t ci = static_cast<std::size_t>(c);
          out(n, h, w, c) = core::binarize_eqn8(x1(n, h, w, c), folded.xi[ci],
                                                folded.gamma_pos[ci] != 0)
                                ? 1.0f
                                : -1.0f;
        }
  return out;
}

std::vector<core::BatchNormParams> bn_or_identity(
    const std::vector<core::BatchNormParams>& bn, std::int64_t channels) {
  if (!bn.empty()) return bn;
  return std::vector<core::BatchNormParams>(
      static_cast<std::size_t>(channels),
      core::BatchNormParams{1.0f, 0.0f, 0.0f, 1.0f});
}

}  // namespace

BnnReferenceResult bnn_reference_forward(const FloatModel& model,
                                         const U8Tensor& image) {
  const auto& spec = model.spec;
  PB_CHECK(model.weights.size() == spec.layers.size(),
           "bnn_reference: malformed model");

  // Last parameterized layer stays full precision (mirrors the converter).
  std::size_t last_param = spec.layers.size();
  for (std::size_t i = spec.layers.size(); i-- > 0;) {
    if (!std::holds_alternative<PoolLayerSpec>(spec.layers[i])) {
      last_param = i;
      break;
    }
  }

  BnnReferenceResult result;
  FloatTensor x = u8_to_float(image);  // 0..255 integer pixel domain
  bool first_conv_seen = false;

  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    if (const auto* c = std::get_if<ConvLayerSpec>(&spec.layers[i])) {
      const auto* w = std::get_if<core::ConvWeights>(&model.weights[i]);
      PB_CHECK(w != nullptr, c->name << ": missing weights");
      if (i == last_param) {
        x = conv2d_ref(x, w->w, w->bias, c->geom, 0.0f);
      } else if (!first_conv_seen) {
        first_conv_seen = true;
        // First layer: integer input, ±1 weights, zero padding (Eqn 2's
        // bit-plane decomposition computes exactly this sum).
        const FloatTensor x1 = conv2d_ref(x, sign_of(w->w), {}, c->geom, 0.0f);
        x = fold_and_binarize(x1, bn_or_identity(w->bn, c->c_out), w->bias);
      } else {
        // Binary conv: ±1 input, ±1 weights, -1 padding.
        const FloatTensor x1 =
            conv2d_ref(x, sign_of(w->w), {}, c->geom, -1.0f);
        x = fold_and_binarize(x1, bn_or_identity(w->bn, c->c_out), w->bias);
      }
    } else if (const auto* p = std::get_if<PoolLayerSpec>(&spec.layers[i])) {
      x = maxpool_ref(x, p->geom, -1.0f);
    } else if (const auto* d = std::get_if<DenseLayerSpec>(&spec.layers[i])) {
      const auto* w = std::get_if<core::DenseWeights>(&model.weights[i]);
      PB_CHECK(w != nullptr, d->name << ": missing weights");
      if (i == last_param) {
        x = dense_ref(x, w->w, w->bias);
      } else {
        const FloatTensor x1 = dense_ref(x, sign_of(w->w), {});
        x = fold_and_binarize(x1, bn_or_identity(w->bn, d->out_features),
                              w->bias);
      }
    }
    result.activations.push_back(x);
  }
  result.output = x;
  return result;
}

}  // namespace phonebit::baselines
