// yolo_detect — the paper's YOLOv2-Tiny-on-VOC scenario end to end: the
// binarized detector runs on a synthetic VOC-like image and this program
// decodes the 13x13x125 region output into boxes (5 anchors x (tx ty tw th
// to + 20 class scores)), applies confidence thresholding and NMS, and
// prints the detections with per-layer timings.
//
// Build & run:  ./build/examples/yolo_detect [shrink_log2]
// Default shrink 2 (104x104) for a quick run; 0 = the paper's 416x416.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"

namespace {

// darknet tiny-yolo-voc anchors (grid-cell units).
constexpr double kAnchors[5][2] = {
    {1.08, 1.19}, {3.42, 4.41}, {6.63, 11.38}, {9.42, 5.11}, {16.62, 10.52}};

constexpr const char* kVocClasses[20] = {
    "aeroplane", "bicycle", "bird",  "boat",      "bottle", "bus",   "car",
    "cat",       "chair",   "cow",   "din.table", "dog",    "horse", "motorbike",
    "person",    "plant",   "sheep", "sofa",      "train",  "tv"};

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

struct Detection {
  double x, y, w, h, confidence;
  int cls;
};

double iou(const Detection& a, const Detection& b) {
  const double x1 = std::max(a.x - a.w / 2, b.x - b.w / 2);
  const double y1 = std::max(a.y - a.h / 2, b.y - b.h / 2);
  const double x2 = std::min(a.x + a.w / 2, b.x + b.w / 2);
  const double y2 = std::min(a.y + a.h / 2, b.y + b.h / 2);
  const double inter = std::max(0.0, x2 - x1) * std::max(0.0, y2 - y1);
  const double uni = a.w * a.h + b.w * b.h - inter;
  return uni > 0 ? inter / uni : 0.0;
}

/// Decodes the region layer output (N,S,S,125) into thresholded detections.
std::vector<Detection> decode_region(const phonebit::FloatTensor& out,
                                     double conf_threshold) {
  std::vector<Detection> dets;
  const auto& s = out.shape();
  for (std::int64_t gy = 0; gy < s.h; ++gy)
    for (std::int64_t gx = 0; gx < s.w; ++gx)
      for (int a = 0; a < 5; ++a) {
        const std::int64_t base = a * 25;
        const double tx = out(0, gy, gx, base + 0);
        const double ty = out(0, gy, gx, base + 1);
        const double tw = out(0, gy, gx, base + 2);
        const double th = out(0, gy, gx, base + 3);
        const double to = out(0, gy, gx, base + 4);
        // Softmax over the 20 class logits.
        double maxl = -1e30;
        for (int c = 0; c < 20; ++c) {
          maxl = std::max(maxl, static_cast<double>(out(0, gy, gx, base + 5 + c)));
        }
        double sum = 0.0;
        double probs[20];
        for (int c = 0; c < 20; ++c) {
          probs[c] = std::exp(out(0, gy, gx, base + 5 + c) - maxl);
          sum += probs[c];
        }
        int best = 0;
        for (int c = 1; c < 20; ++c) {
          if (probs[c] > probs[best]) best = c;
        }
        const double conf = sigmoid(to) * (probs[best] / sum);
        if (conf < conf_threshold) continue;
        Detection d;
        d.x = (gx + sigmoid(tx)) / static_cast<double>(s.w);
        d.y = (gy + sigmoid(ty)) / static_cast<double>(s.h);
        d.w = kAnchors[a][0] * std::exp(std::min(tw, 8.0)) /
              static_cast<double>(s.w);
        d.h = kAnchors[a][1] * std::exp(std::min(th, 8.0)) /
              static_cast<double>(s.h);
        d.confidence = conf;
        d.cls = best;
        dets.push_back(d);
      }
  return dets;
}

std::vector<Detection> nms(std::vector<Detection> dets, double iou_threshold) {
  std::sort(dets.begin(), dets.end(), [](const auto& a, const auto& b) {
    return a.confidence > b.confidence;
  });
  std::vector<Detection> kept;
  for (const auto& d : dets) {
    bool suppressed = false;
    for (const auto& k : kept) {
      if (k.cls == d.cls && iou(k, d) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phonebit;

  models::ZooOptions zoo;
  zoo.shrink_log2 = argc > 1 ? std::atoi(argv[1]) : 2;
  const auto spec = models::yolov2_tiny(zoo);
  const auto trained = core::FloatModel::random(spec, 4242);
  auto net = core::convert_to_phonebit(trained);

  std::printf("YOLOv2-Tiny (input %lldx%lld): %.2f MB full -> %.2f MB binary\n",
              static_cast<long long>(spec.input.h),
              static_cast<long long>(spec.input.w),
              static_cast<double>(spec.float_param_bytes()) / 1e6,
              static_cast<double>(net->param_bytes()) / 1e6);

  const U8Tensor image = datasets::voc_like_image(spec.input.h, 3141);
  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);
  const core::ExecutionPlan plan =
      net->compile(core::EngineOptions{},
                   core::BlobDesc{core::BlobKind::kU8, image.shape()});
  auto session = engine.create_session();
  const auto result = plan.run(session, core::Blob{image});
  const FloatTensor& region = result.float_output();

  std::printf("\nregion output grid: %lldx%lldx%lld\n",
              static_cast<long long>(region.shape().h),
              static_cast<long long>(region.shape().w),
              static_cast<long long>(region.shape().c));

  // Synthetic weights produce arbitrary boxes; the decode path is the point.
  auto dets = nms(decode_region(region, /*conf_threshold=*/0.35), 0.45);
  std::printf("detections after NMS (conf > 0.35):\n");
  if (dets.empty()) std::printf("  (none above threshold)\n");
  const std::size_t show = std::min<std::size_t>(dets.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& d = dets[i];
    std::printf("  %-10s conf %.2f  center (%.2f, %.2f)  size %.2fx%.2f\n",
                kVocClasses[d.cls], d.confidence, d.x, d.y, d.w, d.h);
  }

  std::printf("\nper-layer modeled time on %s (the Fig. 5 axis):\n",
              device->profile().soc_name.c_str());
  for (const auto& r : result.report) {
    std::printf("  %-6s %9.4f ms\n", r.name.c_str(), r.modeled_ms);
  }
  std::printf("total: %.3f ms modeled per frame (%.1f modeled FPS)\n",
              result.modeled_ms, 1000.0 / result.modeled_ms);
  return 0;
}
