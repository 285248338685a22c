// PhoneBit quickstart — the Fig. 2 deployment flow end to end:
//   1. take a trained full-precision model (synthetic stand-in here),
//   2. convert it to the PhoneBit binary format (binarize + fold BN),
//   3. compile it for a simulated phone SoC (kernel selection, fusion,
//      activation slots, exact memory peaks),
//   4. "upload" it: save the .pba artifact, load it back through
//      Engine::load_artifact (zero re-planning) and run the LOADED plan.
//
// Build & run:  ./build/quickstart
//
// `quickstart plan_dump` skips inference and prints the loaded
// ExecutionPlan instead (per-step kernel variants, activation slots, exact
// scratch peak) — the ctest smoke target runs this mode.
// `quickstart fused_dump` additionally self-checks the conv→pool fusion
// pass: it verifies the printed plan contains fused steps and per-slot
// slab backing offsets (the quickstart_fused_dump ctest target).
// `quickstart artifact` self-checks the upload step: the loaded plan must
// reproduce the in-memory compiled forward bit-exactly with zero
// re-planning (the quickstart_artifact ctest target).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"

int main(int argc, char** argv) {
  using namespace phonebit;
  const bool fused_dump =
      argc > 1 && std::strcmp(argv[1], "fused_dump") == 0;
  const bool plan_dump =
      fused_dump || (argc > 1 && std::strcmp(argv[1], "plan_dump") == 0);
  const bool artifact_mode =
      argc > 1 && std::strcmp(argv[1], "artifact") == 0;
  // The ctest targets run every mode concurrently in the build dir: each
  // mode writes its own artifact file so the runs never race on it.
  const std::string mode = argc > 1 ? argv[1] : "run";
  const std::string pba_path = "quicknet_" + mode + ".pba";

  // (1) A trained model. In a real deployment this comes from a BNN
  // training framework; here it is a deterministic synthetic checkpoint.
  const auto spec = models::quicknet(/*classes=*/10);
  const auto trained = core::FloatModel::random(spec, /*seed=*/42);
  std::printf("full-precision model: %s, %.2f MB\n", spec.name.c_str(),
              static_cast<double>(spec.float_param_bytes()) / 1e6);

  // (2) Convert: binarize weights, fold batch-norm into thresholds.
  auto net = core::convert_to_phonebit(trained);
  std::printf("converted PhoneBit model: %.3f MB (%.1fx smaller)\n",
              static_cast<double>(net->param_bytes()) / 1e6,
              static_cast<double>(spec.float_param_bytes()) /
                  static_cast<double>(net->param_bytes()));

  // (3) Compile for the simulated Snapdragon 855 (Adreno 640).
  // compile() walks the pipeline once — shape inference, buffer-liveness
  // slot assignment, ahead-of-time kernel selection — and the resulting
  // ExecutionPlan is immutable: any number of sessions can run it
  // concurrently with zero per-forward re-planning or arena growth.
  auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855());
  core::Engine engine(device);

  const U8Tensor image = datasets::cifar_like_image(/*seed=*/7);
  const core::ExecutionPlan plan =
      net->compile(engine, core::BlobDesc{core::BlobKind::kU8, image.shape()});

  // (4) "Upload": the .pba artifact carries the network AND its plan; the
  // phone-side engine loads it (validating the device profile's RAM) and
  // runs it without re-planning anything.
  artifact::save(*net, plan, pba_path);
  const artifact::LoadedArtifact deployed = engine.load_artifact(pba_path);
  std::remove(pba_path.c_str());

  if (plan_dump) {
    const std::string dump = deployed.plan.dump();
    std::printf("%s", dump.c_str());
    if (fused_dump) {
      // Self-checking smoke: the fused plan must surface fused conv→pool
      // steps and the per-slot slab backing offsets.
      if (dump.find("+maxpool") == std::string::npos) {
        std::fprintf(stderr, "fused_dump: no fused conv+pool step in plan\n");
        return 1;
      }
      // The slab summary must list each slot WITH its byte offset
      // ("slotN=<size>@<offset>") and a step line must reference its slot
      // backing ("slot=0@<offset>") — plain "slot0=" / "@" would also
      // match a dump that lost the offset printing.
      if (dump.find("slot0=") == std::string::npos ||
          dump.find("B@0") == std::string::npos ||
          dump.find(" slot=0@") == std::string::npos ||
          dump.find(" out@") == std::string::npos) {
        std::fprintf(stderr, "fused_dump: no slot backing offsets in plan\n");
        return 1;
      }
      std::printf("fused_dump: ok (%zu steps, fused steps present, "
                  "slot offsets printed)\n",
                  deployed.plan.steps().size());
    }
    return 0;
  }

  auto session = engine.create_session();
  const auto result = deployed.plan.run(session, core::Blob{image});

  if (artifact_mode) {
    // The loaded plan must replay the in-memory compiled forward
    // bit-exactly — zero re-planning, zero re-selection.
    auto fresh_session = engine.create_session();
    const auto fresh = plan.run(fresh_session, core::Blob{image});
    if (!allclose(result.float_output(), fresh.float_output(), 0.0f)) {
      std::fprintf(stderr, "artifact: loaded forward diverged\n");
      return 1;
    }
    if (result.modeled_ms != fresh.modeled_ms ||
        session.stats().variant_selections != 0 ||
        session.stats().compiles != 0) {
      std::fprintf(stderr, "artifact: loaded plan re-planned or drifted\n");
      return 1;
    }
    std::printf("artifact: ok (%zu steps, save -> load -> run bit-exact, "
                "%.4f ms modeled)\n",
                deployed.plan.steps().size(), result.modeled_ms);
    return 0;
  }

  const FloatTensor& scores = result.float_output();
  std::printf("\nclass scores:\n");
  for (std::int64_t c = 0; c < scores.shape().c; ++c) {
    std::printf("  class %2lld: %8.2f\n", static_cast<long long>(c),
                static_cast<double>(scores(0, 0, 0, c)));
  }

  std::printf("\nper-layer modeled time on %s:\n",
              device->profile().soc_name.c_str());
  for (const auto& r : result.report) {
    std::printf("  %-8s %8.4f ms  (%d kernel launch%s)\n", r.name.c_str(),
                r.modeled_ms, r.launches, r.launches == 1 ? "" : "es");
  }
  std::printf("total: %.4f ms modeled (%.1f ms host wall)\n",
              result.modeled_ms, result.host_ms);
  return 0;
}
