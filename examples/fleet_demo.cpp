// fleet_demo — heterogeneous device-fleet serving end to end: a
// serve::FleetServer sharding one request stream across three simulated
// phone tiers (Snapdragon 855 / 660 / 625), each shard serving its own
// per-profile .pba artifact the way `pbc compile-fleet` would emit them.
//
// Placement is cost-model aware: every request is scored per shard as
// modeled latency on that shard's profile plus the virtual wait for one of
// its lanes, so steady traffic rides the flagship until its queue builds,
// then spills tier by tier — reject-to-next-shard before rejecting the
// user. Because every decision runs in virtual time, the per-shard
// assignment histogram printed below is bit-identical run after run,
// whatever the real worker count does (try ./build/fleet_demo 1 vs 16).
//
// Build & run:  ./build/fleet_demo [exec_workers]
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/phonebit.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"

using namespace phonebit;

int main(int argc, char** argv) {
  const int exec_workers = argc > 1 ? std::atoi(argv[1]) : 4;

  // Three tiers: flagship, mid-range, entry — profiles looked up by the
  // same keys pbc/artifacts use.
  serve::FleetConfig cfg;
  cfg.shards.push_back(serve::ShardSpec{"flagship", "sd855", 2});
  cfg.shards.push_back(serve::ShardSpec{"mid", "sd660", 2});
  cfg.shards.push_back(serve::ShardSpec{"entry", "sd625", 2});
  cfg.exec_workers = exec_workers;
  cfg.lanes_per_shard = 2;
  cfg.queue_limit = 5;
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 0.5;
  cfg.wait_weight = 1.0;

  serve::FaultPlan faults;
  faults.seed = 21;
  faults.transient_rate = 0.06;
  faults.spike_rate = 0.04;
  faults.spike_ms = 2.0;

  serve::FleetServer fleet(cfg, faults, "demo-fleet");

  // One .pba per profile, compile-fleet style: compiled once, validated
  // against each target profile's RAM budget, stamped with its key.
  const core::NetworkSpec spec = models::quicknet(10);
  auto net = core::convert_to_phonebit(core::FloatModel::random(spec, 11));
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  std::vector<std::string> paths;
  for (int si = 0; si < fleet.shard_count(); ++si) {
    const std::string key = fleet.shard_spec(si).profile;
    const std::string path = "fleet_demo_cls." + key + ".pba";
    artifact::compile_for_profile(*net, core::EngineOptions{}, desc,
                                  key, path);
    paths.push_back(path);
  }
  fleet.load_model("cls", paths);

  // The trace: steady traffic slightly past flagship capacity, plus a
  // 100-request burst at t=80ms that forces spillover and shedding.
  std::vector<serve::Request> workload;
  auto push = [&workload](core::Blob input, double at) {
    serve::Request r;
    r.model = "cls";
    r.input = std::move(input);
    r.arrival_ms = at;
    workload.push_back(std::move(r));
  };
  for (int i = 0; i < 300; ++i) {
    push(core::Blob{datasets::random_image(spec.input, 100 + i)}, 0.35 * i);
  }
  for (int i = 0; i < 100; ++i) {
    push(core::Blob{datasets::random_image(spec.input, 900 + i)}, 80.0);
  }

  const serve::ServerSummary s = fleet.run(std::move(workload));

  std::printf("fleet '%s': %d requests over %d shards, %d exec workers\n",
              fleet.name().c_str(), s.requests, fleet.shard_count(),
              cfg.exec_workers);
  std::printf("  faults          %s\n", faults.str().c_str());
  std::printf("  status          %d ok / %d shed / %d deadline / %d failed\n",
              s.ok, s.shed, s.deadline_exceeded, s.failed);
  std::printf("  retries         %d transient-fault retries absorbed\n",
              s.retries);
  std::printf("  spillovers      %d reject-to-next-shard hops\n",
              s.spillovers);
  std::printf("  makespan        %.1f virtual ms fleet-wide\n", s.makespan_ms);
  std::printf("  host wall       %.1f ms for the whole trace\n\n", s.wall_ms);

  std::printf("per-shard accounting (virtual-time latency of Ok requests):\n");
  for (int si = 0; si < fleet.shard_count(); ++si) {
    const serve::SummaryRow& st = s.shards[static_cast<std::size_t>(si)];
    std::printf("  %-8s %-6s %4d req | ok %3d ddl %3d fail %3d | "
                "p50 %6.3f p99 %6.3f ms | depth %d | util %4.1f%%\n",
                st.name.c_str(), fleet.shard_spec(si).profile.c_str(),
                st.requests, st.ok, st.deadline_exceeded, st.failed,
                st.p50_ms, st.p99_ms, st.max_queue_depth,
                100.0 * st.utilization);
  }

  std::printf("\nassignment histogram (bit-identical at any worker count):");
  for (int si = 0; si < fleet.shard_count(); ++si) {
    std::printf(" %s=%d", fleet.shard_spec(si).name.c_str(),
                s.stage_assignment[0][static_cast<std::size_t>(si)]);
  }
  std::printf("\n");

  for (const std::string& p : paths) std::remove(p.c_str());
  return 0;
}
